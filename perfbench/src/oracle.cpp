// The correctness oracle: core::reference_components once per dataset, and a
// checker that compares every timed run's partition with it.
#include <algorithm>
#include <limits>
#include <string>

#include "core/stats.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace core = metaprep::core;

Oracle make_oracle(const core::DatasetIndex& index) {
  Oracle o;
  o.labels = core::reference_components(index, core::KmerFreqFilter{});
  const core::ComponentSummary s = core::summarize_components(o.labels);
  o.num_components = s.num_components;
  o.largest_size = s.largest;
  return o;
}

PartitionCheck same_partition(std::span<const std::uint32_t> labels,
                              std::span<const std::uint32_t> reference) {
  if (labels.size() != reference.size()) {
    return {false, "label count " + std::to_string(labels.size()) + " != " +
                       std::to_string(reference.size())};
  }
  // A renaming is a bijection between the two label alphabets: map both
  // ways and reject the first read whose pair contradicts either map.
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t alphabet = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    alphabet = std::max({alphabet, labels[i], reference[i]});
  }
  std::vector<std::uint32_t> fwd(static_cast<std::size_t>(alphabet) + 1, kUnset);
  std::vector<std::uint32_t> bwd(static_cast<std::size_t>(alphabet) + 1, kUnset);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::uint32_t& f = fwd[labels[i]];
    std::uint32_t& b = bwd[reference[i]];
    if (f == kUnset && b == kUnset) {
      f = reference[i];
      b = labels[i];
    } else if (f != reference[i] || b != labels[i]) {
      return {false, "read " + std::to_string(i) + " is in the wrong component"};
    }
  }
  return {true, ""};
}

PartitionCheck check_result(const core::PipelineResult& result, const Oracle& oracle) {
  if (result.num_components != oracle.num_components) {
    return {false, "num_components " + std::to_string(result.num_components) + " != " +
                       std::to_string(oracle.num_components)};
  }
  if (result.largest_size != oracle.largest_size) {
    return {false, "largest_size " + std::to_string(result.largest_size) + " != " +
                       std::to_string(oracle.largest_size)};
  }
  return same_partition(result.labels, oracle.labels);
}

std::string checker_self_test(const Oracle& oracle) {
  const std::vector<std::uint32_t>& ref = oracle.labels;
  const auto n = static_cast<std::uint32_t>(ref.size());
  if (n < 2) return "oracle has fewer than two reads";

  // A pure renaming (label -> n-1-label) must pass.
  std::vector<std::uint32_t> renamed(ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) renamed[i] = n - 1 - ref[i];
  if (!same_partition(renamed, ref).ok) return "a renamed partition was rejected";

  // Two distinct components: the one holding read 0 (a) and another (b).
  const std::uint32_t a = ref[0];
  const auto b_it = std::find_if(ref.begin(), ref.end(), [&](std::uint32_t l) { return l != a; });
  if (b_it == ref.end()) return "oracle has a single component";
  const std::uint32_t b = *b_it;

  // Moving one read of a multi-read component into the other component
  // changes the partition and must fail.
  std::vector<std::uint32_t> size(n, 0);
  for (const std::uint32_t l : ref) ++size[l];
  const auto moved =
      std::find_if(ref.begin(), ref.end(), [&](std::uint32_t l) { return size[l] >= 2; });
  if (moved == ref.end()) return "oracle has no multi-read component";
  std::vector<std::uint32_t> corrupt = ref;
  corrupt[static_cast<std::size_t>(moved - ref.begin())] = *moved == a ? b : a;
  if (same_partition(corrupt, ref).ok) return "a moved read went unnoticed";

  // Merging the two components must fail.
  std::vector<std::uint32_t> merged = ref;
  std::replace(merged.begin(), merged.end(), b, a);
  if (same_partition(merged, ref).ok) return "two merged components went unnoticed";

  // A truncated label vector must fail.
  if (same_partition(std::span(ref).first(ref.size() - 1), ref).ok) {
    return "a truncated label vector went unnoticed";
  }
  return "";
}

}  // namespace perfbench
