#include "core/plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "kmer/kmer128.hpp"
#include "util/error.hpp"
#include "util/thread_team.hpp"

namespace metaprep::core {

std::vector<std::uint32_t> split_bins_weighted(std::span<const std::uint32_t> weights,
                                               std::uint32_t begin, std::uint32_t end,
                                               int parts) {
  if (parts < 1) throw std::invalid_argument("split_bins_weighted: parts < 1");
  if (begin > end || end > weights.size())
    throw std::invalid_argument("split_bins_weighted: bad range");

  // Prefix weights of the sub-range.
  std::vector<std::uint64_t> prefix(end - begin + 1, 0);
  for (std::uint32_t b = begin; b < end; ++b) {
    prefix[b - begin + 1] = prefix[b - begin] + weights[b];
  }
  const std::uint64_t total = prefix.back();

  std::vector<std::uint32_t> bounds(static_cast<std::size_t>(parts) + 1);
  bounds[0] = begin;
  for (int i = 1; i < parts; ++i) {
    const std::uint64_t target =
        total * static_cast<std::uint64_t>(i) / static_cast<std::uint64_t>(parts);
    // First boundary whose prefix weight reaches the target.
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    auto cut = begin + static_cast<std::uint32_t>(it - prefix.begin());
    cut = std::max(cut, bounds[static_cast<std::size_t>(i) - 1]);  // keep monotone
    cut = std::min(cut, end);
    bounds[static_cast<std::size_t>(i)] = cut;
  }
  bounds[static_cast<std::size_t>(parts)] = end;
  return bounds;
}

PassPlan::PassPlan(const MerHist& hist, int num_passes, int num_ranks, int threads_per_rank)
    : S_(num_passes), P_(num_ranks), T_(threads_per_rank) {
  if (S_ < 1 || P_ < 1 || T_ < 1) throw std::invalid_argument("PassPlan: S, P, T must be >= 1");
  const auto nbins = static_cast<std::uint32_t>(hist.counts.size());
  pass_bounds_ = split_bins_weighted(hist.counts, 0, nbins, S_);
  rank_bounds_.resize(static_cast<std::size_t>(S_));
  thread_bounds_.resize(static_cast<std::size_t>(S_) * static_cast<std::size_t>(P_));
  for (int s = 0; s < S_; ++s) {
    rank_bounds_[static_cast<std::size_t>(s)] = split_bins_weighted(
        hist.counts, pass_bounds_[static_cast<std::size_t>(s)],
        pass_bounds_[static_cast<std::size_t>(s) + 1], P_);
    for (int p = 0; p < P_; ++p) {
      const auto& rb = rank_bounds_[static_cast<std::size_t>(s)];
      thread_bounds_[static_cast<std::size_t>(s) * static_cast<std::size_t>(P_) +
                     static_cast<std::size_t>(p)] =
          split_bins_weighted(hist.counts, rb[static_cast<std::size_t>(p)],
                              rb[static_cast<std::size_t>(p) + 1], T_);
    }
  }
}

BinRange PassPlan::pass_range(int s) const {
  return {pass_bounds_[static_cast<std::size_t>(s)],
          pass_bounds_[static_cast<std::size_t>(s) + 1]};
}

BinRange PassPlan::rank_range(int s, int p) const {
  const auto& rb = rank_bounds_[static_cast<std::size_t>(s)];
  return {rb[static_cast<std::size_t>(p)], rb[static_cast<std::size_t>(p) + 1]};
}

BinRange PassPlan::thread_range(int s, int p, int t) const {
  const auto& tb = thread_bounds_[static_cast<std::size_t>(s) * static_cast<std::size_t>(P_) +
                                  static_cast<std::size_t>(p)];
  return {tb[static_cast<std::size_t>(t)], tb[static_cast<std::size_t>(t) + 1]};
}

int PassPlan::owner_rank(int s, std::uint32_t bin) const {
  const auto& rb = rank_bounds_[static_cast<std::size_t>(s)];
  // Boundaries are sorted; owner is the last p with rb[p] <= bin.
  const auto it = std::upper_bound(rb.begin(), rb.end(), bin);
  const auto p = static_cast<int>(it - rb.begin()) - 1;
  return std::clamp(p, 0, P_ - 1);
}

std::uint64_t PassPlan::range_tuples(const MerHist& hist, BinRange r) const {
  std::uint64_t t = 0;
  for (std::uint32_t b = r.begin; b < r.end; ++b) t += hist.counts[b];
  return t;
}

ChunkAssignment::ChunkAssignment(std::uint32_t num_chunks, int num_ranks,
                                 int threads_per_rank) {
  const auto rb = util::split_range(num_chunks, num_ranks);
  rank_bounds_.assign(rb.begin(), rb.end());
  thread_bounds_.resize(static_cast<std::size_t>(num_ranks));
  for (int p = 0; p < num_ranks; ++p) {
    const std::uint32_t lo = rank_bounds_[static_cast<std::size_t>(p)];
    const std::uint32_t hi = rank_bounds_[static_cast<std::size_t>(p) + 1];
    const auto tb = util::split_range(hi - lo, threads_per_rank);
    auto& out = thread_bounds_[static_cast<std::size_t>(p)];
    out.reserve(tb.size());
    for (auto b : tb) out.push_back(lo + static_cast<std::uint32_t>(b));
  }
}

std::uint32_t ChunkAssignment::rank_begin(int p) const {
  return rank_bounds_[static_cast<std::size_t>(p)];
}
std::uint32_t ChunkAssignment::rank_end(int p) const {
  return rank_bounds_[static_cast<std::size_t>(p) + 1];
}
std::uint32_t ChunkAssignment::thread_begin(int p, int t) const {
  return thread_bounds_[static_cast<std::size_t>(p)][static_cast<std::size_t>(t)];
}
std::uint32_t ChunkAssignment::thread_end(int p, int t) const {
  return thread_bounds_[static_cast<std::size_t>(p)][static_cast<std::size_t>(t) + 1];
}

RunPlan plan_run(const MetaprepConfig& config, const DatasetIndex& index) {
  const int k = config.k;
  const int P = config.num_ranks;
  const int T = config.threads_per_rank;
  auto check = [](bool ok, const std::string& what) {
    if (!ok) throw util::config_error("run config: " + what);
  };
  check(k == index.k, "k " + std::to_string(k) + " differs from the index's k");
  check(k >= index.mer_hist.m && k <= kmer::kMaxK128, "k out of range");
  check(P >= 1 && T >= 1, "num_ranks and threads_per_rank must be >= 1 (got " +
                              std::to_string(P) + ", " + std::to_string(T) + ")");
  // Every mode and codec routes through a 16-bit (dest rank, dest thread)
  // slot table.
  check(static_cast<std::int64_t>(P) * T <= 0xFFFF, "P*T must fit the 16-bit slot table");
  check(config.output_bins >= 0 && config.output_bins <= 0xFFFF,
        "output_bins must be in [0, 65535]");
  check(config.comm_compress != CommCompress::kSuperKmer ||
            (config.superkmer_minimizer_len >= 1 &&
             config.superkmer_minimizer_len <= std::min(k, 31)),
        "superkmer_minimizer_len must be in [1, min(k, 31)]");
  check(config.num_passes >= 0, "num_passes must be >= 0 (0 = derive from the memory budget)");

  RunPlan plan;
  plan.memory = memory_model_input(index, P, T);
  plan.num_passes = config.num_passes;
  if (plan.num_passes == 0) {
    plan.num_passes = min_passes_for_budget(plan.memory, config.memory_budget_bytes);
    check(plan.num_passes > 0, "memory budget too small for any pass count");
  }
  plan.memory.num_passes = plan.num_passes;
  return plan;
}

}  // namespace metaprep::core
