#include "baseline/ap_lb.hpp"

#include <stdexcept>
#include <utility>

#include "dsu/shiloach_vishkin.hpp"
#include "io/fastq.hpp"
#include "kmer/scanner.hpp"
#include "sort/radix.hpp"
#include "util/timer.hpp"

namespace metaprep::baseline {

ApLbResult ap_lb_partition(const core::DatasetIndex& index) {
  if (index.k > kmer::kMaxK64)
    throw std::invalid_argument("ap_lb_partition: k must be <= 32");
  const int k = index.k;
  ApLbResult result;

  // 1. Enumerate (k-mer, read) tuples from all chunks.
  util::WallTimer enum_timer;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals;
  for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
    const auto buffer = core::read_chunk(index, c);
    core::for_each_chunk_record(
        index, c, buffer, io::ParseMode::kStrict,
        [&](std::uint32_t read_id, std::string_view, std::string_view seq, std::string_view) {
          kmer::for_each_canonical_kmer64(seq, k, [&](std::uint64_t km, std::size_t) {
            keys.push_back(km);
            vals.push_back(read_id);
          });
        });
  }
  result.enumerate_seconds = enum_timer.seconds();

  // 2. Global sort by k-mer.
  util::WallTimer sort_timer;
  sort::radix_sort_kv64(keys, vals, 2 * k, 8);
  result.sort_seconds = sort_timer.seconds();

  // 3. Materialize explicit read-graph edges (AP_LB keeps the graph
  // explicit; METAPREP never does).
  util::WallTimer edges_timer;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::size_t i = 0;
  while (i < keys.size()) {
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    for (std::size_t x = i + 1; x < j; ++x) {
      if (vals[x - 1] != vals[x]) edges.emplace_back(vals[x - 1], vals[x]);
    }
    i = j;
  }
  result.num_edges = edges.size();
  result.edges_seconds = edges_timer.seconds();

  // 4. Shiloach-Vishkin connectivity.
  util::WallTimer cc_timer;
  auto sv = dsu::shiloach_vishkin(index.total_reads, edges);
  result.cc_seconds = cc_timer.seconds();
  result.labels = std::move(sv.labels);
  result.sv_iterations = sv.iterations;
  return result;
}

}  // namespace metaprep::baseline
