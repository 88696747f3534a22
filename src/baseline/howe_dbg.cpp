#include "baseline/howe_dbg.hpp"

#include <cassert>
#include <stdexcept>

#include "dsu/dsu.hpp"
#include "io/fastq.hpp"
#include "kmer/scanner.hpp"
#include "util/timer.hpp"

namespace metaprep::baseline {

namespace {

/// Shared implementation: feed_reads invokes fn(seq, read_id) per read.
template <typename FeedFn>
DbgWccResult compute(const FeedFn& feed, std::uint32_t num_reads, int k) {
  if (k > kmer::kMaxK64) throw std::invalid_argument("howe_dbg_wcc: k must be <= 32");
  util::WallTimer timer;
  DbgWccResult result;

  // Pass 1: collect the distinct canonical k-mer set and assign dense IDs.
  std::unordered_map<std::uint64_t, std::uint32_t> ids;
  feed([&](std::string_view seq, std::uint32_t) {
    kmer::for_each_canonical_kmer64(seq, k, [&](std::uint64_t km, std::size_t) {
      ids.try_emplace(km, static_cast<std::uint32_t>(ids.size()));
    });
  });
  result.num_kmers = ids.size();

  // Pass 2: union consecutive k-mers within each read (the dBG edges that
  // reads actually witness — a read's k-mer path).
  dsu::SerialDSU dsu(static_cast<std::uint32_t>(ids.size()));
  result.read_wcc.assign(num_reads, 0xFFFFFFFFu);
  feed([&](std::string_view seq, std::uint32_t read_id) {
    // Consecutive positions share a (k-1)-overlap edge.  A gap (N reset)
    // breaks the k-mer path, and a paired mate is a separate sequence — but
    // the read graph joins everything carried by one read ID through that
    // single vertex, so we thread `prev` across gaps and across mates
    // (seeded from the read's stored first k-mer) to mirror that semantics.
    std::uint32_t prev = result.read_wcc[read_id];
    kmer::for_each_canonical_kmer64(seq, k, [&](std::uint64_t km, std::size_t) {
      const std::uint32_t id = ids.at(km);
      if (prev != 0xFFFFFFFFu) dsu.unite(prev, id);
      prev = id;
      if (result.read_wcc[read_id] == 0xFFFFFFFFu) result.read_wcc[read_id] = id;
    });
  });

  // Pass 3: resolve read labels and renumber WCCs densely.
  std::unordered_map<std::uint32_t, std::uint32_t> root_to_label;
  for (auto& [km, id] : ids) {
    const std::uint32_t root = dsu.find(id);
    const auto [it, inserted] =
        root_to_label.try_emplace(root, static_cast<std::uint32_t>(root_to_label.size()));
    result.kmer_wcc[km] = it->second;
    (void)inserted;
    (void)id;
  }
  result.num_wcc = root_to_label.size();
  for (auto& label : result.read_wcc) {
    if (label != 0xFFFFFFFFu) label = root_to_label.at(dsu.find(label));
  }

  // Hash map node ~= key + value + bucket overhead; count the payload only
  // (lower bound on the paper's "memory for the k-mer set").
  result.kmer_table_bytes =
      result.num_kmers * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  result.seconds = timer.seconds();
  return result;
}

}  // namespace

DbgWccResult howe_dbg_wcc(const std::vector<std::string>& reads, int k) {
  auto feed = [&reads](const auto& fn) {
    for (std::uint32_t i = 0; i < reads.size(); ++i) fn(reads[i], i);
  };
  return compute(feed, static_cast<std::uint32_t>(reads.size()), k);
}

DbgWccResult howe_dbg_wcc(const core::DatasetIndex& index) {
  auto feed = [&index](const auto& fn) {
    for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
      const auto buffer = core::read_chunk(index, c);
      core::for_each_chunk_record(
          index, c, buffer, io::ParseMode::kStrict,
          [&](std::uint32_t read_id, std::string_view, std::string_view seq, std::string_view) {
            fn(seq, read_id);
          });
    }
  };
  return compute(feed, index.total_reads, index.k);
}

}  // namespace metaprep::baseline
