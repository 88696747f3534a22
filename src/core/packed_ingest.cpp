#include "core/packed_ingest.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/mem.hpp"

namespace metaprep::core {
namespace {

/// Parse chunks [@p begin, @p end) of the index into @p builder, whose
/// chunk table is shard-local (global chunk c is local chunk c - begin).
/// Each chunk is read through read_chunk, the path text KmerGen and CC-I/O
/// read it by, so read retries and injected corruption reach the arena too
/// and every store sees the same records.
void pack_chunk_range(const DatasetIndex& index, io::ParseMode parse_mode,
                      std::uint32_t begin, std::uint32_t end,
                      io::PackedStoreBuilder& builder) {
  for (std::uint32_t c = begin; c < end; ++c) {
    builder.begin_chunk(c - begin);
    const std::vector<char> buffer = read_chunk(index, c);
    const obs::MemCharge io_mem("io", buffer.size());
    for_each_chunk_record(
        index, c, buffer, parse_mode,
        [&builder](std::uint32_t read_id, std::string_view, std::string_view seq,
                   std::string_view) { builder.add_record(read_id, seq); },
        [&builder](std::uint32_t read_id) { builder.add_skip(read_id); });
  }
}

}  // namespace

/// Full ingest: shard the chunk table into @p threads contiguous ranges
/// balanced by chunk bytes, pack each range in a worker, merge in order.
/// The merged arena is identical to a serial build.
io::PackedStore build_packed_store_in_memory(const DatasetIndex& index,
                                             io::ParseMode parse_mode, int threads,
                                             io::PackedStoreStats* stats) {
  const std::uint32_t num_chunks = index.part.num_chunks();
  io::PackedStoreBuilder builder(num_chunks,
                                 /*expected_records=*/2ull * index.total_reads,
                                 /*expected_bases=*/index.total_bases);
  const int n =
      std::clamp(threads, 1, num_chunks == 0 ? 1 : static_cast<int>(num_chunks));
  if (n <= 1) {
    pack_chunk_range(index, parse_mode, 0, num_chunks, builder);
    return builder.finish(stats);
  }

  // Shard bounds: split on cumulative chunk bytes so a skewed chunk table
  // still yields balanced parse work.
  std::uint64_t total_bytes = 0;
  for (const ChunkRecord& chunk : index.part.chunks) total_bytes += chunk.size;
  std::vector<std::uint32_t> bounds(static_cast<std::size_t>(n) + 1, 0);
  std::uint64_t acc = 0;
  std::uint32_t c = 0;
  for (int s = 0; s < n; ++s) {
    const std::uint64_t target = total_bytes * static_cast<std::uint64_t>(s + 1) /
                                 static_cast<std::uint64_t>(n);
    while (c < num_chunks && acc < target) {
      acc += index.part.chunks[c].size;
      ++c;
    }
    bounds[static_cast<std::size_t>(s) + 1] = c;
  }
  bounds.back() = num_chunks;

  std::vector<io::PackedStoreBuilder> shards;
  shards.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    const auto si = static_cast<std::size_t>(s);
    shards.emplace_back(bounds[si + 1] - bounds[si],
                        2ull * index.total_reads / static_cast<std::uint64_t>(n) + 1,
                        index.total_bases / static_cast<std::uint64_t>(n) + 32);
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      workers.emplace_back([&, s] {
        const auto si = static_cast<std::size_t>(s);
        try {
          pack_chunk_range(index, parse_mode, bounds[si], bounds[si + 1], shards[si]);
        } catch (...) {
          errors[si] = std::current_exception();
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  builder.merge_all(std::move(shards), n);
  return builder.finish(stats);
}

}  // namespace metaprep::core
