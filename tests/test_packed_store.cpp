// Tests for the packed read arena (io::PackedStore) and its scanners.
//
// Three layers:
//  * arena round-trips — builder -> finish() preserves every record, chunk
//    range, N position, and skip ID, including the degenerate shapes (empty
//    arena, all-N reads, reads shorter than k, arenas spanning many pages);
//  * ingest — sharded and serial builds, and the packed and text pipelines
//    over a FASTQ corrupted after indexing, agree section by section;
//  * scanner equivalence — the packed word-at-a-time scanners must be
//    bit-exact (same k-mers, same start positions, same order) against the
//    char scanners on the original text, for random reads with Ns and
//    lowercase, across the 64-bit and 128-bit paths.
#include "io/packed_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/index_create.hpp"
#include "core/packed_ingest.hpp"
#include "core/pipeline.hpp"
#include "kmer/scanner.hpp"
#include "obs/mem.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace metaprep::io {
namespace {

using test::TempDir;

/// Decode a packed record back to text: ACGT from the 2-bit codes, 'N' at
/// every recorded ambiguous position.
std::string decode_record(const PackedStore::Record& rec) {
  static constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  std::string out(rec.len, '?');
  for (std::uint32_t i = 0; i < rec.len; ++i) {
    out[i] = kBases[(rec.words[i >> 5] >> (2 * (i & 31))) & 3];
  }
  for (std::uint32_t j = 0; j < rec.ncount; ++j) out[rec.npos[j]] = 'N';
  return out;
}

/// What decode_record should produce for @p seq: uppercased, every
/// non-ACGT symbol replaced by 'N'.
std::string canonical_text(const std::string& seq) {
  std::string out = seq;
  for (char& c : out) {
    switch (c) {
      case 'a': c = 'A'; break;
      case 'c': c = 'C'; break;
      case 'g': c = 'G'; break;
      case 't': c = 'T'; break;
      case 'A': case 'C': case 'G': case 'T': break;
      default: c = 'N'; break;
    }
  }
  return out;
}

/// Build an arena holding @p chunks (each a list of sequences), assigning
/// read IDs sequentially.
PackedStore build_arena(const std::vector<std::vector<std::string>>& chunks,
                        const std::vector<std::uint32_t>& skips = {},
                        PackedStoreStats* stats = nullptr) {
  PackedStoreBuilder builder(static_cast<std::uint32_t>(chunks.size()));
  std::uint32_t id = 0;
  for (std::uint32_t c = 0; c < chunks.size(); ++c) {
    builder.begin_chunk(c);
    for (const auto& seq : chunks[c]) builder.add_record(id++, seq);
  }
  for (auto s : skips) builder.add_skip(s);
  return builder.finish(stats);
}

/// Every section of @p got equals @p want's: chunk ranges, read IDs,
/// lengths, base words, N positions and skips.
void expect_same_arena(const PackedStore& got, const PackedStore& want) {
  ASSERT_EQ(got.num_chunks(), want.num_chunks());
  ASSERT_EQ(got.num_records(), want.num_records());
  EXPECT_EQ(got.total_bases(), want.total_bases());
  EXPECT_EQ(got.bytes(), want.bytes());
  for (std::uint32_t c = 0; c < want.num_chunks(); ++c) {
    EXPECT_EQ(got.chunk_begin(c), want.chunk_begin(c)) << "chunk " << c;
    EXPECT_EQ(got.chunk_end(c), want.chunk_end(c)) << "chunk " << c;
  }
  for (std::uint64_t r = 0; r < want.num_records(); ++r) {
    const PackedStore::Record g = got.record(r);
    const PackedStore::Record w = want.record(r);
    ASSERT_EQ(g.read_id, w.read_id) << "record " << r;
    ASSERT_EQ(g.len, w.len) << "record " << r;
    ASSERT_TRUE(std::equal(w.words, w.words + (w.len + 31) / 32, g.words)) << "record " << r;
    ASSERT_EQ(g.ncount, w.ncount) << "record " << r;
    ASSERT_TRUE(std::equal(w.npos, w.npos + w.ncount, g.npos)) << "record " << r;
  }
  EXPECT_TRUE(std::equal(got.skipped_read_ids().begin(), got.skipped_read_ids().end(),
                         want.skipped_read_ids().begin(), want.skipped_read_ids().end()));
}

template <typename Fn>
void expect_error(util::ErrorCategory category, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), category) << e.what();
  }
}

TEST(PackedStore, BuilderRoundTripPreservesRecordsAndChunks) {
  const std::vector<std::vector<std::string>> chunks = {
      {"ACGTACGTACGT", "TTTTNGGGG", "acgtN"},
      {},  // empty chunk in the middle must keep ranges consistent
      {"GATTACA", std::string(70, 'C')},
  };
  const auto ps = build_arena(chunks);
  EXPECT_TRUE(static_cast<bool>(ps));
  EXPECT_EQ(ps.num_chunks(), 3u);
  EXPECT_EQ(ps.num_records(), 5u);
  EXPECT_EQ(ps.total_bases(), 12u + 9 + 5 + 7 + 70);
  EXPECT_EQ(ps.chunk_begin(0), 0u);
  EXPECT_EQ(ps.chunk_end(0), 3u);
  EXPECT_EQ(ps.chunk_begin(1), ps.chunk_end(1));
  EXPECT_EQ(ps.chunk_begin(2), 3u);
  EXPECT_EQ(ps.chunk_end(2), 5u);
  std::uint32_t id = 0;
  for (const auto& chunk : chunks) {
    for (const auto& seq : chunk) {
      const auto rec = ps.record(id);
      EXPECT_EQ(rec.read_id, id);
      EXPECT_EQ(rec.len, seq.size());
      EXPECT_EQ(decode_record(rec), canonical_text(seq)) << "record " << id;
      ++id;
    }
  }
}

TEST(PackedStore, FinishInMemoryMatchesWrittenArena) {
  // finish() reports what was written into the builder, sizes the arena as
  // the sum of its sections, and charges those bytes to the `packed` memory
  // subsystem until the store is freed.
  obs::MemRegistry& mem = obs::MemRegistry::global();
  mem.reset();
  mem.set_enabled(true);
  const auto packed_now = [&mem] {
    for (const auto& [name, usage] : mem.snapshot()) {
      if (name == "packed") return usage.current;
    }
    return std::int64_t{0};
  };
  const std::vector<std::vector<std::string>> chunks = {
      {"ACGTACGTACGT", "TTTTNGGGG", "acgtN"}, {}, {"GATTACA", std::string(70, 'C')}};
  PackedStoreStats stats{};
  auto ps = build_arena(chunks, {7, 3}, &stats);
  EXPECT_TRUE(static_cast<bool>(ps));
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_TRUE(std::ranges::equal(ps.skipped_read_ids(), std::vector<std::uint32_t>{7, 3}));
  EXPECT_EQ(stats.bases, 12u + 9 + 5 + 7 + 70);
  EXPECT_EQ(stats.bases, ps.total_bases());
  // 4 chunk starts + 2 x 5 u32 per-record fields + 2 x 6 offsets + 2 skips
  // + 2 N positions (u32) + 7 base words (1 + 1 + 1 + 1 + 3).
  const std::uint64_t want_bytes = 4 * 8 + 2 * 5 * 4 + 2 * 6 * 8 + 2 * 4 + 2 * 4 + 7 * 8;
  EXPECT_EQ(stats.file_bytes, want_bytes);
  EXPECT_EQ(ps.bytes(), want_bytes);
  EXPECT_EQ(packed_now(), static_cast<std::int64_t>(want_bytes));
  PackedStore moved = std::move(ps);  // the charge travels with the arena
  EXPECT_EQ(packed_now(), static_cast<std::int64_t>(want_bytes));
  moved = PackedStore();
  EXPECT_EQ(packed_now(), 0);
  mem.set_enabled(false);
}

TEST(PackedStore, EmptyArenaRoundTrips) {
  const auto ps = build_arena({{}, {}});
  EXPECT_EQ(ps.num_records(), 0u);
  EXPECT_EQ(ps.num_chunks(), 2u);
  EXPECT_EQ(ps.total_bases(), 0u);
  EXPECT_EQ(ps.chunk_begin(0), ps.chunk_end(1));
  EXPECT_TRUE(ps.skipped_read_ids().empty());
}

TEST(PackedStore, TrailingChunksNeedNoExplicitBegin) {
  // The pipeline appends chunks in order but finish() must pad any trailing
  // empty chunks so chunk_end(last) stays valid.
  PackedStoreBuilder builder(4);
  builder.begin_chunk(0);
  builder.add_record(0, "ACGT");
  const auto ps = builder.finish();
  EXPECT_EQ(ps.num_chunks(), 4u);
  EXPECT_EQ(ps.chunk_end(0), 1u);
  EXPECT_EQ(ps.chunk_begin(3), 1u);
  EXPECT_EQ(ps.chunk_end(3), 1u);
}

TEST(PackedStore, OutOfOrderChunkThrowsConfigError) {
  PackedStoreBuilder builder(3);
  builder.begin_chunk(0);
  try {
    builder.begin_chunk(2);  // skipped chunk 1
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kConfig);
  }
}

TEST(PackedStore, SkipListRoundTrips) {
  const std::vector<std::uint32_t> skips = {7, 3, 3, 900000};
  const auto ps = build_arena({{"ACGT"}}, skips);
  const auto got = ps.skipped_read_ids();
  ASSERT_EQ(got.size(), skips.size());
  for (std::size_t i = 0; i < skips.size(); ++i) EXPECT_EQ(got[i], skips[i]);
}

TEST(PackedStore, AllNReadYieldsNoKmers) {
  const std::string seq(50, 'N');
  const auto ps = build_arena({{seq}});
  const auto rec = ps.record(0);
  EXPECT_EQ(rec.ncount, seq.size());
  int calls = 0;
  kmer::for_each_canonical_kmer64_packed(rec.words, rec.len, rec.npos, rec.ncount, 15,
                                         [&](std::uint64_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  kmer::for_each_canonical_kmer128_packed(rec.words, rec.len, rec.npos, rec.ncount, 33,
                                          [&](kmer::Kmer128, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(PackedStore, ReadShorterThanKYieldsNoKmers) {
  const auto ps = build_arena({{"ACGTACGTAC", ""}});
  for (std::uint64_t r = 0; r < ps.num_records(); ++r) {
    const auto rec = ps.record(r);
    int calls = 0;
    kmer::for_each_canonical_kmer64_packed(rec.words, rec.len, rec.npos, rec.ncount, 31,
                                           [&](std::uint64_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0) << "record " << r;
  }
}

// ---------------------------------------------------------------------------
// Scanner equivalence: packed scan == char scan, bit for bit.

std::string random_read(std::mt19937& rng, std::size_t len) {
  static constexpr char kAlphabet[] = "ACGTacgtN";  // Ns and lowercase mixed in
  std::uniform_int_distribution<int> pick(0, 8);
  std::uniform_int_distribution<int> rare(0, 9);
  std::string s(len, 'A');
  for (auto& c : s) {
    // mostly uppercase ACGT, ~10% chance of the full alphabet (N, lowercase)
    c = rare(rng) == 0 ? kAlphabet[pick(rng)] : kAlphabet[pick(rng) % 4];
  }
  return s;
}

TEST(PackedStore, PackedScanner64MatchesCharScannerBitExactly) {
  std::mt19937 rng(20260809);
  std::vector<std::string> reads;
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 64u, 65u, 100u, 151u, 250u}) {
    for (int rep = 0; rep < 4; ++rep) reads.push_back(random_read(rng, len));
  }
  const auto ps = build_arena({reads});
  for (int k : {1, 2, 15, 27, 31, 32}) {
    for (std::uint64_t r = 0; r < ps.num_records(); ++r) {
      std::vector<std::pair<std::uint64_t, std::size_t>> from_text;
      std::vector<std::pair<std::uint64_t, std::size_t>> from_packed;
      kmer::for_each_canonical_kmer64(reads[r], k, [&](std::uint64_t km, std::size_t pos) {
        from_text.emplace_back(km, pos);
      });
      const auto rec = ps.record(r);
      kmer::for_each_canonical_kmer64_packed(
          rec.words, rec.len, rec.npos, rec.ncount, k,
          [&](std::uint64_t km, std::size_t pos) { from_packed.emplace_back(km, pos); });
      EXPECT_EQ(from_packed, from_text) << "k=" << k << " record " << r;
    }
  }
}

TEST(PackedStore, PackedScanner128MatchesCharScannerBitExactly) {
  std::mt19937 rng(809);
  std::vector<std::string> reads;
  for (int rep = 0; rep < 12; ++rep) reads.push_back(random_read(rng, 40 + rep * 13));
  const auto ps = build_arena({reads});
  for (int k : {33, 47, 63}) {
    for (std::uint64_t r = 0; r < ps.num_records(); ++r) {
      std::vector<std::pair<kmer::Kmer128, std::size_t>> from_text;
      std::vector<std::pair<kmer::Kmer128, std::size_t>> from_packed;
      kmer::for_each_canonical_kmer128(
          reads[r], k,
          [&](kmer::Kmer128 km, std::size_t pos) { from_text.emplace_back(km, pos); });
      const auto rec = ps.record(r);
      kmer::for_each_canonical_kmer128_packed(
          rec.words, rec.len, rec.npos, rec.ncount, k,
          [&](kmer::Kmer128 km, std::size_t pos) { from_packed.emplace_back(km, pos); });
      EXPECT_EQ(from_packed, from_text) << "k=" << k << " record " << r;
    }
  }
}

TEST(PackedStore, ArenaSpanningPageBoundariesScansCorrectly) {
  // > 3 pages of base words alone, so records straddle page boundaries;
  // every record must still decode and scan identically to the text.
  std::mt19937 rng(4096);
  std::vector<std::vector<std::string>> chunks(4);
  std::vector<std::string> all;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (int i = 0; i < 120; ++i) {
      chunks[c].push_back(random_read(rng, 100));
      all.push_back(chunks[c].back());
    }
  }
  const auto ps = build_arena(chunks);
  EXPECT_GT(ps.bytes(), 3u * 4096);
  constexpr int kK = 21;
  for (std::uint64_t r = 0; r < ps.num_records(); ++r) {
    std::vector<std::pair<std::uint64_t, std::size_t>> from_text;
    std::vector<std::pair<std::uint64_t, std::size_t>> from_packed;
    kmer::for_each_canonical_kmer64(all[r], kK, [&](std::uint64_t km, std::size_t pos) {
      from_text.emplace_back(km, pos);
    });
    const auto rec = ps.record(r);
    ASSERT_EQ(decode_record(rec), canonical_text(all[r])) << "record " << r;
    kmer::for_each_canonical_kmer64_packed(
        rec.words, rec.len, rec.npos, rec.ncount, kK,
        [&](std::uint64_t km, std::size_t pos) { from_packed.emplace_back(km, pos); });
    ASSERT_EQ(from_packed, from_text) << "record " << r;
  }
}

TEST(PackedStore, MergedShardsMatchSerialBuild) {
  const std::vector<std::vector<std::string>> chunks = {
      {"ACGTACGTACGT", "TTTTNGGGG"}, {"acgtN"}, {}, {"GATTACA"},
      {std::string(70, 'C'), "AaCcGgTt"},
  };
  const auto serial = build_arena(chunks, {9});

  // Same records via three shards of 2 + 1 + 2 chunks, merged in order.
  PackedStoreBuilder merged(static_cast<std::uint32_t>(chunks.size()));
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
      {0, 2}, {2, 3}, {3, 5}};
  std::vector<PackedStoreBuilder> shards;
  std::uint32_t id = 0;
  for (const auto& [begin, end] : ranges) {
    PackedStoreBuilder& shard = shards.emplace_back(end - begin);
    for (std::uint32_t c = begin; c < end; ++c) {
      shard.begin_chunk(c - begin);
      for (const auto& seq : chunks[c]) shard.add_record(id++, seq);
    }
    if (begin == 0) shard.add_skip(9);
  }
  merged.merge_all(std::move(shards), 2);
  expect_same_arena(merged.finish(), serial);
}

TEST(PackedStore, MergeOverrunningChunkTableThrowsConfigError) {
  PackedStoreBuilder merged(2);
  std::vector<PackedStoreBuilder> shards;
  shards.emplace_back(3);
  expect_error(util::ErrorCategory::kConfig,
               [&] { merged.merge_all(std::move(shards), 1); });
}

// ---------------------------------------------------------------------------
// Lenient-parse consistency (satellite of the lenient-parse bugfix): a FASTQ
// corpus corrupted *after* indexing must flow through the packed and text
// pipelines identically — same skipped records, same partition.

/// One paired dataset of @p pairs random reads; returns {file1, file2}.
std::vector<std::string> write_paired_fastq(TempDir& dir, int pairs, std::mt19937& rng) {
  std::vector<std::string> files;
  for (int mate = 1; mate <= 2; ++mate) {
    std::vector<std::string> reads;
    reads.reserve(static_cast<std::size_t>(pairs));
    for (int i = 0; i < pairs; ++i) reads.push_back(random_read(rng, 80));
    files.push_back(test::write_fastq(dir.file("corr_" + std::to_string(mate) + ".fastq"),
                                      reads, "corr." + std::to_string(mate) + "."));
  }
  return files;
}

TEST(PackedStore, CorruptedFastqAgreesBetweenPackedAndTextPipelines) {
  TempDir dir;
  std::mt19937 rng(77);
  const auto files = write_paired_fastq(dir, 60, rng);
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 5;
  opt.target_chunks = 6;
  const auto index = core::create_index("corr", files, true, opt);

  // Corrupt two records after indexing: chunk byte ranges stay valid, the
  // records just fail to parse.
  test::corrupt_record_separator(files[0], 11);
  test::corrupt_record_separator(files[1], 42);

  // Strict ingest refuses the corpus with a typed parse error...
  expect_error(util::ErrorCategory::kParse, [&] {
    (void)core::build_packed_store_in_memory(index, ParseMode::kStrict, 1);
  });

  // ...lenient ingest records exactly the corrupted read IDs in the arena.
  PackedStoreStats stats{};
  const auto arena = core::build_packed_store_in_memory(index, ParseMode::kLenient, 1, &stats);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.records, 2u * 60 - 2);
  std::vector<std::uint32_t> skipped(arena.skipped_read_ids().begin(),
                                     arena.skipped_read_ids().end());
  std::sort(skipped.begin(), skipped.end());
  EXPECT_EQ(skipped, (std::vector<std::uint32_t>{11, 42}));

  // Both pipelines, both schedulers: identical skip counts and partitions.
  core::MetaprepConfig cfg;
  cfg.k = 15;
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  cfg.parse_mode = ParseMode::kLenient;
  cfg.write_output = false;
  std::vector<std::vector<std::uint32_t>> partitions;
  for (auto mode : {core::PipelineMode::kBarrier, core::PipelineMode::kOverlap}) {
    for (auto store : {core::ReadStore::kText, core::ReadStore::kPacked}) {
      cfg.pipeline_mode = mode;
      cfg.read_store = store;
      const auto result = core::run_metaprep(index, cfg);
      EXPECT_EQ(result.records_skipped, 2u)
          << "mode=" << static_cast<int>(mode) << " store=" << static_cast<int>(store);
      partitions.push_back(test::normalize_partition(result.labels));
    }
  }
  for (std::size_t i = 1; i < partitions.size(); ++i) {
    EXPECT_EQ(partitions[i], partitions[0]) << "combination " << i;
  }
}

TEST(PackedStore, ParallelIngestIsByteIdenticalToSerial) {
  TempDir dir;
  std::mt19937 rng(123);
  const auto files = write_paired_fastq(dir, 80, rng);
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 5;
  opt.target_chunks = 7;
  const auto index = core::create_index("par", files, true, opt);
  test::corrupt_record_separator(files[1], 20);  // lenient skips must merge too

  PackedStoreStats stats{};
  const auto serial = core::build_packed_store_in_memory(index, ParseMode::kLenient, 1, &stats);
  EXPECT_EQ(stats.skipped, 1u);
  ASSERT_EQ(serial.skipped_read_ids().size(), 1u);
  EXPECT_EQ(serial.skipped_read_ids()[0], 20u);
  // More workers than chunks must clamp, not break the shard bounds.
  for (const int threads : {4, 9}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PackedStoreStats sharded{};
    expect_same_arena(
        core::build_packed_store_in_memory(index, ParseMode::kLenient, threads, &sharded),
        serial);
    EXPECT_EQ(sharded.records, stats.records);
    EXPECT_EQ(sharded.file_bytes, stats.file_bytes);
  }
}

}  // namespace
}  // namespace metaprep::io
