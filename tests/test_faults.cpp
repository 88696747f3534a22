// Tests for the robustness layer: typed errors, retry-with-backoff, and
// deterministic fault injection (ISSUE acceptance criteria: a seeded plan of
// transient read faults completes via retries with labels identical to the
// fault-free run; corrupted chunks in lenient mode complete with the skip
// count matching the injected count; strict mode raises a typed Error naming
// file, offset, and category).
#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/index_create.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "io/fastq.hpp"
#include "mpsim/comm.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"

namespace metaprep {
namespace {

using test::TempDir;
using util::FaultPlan;
using util::FaultPlanConfig;
using util::ScopedFaultPlan;

// ---------------------------------------------------------------------------
// util::Error

TEST(Error, CarriesStructuredContext) {
  const util::Error e = util::io_error("short read", "/data/a.fastq", 4096, EINTR, true);
  EXPECT_EQ(e.category(), util::ErrorCategory::kIo);
  EXPECT_EQ(e.path(), "/data/a.fastq");
  EXPECT_TRUE(e.has_offset());
  EXPECT_EQ(e.offset(), 4096u);
  EXPECT_EQ(e.sys_errno(), EINTR);
  EXPECT_TRUE(e.transient());
  EXPECT_EQ(e.detail(), "short read");
  const std::string what = e.what();
  EXPECT_NE(what.find("/data/a.fastq"), std::string::npos);
  EXPECT_NE(what.find("4096"), std::string::npos);
  EXPECT_NE(what.find("io"), std::string::npos);
}

TEST(Error, IsARuntimeError) {
  // Existing catch sites and EXPECT_THROW(..., std::runtime_error) tests
  // must keep working.
  EXPECT_THROW(throw util::parse_error("bad record"), std::runtime_error);
  EXPECT_THROW(throw util::comm_error("poisoned"), std::runtime_error);
  EXPECT_THROW(throw util::config_error("bad flag"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// with_retries

TEST(Retry, SucceedsAfterTransientFailures) {
  int calls = 0;
  int retries = 0;
  const int result = util::with_retries(
      util::RetryPolicy{},
      [&] {
        if (++calls < 3) throw util::io_error("flaky", "f", 0, EINTR, true);
        return 42;
      },
      [&](int, const util::Error&) { ++retries; });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST(Retry, NonTransientPropagatesImmediately) {
  int calls = 0;
  EXPECT_THROW(util::with_retries(util::RetryPolicy{},
                                  [&]() -> int {
                                    ++calls;
                                    throw util::io_error("disk gone", "f", 0, EIO, false);
                                  }),
               util::Error);
  EXPECT_EQ(calls, 1);
}

TEST(Retry, ExhaustionRethrowsLastError) {
  util::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(1);
  int calls = 0;
  EXPECT_THROW(util::with_retries(policy,
                                  [&]() -> int {
                                    ++calls;
                                    throw util::io_error("always", "f", 0, EINTR, true);
                                  }),
               util::Error);
  EXPECT_EQ(calls, 3);
}

// ---------------------------------------------------------------------------
// FaultPlan

TEST(FaultPlan, DisarmedInjectsNothing) {
  FaultPlan& plan = FaultPlan::global();
  plan.disarm();
  EXPECT_FALSE(plan.armed());
  EXPECT_FALSE(plan.inject_read_fault("x", 0));
  EXPECT_FALSE(plan.inject_comm_drop());
}

TEST(FaultPlan, ReadFaultDecisionsAreSiteKeyedAndSeedDeterministic) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.transient_read_rate = 0.5;
  cfg.transient_failures_per_site = 1;
  auto sample = [&]() {
    ScopedFaultPlan scoped(cfg);
    std::vector<bool> out;
    for (std::uint64_t off = 0; off < 64; ++off) {
      out.push_back(FaultPlan::global().inject_read_fault("a.fastq", off * 1000));
    }
    return out;
  };
  const auto first = sample();
  const auto second = sample();
  EXPECT_EQ(first, second);  // same seed -> identical decisions
  std::size_t fired = 0;
  for (bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, first.size());
  cfg.seed = 8;
  EXPECT_NE(sample(), first);  // a different seed moves the faults
}

TEST(FaultPlan, ReadSitesHealAfterConfiguredFailures) {
  FaultPlanConfig cfg;
  cfg.transient_read_rate = 1.0;
  cfg.transient_failures_per_site = 2;
  ScopedFaultPlan scoped(cfg);
  FaultPlan& plan = FaultPlan::global();
  EXPECT_TRUE(plan.inject_read_fault("a", 0));
  EXPECT_TRUE(plan.inject_read_fault("a", 0));
  EXPECT_FALSE(plan.inject_read_fault("a", 0));  // healed
  EXPECT_TRUE(plan.inject_read_fault("a", 512));  // distinct site
  EXPECT_EQ(plan.counters().read_faults, 3u);
}

TEST(FaultPlan, CorruptionIsDeterministicPerSite) {
  const std::string clean = "@a\nACGT\n+\nIIII\n@b\nGGGG\n+\nIIII\n";
  FaultPlanConfig cfg;
  cfg.corrupt_rate = 1.0;
  auto corrupt_once = [&]() {
    std::vector<char> buf(clean.begin(), clean.end());
    EXPECT_TRUE(FaultPlan::global().corrupt_fastq_chunk("a.fastq", 0,
                                                        std::span<char>(buf.data(), buf.size())));
    return std::string(buf.data(), buf.size());
  };
  ScopedFaultPlan scoped(cfg);
  const std::string first = corrupt_once();
  const std::string second = corrupt_once();
  EXPECT_EQ(first, second);  // re-reads of a chunk see identical damage
  EXPECT_NE(first, clean);
  // Exactly one byte differs: a record's '@' flipped to '#'.
  std::size_t diffs = 0, at = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (first[i] != clean[i]) { ++diffs; at = i; }
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_EQ(clean[at], '@');
  EXPECT_EQ(first[at], '#');
}

// ---------------------------------------------------------------------------
// Faults through the I/O layer

TEST(FaultIo, ReadFileRangeRetriesTransientFaults) {
  TempDir dir;
  const std::string path = test::write_fastq(dir.file("a.fastq"), {"ACGTACGT", "TTTTCCCC"});
  const std::uint64_t size = io::file_size_bytes(path);
  const auto clean = io::read_file_range(path, 0, size);

  FaultPlanConfig cfg;
  cfg.transient_read_rate = 1.0;    // every site faults...
  cfg.transient_failures_per_site = 2;  // ...twice, below max_attempts=5
  ScopedFaultPlan scoped(cfg);
  const auto faulted = io::read_file_range(path, 0, size);
  EXPECT_EQ(faulted, clean);  // retries win; content identical
  EXPECT_EQ(FaultPlan::global().counters().read_faults, 2u);
}

TEST(FaultIo, ReadFileRangeExhaustionThrowsTypedTransientError) {
  TempDir dir;
  const std::string path = test::write_fastq(dir.file("a.fastq"), {"ACGT"});
  FaultPlanConfig cfg;
  cfg.transient_read_rate = 1.0;
  cfg.transient_failures_per_site = 100;  // never heals within max_attempts
  ScopedFaultPlan scoped(cfg);
  try {
    io::read_file_range(path, 0, io::file_size_bytes(path));
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kIo);
    EXPECT_EQ(e.path(), path);
    EXPECT_TRUE(e.transient());
  }
}

TEST(FaultIo, RetriesAreCountedInMetrics) {
  TempDir dir;
  const std::string path = test::write_fastq(dir.file("a.fastq"), {"ACGTACGT"});
  obs::metrics().set_enabled(true);
  obs::Counter& retries = obs::metrics().counter("io.retries");
  const std::uint64_t before = retries.value();
  FaultPlanConfig cfg;
  cfg.transient_read_rate = 1.0;
  cfg.transient_failures_per_site = 1;
  {
    ScopedFaultPlan scoped(cfg);
    io::read_file_range(path, 0, io::file_size_bytes(path));
  }
  EXPECT_EQ(retries.value() - before, 1u);
  obs::metrics().set_enabled(false);
}

TEST(FaultIo, CorruptedChunkStrictThrowsNamedParseError) {
  TempDir dir;
  const std::string path =
      test::write_fastq(dir.file("a.fastq"), {"ACGTACGT", "GGGGTTTT", "CCCCAAAA"});
  const std::uint64_t size = io::file_size_bytes(path);
  FaultPlanConfig cfg;
  cfg.corrupt_rate = 1.0;
  ScopedFaultPlan scoped(cfg);
  const auto buf = io::read_file_range(path, 0, size);
  EXPECT_EQ(FaultPlan::global().counters().chunks_corrupted, 1u);
  try {
    io::for_each_record_in_buffer(
        std::string_view(buf.data(), buf.size()),
        [](std::string_view, std::string_view, std::string_view) {},
        io::ParseOptions{io::ParseMode::kStrict, path, 0});
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
    EXPECT_EQ(e.path(), path);
    EXPECT_TRUE(e.has_offset());
  }
}

TEST(FaultIo, CorruptedChunkLenientSkipsExactlyOneRecord) {
  TempDir dir;
  {
    const std::string path =
        test::write_fastq(dir.file("a.fastq"), {"ACGTACGT", "GGGGTTTT", "CCCCAAAA"});
    const std::uint64_t size = io::file_size_bytes(path);
    FaultPlanConfig cfg;
    cfg.corrupt_rate = 1.0;
    ScopedFaultPlan scoped(cfg);
    const auto buf = io::read_file_range(path, 0, size);
    std::size_t records = 0;
    const auto stats = io::for_each_record_in_buffer(
        std::string_view(buf.data(), buf.size()),
        [&](std::string_view, std::string_view, std::string_view) { ++records; },
        io::ParseOptions{io::ParseMode::kLenient, path, 0});
    EXPECT_EQ(stats.skipped, 1u);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(records, 2u);
  }

  // The same skip through a paired index, one record of the second mate
  // file corrupted after indexing: core::for_each_chunk_record hands exactly
  // that record's read ID to on_skip, every later record of its chunk keeps
  // the ID the index gave it, and strict mode names the file and the
  // record's offset in it.
  const std::vector<std::string> mates(12, "ACGTACGTACGTACGTACGT");
  const std::vector<std::string> files = {test::write_fastq(dir.file("m_1.fastq"), mates),
                                          test::write_fastq(dir.file("m_2.fastq"), mates)};
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 6;
  const auto index = core::create_index("mates", files, true, opt);
  constexpr std::uint32_t kBad = 5;
  const std::uint64_t offset = test::corrupt_record_separator(files[1], kBad);
  std::uint32_t c = 0;
  while (index.part.chunks[c].file != 1 ||
         index.part.chunks[c].first_read_id + index.part.chunks[c].record_count <= kBad) {
    ++c;
  }
  const core::ChunkRecord& chunk = index.part.chunks[c];
  ASSERT_GT(chunk.offset, 0u);  // a chunk-relative offset would differ
  ASSERT_GT(chunk.first_read_id + chunk.record_count, kBad + 1);  // a record follows
  const auto buffer = core::read_chunk(index, c);

  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> skipped;
  core::for_each_chunk_record(
      index, c, buffer, io::ParseMode::kLenient,
      [&](std::uint32_t id, std::string_view, std::string_view, std::string_view) {
        ids.push_back(id);
      },
      [&](std::uint32_t id) { skipped.push_back(id); });
  EXPECT_EQ(skipped, std::vector<std::uint32_t>{kBad});
  std::vector<std::uint32_t> want;
  for (std::uint32_t i = 0; i < chunk.record_count; ++i) {
    if (chunk.first_read_id + i != kBad) want.push_back(chunk.first_read_id + i);
  }
  EXPECT_EQ(ids, want);

  try {
    core::for_each_chunk_record(index, c, buffer, io::ParseMode::kStrict,
                                [](std::uint32_t, std::string_view, std::string_view,
                                   std::string_view) {});
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
    EXPECT_EQ(e.path(), files[1]);
    EXPECT_EQ(e.offset(), offset);
  }
}

// ---------------------------------------------------------------------------
// Lenient indexing over FASTQ that is malformed on disk: a record the parser
// abandons keeps a read ID of its own when IndexCreate counts its chunk and
// in every re-parse, so chunk ID ranges tile and every ID stays below R.

/// @p n reads of @p len bases in groups of ten overlapping reads, each group
/// from its own stretch of one pseudo-random genome: a few components, and
/// no k-mer shared between groups.
std::vector<std::string> grouped_reads(std::size_t n, std::size_t len) {
  std::string genome;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < (n / 10 + 1) * 200 + len; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    genome.push_back("ACGT"[x >> 62]);
  }
  std::vector<std::string> reads;
  for (std::size_t i = 0; i < n; ++i) {
    reads.push_back(genome.substr((i / 10) * 200 + (i % 10) * 5, len));
  }
  return reads;
}

/// Write @p reads as FASTQ ("@r<i>"), giving record @p bad a quality line
/// one base short, so strict parsing fails there and lenient parsing
/// abandons that one record.
std::string write_with_short_quality(const std::string& path,
                                     const std::vector<std::string>& reads, std::size_t bad) {
  std::ofstream os(path, std::ios::binary);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    os << "@r" << i << '\n' << reads[i] << "\n+\n"
       << std::string(reads[i].size() - (i == bad ? 1 : 0), 'I') << '\n';
  }
  return path;
}

/// What a lenient re-parse of every chunk hands out: how often each read ID
/// went to a record or a skip, the ID each file's record "r<i>" got, and the
/// skipped IDs.  Fails on an ID outside its chunk's range.
struct Reparse {
  std::vector<int> uses;
  std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> id_of;
  std::vector<std::uint32_t> skipped;
};

Reparse reparse_chunks(const core::DatasetIndex& index) {
  Reparse out;
  out.uses.assign(index.total_reads, 0);
  for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
    const core::ChunkRecord& chunk = index.part.chunks[c];
    const auto take = [&](std::uint32_t id) {
      EXPECT_GE(id, chunk.first_read_id) << "chunk " << c;
      EXPECT_LT(id, chunk.first_read_id + chunk.record_count) << "chunk " << c;
      if (id < out.uses.size()) ++out.uses[id];
    };
    core::for_each_chunk_record(
        index, c, core::read_chunk(index, c), io::ParseMode::kLenient,
        [&](std::uint32_t id, std::string_view header, std::string_view, std::string_view) {
          take(id);
          out.id_of[{chunk.file, std::string(header)}] = id;
        },
        [&](std::uint32_t id) {
          take(id);
          out.skipped.push_back(id);
        });
  }
  return out;
}

/// Each file's chunks take consecutive read-ID ranges.
void expect_chunks_tile(const core::DatasetIndex& index) {
  std::map<std::uint32_t, std::uint32_t> next_id;  // file -> end of its last chunk
  for (const core::ChunkRecord& chunk : index.part.chunks) {
    const auto it = next_id.find(chunk.file);
    if (it != next_id.end()) {
      EXPECT_EQ(chunk.first_read_id, it->second) << "file " << chunk.file;
    }
    next_id[chunk.file] = chunk.first_read_id + chunk.record_count;
  }
}

core::IndexCreateOptions lenient_index_options() {
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 4;
  opt.parse_mode = io::ParseMode::kLenient;
  return opt;
}

/// Run both read stores leniently and compare each partition with the
/// oracle over the same index.
void expect_lenient_runs_match_oracle(const core::DatasetIndex& index) {
  const auto oracle = test::normalize_partition(
      core::reference_components(index, core::KmerFreqFilter{}, io::ParseMode::kLenient));
  for (const core::ReadStore store : {core::ReadStore::kText, core::ReadStore::kPacked}) {
    SCOPED_TRACE(store == core::ReadStore::kText ? "text" : "packed");
    core::MetaprepConfig cfg;
    cfg.k = 15;
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.num_passes = 2;
    cfg.parse_mode = io::ParseMode::kLenient;
    cfg.read_store = store;
    cfg.write_output = false;
    const auto result = core::run_metaprep(index, cfg);
    EXPECT_EQ(result.labels.size(), index.total_reads);
    EXPECT_EQ(test::normalize_partition(result.labels), oracle);
  }
}

TEST(LenientIndex, AbandonedRecordMidFileKeepsOneId) {
  TempDir dir;
  constexpr std::size_t kBad = 120;
  const std::string path =
      write_with_short_quality(dir.file("reads.fastq"), grouped_reads(200, 60), kBad);
  const auto index = core::create_index("mid", {path}, false, lenient_index_options());
  ASSERT_EQ(index.part.num_chunks(), 4u);
  EXPECT_EQ(index.total_reads, 200u);  // the abandoned record keeps its ID
  expect_chunks_tile(index);
  const Reparse reparse = reparse_chunks(index);
  EXPECT_EQ(reparse.uses, std::vector<int>(200, 1));  // no ID shared, none missing
  EXPECT_EQ(reparse.skipped, std::vector<std::uint32_t>{kBad});
  for (std::uint32_t i = 0; i < 200; ++i) {
    if (i != kBad) {
      EXPECT_EQ(reparse.id_of.at({0, "r" + std::to_string(i)}), i);
    }
  }
  expect_lenient_runs_match_oracle(index);
}

TEST(LenientIndex, AbandonedRecordInLastChunkKeepsIdsBelowR) {
  TempDir dir;
  constexpr std::size_t kBad = 190;
  const std::string path =
      write_with_short_quality(dir.file("reads.fastq"), grouped_reads(200, 60), kBad);
  const auto index = core::create_index("last", {path}, false, lenient_index_options());
  ASSERT_LE(index.part.chunks.back().first_read_id, kBad);
  EXPECT_EQ(index.total_reads, 200u);
  expect_chunks_tile(index);
  const Reparse reparse = reparse_chunks(index);
  EXPECT_EQ(reparse.uses, std::vector<int>(200, 1));
  EXPECT_EQ(reparse.skipped, std::vector<std::uint32_t>{kBad});
  expect_lenient_runs_match_oracle(index);
}

TEST(LenientIndex, PairedMateKeepsSharedIdWhenOtherMateIsAbandoned) {
  TempDir dir;
  constexpr std::size_t kBad = 50;
  const auto reads = grouped_reads(120, 60);
  const std::vector<std::string> files = {
      write_with_short_quality(dir.file("m_1.fastq"), reads, kBad),
      test::write_fastq(dir.file("m_2.fastq"), reads)};
  const auto index = core::create_index("pairs", files, true, lenient_index_options());
  EXPECT_EQ(index.total_reads, 120u);
  expect_chunks_tile(index);
  const Reparse reparse = reparse_chunks(index);
  EXPECT_EQ(reparse.uses, std::vector<int>(120, 2));  // once per mate file
  EXPECT_EQ(reparse.skipped, std::vector<std::uint32_t>{kBad});
  const std::string bad_header = "r" + std::to_string(kBad);
  EXPECT_EQ(reparse.id_of.count({0, bad_header}), 0u);
  EXPECT_EQ(reparse.id_of.at({1, bad_header}), kBad);  // the surviving mate
  expect_lenient_runs_match_oracle(index);
}

TEST(LenientIndex, ChunkHoldingMoreRecordsThanIndexedThrowsParseError) {
  TempDir dir;
  const std::string path = test::write_fastq(dir.file("reads.fastq"), grouped_reads(200, 60));
  const auto index = core::create_index("grown", {path}, false, lenient_index_options());
  // Rewrite the file with shorter records over at least the indexed bytes:
  // every chunk's byte range now holds more records than the index counted.
  const std::uint64_t indexed = io::file_size_bytes(path);
  test::write_fastq(path, grouped_reads(320, 40));
  ASSERT_GE(io::file_size_bytes(path), indexed);

  for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
    const core::ChunkRecord& chunk = index.part.chunks[c];
    const auto in_range = [&](std::uint32_t id) {
      EXPECT_LT(id, chunk.first_read_id + chunk.record_count) << "chunk " << c;
    };
    try {
      core::for_each_chunk_record(
          index, c, core::read_chunk(index, c), io::ParseMode::kLenient,
          [&](std::uint32_t id, std::string_view, std::string_view, std::string_view) {
            in_range(id);
          },
          in_range);
      ADD_FAILURE() << "chunk " << c << ": expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
      EXPECT_EQ(e.path(), path);
      EXPECT_EQ(e.offset(), chunk.offset);
    }
  }

  // The text store's passes and the packed ingest reach the bound through
  // the same helper.
  for (const core::ReadStore store : {core::ReadStore::kText, core::ReadStore::kPacked}) {
    SCOPED_TRACE(store == core::ReadStore::kText ? "text" : "packed");
    core::MetaprepConfig cfg;
    cfg.k = 15;
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.parse_mode = io::ParseMode::kLenient;
    cfg.read_store = store;
    cfg.write_output = false;
    try {
      core::run_metaprep(index, cfg);
      ADD_FAILURE() << "expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
      EXPECT_EQ(e.path(), path);
    }
  }
}

// ---------------------------------------------------------------------------
// Faults through mpsim

TEST(FaultComm, DropExhaustionThrowsTransientCommError) {
  mpsim::World world(1);
  FaultPlanConfig cfg;
  cfg.comm_drop_rate = 1.0;  // every retransmission drops too
  ScopedFaultPlan scoped(cfg);
  try {
    world.run([](mpsim::Comm& comm) {
      int v = 1;
      comm.send(0, 1, &v, sizeof(v));
    });
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kComm);
    EXPECT_TRUE(e.transient());
  }
  EXPECT_EQ(FaultPlan::global().counters().comm_drops, 5u);  // max_attempts
}

TEST(FaultComm, DroppedMessagesAreRetransmittedExactlyOnce) {
  // Single rank, so the per-message sequence numbers (and hence the drop
  // decisions) are fully deterministic for a given seed: with drops below
  // the retry budget every message arrives exactly once, in order, with
  // correct content.
  mpsim::World world(1);
  FaultPlanConfig cfg;
  cfg.comm_drop_rate = 0.2;
  cfg.seed = 11;
  ScopedFaultPlan scoped(cfg);
  world.run([](mpsim::Comm& comm) {
    for (int round = 0; round < 64; ++round) {
      int payload = round * 7;
      comm.send(0, round, &payload, sizeof(payload));
      int got = -1;
      comm.recv(0, round, &got, sizeof(got));
      ASSERT_EQ(got, round * 7);
    }
  });
  EXPECT_GT(FaultPlan::global().counters().comm_drops, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end pipeline acceptance

struct SmallDataset {
  TempDir dir;
  core::DatasetIndex index;
  core::MetaprepConfig config;

  SmallDataset() {
    // Two overlapping families of reads plus a singleton: a few components,
    // enough records (24) that every chunk holds several.
    std::vector<std::string> reads;
    for (int i = 0; i < 10; ++i) reads.push_back("ACGTACGTACGTACGTACGTACGT");
    for (int i = 0; i < 10; ++i) reads.push_back("TTGGCCAATTGGCCAATTGGCCAA");
    for (int i = 0; i < 4; ++i) reads.push_back(std::string(24, "GACT"[i]));
    test::write_fastq(dir.file("reads.fastq"), reads);
    core::IndexCreateOptions opt;
    opt.k = 15;
    opt.m = 4;
    opt.target_chunks = 6;
    index = core::create_index("faults", {dir.file("reads.fastq")}, false, opt);
    config.k = opt.k;
    config.num_ranks = 2;
    config.threads_per_rank = 2;
    config.num_passes = 2;
    config.write_output = false;
  }
};

TEST(FaultPipeline, TransientReadFaultsGiveIdenticalLabels) {
  SmallDataset d;
  const auto baseline = core::run_metaprep(d.index, d.config);

  FaultPlanConfig cfg;
  cfg.transient_read_rate = 0.05;  // ISSUE acceptance: 5% of reads fault
  cfg.transient_failures_per_site = 2;
  cfg.seed = 3;
  ScopedFaultPlan scoped(cfg);
  const auto faulted = core::run_metaprep(d.index, d.config);
  EXPECT_EQ(faulted.labels, baseline.labels);  // retries leave no trace
  EXPECT_EQ(faulted.num_components, baseline.num_components);
}

TEST(FaultPipeline, CorruptChunksStrictModeRaisesTypedError) {
  SmallDataset d;
  FaultPlanConfig cfg;
  cfg.corrupt_rate = 1.0;
  ScopedFaultPlan scoped(cfg);
  EXPECT_THROW(core::run_metaprep(d.index, d.config), util::Error);
}

TEST(FaultPipeline, CorruptChunksLenientModeCompletesWithCountedSkips) {
  SmallDataset d;
  d.config.parse_mode = io::ParseMode::kLenient;
  obs::metrics().set_enabled(true);
  obs::Counter& skipped = obs::metrics().counter("io.records_skipped");

  // The packed store's ingest reads every chunk through the same faulty
  // read path as the text store's per-pass scans.
  for (const core::ReadStore store : {core::ReadStore::kText, core::ReadStore::kPacked}) {
    SCOPED_TRACE(store == core::ReadStore::kText ? "text" : "packed");
    d.config.read_store = store;
    const std::uint64_t skipped_before = skipped.value();
    FaultPlanConfig cfg;
    // The corruption draw hashes (seed, path, offset) and TempDir randomizes
    // the path, so the hit count varies run to run; at 0.5 a ~6-site dataset
    // rolls zero corruptions in ~2% of runs.  0.95 keeps the assertion below
    // meaningful while making an all-miss run (0.05^6) effectively impossible.
    cfg.corrupt_rate = 0.95;
    cfg.seed = 5;
    ScopedFaultPlan scoped(cfg);
    const auto result = core::run_metaprep(d.index, d.config);

    const auto fc = FaultPlan::global().counters();
    EXPECT_GT(fc.chunks_corrupted, 0u);
    // Each corrupted buffer read loses exactly one record to resync, so the
    // skip metric equals the injected corruption count.
    EXPECT_EQ(skipped.value() - skipped_before, fc.chunks_corrupted);
    // Degraded but labeled: the run completes with every read labeled.
    EXPECT_EQ(result.num_reads, d.index.total_reads);
    EXPECT_EQ(result.labels.size(), d.index.total_reads);
  }
  obs::metrics().set_enabled(false);
}

/// The body of LenientSkipsDoNotDriftOutputLabels for one configuration:
/// every chunk read loses one record, and both the partition and each
/// surviving record's output file must agree with the oracle over the
/// degraded input.
void expect_no_label_drift(const core::DatasetIndex& index, const core::MetaprepConfig& cfg) {
  FaultPlanConfig fp;
  fp.corrupt_rate = 1.0;  // every chunk read loses exactly one record
  fp.seed = 11;
  ScopedFaultPlan scoped(fp);

  // Corruption decisions are site-keyed, so the brute-force oracle sees the
  // identical degraded input and yields per-read-ID ground-truth labels.
  const auto oracle = core::reference_components(index, cfg.filter, cfg.parse_mode);
  const auto result = core::run_metaprep(index, cfg);
  ASSERT_GT(FaultPlan::global().counters().chunks_corrupted, 0u);
  EXPECT_EQ(test::normalize_partition(result.labels), test::normalize_partition(oracle));

  std::map<std::uint32_t, std::uint64_t> oracle_sizes;
  for (auto l : oracle) ++oracle_sizes[l];
  std::uint32_t largest_root = 0;
  std::uint64_t largest_size = 0;
  for (const auto& [root, size] : oracle_sizes) {
    if (size > largest_size) {
      largest_root = root;
      largest_size = size;
    }
  }
  ASSERT_GT(largest_size, 1u);

  // Every surviving record must land in the file matching its oracle label:
  // members of the largest component in ".lc", everything else in ".other".
  std::size_t checked = 0;
  for (const auto& path : result.output_files) {
    const bool lc_file = path.find(".lc.fastq") != std::string::npos;
    for (const auto& rec : test::read_all_fastq(path)) {
      const std::uint32_t id =
          static_cast<std::uint32_t>(std::stoul(rec.id.substr(1)));  // "r<i>"
      ASSERT_LT(id, oracle.size());
      EXPECT_EQ(oracle[id] == largest_root, lc_file)
          << "read r" << id << " misrouted to " << path;
      ++checked;
    }
  }
  // CC-I/O reads each chunk once and each corrupted read loses exactly one
  // record, so the output holds all reads minus one per chunk.
  EXPECT_EQ(checked, index.total_reads - index.part.num_chunks());
}

TEST(FaultPipeline, LenientSkipsDoNotDriftOutputLabels) {
  // Regression: in lenient mode the CC-I/O writers derive each record's read
  // ID from a cursor that starts at the chunk's first_read_id.  The chunk
  // table counted every record — including ones the parser later abandons —
  // so a resynchronization must advance the cursor too.  Before the
  // ParseOptions::on_skip hook, every record after a skip inherited its
  // predecessor's ID and was routed to the wrong output file.
  //
  // Reads alternate between two k-mer-disjoint families, so an off-by-one
  // read ID lands in the *other* family's component and the misrouting is
  // visible in the partitioned output.
  TempDir dir;
  std::vector<std::string> reads;
  for (int i = 0; i < 12; ++i) {
    reads.push_back(i % 2 == 0 ? "ACGTACGTACGTACGTACGTACGT" : "TTGGCCAATTGGCCAATTGGCCAA");
  }
  for (int i = 0; i < 10; ++i) reads.push_back("ACGTACGTACGTACGTACGTACGT");
  test::write_fastq(dir.file("reads.fastq"), reads);
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 6;
  const auto index = core::create_index("drift", {dir.file("reads.fastq")}, false, opt);

  // Both read stores: the packed ingest must drop the same records as the
  // text scans and CC-I/O, or KmerGen and the output see different inputs.
  for (const core::ReadStore store : {core::ReadStore::kText, core::ReadStore::kPacked}) {
    SCOPED_TRACE(store == core::ReadStore::kText ? "text" : "packed");
    TempDir out;
    core::MetaprepConfig cfg;
    cfg.k = opt.k;
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.num_passes = 2;
    cfg.parse_mode = io::ParseMode::kLenient;
    cfg.read_store = store;
    cfg.write_output = true;
    cfg.output_dir = out.str();
    expect_no_label_drift(index, cfg);
  }
}

TEST(FaultPipeline, CommDropsAndDelaysDoNotChangeResults) {
  SmallDataset d;
  d.config.num_ranks = 4;  // more ranks -> enough messages that faults fire
  // Fixed tuples travel by one-sided window stores, so only the merge tail
  // sends messages; the super-k-mer codec still ships one per (pass, src,
  // dest) pair, which keeps enough messages for the faults to fire.
  core::MetaprepConfig superkmer = d.config;
  superkmer.comm_compress = core::CommCompress::kSuperKmer;
  const auto baseline = core::run_metaprep(d.index, d.config);
  const auto superkmer_baseline = core::run_metaprep(d.index, superkmer);

  FaultPlanConfig cfg;
  cfg.comm_drop_rate = 0.05;
  cfg.comm_delay_rate = 0.3;
  cfg.comm_delay = std::chrono::microseconds(50);
  cfg.seed = 9;
  ScopedFaultPlan scoped(cfg);
  EXPECT_EQ(core::run_metaprep(d.index, d.config).labels, baseline.labels);
  EXPECT_EQ(core::run_metaprep(d.index, superkmer).labels, superkmer_baseline.labels);
  const auto fc = FaultPlan::global().counters();
  EXPECT_GT(fc.comm_drops + fc.comm_delays, 0u);
}

// ---------------------------------------------------------------------------
// KmerGen's one-sided stores: bounded blocks and safe unwinding

TEST(KmerGenBounds, ChunkYieldingMoreKmersThanIndexedThrowsParseError) {
  // KmerGen stores each thread's k-mers for a routing slot in a block sized
  // by the index's chunk histograms.  Rewrite the file with the same record
  // count and byte size, but with reads that all share every k-mer: each
  // chunk now floods one slot far past its block, which must stop as a
  // parse Error naming the file instead of writing into the next block.
  TempDir dir;
  const std::string path = test::write_fastq(dir.file("reads.fastq"), grouped_reads(400, 60));
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 4;
  const auto index = core::create_index("flood", {path}, false, opt);
  const std::uint64_t indexed = io::file_size_bytes(path);
  std::string tata;
  while (tata.size() < 60) tata += "TA";
  test::write_fastq(path, std::vector<std::string>(400, tata));
  ASSERT_EQ(io::file_size_bytes(path), indexed);

  for (const core::ReadStore store : {core::ReadStore::kText, core::ReadStore::kPacked}) {
    SCOPED_TRACE(store == core::ReadStore::kText ? "text" : "packed");
    core::MetaprepConfig cfg;
    cfg.k = 15;
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.read_store = store;
    cfg.write_output = false;
    try {
      core::run_metaprep(index, cfg);
      ADD_FAILURE() << "expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
      EXPECT_EQ(e.path(), path);
      EXPECT_NE(std::string(e.what()).find("k-mers"), std::string::npos) << e.what();
    }
  }
}

TEST(KmerGenBounds, RankFailingMidSweepWaitsForPeersStoringIntoItsWindow) {
  // P = 3, T = 2: both of rank 0's threads hit a corrupt record at the start
  // of their first chunk, so rank 0 unwinds while ranks 1 and 2 are still
  // sweeping and storing tuples into rank 0's receive window.  The window's
  // collective free must hold rank 0's buffers until those stores end (an
  // ASan build reports any store into freed memory), and the run must fail
  // with the typed parse error, not with the peers' poisoned-world errors.
  TempDir dir;
  const std::string path =
      test::write_fastq(dir.file("reads.fastq"), grouped_reads(6000, 100));
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 12;
  const auto index = core::create_index("unwind", {path}, false, opt);
  const core::ChunkAssignment ca(index.part.num_chunks(), 3, 2);
  for (int t = 0; t < 2; ++t) {
    const core::ChunkRecord& chunk = index.part.chunks[ca.thread_begin(0, t)];
    test::corrupt_record_separator(path, chunk.first_read_id + 1);
  }

  core::MetaprepConfig cfg;
  cfg.k = 15;
  cfg.num_ranks = 3;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 1;
  cfg.write_output = false;
  try {
    core::run_metaprep(index, cfg);
    ADD_FAILURE() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse) << e.what();
    EXPECT_EQ(e.path(), path);
    EXPECT_TRUE(e.has_offset());
  }
}

}  // namespace
}  // namespace metaprep
