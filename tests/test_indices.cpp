// Tests for IndexCreate (merHist / FASTQPart) and index serialization.
#include "core/index_create.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/indices.hpp"
#include "io/fastq.hpp"
#include "kmer/codec.hpp"
#include "kmer/scanner.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace metaprep::core {
namespace {

using test::TempDir;

sim::DatasetConfig small_config(std::uint64_t pairs = 300) {
  sim::DatasetConfig cfg;
  cfg.name = "idx";
  cfg.genomes.num_species = 3;
  cfg.genomes.min_genome_len = 4000;
  cfg.genomes.max_genome_len = 6000;
  cfg.num_pairs = pairs;
  return cfg;
}

/// Raw per-chunk m-mer histograms recomputed from the FASTQ bytes, [c][bin].
std::vector<std::vector<std::uint64_t>> raw_chunk_histograms(const DatasetIndex& index) {
  const std::size_t nbins = std::size_t{1} << (2 * index.part.m);
  std::vector<std::vector<std::uint64_t>> raw(index.part.num_chunks(),
                                              std::vector<std::uint64_t>(nbins, 0));
  for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
    const ChunkRecord& chunk = index.part.chunks[c];
    const auto buffer = io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
    io::for_each_record_in_buffer(
        std::string_view(buffer.data(), buffer.size()),
        [&](std::string_view, std::string_view seq, std::string_view) {
          kmer::for_each_canonical_kmer64(seq, index.k, [&](std::uint64_t km, std::size_t) {
            ++raw[c][kmer::prefix_bin64(km, index.k, index.part.m)];
          });
        });
  }
  return raw;
}

TEST(IndexCreate, BasicInvariants) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(), dir.file("d"));
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 6;
  opt.target_chunks = 8;
  IndexCreateTiming timing;
  const auto index = create_index("idx", ds.files, true, opt, &timing);

  EXPECT_EQ(index.total_reads, 300u);
  EXPECT_EQ(index.total_bases, ds.total_bases);
  EXPECT_EQ(index.k, 15);
  EXPECT_EQ(index.mer_hist.m, 6);
  EXPECT_EQ(index.mer_hist.counts.size(), std::size_t{1} << 12);
  EXPECT_GE(timing.chunking_seconds, 0.0);
  EXPECT_GE(timing.histogram_seconds, 0.0);
  // Roughly the requested number of chunks (at least one per file).
  EXPECT_GE(index.part.num_chunks(), 2u);
  EXPECT_LE(index.part.num_chunks(), 16u);
}

TEST(IndexCreate, ChunksTileTheFilesExactly) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(), dir.file("d"));
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 6;
  const auto index = create_index("idx", ds.files, true, opt);

  for (std::size_t f = 0; f < index.files.size(); ++f) {
    std::uint64_t covered = 0;
    std::uint64_t records = 0;
    std::uint64_t next_offset = 0;
    std::uint32_t next_read = 0;
    for (const auto& c : index.part.chunks) {
      if (c.file != f) continue;
      EXPECT_EQ(c.offset, next_offset) << "gap or overlap in chunks";
      next_offset = c.offset + c.size;
      covered += c.size;
      // First read IDs are contiguous within a file (paired: both files use
      // the same base).
      EXPECT_EQ(c.first_read_id, next_read);
      next_read = c.first_read_id + c.record_count;
      records += c.record_count;
    }
    EXPECT_EQ(covered, io::file_size_bytes(index.files[f]));
    EXPECT_EQ(records, index.total_reads);
  }
}

TEST(IndexCreate, ChunkBoundariesAreRecordAligned) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(), dir.file("d"));
  IndexCreateOptions opt;
  opt.k = 11;
  opt.m = 4;
  opt.target_chunks = 10;
  const auto index = create_index("idx", ds.files, true, opt);
  for (const auto& c : index.part.chunks) {
    const auto buffer = io::read_file_range(index.files[c.file], c.offset, c.size);
    EXPECT_EQ(io::count_records_in_buffer(std::string_view(buffer.data(), buffer.size())),
              c.record_count);
  }
}

TEST(IndexCreate, MerHistIsColumnSumOfChunkHistograms) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(200), dir.file("d"));
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 11;
  for (int threads : {1, 4}) {
    opt.threads = threads;
    const auto index = create_index("raw", ds.files, true, opt);
    const auto raw = raw_chunk_histograms(index);
    const std::uint32_t nbins = index.mer_hist.num_bins();
    std::vector<std::uint64_t> colsum(nbins, 0);
    for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
      std::uint64_t running = 0;
      for (std::uint32_t b = 0; b < nbins; ++b) {
        colsum[b] += raw[c][b];
        running += raw[c][b];
        // Stored rows are the inclusive prefix sums of the raw counts.
        ASSERT_EQ(index.part.histograms[std::size_t{c} * nbins + b], running)
            << "threads " << threads << " chunk " << c << " bin " << b;
      }
    }
    for (std::uint32_t b = 0; b < nbins; ++b)
      EXPECT_EQ(index.mer_hist.counts[b], colsum[b]) << "threads " << threads << " bin " << b;
  }
}

TEST(IndexCreate, HistogramTotalEqualsEnumeratedKmerCount) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(200), dir.file("d"));
  IndexCreateOptions opt;
  opt.k = 21;
  opt.m = 6;
  const auto index = create_index("idx", ds.files, true, opt);

  std::uint64_t expected = 0;
  for (const auto& f : ds.files) {
    for (const auto& rec : test::read_all_fastq(f)) {
      expected += kmer::count_valid_kmers(rec.seq, 21);
    }
  }
  EXPECT_EQ(index.mer_hist.total(), expected);
}

TEST(IndexCreate, WideKUsesSameBinSemantics) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(100), dir.file("d"));
  IndexCreateOptions opt;
  opt.k = 43;  // 128-bit path
  opt.m = 5;
  const auto index = create_index("idx", ds.files, true, opt);
  std::uint64_t expected = 0;
  for (const auto& f : ds.files) {
    for (const auto& rec : test::read_all_fastq(f)) {
      expected += kmer::count_valid_kmers(rec.seq, 43);
    }
  }
  EXPECT_EQ(index.mer_hist.total(), expected);
}

TEST(IndexCreate, PairedMismatchThrows) {
  TempDir dir;
  test::write_fastq(dir.file("a_1.fastq"), {"ACGTACGTAC", "TTTTTTTTTT"});
  test::write_fastq(dir.file("a_2.fastq"), {"ACGTACGTAC"});
  IndexCreateOptions opt;
  opt.k = 5;
  opt.m = 2;
  EXPECT_THROW(
      create_index("bad", {dir.file("a_1.fastq"), dir.file("a_2.fastq")}, true, opt),
      std::runtime_error);
}

TEST(IndexCreate, OddPairedFileCountThrows) {
  TempDir dir;
  test::write_fastq(dir.file("a.fastq"), {"ACGTACGTAC"});
  IndexCreateOptions opt;
  EXPECT_THROW(create_index("bad", {dir.file("a.fastq")}, true, opt), std::invalid_argument);
}

TEST(IndexCreate, SingleEndAccumulatesReadIds) {
  TempDir dir;
  test::write_fastq(dir.file("a.fastq"), {"ACGTACGTACGT", "GGGGGGGGGGGG"});
  test::write_fastq(dir.file("b.fastq"), {"TTTTTTTTTTTT"});
  IndexCreateOptions opt;
  opt.k = 5;
  opt.m = 2;
  opt.target_chunks = 2;
  const auto index =
      create_index("se", {dir.file("a.fastq"), dir.file("b.fastq")}, false, opt);
  EXPECT_EQ(index.total_reads, 3u);
  // File b's first chunk starts at read ID 2.
  bool found_b = false;
  for (const auto& c : index.part.chunks) {
    if (c.file == 1) {
      EXPECT_EQ(c.first_read_id, 2u);
      found_b = true;
    }
  }
  EXPECT_TRUE(found_b);
}

TEST(IndexCreate, InvalidOptionsThrow) {
  TempDir dir;
  test::write_fastq(dir.file("a.fastq"), {"ACGT"});
  IndexCreateOptions opt;
  opt.m = 0;
  EXPECT_THROW(create_index("x", {dir.file("a.fastq")}, false, opt), std::invalid_argument);
  opt.m = 6;
  opt.k = 5;  // k < m
  EXPECT_THROW(create_index("x", {dir.file("a.fastq")}, false, opt), std::invalid_argument);
  EXPECT_THROW(create_index("x", {}, false, IndexCreateOptions{}), std::invalid_argument);
}

TEST(IndexCreate, ParallelHistogramsMatchSequential) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(250), dir.file("d"));
  IndexCreateOptions seq_opt;
  seq_opt.k = 17;
  seq_opt.m = 5;
  seq_opt.target_chunks = 9;
  seq_opt.threads = 1;
  const auto sequential = create_index("par", ds.files, true, seq_opt);
  for (int threads : {2, 4, 7}) {
    IndexCreateOptions par_opt = seq_opt;
    par_opt.threads = threads;
    const auto parallel = create_index("par", ds.files, true, par_opt);
    EXPECT_EQ(parallel.mer_hist.counts, sequential.mer_hist.counts) << threads;
    EXPECT_EQ(parallel.part.histograms, sequential.part.histograms) << threads;
    EXPECT_EQ(parallel.total_bases, sequential.total_bases) << threads;
    EXPECT_EQ(parallel.total_reads, sequential.total_reads) << threads;
  }
}

TEST(Index, SaveLoadRoundTrip) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(150), dir.file("d"));
  IndexCreateOptions opt;
  opt.k = 17;
  opt.m = 5;
  opt.target_chunks = 5;
  const auto index = create_index("roundtrip", ds.files, true, opt);
  const std::string path = dir.file("index.bin");
  save_index(index, path);
  const auto loaded = load_index(path);

  EXPECT_EQ(loaded.name, index.name);
  EXPECT_EQ(loaded.files, index.files);
  EXPECT_EQ(loaded.paired, index.paired);
  EXPECT_EQ(loaded.k, index.k);
  EXPECT_EQ(loaded.total_reads, index.total_reads);
  EXPECT_EQ(loaded.total_bases, index.total_bases);
  EXPECT_EQ(loaded.mer_hist.counts, index.mer_hist.counts);
  EXPECT_EQ(loaded.part.histograms, index.part.histograms);
  ASSERT_EQ(loaded.part.chunks.size(), index.part.chunks.size());
  for (std::size_t i = 0; i < loaded.part.chunks.size(); ++i) {
    EXPECT_EQ(loaded.part.chunks[i].offset, index.part.chunks[i].offset);
    EXPECT_EQ(loaded.part.chunks[i].size, index.part.chunks[i].size);
    EXPECT_EQ(loaded.part.chunks[i].first_read_id, index.part.chunks[i].first_read_id);
  }
}

/// A FastqPartTable whose rows are the prefix sums of @p raw ([chunk][bin]).
FastqPartTable cumulative_table(int m, const std::vector<std::vector<std::uint32_t>>& raw) {
  FastqPartTable part;
  part.m = m;
  part.chunks.resize(raw.size());
  std::vector<std::uint32_t> mer_acc(std::size_t{1} << (2 * m), 0);
  for (std::uint32_t c = 0; c < raw.size(); ++c) {
    std::vector<std::uint32_t> row = raw[c];
    cumulate_chunk_row(c, row, mer_acc);
    part.histograms.insert(part.histograms.end(), row.begin(), row.end());
  }
  return part;
}

TEST(Index, RangeCountSumsBins) {
  std::vector<std::uint32_t> raw(16, 1);  // m = 2: 16 bins
  raw[3] = 5;
  const FastqPartTable part = cumulative_table(2, {raw});
  EXPECT_EQ(part.range_count(0, 0, 16), 20u);
  EXPECT_EQ(part.range_count(0, 3, 4), 5u);
  EXPECT_EQ(part.range_count(0, 4, 4), 0u);
  EXPECT_EQ(part.range_count(0, 0, 1), 1u);
  EXPECT_EQ(part.range_count(0, 15, 16), 1u);
  EXPECT_EQ(part.range_count(0, 9, 3), 0u);  // reversed bounds are an empty range
}

TEST(Index, BoundedCountsMatchBruteForceSums) {
  constexpr int kM = 3;  // 64 bins
  constexpr std::uint32_t kBins = 64;
  std::mt19937 rng(20170529);
  std::vector<std::vector<std::uint32_t>> raw(5, std::vector<std::uint32_t>(kBins));
  for (auto& row : raw)
    for (auto& v : row) v = rng() % 4 == 0 ? 0 : rng() % 100000;  // some empty bins
  const FastqPartTable part = cumulative_table(kM, raw);
  auto brute = [&](std::uint32_t c, std::uint32_t lo, std::uint32_t hi) {
    std::uint64_t t = 0;
    for (std::uint32_t b = lo; b < hi; ++b) t += raw[c][b];
    return t;
  };
  for (std::uint32_t c = 0; c < raw.size(); ++c) {
    for (std::uint32_t lo = 0; lo <= kBins; ++lo) {
      for (std::uint32_t hi = lo; hi <= kBins; ++hi)
        ASSERT_EQ(part.range_count(c, lo, hi), brute(c, lo, hi)) << c << " " << lo << " " << hi;
    }
  }
  // Span form: random sorted bounds, with repeats (empty ranges) and the
  // table ends, accumulated into counts that already hold a value.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint32_t> bounds(2 + rng() % 9);
    for (auto& b : bounds) b = rng() % (kBins + 1);
    if (trial % 3 == 0) bounds.front() = 0;
    if (trial % 5 == 0) bounds.back() = kBins;
    std::sort(bounds.begin(), bounds.end());
    const auto c = static_cast<std::uint32_t>(rng() % raw.size());
    std::vector<std::uint64_t> counts(bounds.size() - 1, 7);
    part.add_range_counts(c, bounds, counts);
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i)
      ASSERT_EQ(counts[i], 7 + brute(c, bounds[i], bounds[i + 1])) << trial << " " << i;
  }
  std::vector<std::uint64_t> full(1, 0);
  part.add_range_counts(4, std::vector<std::uint32_t>{0, kBins}, full);
  EXPECT_EQ(full[0], brute(4, 0, kBins));
}

TEST(Index, CumulateChunkRowPrefixSumsAndAccumulates) {
  std::vector<std::uint32_t> row = {3, 0, 2, 5};
  std::vector<std::uint32_t> acc = {1, 1, 1, 1};
  cumulate_chunk_row(0, row, acc);
  EXPECT_EQ(row, (std::vector<std::uint32_t>{3, 3, 5, 10}));
  EXPECT_EQ(acc, (std::vector<std::uint32_t>{4, 1, 3, 6}));
}

TEST(Index, CumulateChunkRowRejectsA32BitTotalOverflow) {
  // Each bin fits, but the chunk's total of 2^32 does not fit a row entry.
  std::vector<std::uint32_t> row = {0x80000000u, 0x80000000u};
  std::vector<std::uint32_t> acc(2, 0);
  try {
    cumulate_chunk_row(17, row, acc);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kConfig);
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk 17"), std::string::npos) << what;
    EXPECT_NE(what.find("--chunks"), std::string::npos) << what;
  }
  // The largest total that fits is accepted.
  row = {0x80000000u, 0x7FFFFFFFu};
  acc.assign(2, 0);
  cumulate_chunk_row(0, row, acc);
  EXPECT_EQ(row[1], 0xFFFFFFFFu);
}

TEST(Index, CumulateChunkRowRejectsAMerHistBinOverflow) {
  std::vector<std::uint32_t> row = {0, 2};
  std::vector<std::uint32_t> acc = {0, 0xFFFFFFFFu};
  try {
    cumulate_chunk_row(0, row, acc);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kConfig);
  }
}

TEST(Index, MaxChunkBytes) {
  DatasetIndex idx;
  idx.part.chunks.push_back({0, 0, 100, 0, 1});
  idx.part.chunks.push_back({0, 100, 300, 1, 1});
  EXPECT_EQ(idx.max_chunk_bytes(), 300u);
}

TEST(ReadIds, SingleEndAccumulatesAndPairedSharesBases) {
  const auto se = assign_read_ids({3, 0, 5}, false);
  EXPECT_EQ(se.base, (std::vector<std::uint32_t>{0, 3, 3}));
  EXPECT_EQ(se.total_reads, 8u);
  const auto pe = assign_read_ids({4, 4, 2, 2}, true);
  EXPECT_EQ(pe.base, (std::vector<std::uint32_t>{0, 0, 4, 4}));
  EXPECT_EQ(pe.total_reads, 6u);
}

TEST(ReadIds, LargestDatasetBelowTheSentinelFits) {
  const std::uint64_t max_reads = kInvalidRead - 1;
  const auto ids = assign_read_ids({max_reads - 10, 10}, false);
  EXPECT_EQ(ids.total_reads, max_reads);
  EXPECT_EQ(ids.base[1], max_reads - 10);
}

TEST(ReadIds, TotalReachingTheSentinelIsATypedError) {
  auto expect_overflow = [](const std::vector<std::uint64_t>& counts, bool paired) {
    try {
      (void)assign_read_ids(counts, paired);
      FAIL() << "expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kConfig);
    }
  };
  expect_overflow({kInvalidRead}, false);                 // exactly the sentinel
  expect_overflow({kInvalidRead - 1, 1}, false);          // reaches it across files
  expect_overflow({3'000'000'000ULL, 3'000'000'000ULL}, false);  // would wrap a u32 sum
  expect_overflow({3'000'000'000ULL, 3'000'000'000ULL, 2'000'000'000ULL,
                   2'000'000'000ULL},
                  true);  // paired: the second library crosses the limit
  expect_overflow({std::uint64_t{1} << 33}, false);  // one file past 2^32 records
}

// ---------------------------------------------------------------------------
// load_index on truncated and hostile files.  The fixture is a hand-built
// paired index with m=1 (4 bins) so every field offset is known.

DatasetIndex tiny_index() {
  DatasetIndex idx;
  idx.name = "tiny";
  idx.files = {"r_1.fq", "r_2.fq"};
  idx.paired = true;
  idx.k = 5;
  idx.total_reads = 5;
  idx.total_bases = 100;
  idx.total_file_bytes = 400;
  idx.mer_hist.m = 1;
  idx.mer_hist.k = 5;
  idx.mer_hist.counts = {1, 2, 3, 4};
  idx.part.m = 1;
  //                     file offset size first_id count
  idx.part.chunks.push_back({0, 0, 120, 0, 3});
  idx.part.chunks.push_back({0, 120, 80, 3, 2});
  idx.part.chunks.push_back({1, 0, 200, 0, 5});
  // Cumulative rows of the raw counts {1,0,1,1}, {0,1,1,1}, {0,1,1,2},
  // whose column sums are merHist.
  idx.part.histograms = {1, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 4};
  return idx;
}

// Byte offsets of the length fields in tiny_index()'s file.
constexpr std::size_t kNameLenAt = 8;                       // after magic + version
constexpr std::size_t kNfilesAt = kNameLenAt + 8 + 4;       // name "tiny"
constexpr std::size_t kFile0LenAt = kNfilesAt + 8;
constexpr std::size_t kMerCountsLenAt = kFile0LenAt + 2 * (8 + 6) + 4 + 4 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kPartMAt = kMerCountsLenAt + 8 + 4 * 4;
constexpr std::size_t kNchunksAt = kPartMAt + 4;
constexpr std::size_t kHistLenAt = kNchunksAt + 8 + 3 * 28;

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_parse_error(const std::string& path, const std::string& what) {
  try {
    (void)load_index(path);
    FAIL() << what << ": expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse) << what << ": " << e.what();
  }
}

TEST(IndexLoad, HandBuiltFixtureRoundTrips) {
  TempDir dir;
  const std::string path = dir.file("tiny.idx");
  save_index(tiny_index(), path);
  const auto loaded = load_index(path);
  EXPECT_EQ(loaded.total_reads, 5u);
  ASSERT_EQ(loaded.part.chunks.size(), 3u);
  EXPECT_EQ(loaded.part.chunks[2].record_count, 5u);
  // The offsets below index this exact layout.
  EXPECT_EQ(file_bytes(path).size(), kHistLenAt + 8 + 12 * 4);
}

TEST(IndexLoad, EveryTruncationIsAParseError) {
  TempDir dir;
  const std::string path = dir.file("tiny.idx");
  save_index(tiny_index(), path);
  const auto bytes = file_bytes(path);
  const std::string cut_path = dir.file("cut.idx");
  for (std::size_t cut = 8; cut < bytes.size(); ++cut) {
    write_bytes(cut_path, std::vector<char>(bytes.begin(), bytes.begin() + cut));
    expect_parse_error(cut_path, "cut at " + std::to_string(cut));
  }
}

TEST(IndexLoad, HostileLengthsFailBeforeAllocating) {
  TempDir dir;
  const std::string path = dir.file("tiny.idx");
  save_index(tiny_index(), path);
  const auto bytes = file_bytes(path);
  const std::string bad = dir.file("bad.idx");
  for (const std::size_t at :
       {kNameLenAt, kNfilesAt, kFile0LenAt, kMerCountsLenAt, kNchunksAt, kHistLenAt}) {
    for (const std::uint64_t len : {std::uint64_t{1} << 60, ~std::uint64_t{0},
                                    std::uint64_t{bytes.size()}}) {
      auto patched = bytes;
      std::memcpy(patched.data() + at, &len, sizeof(len));
      write_bytes(bad, patched);
      expect_parse_error(bad, "length " + std::to_string(len) + " at " + std::to_string(at));
    }
  }
  // m = 40 would shift past 64 bits when sizing the histogram check.
  auto patched = bytes;
  const std::uint32_t huge_m = 40;
  std::memcpy(patched.data() + kPartMAt, &huge_m, sizeof(huge_m));
  write_bytes(bad, patched);
  expect_parse_error(bad, "m = 40");
}

TEST(IndexLoad, InconsistentTablesAreParseErrors) {
  TempDir dir;
  const std::string path = dir.file("bad.idx");
  auto check = [&](const std::string& what, auto&& mutate) {
    DatasetIndex idx = tiny_index();
    mutate(idx);
    save_index(idx, path);
    expect_parse_error(path, what);
  };
  check("file index out of range", [](DatasetIndex& i) { i.part.chunks[2].file = 2; });
  check("read-ID gap", [](DatasetIndex& i) { i.part.chunks[1].first_read_id = 4; });
  check("read-ID overlap", [](DatasetIndex& i) { i.part.chunks[1].first_read_id = 2; });
  check("range not starting at 0", [](DatasetIndex& i) { i.part.chunks[2].first_read_id = 1; });
  check("mates cover different reads", [](DatasetIndex& i) { i.part.chunks[2].record_count = 4; });
  check("total_reads disagrees", [](DatasetIndex& i) { i.total_reads = 6; });
  check("total_reads is the sentinel", [](DatasetIndex& i) { i.total_reads = kInvalidRead; });
  check("chunks out of file order",
        [](DatasetIndex& i) { std::swap(i.part.chunks[0], i.part.chunks[2]); });
  check("histogram rows short", [](DatasetIndex& i) { i.part.histograms.pop_back(); });
  check("merHist size", [](DatasetIndex& i) { i.mer_hist.counts.push_back(0); });
  check("merHist m disagrees", [](DatasetIndex& i) { i.mer_hist.m = 2; });
  check("odd paired file count", [](DatasetIndex& i) { i.files.push_back("x.fq"); });
}

TEST(IndexLoad, HostileCumulativeRowsAreParseErrors) {
  TempDir dir;
  const std::string path = dir.file("bad.idx");
  // Each fixture breaks exactly one rule, so the error names that rule.
  auto check = [&](const std::string& what, const std::string& rule, auto&& mutate) {
    DatasetIndex idx = tiny_index();
    mutate(idx);
    save_index(idx, path);
    try {
      (void)load_index(path);
      FAIL() << what << ": expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kParse) << what;
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos) << what << ": " << e.what();
    }
  };
  // Rows must be non-decreasing: a decreasing row would wrap a bounded count.
  check("decreasing row", "row 1 decreases", [](DatasetIndex& i) {
    i.part.histograms[4 + 1] = 3;  // chunk 1: {0, 3, 2, 3}
    i.mer_hist.counts = {1, 4, 1, 4};
  });
  // A chunk cannot hold more k-mers than bytes.  Chunk 2's row ends at
  // 0xFFFFFFFF, a total that would otherwise size kmer_out to 48 GiB.
  check("row total far above chunk size", "more k-mers than its chunk has bytes",
        [](DatasetIndex& i) {
          i.part.histograms[8 + 3] = 0xFFFFFFFFu;
          i.mer_hist.counts = {1, 2, 3, 0xFFFFFFFFu};
        });
  check("row total one above chunk size", "more k-mers than its chunk has bytes",
        [](DatasetIndex& i) { i.part.chunks[1].size = 2; });  // chunk 1 counts 3
  // merHist must equal the column differences of the rows.
  const std::string column_sum = "merHist is not the column sum";
  check("merHist bin too large", column_sum, [](DatasetIndex& i) { i.mer_hist.counts[3] = 5; });
  check("merHist bin too small", column_sum, [](DatasetIndex& i) { i.mer_hist.counts[0] = 0; });
  check("merHist mass in the wrong bin", column_sum,
        [](DatasetIndex& i) { i.mer_hist.counts = {2, 1, 3, 4}; });
  // A column summing to 2^32 agrees with merHist only modulo 2^32.
  check("column sum wraps u32", column_sum, [](DatasetIndex& i) {
    i.part.chunks[0].size = i.part.chunks[1].size = 0x80000010u;
    for (std::size_t b = 0; b < 4; ++b) {
      i.part.histograms[b] += 0x80000000u;
      i.part.histograms[4 + b] += 0x80000000u;
    }
  });
}

TEST(IndexLoad, RowTotalEqualToChunkSizeLoads) {
  TempDir dir;
  const std::string path = dir.file("edge.idx");
  DatasetIndex idx = tiny_index();
  idx.part.chunks[1].size = 3;  // chunk 1 counts exactly 3 k-mers
  save_index(idx, path);
  EXPECT_EQ(load_index(path).part.range_count(1, 0, 4), 3u);
}

TEST(IndexLoad, FormatV4RoundTripsAndV3IsRejected) {
  TempDir dir;
  const std::string path = dir.file("tiny.idx");
  const DatasetIndex idx = tiny_index();
  save_index(idx, path);
  auto bytes = file_bytes(path);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 4u);
  const auto loaded = load_index(path);
  EXPECT_EQ(loaded.part.histograms, idx.part.histograms);
  EXPECT_EQ(loaded.mer_hist.counts, idx.mer_hist.counts);
  for (std::uint32_t c = 0; c < 3; ++c)
    for (std::uint32_t b = 0; b < 4; ++b)
      EXPECT_EQ(loaded.part.range_count(c, b, 4), idx.part.range_count(c, b, 4));

  // A v3 file stored raw rows; it is refused, not reinterpreted.
  version = 3;
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  const std::string v3 = dir.file("v3.idx");
  write_bytes(v3, bytes);
  try {
    (void)load_index(v3);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(IndexLoad, SingleEndTilingAcrossFilesLoads) {
  TempDir dir;
  const std::string path = dir.file("se.idx");
  DatasetIndex idx = tiny_index();
  idx.paired = false;
  idx.part.chunks[2].first_read_id = 5;  // file 1 follows file 0
  idx.total_reads = 10;
  save_index(idx, path);
  EXPECT_EQ(load_index(path).total_reads, 10u);
}

TEST(IndexLoad, NonRegularFilesAreRefused) {
  // A FIFO or device has no size to bound lengths against, so it is refused
  // with a clear message instead of reading as a truncated file.  The FIFO
  // has no writer: the check must come before anything opens it.
  TempDir dir;
  const std::string fifo = dir.file("idx.fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path : {fifo, dir.str(), std::string("/dev/null")}) {
    try {
      (void)load_index(path);
      FAIL() << path << ": expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kIo) << path;
      EXPECT_NE(std::string(e.what()).find("regular file"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace metaprep::core
