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
#include "io/binary.hpp"
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
    const auto buffer = read_chunk(index, c);
    for_each_chunk_record(
        index, c, buffer, io::ParseMode::kStrict,
        [&](std::uint32_t, std::string_view, std::string_view seq, std::string_view) {
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
    const auto stats = io::for_each_record_in_buffer(
        std::string_view(buffer.data(), buffer.size()),
        [](std::string_view, std::string_view, std::string_view) {});
    EXPECT_EQ(stats.records, c.record_count);
  }
}

TEST(IndexCreate, MerHistIsColumnSumOfChunkHistograms) {
  TempDir dir;
  const auto ds = sim::simulate_dataset(small_config(200), dir.file("d"));
  IndexCreateOptions opt;
  opt.k = 15;
  // m=4: large chunks, dense rows.  m=7: large chunks, sparse rows whose
  // bins a sweep finds.  m=8: chunks under half as many bytes as bins, so
  // bins are noted as first touched and radix-sorted in two passes; m=5
  // with about one record per chunk sorts in one pass.
  for (const auto& [m, chunks] :
       {std::pair{4, 11u}, std::pair{7, 11u}, std::pair{8, 11u}, std::pair{5, 400u}}) {
    opt.m = m;
    opt.target_chunks = chunks;
    for (int threads : {1, 4}) {
      opt.threads = threads;
      const auto index = create_index("raw", ds.files, true, opt);
      EXPECT_EQ(index.part.dense(0), m == 4) << "m " << m;
      const auto raw = raw_chunk_histograms(index);
      const std::uint32_t nbins = index.mer_hist.num_bins();
      std::vector<std::uint64_t> colsum(nbins, 0);
      for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
        std::uint64_t running = 0;
        for (std::uint32_t b = 0; b < nbins; ++b) {
          colsum[b] += raw[c][b];
          running += raw[c][b];
          // Stored rows answer every prefix count with the raw counts' sum.
          ASSERT_EQ(index.part.range_count(c, 0, b + 1), running)
              << "m " << m << " threads " << threads << " chunk " << c << " bin " << b;
        }
      }
      for (std::uint32_t b = 0; b < nbins; ++b)
        EXPECT_EQ(index.mer_hist.counts[b], colsum[b])
            << "m " << m << " threads " << threads << " bin " << b;
    }
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
  auto expect_same = [&](const IndexCreateOptions& opt, std::initializer_list<int> thread_counts) {
    IndexCreateOptions one = opt;
    one.threads = 1;
    const auto sequential = create_index("par", ds.files, true, one);
    for (int threads : thread_counts) {
      IndexCreateOptions par_opt = opt;
      par_opt.threads = threads;
      const auto parallel = create_index("par", ds.files, true, par_opt);
      EXPECT_EQ(parallel.mer_hist.counts, sequential.mer_hist.counts) << threads;
      EXPECT_EQ(parallel.part.row_begin, sequential.part.row_begin) << threads;
      EXPECT_EQ(parallel.part.histograms, sequential.part.histograms) << threads;
      EXPECT_EQ(parallel.total_bases, sequential.total_bases) << threads;
      EXPECT_EQ(parallel.total_reads, sequential.total_reads) << threads;
    }
    return sequential;
  };
  // m = 5: every row touches most of the 1024 bins and is stored dense.
  const auto dense = expect_same(seq_opt, {2, 4, 7});
  for (std::uint32_t c = 0; c < dense.part.num_chunks(); ++c) EXPECT_TRUE(dense.part.dense(c));
  // m = 10: each chunk touches a few thousand of 4^10 bins; every row is sparse.
  IndexCreateOptions sparse_opt = seq_opt;
  sparse_opt.m = 10;
  const auto sparse = expect_same(sparse_opt, {1, 4});
  for (std::uint32_t c = 0; c < sparse.part.num_chunks(); ++c) EXPECT_FALSE(sparse.part.dense(c));
  EXPECT_LT(sparse.part.histograms.size(),
            std::size_t{sparse.part.num_chunks()} * sparse.part.num_bins() / 2);
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
  EXPECT_EQ(loaded.part.row_begin, index.part.row_begin);
  EXPECT_EQ(loaded.part.histograms, index.part.histograms);
  ASSERT_EQ(loaded.part.chunks.size(), index.part.chunks.size());
  for (std::size_t i = 0; i < loaded.part.chunks.size(); ++i) {
    EXPECT_EQ(loaded.part.chunks[i].offset, index.part.chunks[i].offset);
    EXPECT_EQ(loaded.part.chunks[i].size, index.part.chunks[i].size);
    EXPECT_EQ(loaded.part.chunks[i].first_read_id, index.part.chunks[i].first_read_id);
  }
}

/// The non-empty bins of raw row @p row, in increasing order.
std::vector<std::uint32_t> nonzero_bins(const std::vector<std::uint32_t>& row) {
  std::vector<std::uint32_t> bins;
  for (std::uint32_t b = 0; b < row.size(); ++b)
    if (row[b] != 0) bins.push_back(b);
  return bins;
}

/// A FastqPartTable of the raw rows @p raw ([chunk][bin]), each stored by
/// append_chunk_row in whichever form it picks.
FastqPartTable stored_table(int m, const std::vector<std::vector<std::uint32_t>>& raw) {
  FastqPartTable part;
  part.m = m;
  part.chunks.resize(raw.size());
  std::vector<std::uint32_t> mer_acc(std::size_t{1} << (2 * m), 0);
  for (std::uint32_t c = 0; c < raw.size(); ++c) {
    std::vector<std::uint32_t> row = raw[c];
    append_chunk_row(c, row, nonzero_bins(row), mer_acc, part.histograms);
    part.row_begin.push_back(part.histograms.size());
  }
  return part;
}

/// The same raw rows, each stored in the form @p dense[c] names regardless
/// of size: the cumulative row, or its non-empty bins then their cumulative
/// counts.
FastqPartTable table_in_forms(int m, const std::vector<std::vector<std::uint32_t>>& raw,
                              const std::vector<bool>& dense) {
  FastqPartTable part;
  part.m = m;
  part.chunks.resize(raw.size());
  for (std::size_t c = 0; c < raw.size(); ++c) {
    std::vector<std::uint32_t> cum(raw[c].size());
    std::partial_sum(raw[c].begin(), raw[c].end(), cum.begin());
    if (dense[c]) {
      part.histograms.insert(part.histograms.end(), cum.begin(), cum.end());
    } else {
      const auto bins = nonzero_bins(raw[c]);
      part.histograms.insert(part.histograms.end(), bins.begin(), bins.end());
      for (std::uint32_t b : bins) part.histograms.push_back(cum[b]);
    }
    part.row_begin.push_back(part.histograms.size());
  }
  return part;
}

TEST(Index, RangeCountSumsBins) {
  std::vector<std::uint32_t> raw(16, 1);  // m = 2: 16 bins
  raw[3] = 5;
  const FastqPartTable part = stored_table(2, {raw});
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
  const FastqPartTable part = stored_table(kM, raw);
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

TEST(Index, AppendChunkRowPicksTheSmallerFormAndAccumulates) {
  // Three of four bins touched: dense, the cumulative row.
  std::vector<std::uint32_t> row = {3, 0, 2, 5};
  std::vector<std::uint32_t> touched = {0, 2, 3};
  std::vector<std::uint32_t> acc = {1, 1, 1, 1};
  std::vector<std::uint32_t> pool = {9};  // rows append after what is there
  EXPECT_EQ(append_chunk_row(0, row, touched, acc, pool), 4u);
  EXPECT_EQ(pool, (std::vector<std::uint32_t>{9, 3, 3, 5, 10}));
  EXPECT_EQ(acc, (std::vector<std::uint32_t>{4, 1, 3, 6}));
  EXPECT_EQ(row, (std::vector<std::uint32_t>(4, 0)));
  // Two of sixteen: sparse, the bins in order then their cumulative counts.
  row.assign(16, 0);
  row[11] = 4;
  row[2] = 1;
  touched = {2, 11};
  acc.assign(16, 0);
  pool.clear();
  EXPECT_EQ(append_chunk_row(0, row, touched, acc, pool), 4u);
  EXPECT_EQ(pool, (std::vector<std::uint32_t>{2, 11, 1, 5}));
  EXPECT_EQ(acc[2], 1u);
  EXPECT_EQ(acc[11], 4u);
  EXPECT_EQ(row, (std::vector<std::uint32_t>(16, 0)));
  // With no bins given, a sweep of the scratch row finds them.
  row[11] = 4;
  row[2] = 1;
  pool.clear();
  EXPECT_EQ(append_chunk_row(0, row, {}, acc, pool), 4u);
  EXPECT_EQ(pool, (std::vector<std::uint32_t>{2, 11, 1, 5}));
  EXPECT_EQ(row, (std::vector<std::uint32_t>(16, 0)));
  // Half the bins or more: dense; an empty row is an empty sparse row.
  row.assign(4, 0);
  row[1] = 7;
  row[2] = 1;
  touched = {1, 2};
  acc.assign(4, 0);
  EXPECT_EQ(append_chunk_row(0, row, touched, acc, pool), 4u);
  touched.clear();
  EXPECT_EQ(append_chunk_row(0, row, touched, acc, pool), 0u);
}

TEST(Index, AppendChunkRowRejectsA32BitTotalOverflow) {
  // Each bin fits, but the chunk's total of 2^32 does not fit a row entry.
  std::vector<std::uint32_t> row = {0x80000000u, 0x80000000u};
  std::vector<std::uint32_t> touched = {0, 1};
  std::vector<std::uint32_t> acc(2, 0);
  std::vector<std::uint32_t> pool;
  try {
    append_chunk_row(17, row, touched, acc, pool);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kConfig);
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk 17"), std::string::npos) << what;
    EXPECT_NE(what.find("--chunks"), std::string::npos) << what;
  }
  // The largest total that fits is accepted.
  row = {0x80000000u, 0x7FFFFFFFu};
  touched = {0, 1};
  acc.assign(2, 0);
  pool.clear();
  append_chunk_row(0, row, touched, acc, pool);
  EXPECT_EQ(pool.back(), 0xFFFFFFFFu);
}

TEST(Index, AppendChunkRowRejectsAMerHistBinOverflow) {
  // Once as a dense row and once as a sparse one.
  for (const std::size_t nbins : {std::size_t{2}, std::size_t{16}}) {
    std::vector<std::uint32_t> row(nbins, 0);
    row[1] = 2;
    std::vector<std::uint32_t> touched = {1};
    std::vector<std::uint32_t> acc(nbins, 0);
    acc[1] = 0xFFFFFFFFu;
    std::vector<std::uint32_t> pool;
    try {
      append_chunk_row(0, row, touched, acc, pool);
      FAIL() << "expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kConfig);
    }
  }
}

TEST(Index, DenseAndSparseRowsCountAlike) {
  // m = 3 (64 bins): the forms cross over at 32 non-empty bins.  Every raw
  // row is stored both ways, and as append_chunk_row picks, and each must
  // give brute-force sums over every [lo, hi) and over random bound vectors.
  constexpr int kM = 3;
  constexpr std::uint32_t kBins = 64;
  std::mt19937 rng(20260521);
  std::vector<std::vector<std::uint32_t>> raw;
  for (const std::uint32_t nnz : {0u, 1u, 2u, 17u, 31u, 32u, 33u, 50u, 64u}) {
    std::vector<std::uint32_t> bins(kBins);
    std::iota(bins.begin(), bins.end(), 0u);
    std::shuffle(bins.begin(), bins.end(), rng);
    std::vector<std::uint32_t> row(kBins, 0);
    for (std::uint32_t i = 0; i < nnz; ++i) row[bins[i]] = 1 + rng() % 50000;
    raw.push_back(row);
  }
  // A sparse row is shorter than 4^m, so rows of 32 bins or more have only
  // the dense form.
  std::vector<bool> too_full(raw.size());
  for (std::size_t c = 0; c < raw.size(); ++c)
    too_full[c] = 2 * nonzero_bins(raw[c]).size() >= kBins;
  // Rows with no k-mers are empty: a table of only those has an empty pool.
  const FastqPartTable empty = stored_table(kM, {raw[0], raw[0]});
  EXPECT_TRUE(empty.histograms.empty());
  EXPECT_EQ(empty.range_count(1, 0, kBins), 0u);
  const FastqPartTable picked = stored_table(kM, raw);
  const FastqPartTable dense = table_in_forms(kM, raw, std::vector<bool>(raw.size(), true));
  const FastqPartTable sparse = table_in_forms(kM, raw, too_full);
  EXPECT_EQ(picked.histograms, sparse.histograms);  // the smaller form wins
  EXPECT_EQ(picked.row_begin, sparse.row_begin);
  for (std::uint32_t c = 0; c < raw.size(); ++c) EXPECT_EQ(picked.dense(c), too_full[c]) << c;
  auto brute = [&](std::uint32_t c, std::uint32_t lo, std::uint32_t hi) {
    std::uint64_t t = 0;
    for (std::uint32_t b = lo; b < hi; ++b) t += raw[c][b];
    return t;
  };
  for (const FastqPartTable* part : {&picked, &dense, &sparse}) {
    for (std::uint32_t c = 0; c < raw.size(); ++c) {
      for (std::uint32_t lo = 0; lo <= kBins; ++lo)
        for (std::uint32_t hi = 0; hi <= kBins; ++hi)
          ASSERT_EQ(part->range_count(c, lo, hi), hi <= lo ? 0 : brute(c, lo, hi))
              << c << " " << lo << " " << hi;
    }
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<std::uint32_t> bounds(1 + rng() % 12);
      for (auto& b : bounds) b = rng() % (kBins + 1);
      std::sort(bounds.begin(), bounds.end());
      const auto c = static_cast<std::uint32_t>(rng() % raw.size());
      std::vector<std::uint64_t> counts(bounds.size() - 1, 3);
      part->add_range_counts(c, bounds, counts);
      for (std::size_t i = 0; i + 1 < bounds.size(); ++i)
        ASSERT_EQ(counts[i], 3 + brute(c, bounds[i], bounds[i + 1])) << trial << " " << i;
    }
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
  // Dense cumulative rows of the raw counts {1,0,1,1}, {0,1,1,1},
  // {0,1,1,2}, whose column sums are merHist.
  idx.part.histograms = {1, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 4};
  idx.part.row_begin = {0, 4, 8, 12};
  return idx;
}

/// tiny_index() at m=2 (16 bins) with both row forms: chunks 0 and 1 are
/// sparse (raw {1: 1, 5: 2} and {5: 1, 9: 1}), chunk 2 dense (raw 1 in every
/// bin but 15).
DatasetIndex mixed_index() {
  DatasetIndex idx = tiny_index();
  idx.mer_hist.m = idx.part.m = 2;
  idx.mer_hist.counts.assign(16, 1);
  idx.mer_hist.counts[1] = 2;
  idx.mer_hist.counts[5] = 4;
  idx.mer_hist.counts[9] = 2;
  idx.mer_hist.counts[15] = 0;
  idx.part.histograms = {1, 5, 1, 3, 5, 9, 1, 2};
  for (std::uint32_t b = 0; b < 16; ++b) idx.part.histograms.push_back(std::min(b + 1, 15u));
  idx.part.row_begin = {0, 4, 8, 24};
  return idx;
}

// Byte offsets of the length fields in tiny_index()'s file.
constexpr std::size_t kNameLenAt = 8;                       // after magic + version
constexpr std::size_t kNfilesAt = kNameLenAt + 8 + 4;       // name "tiny"
constexpr std::size_t kFile0LenAt = kNfilesAt + 8;
constexpr std::size_t kMerCountsLenAt = kFile0LenAt + 2 * (8 + 6) + 4 + 4 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kPartMAt = kMerCountsLenAt + 8 + 4 * 4;
constexpr std::size_t kNchunksAt = kPartMAt + 4;
constexpr std::size_t kRowBeginLenAt = kNchunksAt + 8 + 3 * 28;
constexpr std::size_t kHistLenAt = kRowBeginLenAt + 8 + 4 * 8;
constexpr std::size_t kChecksumAt = kHistLenAt + 8 + 12 * 4;

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Rewrite the checksum trailer of patched index bytes, so the patch reaches
/// the checks behind it.
void reseal(std::vector<char>& bytes) {
  const std::uint64_t sum = io::fnv1a(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &sum, sizeof(sum));
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
  EXPECT_EQ(file_bytes(path).size(), kChecksumAt + 8);
}

TEST(IndexLoad, EveryFlippedByteAndAnAppendedByteAreParseErrors) {
  TempDir dir;
  const std::string path = dir.file("tiny.idx");
  save_index(tiny_index(), path);
  const auto bytes = file_bytes(path);
  const std::string bad = dir.file("bad.idx");
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      auto flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      write_bytes(bad, flipped);
      expect_parse_error(bad, "byte " + std::to_string(at) + " ^ " + std::to_string(mask));
    }
  }
  for (const std::string tail : {"J", "JUNKJUNK"}) {
    auto longer = bytes;
    longer.insert(longer.end(), tail.begin(), tail.end());
    write_bytes(bad, longer);
    expect_parse_error(bad, "appended " + tail);
  }
  // The name is covered too: "tiny" -> "tinz" loads only with a new checksum.
  auto renamed = bytes;
  renamed[kNameLenAt + 8 + 3] = 'z';
  write_bytes(bad, renamed);
  expect_parse_error(bad, "renamed");
  reseal(renamed);
  write_bytes(bad, renamed);
  EXPECT_EQ(load_index(bad).name, "tinz");
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
  for (const std::size_t at : {kNameLenAt, kNfilesAt, kFile0LenAt, kMerCountsLenAt, kNchunksAt,
                              kRowBeginLenAt, kHistLenAt}) {
    for (const std::uint64_t len : {std::uint64_t{1} << 60, ~std::uint64_t{0},
                                    std::uint64_t{bytes.size()}}) {
      auto patched = bytes;
      std::memcpy(patched.data() + at, &len, sizeof(len));
      reseal(patched);
      write_bytes(bad, patched);
      expect_parse_error(bad, "length " + std::to_string(len) + " at " + std::to_string(at));
    }
  }
  // m = 40 would shift past 64 bits when sizing the histogram check.
  auto patched = bytes;
  const std::uint32_t huge_m = 40;
  std::memcpy(patched.data() + kPartMAt, &huge_m, sizeof(huge_m));
  reseal(patched);
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
  check("row offsets short", [](DatasetIndex& i) { i.part.row_begin.pop_back(); });
  check("merHist size", [](DatasetIndex& i) { i.mer_hist.counts.push_back(0); });
  check("merHist m disagrees", [](DatasetIndex& i) { i.mer_hist.m = 2; });
  check("odd paired file count", [](DatasetIndex& i) { i.files.push_back("x.fq"); });
}

/// Save @p idx to @p path and expect load_index to fail with a parse error
/// that names @p rule.
void expect_rule(const std::string& path, const DatasetIndex& idx, const std::string& what,
                 const std::string& rule) {
  save_index(idx, path);
  try {
    (void)load_index(path);
    FAIL() << what << ": expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse) << what;
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos) << what << ": " << e.what();
  }
}

TEST(IndexLoad, HostileCumulativeRowsAreParseErrors) {
  TempDir dir;
  const std::string path = dir.file("bad.idx");
  // Each fixture breaks exactly one rule, so the error names that rule.
  auto check = [&](const std::string& what, const std::string& rule, auto&& mutate) {
    DatasetIndex idx = tiny_index();
    mutate(idx);
    expect_rule(path, idx, what, rule);
  };
  // Rows must be non-decreasing: a decreasing row would wrap a bounded count.
  check("decreasing row", "row 1 decreases", [](DatasetIndex& i) {
    i.part.histograms[i.part.row_begin[1] + 1] = 3;  // chunk 1: {0, 3, 2, 3}
    i.mer_hist.counts = {1, 4, 1, 4};
  });
  // A chunk cannot hold more k-mers than bytes.  Chunk 2's row ends at
  // 0xFFFFFFFF, a total that would otherwise size kmer_out to 48 GiB.
  check("row total far above chunk size", "more k-mers than its chunk has bytes",
        [](DatasetIndex& i) {
          i.part.histograms[i.part.row_begin[2] + 3] = 0xFFFFFFFFu;
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
      i.part.histograms[i.part.row_begin[0] + b] += 0x80000000u;
      i.part.histograms[i.part.row_begin[1] + b] += 0x80000000u;
    }
  });
}

TEST(IndexLoad, HostileRowLayoutsAreParseErrors) {
  TempDir dir;
  const std::string path = dir.file("bad.idx");
  // Each fixture breaks exactly one rule of the v5 row layout on the mixed
  // dense/sparse fixture, so the error names that rule.
  auto check = [&](const std::string& what, const std::string& rule, auto&& mutate) {
    DatasetIndex idx = mixed_index();
    mutate(idx);
    expect_rule(path, idx, what, rule);
  };
  {
    TempDir ok_dir;  // the fixture itself loads
    save_index(mixed_index(), ok_dir.file("ok.idx"));
    EXPECT_EQ(load_index(ok_dir.file("ok.idx")).part.range_count(2, 0, 16), 15u);
  }
  check("one offset too few", "row offsets do not match the chunk count",
        [](DatasetIndex& i) { i.part.row_begin.pop_back(); });
  check("offsets start past 0", "row offsets do not start at 0",
        [](DatasetIndex& i) { i.part.row_begin[0] = 2; });
  check("offsets decrease", "row offsets decrease",
        [](DatasetIndex& i) { i.part.row_begin[1] = 10; });
  check("offsets end short of the pool", "row offsets do not end at the pool size",
        [](DatasetIndex& i) { i.part.histograms.push_back(15); });
  check("odd row length", "row 0 has length 3, neither 4^m nor an even length below it",
        [](DatasetIndex& i) { i.part.row_begin[1] = 3; });
  check("even row length past 4^m", "row 1 has length 18, neither 4^m nor an even length",
        [](DatasetIndex& i) { i.part.row_begin = {0, 4, 22, 24}; });
  check("sparse bin past 4^m", "row 0 has a bin past 4^m",
        [](DatasetIndex& i) { i.part.histograms[1] = 16; });
  check("sparse bins repeat", "row 1 has sparse bins out of order",
        [](DatasetIndex& i) { i.part.histograms[i.part.row_begin[1] + 1] = 5; });
  check("sparse bins decrease", "row 1 has sparse bins out of order",
        [](DatasetIndex& i) { i.part.histograms[i.part.row_begin[1] + 1] = 2; });
  check("sparse count repeats", "row 0 has sparse counts that do not increase",
        [](DatasetIndex& i) { i.part.histograms[3] = 1; });
  check("sparse empty bin listed", "row 1 has sparse counts that do not increase",
        [](DatasetIndex& i) { i.part.histograms[i.part.row_begin[1] + 2] = 0; });
  check("sparse total above chunk size", "row 0 counts more k-mers than its chunk has bytes",
        [](DatasetIndex& i) { i.part.chunks[0].size = 2; });
  check("sparse column sum", "merHist is not the column sum",
        [](DatasetIndex& i) { i.mer_hist.counts[5] = 3; });
  check("sparse mass in the wrong bin", "merHist is not the column sum", [](DatasetIndex& i) {
    i.mer_hist.counts[9] = 1;
    i.mer_hist.counts[10] = 2;
  });
}

TEST(IndexLoad, KThatDisagreesWithMerHistIsAParseError) {
  TempDir dir;
  const std::string path = dir.file("bad.idx");
  // KmerGen would write k-mers of index.k into blocks sized for mer_hist.k.
  DatasetIndex idx = tiny_index();
  idx.k = 7;
  expect_rule(path, idx, "k above merHist's", "k disagrees with the k merHist was counted for");
  idx.k = 3;
  expect_rule(path, idx, "k below merHist's", "k disagrees with the k merHist was counted for");
  // Both k fields agree but lie outside [m, 63].
  idx = mixed_index();  // m = 2
  idx.k = idx.mer_hist.k = 1;
  expect_rule(path, idx, "k below m", "k out of range [m, 63]");
  idx.k = idx.mer_hist.k = 64;
  expect_rule(path, idx, "k above 63", "k out of range [m, 63]");
}

TEST(IndexLoad, MixedDenseAndSparseRowsRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("mixed.idx");
  const DatasetIndex idx = mixed_index();
  save_index(idx, path);
  const auto loaded = load_index(path);
  EXPECT_EQ(loaded.part.row_begin, idx.part.row_begin);
  EXPECT_EQ(loaded.part.histograms, idx.part.histograms);
  EXPECT_FALSE(loaded.part.dense(0));
  EXPECT_FALSE(loaded.part.dense(1));
  EXPECT_TRUE(loaded.part.dense(2));
  const std::vector<std::vector<std::uint32_t>> raw = {
      {0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
      {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0}};
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (std::uint32_t lo = 0; lo <= 16; ++lo) {
      for (std::uint32_t hi = lo; hi <= 16; ++hi) {
        std::uint64_t want = 0;
        for (std::uint32_t b = lo; b < hi; ++b) want += raw[c][b];
        EXPECT_EQ(loaded.part.range_count(c, lo, hi), want) << c << " " << lo << " " << hi;
      }
    }
  }
  EXPECT_EQ(loaded.part.stored_bytes(), 24u * 4 + 4u * 8);
}

TEST(IndexLoad, RowTotalEqualToChunkSizeLoads) {
  TempDir dir;
  const std::string path = dir.file("edge.idx");
  DatasetIndex idx = tiny_index();
  idx.part.chunks[1].size = 3;  // chunk 1 counts exactly 3 k-mers
  save_index(idx, path);
  EXPECT_EQ(load_index(path).part.range_count(1, 0, 4), 3u);
}

TEST(IndexLoad, FormatV5RoundTripsAndV4IsRejected) {
  TempDir dir;
  const std::string path = dir.file("tiny.idx");
  const DatasetIndex idx = tiny_index();
  save_index(idx, path);
  auto bytes = file_bytes(path);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 5u);
  const auto loaded = load_index(path);
  EXPECT_EQ(loaded.part.row_begin, idx.part.row_begin);
  EXPECT_EQ(loaded.part.histograms, idx.part.histograms);
  EXPECT_EQ(loaded.mer_hist.counts, idx.mer_hist.counts);
  for (std::uint32_t c = 0; c < 3; ++c)
    for (std::uint32_t b = 0; b < 4; ++b)
      EXPECT_EQ(loaded.part.range_count(c, b, 4), idx.part.range_count(c, b, 4));

  // A v4 file stored dense rows only, no offsets and no checksum; it is
  // refused, not reinterpreted.
  version = 4;
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  const std::string v4 = dir.file("v4.idx");
  write_bytes(v4, bytes);
  try {
    (void)load_index(v4);
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
