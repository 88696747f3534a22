// Tests for the comparison baselines (KMC2-like counter, AP_LB partitioner).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "baseline/ap_lb.hpp"
#include "baseline/howe_dbg.hpp"
#include "baseline/kmc_like.hpp"
#include "sim/genome.hpp"
#include "core/index_create.hpp"
#include "core/pipeline.hpp"
#include "kmer/minimizer.hpp"
#include "kmer/scanner.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace metaprep::baseline {
namespace {

using test::TempDir;

std::vector<std::string> sample_reads(std::uint64_t seed, int count, int len) {
  sim::DatasetConfig cfg;
  cfg.genomes.num_species = 2;
  cfg.genomes.min_genome_len = 3000;
  cfg.genomes.max_genome_len = 4000;
  cfg.genomes.seed = seed;
  cfg.num_pairs = static_cast<std::uint64_t>(count);
  cfg.reads.read_len = static_cast<std::uint32_t>(len);
  cfg.reads.seed = seed + 1;
  const auto mem = sim::simulate_in_memory(cfg);
  std::vector<std::string> reads = mem.r1;
  reads.insert(reads.end(), mem.r2.begin(), mem.r2.end());
  return reads;
}

TEST(KmcLike, TotalsMatchDirectScanner) {
  const auto reads = sample_reads(9, 100, 90);
  KmcLikeOptions opt;
  opt.k = 21;
  opt.minimizer_len = 7;
  const auto result = kmc_like_count_reads(reads, opt);

  std::vector<std::uint64_t> all;
  for (const auto& r : reads) kmer::scan_canonical_kmers64(r, 21, all);
  std::sort(all.begin(), all.end());
  const auto distinct =
      static_cast<std::uint64_t>(std::unique(all.begin(), all.end()) - all.begin());

  EXPECT_EQ(result.total_kmers, all.size());
  EXPECT_EQ(result.distinct_kmers, distinct);
  EXPECT_GT(result.super_kmers, 0u);
}

TEST(KmcLike, DelegatesToSharedSuperKmerScanner) {
  // The baseline's binning and the pipeline's --comm-compress emit path
  // share one decomposition core (kmer/superkmer).  The baseline's run
  // census must therefore be reproducible, run for run, from the public
  // kmer::super_kmers adapter on the same corpus — if the two ever drift,
  // the KMC-2 comparison no longer measures the shipped code.
  const auto reads = sample_reads(21, 120, 95);
  KmcLikeOptions opt;
  opt.k = 25;
  opt.minimizer_len = 9;
  const auto result = kmc_like_count_reads(reads, opt);

  std::uint64_t runs = 0;
  std::uint64_t bases = 0;
  std::uint64_t kmers = 0;
  for (const auto& r : reads) {
    for (const auto& sk : kmer::super_kmers(r, opt.k, opt.minimizer_len)) {
      ++runs;
      bases += sk.kmer_count + static_cast<std::uint64_t>(opt.k) - 1;
      kmers += sk.kmer_count;
    }
  }
  EXPECT_EQ(result.super_kmers, runs);
  EXPECT_EQ(result.super_kmer_bases, bases);
  EXPECT_EQ(result.total_kmers, kmers);
}

TEST(KmcLike, SuperKmersCompress) {
  const auto reads = sample_reads(11, 80, 100);
  KmcLikeOptions opt;
  opt.k = 27;
  opt.minimizer_len = 9;
  const auto result = kmc_like_count_reads(reads, opt);
  // Stored super-k-mer bases must be far less than one copy of every k-mer.
  EXPECT_LT(result.super_kmer_bases,
            result.total_kmers * static_cast<std::uint64_t>(opt.k) / 2);
}

TEST(KmcLike, FileAndMemoryVariantsAgree) {
  TempDir dir;
  const auto reads = sample_reads(13, 50, 80);
  test::write_fastq(dir.file("r.fastq"), reads);
  KmcLikeOptions opt;
  opt.k = 15;
  opt.minimizer_len = 5;
  const auto from_file = kmc_like_count({dir.file("r.fastq")}, opt);
  const auto from_mem = kmc_like_count_reads(reads, opt);
  EXPECT_EQ(from_file.total_kmers, from_mem.total_kmers);
  EXPECT_EQ(from_file.distinct_kmers, from_mem.distinct_kmers);
  EXPECT_EQ(from_file.super_kmers, from_mem.super_kmers);
}

TEST(KmcLike, InvalidMinimizerLengthThrows) {
  KmcLikeOptions opt;
  opt.k = 5;
  opt.minimizer_len = 7;
  EXPECT_THROW(kmc_like_count_reads({}, opt), std::invalid_argument);
}

TEST(ApLb, PartitionMatchesMetaprep) {
  TempDir dir;
  sim::DatasetConfig cfg;
  cfg.name = "aplb";
  cfg.genomes.num_species = 4;
  cfg.genomes.min_genome_len = 3000;
  cfg.genomes.max_genome_len = 5000;
  cfg.num_pairs = 200;
  const auto ds = sim::simulate_dataset(cfg, dir.file("aplb"));
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 5;
  opt.target_chunks = 6;
  const auto index = core::create_index("aplb", ds.files, true, opt);

  const auto ap = ap_lb_partition(index);
  EXPECT_GE(ap.sv_iterations, 1);
  EXPECT_GT(ap.num_edges, 0u);

  core::MetaprepConfig mp;
  mp.k = 15;
  mp.write_output = false;
  const auto metaprep = core::run_metaprep(index, mp);
  EXPECT_EQ(test::normalize_partition(ap.labels), test::normalize_partition(metaprep.labels));
}

TEST(ApLb, IterationCountGrowsWithGraphDiameter) {
  // A long chain of reads (each overlapping only the next) needs more SV
  // iterations than a highly-overlapping pile (Table 4's structural point).
  TempDir dir;
  const auto genome = sim::random_genome(4000, 123);
  std::vector<std::string> chain_reads;
  for (std::size_t pos = 0; pos + 40 <= genome.size(); pos += 25) {
    chain_reads.push_back(genome.substr(pos, 40));  // 15bp overlap with next
  }
  test::write_fastq(dir.file("chain.fastq"), chain_reads);
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  const auto chain_index = core::create_index("chain", {dir.file("chain.fastq")}, false, opt);
  const auto chain = ap_lb_partition(chain_index);

  // Low-diameter contrast: disjoint *pairs* of overlapping reads, drawn
  // from genome regions far enough apart that pairs share no k-mer with
  // each other (component diameter 1).
  std::vector<std::string> pair_reads;
  for (std::size_t pos = 0; pos + 55 <= genome.size(); pos += 200) {
    pair_reads.push_back(genome.substr(pos, 40));
    pair_reads.push_back(genome.substr(pos + 15, 40));  // 25bp overlap
  }
  test::write_fastq(dir.file("pairs.fastq"), pair_reads);
  const auto pairs_index = core::create_index("pairs", {dir.file("pairs.fastq")}, false, opt);
  const auto pairs = ap_lb_partition(pairs_index);

  EXPECT_GT(chain.sv_iterations, pairs.sv_iterations);
}

TEST(HoweDbg, ReadKmersStayInOneWcc) {
  const auto reads = sample_reads(21, 60, 80);
  const auto result = howe_dbg_wcc(reads, 15);
  EXPECT_GT(result.num_kmers, 0u);
  EXPECT_GT(result.num_wcc, 0u);
  // Every k-mer of a read maps to that read's WCC label.
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const std::uint32_t label = result.read_wcc[i];
    kmer::for_each_canonical_kmer64(reads[i], 15, [&](std::uint64_t km, std::size_t) {
      EXPECT_EQ(result.kmer_wcc.at(km), label) << "read " << i;
    });
  }
}

TEST(HoweDbg, EquivalenceTheoremWithReadGraphCC) {
  // The paper's §2 claim (after Flick et al.): the WCC decomposition of the
  // de Bruijn graph induces exactly the CC decomposition of the read graph.
  TempDir dir;
  sim::DatasetConfig cfg;
  cfg.name = "thm";
  cfg.genomes.num_species = 5;
  cfg.genomes.min_genome_len = 3000;
  cfg.genomes.max_genome_len = 5000;
  cfg.num_pairs = 250;
  const auto ds = sim::simulate_dataset(cfg, dir.file("thm"));
  core::IndexCreateOptions opt;
  opt.k = 17;
  opt.m = 5;
  opt.target_chunks = 7;
  const auto index = core::create_index("thm", ds.files, true, opt);

  core::MetaprepConfig mp;
  mp.k = 17;
  mp.num_ranks = 2;
  mp.threads_per_rank = 2;
  mp.write_output = false;
  const auto read_cc = core::run_metaprep(index, mp);

  const auto dbg = howe_dbg_wcc(index);
  ASSERT_EQ(dbg.read_wcc.size(), read_cc.labels.size());
  // Reads with no valid k-mers are singletons in both views; give each a
  // unique pseudo-label for the comparison.
  std::vector<std::uint32_t> wcc_labels = dbg.read_wcc;
  std::uint32_t next = static_cast<std::uint32_t>(dbg.num_wcc);
  for (auto& l : wcc_labels) {
    if (l == 0xFFFFFFFFu) l = next++;
  }
  EXPECT_EQ(test::normalize_partition(read_cc.labels), test::normalize_partition(wcc_labels));
}

TEST(HoweDbg, DisjointGenomesYieldDisjointWccs) {
  const auto g1 = sim::random_genome(2000, 71);
  const auto g2 = sim::random_genome(2000, 72);
  std::vector<std::string> reads;
  for (std::size_t pos = 0; pos + 80 <= g1.size(); pos += 40) reads.push_back(g1.substr(pos, 80));
  const std::size_t first_g2 = reads.size();
  for (std::size_t pos = 0; pos + 80 <= g2.size(); pos += 40) reads.push_back(g2.substr(pos, 80));
  const auto result = howe_dbg_wcc(reads, 21);
  EXPECT_EQ(result.num_wcc, 2u);
  for (std::size_t i = 1; i < reads.size(); ++i) {
    if (i < first_g2) {
      EXPECT_EQ(result.read_wcc[i], result.read_wcc[0]);
    } else {
      EXPECT_NE(result.read_wcc[i], result.read_wcc[0]);
    }
  }
}

TEST(HoweDbg, KmerTableBytesTracksDistinctKmers) {
  const auto reads = sample_reads(23, 40, 60);
  const auto result = howe_dbg_wcc(reads, 15);
  EXPECT_EQ(result.kmer_table_bytes, result.num_kmers * 12);
}

TEST(HoweDbg, WideKRejected) {
  EXPECT_THROW(howe_dbg_wcc(std::vector<std::string>{}, 45), std::invalid_argument);
}

TEST(ApLb, WideKRejected) {
  core::DatasetIndex index;
  index.k = 45;
  EXPECT_THROW(ap_lb_partition(index), std::invalid_argument);
}

TEST(ApLb, TimingFieldsPopulated) {
  TempDir dir;
  sim::DatasetConfig cfg;
  cfg.genomes.num_species = 2;
  cfg.genomes.min_genome_len = 2000;
  cfg.genomes.max_genome_len = 3000;
  cfg.num_pairs = 80;
  const auto ds = sim::simulate_dataset(cfg, dir.file("t"));
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  const auto index = core::create_index("t", ds.files, true, opt);
  const auto ap = ap_lb_partition(index);
  EXPECT_GE(ap.enumerate_seconds, 0.0);
  EXPECT_GE(ap.total_seconds(),
            ap.enumerate_seconds + ap.sort_seconds + ap.edges_seconds + ap.cc_seconds - 1e-9);
}

TEST(Baselines, ParseErrorsNameTheFileAndItsOffset) {
  // Both baselines parse the index's chunks.  A record corrupted after
  // indexing must fail with the FASTQ's path and the record's offset in
  // that file, not an offset counted from the start of its chunk.
  TempDir dir;
  const auto reads = sample_reads(5, 60, 80);
  const std::vector<std::string> files = {
      test::write_fastq(dir.file("b_1.fastq"), {reads.begin(), reads.begin() + 60}),
      test::write_fastq(dir.file("b_2.fastq"), {reads.begin() + 60, reads.end()})};
  core::IndexCreateOptions opt;
  opt.k = 21;
  opt.m = 4;
  opt.target_chunks = 6;
  const auto index = core::create_index("bad", files, true, opt);
  const std::uint64_t offset = test::corrupt_record_separator(files[1], 40);
  ASSERT_GT(offset, index.max_chunk_bytes());  // past the file's first chunk

  const auto expect_named_parse_error = [&](const char* which, auto&& run) {
    SCOPED_TRACE(which);
    try {
      run();
      FAIL() << "expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kParse) << e.what();
      EXPECT_EQ(e.path(), files[1]);
      EXPECT_EQ(e.offset(), offset);
    }
  };
  expect_named_parse_error("ap_lb", [&] { (void)ap_lb_partition(index); });
  expect_named_parse_error("howe_dbg", [&] { (void)howe_dbg_wcc(index); });
}

}  // namespace
}  // namespace metaprep::baseline
