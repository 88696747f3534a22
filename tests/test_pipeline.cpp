// End-to-end pipeline tests: the METAPREP partition must equal a brute-force
// read-graph connected-components reference for every (P, T, S) and k
// configuration, and the partitioned FASTQ output must be a lossless split
// of the input.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/index_create.hpp"
#include "core/manifest.hpp"
#include "core/memory_model.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace metaprep::core {
namespace {

using test::TempDir;

struct Fixture {
  TempDir dir;
  DatasetIndex index;
  sim::SimulatedDataset dataset;

  explicit Fixture(int k, std::uint64_t pairs = 250, int m = 5, std::uint32_t chunks = 9,
                   int species = 4) {
    sim::DatasetConfig cfg;
    cfg.name = "pipe";
    cfg.genomes.num_species = species;
    cfg.genomes.min_genome_len = 3000;
    cfg.genomes.max_genome_len = 6000;
    cfg.genomes.shared_fraction = 0.02;
    cfg.num_pairs = pairs;
    cfg.reads.seed = 50 + static_cast<std::uint64_t>(k);
    dataset = sim::simulate_dataset(cfg, dir.file("pipe"));
    IndexCreateOptions opt;
    opt.k = k;
    opt.m = m;
    opt.target_chunks = chunks;
    index = create_index("pipe", dataset.files, true, opt);
  }
};

MetaprepConfig base_config(int k, const std::string& out_dir) {
  MetaprepConfig cfg;
  cfg.k = k;
  cfg.write_output = false;
  cfg.output_dir = out_dir;
  return cfg;
}

struct PTS {
  int P, T, S;
};

class PipelineGridTest : public ::testing::TestWithParam<PTS> {};

TEST_P(PipelineGridTest, PartitionMatchesBruteForceReference) {
  const auto [P, T, S] = GetParam();
  static Fixture fixture(15);  // shared across the grid: dataset is immutable
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = P;
  cfg.threads_per_rank = T;
  cfg.num_passes = S;

  const auto result = run_metaprep(fixture.index, cfg);
  const auto expected = reference_components(fixture.index, cfg.filter);

  EXPECT_EQ(result.num_reads, fixture.index.total_reads);
  EXPECT_EQ(test::normalize_partition(result.labels), test::normalize_partition(expected));
  EXPECT_EQ(result.passes_used, S);
  EXPECT_GT(result.total_tuples, 0u);
  EXPECT_GE(result.cc_iterations_max, 1);
  EXPECT_EQ(result.rank_times.size(), static_cast<std::size_t>(P));
}

INSTANTIATE_TEST_SUITE_P(Grid, PipelineGridTest,
                         ::testing::Values(PTS{1, 1, 1}, PTS{1, 4, 1}, PTS{2, 2, 1},
                                           PTS{4, 1, 1}, PTS{4, 3, 2}, PTS{3, 2, 3},
                                           PTS{8, 2, 1}, PTS{2, 4, 4}, PTS{5, 1, 2}));

class PipelineKTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineKTest, AllKWidthsMatchReference) {
  const int k = GetParam();
  Fixture fixture(k, 150);
  auto cfg = base_config(k, fixture.dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  const auto result = run_metaprep(fixture.index, cfg);
  const auto expected = reference_components(fixture.index, cfg.filter);
  EXPECT_EQ(test::normalize_partition(result.labels), test::normalize_partition(expected));
}

// 15/27/31/32 exercise the 64-bit path, 33/45/63 the 128-bit path.
INSTANTIATE_TEST_SUITE_P(KWidths, PipelineKTest, ::testing::Values(15, 27, 31, 32, 33, 45, 63));

TEST(Pipeline, FrequencyFilterMatchesReference) {
  Fixture fixture(15, 300);
  for (const auto& [lo, hi] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 30}, {2, 0xFFFFFFFFu}, {2, 10}, {3, 5}}) {
    auto cfg = base_config(15, fixture.dir.str());
    cfg.num_ranks = 3;
    cfg.threads_per_rank = 2;
    cfg.filter.min_freq = lo;
    cfg.filter.max_freq = hi;
    const auto result = run_metaprep(fixture.index, cfg);
    const auto expected = reference_components(fixture.index, cfg.filter);
    EXPECT_EQ(test::normalize_partition(result.labels), test::normalize_partition(expected))
        << "filter [" << lo << ", " << hi << "]";
  }
}

TEST(Pipeline, FilterShrinksLargestComponent) {
  Fixture fixture(15, 400, 5, 9, 6);
  auto cfg = base_config(15, fixture.dir.str());
  const auto unfiltered = run_metaprep(fixture.index, cfg);
  cfg.filter.min_freq = 2;
  cfg.filter.max_freq = 20;
  const auto filtered = run_metaprep(fixture.index, cfg);
  EXPECT_LE(filtered.largest_size, unfiltered.largest_size);
  EXPECT_GE(filtered.num_components, unfiltered.num_components);
}

TEST(Pipeline, CcOptOnAndOffAgree) {
  Fixture fixture(15, 250);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 3;  // multipass so the optimization actually engages
  cfg.cc_opt = true;
  const auto with_opt = run_metaprep(fixture.index, cfg);
  cfg.cc_opt = false;
  const auto without_opt = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(test::normalize_partition(with_opt.labels),
            test::normalize_partition(without_opt.labels));
}

TEST(Pipeline, AutoPassSelectionFromBudget) {
  Fixture fixture(15, 200);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_passes = 0;
  cfg.memory_budget_bytes = 1ULL << 30;  // plenty: expect 1 pass
  const auto r = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(r.passes_used, 1);
  // A budget barely above the fixed terms should force multiple passes.
  const auto one_pass =
      estimate_memory(memory_model_input(fixture.index, cfg.num_ranks, cfg.threads_per_rank));
  cfg.memory_budget_bytes = one_pass.total - one_pass.kmer_out / 2;
  const auto r2 = run_metaprep(fixture.index, cfg);
  EXPECT_GT(r2.passes_used, 1);
  EXPECT_EQ(test::normalize_partition(r.labels), test::normalize_partition(r2.labels));
}

TEST(Pipeline, ImpossibleBudgetThrows) {
  Fixture fixture(15, 100);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_passes = 0;
  cfg.memory_budget_bytes = 10;
  EXPECT_THROW(run_metaprep(fixture.index, cfg), std::runtime_error);
}

TEST(Pipeline, MismatchedKThrows) {
  Fixture fixture(15, 100);
  auto cfg = base_config(21, fixture.dir.str());
  EXPECT_THROW(run_metaprep(fixture.index, cfg), metaprep::util::Error);
}

TEST(Pipeline, NegativePassCountIsAConfigError) {
  // num_passes < 0 is rejected before any work: on an empty index (R == 0,
  // which would otherwise short-circuit to an empty result) and on a
  // non-empty one (which would otherwise reach PassPlan).
  for (const std::uint64_t pairs : {std::uint64_t{0}, std::uint64_t{50}}) {
    Fixture fixture(15, pairs);
    ASSERT_EQ(fixture.index.total_reads == 0, pairs == 0);
    auto cfg = base_config(15, fixture.dir.str());
    cfg.num_passes = -2;
    try {
      (void)run_metaprep(fixture.index, cfg);
      ADD_FAILURE() << "num_passes = -2 accepted with " << pairs << " pairs";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kConfig) << e.what();
      EXPECT_NE(std::string(e.what()).find("num_passes"), std::string::npos) << e.what();
    }
  }
}

TEST(Pipeline, SlotTableLimitIsCheckedUpFront) {
  // P*T = 65536 overflows the 16-bit (dest rank, dest thread) slot table
  // every mode and codec routes through: a config error before any rank
  // (or any of its 256 threads) starts.
  Fixture fixture(15, 50);
  for (auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
    for (auto compress : {CommCompress::kNone, CommCompress::kSuperKmer}) {
      auto cfg = base_config(15, fixture.dir.str());
      cfg.num_ranks = 256;
      cfg.threads_per_rank = 256;
      cfg.pipeline_mode = mode;
      cfg.comm_compress = compress;
      try {
        (void)run_metaprep(fixture.index, cfg);
        ADD_FAILURE() << "P*T = 65536 accepted";
      } catch (const util::Error& e) {
        EXPECT_EQ(e.category(), util::ErrorCategory::kConfig) << e.what();
        EXPECT_NE(std::string(e.what()).find("slot table"), std::string::npos) << e.what();
      }
    }
  }
}

TEST(Pipeline, EmptyInputYieldsEmptyResultWithoutGhostFiles) {
  // R == 0 hardening: an index over an empty FASTQ must short-circuit to a
  // well-formed empty result in both pipeline modes — no throw, no sentinel
  // largest root, and no ghost ".other.fastq" (or bin) files on disk.
  Fixture fixture(15, 0);
  for (auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
    for (int bins : {0, 2}) {
      test::TempDir out;
      auto cfg = base_config(15, out.str());
      cfg.num_ranks = 2;
      cfg.threads_per_rank = 2;
      cfg.pipeline_mode = mode;
      cfg.write_output = true;
      cfg.output_bins = bins;
      const auto r = run_metaprep(fixture.index, cfg);
      EXPECT_EQ(r.num_reads, 0u);
      EXPECT_TRUE(r.labels.empty());
      EXPECT_EQ(r.num_components, 0u);
      EXPECT_EQ(r.largest_size, 0u);
      EXPECT_DOUBLE_EQ(r.largest_fraction, 0.0);
      EXPECT_TRUE(r.output_files.empty());
      EXPECT_TRUE(r.bin_manifest_path.empty());
      std::size_t on_disk = 0;
      for (const auto& e : std::filesystem::directory_iterator(out.str())) {
        (void)e;
        ++on_disk;
      }
      EXPECT_EQ(on_disk, 0u);
    }
  }
}

TEST(Pipeline, ComponentAccountingConsistent) {
  Fixture fixture(15, 300);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 4;
  cfg.threads_per_rank = 2;
  const auto r = run_metaprep(fixture.index, cfg);
  // Component sizes sum to R; largest matches the labels array.
  std::map<std::uint32_t, std::uint64_t> sizes;
  for (auto l : r.labels) ++sizes[l];
  EXPECT_EQ(sizes.size(), r.num_components);
  std::uint64_t largest = 0;
  for (const auto& [root, size] : sizes) largest = std::max(largest, size);
  EXPECT_EQ(largest, r.largest_size);
  EXPECT_EQ(sizes.at(r.largest_root), r.largest_size);
  EXPECT_DOUBLE_EQ(r.largest_fraction,
                   static_cast<double>(largest) / static_cast<double>(r.num_reads));
  ASSERT_FALSE(r.top_component_sizes.empty());
  EXPECT_EQ(r.top_component_sizes.front(), largest);
  EXPECT_TRUE(std::is_sorted(r.top_component_sizes.begin(), r.top_component_sizes.end(),
                             std::greater<>()));
}

TEST(Pipeline, OutputFastqIsLosslessSplit) {
  Fixture fixture(15, 200, 5, 7);
  TempDir out_dir;
  auto cfg = base_config(15, out_dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.write_output = true;
  const auto r = run_metaprep(fixture.index, cfg);
  ASSERT_FALSE(r.output_files.empty());

  // Gather all output records; id -> sequences seen.
  std::multiset<std::string> output_ids;
  std::uint64_t lc_records = 0;
  std::uint64_t other_records = 0;
  for (const auto& path : r.output_files) {
    const bool is_lc = path.find(".lc.") != std::string::npos;
    for (const auto& rec : test::read_all_fastq(path)) {
      output_ids.insert(rec.id);
      (is_lc ? lc_records : other_records) += 1;
    }
  }
  // Every input record appears exactly once in the output.
  std::multiset<std::string> input_ids;
  for (const auto& f : fixture.index.files) {
    for (const auto& rec : test::read_all_fastq(f)) input_ids.insert(rec.id);
  }
  EXPECT_EQ(output_ids, input_ids);
  // LC file record count = 2 * largest component (both mates).
  EXPECT_EQ(lc_records, 2 * r.largest_size);
  EXPECT_EQ(other_records, 2 * (r.num_reads - r.largest_size));
}

TEST(Pipeline, PairedEndsStayTogether) {
  Fixture fixture(15, 150, 5, 6);
  TempDir out_dir;
  auto cfg = base_config(15, out_dir.str());
  cfg.write_output = true;
  const auto r = run_metaprep(fixture.index, cfg);

  // Strip the /1 /2 suffix; each pair base name must land entirely in LC or
  // entirely in Other.
  std::map<std::string, std::set<bool>> pair_sides;
  for (const auto& path : r.output_files) {
    const bool is_lc = path.find(".lc.") != std::string::npos;
    for (const auto& rec : test::read_all_fastq(path)) {
      pair_sides[rec.id.substr(0, rec.id.size() - 2)].insert(is_lc);
    }
  }
  for (const auto& [base, sides] : pair_sides) {
    EXPECT_EQ(sides.size(), 1u) << "pair " << base << " split across partitions";
  }
}

class MergeTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeTreeTest, TreeMatchesOracleAndShipsOneArrayPerRank) {
  const int P = GetParam();
  static Fixture fixture(15, 220);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = P;
  cfg.threads_per_rank = 2;
  const auto r = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(test::normalize_partition(r.labels),
            test::normalize_partition(reference_components(fixture.index, cfg.filter)));
  // The paper's tree (Figure 4): each non-root rank sends its full 4R-byte
  // component array exactly once over the ceil(log P) rounds.
  EXPECT_EQ(r.merge_comm_bytes, static_cast<std::uint64_t>(P - 1) * 4ull * r.num_reads);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MergeTreeTest, ::testing::Values(1, 2, 3, 4, 8));

TEST(Pipeline, PaperSplitIsLossless) {
  Fixture fixture(15, 250, 5, 7, 6);
  TempDir out_dir;
  auto cfg = base_config(15, out_dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.write_output = true;
  const auto r = run_metaprep(fixture.index, cfg);

  // Every input record is written exactly once; only ".lc" and ".other"
  // files exist, and the ".lc" files hold both mates of every read of the
  // largest component.
  std::map<std::string, std::uint64_t> per_class;
  std::multiset<std::string> output_ids;
  for (const auto& path : r.output_files) {
    const std::string cls = partition_class_of(path);
    for (const auto& rec : test::read_all_fastq(path)) {
      per_class[cls] += 1;
      output_ids.insert(rec.id);
    }
  }
  std::multiset<std::string> input_ids;
  for (const auto& f : fixture.index.files) {
    for (const auto& rec : test::read_all_fastq(f)) input_ids.insert(rec.id);
  }
  EXPECT_EQ(output_ids, input_ids);
  EXPECT_EQ(per_class["lc"], 2 * r.largest_size);
  EXPECT_EQ(per_class["lc"] + per_class["other"], 2ull * r.num_reads);
  EXPECT_EQ(per_class.size(), 2u);
  std::size_t on_disk = 0;
  for (const auto& e : std::filesystem::directory_iterator(out_dir.str())) {
    const std::string name = e.path().filename().string();
    EXPECT_TRUE(name.ends_with(".lc.fastq") || name.ends_with(".other.fastq")) << name;
    ++on_disk;
  }
  // Files open on first write: none is empty, and none is missing.
  EXPECT_EQ(on_disk, r.output_files.size());
  for (const auto& path : r.output_files) {
    EXPECT_GT(std::filesystem::file_size(path), 0u) << path;
  }
}

TEST(Pipeline, StepTimesPopulated) {
  Fixture fixture(15, 150);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  const auto r = run_metaprep(fixture.index, cfg);
  for (const char* step : {"KmerGen-I/O", "KmerGen", "KmerGen-Comm", "LocalSort", "LocalCC"}) {
    EXPECT_GT(r.step_times.map().count(step), 0u) << step;
  }
  // Multi-rank runs must include merge communication.
  EXPECT_GT(r.step_times.map().count("Merge-Comm"), 0u);
}

TEST(Pipeline, PartitionIndependentOfChunkCount) {
  // The logical chunking is an implementation detail; the decomposition
  // must not depend on it.
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "chunks";
  dcfg.genomes.num_species = 3;
  dcfg.genomes.min_genome_len = 3000;
  dcfg.genomes.max_genome_len = 5000;
  dcfg.num_pairs = 200;
  const auto ds = sim::simulate_dataset(dcfg, dir.file("chunks"));

  std::vector<std::uint32_t> reference_labels;
  for (std::uint32_t chunks : {2, 5, 16, 64}) {
    IndexCreateOptions opt;
    opt.k = 15;
    opt.m = 5;
    opt.target_chunks = chunks;
    const auto index = create_index("chunks", ds.files, true, opt);
    auto cfg = base_config(15, dir.str());
    cfg.num_ranks = 3;
    cfg.threads_per_rank = 2;
    const auto r = run_metaprep(index, cfg);
    const auto normalized = test::normalize_partition(r.labels);
    if (reference_labels.empty()) {
      reference_labels = normalized;
    } else {
      EXPECT_EQ(normalized, reference_labels) << "chunks=" << chunks;
    }
  }
}

TEST(Pipeline, PartitionIndependentOfHistogramM) {
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "mval";
  dcfg.genomes.num_species = 3;
  dcfg.genomes.min_genome_len = 3000;
  dcfg.genomes.max_genome_len = 5000;
  dcfg.num_pairs = 150;
  const auto ds = sim::simulate_dataset(dcfg, dir.file("mval"));

  std::vector<std::uint32_t> reference_labels;
  for (int m : {3, 5, 7}) {
    IndexCreateOptions opt;
    opt.k = 15;
    opt.m = m;
    opt.target_chunks = 8;
    const auto index = create_index("mval", ds.files, true, opt);
    auto cfg = base_config(15, dir.str());
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.num_passes = 2;
    const auto r = run_metaprep(index, cfg);
    const auto normalized = test::normalize_partition(r.labels);
    if (reference_labels.empty()) {
      reference_labels = normalized;
    } else {
      EXPECT_EQ(normalized, reference_labels) << "m=" << m;
    }
  }
}

TEST(Pipeline, SingleEndDatasetEndToEnd) {
  TempDir dir;
  // Two single-end files: reads 0-1 overlap each other, 2-3 overlap each
  // other, and nothing crosses the groups.
  const auto genome = sim::random_genome(4000, 31);
  test::write_fastq(dir.file("a.fastq"),
                    {genome.substr(0, 60), genome.substr(30, 60)}, "a");
  test::write_fastq(dir.file("b.fastq"),
                    {genome.substr(2000, 60), genome.substr(2030, 60)}, "b");
  IndexCreateOptions opt;
  opt.k = 21;
  opt.m = 4;
  opt.target_chunks = 4;
  const auto index =
      create_index("se", {dir.file("a.fastq"), dir.file("b.fastq")}, false, opt);
  ASSERT_EQ(index.total_reads, 4u);

  auto cfg = base_config(21, dir.str());
  cfg.num_ranks = 2;
  cfg.write_output = true;
  const auto r = run_metaprep(index, cfg);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(test::normalize_partition(r.labels),
            (std::vector<std::uint32_t>{0, 0, 2, 2}));
  // Output lossless for single-end too.
  std::uint64_t records = 0;
  for (const auto& f : r.output_files) records += test::read_all_fastq(f).size();
  EXPECT_EQ(records, 4u);
}

TEST(Pipeline, MultiLibraryPairedDataset) {
  // Two paired libraries (4 files); global read IDs must accumulate across
  // libraries and the partition must match the reference.
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "lib1";
  dcfg.genomes.num_species = 2;
  dcfg.genomes.min_genome_len = 3000;
  dcfg.genomes.max_genome_len = 4000;
  dcfg.num_pairs = 80;
  const auto lib1 = sim::simulate_dataset(dcfg, dir.file("lib1"));
  dcfg.name = "lib2";
  dcfg.genomes.seed = 999;  // different community
  dcfg.reads.seed = 888;
  const auto lib2 = sim::simulate_dataset(dcfg, dir.file("lib2"));

  const std::vector<std::string> files{lib1.files[0], lib1.files[1], lib2.files[0],
                                       lib2.files[1]};
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 5;
  opt.target_chunks = 8;
  const auto index = create_index("multilib", files, true, opt);
  EXPECT_EQ(index.total_reads, 160u);

  auto cfg = base_config(15, dir.str());
  cfg.num_ranks = 3;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  const auto r = run_metaprep(index, cfg);
  const auto expected = reference_components(index, cfg.filter);
  EXPECT_EQ(test::normalize_partition(r.labels), test::normalize_partition(expected));
}

TEST(Pipeline, DeterministicAcrossRuns) {
  Fixture fixture(15, 200);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 3;
  cfg.threads_per_rank = 3;
  const auto a = run_metaprep(fixture.index, cfg);
  const auto b = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.total_tuples, b.total_tuples);
}

TEST(Pipeline, HandlesReadsShorterThanK) {
  // Reads shorter than k enumerate no k-mers: they must come out as
  // singletons, and the output must still be lossless.
  TempDir dir;
  const auto genome = sim::random_genome(2000, 41);
  test::write_fastq(dir.file("a.fastq"),
                    {genome.substr(0, 80), "ACGT", genome.substr(40, 80), "GG"});
  IndexCreateOptions opt;
  opt.k = 21;
  opt.m = 4;
  opt.target_chunks = 2;
  const auto index = create_index("short", {dir.file("a.fastq")}, false, opt);
  auto cfg = base_config(21, dir.str());
  cfg.write_output = true;
  const auto r = run_metaprep(index, cfg);
  // Reads 0 and 2 overlap; 1 and 3 are k-mer-free singletons.
  EXPECT_EQ(r.num_components, 3u);
  std::uint64_t records = 0;
  for (const auto& f : r.output_files) records += test::read_all_fastq(f).size();
  EXPECT_EQ(records, 4u);
}

TEST(Pipeline, HandlesAllNReads) {
  TempDir dir;
  const auto genome = sim::random_genome(1000, 43);
  test::write_fastq(dir.file("a.fastq"),
                    {std::string(60, 'N'), genome.substr(0, 60), std::string(60, 'N')});
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  const auto index = create_index("ns", {dir.file("a.fastq")}, false, opt);
  auto cfg = base_config(15, dir.str());
  const auto r = run_metaprep(index, cfg);
  EXPECT_EQ(r.num_components, 3u);  // every read isolated
}

TEST(Pipeline, EmptyFilterBandYieldsAllSingletons) {
  Fixture fixture(15, 100);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.filter.min_freq = 1'000'000;  // nothing is that frequent
  const auto r = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(r.num_components, static_cast<std::uint64_t>(r.num_reads));
  EXPECT_EQ(r.largest_size, 1u);
}

TEST(Pipeline, DuplicateReadsCollapseIntoOneComponent) {
  TempDir dir;
  const auto genome = sim::random_genome(500, 47);
  const std::string read = genome.substr(0, 80);
  test::write_fastq(dir.file("a.fastq"), {read, read, read, read});
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  const auto index = create_index("dup", {dir.file("a.fastq")}, false, opt);
  auto cfg = base_config(15, dir.str());
  cfg.num_ranks = 2;
  const auto r = run_metaprep(index, cfg);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.largest_size, 4u);
}

TEST(Pipeline, TinyDatasetWithManyRanksAndPasses) {
  // More ranks/threads/passes than there is work: everything must degrade
  // gracefully to empty ranges.
  TempDir dir;
  const auto genome = sim::random_genome(300, 53);
  test::write_fastq(dir.file("a.fastq"), {genome.substr(0, 60), genome.substr(30, 60)});
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 3;
  opt.target_chunks = 1;
  const auto index = create_index("tiny", {dir.file("a.fastq")}, false, opt);
  auto cfg = base_config(15, dir.str());
  cfg.num_ranks = 8;
  cfg.threads_per_rank = 4;
  cfg.num_passes = 6;
  cfg.write_output = true;
  const auto r = run_metaprep(index, cfg);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.num_reads, 2u);
}

TEST(Pipeline, CorruptFastqFailsLoudly) {
  // A file truncated after indexing: KmerGen's chunk read must throw, the
  // failure must poison the world, and the caller must see the exception.
  TempDir dir;
  const auto genome = sim::random_genome(2000, 59);
  std::vector<std::string> reads;
  for (std::size_t pos = 0; pos + 60 <= genome.size(); pos += 30) {
    reads.push_back(genome.substr(pos, 60));
  }
  test::write_fastq(dir.file("a.fastq"), reads);
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 4;
  const auto index = create_index("corrupt", {dir.file("a.fastq")}, false, opt);
  // Truncate the file after the index was built.
  std::filesystem::resize_file(dir.file("a.fastq"),
                               std::filesystem::file_size(dir.file("a.fastq")) / 2);
  auto cfg = base_config(15, dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  EXPECT_THROW(run_metaprep(index, cfg), std::runtime_error);
}

TEST(Pipeline, LongReadsMatchReference) {
  // 500 bp reads (PacBio-HiFi-ish length, error-free for simplicity).
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "long";
  dcfg.genomes.num_species = 3;
  dcfg.genomes.min_genome_len = 4000;
  dcfg.genomes.max_genome_len = 6000;
  dcfg.num_pairs = 60;
  dcfg.reads.read_len = 500;
  dcfg.reads.insert_mean = 1100;
  dcfg.reads.insert_sd = 50;
  const auto ds = sim::simulate_dataset(dcfg, dir.file("long"));
  IndexCreateOptions opt;
  opt.k = 27;
  opt.m = 5;
  opt.target_chunks = 6;
  const auto index = create_index("long", ds.files, true, opt);
  auto cfg = base_config(27, dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  const auto r = run_metaprep(index, cfg);
  const auto expected = reference_components(index, cfg.filter);
  EXPECT_EQ(test::normalize_partition(r.labels), test::normalize_partition(expected));
}

TEST(Pipeline, SimulatedCommTimeOnlyForMultiRank) {
  Fixture fixture(15, 150);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 1;
  const auto single = run_metaprep(fixture.index, cfg);
  EXPECT_DOUBLE_EQ(single.sim_comm_seconds, 0.0);
  cfg.num_ranks = 4;
  const auto multi = run_metaprep(fixture.index, cfg);
  EXPECT_GT(multi.sim_comm_seconds, 0.0);
}

}  // namespace
}  // namespace metaprep::core
