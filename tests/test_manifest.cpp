// Tests for the partition manifest.
#include "core/manifest.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "core/index_create.hpp"
#include "core/pipeline.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace metaprep::core {
namespace {

using test::TempDir;

TEST(Manifest, PartitionClassOfRecognizesSuffixes) {
  EXPECT_EQ(partition_class_of("/x/ds.p0.t1.lc.fastq"), "lc");
  EXPECT_EQ(partition_class_of("/x/ds.p0.t1.other.fastq"), "other");
  EXPECT_EQ(partition_class_of("/x/ds.p2.t0.b0.fastq"), "b0");
  EXPECT_EQ(partition_class_of("/x/ds.p2.t0.b17.fastq"), "b17");
  EXPECT_EQ(partition_class_of("/x/random.fastq"), "unknown");
}

struct ManifestFixture {
  TempDir dir;
  DatasetIndex index;
  PipelineResult result;

  explicit ManifestFixture(int output_bins) {
    sim::DatasetConfig cfg;
    cfg.name = "mani";
    cfg.genomes.num_species = 4;
    cfg.genomes.min_genome_len = 3000;
    cfg.genomes.max_genome_len = 5000;
    cfg.num_pairs = 150;
    const auto ds = sim::simulate_dataset(cfg, dir.file("mani"));
    IndexCreateOptions opt;
    opt.k = 15;
    opt.m = 5;
    opt.target_chunks = 4;
    index = create_index("mani", ds.files, true, opt);
    MetaprepConfig mp;
    mp.k = 15;
    mp.num_ranks = 2;
    mp.threads_per_rank = 2;
    mp.write_output = true;
    mp.output_bins = output_bins;
    mp.output_dir = dir.str();
    result = run_metaprep(index, mp);
  }
};

TEST(Manifest, BuildAccountsForEveryRecord) {
  ManifestFixture fx(0);
  const auto m = build_manifest(fx.index, fx.result);
  EXPECT_EQ(m.dataset, "mani");
  EXPECT_EQ(m.k, 15);
  EXPECT_EQ(m.num_reads, fx.result.num_reads);
  EXPECT_EQ(m.total_records(), 2ull * fx.result.num_reads);
  // LC entries hold exactly 2 * largest_size records.
  std::map<std::string, std::uint64_t> per_class;
  for (const auto& e : m.entries) per_class[e.partition] += e.records;
  EXPECT_EQ(per_class.at("lc"), 2 * fx.result.largest_size);
}

TEST(Manifest, BinClassesCountPlannedReads) {
  ManifestFixture fx(2);
  const auto m = build_manifest(fx.index, fx.result);
  EXPECT_EQ(m.total_records(), 2ull * fx.result.num_reads);
  std::map<std::string, std::uint64_t> per_class;
  for (const auto& e : m.entries) per_class[e.partition] += e.records;
  EXPECT_EQ(per_class.count("unknown"), 0u);
  ASSERT_EQ(fx.result.bin_reads.size(), 2u);
  for (std::size_t j = 0; j < fx.result.bin_reads.size(); ++j) {
    const std::string cls = "b" + std::to_string(j);
    const auto it = per_class.find(cls);
    const std::uint64_t records = it == per_class.end() ? 0 : it->second;
    EXPECT_EQ(records, 2 * fx.result.bin_reads[j]) << cls;
  }
}

TEST(Manifest, SaveLoadRoundTrip) {
  ManifestFixture fx(0);
  const auto m = build_manifest(fx.index, fx.result);
  const std::string path = fx.dir.file("manifest.tsv");
  save_manifest(m, path);
  const auto loaded = load_manifest(path);
  EXPECT_EQ(loaded.dataset, m.dataset);
  EXPECT_EQ(loaded.k, m.k);
  EXPECT_EQ(loaded.num_reads, m.num_reads);
  EXPECT_EQ(loaded.num_components, m.num_components);
  EXPECT_EQ(loaded.largest_size, m.largest_size);
  ASSERT_EQ(loaded.entries.size(), m.entries.size());
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    EXPECT_EQ(loaded.entries[i].path, m.entries[i].path);
    EXPECT_EQ(loaded.entries[i].partition, m.entries[i].partition);
    EXPECT_EQ(loaded.entries[i].records, m.entries[i].records);
    EXPECT_EQ(loaded.entries[i].bases, m.entries[i].bases);
  }
}

TEST(Manifest, LoadMissingFileThrows) {
  EXPECT_THROW(load_manifest("/nonexistent/m.tsv"), std::runtime_error);
}

/// Clobber the first record separator ('+' at line start) of @p path in
/// place, keeping the byte length unchanged.
void corrupt_first_separator(const std::string& path) {
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  std::size_t pos = 0;
  while (pos < bytes.size() &&
         !(bytes[pos] == '+' && (pos == 0 || bytes[pos - 1] == '\n'))) {
    ++pos;
  }
  ASSERT_LT(pos, bytes.size());
  bytes[pos] = 'J';
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Regression for the always-strict re-parse: build_manifest used to ignore
// the run's ParseMode, so verifying a lenient run's (or operator-damaged)
// output threw instead of counting the skip.
TEST(Manifest, ParseModeThreadsThroughToVerification) {
  ManifestFixture fx(0);
  ASSERT_FALSE(fx.result.output_files.empty());
  const std::string& victim = fx.result.output_files.front();
  corrupt_first_separator(victim);

  // Strict (the default) refuses the damaged file with a typed parse error.
  try {
    (void)build_manifest(fx.index, fx.result);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
    EXPECT_EQ(e.path(), victim);
  }

  // Lenient counts the resync on the damaged entry and completes.
  const auto m = build_manifest(fx.index, fx.result, io::ParseMode::kLenient);
  EXPECT_EQ(m.records_skipped, 1u);
  EXPECT_EQ(m.total_records(), 2ull * fx.result.num_reads - 1);
  for (const auto& e : m.entries) {
    EXPECT_EQ(e.skipped, e.path == victim ? 1u : 0u) << e.path;
  }

  // The skipped column survives a save/load round trip.
  const std::string path = fx.dir.file("manifest.tsv");
  save_manifest(m, path);
  const auto loaded = load_manifest(path);
  EXPECT_EQ(loaded.records_skipped, 1u);
  ASSERT_EQ(loaded.entries.size(), m.entries.size());
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    EXPECT_EQ(loaded.entries[i].skipped, m.entries[i].skipped);
  }
}

}  // namespace
}  // namespace metaprep::core
