// Differential guard for the pipelined (overlap) scheduler.
//
// Every {P, T, S} x {barrier, overlap} combination must produce the same
// read partition on one synthetic dataset, and that partition must match a
// straight-line serial oracle assembled from first principles: the
// sequential FASTQ reader, the scalar canonical-k-mer scanner, and
// SerialDSU — none of which share code with the pipeline's chunked read
// path, vectorized scanner, tuple exchange, or concurrent union-find.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/index_create.hpp"
#include "dsu/dsu.hpp"
#include "io/fastq.hpp"
#include "kmer/scanner.hpp"
#include "obs/metrics.hpp"
#include "part/part.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace metaprep::core {
namespace {

using test::TempDir;

constexpr int kK = 15;

/// Straight-line oracle: stream every file in order with the sequential
/// reader, collect per-k-mer read lists with the scalar scanner, chain-unite
/// each list in SerialDSU.  Paired-end ID scheme: library j = files
/// (2j, 2j+1), both mates of pair i share one ID (paper §3.2).
std::vector<std::uint32_t> serial_oracle(const std::vector<std::string>& files,
                                         std::uint32_t total_reads) {
  std::map<std::uint64_t, std::vector<std::uint32_t>> kmer_reads;
  std::uint32_t base = 0;
  for (std::size_t j = 0; j * 2 < files.size(); ++j) {
    std::uint32_t pairs = 0;
    for (std::size_t mate = 0; mate < 2; ++mate) {
      io::FastqReader reader(files[2 * j + mate]);
      io::FastqRecord rec;
      std::uint32_t read_id = base;
      while (reader.next(rec)) {
        kmer::for_each_canonical_kmer64(rec.seq, kK, [&](std::uint64_t km, std::size_t) {
          kmer_reads[km].push_back(read_id);
        });
        ++read_id;
      }
      pairs = read_id - base;
    }
    base += pairs;
  }
  EXPECT_EQ(base, total_reads);
  dsu::SerialDSU dsu(total_reads);
  for (const auto& [km, reads] : kmer_reads) {
    for (std::size_t i = 1; i < reads.size(); ++i) dsu.unite(reads[i - 1], reads[i]);
  }
  return dsu.labels();
}

struct Fixture {
  TempDir dir;
  DatasetIndex index;
  std::vector<std::string> files;     ///< simulated FASTQ paths (R1, R2 pairs)
  std::vector<std::uint32_t> oracle;  ///< normalized serial partition

  Fixture() {
    sim::DatasetConfig cfg;
    cfg.name = "diff";
    cfg.genomes.num_species = 5;
    cfg.genomes.min_genome_len = 2500;
    cfg.genomes.max_genome_len = 5000;
    cfg.genomes.shared_fraction = 0.03;
    cfg.num_pairs = 220;
    cfg.reads.seed = 4242;
    const auto dataset = sim::simulate_dataset(cfg, dir.file("diff"));
    files = dataset.files;
    IndexCreateOptions opt;
    opt.k = kK;
    opt.m = 5;
    opt.target_chunks = 9;
    index = create_index("diff", dataset.files, true, opt);
    oracle = test::normalize_partition(serial_oracle(dataset.files, index.total_reads));
  }
};

Fixture& fixture() {
  static Fixture f;  // dataset is immutable; shared across the whole grid
  return f;
}

struct GridCase {
  int P, T, S;
  PipelineMode mode;
  ReadStore store;
};

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  const auto& c = info.param;
  return "P" + std::to_string(c.P) + "T" + std::to_string(c.T) + "S" + std::to_string(c.S) +
         (c.mode == PipelineMode::kOverlap ? "overlap" : "barrier") +
         (c.store == ReadStore::kPacked ? "Packed" : "Text");
}

std::vector<GridCase> full_grid() {
  std::vector<GridCase> cases;
  for (int P : {1, 2, 4}) {
    for (int T : {1, 2}) {
      for (int S : {1, 2, 3}) {
        for (auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
          for (auto store : {ReadStore::kText, ReadStore::kPacked}) {
            cases.push_back({P, T, S, mode, store});
          }
        }
      }
    }
  }
  return cases;
}

class DifferentialGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(DifferentialGridTest, PartitionMatchesSerialOracle) {
  const auto& c = GetParam();
  auto& f = fixture();

  MetaprepConfig cfg;
  cfg.k = kK;
  cfg.num_ranks = c.P;
  cfg.threads_per_rank = c.T;
  cfg.num_passes = c.S;
  cfg.pipeline_mode = c.mode;
  cfg.read_store = c.store;
  cfg.write_output = false;

  const auto result = run_metaprep(f.index, cfg);
  EXPECT_EQ(result.num_reads, f.index.total_reads);
  EXPECT_EQ(result.passes_used, c.S);
  // Identical partition everywhere on the grid: each cell equals the oracle,
  // so all 72 cells ({P} x {T} x {S} x {mode} x {text, packed}) equal each
  // other transitively.
  EXPECT_EQ(test::normalize_partition(result.labels), f.oracle);
}

INSTANTIATE_TEST_SUITE_P(Grid, DifferentialGridTest, ::testing::ValuesIn(full_grid()),
                         case_name);

// ---------------------------------------------------------------------------
// Output grid: write_output=true with load-balanced binning.  Every surviving
// record must land in exactly one bin file, mates and whole components stay
// together, the achieved per-bin loads match a plan recomputed from the
// oracle, and the manifest describes exactly what was written.

struct OutputGridCase {
  int P;
  PipelineMode mode;
  int bins;
  ReadStore store;
};

std::string output_case_name(const ::testing::TestParamInfo<OutputGridCase>& info) {
  const auto& c = info.param;
  return "P" + std::to_string(c.P) +
         (c.mode == PipelineMode::kOverlap ? "overlap" : "barrier") + "B" +
         std::to_string(c.bins) + (c.store == ReadStore::kPacked ? "Packed" : "Text");
}

std::vector<OutputGridCase> output_grid() {
  std::vector<OutputGridCase> cases;
  for (int P : {2, 4}) {
    for (auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
      for (int bins : {1, 2, 4}) cases.push_back({P, mode, bins, ReadStore::kText});
    }
  }
  // Packed read store on a representative slice: the bin files themselves
  // (not just the labels) must be byte-identical to the text runs, which the
  // per-file record census below establishes against the same oracle plan.
  for (auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
    cases.push_back({4, mode, 4, ReadStore::kPacked});
  }
  return cases;
}

/// "diff.<i>/1" -> i (sim headers are unique per record).
std::uint32_t read_id_of_header(const std::string& header) {
  const auto dot = header.find('.');
  const auto slash = header.find('/', dot);
  EXPECT_NE(dot, std::string::npos);
  EXPECT_NE(slash, std::string::npos);
  return static_cast<std::uint32_t>(std::stoul(header.substr(dot + 1, slash - dot - 1)));
}

class OutputGridTest : public ::testing::TestWithParam<OutputGridCase> {};

TEST_P(OutputGridTest, BinnedOutputPartitionsReadSetExactly) {
  const auto& c = GetParam();
  auto& f = fixture();
  TempDir out;

  MetaprepConfig cfg;
  cfg.k = kK;
  cfg.num_ranks = c.P;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  cfg.pipeline_mode = c.mode;
  cfg.read_store = c.store;
  cfg.write_output = true;
  cfg.output_dir = out.str();
  cfg.output_bins = c.bins;
  cfg.metrics_out = out.file("metrics.jsonl");

  const auto result = run_metaprep(f.index, cfg);
  const std::uint32_t R = f.index.total_reads;
  EXPECT_EQ(test::normalize_partition(result.labels), f.oracle);

  // Every record lands in exactly one bin file; both mates of a pair and all
  // reads of a component share one bin.
  std::map<std::string, int> header_bin;
  std::vector<std::uint64_t> actual_bin_records(static_cast<std::size_t>(c.bins), 0);
  std::map<std::string, std::uint64_t> file_records;
  for (const auto& path : result.output_files) {
    const auto bpos = path.rfind(".b");
    ASSERT_NE(bpos, std::string::npos) << path;
    const int bin = std::stoi(path.substr(bpos + 2));
    ASSERT_LT(bin, c.bins);
    const auto records = test::read_all_fastq(path);
    file_records[path] = records.size();
    for (const auto& rec : records) {
      const auto [it, inserted] = header_bin.emplace(rec.id, bin);
      EXPECT_TRUE(inserted) << "duplicate record " << rec.id;
      ++actual_bin_records[static_cast<std::size_t>(bin)];
    }
  }
  ASSERT_EQ(header_bin.size(), 2u * R);  // strict parse: nothing dropped
  std::vector<int> bin_of_read(R, -1);
  for (const auto& [header, bin] : header_bin) {
    const std::uint32_t id = read_id_of_header(header);
    ASSERT_LT(id, R);
    if (bin_of_read[id] == -1) {
      bin_of_read[id] = bin;
    } else {
      EXPECT_EQ(bin_of_read[id], bin) << "mates of read " << id << " split across bins";
    }
  }
  std::map<std::uint32_t, int> component_bin;
  for (std::uint32_t id = 0; id < R; ++id) {
    const auto [it, inserted] = component_bin.emplace(f.oracle[id], bin_of_read[id]);
    if (!inserted) {
      EXPECT_EQ(it->second, bin_of_read[id]) << "component of read " << id << " split";
    }
  }

  // Achieved loads match the plan recomputed from oracle component sizes
  // with the pipeline's weight model (estimated bp = reads * mean length).
  std::map<std::uint32_t, std::uint64_t> comp_sizes;
  for (auto l : f.oracle) ++comp_sizes[l];
  std::vector<part::Component> comps;
  for (const auto& [root, size] : comp_sizes) {
    comps.push_back(part::Component{
        root, size,
        static_cast<std::uint64_t>(static_cast<unsigned __int128>(size) *
                                   f.index.total_bases / R)});
  }
  const auto plan = part::greedy_bin_pack(comps, c.bins);
  EXPECT_EQ(result.bin_reads, plan.bin_reads);
  EXPECT_EQ(result.bin_weights_bp, plan.bin_weight_bp);
  EXPECT_DOUBLE_EQ(result.bin_skew, plan.skew());
  for (int b = 0; b < c.bins; ++b) {
    EXPECT_EQ(actual_bin_records[static_cast<std::size_t>(b)],
              2 * plan.bin_reads[static_cast<std::size_t>(b)])
        << "bin " << b;
  }

  // The manifest covers every written file with exact record counts.
  ASSERT_FALSE(result.bin_manifest_path.empty());
  const auto manifest = part::load_bin_manifest(result.bin_manifest_path);
  EXPECT_EQ(manifest.num_bins, c.bins);
  EXPECT_EQ(manifest.total_reads, R);
  EXPECT_EQ(manifest.num_components, comps.size());
  std::uint64_t manifest_records = 0;
  std::size_t manifest_files = 0;
  for (const auto& bin : manifest.bins) {
    for (const auto& file : bin.files) {
      ASSERT_TRUE(file_records.contains(file.path)) << file.path;
      EXPECT_EQ(file.records, file_records[file.path]) << file.path;
      manifest_records += file.records;
      ++manifest_files;
    }
  }
  EXPECT_EQ(manifest_records, 2u * R);
  EXPECT_EQ(manifest_files, result.output_files.size());

  // Merge-tail communication: the label scatter ships strictly less than the
  // old O(R)-per-rank full broadcast, and the root->bin table is
  // O(#components).  The mpsim.scatter_bytes counter must agree with the
  // deterministic slice geometry the result reports.
  const std::uint64_t old_broadcast = static_cast<std::uint64_t>(c.P - 1) * 4ull * R;
  EXPECT_GT(result.label_scatter_bytes, 0u);
  EXPECT_LE(result.label_scatter_bytes, old_broadcast);
  // At P >= 4 most ranks' chunk ranges cover a strict subset of the ID
  // space, so the scatter must ship strictly less than the old broadcast.
  // (At P = 2 the lone non-root rank can straddle the paired-file boundary
  // and legitimately need the whole range.)
  if (c.P >= 4) { EXPECT_LT(result.label_scatter_bytes, old_broadcast); }
  EXPECT_EQ(result.root_table_bytes,
            static_cast<std::uint64_t>(c.P - 1) * (8 + 6 * comps.size()));
  EXPECT_EQ(static_cast<std::uint64_t>(
                obs::metrics().counter("mpsim.scatter_bytes").value()),
            result.label_scatter_bytes);
}

INSTANTIATE_TEST_SUITE_P(OutputGrid, OutputGridTest, ::testing::ValuesIn(output_grid()),
                         output_case_name);

// ---------------------------------------------------------------------------
// Exchange-compression grid: every --comm-compress mode must reproduce the
// oracle partition across both schedulers, both read stores, and both parse
// modes.  The lenient legs run on a deterministically corrupted copy of the
// dataset (mangled record headers), indexed leniently, with the oracle
// recomputed by the brute-force reference under the same parse mode —
// compressed runs emit no sentinel padding, so lenient gaps must be
// invisible in the partition, not just tolerated.

/// Copy @p files, mangling the header '@' of two fixed records per file.
/// The same record indices break in every file, so paired-end files keep
/// equal parseable record counts.
std::vector<std::string> corrupt_copy(const std::vector<std::string>& files,
                                      const TempDir& dir) {
  std::vector<std::string> out;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    std::ifstream in(files[fi]);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    for (const std::size_t rec : {std::size_t{5}, std::size_t{40}}) {
      const std::size_t ln = rec * 4;  // sim output: 4 lines per record
      if (ln < lines.size() && !lines[ln].empty() && lines[ln][0] == '@') lines[ln][0] = '#';
    }
    out.push_back(dir.file("corrupt_" + std::to_string(fi) + ".fastq"));
    std::ofstream os(out.back());
    for (const auto& l : lines) os << l << '\n';
  }
  return out;
}

struct LenientFixture {
  TempDir dir;
  DatasetIndex index;
  std::vector<std::uint32_t> oracle;  ///< normalized lenient reference partition

  LenientFixture() {
    const auto files = corrupt_copy(fixture().files, dir);
    IndexCreateOptions opt;
    opt.k = kK;
    opt.m = 5;
    opt.parse_mode = io::ParseMode::kLenient;
    opt.target_chunks = 9;
    index = create_index("diff", files, true, opt);
    oracle = test::normalize_partition(
        reference_components(index, KmerFreqFilter{}, io::ParseMode::kLenient));
  }
};

LenientFixture& lenient_fixture() {
  static LenientFixture f;
  return f;
}

struct CompressCase {
  CommCompress compress;
  PipelineMode mode;
  ReadStore store;
  io::ParseMode parse;
};

std::string compress_case_name(const ::testing::TestParamInfo<CompressCase>& info) {
  const auto& c = info.param;
  return std::string(c.compress == CommCompress::kNone ? "Cnone" : "Csuperkmer") +
         (c.mode == PipelineMode::kOverlap ? "overlap" : "barrier") +
         (c.store == ReadStore::kPacked ? "Packed" : "Text") +
         (c.parse == io::ParseMode::kLenient ? "Lenient" : "Strict");
}

std::vector<CompressCase> compress_grid() {
  std::vector<CompressCase> cases;
  for (auto compress : {CommCompress::kNone, CommCompress::kSuperKmer}) {
    for (auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
      for (auto store : {ReadStore::kText, ReadStore::kPacked}) {
        for (auto parse : {io::ParseMode::kStrict, io::ParseMode::kLenient}) {
          cases.push_back({compress, mode, store, parse});
        }
      }
    }
  }
  return cases;
}

class CommCompressGridTest : public ::testing::TestWithParam<CompressCase> {};

TEST_P(CommCompressGridTest, PartitionMatchesOracle) {
  const auto& c = GetParam();
  const bool lenient = c.parse == io::ParseMode::kLenient;
  const DatasetIndex& index = lenient ? lenient_fixture().index : fixture().index;
  const auto& oracle = lenient ? lenient_fixture().oracle : fixture().oracle;

  MetaprepConfig cfg;
  cfg.k = kK;
  cfg.num_ranks = 4;  // cross-rank traffic exists, so the byte counters fire
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  cfg.pipeline_mode = c.mode;
  cfg.read_store = c.store;
  cfg.parse_mode = c.parse;
  cfg.comm_compress = c.compress;
  cfg.write_output = false;

  const auto result = run_metaprep(index, cfg);
  EXPECT_EQ(result.num_reads, index.total_reads);
  EXPECT_EQ(result.passes_used, 2);
  EXPECT_EQ(test::normalize_partition(result.labels), oracle);

  // Byte accounting invariants.
  if (c.compress == CommCompress::kNone) {
    EXPECT_EQ(result.exchange_bytes, result.exchange_bytes_raw);
    EXPECT_EQ(result.superkmer_records, 0u);
  } else {
    EXPECT_GT(result.superkmer_records, 0u);
    // Aggregation must actually shrink the wire volume on this corpus.
    EXPECT_GT(result.exchange_bytes_raw, 0u);
    EXPECT_LT(result.exchange_bytes, result.exchange_bytes_raw);
    if (!lenient) {
      // Strict super-k-mer runs re-expand every k-mer occurrence: the tuple
      // census equals the index's global k-mer histogram exactly.
      EXPECT_EQ(result.total_tuples, index.mer_hist.total());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CompressGrid, CommCompressGridTest,
                         ::testing::ValuesIn(compress_grid()), compress_case_name);

// ---------------------------------------------------------------------------
// Golden pin of the fusion-width-1 pass engine against the paper's barrier
// schedule.  The constants below were recorded from the barrier scheduler
// that predates the single pass engine (separate barrier / overlap /
// compressed schedulers), on this file's fixture re-indexed at k = 27 and
// k = 41 (k = 41 covers the wide keys_hi path and its 128-bit grouping).
// Union-by-index makes every root its component's largest read ID, so raw
// labels are deterministic and must match exactly, as must the exchange
// accounting and the traffic and message matrices.  sim_comm_seconds is a
// floating-point sum that the CostModel accumulates in message-arrival
// order; the recorded scheduler itself varied by up to 2 ulp run to run, so
// it is compared to 1e-12 relative (one extra message would move it ~4%).

struct GoldenCase {
  int P, T, S, k;
  std::uint64_t total_tuples;
  std::uint64_t exchange_bytes;
  double sim_comm_seconds;
  std::vector<std::uint64_t> traffic;
  std::vector<std::uint64_t> messages;
  std::uint64_t overlap_message_count;  ///< message_count of the old overlap scheduler
};

const std::uint32_t kGoldenLabelsK27[] = {
    218, 211, 215, 215, 215, 218, 215, 215, 219, 218, 218, 218, 218, 32, 218, 215,
    219, 215, 218, 219, 219, 218, 218, 215, 140, 218, 219, 140, 215, 218, 215, 125,
    32, 215, 215, 211, 158, 215, 215, 218, 215, 218, 218, 215, 218, 215, 215, 211,
    215, 215, 218, 215, 215, 218, 219, 215, 215, 215, 218, 215, 215, 215, 218, 215,
    218, 215, 178, 218, 215, 215, 218, 215, 218, 218, 218, 218, 218, 218, 218, 218,
    215, 218, 219, 215, 215, 158, 218, 215, 218, 218, 218, 218, 215, 215, 215, 215,
    96, 218, 215, 218, 218, 219, 215, 215, 215, 215, 218, 218, 215, 218, 218, 215,
    218, 215, 218, 218, 215, 218, 178, 218, 218, 215, 215, 218, 219, 125, 218, 218,
    218, 218, 215, 215, 218, 215, 218, 219, 218, 215, 215, 215, 140, 179, 215, 218,
    219, 215, 215, 215, 218, 149, 215, 151, 218, 219, 215, 215, 215, 218, 158, 218,
    219, 218, 215, 219, 218, 218, 215, 218, 218, 218, 218, 215, 215, 218, 218, 215,
    215, 215, 178, 179, 218, 215, 218, 215, 215, 218, 218, 215, 218, 219, 215, 218,
    218, 215, 218, 218, 218, 218, 218, 219, 218, 219, 218, 218, 215, 215, 218, 218,
    218, 218, 218, 211, 219, 218, 218, 215, 218, 218, 218, 219,
};
const std::uint32_t kGoldenLabelsK41[] = {
    218, 211, 215, 215, 215, 218, 215, 98, 219, 218, 218, 218, 218, 32, 218, 215,
    219, 215, 218, 219, 219, 218, 218, 215, 27, 218, 219, 27, 215, 218, 215, 125,
    32, 215, 215, 211, 158, 215, 215, 218, 215, 218, 218, 215, 218, 215, 139, 211,
    215, 215, 218, 98, 215, 218, 219, 98, 215, 215, 218, 215, 98, 215, 218, 215,
    218, 215, 178, 218, 68, 215, 218, 215, 218, 218, 218, 218, 218, 218, 218, 218,
    215, 218, 219, 215, 215, 158, 218, 215, 218, 218, 218, 218, 215, 215, 215, 215,
    96, 218, 98, 218, 218, 219, 215, 215, 215, 215, 218, 218, 215, 218, 218, 215,
    218, 215, 218, 218, 215, 218, 178, 218, 218, 215, 215, 218, 219, 125, 218, 218,
    218, 218, 215, 215, 218, 215, 218, 219, 218, 215, 215, 139, 140, 179, 215, 218,
    219, 215, 215, 215, 218, 149, 183, 151, 218, 219, 215, 215, 215, 218, 158, 218,
    219, 218, 215, 219, 218, 218, 215, 218, 218, 218, 218, 215, 215, 218, 218, 215,
    176, 215, 178, 179, 218, 215, 218, 183, 215, 218, 218, 215, 218, 219, 215, 218,
    218, 215, 218, 218, 218, 218, 218, 219, 218, 219, 218, 218, 215, 215, 218, 218,
    218, 218, 218, 211, 219, 218, 218, 215, 218, 218, 218, 219,
};
const GoldenCase kGolden[] = {
    {1, 1, 1, 27, 32203, 0, 0x0p+0, {0}, {0}, 0},
    {1, 1, 3, 27, 32203, 0, 0x0p+0, {0}, {0}, 0},
    {1, 2, 1, 27, 32203, 0, 0x0p+0, {0}, {0}, 0},
    {1, 2, 3, 27, 32203, 0, 0x0p+0, {0}, {0}, 0},
    {2, 1, 1, 27, 32203, 193764, 0x1.52db9a1a1d0c9p-16, {0, 97580, 97948, 0}, {0, 4, 3, 0}, 7},
    {2, 1, 3, 27, 32203, 193008, 0x1.d783e88af6f21p-16, {0, 96836, 97936, 0}, {0, 8, 7, 0}, 15},
    {2, 2, 1, 27, 32203, 193764, 0x1.52db9a1a1d0c9p-16, {0, 97580, 97948, 0}, {0, 4, 3, 0}, 11},
    {2, 2, 3, 27, 32203, 193008, 0x1.d783e88af6f21p-16, {0, 96836, 97936, 0}, {0, 8, 7, 0}, 27},
    {3, 1, 1, 27, 32203, 257076, 0x1.8ee5247645c65p-16,
     {0, 57704, 58076, 36016, 0, 36132, 36436, 35844, 0},
     {0, 4, 4, 3, 0, 2, 3, 2, 0}, 18},
    {3, 1, 3, 27, 32203, 256320, 0x1.4cb57f1726263p-15,
     {0, 58244, 57812, 36532, 0, 34932, 36880, 35052, 0},
     {0, 8, 8, 7, 0, 6, 7, 6, 0}, 42},
    {3, 2, 1, 27, 32203, 257076, 0x1.8ee5247645c65p-16,
     {0, 57704, 58076, 36016, 0, 36132, 36436, 35844, 0},
     {0, 4, 4, 3, 0, 2, 3, 2, 0}, 30},
    {3, 2, 3, 27, 32203, 256320, 0x1.4cb57f1726263p-15,
     {0, 58244, 57812, 36532, 0, 34932, 36880, 35052, 0},
     {0, 8, 8, 7, 0, 6, 7, 6, 0}, 78},
    {1, 1, 1, 41, 25969, 0, 0x0p+0, {0}, {0}, 0},
    {1, 1, 3, 41, 25969, 0, 0x0p+0, {0}, {0}, 0},
    {1, 2, 1, 41, 25969, 0, 0x0p+0, {0}, {0}, 0},
    {1, 2, 3, 41, 25969, 0, 0x0p+0, {0}, {0}, 0},
    {2, 1, 1, 41, 25969, 259260, 0x1.b8df268e00ab9p-16, {0, 130224, 130800, 0}, {0, 5, 4, 0}, 9},
    {2, 1, 3, 41, 25969, 258620, 0x1.3ff2199e9dcb9p-15, {0, 129124, 131260, 0}, {0, 11, 10, 0}, 21},
    {2, 2, 1, 41, 25969, 259260, 0x1.b8df268e00ab9p-16, {0, 130224, 130800, 0}, {0, 5, 4, 0}, 15},
    {2, 2, 3, 41, 25969, 258620, 0x1.3ff2199e9dcb9p-15, {0, 129124, 131260, 0}, {0, 11, 10, 0}, 39},
    {3, 1, 1, 41, 25969, 345040, 0x1.0a4e04115407cp-15,
     {0, 77284, 77508, 48340, 0, 48460, 48560, 48020, 0},
     {0, 5, 5, 4, 0, 3, 4, 3, 0}, 24},
    {3, 1, 3, 41, 25969, 343960, 0x1.d2bac4d9dba06p-15,
     {0, 77904, 76908, 47820, 0, 48200, 49860, 46400, 0},
     {0, 11, 11, 10, 0, 9, 10, 9, 0}, 60},
    {3, 2, 1, 41, 25969, 345040, 0x1.0a4e04115407cp-15,
     {0, 77284, 77508, 48340, 0, 48460, 48560, 48020, 0},
     {0, 5, 5, 4, 0, 3, 4, 3, 0}, 42},
    {3, 2, 3, 41, 25969, 343960, 0x1.d2bac4d9dba08p-15,
     {0, 77904, 76908, 47820, 0, 48200, 49860, 46400, 0},
     {0, 11, 11, 10, 0, 9, 10, 9, 0}, 114},
};

void check_golden(int k, std::span<const std::uint32_t> golden_labels) {
  auto& f = fixture();
  IndexCreateOptions opt;
  opt.k = k;
  opt.m = 5;
  opt.target_chunks = 9;
  const DatasetIndex index = create_index("diff", f.files, true, opt);
  const std::vector<std::uint32_t> labels(golden_labels.begin(), golden_labels.end());
  int checked = 0;
  for (const GoldenCase& g : kGolden) {
    if (g.k != k) continue;
    ++checked;
    const std::string where = "P" + std::to_string(g.P) + " T" + std::to_string(g.T) + " S" +
                              std::to_string(g.S) + " k" + std::to_string(k);
    MetaprepConfig cfg;
    cfg.k = k;
    cfg.num_ranks = g.P;
    cfg.threads_per_rank = g.T;
    cfg.num_passes = g.S;
    cfg.write_output = false;
    const auto w1 = run_metaprep(index, cfg);
    EXPECT_EQ(w1.labels, labels) << where;
    EXPECT_EQ(w1.total_tuples, g.total_tuples) << where;
    EXPECT_EQ(w1.exchange_bytes, g.exchange_bytes) << where;
    EXPECT_EQ(w1.exchange_bytes_raw, g.exchange_bytes) << where;
    EXPECT_EQ(w1.traffic_matrix, g.traffic) << where;
    EXPECT_EQ(w1.message_matrix, g.messages) << where;
    EXPECT_NEAR(w1.sim_comm_seconds, g.sim_comm_seconds, 1e-12 * g.sim_comm_seconds) << where;

    // Fusion width 2 over the same fixed-tuple codec: same labels, tuples
    // and wire bytes, and no more messages than the old overlap scheduler.
    cfg.pipeline_mode = PipelineMode::kOverlap;
    const auto w2 = run_metaprep(index, cfg);
    EXPECT_EQ(w2.labels, labels) << where;
    EXPECT_EQ(w2.total_tuples, g.total_tuples) << where;
    EXPECT_EQ(w2.exchange_bytes, g.exchange_bytes) << where;
    EXPECT_LE(w2.message_count, g.overlap_message_count) << where;
  }
  EXPECT_EQ(checked, 12);
}

TEST(GoldenW1, K27MatchesRecordedBarrierSchedule) { check_golden(27, kGoldenLabelsK27); }

TEST(GoldenW1, K41MatchesRecordedBarrierSchedule) { check_golden(41, kGoldenLabelsK41); }

TEST(Differential, CompressModesAgreeTupleForTuple) {
  // The super-k-mer codec changes only the wire: it must enumerate the same
  // tuples and produce the same raw labels as fixed tuples (union-by-index
  // makes every root its component's largest read ID) while shipping
  // strictly fewer bytes.  The fixture is re-indexed as for GoldenW1; the
  // k = 41 leg expands wide records (expand128).
  auto& f = fixture();
  for (int k : {27, 41}) {
    IndexCreateOptions opt;
    opt.k = k;
    opt.m = 5;
    opt.target_chunks = 9;
    const DatasetIndex index = create_index("diff", f.files, true, opt);
    for (int S : {1, 2}) {
      for (auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
        const std::string where = "k=" + std::to_string(k) + " S=" + std::to_string(S) +
                                  (mode == PipelineMode::kOverlap ? " overlap" : " barrier");
        MetaprepConfig cfg;
        cfg.k = k;
        cfg.num_ranks = 4;
        cfg.threads_per_rank = 2;
        cfg.num_passes = S;
        cfg.pipeline_mode = mode;
        cfg.write_output = false;
        const auto none = run_metaprep(index, cfg);
        cfg.comm_compress = CommCompress::kSuperKmer;
        const auto sk = run_metaprep(index, cfg);

        EXPECT_EQ(sk.labels, none.labels) << where;
        EXPECT_EQ(sk.num_components, none.num_components) << where;
        EXPECT_EQ(sk.total_tuples, none.total_tuples) << where;
        EXPECT_EQ(none.exchange_bytes, none.exchange_bytes_raw) << where;
        EXPECT_LT(sk.exchange_bytes, sk.exchange_bytes_raw) << where;
        EXPECT_LT(sk.exchange_bytes, none.exchange_bytes) << where;
      }
    }
  }
}

/// The fixture's files indexed strictly at @p k while clean, then corrupted
/// in place (same bytes per record, mangled headers): the chunk histograms
/// count records that lenient KmerGen parsing skips, so the fixed-tuple codec
/// must pad the gaps with sentinel tuples.
struct SentinelFixture {
  TempDir dir;
  DatasetIndex index;

  explicit SentinelFixture(int k) {
    const auto corrupt = corrupt_copy(fixture().files, dir);
    std::vector<std::string> files;
    for (std::size_t fi = 0; fi < corrupt.size(); ++fi) {
      files.push_back(dir.file("gap_" + std::to_string(fi) + ".fastq"));
      std::filesystem::copy_file(fixture().files[fi], files.back());
    }
    IndexCreateOptions opt;
    opt.k = k;
    opt.m = 5;
    opt.target_chunks = 9;
    index = create_index("diff", files, true, opt);
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      std::filesystem::copy_file(corrupt[fi], files[fi],
                                 std::filesystem::copy_options::overwrite_existing);
    }
  }
};

TEST(Differential, ModesAgreeTupleForTuple) {
  // Beyond the partition: both fusion widths must enumerate the same tuples,
  // ship the same bytes and produce the same raw labels (union-by-index makes
  // every root its component's largest read ID), from either read store and
  // under either codec.  The lenient leg forces sentinel tuples; both widths
  // key them by the slot's first bin.  With m = 5, k = 33 and k = 63 place
  // that bin at bit 56 and bit 116 of the 128-bit key, one on each side of
  // the word boundary, and run the packed Kmer128 scan.
  auto& f = fixture();
  for (int k : {kK, 33, 63}) {
    IndexCreateOptions opt;
    opt.k = k;
    opt.m = 5;
    opt.target_chunks = 9;
    const DatasetIndex clean = create_index("diff", f.files, true, opt);
    const SentinelFixture gaps(k);
    for (const bool lenient : {false, true}) {
      const DatasetIndex& index = lenient ? gaps.index : clean;
      const io::ParseMode parse = lenient ? io::ParseMode::kLenient : io::ParseMode::kStrict;
      const std::vector<std::uint32_t> reference =
          k == kK && !lenient
              ? f.oracle
              : test::normalize_partition(reference_components(index, KmerFreqFilter{}, parse));
      for (int S : {1, 2}) {
        std::vector<std::uint32_t> first_labels;
        std::uint64_t strict_tuples = 0;
        for (auto codec : {CommCompress::kNone, CommCompress::kSuperKmer}) {
          std::uint64_t text_tuples = 0, text_bytes = 0;
          for (auto store : {ReadStore::kText, ReadStore::kPacked}) {
            MetaprepConfig cfg;
            cfg.k = k;
            cfg.num_ranks = 2;
            cfg.threads_per_rank = 2;
            cfg.num_passes = S;
            cfg.write_output = false;
            cfg.parse_mode = parse;
            cfg.comm_compress = codec;
            cfg.read_store = store;
            const std::string where =
                "k=" + std::to_string(k) + (lenient ? " lenient S=" : " strict S=") +
                std::to_string(S) + (codec == CommCompress::kNone ? " fixed" : " superkmer") +
                (store == ReadStore::kText ? " text" : " packed");
            const auto barrier = run_metaprep(index, cfg);
            cfg.pipeline_mode = PipelineMode::kOverlap;
            const auto overlap = run_metaprep(index, cfg);
            EXPECT_EQ(overlap.total_tuples, barrier.total_tuples) << where;
            EXPECT_EQ(overlap.exchange_bytes, barrier.exchange_bytes) << where;
            EXPECT_EQ(overlap.num_components, barrier.num_components) << where;
            EXPECT_EQ(overlap.labels, barrier.labels) << where;
            EXPECT_EQ(overlap.records_skipped, barrier.records_skipped) << where;
            // Skipped records are what forces the sentinels; the partition
            // still matches the brute-force reference under the same parse
            // mode.
            if (lenient) {
              EXPECT_GT(barrier.records_skipped, 0u) << where;
            }
            EXPECT_EQ(test::normalize_partition(barrier.labels), reference) << where;
            // The store changes only where the bases come from; the codec
            // only the wire (fixed tuples also count sentinels as tuples).
            if (store == ReadStore::kText) {
              text_tuples = barrier.total_tuples;
              text_bytes = barrier.exchange_bytes;
            } else {
              EXPECT_EQ(barrier.total_tuples, text_tuples) << where;
              EXPECT_EQ(barrier.exchange_bytes, text_bytes) << where;
            }
            if (first_labels.empty()) {
              first_labels = barrier.labels;
              strict_tuples = barrier.total_tuples;
            } else {
              EXPECT_EQ(barrier.labels, first_labels) << where;
              if (!lenient) {
                EXPECT_EQ(barrier.total_tuples, strict_tuples) << where;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Differential, RealKmerAtSentinelKeyJoinsReads) {
  // Lenient-mode sentinels are keyed by their slot's first bin, so slot 0's
  // sentinel is the poly-A k-mer.  The first and last reads of a single-end
  // file share only that k-mer.  The index is built from the clean file,
  // then a poly-A record between the two reads loses its header: the run
  // skips it and pads its slot-0 tuples with sentinels.  The two reads must
  // still join, at every P x T and both fusion widths, and a --filter-max 2
  // leg must count their two real tuples, not the sentinels.
  for (const int k : {kK, 33}) {
    TempDir dir;
    util::Xoshiro256 rng(7000 + static_cast<std::uint64_t>(k));
    auto bases = [&](std::size_t n) {
      std::string s;
      for (std::size_t i = 0; i < n; ++i) s += "ACGT"[rng.next_below(4)];
      return s;
    };
    const std::string poly_a(static_cast<std::size_t>(k), 'A');
    std::vector<std::string> seqs;
    seqs.push_back(bases(20) + "G" + poly_a + "C" + bases(20));
    for (int i = 0; i < 40; ++i) seqs.push_back(i == 20 ? poly_a + poly_a : bases(70));
    seqs.push_back(bases(20) + "C" + poly_a + "G" + bases(20));
    const std::uint32_t last = static_cast<std::uint32_t>(seqs.size() - 1);

    const std::string path = dir.file("polya.fastq");
    auto write = [&](bool mangle) {
      std::ofstream os(path, std::ios::trunc);
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        os << (mangle && i == 21 ? "#" : "@") << "r" << i << "\n"
           << seqs[i] << "\n+\n" << std::string(seqs[i].size(), 'I') << "\n";
      }
    };
    write(false);
    IndexCreateOptions opt;
    opt.k = k;
    opt.m = 5;
    opt.target_chunks = 6;
    const DatasetIndex index = create_index("polya", {path}, false, opt);
    write(true);

    for (const std::uint32_t max_freq : {0xFFFFFFFFu, 2u}) {
      const KmerFreqFilter filter{0, max_freq};
      const std::vector<std::uint32_t> reference =
          reference_components(index, filter, io::ParseMode::kLenient);
      ASSERT_EQ(reference[0], reference[last]) << "k=" << k;
      for (const int P : {1, 2}) {
        for (const int T : {1, 2}) {
          for (const auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
            const std::string where =
                "k=" + std::to_string(k) + " P=" + std::to_string(P) + " T=" +
                std::to_string(T) + (mode == PipelineMode::kOverlap ? " W=2" : " W=1") +
                " filter-max=" + std::to_string(max_freq);
            MetaprepConfig cfg;
            cfg.k = k;
            cfg.num_ranks = P;
            cfg.threads_per_rank = T;
            cfg.num_passes = 2;
            cfg.pipeline_mode = mode;
            cfg.parse_mode = io::ParseMode::kLenient;
            cfg.filter = filter;
            cfg.write_output = false;
            const auto result = run_metaprep(index, cfg);
            EXPECT_EQ(result.records_skipped, 1u) << where;
            EXPECT_EQ(result.labels[0], result.labels[last]) << where;
            EXPECT_EQ(test::normalize_partition(result.labels),
                      test::normalize_partition(reference))
                << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace metaprep::core
