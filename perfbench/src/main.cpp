// METAPREP benchmark driver.
//
//   perfbench --workload <xl-raw|xl-superkmer|ll-fixedcost> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// One run generates the workload's dataset from the seed, times IndexCreate
// (setup), computes the reference partition once, then calls
// core::run_metaprep repeatedly for --seconds with tracing off, checking
// every partition against the reference.  With --trace 1 it also makes one
// traced pipeline call and times each layer's public functions on the same
// data.  Human-readable lines come first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <fcntl.h>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/index_create.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "sim/presets.hpp"
#include "util/memusage.hpp"
#include "util/timer.hpp"

namespace {

namespace core = metaprep::core;
namespace sim = metaprep::sim;
namespace util = metaprep::util;
using perfbench::kMiB;
using perfbench::MetricList;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

constexpr int kRanks = 2;
constexpr int kThreads = 2;
constexpr int kK = 27;
/// IndexCreate repeats at least kSetupMinReps times and until it has run
/// kSetupMinSeconds in total; setup_s is the median.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 50;
constexpr double kSetupMinSeconds = 3.0;
/// Timed pipeline calls per run, at least (the run also lasts --seconds).
constexpr std::size_t kMinSamples = 3;

struct Workload {
  const char* name;
  sim::Preset preset;
  double scale;  ///< preset scale (read count and genome length together)
  int m;
  std::uint32_t chunks;
  int passes;
  core::PipelineMode mode;
  core::ReadStore store;
  core::CommCompress compress;
  int output_bins;  ///< 0 = no output written
};

// Why each workload exists is recorded in README.md.
const Workload kWorkloads[] = {
    {"xl-raw", sim::Preset::XL, 1.0, 8, 48, 2, core::PipelineMode::kBarrier, core::ReadStore::kText,
     core::CommCompress::kNone, 0},
    {"xl-superkmer", sim::Preset::XL, 0.35, 8, 48, 2, core::PipelineMode::kOverlap,
     core::ReadStore::kPacked, core::CommCompress::kSuperKmer, 0},
    {"ll-fixedcost", sim::Preset::LL, 1.0, 10, 384, 8, core::PipelineMode::kBarrier,
     core::ReadStore::kText, core::CommCompress::kNone, 4},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val);
      } else if (key == "--work-dir") {
        a.work_dir = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  }
  return a;
}

/// SplitMix64 step: independent genome and read seeds from one run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS; false when
/// /proc/self/clear_refs is not writable.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Highest whole percentile that still has at least ten samples above it
/// (-1 when the sample is too small for any).
int tail_percentile(std::size_t n) {
  if (n <= 10) return -1;
  return static_cast<int>(100 * (n - 10) / n);
}

core::MetaprepConfig make_config(const Workload& w, const std::string& out_dir) {
  core::MetaprepConfig c;
  c.k = kK;
  c.num_ranks = kRanks;
  c.threads_per_rank = kThreads;
  c.num_passes = w.passes;
  c.pipeline_mode = w.mode;
  c.read_store = w.store;
  c.comm_compress = w.compress;
  c.output_bins = w.output_bins;
  c.write_output = w.output_bins > 0;
  c.output_dir = out_dir;
  return c;
}

void print_metrics(const char* title, const MetricList& m) {
  std::printf("%s\n", title);
  for (const auto& x : m.all()) {
    std::printf("  %-36s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
}

std::string metrics_json(const MetricList& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& x : m.all()) {
    os << (first ? "" : ", ") << perfbench::json_string(x.name)
       << ": {\"value\": " << perfbench::json_number(x.value)
       << ", \"unit\": " << perfbench::json_string(x.unit) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

/// Phase name in PipelineResult::step_times -> per-layer metric name.
const std::map<std::string, std::string>& phase_metrics() {
  static const std::map<std::string, std::string> m{
      {"KmerGen-I/O", "core.kmergen_io_s"}, {"KmerGen", "core.kmergen_s"},
      {"KmerGen-Comm", "core.kmergen_comm_s"}, {"LocalSort", "core.localsort_s"},
      {"LocalCC", "core.localcc_s"},       {"Merge-Comm", "core.merge_comm_s"},
      {"MergeCC", "core.mergecc_s"},       {"CC-I/O", "core.ccio_s"},
      {"PackedIngest", "core.packed_ingest_s"}, {"Expand", "core.expand_s"}};
  return m;
}

/// The per-layer metrics of the result line: every one is measured on every
/// workload.  Phases a workload bypasses (KmerGen-I/O on the packed store,
/// CC-I/O without output, PackedIngest and Expand on the raw path) read 0
/// there, so they are printed and recorded but kept out of the result line.
constexpr const char* kResultLayerMetrics[] = {
    "core.kmergen_s", "core.kmergen_comm_s", "core.localsort_s", "core.localcc_s",
    "core.merge_comm_s", "core.mergecc_s", "core.unattributed_s", "core.passes", "core.tuples",
    "core.tuple_buffer_mb", "index.chunking_s", "index.histogram_s", "index.hist_mb",
    "io.parse_mb_per_s", "io.packed_ingest_s", "io.packed_store_mb", "kmer.scan_mkmers_per_s",
    "kmer.scan_packed_mkmers_per_s", "kmer.superkmer_encode_mkmers_per_s",
    "kmer.superkmer_decode_mkmers_per_s", "kmer.superkmer_bytes_per_kmer",
    "sort.radix_mkeys_per_s", "dsu.unite_medges_per_s", "dsu.cc_iterations",
    "mpsim.alltoallv_gb_per_s", "mpsim.exchange_mb", "mpsim.exchange_ratio", "mpsim.messages",
    "mpsim.merge_comm_mb", "mpsim.label_scatter_mb", "part.bin_pack_s", "part.bin_skew",
    "attr.crit_path_s", "attr.crit_wait_s", "trace.overhead_s"};

MetricList result_layers(const MetricList& layers) {
  MetricList out;
  for (const char* name : kResultLayerMetrics) {
    if (const perfbench::Metric* m = layers.find(name)) out.set(m->name, m->value, m->unit);
  }
  return out;
}

/// What a pipeline call sends back from its child process.
using Report = std::map<std::string, double>;

struct Outcome {
  bool ok = false;
  std::string why;  ///< failure reason when !ok
  Report report;
};

/// Run @p body in a forked child and collect the report it fills.  Every
/// call then starts from the same parent state: peak RSS and timings do not
/// depend on what earlier calls left in the allocator, and a crash is one
/// failed call rather than a failed run.  The parent must be single-threaded
/// here (every earlier pipeline thread has been joined).
Outcome run_isolated(const std::function<void(Report&)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string msg;
    try {
      Report r;
      body(r);
      for (const auto& [k, v] : r) msg += k + " " + perfbench::json_number(v) + "\n";
    } catch (const std::exception& e) {
      msg = std::string("error ") + e.what() + "\n";
    }
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n = ::write(fds[1], msg.data() + off, msg.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::_exit(off == msg.size() ? 0 : 1);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Outcome o;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    o.why = "child process ended abnormally (status " + std::to_string(status) + ")";
    return o;
  }
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    if (key == "error") {
      o.why = line.substr(sp + 1);
      return o;
    }
    o.report[key] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  o.ok = o.report.count("wall_s") != 0;
  if (!o.ok) o.why = "child sent no result";
  return o;
}

/// Result fields the driver reads, as report entries.  The traced call also
/// sends every phase time and what the layer probes need.
void report_result(const core::PipelineResult& res, bool traced, Report& r) {
  r["sim_comm_s"] = res.sim_comm_seconds;
  if (!traced) return;
  for (const auto& [step, v] : res.step_times.map()) r["phase." + step] = v;
  r["passes"] = res.passes_used;
  r["tuples"] = static_cast<double>(res.total_tuples);
  r["tuple_buffer_bytes"] = static_cast<double>(res.max_tuple_buffer_bytes);
  r["crit_path_s"] = res.has_attr ? res.attr.critical_path.length_s : 0.0;
  r["crit_wait_s"] = res.has_attr ? res.attr.critical_path.wait_s : 0.0;
  r["exchange_bytes"] = static_cast<double>(res.exchange_bytes);
  r["exchange_bytes_raw"] = static_cast<double>(res.exchange_bytes_raw);
  r["message_count"] = static_cast<double>(res.message_count);
  r["merge_comm_bytes"] = static_cast<double>(res.merge_comm_bytes);
  r["label_scatter_bytes"] = static_cast<double>(res.label_scatter_bytes);
  for (std::size_t i = 0; i < res.traffic_matrix.size(); ++i) {
    r["traffic." + std::to_string(i)] = static_cast<double>(res.traffic_matrix[i]);
  }
}

/// The traced call's result, rebuilt from its report for the layer probes.
core::PipelineResult result_from_report(const Report& r, int ranks) {
  auto u64 = [&](const char* key) { return static_cast<std::uint64_t>(r.at(key)); };
  core::PipelineResult res;
  res.passes_used = static_cast<int>(r.at("passes"));
  res.exchange_bytes = u64("exchange_bytes");
  res.exchange_bytes_raw = u64("exchange_bytes_raw");
  res.message_count = u64("message_count");
  res.merge_comm_bytes = u64("merge_comm_bytes");
  res.label_scatter_bytes = u64("label_scatter_bytes");
  for (int i = 0; i < ranks * ranks; ++i) {
    res.traffic_matrix.push_back(
        static_cast<std::uint64_t>(r.at("traffic." + std::to_string(i))));
  }
  return res;
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage("unknown workload " + args.workload);

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args.work_dir) / (std::string(wl->name) + "-" +
                                                  std::to_string(args.seed));
  fs::remove_all(dir);
  fs::create_directories(dir / "out");
  struct Cleanup {
    fs::path p;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(p, ec);
    }
  } cleanup{dir};

  std::printf("perfbench-host %s\n", perfbench::host_fingerprint_json().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d (P=%d T=%d k=%d)\n", wl->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace, kRanks,
              kThreads, kK);
  std::fflush(stdout);

  SpanRecorder spans;
  const int root_span = spans.open("perfbench");

  // ---- Inputs: the preset's dataset, drawn from the run seed. ----
  sim::DatasetConfig dcfg = sim::preset_config(wl->preset, wl->scale);
  dcfg.genomes.seed = derive_seed(args.seed, 0);
  dcfg.reads.seed = derive_seed(args.seed, 1);
  sim::SimulatedDataset data;
  {
    ScopedSpan s(spans, "sim.simulate_dataset");
    data = sim::simulate_dataset(dcfg, (dir / dcfg.name).string());
    // Flush the new FASTQ so kernel writeback does not land inside setup.
    for (const std::string& f : data.files) {
      const int fd = ::open(f.c_str(), O_RDONLY);
      if (fd < 0 || ::fsync(fd) != 0) throw std::runtime_error("cannot flush " + f);
      ::close(fd);
    }
  }

  // ---- Setup: IndexCreate, several times, each in a fresh child (as a
  // one-shot `metaprep_cli index` would run); setup_s is the median.  The
  // driver then builds its own copy, untimed, for the calls below. ----
  core::IndexCreateOptions iopt;
  iopt.k = kK;
  iopt.m = wl->m;
  iopt.target_chunks = wl->chunks;
  std::vector<double> setup_s;
  std::vector<double> chunking_s;
  std::vector<double> histogram_s;
  util::WallTimer setup_total;
  while (static_cast<int>(setup_s.size()) < kSetupMinReps ||
         (setup_total.seconds() < kSetupMinSeconds &&
          static_cast<int>(setup_s.size()) < kSetupMaxReps)) {
    ScopedSpan s(spans, "core.create_index");
    const Outcome o = run_isolated([&](Report& r) {
      core::IndexCreateTiming timing;
      util::WallTimer t;
      const core::DatasetIndex built =
          core::create_index(dcfg.name, data.files, /*paired=*/true, iopt, &timing);
      r["wall_s"] = t.seconds();
      r["chunking_s"] = timing.chunking_seconds;
      r["histogram_s"] = timing.histogram_seconds;
    });
    if (!o.ok) throw std::runtime_error("create_index failed: " + o.why);
    setup_s.push_back(o.report.at("wall_s"));
    chunking_s.push_back(o.report.at("chunking_s"));
    histogram_s.push_back(o.report.at("histogram_s"));
  }
  core::DatasetIndex index;
  {
    ScopedSpan s(spans, "core.create_index (driver copy)");
    index = core::create_index(dcfg.name, data.files, /*paired=*/true, iopt);
  }

  // ---- Oracle, outside all timing. ----
  perfbench::Oracle oracle;
  {
    ScopedSpan s(spans, "core.reference_components");
    oracle = perfbench::make_oracle(index);
  }
  const std::string self_test = perfbench::checker_self_test(oracle);
  if (!self_test.empty()) {
    std::fprintf(stderr, "perfbench: checker self-test failed: %s\n", self_test.c_str());
    return 3;
  }
  std::printf("dataset %s: %u pairs, %.3f Mbp, %u chunks; oracle %llu components, "
              "largest %llu; checker self-test ok\n",
              dcfg.name.c_str(), index.total_reads,
              static_cast<double>(index.total_bases) / 1e6, index.part.num_chunks(),
              static_cast<unsigned long long>(oracle.num_components),
              static_cast<unsigned long long>(oracle.largest_size));
  std::fflush(stdout);

  const core::MetaprepConfig config = make_config(*wl, (dir / "out").string());

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // One checked pipeline call in a child process; returns its report, or
  // nullopt (counted in `failed`) when it threw, crashed or mismatched.
  auto call = [&](const core::MetaprepConfig& cfg, bool traced) -> std::optional<Report> {
    ++attempted;
    ScopedSpan span(spans, traced ? "core.run_metaprep (traced)" : "core.run_metaprep");
    Outcome o = run_isolated([&](Report& r) {
      core::MetaprepConfig run_cfg = cfg;
      metaprep::obs::TraceSession session;
      if (traced) {
        session.enable();
        run_cfg.trace_session = &session;
      }
      if (!reset_peak_rss()) throw std::runtime_error("cannot write /proc/self/clear_refs");
      util::WallTimer t;
      const core::PipelineResult res = core::run_metaprep(index, run_cfg);
      r["wall_s"] = t.seconds();
      r["peak_mib"] = static_cast<double>(util::peak_rss_bytes()) / kMiB;
      const perfbench::PartitionCheck c = perfbench::check_result(res, oracle);
      if (!c.ok) throw std::runtime_error("partition mismatch: " + c.why);
      report_result(res, traced, r);
    });
    if (!o.ok) {
      ++failed;
      std::printf("FAILED: %s\n", o.why.c_str());
      return std::nullopt;
    }
    return std::move(o.report);
  };

  // ---- The timed loop: --seconds of calls, and never fewer than
  // kMinSamples so one stalled call cannot move the median.  There is no
  // warm-up call: each call runs in a fresh child of the same parent state
  // (see README.md). ----
  malloc_trim(0);  // children start from live data, not the oracle's freed map
  const double parent_rss_mib = static_cast<double>(util::current_rss_bytes()) / kMiB;
  std::vector<double> part_s;
  std::vector<double> peak_mib;
  std::vector<double> comm_s;
  util::WallTimer measure;
  while (measure.seconds() < args.seconds || part_s.size() < kMinSamples) {
    if (const std::optional<Report> r = call(config, false)) {
      part_s.push_back(r->at("wall_s"));
      peak_mib.push_back(r->at("peak_mib"));
      comm_s.push_back(r->at("sim_comm_s"));
    }
    if (failed >= 3) break;
  }
  std::printf("partition_s samples:");
  for (const double v : part_s) std::printf(" %.4f", v);
  std::printf("\npeak_rss_mb samples:");
  for (const double v : peak_mib) std::printf(" %.1f", v);
  std::printf("\n");

  MetricList e2e;
  const double part_med = perfbench::median(part_s);
  e2e.set("partition_s", part_med, "s");
  e2e.set("partition_mbp_per_s",
          part_med > 0 ? static_cast<double>(index.total_bases) / 1e6 / part_med : 0.0, "Mbp/s");
  e2e.set("setup_s", perfbench::median(setup_s), "s");
  e2e.set("peak_rss_mb", perfbench::median(peak_mib), "MiB");
  e2e.set("sim_comm_s", perfbench::median(comm_s), "s");

  MetricList extra;  // printed and recorded, not part of the result line
  extra.set("failed_share", static_cast<double>(failed) / static_cast<double>(attempted),
            "ratio");
  extra.set("partition_samples", static_cast<double>(part_s.size()), "count");
  const int pct = tail_percentile(part_s.size());
  if (pct >= 0) {
    extra.set("partition_s.p" + std::to_string(pct), perfbench::quantile(part_s, pct / 100.0),
              "s");
  }
  extra.set("input_mbp", static_cast<double>(index.total_bases) / 1e6, "Mbp");
  extra.set("driver_rss_mb", parent_rss_mib, "MiB");

  MetricList layers;
  if (args.trace == 1) {
    // ---- One traced pipeline call (the program's own spans on), then the
    // per-layer probes on the same data. ----
    if (const std::optional<Report> r = call(config, true)) {
      const Report& t = *r;
      const double traced_s = t.at("wall_s");
      double phases = 0.0;
      for (const auto& [step, name] : phase_metrics()) layers.set(name, 0.0, "s");
      for (const auto& [key, v] : t) {
        if (key.rfind("phase.", 0) != 0) continue;
        const std::string step = key.substr(6);
        phases += v;
        const auto it = phase_metrics().find(step);
        if (it != phase_metrics().end()) {
          layers.set(it->second, v, "s");
        } else {
          std::printf("note: unmapped phase %s %.6f s\n", step.c_str(), v);
        }
      }
      layers.set("core.traced_partition_s", traced_s, "s");
      // Not clamped: under the overlap schedule phases run concurrently, so
      // their sum exceeds the wall and this reads negative.
      layers.set("core.unattributed_s", traced_s - phases, "s");
      layers.set("core.phase_sum_s", phases, "s");
      layers.set("core.passes", t.at("passes"), "count");
      layers.set("core.tuples", t.at("tuples"), "count");
      layers.set("core.tuple_buffer_mb", t.at("tuple_buffer_bytes") / kMiB, "MiB");
      layers.set("attr.crit_path_s", t.at("crit_path_s"), "s");
      layers.set("attr.crit_wait_s", t.at("crit_wait_s"), "s");
      layers.set("trace.overhead_s", traced_s - part_med, "s");
      layers.set("index.chunking_s", perfbench::median(chunking_s), "s");
      layers.set("index.histogram_s", perfbench::median(histogram_s), "s");
      layers.set("index.hist_mb",
                 static_cast<double>(index.part.histograms.size()) * sizeof(std::uint32_t) / kMiB,
                 "MiB");
      const core::PipelineResult traced = result_from_report(t, kRanks);
      perfbench::run_layer_probes({index, config, traced, oracle.labels}, spans, layers);
    }
  }

  spans.close(root_span);
  const std::string spans_path =
      (fs::path(args.work_dir) / (std::string(wl->name) + "-" + std::to_string(args.seed) +
                                  "-trace" + std::to_string(args.trace) + ".spans.json"))
          .string();
  spans.write_chrome_json(spans_path);

  print_metrics("end-to-end (tracing off):", e2e);
  print_metrics("run facts:", extra);
  if (args.trace == 1) print_metrics("per-layer (traced run and probes):", layers);
  std::printf("driver spans: %s\n", spans_path.c_str());

  MetricList all = e2e;
  for (const auto* list : {&extra, &layers}) {
    for (const auto& x : list->all()) all.set(x.name, x.value, x.unit);
  }
  std::printf("perfbench-record {\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"host\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              perfbench::json_string(wl->name).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace,
              perfbench::host_fingerprint_json().c_str(),
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              metrics_json(all).c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace == 1 ? result_layers(layers) : e2e).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
