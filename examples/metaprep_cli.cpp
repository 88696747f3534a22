// metaprep_cli: the command-line front end for real FASTQ data.  Run it with
// no arguments for every subcommand's flags; `run` and `daemon submit` take
// the run fields of core/run_fields.hpp.
//
//   index     build and save the merHist/FASTQPart index of FASTQ files
//   run       run the preprocessing pipeline on an index (--verify compares
//             with a brute-force reference, for small datasets only)
//   sim       write a synthetic Table 2 dataset (src/sim/presets.hpp)
//   info      print index statistics and the memory-model table
//   diginorm  digital normalization (the companion Howe et al. strategy)
//   daemon    one request to a running metaprepd (tools/metaprepd); prints
//             its one-line JSON response
//
// Every subcommand rejects a flag outside its documented set, and a
// malformed or out-of-range value, with a [config] error naming the flag.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "core/index_create.hpp"
#include "core/manifest.hpp"
#include "core/memory_model.hpp"
#include "core/pipeline.hpp"
#include "core/run_fields.hpp"
#include "norm/diginorm.hpp"
#include "serve/proto.hpp"
#include "sim/presets.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/table.hpp"

namespace {

using namespace metaprep;

int usage() {
  std::fprintf(stderr,
               "usage: metaprep_cli index --out=INDEX.bin [--k --m --chunks --single-end "
               "--parse-mode=strict|lenient] FASTQ...\n"
               "       metaprep_cli run --index=INDEX.bin [run fields] [--verify --progress "
               "--fault-seed=N --fault-read-rate=P --fault-corrupt-rate=P "
               "--fault-comm-drop-rate=P --fault-comm-delay-rate=P]\n"
               "       metaprep_cli sim --out=DIR [--preset=HG|LL|MM|IS|XL --sim-scale=S]\n"
               "       metaprep_cli info --index=INDEX.bin [--ranks --threads]\n"
               "       metaprep_cli diginorm --out=PREFIX [--k --cutoff] R1.fastq R2.fastq\n"
               "       metaprep_cli daemon ping|submit|status|cancel|fetch|list|pause|resume|"
               "shutdown --socket=SOCK\n"
               "           submit: --index=INDEX.bin [run fields] [--priority=N]\n"
               "           status|cancel|fetch: --job=N  (status: [--wait[=SECONDS]])\n"
               "run fields (JSON key: the flag with '-' -> '_'):\n%s",
               core::run_fields_usage().c_str());
  return 2;
}

/// The run field @p name from @p args, or its table default.
core::FieldValue run_flag(const util::Args& args, std::string_view name) {
  const core::RunField& f = *core::find_run_field(name);
  return core::parse_field(f, args.get(std::string(name), std::string(f.default_value)));
}

/// Arm the global FaultPlan from --fault-* flags; returns true if any rate
/// is nonzero (the caller reports the injected-fault tally after the run).
bool arm_fault_plan(const util::Args& args) {
  util::FaultPlanConfig fp;
  fp.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
  fp.transient_read_rate = args.get_double("fault-read-rate", 0.0);
  fp.corrupt_rate = args.get_double("fault-corrupt-rate", 0.0);
  fp.comm_drop_rate = args.get_double("fault-comm-drop-rate", 0.0);
  fp.comm_delay_rate = args.get_double("fault-comm-delay-rate", 0.0);
  for (double rate : {fp.transient_read_rate, fp.corrupt_rate, fp.comm_drop_rate,
                      fp.comm_delay_rate}) {
    if (rate < 0.0 || rate > 1.0)
      throw util::config_error("--fault-* rates must be in [0, 1]");
  }
  if (fp.transient_read_rate == 0.0 && fp.corrupt_rate == 0.0 && fp.comm_drop_rate == 0.0 &&
      fp.comm_delay_rate == 0.0)
    return false;
  util::FaultPlan::global().arm(fp);
  return true;
}

int cmd_diginorm(const util::Args& args) {
  args.reject_unknown("diginorm", {"out", "k", "cutoff"});
  if (args.positional().size() != 3 || !args.has("out")) return usage();
  norm::DiginormOptions opt;
  opt.k = static_cast<int>(args.get_int("k", 20));
  opt.cutoff = static_cast<std::uint32_t>(args.get_int("cutoff", 20));
  const auto stats = norm::normalize_fastq_pair(args.positional()[1], args.positional()[2],
                                                args.get("out", ""), opt);
  std::printf("diginorm C=%u k=%d: kept %llu / %llu pairs (%.1f%%)\n", opt.cutoff, opt.k,
              static_cast<unsigned long long>(stats.pairs_kept),
              static_cast<unsigned long long>(stats.pairs_in),
              stats.keep_fraction() * 100.0);
  return 0;
}

/// One line on how the FASTQPart rows are stored (dense or sparse).
void print_fastq_part_storage(const core::FastqPartTable& part) {
  std::uint32_t dense = 0;
  for (std::uint32_t c = 0; c < part.num_chunks(); ++c) dense += part.dense(c) ? 1 : 0;
  std::printf("FASTQPart: %u rows (%u dense, %u sparse), %.2f MiB stored\n", part.num_chunks(),
              dense, part.num_chunks() - dense,
              static_cast<double>(part.stored_bytes()) / (1024.0 * 1024.0));
}

int cmd_index(const util::Args& args) {
  args.reject_unknown("index", {"out", "k", "m", "chunks", "single-end", "parse-mode"});
  if (args.positional().size() < 2 || !args.has("out")) return usage();
  const std::vector<std::string> files(args.positional().begin() + 1,
                                       args.positional().end());
  core::IndexCreateOptions opt;
  opt.k = static_cast<int>(args.get_int("k", 27));
  opt.m = static_cast<int>(args.get_int("m", 10));
  opt.target_chunks = static_cast<std::uint32_t>(args.get_int("chunks", 384));
  opt.parse_mode = static_cast<io::ParseMode>(run_flag(args, "parse-mode").i);
  const bool paired = !args.has("single-end");
  core::IndexCreateTiming timing;
  const auto index = core::create_index(
      std::filesystem::path(files[0]).stem().string(), files, paired, opt, &timing);
  core::save_index(index, args.get("out", ""));
  std::printf("Indexed %u reads (%0.2f Mbp) into %u chunks; chunking %.2f s, "
              "histograms %.2f s. Saved to %s\n",
              index.total_reads, static_cast<double>(index.total_bases) / 1e6,
              index.part.num_chunks(), timing.chunking_seconds, timing.histogram_seconds,
              args.get("out", "").c_str());
  print_fastq_part_storage(index.part);
  return 0;
}

int cmd_run(const util::Args& args) {
  core::MetaprepConfig cfg = core::default_run_config();
  core::apply_run_args(cfg, args, "run",
                       {"index", "verify", "progress", "fault-seed", "fault-read-rate",
                        "fault-corrupt-rate", "fault-comm-drop-rate", "fault-comm-delay-rate"});
  if (!args.has("index")) return usage();
  const auto index = core::load_index(args.get("index", ""));
  cfg.k = index.k;
  cfg.progress = args.has("progress");
  std::filesystem::create_directories(cfg.output_dir);
  const bool faults_armed = arm_fault_plan(args);

  const auto result = core::run_metaprep(index, cfg);
  if (faults_armed) {
    const auto fc = util::FaultPlan::global().counters();
    std::printf("fault injection: %llu transient read faults, %llu chunks corrupted, "
                "%llu deliveries dropped, %llu delayed\n",
                static_cast<unsigned long long>(fc.read_faults),
                static_cast<unsigned long long>(fc.chunks_corrupted),
                static_cast<unsigned long long>(fc.comm_drops),
                static_cast<unsigned long long>(fc.comm_delays));
    util::FaultPlan::global().disarm();
  }
  std::printf("Partitioned %u reads into %llu components using %d pass(es); largest "
              "component: %llu reads (%.1f%%).\n",
              result.num_reads, static_cast<unsigned long long>(result.num_components),
              result.passes_used, static_cast<unsigned long long>(result.largest_size),
              result.largest_fraction * 100.0);
  if (cfg.comm_compress != core::CommCompress::kNone) {
    std::printf("exchange: %llu bytes shipped (%llu raw, ratio %.3f), "
                "%llu super-k-mer records\n",
                static_cast<unsigned long long>(result.exchange_bytes),
                static_cast<unsigned long long>(result.exchange_bytes_raw),
                result.superkmer_ratio,
                static_cast<unsigned long long>(result.superkmer_records));
  }
  util::TablePrinter table({"Step", "ms (max over ranks)"});
  for (const auto& [step, seconds] : result.step_times.map()) {
    table.add_row({step, util::TablePrinter::fmt(seconds * 1e3, 2)});
  }
  table.print();
  if (args.has("verify")) {
    const auto reference = core::reference_components(index, cfg.filter, cfg.parse_mode);
    // The same partition iff (ours, reference) label pairs form a bijection.
    std::map<std::uint32_t, std::uint32_t> fwd, back;
    bool same = result.labels.size() == reference.size();
    for (std::size_t i = 0; same && i < reference.size(); ++i) {
      same = fwd.try_emplace(result.labels[i], reference[i]).first->second == reference[i] &&
             back.try_emplace(reference[i], result.labels[i]).first->second == result.labels[i];
    }
    if (same) {
      std::printf("verify: OK — partition matches the brute-force reference.\n");
    } else {
      std::printf("verify: MISMATCH against the brute-force reference!\n");
      return 1;
    }
  }
  if (cfg.write_output) {
    const auto manifest = core::build_manifest(index, result, cfg.parse_mode);
    core::save_manifest(manifest, cfg.output_dir + "/manifest.tsv");
    std::printf("%zu output FASTQ files under %s (see manifest.tsv)\n",
                result.output_files.size(), cfg.output_dir.c_str());
    if (!result.bin_manifest_path.empty()) {
      std::printf("binned into %zu partitions (skew %.3f); manifest: %s\n",
                  result.bin_reads.size(), result.bin_skew,
                  result.bin_manifest_path.c_str());
    }
  }
  return 0;
}

int cmd_sim(const util::Args& args) {
  args.reject_unknown("sim", {"out", "preset", "sim-scale"});
  if (!args.has("out")) return usage();
  const sim::Preset preset = sim::parse_preset(args.get("preset", "HG"));
  const double scale = args.get_double("sim-scale", 0.05);
  const std::string dir = args.get("out", ".");
  std::filesystem::create_directories(dir);
  const auto ds = sim::make_preset(preset, scale, dir);
  std::printf("simulated %s at scale %g: %llu pairs, %llu bases\n", ds.name.c_str(), scale,
              static_cast<unsigned long long>(ds.num_pairs),
              static_cast<unsigned long long>(ds.total_bases));
  for (const auto& f : ds.files) std::printf("%s\n", f.c_str());
  return 0;
}

int cmd_info(const util::Args& args) {
  args.reject_unknown("info", {"index", "ranks", "threads"});
  if (!args.has("index")) return usage();
  const auto index = core::load_index(args.get("index", ""));
  std::printf("Dataset %s: %zu files (%s), k=%d, m=%d\n", index.name.c_str(),
              index.files.size(), index.paired ? "paired-end" : "single-end", index.k,
              index.mer_hist.m);
  std::printf("Reads: %u, bases: %llu, canonical k-mers: %llu, chunks: %u (max %llu B)\n",
              index.total_reads, static_cast<unsigned long long>(index.total_bases),
              static_cast<unsigned long long>(index.mer_hist.total()),
              index.part.num_chunks(),
              static_cast<unsigned long long>(index.max_chunk_bytes()));
  print_fastq_part_storage(index.part);

  core::MemoryModelInput mm =
      core::memory_model_input(index, static_cast<int>(run_flag(args, "ranks").i),
                               static_cast<int>(run_flag(args, "threads").i));

  util::TablePrinter table({"Passes", "kmerOut+kmerIn (MB)", "Total/task (MB)"});
  for (int s : {1, 2, 4, 8}) {
    mm.num_passes = s;
    const auto b = core::estimate_memory(mm);
    table.add_row({std::to_string(s),
                   util::TablePrinter::fmt(static_cast<double>(b.kmer_out + b.kmer_in) / 1e6, 2),
                   util::TablePrinter::fmt(static_cast<double>(b.total) / 1e6, 2)});
  }
  std::printf("Per-task memory model (P=%d, T=%d):\n", mm.num_ranks, mm.threads_per_rank);
  table.print();
  return 0;
}

/// One request/response exchange with a running metaprepd.
std::string daemon_roundtrip(const std::string& socket_path, const std::string& request) {
  util::SocketConn conn = util::connect_unix(socket_path);
  conn.send_line(request);
  std::string line;
  if (!conn.recv_line(line))
    throw util::io_error("daemon closed the connection without replying", socket_path);
  return line;
}

int cmd_daemon(const util::Args& args) {
  if (args.positional().size() < 2 || !args.has("socket")) return usage();
  const std::string verb = args.positional()[1];
  const std::string socket_path = args.get("socket", "");

  std::string request;
  if (verb == "submit") {
    if (!args.has("index")) return usage();
    request = serve::submit_request(args);
  } else {
    // Every other verb is {"cmd":verb} plus --job; the daemon names an
    // unknown verb or a missing job in its error response.
    args.reject_unknown("daemon " + verb, {"socket", "job", "wait"});
    serve::JsonLineWriter w;
    w.field("cmd", verb);
    if (args.has("job")) w.field("job", args.get_int("job", 0));
    request = w.finish();
  }

  std::string response = daemon_roundtrip(socket_path, request);
  if (verb == "status" && args.has("wait")) {
    // Poll the job to a terminal state (done/failed/cancelled); a bare
    // --wait waits up to 120 s.
    const double timeout_s = args.bare("wait") ? 120.0 : args.get_double("wait", 120.0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
    for (;;) {
      const util::JsonValue v = util::parse_json(response);
      const std::string state = v.string_or("state", "");
      if (state != "queued" && state != "running") break;
      if (std::chrono::steady_clock::now() >= deadline)
        throw util::io_error("daemon status --wait: timed out after " +
                             std::to_string(timeout_s) + " s in state '" + state + "'");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      response = daemon_roundtrip(socket_path, request);
    }
  }
  std::printf("%s\n", response.c_str());
  const util::JsonValue v = util::parse_json(response);
  const util::JsonValue* ok = v.find("ok");
  return ok != nullptr && ok->as_bool() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& cmd = args.positional()[0];
  try {
    if (cmd == "index") return cmd_index(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "sim") return cmd_sim(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "diginorm") return cmd_diginorm(args);
    if (cmd == "daemon") return cmd_daemon(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metaprep_cli: %s\n", e.what());
    return 1;
  }
  return usage();
}
