// Figure 5: single-node execution times and relative speedup (HG dataset).
//
// Paper: one MPI task, 1..24 threads on Ganga and Edison; HG fits in one
// node's memory so 1 I/O pass.  On Edison the speedup reaches 14.5x at 24
// threads and LocalSort is the most time-consuming step at all thread
// counts.  NOTE: this container exposes a single CPU core, so wall-clock
// speedup cannot materialize here; the bench still exercises every thread
// count and reports both wall time and the per-step breakdown (see
// EXPERIMENTS.md for the interpretation).
#include "bench_common.hpp"

#include <algorithm>
#include <map>

int main() {
  using namespace metaprep;
  bench::maybe_enable_metrics();
  bench::ScratchDir dir("fig5");
  const auto ds = bench::make_dataset(sim::Preset::HG, dir.str());

  bench::print_title("Figure 5: single-node thread scaling, HG, k=27, 1 pass");
  util::TablePrinter table(bench::step_headers({"Threads"}));
  bench::BenchJsonWriter json("fig5_singlenode");
  double t1 = 0.0;
  std::vector<double> totals;
  const std::vector<int> thread_counts{1, 2, 4, 8, 12, 24};
  for (int t : thread_counts) {
    core::MetaprepConfig cfg;
    cfg.k = 27;
    cfg.num_ranks = 1;
    cfg.threads_per_rank = t;
    cfg.num_passes = 1;
    cfg.write_output = true;
    cfg.output_dir = dir.str();
    const auto run = bench::timed_run(ds.index, cfg);
    totals.push_back(run.wall_seconds);
    if (t == 1) t1 = run.wall_seconds;
    auto cells = bench::step_time_cells(run.result.step_times);
    cells.insert(cells.begin(), std::to_string(t));
    table.add_row(cells);
    json.add_row()
        .str("mode", "barrier")
        .num("passes", 1)
        .num("threads", t)
        .num("wall_s", run.wall_seconds)
        .num("tuples", run.result.total_tuples)
        .num("mergecc_s", run.result.step_times.get("MergeCC"))
        .num("merge_comm_s", run.result.step_times.get("Merge-Comm"))
        .num("ccio_s", run.result.step_times.get("CC-I/O"));
  }
  table.print();

  // Pipeline-mode axis: same dataset, S=2 so the overlap schedule has a full
  // pass pair to fuse (one chunk read+scan feeds both passes).
  // bench_guard.sh keys on these rows.
  bench::print_title("Figure 5 (mode axis): barrier vs overlap, T=4, 2 passes");
  util::TablePrinter ab(bench::step_headers({"Mode"}));
  auto make_mode_cfg = [&](const char* mode) {
    core::MetaprepConfig cfg;
    cfg.k = 27;
    cfg.num_ranks = 1;
    cfg.threads_per_rank = 4;
    cfg.num_passes = 2;
    cfg.write_output = true;
    cfg.output_dir = dir.str();
    cfg.pipeline_mode = std::string(mode) == "overlap" ? core::PipelineMode::kOverlap
                                                       : core::PipelineMode::kBarrier;
    return cfg;
  };
  // The timed A/B pairs run back to back, with nothing (not even an untraced
  // repeat) between the two sides of a pair: the overlap-vs-barrier ratio is
  // gated by bench_guard.sh, and any extra run shifts the allocator state
  // one side depends on.  Each pair is sampled three times per process
  // (interleaved, min wall per mode kept) — the same noise filter the
  // read-store axis uses: on this oversubscribed single core a lone sample
  // can swing the ~60 ms walls by several percent, enough to flip the gated
  // ratio, while the min of three adjacent samples is stable.  The traced
  // repeats for the critical-path attribution follow AFTER all timed
  // samples, where they can perturb nothing.
  struct ModeRun {
    std::string mode;
    bench::TimedRun run;
  };
  std::vector<ModeRun> timed;
  for (int rep = 0; rep < 3; ++rep) {
    for (const char* mode : {"barrier", "overlap"}) {
      const core::MetaprepConfig cfg = make_mode_cfg(mode);
      auto run = bench::timed_run(ds.index, cfg);
      auto it = std::find_if(timed.begin(), timed.end(),
                             [&](const ModeRun& mr) { return mr.mode == mode; });
      if (it == timed.end()) {
        timed.push_back({mode, std::move(run)});
      } else if (run.wall_seconds < it->run.wall_seconds) {
        *it = {mode, std::move(run)};
      }
    }
  }
  // Untimed traced repeats: per-span tracing perturbs the measured wall, so
  // only the attribution (not the timing) of these runs is recorded.
  std::map<std::string, obs::CriticalPath> crit;
  for (const char* mode : {"barrier", "overlap"}) {
    core::MetaprepConfig traced_cfg = make_mode_cfg(mode);
    traced_cfg.write_output = false;
    traced_cfg.attr_out = dir.str() + "/fig5_attr_" + mode + ".json";
    const auto traced = core::run_metaprep(ds.index, traced_cfg);
    if (traced.has_attr) crit[mode] = traced.attr.critical_path;
  }
  for (const ModeRun& mr : timed) {
    auto cells = bench::step_time_cells(mr.run.result.step_times);
    cells.insert(cells.begin(), mr.mode);
    ab.add_row(cells);
    auto& row = json.add_row()
        .str("mode", mr.mode)
        .num("passes", 2)
        .num("threads", 4)
        .num("wall_s", mr.run.wall_seconds)
        .num("tuples", mr.run.result.total_tuples)
        .num("mergecc_s", mr.run.result.step_times.get("MergeCC"))
        .num("merge_comm_s", mr.run.result.step_times.get("Merge-Comm"))
        .num("ccio_s", mr.run.result.step_times.get("CC-I/O"));
    if (auto it = crit.find(mr.mode); it != crit.end()) {
      row.num("crit_path_s", it->second.length_s)
          .num("crit_wait_s", it->second.wait_s)
          .num("crit_compute_s", it->second.compute_s);
    }
  }
  ab.print();

  // Read-store axis (XL-mini): the XL preset is ~15x HG, big enough that the
  // per-pass text re-parse is a measurable slice of KmerGen.  Packed pays a
  // single PackedIngest up front, then every pass scans the 2-bit arena
  // word-at-a-time — KmerGen-I/O must drop to zero from the first pass on.
  // bench_guard.sh keys on these rows ("text"/"packed") and enforces the
  // packed margin.  Each store is timed three times, interleaved, so the
  // guard's min-of-N sees 3x the samples per process and neither store
  // sits in a fixed (page-cache / frequency-ramp) position.
  bench::print_title(
      "Figure 5 (read-store axis): text vs packed arena, XL-mini, T=4, 2 passes");
  const auto xl = bench::make_dataset(sim::Preset::XL, dir.str());
  util::TablePrinter rs(bench::step_headers({"Store"}));
  for (const char* store : {"text", "packed", "text", "packed", "text", "packed"}) {
    core::MetaprepConfig cfg;
    cfg.k = 27;
    cfg.num_ranks = 1;
    cfg.threads_per_rank = 4;
    cfg.num_passes = 2;
    cfg.write_output = false;
    cfg.read_store = std::string(store) == "packed" ? core::ReadStore::kPacked
                                                    : core::ReadStore::kText;
    const auto run = bench::timed_run(xl.index, cfg);
    auto cells = bench::step_time_cells(run.result.step_times);
    cells.insert(cells.begin(), store);
    rs.add_row(cells);
    json.add_row()
        .str("mode", store)
        .num("passes", 2)
        .num("threads", 4)
        .num("wall_s", run.wall_seconds)
        .num("tuples", run.result.total_tuples)
        .num("kmergen_io_s", run.result.step_times.get("KmerGen-I/O"))
        .num("kmergen_s", run.result.step_times.get("KmerGen"))
        .num("packed_ingest_s", run.result.packed_ingest_seconds)
        .num("packed_store_bytes", run.result.packed_store_bytes);
  }
  rs.print();

  // Exchange-compression axis (XL-mini): --comm-compress=superkmer vs none
  // at P=4, where cross-rank traffic exists (at P=1 every block is a
  // self-send and the wire ships nothing).  bench_guard.sh records the
  // achieved alltoallv byte reduction (1 - superkmer/none) in the committed
  // baseline on every run and, with METAPREP_GATE_COMM_BYTES=1, gates it
  // at >= 30%.  Two interleaved samples per mode; the byte counters are
  // deterministic, only the walls jitter.
  bench::print_title(
      "Figure 5 (comm axis): exchange compression, XL-mini, P=4 T=2, 2 passes");
  util::TablePrinter cc({"Compress", "Wall (ms)", "Shipped (KiB)", "Raw (KiB)",
                         "Ratio", "Records"});
  for (const char* compress : {"comm_none", "comm_superkmer", "comm_none", "comm_superkmer"}) {
    core::MetaprepConfig cfg;
    cfg.k = 27;
    cfg.num_ranks = 4;
    cfg.threads_per_rank = 2;
    cfg.num_passes = 2;
    cfg.write_output = false;
    cfg.comm_compress = std::string(compress) == "comm_superkmer"
                            ? core::CommCompress::kSuperKmer
                            : core::CommCompress::kNone;
    const auto run = bench::timed_run(xl.index, cfg);
    const auto& r = run.result;
    cc.add_row({compress, util::TablePrinter::fmt(run.wall_seconds * 1e3, 1),
                util::TablePrinter::fmt(static_cast<double>(r.exchange_bytes) / 1024.0, 1),
                util::TablePrinter::fmt(
                    static_cast<double>(r.exchange_bytes_raw) / 1024.0, 1),
                util::TablePrinter::fmt(r.superkmer_ratio, 3),
                std::to_string(r.superkmer_records)});
    json.add_row()
        .str("mode", compress)
        .num("passes", 2)
        .num("threads", 2)
        .num("wall_s", run.wall_seconds)
        .num("tuples", r.total_tuples)
        .num("alltoallv_bytes", r.exchange_bytes)
        .num("alltoallv_bytes_raw", r.exchange_bytes_raw)
        .num("superkmer_records", r.superkmer_records);
  }
  cc.print();

  // Binned-output axis: the scaled merge/output tail at P=4 with greedy
  // component binning.  Reports the tail phase walls, the label-scatter
  // bytes (vs the old O(R) per-rank broadcast), and the achieved bin skew.
  bench::print_title("Figure 5 (output axis): load-balanced binning, P=4 T=2, 2 passes");
  util::TablePrinter ob({"Bins", "MergeCC (ms)", "Merge-Comm (ms)", "CC-I/O (ms)",
                         "Scatter (KiB)", "Skew"});
  for (int bins : {0, 4}) {
    core::MetaprepConfig cfg;
    cfg.k = 27;
    cfg.num_ranks = 4;
    cfg.threads_per_rank = 2;
    cfg.num_passes = 2;
    cfg.write_output = true;
    cfg.output_dir = dir.str();
    cfg.output_bins = bins;
    const auto run = bench::timed_run(ds.index, cfg);
    ob.add_row({bins == 0 ? "top-1 (legacy)" : std::to_string(bins),
                util::TablePrinter::fmt(run.result.step_times.get("MergeCC") * 1e3, 1),
                util::TablePrinter::fmt(run.result.step_times.get("Merge-Comm") * 1e3, 1),
                util::TablePrinter::fmt(run.result.step_times.get("CC-I/O") * 1e3, 1),
                util::TablePrinter::fmt(
                    static_cast<double>(run.result.label_scatter_bytes) / 1024.0, 1),
                util::TablePrinter::fmt(run.result.bin_skew, 3)});
    json.add_row()
        .str("mode", bins == 0 ? "binned_off" : "binned")
        .num("passes", 2)
        .num("threads", 2)
        .num("wall_s", run.wall_seconds)
        .num("mergecc_s", run.result.step_times.get("MergeCC"))
        .num("merge_comm_s", run.result.step_times.get("Merge-Comm"))
        .num("ccio_s", run.result.step_times.get("CC-I/O"))
        .num("label_scatter_bytes", run.result.label_scatter_bytes)
        .num("bin_skew", run.result.bin_skew);
  }
  ob.print();

  util::TablePrinter speedup({"Threads", "Wall (ms)", "Relative speedup"});
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    speedup.add_row({std::to_string(thread_counts[i]),
                     util::TablePrinter::fmt(totals[i] * 1e3, 1),
                     util::TablePrinter::fmt(t1 / totals[i], 2)});
  }
  speedup.print();
  json.emit();
  std::printf("Paper (Edison): 14.5x speedup at 24 threads; LocalSort dominant at every\n"
              "thread count. This container has 1 physical core: oversubscribed threads\n"
              "exercise the code paths but cannot produce wall-clock speedup.\n");
  return 0;
}
