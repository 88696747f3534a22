// Table 3: METAPREP execution time and memory use for the MM dataset when
// varying the number of I/O passes (all runs use 4 nodes).
//
// Paper shape: KmerGen time grows with passes (FASTQ files redundantly
// read); KmerGen-Comm and MergeCC shrink; LocalSort stays flat (same total
// tuples); LocalCC shrinks (the §3.5.1 component-ID locality optimization
// engages from pass 2); CC-I/O flat; memory/node drops sharply
// (49.7 -> 27.0 -> 15.6 -> 10.0 GB in the paper).
#include "core/memory_model.hpp"

#include "bench_common.hpp"

int main() {
  using namespace metaprep;
  bench::print_title("Table 3: multipass time/memory sweep, MM, P=4, T=4, k=27");

  bench::ScratchDir dir("tab3");
  bench::maybe_enable_metrics();
  const auto ds = bench::make_dataset(sim::Preset::MM, dir.str());
  // Baseline the delta tracker here so indexing-time metrics (and, per row,
  // every earlier configuration's counts) stop leaking into later rows: each
  // row below embeds only the metrics its own run accrued.
  (void)obs::metrics().snapshot_delta();

  util::TablePrinter table(bench::step_headers(
      {"Passes", "Mode", "Peak tuple buf/rank (MB)", "Model est./rank (MB)"}));
  bench::BenchJsonWriter json("tab3_multipass");
  for (int s : {1, 2, 4, 8}) {
   for (const char* mode : {"barrier", "overlap"}) {
    core::MetaprepConfig cfg;
    cfg.k = 27;
    cfg.num_ranks = 4;
    cfg.threads_per_rank = 4;
    cfg.num_passes = s;
    cfg.write_output = true;
    cfg.output_dir = dir.str();
    cfg.pipeline_mode = std::string(mode) == "overlap" ? core::PipelineMode::kOverlap
                                                       : core::PipelineMode::kBarrier;
    const auto run = bench::timed_run(ds.index, cfg);
    const auto& result = run.result;

    core::MemoryModelInput mm = core::memory_model_input(ds.index, 4, 4);
    mm.num_passes = s;
    const auto est = core::estimate_memory(mm);

    auto cells = bench::step_time_cells(result.step_times);
    cells.insert(cells.begin(),
                 util::TablePrinter::fmt(static_cast<double>(est.total) / 1e6, 2));
    cells.insert(cells.begin(),
                 util::TablePrinter::fmt(
                     static_cast<double>(result.max_tuple_buffer_bytes) / 1e6, 2));
    cells.insert(cells.begin(), mode);
    cells.insert(cells.begin(), std::to_string(s));
    table.add_row(cells);
    json.add_row()
        .str("mode", mode)
        .num("passes", s)
        .num("wall_s", run.wall_seconds)
        .num("peak_tuple_buf_bytes", result.max_tuple_buffer_bytes)
        .json("metrics_delta", obs::metrics().snapshot_delta());
   }
  }
  table.print();
  json.emit();
  std::printf("Paper (MM, 4 nodes): memory/node 49.7 / 27.0 / 15.6 / 10.0 GB for\n"
              "S = 1/2/4/8; KmerGen 11->33 s rising, KmerGen-Comm 20.9->8.6 s falling,\n"
              "LocalSort ~15 s flat, LocalCC 6.5->2.5 s falling, CC-I/O ~5.4 s flat.\n");
  return 0;
}
