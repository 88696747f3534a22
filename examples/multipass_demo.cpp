// multipass_demo: the paper's memory/time trade-off (§3.7 + Table 3), live.
//
// Runs the same dataset through 1, 2, 4, and 8 I/O passes and shows that
//   * the component decomposition is identical regardless of pass count,
//   * peak tuple-buffer memory shrinks proportionally to 1/S,
//   * KmerGen time grows (input re-read each pass) while the exchange
//     shrinks — the trade METAPREP makes to fit big datasets in RAM.
// Also demonstrates automatic pass selection from a memory budget.
//
// Usage: multipass_demo [--pairs=20000] [--budget-mb=0]
#include <cstdio>
#include <filesystem>

#include "core/index_create.hpp"
#include "core/memory_model.hpp"
#include "core/pipeline.hpp"
#include "sim/read_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace metaprep;
  const util::Args args(argc, argv);
  const std::string out = "multipass_demo_out";
  std::filesystem::create_directories(out);

  sim::DatasetConfig cfg;
  cfg.name = "mp";
  cfg.genomes.num_species = 8;
  cfg.genomes.min_genome_len = 12'000;
  cfg.genomes.max_genome_len = 20'000;
  cfg.num_pairs = static_cast<std::uint64_t>(args.get_int("pairs", 20'000));
  const auto dataset = sim::simulate_dataset(cfg, out + "/mp");

  core::IndexCreateOptions iopt;
  iopt.k = 27;
  iopt.m = 8;
  iopt.target_chunks = 32;
  const auto index = core::create_index(cfg.name, dataset.files, true, iopt);

  util::TablePrinter table({"Passes", "Components", "LC %", "Peak tuple buf (MB)",
                            "KmerGen (ms)", "KmerGen-Comm (ms)", "LocalSort (ms)",
                            "Total (ms)"});
  std::vector<std::uint32_t> first_labels;
  for (int s : {1, 2, 4, 8}) {
    core::MetaprepConfig mp;
    mp.k = 27;
    mp.num_ranks = 2;
    mp.threads_per_rank = 2;
    mp.num_passes = s;
    mp.write_output = false;
    const auto r = core::run_metaprep(index, mp);
    if (first_labels.empty()) {
      first_labels = r.labels;
    } else if (r.labels != first_labels) {
      std::printf("ERROR: pass count changed the decomposition!\n");
      return 1;
    }
    table.add_row({std::to_string(s), std::to_string(r.num_components),
                   util::TablePrinter::fmt(r.largest_fraction * 100.0, 1),
                   util::TablePrinter::fmt(
                       static_cast<double>(r.max_tuple_buffer_bytes) / 1e6, 2),
                   util::TablePrinter::fmt(r.step_times.get("KmerGen") * 1e3, 1),
                   util::TablePrinter::fmt(r.step_times.get("KmerGen-Comm") * 1e3, 1),
                   util::TablePrinter::fmt(r.step_times.get("LocalSort") * 1e3, 1),
                   util::TablePrinter::fmt(r.step_times.total() * 1e3, 1)});
  }
  table.print();
  std::printf("Decomposition identical across all pass counts. \n\n");

  const double budget_mb = args.get_double("budget-mb", 0.0);
  if (budget_mb > 0.0) {
    core::MetaprepConfig mp;
    mp.k = 27;
    mp.num_ranks = 2;
    mp.threads_per_rank = 2;
    mp.num_passes = 0;  // derive from budget
    mp.memory_budget_bytes = static_cast<std::uint64_t>(budget_mb * 1e6);
    mp.write_output = false;
    try {
      const auto r = core::run_metaprep(index, mp);
      std::printf("Budget %.0f MB/task -> %d pass(es), peak tuple buffers %.2f MB\n",
                  budget_mb, r.passes_used,
                  static_cast<double>(r.max_tuple_buffer_bytes) / 1e6);
    } catch (const std::exception& e) {
      // The fixed terms (index tables, FASTQ buffers, component arrays)
      // alone exceed the budget — more passes cannot help (§3.7).
      core::MemoryModelInput mm =
          core::memory_model_input(index, mp.num_ranks, mp.threads_per_rank);
      mm.num_passes = 64;
      const auto floor = core::estimate_memory(mm);
      std::printf("Budget %.0f MB/task is infeasible (%s); the pass-independent terms\n"
                  "alone need %.2f MB/task.\n",
                  budget_mb, e.what(), static_cast<double>(floor.total) / 1e6);
    }
  } else {
    std::printf("Tip: rerun with --budget-mb=N to let the §3.7 memory model pick the\n"
                "minimum number of passes for a per-task budget.\n");
  }
  return 0;
}
