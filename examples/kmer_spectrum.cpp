// kmer_spectrum: pick frequency-filter bounds from data instead of "chosen
// arbitrarily" (the paper's own words about its 10/30 settings, §4.4).
//
// Prints the k-mer frequency spectrum of a dataset (simulated preset or
// user FASTQ files), locates the error valley and coverage peak, suggests
// KF filter bounds, and — for the simulated case — runs the partition with
// the suggested bounds next to the paper's 10..30 for comparison.
//
// Usage: kmer_spectrum [--k=27] [--preset=MM] [--scale=1.0]
//        kmer_spectrum [--k=27] R1.fastq R2.fastq ...
#include <cstdio>
#include <exception>
#include <filesystem>

#include "assembler/spectrum.hpp"
#include "core/index_create.hpp"
#include "core/pipeline.hpp"
#include "sim/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace metaprep;

namespace {

int run(const util::Args& args) {
  const int k = static_cast<int>(args.get_int("k", 27));
  std::vector<std::string> files = args.positional();
  const bool simulated = files.empty();
  if (simulated) {
    const sim::Preset preset = sim::parse_preset(args.get("preset", "MM"));
    const std::string out = "kmer_spectrum_out";
    std::filesystem::create_directories(out);
    files = sim::make_preset(preset, args.get_double("scale", 1.0), out).files;
  }

  assembler::KmerCountTable counts(k);
  for (const auto& f : files) counts.add_fastq(f);
  const auto spectrum = assembler::frequency_spectrum(counts);

  // Print the low-frequency region exactly, the tail in log2 buckets.
  util::TablePrinter low({"Frequency", "Distinct k-mers"});
  std::uint32_t printed = 0;
  for (const auto& [f, n] : spectrum) {
    if (f > 40) break;
    low.add_row({std::to_string(f), std::to_string(n)});
    ++printed;
  }
  std::printf("k-mer frequency spectrum (k=%d, %zu distinct k-mers):\n", k,
              counts.distinct());
  low.print();
  std::map<int, std::uint64_t> tail;
  for (const auto& [f, n] : spectrum) {
    if (f > 40) tail[32 - std::countl_zero(f)] += n;
  }
  if (!tail.empty()) {
    std::printf("tail:");
    for (const auto& [log2f, n] : tail) {
      std::printf(" [2^%d,2^%d):%llu", log2f, log2f + 1, static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }

  const auto suggestion = assembler::suggest_filter(spectrum);
  if (!suggestion.confident) {
    std::printf("\nNo clear error-valley/coverage-peak structure; filter bounds cannot be\n"
                "suggested from this spectrum.\n");
    return 0;
  }
  std::printf("\nError valley at %u, coverage peak at %u -> suggested filter: "
              "%u <= KF <= %u\n",
              suggestion.min_freq, suggestion.peak_freq, suggestion.min_freq,
              suggestion.max_freq);

  // Show what the suggestion does to the partition vs the paper's 10..30.
  core::IndexCreateOptions iopt;
  iopt.k = k;
  iopt.m = 8;
  iopt.target_chunks = 16;
  iopt.threads = 4;
  const auto index = core::create_index("spectrum", files, files.size() % 2 == 0, iopt);
  util::TablePrinter table({"Filter", "Components", "LC %"});
  for (const auto& [label, filter] :
       std::vector<std::pair<std::string, core::KmerFreqFilter>>{
           {"none", {}},
           {"paper 10<=KF<=30", {10, 30}},
           {"suggested", {suggestion.min_freq, suggestion.max_freq}}}) {
    core::MetaprepConfig cfg;
    cfg.k = k;
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.filter = filter;
    cfg.write_output = false;
    const auto r = core::run_metaprep(index, cfg);
    table.add_row({label, std::to_string(r.num_components),
                   util::TablePrinter::fmt(r.largest_fraction * 100.0, 1)});
  }
  std::printf("\n");
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kmer_spectrum: %s\n", e.what());
    return 1;
  }
}
