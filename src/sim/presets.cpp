#include "sim/presets.hpp"

#include <cmath>
#include <stdexcept>

#include "util/error.hpp"

namespace metaprep::sim {

std::string preset_name(Preset p) {
  switch (p) {
    case Preset::HG: return "HG";
    case Preset::LL: return "LL";
    case Preset::MM: return "MM";
    case Preset::IS: return "IS";
    case Preset::XL: return "XL";
  }
  throw std::invalid_argument("unknown preset");
}

Preset parse_preset(const std::string& name) {
  for (const Preset p : {Preset::HG, Preset::LL, Preset::MM, Preset::IS, Preset::XL})
    if (preset_name(p) == name) return p;
  throw util::config_error("--preset must be HG, LL, MM, IS or XL (got '" + name + "')");
}

DatasetConfig preset_config(Preset p, double scale) {
  if (scale <= 0.0) throw std::invalid_argument("preset scale must be > 0");
  DatasetConfig c;
  c.name = preset_name(p);
  auto scaled = [&](double v) { return static_cast<std::uint64_t>(std::llround(v * scale)); };

  switch (p) {
    // Coverage targets (pairs * 200 bp / genome total) are chosen so the
    // Table 7 frequency-filter behavior reproduces: mean canonical-k-mer
    // frequency is coverage * (l-k+1)/l ~ 0.74 * coverage at k=27, so
    // HG ~20x centers frequencies inside the paper's 10..30 band,
    // MM ~40x pushes them against the KF<=30 bound (the mock community's
    // very deep sequencing), and LL ~13x sits lower with more species.
    case Preset::HG:
      c.genomes.num_species = 12;
      c.genomes.min_genome_len = scaled(2'500);
      c.genomes.max_genome_len = scaled(6'000);   // total ~51 kbp -> ~20x
      c.genomes.repeat_fraction = 0.05;
      c.genomes.shared_fraction = 0.090;
      c.genomes.shared_unit_len = 150;
      c.genomes.seed = 101;
      c.num_pairs = scaled(5'000);
      c.abundance_sigma = 1.0;
      c.reads.seed = 1101;
      break;
    case Preset::LL:
      c.genomes.num_species = 30;
      c.genomes.min_genome_len = scaled(2'000);
      c.genomes.max_genome_len = scaled(4'500);   // total ~97 kbp -> ~17x
      c.genomes.repeat_fraction = 0.04;
      c.genomes.shared_fraction = 0.050;
      c.genomes.shared_unit_len = 150;
      c.genomes.seed = 202;
      c.num_pairs = scaled(8'500);
      c.abundance_sigma = 1.2;
      c.reads.seed = 1202;
      break;
    case Preset::MM:
      c.genomes.num_species = 8;
      c.genomes.min_genome_len = scaled(12'000);
      c.genomes.max_genome_len = scaled(22'000);  // total ~140 kbp -> ~30x
      c.genomes.repeat_fraction = 0.08;
      c.genomes.shared_fraction = 0.050;
      c.genomes.seed = 303;
      c.num_pairs = scaled(21'500);
      c.abundance_sigma = 0.5;  // mock communities are near-even
      c.reads.seed = 1303;
      break;
    case Preset::IS:
      c.genomes.num_species = 120;
      c.genomes.min_genome_len = scaled(8'000);
      c.genomes.max_genome_len = scaled(30'000);  // total ~2.2 Mbp -> ~9x
      c.genomes.repeat_fraction = 0.04;
      c.genomes.shared_fraction = 0.008;
      c.genomes.seed = 404;
      c.num_pairs = scaled(100'000);
      c.abundance_sigma = 2.0;  // soil: long-tailed abundance
      c.reads.seed = 1404;
      break;
    case Preset::XL:
      // "XL-mini" (ROADMAP Open item 1): big enough that bench walls
      // measure real per-read work instead of fixed parse/setup cost
      // (~15x HG pairs), small enough for min-of-N gating in CI.
      c.genomes.num_species = 40;
      c.genomes.min_genome_len = scaled(12'000);
      c.genomes.max_genome_len = scaled(25'000);  // total ~740 kbp -> ~20x
      c.genomes.repeat_fraction = 0.04;
      c.genomes.shared_fraction = 0.020;
      c.genomes.shared_unit_len = 150;
      c.genomes.seed = 505;
      c.num_pairs = scaled(75'000);
      c.abundance_sigma = 1.2;
      c.reads.seed = 1505;
      break;
  }
  return c;
}

SimulatedDataset make_preset(Preset p, double scale, const std::string& dir) {
  const DatasetConfig c = preset_config(p, scale);
  return simulate_dataset(c, dir + "/" + c.name);
}

}  // namespace metaprep::sim
