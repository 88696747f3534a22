// Dataset presets mirroring Table 2 of the paper.
//
// The four evaluation datasets (HG = human gut SRR341725, LL = Lake Lanier
// SRR947737, MM = mock microbial community SRX200676, IS = Iowa continuous
// corn soil JGI 402461) are unavailable offline, so each preset is a
// synthetic community whose *structure* matches the role the dataset plays
// in the evaluation:
//
//   preset  species  coverage  sharing  paper trait reproduced
//   HG        12       ~5x      high    LC ~95% without filtering
//   LL        30       ~3x      low     most diverse of the small three, LC ~76%
//   MM         8      ~20x      high    mock community: LC ~99.5%, huge k-mer counts
//   IS       120       ~8x      low     largest dataset; multipass + multi-node runs
//   XL        40      ~20x      low     "XL-mini" bench preset: ~15x HG read count,
//                                       so parse/scan/sort work dominates fixed costs
//
// Relative read counts follow Table 2 (LL ~1.7x HG, MM ~4.3x HG); IS is
// compressed from 89x to 20x HG to stay runnable in a container.  `scale`
// multiplies read counts and genome lengths together, preserving coverage.
#pragma once

#include <string>

#include "sim/read_sim.hpp"

namespace metaprep::sim {

enum class Preset { HG, LL, MM, IS, XL };

/// Short identifier used in file names and bench output ("HG", "LL", ...).
std::string preset_name(Preset p);

/// The preset preset_name spells @p name; a config error otherwise.
Preset parse_preset(const std::string& name);

/// Build the dataset configuration for a preset at the given scale.
DatasetConfig preset_config(Preset p, double scale = 1.0);

/// Generate the preset dataset under @p dir (creates "<dir>/<name>_1.fastq"
/// and "_2.fastq"); returns its description.  Deterministic per (p, scale).
SimulatedDataset make_preset(Preset p, double scale, const std::string& dir);

}  // namespace metaprep::sim
