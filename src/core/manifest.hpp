// Partition manifest: a machine-readable description of a METAPREP run's
// output, written next to the partitioned FASTQ files.
//
// Downstream automation (one assembler job per partition, §4.4's parallel
// assembly) needs to know which files belong to which component class and
// how much work each holds.  The manifest is a TSV with one row per output
// file plus a header of run-level metadata, so a job scheduler can consume
// it without re-scanning FASTQ.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace metaprep::core {

struct ManifestEntry {
  std::string path;
  std::string partition;        ///< "lc", "other", or "b<j>"
  std::uint64_t records = 0;    ///< FASTQ records in the file
  std::uint64_t bases = 0;
  std::uint64_t skipped = 0;    ///< lenient-verify resync events in the file
};

struct Manifest {
  std::string dataset;
  int k = 0;
  std::uint32_t num_reads = 0;
  std::uint64_t num_components = 0;
  std::uint64_t largest_size = 0;
  std::uint64_t records_skipped = 0;  ///< sum of per-entry skipped counts
  std::vector<ManifestEntry> entries;

  /// Total records across all entries (2 * num_reads for paired data when
  /// the split is lossless).
  [[nodiscard]] std::uint64_t total_records() const;
};

/// Build a manifest by scanning the run's output files with the same
/// ParseMode the pipeline ran under.  A lenient run's outputs must be
/// verifiable leniently too: the old always-strict re-parse threw on any
/// record the pipeline had deliberately carried through (and, worse, on
/// operator-corrupted outputs it mislabeled the failure as a pipeline bug).
/// In lenient mode resync events are counted per entry (skipped column).
Manifest build_manifest(const DatasetIndex& index, const PipelineResult& result,
                        io::ParseMode parse_mode = io::ParseMode::kStrict);

/// Serialize to TSV ("#key\tvalue" metadata lines, then one row per file).
void save_manifest(const Manifest& manifest, const std::string& path);
Manifest load_manifest(const std::string& path);

/// Partition class of an output path: the CC-I/O slot tag before
/// ".fastq" ("lc", "other" or "b<j>"), or "unknown" for any other name.
std::string partition_class_of(const std::string& path);

}  // namespace metaprep::core
