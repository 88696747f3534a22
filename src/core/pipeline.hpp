// The METAPREP pipeline (paper §3, Figure 1 / Table 1):
//
//   IndexCreate -> [ KmerGen -> KmerGen-Comm -> LocalSort -> LocalCC ] x S
//               -> MergeCC -> partitioned FASTQ output
//
// run_metaprep executes the whole pipeline over P simulated MPI ranks with
// T threads each and S I/O passes.  Each pass processes a disjoint k-mer
// bin range; all per-thread buffer offsets are precomputed from the
// FASTQPart chunk histograms so the hot loops run without synchronization
// (§3.2.2).  Components accumulate in one rank-local Union-Find across
// passes and are merged once at the end over ceil(log P) rounds (§3.6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/indices.hpp"
#include "obs/attr.hpp"
#include "util/timer.hpp"

namespace metaprep::core {

struct PipelineResult {
  std::uint32_t num_reads = 0;           ///< R (paired-end read count)
  std::vector<std::uint32_t> labels;     ///< final component root per read
  std::uint64_t num_components = 0;
  std::uint32_t largest_root = 0;
  std::uint64_t largest_size = 0;        ///< reads in the largest component
  double largest_fraction = 0.0;         ///< largest_size / num_reads

  util::StepTimes step_times;            ///< per step, max over ranks
  std::vector<util::StepTimes> rank_times;  ///< per rank (Figure 8 data)
  int passes_used = 0;

  std::uint64_t total_tuples = 0;        ///< enumerated across all passes
  std::uint64_t max_tuple_buffer_bytes = 0;  ///< peak kmerIn+kmerOut, any rank
  std::uint64_t merge_comm_bytes = 0;    ///< bytes shipped during MergeCC (all ranks)
  std::vector<std::uint64_t> traffic_matrix;  ///< P x P bytes src->dest (whole run)
  std::vector<std::uint64_t> message_matrix;  ///< P x P message counts src->dest
  std::uint64_t total_traffic_bytes = 0;
  std::uint64_t message_count = 0;
  double sim_comm_seconds = 0.0;         ///< modeled interconnect time (max rank)
  int cc_iterations_max = 0;             ///< Algorithm 1 iterations (max thread)

  std::vector<std::string> output_files; ///< partitioned FASTQ paths (if written)
  std::vector<std::uint64_t> top_component_sizes;  ///< up to 10, descending

  // Merge/output tail (label scatter + component binning).
  std::uint64_t label_scatter_bytes = 0;  ///< cross-rank label-slice bytes (O(R/P) per rank)
  std::uint64_t root_table_bytes = 0;     ///< root->bin table broadcast bytes (O(#components))
  std::vector<std::uint64_t> bin_reads;   ///< planned reads per output bin (empty unless binning)
  std::vector<std::uint64_t> bin_weights_bp;  ///< planned weight per output bin
  double bin_skew = 0.0;                  ///< max/mean bin weight (0 unless binning)
  std::string bin_manifest_path;          ///< "<output_dir>/<name>.bins.json" when written

  // Exchange compression (--comm-compress).  exchange_bytes counts the
  // cross-rank KmerGen-Comm payload actually shipped (self-blocks excluded,
  // consistent with the traffic matrix); exchange_bytes_raw is the
  // uncompressed-equivalent volume — the expanded tuples — of the same
  // traffic, so ratio = bytes/raw isolates the compression from routing
  // differences.  Under kNone the two are equal.
  std::uint64_t exchange_bytes = 0;
  std::uint64_t exchange_bytes_raw = 0;
  std::uint64_t superkmer_records = 0;   ///< wire records emitted (superkmer)
  double superkmer_ratio = 0.0;          ///< exchange_bytes / exchange_bytes_raw (0 if raw 0)

  // Parse accounting + packed read store (--read-store=packed).
  // records_skipped counts *distinct* records lenient parsing dropped (the
  // io.records_skipped metric counts skip events, which text mode re-pays
  // every pass); identical between text and packed runs on the same input.
  std::uint64_t records_skipped = 0;
  double packed_ingest_seconds = 0.0;    ///< PackedIngest step wall (packed mode)
  std::uint64_t packed_store_bytes = 0;  ///< arena bytes in memory (packed mode)

  // Performance attribution: filled whenever the run was traced (trace_out,
  // attr_out, or an externally-enabled TraceSession), so benches and tests
  // read the analysis without re-parsing files.
  bool has_attr = false;
  obs::AttrReport attr;
};

/// Run the full preprocessing pipeline.  @p index must have been created
/// with the same k as @p config.k.
PipelineResult run_metaprep(const DatasetIndex& index, const MetaprepConfig& config);

/// Reference implementation for testing: brute-force read-graph connected
/// components computed from an in-memory map of canonical k-mer -> reads.
/// Applies the same frequency filter semantics as the pipeline.  Quadratic
/// memory in dataset size; test-scale only.
std::vector<std::uint32_t> reference_components(
    const DatasetIndex& index, const KmerFreqFilter& filter,
    io::ParseMode parse_mode = io::ParseMode::kStrict);

}  // namespace metaprep::core
