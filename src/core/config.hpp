// METAPREP run configuration.  The fields a user sets from the CLI or the
// daemon, with their flags, ranges and defaults, are in core/run_fields.hpp.
#pragma once

#include <cstdint>
#include <string>

#include "io/fastq.hpp"
#include "mpsim/comm.hpp"

namespace metaprep::obs {
class TraceSession;
class MetricsRegistry;
class MemRegistry;
}  // namespace metaprep::obs

namespace metaprep::util {
class CancelToken;
}  // namespace metaprep::util

namespace metaprep::core {

/// k-mer frequency filter (paper §4.4): only read-graph edges whose shared
/// canonical k-mer has a global frequency in [min_freq, max_freq] are used.
/// "High frequency k-mers may occur due to repeated sequences in the
/// metagenome.  Low frequency k-mers may occur due to sequencing errors."
struct KmerFreqFilter {
  std::uint32_t min_freq = 0;                       ///< 0 = no lower bound
  std::uint32_t max_freq = 0xFFFFFFFFu;             ///< UINT32_MAX = no upper bound
  [[nodiscard]] bool enabled() const noexcept {
    return min_freq > 0 || max_freq != 0xFFFFFFFFu;
  }
  [[nodiscard]] bool accepts(std::uint64_t freq) const noexcept {
    return freq >= min_freq && freq <= max_freq;
  }
};

/// How the S I/O passes are scheduled (§3.2-§3.5 loop): the pass engine's
/// fusion width W.  Both widths share one slot layout, one wire format per
/// codec and one TupleArena per rank, and produce identical labels (see
/// DESIGN.md "Pass engine (W, codec)").
enum class PipelineMode {
  /// W = 1, the paper's schedule and the default: each pass runs KmerGen ->
  /// KmerGen-Comm -> LocalSort -> LocalCC to completion before the next
  /// starts.
  kBarrier,
  /// W = 2, pipelined: passes run in pairs; one chunk read+scan generates
  /// both passes' tuples, and pass s+1's exchange stays in flight while
  /// pass s sorts and unions.
  kOverlap,
};

/// Exchange compression for the KmerGen all-to-all.
/// Both codecs produce the same raw labels (differential grid); see
/// DESIGN.md "Exchange compression" for the record format and the
/// equivalence argument.
enum class CommCompress {
  /// Fixed-size (k-mer, value) tuples at offsets precomputed from the index
  /// tables, in the paper's staged all-to-all shape: one message per
  /// (stage, pass, tuple array), even when empty.
  kNone,
  /// Minimizer-routed super-k-mer records: consecutive k-mers sharing a
  /// minimizer ship as one (value, n_kmers, packed bases) payload that the
  /// receiver re-expands before LocalSort.
  kSuperKmer,
};

/// Where KmerGen gets its records each pass.
enum class ReadStore {
  /// Re-read and re-parse FASTQ text per chunk every pass (the paper's
  /// behaviour; parse cost is paid S times).
  kText,
  /// One lenient/strict ingest pass packs every record into an in-memory
  /// 2-bit arena (io::PackedStore); every pass scans the arena
  /// word-at-a-time and the per-pass text parse disappears.
  kPacked,
};

struct MetaprepConfig {
  int k = 27;                 ///< k-mer length (<= 63; > 32 uses 128-bit k-mers)
  int num_ranks = 1;          ///< P: simulated MPI tasks
  int threads_per_rank = 1;   ///< T: OpenMP-style threads per task
  int num_passes = 1;         ///< S: I/O passes (0 = derive from memory_budget)
  std::uint64_t memory_budget_bytes = 0;  ///< per-task budget when num_passes == 0

  KmerFreqFilter filter;

  /// FASTQ failure handling.  Strict: a malformed record throws a typed
  /// util::Error naming the file, byte offset and category.  Lenient: the
  /// parser resynchronizes on the next '@' header, counts the skip in
  /// io.records_skipped, and the parseable reads are labeled.
  io::ParseMode parse_mode = io::ParseMode::kStrict;

  /// Multipass optimization (paper §3.5.1): from the second pass on,
  /// enumerate (k-mer, component-ID) tuples instead of (k-mer, read-ID).
  bool cc_opt = true;

  /// Radix digit width of the paper's LocalSort (§3.4; the paper uses 8).
  /// run_metaprep does not read it: its LocalSort bins and LocalCC groups
  /// by hash (core/group.hpp).  Only perfbench's radix probe
  /// (sort.radix_mkeys_per_s) reads it.
  int sort_digit_bits = 8;

  /// Write partitioned FASTQ output (largest component vs the rest, §3.6).
  /// When false the pipeline stops after component labeling.
  bool write_output = true;
  std::string output_dir = ".";

  /// Load-balanced output partitioning.  0 keeps the paper's split (the
  /// largest component to ".lc", every other read to ".other").  B >= 1
  /// bin-packs all components into B bins by estimated bp (src/part), writes
  /// per-(rank, thread, bin) ".b<j>.fastq" files and a "<dataset>.bins.json".
  int output_bins = 0;

  PipelineMode pipeline_mode = PipelineMode::kBarrier;
  CommCompress comm_compress = CommCompress::kNone;

  /// Minimizer length for super-k-mer grouping (comm_compress superkmer).
  /// Independent of the index's routing m-mer: compressed runs are routed
  /// by minimizer-hash bins, not prefix bins.  Must be in [1, min(k, 31)].
  int superkmer_minimizer_len = 10;

  /// Record source for the KmerGen scans; both stores produce the same
  /// components and output bins (differential-tested).
  ReadStore read_store = ReadStore::kText;

  /// Interconnect cost model for the simulated-comm-seconds report.
  mpsim::CostModelParams cost_model;

  /// Observability (src/obs).  When @ref trace_out is non-empty the run is
  /// recorded into the global TraceSession (cleared first) and exported as
  /// Chrome trace_event JSON to that path; when @ref metrics_out is
  /// non-empty the global metrics registry is enabled (values reset first)
  /// and a JSONL snapshot is written there after the run.  Empty leaves
  /// only a relaxed-atomic check in the hot paths.
  std::string trace_out;
  std::string metrics_out;

  /// Performance attribution (src/obs/attr).  When @ref attr_out is
  /// non-empty the run is traced (even without @ref trace_out) and the
  /// structured attribution report — phase walls, imbalance factors,
  /// critical path, comm matrix, memory by subsystem — is written there as
  /// JSON (`metaprep-report` ingests it).
  std::string attr_out;

  /// One-line stderr progress (phase, % chunks, elapsed).
  bool progress = false;

  /// Session plumbing (src/serve).  All default null, which preserves the
  /// historical behaviour: observability goes to the process-global
  /// singletons and nothing can cancel the run.  A PipelineSession points
  /// these at per-session instances so concurrent in-process runs keep
  /// disjoint trace/metrics/memory state; run_metaprep installs them as the
  /// calling thread's overrides for the duration of the run (propagated to
  /// ThreadTeam workers and mpsim rank threads).  Non-owning: the pointees
  /// must outlive the run.
  obs::TraceSession* trace_session = nullptr;
  obs::MetricsRegistry* metrics_registry = nullptr;
  obs::MemRegistry* mem_registry = nullptr;

  /// Cooperative cancel flag, polled at pass/chunk boundaries.  Null = not
  /// cancellable.  When set mid-run the pipeline unwinds with
  /// util::cancelled_error; each rank's TupleArena frees its tuple arrays
  /// as it unwinds.
  const util::CancelToken* cancel_token = nullptr;
};

}  // namespace metaprep::core
