// Shared pieces of the METAPREP benchmark driver: the metric list every run
// prints, the driver's own span recorder, sample statistics, the partition
// checker and the per-layer probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/indices.hpp"
#include "core/pipeline.hpp"

namespace perfbench {

inline constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; names are unique (set() overwrites).
class MetricList {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Median of @p v (0 for an empty sample).
double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] of @p v.
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// The driver's own spans, recorded around every call it makes into a layer.
// Kept in memory and written out once, as Chrome trace_event JSON, when the
// run ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  double begin_s = 0.0;
  double end_s = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  int open(const std::string& name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part covered by direct children.
  [[nodiscard]] double self_seconds(int id) const;
  void write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on a SpanRecorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name) : rec_(rec), id_(rec.open(name)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { rec_.close(id_); }

 private:
  SpanRecorder& rec_;
  int id_;
};

// ---------------------------------------------------------------------------
// Partition oracle (oracle.cpp).
// ---------------------------------------------------------------------------

struct PartitionCheck {
  bool ok = false;
  std::string why;  ///< first difference found; empty when ok
};

/// Reference partition of one generated dataset, computed once per run.
struct Oracle {
  std::vector<std::uint32_t> labels;
  std::uint64_t num_components = 0;
  std::uint64_t largest_size = 0;
};

Oracle make_oracle(const metaprep::core::DatasetIndex& index);

/// Labels equal up to renaming (a bijection between component ids).
PartitionCheck same_partition(std::span<const std::uint32_t> labels,
                              std::span<const std::uint32_t> reference);

/// Full check of a pipeline result: labels up to renaming, component count
/// and largest component size.
PartitionCheck check_result(const metaprep::core::PipelineResult& result, const Oracle& oracle);

/// Feed the checker a renamed copy of the oracle (must pass) and corrupted
/// copies (must fail).  Returns an empty string on success, otherwise what
/// the checker missed.
std::string checker_self_test(const Oracle& oracle);

// ---------------------------------------------------------------------------
// Per-layer probes (probes.cpp): timed calls into each layer's public
// functions on the workload's own data, for the traced run only.
// ---------------------------------------------------------------------------

struct ProbeInput {
  const metaprep::core::DatasetIndex& index;
  const metaprep::core::MetaprepConfig& config;
  const metaprep::core::PipelineResult& run;  ///< the traced run's result
  std::span<const std::uint32_t> labels;      ///< reference partition
};

void run_layer_probes(const ProbeInput& in, SpanRecorder& spans, MetricList& out);

// ---------------------------------------------------------------------------
// Host fingerprint and result printing (report.cpp).
// ---------------------------------------------------------------------------

/// {"nproc", "cpu", "compiler", "build_type", "metaprep_checked"} as JSON.
std::string host_fingerprint_json();

/// JSON string literal of @p s (quoted, escaped).
std::string json_string(const std::string& s);

/// Number with all its significant digits (JSON has no NaN/Inf: those
/// print as null).
std::string json_number(double v);

}  // namespace perfbench
