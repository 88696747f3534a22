// PipelineSession: a re-entrant, cancellable wrapper around run_metaprep.
//
// Before this layer, one run owned the process: the global TraceSession /
// MetricsRegistry / MemRegistry were cleared and enabled by whichever
// run_metaprep got there first, and nothing could stop a run short of
// killing the process.  A PipelineSession owns private instances of all
// three plus a CancelToken, points MetaprepConfig's session fields at them,
// and lets run_metaprep install them as thread-local overrides for the
// duration of the run (propagated to ThreadTeam workers and mpsim rank
// threads by util::SessionContext).  Two sessions running concurrently in
// one process therefore keep fully disjoint observability state and can be
// cancelled independently.
//
// Cancellation is cooperative: cancel() flips the token, the pipeline polls
// it at pass/chunk boundaries, and the run unwinds with a typed
// util::Error (ErrorCategory::kCancelled); each rank's TupleArena frees its
// tuple arrays as the run unwinds.  cancel() is safe from any thread,
// including while run() is executing on another.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/pipeline.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace metaprep::serve {

class PipelineSession {
 public:
  PipelineSession() = default;
  PipelineSession(const PipelineSession&) = delete;
  PipelineSession& operator=(const PipelineSession&) = delete;

  /// Run the pipeline with this session's observability instances and
  /// cancel token installed.  The config is taken by value: the session
  /// fields (trace_session, metrics_registry, mem_registry, cancel_token)
  /// are overwritten; everything else passes through untouched.  Throws
  /// util::Error (kCancelled) if cancel() was observed mid-run, and
  /// config_error if this session is already running (one run at a time
  /// per session; make another session for a concurrent run).
  core::PipelineResult run(const core::DatasetIndex& index, core::MetaprepConfig config);

  /// Request cooperative cancellation of the current (or next) run.
  void cancel() noexcept { cancel_.cancel(); }
  /// Re-arm after a cancelled run so the session can be reused.
  void reset_cancel() noexcept { cancel_.reset(); }
  [[nodiscard]] bool cancel_requested() const noexcept { return cancel_.cancelled(); }
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  // The session-owned sinks, readable after (or during) a run.
  [[nodiscard]] obs::TraceSession& trace() noexcept { return trace_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] obs::MemRegistry& mem() noexcept { return mem_; }
  [[nodiscard]] util::CancelToken& cancel_token() noexcept { return cancel_; }

 private:
  obs::TraceSession trace_;
  obs::MetricsRegistry metrics_;
  obs::MemRegistry mem_;
  util::CancelToken cancel_;
  std::atomic<bool> running_{false};
};

}  // namespace metaprep::serve
