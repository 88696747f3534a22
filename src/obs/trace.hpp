// Low-overhead span tracer exporting Chrome trace_event JSON.
//
// The METAPREP evaluation reasons about *where time goes per rank per pass*
// (Figures 5-8 are stacked per-step times; Figure 8 is per-rank spread).
// StepTimes only keeps sums, so this tracer records the actual intervals:
// RAII TraceSpans around each pipeline step, tagged with the simulated MPI
// rank ("pid") and worker thread ("tid"), buffered per OS thread without
// locks, and exported in the Chrome trace_event JSON array format that
// chrome://tracing and https://ui.perfetto.dev load directly — ranks show up
// as processes, threads as tracks.
//
// Cost discipline: when the session is disabled, constructing a TraceSpan is
// one relaxed atomic load and a branch; nothing is allocated and the
// destructor does nothing.  Recording when enabled is a push_back into a
// thread-local vector (no lock; buffer registration takes the session mutex
// once per thread).  Export is for quiescent points only — after World::run
// returns, between bench repetitions — not concurrent with recording.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace metaprep::obs {

/// @p text escaped for the inside of a JSON string (quotes, backslash and
/// control bytes); the one escaper every JSON exporter in the repo uses.
[[nodiscard]] std::string json_escape(const std::string& text);
/// The shortest of %.15g / %.17g that reads back as @p v exactly.
[[nodiscard]] std::string json_number(double v);

/// One closed span: [ts_us, ts_us + dur_us) on (pid, tid), timestamps in
/// microseconds since the session epoch.  dur_us < 0 marks a point event:
/// either a plain instant (flow_dir == 0) or a cross-thread flow marker
/// (flow_dir == kFlowSend / kFlowRecv) carrying a message id that pairs a
/// send with its matching receive — the edges the critical-path walker and
/// the Chrome "s"/"f" flow arrows are built from.
struct TraceEvent {
  static constexpr int kFlowSend = 1;
  static constexpr int kFlowRecv = 2;

  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int pid = 0;
  int tid = 0;
  std::uint64_t flow = 0;  // message id; 0 = not a flow marker
  int flow_dir = 0;        // 0 = none, kFlowSend, kFlowRecv
};

class TraceSession {
 public:
  /// The process-wide session used as the default sink.  On first access it
  /// honors the METAPREP_TRACE environment variable: unset or "0" leaves
  /// tracing off; "1" enables recording; any other value enables recording,
  /// sets it as the flush path, and registers a last-resort atexit flush
  /// (explicit flush() beforehand makes the atexit hook a no-op).
  static TraceSession& global();

  /// The session built-in instrumentation records into: the calling
  /// thread's override when one is installed (util::SessionContext does this
  /// for pipeline sessions), otherwise global().  Precedence: thread
  /// override > METAPREP_TRACE-configured global default.
  static TraceSession& current() noexcept;

  /// Install @p session as the calling thread's recording target (nullptr
  /// restores the global default).  Returns the previous override so callers
  /// can restore it RAII-style.
  static TraceSession* exchange_current(TraceSession* session) noexcept;

  /// The calling thread's override, nullptr when inheriting the global.
  [[nodiscard]] static TraceSession* current_override() noexcept;

  TraceSession();

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Tag the calling thread's future events with (pid, tid).  The pipeline
  /// maps simulated MPI rank -> pid and worker thread -> tid; untagged
  /// threads record under pid 0 with a unique auto-assigned tid.
  static void set_thread_identity(int pid, int tid) noexcept;

  /// Microseconds since the session epoch (steady clock).  Lock-free: the
  /// epoch is an atomic tick count so concurrent recorders never synchronise
  /// here (clear() rewrites it only at quiescent points).
  [[nodiscard]] double now_us() const noexcept {
    const std::chrono::steady_clock::duration since{
        std::chrono::steady_clock::now().time_since_epoch().count() -
        epoch_ticks_.load(std::memory_order_relaxed)};
    return std::chrono::duration<double, std::micro>(since).count();
  }

  /// Append a closed span to the calling thread's buffer.  No-op when
  /// disabled.  @p name is copied.
  void record(const char* name, double ts_us, double dur_us);

  /// Zero-duration marker (exported as an instant event).
  void instant(const char* name);

  /// Flow marker: a send (is_send) or matching receive point for message
  /// @p flow_id, stamped at now_us() on the calling thread.  Exported as
  /// Chrome "s"/"f" flow events; consumed by attr's critical-path walker.
  void flow_marker(const char* name, std::uint64_t flow_id, bool is_send);

  /// Drop all recorded events and start a fresh epoch.  Quiescent use only.
  void clear();

  /// Events recorded so far across all threads.  Quiescent use only.
  [[nodiscard]] std::size_t event_count() const;

  /// Copy of every recorded event, in per-thread completion order.
  /// Quiescent use only — this is the PhaseAccountant's input.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Serialize to the Chrome trace_event JSON array format.  Spans are
  /// emitted as matched "B"/"E" pairs sorted by timestamp, plus "M" metadata
  /// events naming each rank's process.  Quiescent use only.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Write to_chrome_json() to @p path (truncates).  Throws on I/O failure.
  void write_chrome_json(const std::string& path) const;

  /// Where flush() writes.  Setting a new path re-arms flush() even if the
  /// event count is unchanged.
  void set_flush_path(std::string path);
  [[nodiscard]] std::string flush_path() const;

  /// Idempotent export: write the trace to the flush path if one is set and
  /// events were recorded since the last flush.  Returns true when a file
  /// was (re)written.  Safe to call any number of times per session; the
  /// atexit hook on the global session calls this as a last resort, so a
  /// session explicitly flushed (or with no flush path) costs nothing at
  /// exit.  Quiescent use only.
  bool flush();

  /// This session's buffer-registry capability, for lock-order declarations
  /// in other layers (see util/sync.hpp).
  [[nodiscard]] util::Mutex& mu() const RETURN_CAPABILITY(mutex_) { return mutex_; }

 private:
  struct Buffer {
    std::vector<TraceEvent> events;
  };

  /// The calling thread's buffer for this session, registered on first use
  /// (and re-registered after clear(), which bumps the generation).
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> next_auto_tid_{100000};  // clear of real rank/thread ids
  const std::uint64_t id_;  // process-unique; keys the per-thread buffer cache
  /// Session epoch as steady-clock ticks.  Atomic rather than GUARDED_BY:
  /// now_us() runs on every recording thread with no lock held, while
  /// clear() rewrites the epoch under mutex_ — an atomic makes the pair safe
  /// even if the quiescence contract around clear() is ever violated.
  std::atomic<std::chrono::steady_clock::rep> epoch_ticks_;
  /// Export-side lock.  flush() holds it across event_count() and
  /// write_chrome_json(), both of which take mutex_, hence the declared
  /// flush_mutex_ -> mutex_ order below.
  mutable util::Mutex flush_mutex_;
  mutable util::Mutex mutex_ ACQUIRED_AFTER(flush_mutex_);
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mutex_);
  std::string flush_path_ GUARDED_BY(flush_mutex_);
  bool flushed_once_ GUARDED_BY(flush_mutex_) = false;
  std::size_t flushed_count_ GUARDED_BY(flush_mutex_) = 0;
};

/// RAII span against the current session: records [construction,
/// destruction) under the name given.  The name must outlive the span
/// (string literals).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept {
    TraceSession& s = TraceSession::current();
    if (s.enabled()) {
      session_ = &s;
      name_ = name;
      start_us_ = s.now_us();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (session_ != nullptr)
      session_->record(name_, start_us_, session_->now_us() - start_us_);
  }

 private:
  TraceSession* session_ = nullptr;
  const char* name_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace metaprep::obs
