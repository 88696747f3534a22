// Multi-tenant job queue for metaprepd.
//
// Jobs are submitted with a saved index path plus a MetaprepConfig and run
// one at a time on a dedicated worker thread, ordered by priority (higher
// first) then FIFO within a priority.  Every job runs inside its own
// PipelineSession, so its trace/metrics/memory state is disjoint from every
// other job's and lands in per-job files scoped by job id.  Each job's
// ranks own their tuple arrays (core::TupleArena) for that job only, so a
// finished job leaves no arrays resident outside the admission budget.
//
// Admission control (paper §3.7): at submit time the per-task memory model
// is evaluated for the job's configuration; when a budget is configured and
// the prediction exceeds it, the job is rejected with a typed config_error
// naming both numbers — the client can resubmit with more passes.  A thread
// budget clamps threads_per_rank so P*T never exceeds the configured core
// allowance shared across jobs.
//
// Cancellation: a queued job is unlinked immediately; a running job's
// session token is flipped and the pipeline unwinds cooperatively at the
// next pass/chunk boundary, freeing every tuple array.  The worker thread
// survives cancelled and failed jobs alike.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/indices.hpp"
#include "core/pipeline.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"
#include "util/sync.hpp"

namespace metaprep::serve {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };
[[nodiscard]] const char* to_string(JobState state) noexcept;

struct JobSpec {
  std::string index_path;       ///< saved core::save_index artifact
  core::MetaprepConfig config;  ///< session fields are overwritten per job
  int priority = 0;             ///< higher runs first; FIFO within a level
};

/// Snapshot of one job's lifecycle, safe to serialize after the lock drops.
struct JobInfo {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  int priority = 0;
  std::string index_path;
  std::string error;  ///< failure / cancellation detail (terminal states)
  std::uint64_t predicted_bytes = 0;  ///< admission-time per-task estimate
  std::string trace_out;              ///< per-job Chrome trace path
  std::string metrics_out;            ///< per-job metrics JSONL path

  bool has_result = false;  ///< kDone only
  std::uint32_t num_reads = 0;
  std::uint64_t num_components = 0;
  std::uint64_t largest_size = 0;
  double largest_fraction = 0.0;
  int passes_used = 0;
  std::vector<std::string> output_files;
  std::string bin_manifest_path;
};

struct JobQueueOptions {
  /// Per-task memory-model budget for admission (0 = no admission limit).
  std::uint64_t mem_budget_bytes = 0;
  /// Total simulated-core allowance shared by every job: threads_per_rank
  /// is clamped so P*T <= max_threads (0 = no limit).  A job whose rank
  /// count alone exceeds the allowance is rejected.
  int max_threads = 0;
  /// Directory for per-job trace/metrics artifacts (created on demand).
  std::string job_dir = ".";
};

class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions options);
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;
  ~JobQueue();

  /// Admit and enqueue a job; returns its id.  Throws util::Error when the
  /// index is unreadable, the thread budget cannot fit the rank count, or
  /// the memory-model prediction exceeds the configured budget.
  std::uint64_t submit(JobSpec spec);

  /// Snapshot a job's state.  Throws config_error for an unknown id.
  [[nodiscard]] JobInfo status(std::uint64_t id) const;
  /// Snapshot every job, id-ascending.
  [[nodiscard]] std::vector<JobInfo> list() const;

  /// Cancel a job: queued -> kCancelled immediately; running -> token flip,
  /// state turns kCancelled when the pipeline unwinds.  Returns false if
  /// the job is unknown or already terminal.
  bool cancel(std::uint64_t id);

  /// Block until the job reaches a terminal state (or timeout).  Returns
  /// true if terminal.  Throws for an unknown id.
  bool wait(std::uint64_t id, double timeout_seconds) const;

  /// Pause/resume dispatch of *queued* jobs (the running job is not
  /// touched).  Lets tests and operators stage deterministic queues.
  void pause();
  void resume();
  [[nodiscard]] bool paused() const;

  /// Cancel the running job, mark every queued job cancelled, and join the
  /// worker.  Idempotent; the destructor calls it.
  void shutdown();

  /// This queue's capability, for lock-order declarations in other layers
  /// (see util/sync.hpp).
  [[nodiscard]] util::Mutex& mu() const RETURN_CAPABILITY(mutex_) { return mutex_; }

 private:
  struct Job {
    JobSpec spec;
    JobInfo info;
    std::shared_ptr<const core::DatasetIndex> index;
    PipelineSession* session = nullptr;  ///< non-null only while running
  };

  void worker_loop();
  [[nodiscard]] std::uint64_t pick_next_locked() const REQUIRES(mutex_);  ///< 0 = none

  JobQueueOptions options_;
  /// Outermost lock in the declared global order (see util/sync.hpp): while
  /// a job runs, the worker publishes into the session registries, so those
  /// capabilities are only ever taken after (never around) this one.
  mutable util::Mutex mutex_ ACQUIRED_BEFORE(obs::TraceSession::global().mu(),
                                             obs::MetricsRegistry::global().mu(),
                                             obs::MemRegistry::global().mu());
  util::CondVar cv_work_;          ///< submit/resume/shutdown -> worker
  mutable util::CondVar cv_done_;  ///< job reached terminal state
  std::map<std::uint64_t, Job> jobs_ GUARDED_BY(mutex_);
  /// Submit order; priority applied at pick.
  std::deque<std::uint64_t> queue_ GUARDED_BY(mutex_);
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  bool paused_ GUARDED_BY(mutex_) = false;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread worker_;
};

}  // namespace metaprep::serve
