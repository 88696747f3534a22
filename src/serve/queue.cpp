#include "serve/queue.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "core/manifest.hpp"
#include "core/plan.hpp"
#include "util/error.hpp"

namespace metaprep::serve {

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

[[nodiscard]] bool terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

}  // namespace

JobQueue::JobQueue(JobQueueOptions options) : options_(std::move(options)) {
  // push_back, not `= "."`: GCC 12 at -O3 flags the inlined assignment with a
  // false -Wrestrict (GCC bug 105329), which -Werror turns into a failure.
  if (options_.job_dir.empty()) options_.job_dir.push_back('.');
  std::filesystem::create_directories(options_.job_dir);
  worker_ = std::thread([this] { worker_loop(); });
}

JobQueue::~JobQueue() { shutdown(); }

std::uint64_t JobQueue::submit(JobSpec spec) {
  // Load outside the lock: index parse is the slow part, and it validates
  // the path before the job can occupy a queue slot.
  auto index = std::make_shared<const core::DatasetIndex>(core::load_index(spec.index_path));
  if (spec.config.k != index->k) spec.config.k = index->k;

  // Thread budget: clamp T so P*T fits the shared allowance.  A rank count
  // below 1 never reaches the division; plan_run rejects it below.
  if (options_.max_threads > 0 && spec.config.num_ranks > 0) {
    if (spec.config.num_ranks > options_.max_threads) {
      throw util::config_error(
          "submit: num_ranks " + std::to_string(spec.config.num_ranks) +
          " exceeds the daemon thread budget " + std::to_string(options_.max_threads));
    }
    const int max_t = options_.max_threads / spec.config.num_ranks;
    spec.config.threads_per_rank = std::min(spec.config.threads_per_rank, max_t);
  }
  const core::RunPlan plan = core::plan_run(spec.config, *index);

  // Memory admission (paper §3.7): predicted per-task bytes vs the budget.
  const std::uint64_t predicted = plan.predicted_bytes();
  if (options_.mem_budget_bytes > 0 && predicted > options_.mem_budget_bytes) {
    std::ostringstream msg;
    msg << "submit: predicted " << predicted << " bytes/task exceeds the daemon budget "
        << options_.mem_budget_bytes << " (increase --passes or lower --ranks/--threads)";
    throw util::config_error(msg.str());
  }

  util::MutexLock lock(mutex_);
  if (stop_) throw util::config_error("submit: queue is shut down");
  const std::uint64_t id = next_id_++;
  // Per-job observability artifacts, scoped by job id unless the spec names
  // its own paths.
  if (spec.config.trace_out.empty()) {
    spec.config.trace_out = options_.job_dir + "/job-" + std::to_string(id) + ".trace.json";
  }
  if (spec.config.metrics_out.empty()) {
    spec.config.metrics_out =
        options_.job_dir + "/job-" + std::to_string(id) + ".metrics.jsonl";
  }

  Job job;
  job.info.id = id;
  job.info.state = JobState::kQueued;
  job.info.priority = spec.priority;
  job.info.index_path = spec.index_path;
  job.info.predicted_bytes = predicted;
  job.info.trace_out = spec.config.trace_out;
  job.info.metrics_out = spec.config.metrics_out;
  job.index = std::move(index);
  job.spec = std::move(spec);
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  cv_work_.notify_one();
  return id;
}

JobInfo JobQueue::status(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw util::config_error("status: unknown job " + std::to_string(id));
  return it->second.info;
}

std::vector<JobInfo> JobQueue::list() const {
  util::MutexLock lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job.info);
  return out;
}

bool JobQueue::cancel(std::uint64_t id) {
  util::MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = it->second;
  if (terminal(job.info.state)) return false;
  if (job.info.state == JobState::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    job.info.state = JobState::kCancelled;
    job.info.error = "cancelled while queued";
    job.index.reset();
    cv_done_.notify_all();
    return true;
  }
  // Running: flip the session token; the worker marks the terminal state
  // when the pipeline unwinds.
  if (job.session != nullptr) job.session->cancel();
  return true;
}

bool JobQueue::wait(std::uint64_t id, double timeout_seconds) const {
  util::MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw util::config_error("wait: unknown job " + std::to_string(id));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_seconds));
  while (!terminal(jobs_.at(id).info.state)) {
    if (cv_done_.wait_until(mutex_, lock, deadline) == std::cv_status::timeout)
      return terminal(jobs_.at(id).info.state);
  }
  return true;
}

void JobQueue::pause() {
  util::MutexLock lock(mutex_);
  paused_ = true;
}

void JobQueue::resume() {
  {
    util::MutexLock lock(mutex_);
    paused_ = false;
  }
  cv_work_.notify_one();
}

bool JobQueue::paused() const {
  util::MutexLock lock(mutex_);
  return paused_;
}

void JobQueue::shutdown() {
  {
    util::MutexLock lock(mutex_);
    if (stop_) return;
    stop_ = true;
    for (const std::uint64_t id : queue_) {
      Job& job = jobs_.at(id);
      job.info.state = JobState::kCancelled;
      job.info.error = "cancelled at shutdown";
      job.index.reset();
    }
    queue_.clear();
    for (auto& [id, job] : jobs_) {
      if (job.session != nullptr) job.session->cancel();
    }
    cv_done_.notify_all();
  }
  cv_work_.notify_one();
  if (worker_.joinable()) worker_.join();
}

std::uint64_t JobQueue::pick_next_locked() const {
  std::uint64_t best = 0;
  int best_priority = 0;
  for (const std::uint64_t id : queue_) {
    if (best == 0 || jobs_.at(id).info.priority > best_priority) {
      best = id;
      best_priority = jobs_.at(id).info.priority;
    }
  }
  return best;
}

void JobQueue::worker_loop() {
  for (;;) {
    std::uint64_t id = 0;
    std::shared_ptr<const core::DatasetIndex> index;
    core::MetaprepConfig config;
    PipelineSession session;
    {
      util::MutexLock lock(mutex_);
      while (!stop_ && (paused_ || queue_.empty())) cv_work_.wait(mutex_, lock);
      if (stop_) return;
      id = pick_next_locked();
      queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
      Job& job = jobs_.at(id);
      job.info.state = JobState::kRunning;
      job.session = &session;
      index = job.index;
      config = job.spec.config;
    }
    JobState final_state = JobState::kDone;
    std::string error;
    core::PipelineResult result;
    try {
      if (config.write_output) std::filesystem::create_directories(config.output_dir);
      result = session.run(*index, config);
      // Same sidecar a direct `metaprep_cli run` leaves next to the bins.
      if (config.write_output) {
        save_manifest(build_manifest(*index, result, config.parse_mode),
                      config.output_dir + "/manifest.tsv");
      }
    } catch (const util::Error& e) {
      final_state = e.category() == util::ErrorCategory::kCancelled ? JobState::kCancelled
                                                                    : JobState::kFailed;
      error = e.what();
    } catch (const std::exception& e) {
      final_state = JobState::kFailed;
      error = e.what();
    }
    {
      util::MutexLock lock(mutex_);
      Job& job = jobs_.at(id);
      job.session = nullptr;
      job.index.reset();
      job.info.state = final_state;
      job.info.error = std::move(error);
      if (final_state == JobState::kDone) {
        job.info.has_result = true;
        job.info.num_reads = result.num_reads;
        job.info.num_components = result.num_components;
        job.info.largest_size = result.largest_size;
        job.info.largest_fraction = result.largest_fraction;
        job.info.passes_used = result.passes_used;
        job.info.output_files = std::move(result.output_files);
        job.info.bin_manifest_path = std::move(result.bin_manifest_path);
      }
      cv_done_.notify_all();
    }
  }
}

}  // namespace metaprep::serve
