// Service-layer tests: re-entrant PipelineSessions (disjoint per-session
// observability, explicit idempotent trace flush, env-override precedence),
// cooperative cancellation that frees every tuple array, and the metaprepd
// job queue / wire protocol.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "core/index_create.hpp"
#include "core/indices.hpp"
#include "core/memory_model.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "obs/mem.hpp"
#include "serve/proto.hpp"
#include "serve/queue.hpp"
#include "serve/session.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/socket.hpp"

namespace metaprep::serve {
namespace {

using test::TempDir;

/// Small simulated dataset + index, shared by the pipeline-running tests.
struct Fixture {
  TempDir dir;
  sim::SimulatedDataset dataset;
  core::DatasetIndex index;

  explicit Fixture(std::uint64_t pairs = 250, std::uint64_t seed = 7) {
    sim::DatasetConfig cfg;
    cfg.name = "serve";
    cfg.genomes.num_species = 3;
    cfg.genomes.min_genome_len = 2500;
    cfg.genomes.max_genome_len = 5000;
    cfg.num_pairs = pairs;
    cfg.reads.seed = seed;
    dataset = sim::simulate_dataset(cfg, dir.file("serve"));
    core::IndexCreateOptions opt;
    opt.k = 27;
    opt.m = 5;
    opt.target_chunks = 8;
    index = core::create_index("serve", dataset.files, true, opt);
  }

  [[nodiscard]] std::string save_index() const {
    const std::string path = dir.file("idx.bin");
    core::save_index(index, path);
    return path;
  }

  [[nodiscard]] core::MetaprepConfig config() const {
    core::MetaprepConfig cfg;
    cfg.k = index.k;
    cfg.write_output = false;
    return cfg;
  }
};

std::vector<std::uint32_t> oracle(const Fixture& fx) {
  return core::reference_components(fx.index, core::KmerFreqFilter{}, io::ParseMode::kStrict);
}

// ---- Satellite: explicit, idempotent per-session trace flush. ----

TEST(TraceFlush, ExplicitFlushIsIdempotentUntilNewEvents) {
  TempDir dir;
  obs::TraceSession session;
  session.enable();
  session.set_flush_path(dir.file("t.json"));
  {
    obs::TraceSession* prev = obs::TraceSession::exchange_current(&session);
    { const obs::TraceSpan span("unit-span"); }
    obs::TraceSession::exchange_current(prev);
  }
  EXPECT_TRUE(session.flush());           // first flush writes
  EXPECT_FALSE(session.flush());          // nothing new -> no rewrite
  const auto doc = util::parse_json_file(dir.file("t.json"));
  bool found = false;
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    if (ev.string_or("name", "") == "unit-span") found = true;
  }
  EXPECT_TRUE(found);
  {
    obs::TraceSession* prev = obs::TraceSession::exchange_current(&session);
    { const obs::TraceSpan span("second-span"); }
    obs::TraceSession::exchange_current(prev);
  }
  EXPECT_TRUE(session.flush());  // new events re-arm the flush
}

TEST(TraceFlush, TwoSequentialSessionsEachProduceCompleteTraces) {
  Fixture fx;
  TempDir out;
  // Two in-process runs, back to back, each in its own session writing its
  // own trace file — the regression for the old atexit-only flush, where
  // the second run's trace clobbered or never materialized.
  const auto ref = test::normalize_partition(oracle(fx));
  for (int i = 0; i < 2; ++i) {
    PipelineSession session;
    core::MetaprepConfig cfg = fx.config();
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.num_passes = 2;
    cfg.trace_out = out.file("run" + std::to_string(i) + ".trace.json");
    cfg.metrics_out = out.file("run" + std::to_string(i) + ".metrics.jsonl");
    const auto result = session.run(fx.index, cfg);
    EXPECT_EQ(test::normalize_partition(result.labels), ref);
  }
  for (int i = 0; i < 2; ++i) {
    const auto doc =
        util::parse_json_file(out.file("run" + std::to_string(i) + ".trace.json"));
    EXPECT_GT(doc.at("traceEvents").as_array().size(), 4u)
        << "trace " << i << " incomplete";
    const auto metrics =
        util::parse_jsonl_file(out.file("run" + std::to_string(i) + ".metrics.jsonl"));
    EXPECT_FALSE(metrics.empty());
  }
}

// ---- Satellite: env-var caching fix — per-thread overrides win. ----

TEST(EnvPrecedence, CheckThreadOverrideBeatsProcessDefault) {
  const bool process_default = check::enabled();
  const int prev = check::exchange_thread_override(1);
  EXPECT_TRUE(check::enabled());
  check::exchange_thread_override(0);
  EXPECT_FALSE(check::enabled());
  check::exchange_thread_override(-1);
  EXPECT_EQ(check::enabled(), process_default);  // inherit restored
  check::exchange_thread_override(prev);
}

TEST(EnvPrecedence, LogThreadOverrideBeatsProcessLevel) {
  const int prev = util::exchange_thread_log_level(
      static_cast<int>(util::LogLevel::kError));
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  util::exchange_thread_log_level(static_cast<int>(util::LogLevel::kDebug));
  EXPECT_EQ(util::log_level(), util::LogLevel::kDebug);
  util::exchange_thread_log_level(-1);
  EXPECT_EQ(util::thread_log_level_override(), -1);
  util::exchange_thread_log_level(prev);
}

TEST(EnvPrecedence, OverridesAreThreadLocal) {
  const int prev = check::exchange_thread_override(1);
  std::atomic<bool> other_thread_sees_inherit{false};
  std::thread t([&] {
    other_thread_sees_inherit = check::thread_override() == -1;
  });
  t.join();
  EXPECT_TRUE(other_thread_sees_inherit);
  check::exchange_thread_override(prev);
}

// ---- Tentpole: concurrent sessions with disjoint observability. ----

TEST(ConcurrentSessions, OracleIdenticalPartitionsAndDisjointObs) {
  Fixture fx_a(250, 11);
  Fixture fx_b(200, 23);
  TempDir out;
  const auto ref_a = test::normalize_partition(oracle(fx_a));
  const auto ref_b = test::normalize_partition(oracle(fx_b));

  PipelineSession session_a;
  PipelineSession session_b;
  core::PipelineResult result_a;
  core::PipelineResult result_b;
  std::exception_ptr err_a;
  std::exception_ptr err_b;

  // Different presets on purpose: one barrier, one overlap.
  std::thread ta([&] {
    try {
      core::MetaprepConfig cfg = fx_a.config();
      cfg.num_ranks = 2;
      cfg.threads_per_rank = 2;
      cfg.num_passes = 2;
      cfg.pipeline_mode = core::PipelineMode::kBarrier;
      cfg.trace_out = out.file("a.trace.json");
      cfg.metrics_out = out.file("a.metrics.jsonl");
      result_a = session_a.run(fx_a.index, cfg);
    } catch (...) {
      err_a = std::current_exception();
    }
  });
  std::thread tb([&] {
    try {
      core::MetaprepConfig cfg = fx_b.config();
      cfg.num_ranks = 2;
      cfg.threads_per_rank = 2;
      cfg.num_passes = 2;
      cfg.pipeline_mode = core::PipelineMode::kOverlap;
      cfg.trace_out = out.file("b.trace.json");
      cfg.metrics_out = out.file("b.metrics.jsonl");
      result_b = session_b.run(fx_b.index, cfg);
    } catch (...) {
      err_b = std::current_exception();
    }
  });
  ta.join();
  tb.join();
  if (err_a) std::rethrow_exception(err_a);
  if (err_b) std::rethrow_exception(err_b);

  EXPECT_EQ(test::normalize_partition(result_a.labels), ref_a);
  EXPECT_EQ(test::normalize_partition(result_b.labels), ref_b);

  // Disjoint per-session state: each session recorded its own run only.
  EXPECT_GT(session_a.metrics().counter("pipeline.tuples_total").value(), 0u);
  EXPECT_GT(session_b.metrics().counter("pipeline.tuples_total").value(), 0u);
  const auto trace_a = util::parse_json_file(out.file("a.trace.json"));
  const auto trace_b = util::parse_json_file(out.file("b.trace.json"));
  EXPECT_GT(trace_a.at("traceEvents").as_array().size(), 4u);
  EXPECT_GT(trace_b.at("traceEvents").as_array().size(), 4u);
  EXPECT_FALSE(util::parse_jsonl_file(out.file("a.metrics.jsonl")).empty());
  EXPECT_FALSE(util::parse_jsonl_file(out.file("b.metrics.jsonl")).empty());
}

// ---- Cancellation frees every tuple array. ----

TEST(Cancel, PreCancelledRunUnwindsTyped) {
  Fixture fx;
  PipelineSession session;
  session.cancel();
  core::MetaprepConfig cfg = fx.config();
  cfg.num_passes = 2;
  try {
    session.run(fx.index, cfg);
    FAIL() << "pre-cancelled run completed";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kCancelled);
  }
  EXPECT_FALSE(session.running());
  // The session is reusable after re-arming.
  session.reset_cancel();
  const auto result = session.run(fx.index, cfg);
  EXPECT_EQ(test::normalize_partition(result.labels),
            test::normalize_partition(oracle(fx)));
}

TEST(Cancel, MidPassOverlapRunReturnsAllLeases) {
  Fixture fx(400, 31);
  // Checked mode poisons every released tuple buffer and scans it on reuse;
  // the thread override propagates to the rank/worker threads via
  // SessionContext.
  const int prev_check = check::exchange_thread_override(1);
  auto tuples_usage = [](PipelineSession& session) {
    for (const auto& [name, usage] : session.mem().snapshot()) {
      if (name == "tuples") return usage;
    }
    return obs::MemUsage{};  // a cancel before the first lease charges nothing
  };
  auto overlap_config = [&fx](int passes) {
    core::MetaprepConfig cfg = fx.config();
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.num_passes = passes;
    cfg.pipeline_mode = core::PipelineMode::kOverlap;
    return cfg;
  };

  bool observed_cancel = false;
  for (int attempt = 0; attempt < 12 && !observed_cancel; ++attempt) {
    PipelineSession session;
    session.mem().set_enabled(true);
    // Fire the token from a racing thread; a later attempt fires later so
    // the cancel lands in different pipeline phases across attempts.
    std::thread killer([&session, attempt] {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * (attempt + 1)));
      session.cancel();
    });
    try {
      session.run(fx.index, overlap_config(4));
    } catch (const util::Error& e) {
      ASSERT_EQ(e.category(), util::ErrorCategory::kCancelled) << e.what();
      observed_cancel = true;
    }
    killer.join();
    // The hard invariant: cancelled or not, every tuple array was freed.
    EXPECT_EQ(tuples_usage(session).current, 0) << "attempt " << attempt;
  }
  EXPECT_TRUE(observed_cancel) << "no attempt observed a mid-run cancel";

  // A full checked run afterwards: every reuse passes the poison scan, the
  // arrays are freed at the end, and the partition matches the oracle.
  PipelineSession session;
  session.mem().set_enabled(true);
  const auto result = session.run(fx.index, overlap_config(2));
  EXPECT_GT(tuples_usage(session).high_water, 0);
  EXPECT_EQ(tuples_usage(session).current, 0);
  EXPECT_EQ(test::normalize_partition(result.labels),
            test::normalize_partition(oracle(fx)));
  check::exchange_thread_override(prev_check);
}

// ---- Job queue. ----

TEST(JobQueue, SubmitRunsToCompletionWithPerJobArtifacts) {
  Fixture fx;
  TempDir jobs;
  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  JobQueue queue(opt);
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = fx.config();
  spec.config.num_ranks = 2;
  spec.config.threads_per_rank = 2;
  const std::uint64_t id = queue.submit(spec);
  ASSERT_TRUE(queue.wait(id, 60.0));
  const JobInfo info = queue.status(id);
  ASSERT_EQ(info.state, JobState::kDone) << info.error;
  EXPECT_TRUE(info.has_result);
  EXPECT_GT(info.num_components, 0u);
  EXPECT_GT(info.predicted_bytes, 0u);
  EXPECT_TRUE(std::filesystem::exists(info.trace_out));
  EXPECT_TRUE(std::filesystem::exists(info.metrics_out));
  EXPECT_NE(info.trace_out.find("job-1"), std::string::npos);
}

TEST(JobQueue, PriorityBeatsFifoAndCancelUnlinksQueuedJobs) {
  Fixture fx;
  TempDir jobs;
  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  JobQueue queue(opt);
  queue.pause();
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = fx.config();
  const std::uint64_t low = queue.submit(spec);
  spec.priority = 5;
  const std::uint64_t high = queue.submit(spec);
  spec.priority = 0;
  const std::uint64_t doomed = queue.submit(spec);
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_EQ(queue.status(doomed).state, JobState::kCancelled);
  EXPECT_FALSE(queue.cancel(doomed));  // already terminal
  queue.resume();
  ASSERT_TRUE(queue.wait(low, 60.0));
  ASSERT_TRUE(queue.wait(high, 60.0));
  EXPECT_EQ(queue.status(low).state, JobState::kDone);
  EXPECT_EQ(queue.status(high).state, JobState::kDone);
  EXPECT_EQ(queue.list().size(), 3u);
}

TEST(JobQueue, AdmissionRejectsWhenPredictionExceedsBudget) {
  Fixture fx;
  TempDir jobs;
  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  opt.mem_budget_bytes = 1;  // nothing fits
  JobQueue queue(opt);
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = fx.config();
  EXPECT_THROW(queue.submit(spec), util::Error);
}

TEST(JobQueue, AdmissionRejectsNegativePassCount) {
  Fixture fx;
  TempDir jobs;
  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  JobQueue queue(opt);
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = fx.config();
  spec.config.num_passes = -2;
  try {
    (void)queue.submit(spec);
    ADD_FAILURE() << "num_passes = -2 admitted";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kConfig) << e.what();
  }
  EXPECT_TRUE(queue.list().empty());
}

// A zero or negative rank count used to reach the thread clamp's division
// (max_threads / num_ranks) and kill the process with SIGFPE.
TEST(JobQueue, NonPositiveRanksAreConfigErrors) {
  Fixture fx;
  TempDir jobs;
  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  opt.max_threads = 2;
  JobQueue queue(opt);
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = fx.config();
  for (const int ranks : {0, -1}) {
    spec.config.num_ranks = ranks;
    try {
      (void)queue.submit(spec);
      ADD_FAILURE() << "num_ranks = " << ranks << " admitted";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kConfig) << e.what();
    }
  }
  EXPECT_TRUE(queue.list().empty());
}

// Admission and the run derive S from the budget through one plan_run, so
// the queue's prediction is the run's own memory-model total.
TEST(JobQueue, AdmissionAndRunShareOnePlanForABudgetDerivedS) {
  Fixture fx;
  TempDir jobs;
  core::MetaprepConfig cfg = fx.config();
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  core::MemoryModelInput mm = core::memory_model_input(fx.index, 2, 2);
  mm.num_passes = 3;
  cfg.num_passes = 0;
  cfg.memory_budget_bytes = core::estimate_memory(mm).total;
  const core::RunPlan plan = core::plan_run(cfg, fx.index);
  ASSERT_EQ(plan.num_passes, 3);

  core::MetaprepConfig traced = cfg;
  traced.attr_out = jobs.file("attr.json");
  const core::PipelineResult result = core::run_metaprep(fx.index, traced);
  ASSERT_TRUE(result.has_attr);
  EXPECT_EQ(result.passes_used, plan.num_passes);
  EXPECT_EQ(result.attr.mem_predicted_total, plan.predicted_bytes() * 2);

  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  JobQueue queue(opt);
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = cfg;
  const std::uint64_t id = queue.submit(spec);
  ASSERT_TRUE(queue.wait(id, 60.0));
  const JobInfo info = queue.status(id);
  ASSERT_EQ(info.state, JobState::kDone) << info.error;
  EXPECT_EQ(info.predicted_bytes, plan.predicted_bytes());
  EXPECT_EQ(info.passes_used, result.passes_used);
}

TEST(JobQueue, ThreadBudgetClampsAndRejects) {
  Fixture fx;
  TempDir jobs;
  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  opt.max_threads = 2;
  JobQueue queue(opt);
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = fx.config();
  spec.config.num_ranks = 4;  // ranks alone exceed the allowance
  EXPECT_THROW(queue.submit(spec), util::Error);
  spec.config.num_ranks = 2;
  spec.config.threads_per_rank = 8;  // clamped to 1 so P*T == 2
  const std::uint64_t id = queue.submit(spec);
  ASSERT_TRUE(queue.wait(id, 60.0));
  EXPECT_EQ(queue.status(id).state, JobState::kDone);
}

TEST(JobQueue, CancelRunningJobLeavesQueueServing) {
  Fixture fx(400, 41);
  TempDir jobs;
  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  JobQueue queue(opt);
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = fx.config();
  spec.config.num_ranks = 2;
  spec.config.threads_per_rank = 2;
  spec.config.num_passes = 4;
  spec.config.pipeline_mode = core::PipelineMode::kOverlap;
  const std::uint64_t victim = queue.submit(spec);
  // Let the run start, then cancel it mid-flight (the exact phase the token
  // lands in varies; either a cancelled unwind or a photo-finish completion
  // is acceptable — the queue must keep serving afterwards either way).
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.cancel(victim);
  ASSERT_TRUE(queue.wait(victim, 60.0));
  const JobState vs = queue.status(victim).state;
  EXPECT_TRUE(vs == JobState::kCancelled || vs == JobState::kDone) << to_string(vs);

  spec.config.num_passes = 1;
  spec.config.pipeline_mode = core::PipelineMode::kBarrier;
  const std::uint64_t next = queue.submit(spec);
  ASSERT_TRUE(queue.wait(next, 60.0));
  EXPECT_EQ(queue.status(next).state, JobState::kDone) << queue.status(next).error;
}

// Regression hammer pinned by the thread-safety-annotation audit: pause(),
// resume(), cancel(), status(), list(), and paused() all touch the guarded
// queue state from client threads while the worker dispatches.  The
// annotations prove the lock discipline at compile time under clang; this
// test drives every entry point concurrently so the TSan tier-1 leg can
// prove it dynamically.  Jobs may dispatch during the transient resumes;
// the invariant is that no toggle storm loses or double-runs one — every
// job still reaches kDone exactly once.
TEST(JobQueue, PauseResumeHammerDispatchesEveryJobExactlyOnce) {
  Fixture fx;
  TempDir jobs;
  JobQueueOptions opt;
  opt.job_dir = jobs.str();
  JobQueue queue(opt);
  queue.pause();
  JobSpec spec;
  spec.index_path = fx.save_index();
  spec.config = fx.config();
  std::vector<std::uint64_t> ids;
  ids.reserve(4);
  for (int i = 0; i < 4; ++i) ids.push_back(queue.submit(spec));

  std::atomic<bool> done{false};
  std::thread toggler([&] {
    for (int i = 0; i < 400; ++i) {
      queue.pause();
      queue.resume();
    }
    // Leave the queue paused so the observer below can still see a stable
    // paused() == true at least once before the final resume.
    queue.pause();
  });
  std::thread observer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)queue.paused();
      (void)queue.list();
      for (const std::uint64_t id : ids) (void)queue.status(id);
    }
  });
  toggler.join();
  queue.resume();
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(queue.wait(id, 120.0)) << "job " << id << " never finished";
    EXPECT_EQ(queue.status(id).state, JobState::kDone) << queue.status(id).error;
  }
  done = true;
  observer.join();
  EXPECT_FALSE(queue.paused());
  EXPECT_EQ(queue.list().size(), ids.size());
}

// ---- Wire protocol + daemon control plane. ----

TEST(Proto, EscapesAndRoundTrips) {
  JsonLineWriter w;
  w.field("ok", true);
  w.field("text", std::string("a\"b\\c\nd"));
  w.field("n", static_cast<std::uint64_t>(42));
  const auto doc = util::parse_json(w.finish());
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("text").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(doc.at("n").as_uint(), 42u);
}

TEST(Proto, ParseSubmitValidatesFields) {
  EXPECT_THROW(parse_submit(R"({"cmd":"submit"})"), util::Error);
  EXPECT_THROW(parse_submit(R"({"cmd":"submit","index":"i","pipeline_mode":"bogus"})"),
               util::Error);
  const JobSpec spec = parse_submit(
      R"({"cmd":"submit","index":"i.bin","ranks":3,"threads":2,"passes":4,)"
      R"("priority":7,"no_output":true,"pipeline_mode":"overlap"})");
  EXPECT_EQ(spec.index_path, "i.bin");
  EXPECT_EQ(spec.config.num_ranks, 3);
  EXPECT_EQ(spec.config.threads_per_rank, 2);
  EXPECT_EQ(spec.config.num_passes, 4);
  EXPECT_EQ(spec.priority, 7);
  EXPECT_FALSE(spec.config.write_output);
  EXPECT_EQ(spec.config.pipeline_mode, core::PipelineMode::kOverlap);
}

TEST(Proto, ParseSubmitRejectsUnknownKeys) {
  // A typo'd key must fail with a config error naming it, not silently run
  // with the default thread count; so must a key whose field was deleted.
  for (const auto& [request, key] :
       {std::pair{R"({"cmd":"submit","index":"i.bin","thread":4})", "'thread'"},
        std::pair{R"({"cmd":"submit","index":"i.bin","packed_store":"x"})", "'packed_store'"}}) {
    try {
      (void)parse_submit(request);
      FAIL() << "unknown key accepted: " << request;
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kConfig);
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // Twelve keys accepted together; "no_output" is the JSON key of the
  // --no-output run field.
  const JobSpec spec = parse_submit(
      R"({"cmd":"submit","index":"i.bin","ranks":2,"threads":3,"passes":4,"priority":5,)"
      R"("out":"o","no_output":true,"output_bins":6,"pipeline_mode":"barrier",)"
      R"("filter_min":2,"filter_max":9})");
  EXPECT_EQ(spec.config.num_ranks, 2);
  EXPECT_EQ(spec.config.threads_per_rank, 3);
  EXPECT_EQ(spec.config.num_passes, 4);
  EXPECT_EQ(spec.priority, 5);
  EXPECT_EQ(spec.config.output_dir, "o");
  EXPECT_FALSE(spec.config.write_output);
  EXPECT_EQ(spec.config.output_bins, 6);
  EXPECT_EQ(spec.config.pipeline_mode, core::PipelineMode::kBarrier);
  EXPECT_EQ(spec.config.filter.min_freq, 2u);
  EXPECT_EQ(spec.config.filter.max_freq, 9u);
}

// A request nested past the JSON reader's depth cap is an error response,
// not a stack overflow that kills the daemon.
TEST(Daemon, DeeplyNestedRequestIsAnErrorResponse) {
  TempDir dir;
  DaemonOptions opt;
  opt.socket_path = dir.file("d.sock");
  opt.job_dir = dir.str();
  Daemon daemon(opt);
  const std::string line = R"({"cmd":"submit","index":)" + std::string(300000, '[');
  EXPECT_FALSE(util::parse_json(daemon.handle_request(line)).at("ok").as_bool());
  EXPECT_NO_THROW((void)util::parse_json(std::string(64, '[') + std::string(64, ']')));
}

TEST(Daemon, HandleRequestCoversProtocolErrors) {
  TempDir dir;
  DaemonOptions opt;
  opt.socket_path = dir.file("d.sock");
  opt.job_dir = dir.str();
  Daemon daemon(opt);
  EXPECT_EQ(util::parse_json(daemon.handle_request(R"({"cmd":"ping"})"))
                .at("ok").as_bool(), true);
  EXPECT_FALSE(util::parse_json(daemon.handle_request("not json")).at("ok").as_bool());
  EXPECT_FALSE(util::parse_json(daemon.handle_request(R"({"cmd":"warp"})"))
                   .at("ok").as_bool());
  EXPECT_FALSE(util::parse_json(daemon.handle_request(R"({"nocmd":1})"))
                   .at("ok").as_bool());
  EXPECT_FALSE(util::parse_json(daemon.handle_request(R"({"cmd":"status","job":99})"))
                   .at("ok").as_bool());
  EXPECT_FALSE(util::parse_json(daemon.handle_request(R"({"cmd":"status"})"))
                   .at("ok").as_bool());
}

TEST(Daemon, ServesOverSocketAndUnlinksOnShutdown) {
  TempDir dir;
  DaemonOptions opt;
  opt.socket_path = dir.file("d.sock");
  opt.job_dir = dir.str();
  Daemon daemon(opt);
  std::thread server([&] { daemon.serve(); });
  // Wait for the socket to come up, then ping and shut down.
  std::string response;
  for (int i = 0; i < 200; ++i) {
    try {
      util::SocketConn conn = util::connect_unix(opt.socket_path);
      conn.send_line(R"({"cmd":"ping"})");
      ASSERT_TRUE(conn.recv_line(response));
      break;
    } catch (const util::Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(util::parse_json(response).at("ok").as_bool());
  {
    util::SocketConn conn = util::connect_unix(opt.socket_path);
    conn.send_line(R"({"cmd":"shutdown"})");
    ASSERT_TRUE(conn.recv_line(response));
  }
  server.join();
  EXPECT_FALSE(std::filesystem::exists(opt.socket_path)) << "socket file leaked";
}

TEST(Socket, ListenerHealsStaleFilesButRefusesLiveDaemons) {
  TempDir dir;
  const std::string path = dir.file("s.sock");
  {
    // A dead process's leftover: bind, then destroy without unlink by
    // simulating with a plain stale socket (destructor unlinks, so create
    // again and verify rebinding over a *regular file* heals too).
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  util::UnixListener healed(path);  // probe-connect fails -> unlink + rebind
  EXPECT_THROW(util::UnixListener{path}, util::Error);  // live listener wins
}

}  // namespace
}  // namespace metaprep::serve
