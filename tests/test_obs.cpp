// Tests for the observability subsystem (src/obs): metrics registry
// exactness and JSONL export, Chrome-trace export structure, the
// disabled-path contract, and the end-to-end pipeline wiring.
//
// The exported formats are validated with a minimal recursive-descent JSON
// parser defined below — the repo deliberately has no JSON dependency, and
// round-tripping through a real parser is the only honest way to assert
// "this file loads in chrome://tracing".
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/index_create.hpp"
#include "core/pipeline.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/thread_team.hpp"

namespace metaprep::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: objects, arrays, strings (with escapes), numbers,
// true/false/null.  Throws std::runtime_error on malformed input.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    auto it = fields.find(key);
    if (it == fields.end()) throw std::runtime_error("json: missing key " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return fields.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view src) : src_(src) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != src_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " + std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < src_.size() && (src_[pos_] == ' ' || src_[pos_] == '\t' ||
                                  src_[pos_] == '\n' || src_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= src_.size()) fail("unexpected end");
    return src_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return keyword("true", [] { JsonValue v; v.kind = JsonValue::Kind::kBool; v.boolean = true; return v; }());
      case 'f': return keyword("false", [] { JsonValue v; v.kind = JsonValue::Kind::kBool; return v; }());
      case 'n': return keyword("null", JsonValue{});
      default: return number_value();
    }
  }

  JsonValue keyword(const char* word, JsonValue v) {
    const std::size_t len = std::string_view(word).size();
    if (src_.substr(pos_, len) != word) fail("bad keyword");
    pos_ += len;
    return v;
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.fields[key.text] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    for (;;) {
      if (pos_ >= src_.size()) fail("unterminated string");
      char c = src_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.text += c;
        continue;
      }
      if (pos_ >= src_.size()) fail("bad escape");
      char e = src_[pos_++];
      switch (e) {
        case '"': v.text += '"'; break;
        case '\\': v.text += '\\'; break;
        case '/': v.text += '/'; break;
        case 'b': v.text += '\b'; break;
        case 'f': v.text += '\f'; break;
        case 'n': v.text += '\n'; break;
        case 'r': v.text += '\r'; break;
        case 't': v.text += '\t'; break;
        case 'u': {
          if (pos_ + 4 > src_.size()) fail("bad \\u escape");
          const std::string hex(src_.substr(pos_, 4));
          pos_ += 4;
          const unsigned long cp = std::stoul(hex, nullptr, 16);
          if (cp > 0x7F) {
            v.text += '?';  // non-ASCII: not produced by our writers
          } else {
            v.text += static_cast<char>(cp);
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue number_value() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '-' ||
            src_[pos_] == '+' || src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(std::string(src_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse(); }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// RAII guard: force the metrics registry into a known enabled state and
/// restore the previous state afterwards (the registry is process-global).
class MetricsEnabledGuard {
 public:
  explicit MetricsEnabledGuard(bool on) : prev_(metrics().enabled()) {
    metrics().set_enabled(on);
  }
  ~MetricsEnabledGuard() { metrics().set_enabled(prev_); }

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterExactUnderThreadTeamStress) {
  MetricsEnabledGuard guard(true);
  Counter& c = metrics().counter("test.stress_counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  util::ThreadTeam team(kThreads);
  team.run([&](int tid) {
    for (int i = 0; i < kAddsPerThread; ++i) c.add(1);
    // Mixed increments exercise the n>1 path from distinct threads.
    c.add(static_cast<std::uint64_t>(tid));
  });
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * kAddsPerThread + (kThreads * (kThreads - 1)) / 2;
  EXPECT_EQ(c.value(), expected);
}

TEST(Metrics, HistogramExactUnderThreadTeamStress) {
  MetricsEnabledGuard guard(true);
  Histogram& h = metrics().histogram("test.stress_histogram");
  h.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  util::ThreadTeam team(kThreads);
  team.run([&](int) {
    for (std::uint64_t v = 0; v < kPerThread; ++v) h.record(v % 16);
  });
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // sum of (v % 16) over 5000 values per thread: 312 full cycles of 0..15
  // (sum 120) plus a remainder cycle 0..7 (sum 28).
  const std::uint64_t per_thread_sum = 312 * 120 + 28;
  EXPECT_EQ(h.sum(), static_cast<std::uint64_t>(kThreads) * per_thread_sum);
}

TEST(Metrics, DisabledRegistryRecordsNothing) {
  MetricsEnabledGuard guard(false);
  Counter& c = metrics().counter("test.disabled_counter");
  Gauge& g = metrics().gauge("test.disabled_gauge");
  Histogram& h = metrics().histogram("test.disabled_histogram");
  c.reset();
  g.reset();
  h.reset();
  c.add(42);
  g.set(3.5);
  g.set_max(7.0);
  h.record(9);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(Metrics, HistogramPowerOfTwoBucketing) {
  MetricsEnabledGuard guard(true);
  Histogram& h = metrics().histogram("test.bucket_histogram");
  h.reset();
  // bucket = bit_width(v): 0 -> 0; 1 -> 1; 2,3 -> 2; 4..7 -> 3; 8..15 -> 4.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 15ull, 16ull}) h.record(v);
  const auto buckets = h.bucket_counts();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(buckets[4], 2u);
  EXPECT_EQ(buckets[5], 1u);
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 7 + 8 + 15 + 16);
  // The largest representable value lands in the last bucket.
  h.record(~0ull);
  EXPECT_EQ(h.bucket_counts()[64], 1u);
}

TEST(Metrics, GaugeSetMaxKeepsMaximum) {
  MetricsEnabledGuard guard(true);
  Gauge& g = metrics().gauge("test.max_gauge");
  g.reset();
  g.set_max(5.0);
  g.set_max(2.0);
  EXPECT_EQ(g.value(), 5.0);
  g.set_max(9.0);
  EXPECT_EQ(g.value(), 9.0);
  g.set(1.0);  // plain set overwrites regardless
  EXPECT_EQ(g.value(), 1.0);
}

TEST(Metrics, JsonlSnapshotParsesAndDescribesEveryMetric) {
  MetricsEnabledGuard guard(true);
  metrics().counter("test.jsonl_counter").reset();
  metrics().counter("test.jsonl_counter").add(7);
  metrics().gauge("test.jsonl_gauge").set(2.25);
  metrics().histogram("test.jsonl_histogram").reset();
  metrics().histogram("test.jsonl_histogram").record(5);

  const std::string jsonl = metrics().to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::map<std::string, JsonValue> by_name;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue v = parse_json(line);
    ASSERT_EQ(v.kind, JsonValue::Kind::kObject) << line;
    by_name[v.at("name").text] = v;
  }
  ASSERT_TRUE(by_name.count("test.jsonl_counter"));
  EXPECT_EQ(by_name["test.jsonl_counter"].at("type").text, "counter");
  EXPECT_EQ(by_name["test.jsonl_counter"].at("value").number, 7.0);
  ASSERT_TRUE(by_name.count("test.jsonl_gauge"));
  EXPECT_EQ(by_name["test.jsonl_gauge"].at("type").text, "gauge");
  EXPECT_EQ(by_name["test.jsonl_gauge"].at("value").number, 2.25);
  ASSERT_TRUE(by_name.count("test.jsonl_histogram"));
  EXPECT_EQ(by_name["test.jsonl_histogram"].at("type").text, "histogram");
  EXPECT_EQ(by_name["test.jsonl_histogram"].at("count").number, 1.0);
  EXPECT_EQ(by_name["test.jsonl_histogram"].at("sum").number, 5.0);
  // Every registered name appears in the snapshot.
  for (const auto& name : metrics().names()) {
    EXPECT_TRUE(by_name.count(name)) << name;
  }
}

// ---------------------------------------------------------------------------
// Trace session
// ---------------------------------------------------------------------------

/// Walk a parsed Chrome trace: per-(pid,tid) track, "B"/"E" must follow stack
/// discipline with matching names and non-decreasing timestamps.  Returns the
/// multiset of completed span names.
std::multiset<std::string> check_balanced_nested(const JsonValue& trace) {
  const JsonValue& events = trace.at("traceEvents");
  EXPECT_EQ(events.kind, JsonValue::Kind::kArray);
  struct Track {
    std::vector<std::string> stack;
    double last_ts = -1.0;
  };
  std::map<std::pair<int, int>, Track> tracks;
  std::multiset<std::string> names;
  for (const JsonValue& ev : events.items) {
    const std::string& ph = ev.at("ph").text;
    if (ph == "M") continue;
    const auto key = std::pair(static_cast<int>(ev.at("pid").number),
                               static_cast<int>(ev.at("tid").number));
    Track& track = tracks[key];
    const double ts = ev.at("ts").number;
    EXPECT_GE(ts, track.last_ts) << "events not in timestamp order within a track";
    track.last_ts = ts;
    if (ph == "B") {
      track.stack.push_back(ev.at("name").text);
    } else if (ph == "E") {
      if (track.stack.empty()) {
        ADD_FAILURE() << "unbalanced E event for " << ev.at("name").text;
        continue;
      }
      EXPECT_EQ(track.stack.back(), ev.at("name").text) << "E does not match innermost B";
      names.insert(track.stack.back());
      track.stack.pop_back();
    } else {
      // Instants plus the mpsim flow arrows ("s" start / "f" finish) are the
      // only point events the exporter emits.
      EXPECT_TRUE(ph == "i" || ph == "s" || ph == "f") << "unexpected phase " << ph;
    }
  }
  for (const auto& [key, track] : tracks) {
    EXPECT_TRUE(track.stack.empty())
        << "unclosed spans on pid " << key.first << " tid " << key.second;
  }
  return names;
}

TEST(Trace, DisabledSessionRecordsNothing) {
  TraceSession& s = TraceSession::global();
  s.disable();
  s.clear();
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
    s.instant("marker");
  }
  EXPECT_EQ(s.event_count(), 0u);
  // A span started while disabled records nothing even if the session is
  // enabled before it closes (the decision is taken at construction).
  std::unique_ptr<TraceSpan> span = std::make_unique<TraceSpan>("late");
  s.enable();
  span.reset();
  EXPECT_EQ(s.event_count(), 0u);
  s.disable();
}

TEST(Trace, ExportIsBalancedAndNestedAcrossThreads) {
  TraceSession& s = TraceSession::global();
  s.clear();
  s.enable();
  constexpr int kThreads = 4;
  util::ThreadTeam team(kThreads);
  team.run([&](int tid) {
    TraceSession::set_thread_identity(/*pid=*/tid % 2, /*tid=*/tid);
    for (int i = 0; i < 3; ++i) {
      TraceSpan outer("outer");
      {
        TraceSpan inner("inner");
        s.instant("tick");
      }
      TraceSpan sibling("sibling");
    }
  });
  s.disable();
  EXPECT_EQ(s.event_count(), static_cast<std::size_t>(kThreads) * 3 * 4);

  const JsonValue trace = parse_json(s.to_chrome_json());
  EXPECT_EQ(trace.at("displayTimeUnit").text, "ms");
  const auto names = check_balanced_nested(trace);
  EXPECT_EQ(names.count("outer"), static_cast<std::size_t>(kThreads) * 3);
  EXPECT_EQ(names.count("inner"), static_cast<std::size_t>(kThreads) * 3);
  EXPECT_EQ(names.count("sibling"), static_cast<std::size_t>(kThreads) * 3);
  // Both simulated ranks got a process_name metadata record.
  int metadata = 0;
  for (const JsonValue& ev : trace.at("traceEvents").items) {
    if (ev.at("ph").text == "M") {
      ++metadata;
      EXPECT_EQ(ev.at("name").text, "process_name");
    }
  }
  EXPECT_EQ(metadata, 2);
  s.clear();
}

TEST(Trace, ClearDropsEventsAndRecordingResumes) {
  TraceSession& s = TraceSession::global();
  s.clear();
  s.enable();
  { TraceSpan span("before"); }
  EXPECT_EQ(s.event_count(), 1u);
  s.clear();
  EXPECT_EQ(s.event_count(), 0u);
  { TraceSpan span("after"); }
  EXPECT_EQ(s.event_count(), 1u);
  const JsonValue trace = parse_json(s.to_chrome_json());
  const auto names = check_balanced_nested(trace);
  EXPECT_EQ(names.count("after"), 1u);
  EXPECT_EQ(names.count("before"), 0u);
  s.disable();
  s.clear();
}

// ---------------------------------------------------------------------------
// Concurrency regressions pinned by the thread-safety-annotation audit.
// These are hammers: their assertions are weak on purpose — the real oracle
// is the TSan tier-1 leg (data race / lock-order-inversion reports).
// ---------------------------------------------------------------------------

// Regression: TraceSession's epoch used to be a plain field written by
// clear() while now_us() read it lock-free on recording threads.  The epoch
// is now an atomic tick count, so the pair is race-free even when the
// quiescence contract around clear() is stretched.
TEST(Trace, NowUsIsRaceFreeAgainstConcurrentClear) {
  TraceSession session;  // private session: no interference with global state
  std::atomic<bool> done{false};
  std::atomic<int> bogus{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const double us = session.now_us();
        // After any clear() the epoch is in the past, so now_us() stays
        // non-negative (modulo scheduler noise, bounded well above -1s).
        if (us < -1e6 || !std::isfinite(us)) ++bogus;
      }
    });
  }
  for (int i = 0; i < 200; ++i) session.clear();
  done = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(bogus.load(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end: pipeline run with trace_out / metrics_out (the acceptance
// criterion: all eight paper step names, >= 10 distinct metric keys).
// ---------------------------------------------------------------------------

TEST(ObsEndToEnd, PipelineRunExportsStepsAndMetrics) {
  test::TempDir dir;
  sim::DatasetConfig sim_cfg;
  sim_cfg.name = "obs";
  sim_cfg.genomes.num_species = 3;
  sim_cfg.genomes.min_genome_len = 2000;
  sim_cfg.genomes.max_genome_len = 4000;
  sim_cfg.num_pairs = 150;
  sim_cfg.reads.seed = 99;
  const auto dataset = sim::simulate_dataset(sim_cfg, dir.file("obs"));
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 5;
  opt.target_chunks = 9;
  const auto index = core::create_index("obs", dataset.files, true, opt);

  core::MetaprepConfig cfg;
  cfg.k = 15;
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  cfg.write_output = true;
  cfg.output_dir = dir.file("out");
  cfg.trace_out = dir.file("trace.json");
  cfg.metrics_out = dir.file("metrics.jsonl");
  std::filesystem::create_directories(cfg.output_dir);
  const auto result = core::run_metaprep(index, cfg);
  EXPECT_GT(result.num_reads, 0u);

  // --- Trace: valid JSON, balanced, covers all eight paper step names.
  const JsonValue trace = parse_json(slurp(cfg.trace_out));
  const auto span_names = check_balanced_nested(trace);
  for (const char* step : {"KmerGen-I/O", "KmerGen", "KmerGen-Comm", "LocalSort", "LocalCC",
                           "Merge-Comm", "MergeCC", "CC-I/O"}) {
    EXPECT_GT(span_names.count(step), 0u) << "missing step span: " << step;
  }
  // Both ranks appear as pids.
  std::set<int> pids;
  for (const JsonValue& ev : trace.at("traceEvents").items) {
    if (ev.at("ph").text != "M") pids.insert(static_cast<int>(ev.at("pid").number));
  }
  EXPECT_EQ(pids, (std::set<int>{0, 1}));

  // --- Metrics: valid JSONL with >= 10 distinct keys and sane core values.
  std::istringstream lines(slurp(cfg.metrics_out));
  std::string line;
  std::map<std::string, JsonValue> by_name;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue v = parse_json(line);
    by_name[v.at("name").text] = v;
  }
  EXPECT_GE(by_name.size(), 10u);
  ASSERT_TRUE(by_name.count("pipeline.tuples_total"));
  EXPECT_EQ(by_name["pipeline.tuples_total"].at("value").number,
            static_cast<double>(result.total_tuples));
  ASSERT_TRUE(by_name.count("pipeline.passes"));
  EXPECT_EQ(by_name["pipeline.passes"].at("value").number, 2.0);
  ASSERT_TRUE(by_name.count("mpsim.messages_total"));
  EXPECT_GT(by_name["mpsim.messages_total"].at("value").number, 0.0);
  ASSERT_TRUE(by_name.count("dsu.find_path_length"));
  EXPECT_GT(by_name["dsu.find_path_length"].at("count").number, 0.0);
  ASSERT_TRUE(by_name.count("io.bytes_read"));
  EXPECT_GT(by_name["io.bytes_read"].at("value").number, 0.0);
  ASSERT_TRUE(by_name.count("mem.rss_peak"));

  // The pipeline restores the disabled default after exporting.
  EXPECT_FALSE(metrics().enabled());
  EXPECT_FALSE(TraceSession::global().enabled());
}

}  // namespace
}  // namespace metaprep::obs
