#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "util/env.hpp"

namespace metaprep::obs {

namespace {

/// Per-thread recording state.  The buffer pointer is owned by the session
/// (it outlives the thread); session_id + generation detect a switch to a
/// different session (or a clear()) between uses, so a thread that records
/// into several sessions over its lifetime never touches a stale buffer —
/// the id is process-unique, never recycled, so a new session allocated at
/// a dead session's address cannot alias the cache.
struct ThreadState {
  void* buffer = nullptr;
  std::uint64_t session_id = ~0ull;
  std::uint64_t generation = ~0ull;
  int pid = 0;
  int tid = -1;  // -1 = not yet assigned; auto-assigned on first record
};

thread_local ThreadState tls;

/// Calling thread's session override; nullptr = inherit the global default.
thread_local TraceSession* tls_current = nullptr;

std::uint64_t next_session_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void flush_trace_at_exit() {
  try {
    TraceSession::global().flush();
  } catch (...) {
    // Exit path: nothing useful to do beyond not crashing.
  }
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = 0.0;
  std::sscanf(buf, "%lf", &parsed);
  if (parsed == v) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.15g", v);
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == v) return shorter;
  }
  return buf;
}

TraceSession::TraceSession()
    : id_(next_session_id()),
      epoch_ticks_(std::chrono::steady_clock::now().time_since_epoch().count()) {}

TraceSession& TraceSession::global() {
  static TraceSession* instance = [] {
    // NOLINT(metaprep-no-naked-new): intentionally leaked process-lifetime singleton
    auto* s = new TraceSession();  // never destroyed
    const char* env = util::env_get("METAPREP_TRACE");
    if (env != nullptr && std::strcmp(env, "0") != 0) {
      s->enable();
      if (std::strcmp(env, "1") != 0) {
        s->set_flush_path(env);
        std::atexit(flush_trace_at_exit);
      }
    }
    return s;
  }();
  return *instance;
}

TraceSession& TraceSession::current() noexcept {
  TraceSession* s = tls_current;
  return s != nullptr ? *s : global();
}

TraceSession* TraceSession::exchange_current(TraceSession* session) noexcept {
  TraceSession* prev = tls_current;
  tls_current = session;
  return prev;
}

TraceSession* TraceSession::current_override() noexcept { return tls_current; }

void TraceSession::set_thread_identity(int pid, int tid) noexcept {
  tls.pid = pid;
  tls.tid = tid;
}

TraceSession::Buffer& TraceSession::local_buffer() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (tls.buffer == nullptr || tls.session_id != id_ || tls.generation != gen) {
    util::MutexLock lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    tls.buffer = buffers_.back().get();
    tls.session_id = id_;
    tls.generation = generation_.load(std::memory_order_relaxed);
  }
  return *static_cast<Buffer*>(tls.buffer);
}

void TraceSession::record(const char* name, double ts_us, double dur_us) {
  if (!enabled()) return;
  if (tls.tid < 0) tls.tid = next_auto_tid_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent ev;
  ev.name = name;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.pid = tls.pid;
  ev.tid = tls.tid;
  local_buffer().events.push_back(std::move(ev));
}

void TraceSession::instant(const char* name) {
  record(name, now_us(), /*dur_us=*/-1.0);
}

void TraceSession::flow_marker(const char* name, std::uint64_t flow_id, bool is_send) {
  if (!enabled()) return;
  if (tls.tid < 0) tls.tid = next_auto_tid_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent ev;
  ev.name = name;
  ev.ts_us = now_us();
  ev.dur_us = -1.0;
  ev.pid = tls.pid;
  ev.tid = tls.tid;
  ev.flow = flow_id;
  ev.flow_dir = is_send ? TraceEvent::kFlowSend : TraceEvent::kFlowRecv;
  local_buffer().events.push_back(std::move(ev));
}

void TraceSession::clear() {
  util::MutexLock lock(mutex_);
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_release);
  epoch_ticks_.store(std::chrono::steady_clock::now().time_since_epoch().count(),
                     std::memory_order_relaxed);
}

std::size_t TraceSession::event_count() const {
  util::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->events.size();
  return n;
}

std::vector<TraceEvent> TraceSession::snapshot() const {
  std::vector<TraceEvent> all;
  util::MutexLock lock(mutex_);
  for (const auto& b : buffers_) all.insert(all.end(), b->events.begin(), b->events.end());
  return all;
}

std::string TraceSession::to_chrome_json() const {
  // Group events by (pid, tid) so each track can be emitted as properly
  // nested "B"/"E" pairs.  Spans within one thread are RAII-nested, so the
  // interval family per track is laminar; recording order is completion
  // order (post-order), which we convert to chronological begin order.
  std::vector<TraceEvent> all;
  {
    util::MutexLock lock(mutex_);
    for (const auto& b : buffers_)
      all.insert(all.end(), b->events.begin(), b->events.end());
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const char* ph, const TraceEvent& ev, double ts) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(ev.name);
    char buf[200];
    if (ev.flow_dir != 0) {
      // Flow events: Chrome requires a shared cat+id to join the "s" start
      // with its "f" finish; "bp":"e" binds the finish to the enclosing slice.
      std::snprintf(buf, sizeof(buf),
                    "\",\"cat\":\"comm\",\"ph\":\"%s\",\"id\":%llu,\"ts\":%.3f,"
                    "\"pid\":%d,\"tid\":%d%s}",
                    ph, static_cast<unsigned long long>(ev.flow), ts, ev.pid, ev.tid,
                    std::strcmp(ph, "f") == 0 ? ",\"bp\":\"e\"" : "");
    } else {
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d%s}", ph, ts,
                    ev.pid, ev.tid, std::strcmp(ph, "i") == 0 ? ",\"s\":\"t\"" : "");
    }
    out << buf;
  };

  // Metadata: name each pid after its simulated rank.
  std::vector<int> pids;
  for (const auto& ev : all) pids.push_back(ev.pid);
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  for (int pid : pids) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"rank " << pid << "\"}}";
  }

  // Stable-partition into per-track groups.
  std::stable_sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return std::pair(a.pid, a.tid) < std::pair(b.pid, b.tid);
  });
  std::size_t lo = 0;
  while (lo < all.size()) {
    std::size_t hi = lo;
    while (hi < all.size() && all[hi].pid == all[lo].pid && all[hi].tid == all[lo].tid)
      ++hi;
    std::vector<const TraceEvent*> spans;
    std::vector<const TraceEvent*> instants;
    for (std::size_t i = lo; i < hi; ++i) {
      const TraceEvent& ev = all[i];
      (ev.dur_us < 0.0 ? instants : spans).push_back(&ev);
    }
    // Chronological begin order, outermost first on ties.
    std::sort(spans.begin(), spans.end(), [](const TraceEvent* a, const TraceEvent* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    // The stack sweep turns completion-ordered spans into balanced "B"/"E"
    // pairs; buffer into (ts, phase) items so instants can be merged into
    // the same chronological stream afterwards.
    struct Item {
      double ts;
      const char* ph;
      const TraceEvent* ev;
    };
    std::vector<Item> track;
    std::vector<const TraceEvent*> open;
    for (const TraceEvent* sp : spans) {
      while (!open.empty() &&
             open.back()->ts_us + open.back()->dur_us <= sp->ts_us) {
        track.push_back({open.back()->ts_us + open.back()->dur_us, "E", open.back()});
        open.pop_back();
      }
      track.push_back({sp->ts_us, "B", sp});
      open.push_back(sp);
    }
    while (!open.empty()) {
      track.push_back({open.back()->ts_us + open.back()->dur_us, "E", open.back()});
      open.pop_back();
    }
    for (const TraceEvent* in : instants) {
      const char* ph = in->flow_dir == TraceEvent::kFlowSend   ? "s"
                       : in->flow_dir == TraceEvent::kFlowRecv ? "f"
                                                               : "i";
      track.push_back({in->ts_us, ph, in});
    }
    // Stable: equal-timestamp B/E keep sweep (nesting) order, instants after.
    std::stable_sort(track.begin(), track.end(),
                     [](const Item& a, const Item& b) { return a.ts < b.ts; });
    for (const Item& item : track) emit(item.ph, *item.ev, item.ts);
    lo = hi;
  }
  out << "]}";
  return out.str();
}

void TraceSession::set_flush_path(std::string path) {
  util::MutexLock lock(flush_mutex_);
  flush_path_ = std::move(path);
  flushed_once_ = false;
  flushed_count_ = 0;
}

std::string TraceSession::flush_path() const {
  util::MutexLock lock(flush_mutex_);
  return flush_path_;
}

bool TraceSession::flush() {
  // flush_mutex_ is held across the export; event_count() and
  // write_chrome_json() take mutex_ internally (flush_mutex_ -> mutex_ is
  // the only ordering, so no deadlock).  Idempotent: a second flush with no
  // new events is a no-op, which is what makes the atexit hook on the
  // global session free once a run has flushed explicitly.
  util::MutexLock lock(flush_mutex_);
  if (flush_path_.empty()) return false;
  const std::size_t n = event_count();
  if (flushed_once_ && flushed_count_ == n) return false;
  write_chrome_json(flush_path_);
  flushed_once_ = true;
  flushed_count_ = n;
  return true;
}

void TraceSession::write_chrome_json(const std::string& path) const {
  const std::string body = to_chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  // NOLINT(metaprep-no-adhoc-throw): obs links below util; util::Error unavailable
  if (f == nullptr) throw std::runtime_error("trace: cannot open " + path);
  const std::size_t wrote = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  // NOLINT(metaprep-no-adhoc-throw): obs links below util; util::Error unavailable
  if (wrote != body.size()) throw std::runtime_error("trace: short write to " + path);
}

}  // namespace metaprep::obs
