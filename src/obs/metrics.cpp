#include "obs/metrics.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace metaprep::obs {

namespace {

std::uint64_t next_registry_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Calling thread's registry override; nullptr = inherit the global default.
thread_local MetricsRegistry* tls_current = nullptr;

}  // namespace

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

MetricsRegistry& MetricsRegistry::global() {
  // NOLINT(metaprep-no-naked-new): intentionally leaked process-lifetime singleton
  static MetricsRegistry* instance = new MetricsRegistry();  // never destroyed
  return *instance;
}

MetricsRegistry& MetricsRegistry::current() noexcept {
  MetricsRegistry* r = tls_current;
  return r != nullptr ? *r : global();
}

MetricsRegistry* MetricsRegistry::exchange_current(MetricsRegistry* registry) noexcept {
  MetricsRegistry* prev = tls_current;
  tls_current = registry;
  return prev;
}

MetricsRegistry* MetricsRegistry::current_override() noexcept { return tls_current; }

Counter& MetricsRegistry::counter(const std::string& name) {
  util::WriterLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    // NOLINT(metaprep-no-naked-new): Counter ctor is private; make_unique cannot reach it
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(&enabled_))).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  util::WriterLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    // NOLINT(metaprep-no-naked-new): Gauge ctor is private; make_unique cannot reach it
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(&enabled_))).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  util::WriterLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    // NOLINT(metaprep-no-naked-new): Histogram ctor is private; make_unique cannot reach it
    it = histograms_.emplace(name, std::unique_ptr<Histogram>(new Histogram(&enabled_))).first;
  }
  return *it->second;
}

void MetricsRegistry::reset_values() {
  util::WriterLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  counter_baseline_.clear();
  histogram_baseline_.clear();
}

std::string MetricsRegistry::snapshot_delta() {
  util::WriterLock lock(mutex_);
  std::ostringstream out;
  out << '[';
  bool first = true;
  for (const auto& [name, c] : counters_) {
    const std::uint64_t now = c->value();
    std::uint64_t& base = counter_baseline_[name];
    // A reset() between snapshots can move the value below the baseline;
    // clamp instead of wrapping around.
    const std::uint64_t delta = now >= base ? now - base : now;
    base = now;
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << name << "\",\"type\":\"counter\",\"value\":" << delta << '}';
  }
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << name << "\",\"type\":\"gauge\",\"value\":"
        << json_number(g->value()) << '}';
  }
  for (const auto& [name, h] : histograms_) {
    HistBaseline& base = histogram_baseline_[name];
    if (base.buckets.empty()) base.buckets.assign(Histogram::kBuckets, 0);
    const auto buckets = h->bucket_counts();
    const std::uint64_t sum_now = h->sum();
    std::uint64_t count_delta = 0;
    std::vector<std::uint64_t> bucket_delta(buckets.size(), 0);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const std::uint64_t b = base.buckets[i];
      bucket_delta[i] = buckets[i] >= b ? buckets[i] - b : buckets[i];
      count_delta += bucket_delta[i];
    }
    const std::uint64_t sum_delta = sum_now >= base.sum ? sum_now - base.sum : sum_now;
    base.sum = sum_now;
    base.buckets = buckets;
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << name << "\",\"type\":\"histogram\",\"count\":" << count_delta
        << ",\"sum\":" << sum_delta << ",\"buckets\":[";
    bool bfirst = true;
    for (std::size_t i = 0; i < bucket_delta.size(); ++i) {
      if (bucket_delta[i] == 0) continue;
      if (!bfirst) out << ',';
      out << '[' << i << ',' << bucket_delta[i] << ']';
      bfirst = false;
    }
    out << "]}";
  }
  out << ']';
  return out.str();
}

std::string MetricsRegistry::to_jsonl() const {
  util::ReaderLock lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << "{\"name\":\"" << name << "\",\"type\":\"counter\",\"value\":" << c->value()
        << "}\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << "{\"name\":\"" << name << "\",\"type\":\"gauge\",\"value\":"
        << json_number(g->value()) << "}\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << "{\"name\":\"" << name << "\",\"type\":\"histogram\",\"count\":" << h->count()
        << ",\"sum\":" << h->sum() << ",\"buckets\":[";
    const auto buckets = h->bucket_counts();
    bool first = true;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      if (!first) out << ',';
      out << '[' << i << ',' << buckets[i] << ']';
      first = false;
    }
    out << "]}\n";
  }
  return out.str();
}

void MetricsRegistry::write_jsonl(const std::string& path) const {
  const std::string body = to_jsonl();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  // NOLINT(metaprep-no-adhoc-throw): obs links below util; util::Error unavailable
  if (f == nullptr) throw std::runtime_error("metrics: cannot open " + path);
  const std::size_t wrote = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  // NOLINT(metaprep-no-adhoc-throw): obs links below util; util::Error unavailable
  if (wrote != body.size()) throw std::runtime_error("metrics: short write to " + path);
}

std::vector<std::string> MetricsRegistry::names() const {
  util::ReaderLock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, c] : counters_) out.push_back(name);
  for (const auto& [name, g] : gauges_) out.push_back(name);
  for (const auto& [name, h] : histograms_) out.push_back(name);
  return out;
}

}  // namespace metaprep::obs
