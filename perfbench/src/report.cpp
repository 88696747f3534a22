// Metric list, sample statistics, the driver's span recorder, and the host
// fingerprint stamped on every result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

void MetricList::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* MetricList::find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------

int SpanRecorder::open(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), now(), 0.0});
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double SpanRecorder::self_seconds(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  double children = 0.0;
  for (const Span& c : spans_) {
    if (c.parent == id) children += c.end_s - c.begin_s;
  }
  return (s.end_s - s.begin_s) - children;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << json_number(s.begin_s * 1e6)
        << ",\"dur\":" << json_number((s.end_s - s.begin_s) * 1e6)
        << ",\"args\":{\"parent\":" << s.parent
        << ",\"self_us\":" << json_number(self_seconds(static_cast<int>(i)) * 1e6) << "}}";
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("short write to " + path);
}

// ---------------------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
      }
    }
  }
  return "unknown";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string host_fingerprint_json() {
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu\":" << json_string(cpu_model())
     << ",\"compiler\":" << json_string(compiler_id())
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"metaprep_checked\":" << METAPREP_CHECKED << "}";
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
