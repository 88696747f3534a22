#include "serve/proto.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "util/error.hpp"
#include "util/json.hpp"

namespace metaprep::serve {

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

void JsonLineWriter::comma() {
  if (!first_) out_ += ',';
  first_ = false;
}

void JsonLineWriter::field(const std::string& key, const std::string& value) {
  comma();
  out_ += '"' + json_escape(key) + "\":\"" + json_escape(value) + '"';
}

void JsonLineWriter::field_raw(const std::string& key, const std::string& raw) {
  comma();
  out_ += '"' + json_escape(key) + "\":" + raw;
}

void JsonLineWriter::field(const std::string& key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  field_raw(key, buf);
}

void JsonLineWriter::field(const std::string& key, std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, value);
  field_raw(key, buf);
}

void JsonLineWriter::field(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  field_raw(key, buf);
}

void JsonLineWriter::field(const std::string& key, bool value) {
  field_raw(key, value ? "true" : "false");
}

void JsonLineWriter::field_strings(const std::string& key,
                                   const std::vector<std::string>& values) {
  std::string arr = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) arr += ',';
    arr += '"' + json_escape(values[i]) + '"';
  }
  arr += ']';
  field_raw(key, arr);
}

std::string JsonLineWriter::finish() {
  out_ += '}';
  return std::move(out_);
}

std::string job_to_json(const JobInfo& info, bool with_manifest) {
  JsonLineWriter w;
  w.field("ok", true);
  w.field("job", info.id);
  w.field("state", std::string(to_string(info.state)));
  w.field("priority", info.priority);
  w.field("index", info.index_path);
  w.field("predicted_bytes", info.predicted_bytes);
  w.field("trace_out", info.trace_out);
  w.field("metrics_out", info.metrics_out);
  if (!info.error.empty()) w.field("error_detail", info.error);
  if (info.has_result) {
    w.field("num_reads", static_cast<std::uint64_t>(info.num_reads));
    w.field("num_components", info.num_components);
    w.field("largest_size", info.largest_size);
    w.field("largest_fraction", info.largest_fraction);
    w.field("passes_used", info.passes_used);
    w.field("num_output_files", static_cast<std::uint64_t>(info.output_files.size()));
    if (!info.bin_manifest_path.empty())
      w.field("bin_manifest", info.bin_manifest_path);
    if (with_manifest) w.field_strings("output_files", info.output_files);
  }
  return w.finish();
}

JobSpec parse_submit(const std::string& request_line) {
  const util::JsonValue req = util::parse_json(request_line);
  // Reject keys outside the documented set (proto.hpp), so a typo such as
  // "thread" fails loudly instead of running with the default.
  static constexpr std::array<std::string_view, 12> kKnownKeys = {
      "cmd",          "index",       "ranks",         "threads",
      "passes",       "priority",    "out",           "write_output",
      "output_bins",  "pipeline_mode", "filter_min",  "filter_max"};
  for (const auto& [key, value] : req.as_object()) {
    if (std::find(kKnownKeys.begin(), kKnownKeys.end(), key) == kKnownKeys.end())
      throw util::config_error("submit: unknown field '" + key + "'");
  }
  JobSpec spec;
  const util::JsonValue* index = req.find("index");
  if (index == nullptr)
    throw util::config_error("submit: missing required field 'index'");
  spec.index_path = index->as_string();

  core::MetaprepConfig& cfg = spec.config;
  if (const auto* v = req.find("ranks")) cfg.num_ranks = static_cast<int>(v->as_int());
  if (const auto* v = req.find("threads"))
    cfg.threads_per_rank = static_cast<int>(v->as_int());
  if (const auto* v = req.find("passes")) cfg.num_passes = static_cast<int>(v->as_int());
  if (const auto* v = req.find("priority")) spec.priority = static_cast<int>(v->as_int());
  if (const auto* v = req.find("out")) cfg.output_dir = v->as_string();
  if (const auto* v = req.find("write_output")) cfg.write_output = v->as_bool();
  if (const auto* v = req.find("output_bins")) cfg.output_bins = static_cast<int>(v->as_int());
  if (const auto* v = req.find("filter_min"))
    cfg.filter.min_freq = static_cast<std::uint32_t>(v->as_uint());
  if (const auto* v = req.find("filter_max"))
    cfg.filter.max_freq = static_cast<std::uint32_t>(v->as_uint());
  if (const auto* v = req.find("pipeline_mode")) {
    const std::string& mode = v->as_string();
    if (mode == "barrier") {
      cfg.pipeline_mode = core::PipelineMode::kBarrier;
    } else if (mode == "overlap") {
      cfg.pipeline_mode = core::PipelineMode::kOverlap;
    } else {
      throw util::config_error("submit: pipeline_mode must be 'barrier' or 'overlap' (got '" +
                               mode + "')");
    }
  }
  return spec;
}

std::string error_response(const std::string& cmd, const std::string& error) {
  JsonLineWriter w;
  w.field("ok", false);
  if (!cmd.empty()) w.field("cmd", cmd);
  w.field("error", error);
  return w.finish();
}

}  // namespace metaprep::serve
