#include "serve/proto.hpp"

#include <cinttypes>
#include <cstdio>

#include "core/run_fields.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace metaprep::serve {

void JsonLineWriter::comma() {
  if (!first_) out_ += ',';
  first_ = false;
}

void JsonLineWriter::field(const std::string& key, const std::string& value) {
  comma();
  out_ += '"' + obs::json_escape(key) + "\":\"" + obs::json_escape(value) + '"';
}

void JsonLineWriter::field_raw(const std::string& key, const std::string& raw) {
  comma();
  out_ += '"' + obs::json_escape(key) + "\":" + raw;
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
  field_raw(key, obs::json_number(value));
}

void JsonLineWriter::field(const std::string& key, bool value) {
  field_raw(key, value ? "true" : "false");
}

void JsonLineWriter::field_strings(const std::string& key,
                                   const std::vector<std::string>& values) {
  std::string arr = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) arr += ',';
    arr += '"' + obs::json_escape(values[i]) + '"';
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

/// The one daemon-only submit field (const, so internal linkage).
constexpr core::RunField kPriority{
    "priority", core::FieldKind::kInt, -1e9, 1e9, {}, "0", "higher runs first", nullptr};

JobSpec parse_submit(const std::string& request_line) {
  const util::JsonValue req = util::parse_json(request_line);
  JobSpec spec;
  spec.config = core::default_run_config();
  core::apply_run_json(spec.config, req, "submit", {"cmd", "index", "priority"});
  const util::JsonValue* index = req.find("index");
  if (index == nullptr)
    throw util::config_error("submit: missing required field 'index'");
  spec.index_path = index->as_string();
  if (const auto* v = req.find("priority"))
    spec.priority = static_cast<int>(core::parse_field(kPriority, *v).i);
  return spec;
}

std::string submit_request(const util::Args& args) {
  core::MetaprepConfig validated = core::default_run_config();
  core::apply_run_args(validated, args, "daemon submit", {"socket", "index", "priority"});
  JsonLineWriter w;
  w.field("cmd", std::string("submit"));
  w.field("index", args.get("index", ""));
  auto forward = [&](const core::RunField& f) {
    const std::string name(f.name);
    if (!args.has(name)) return;
    const core::FieldValue v = core::parse_field(f, args.get(name, ""));
    const std::string key = core::json_key(f.name);
    switch (f.kind) {
      case core::FieldKind::kInt: w.field(key, v.i); break;
      case core::FieldKind::kDouble: w.field(key, v.d); break;
      case core::FieldKind::kBool: w.field(key, v.b); break;
      case core::FieldKind::kEnum:
      case core::FieldKind::kPath: w.field(key, v.s); break;
    }
  };
  for (const core::RunField& f : core::run_fields()) forward(f);
  forward(kPriority);
  return w.finish();
}

std::string error_response(const std::string& cmd, const std::string& error) {
  JsonLineWriter w;
  w.field("ok", false);
  if (!cmd.empty()) w.field("cmd", cmd);
  w.field("error", error);
  return w.finish();
}

}  // namespace metaprep::serve
