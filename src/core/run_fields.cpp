#include "core/run_fields.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace metaprep::core {

namespace {

using C = MetaprepConfig;
using V = FieldValue;
using K = FieldKind;

// Enum spellings in enum-value order.
constexpr std::string_view kParseModes[] = {"strict", "lenient"};
constexpr std::string_view kPipelineModes[] = {"barrier", "overlap"};
constexpr std::string_view kReadStores[] = {"text", "packed"};
constexpr std::string_view kCommCompress[] = {"none", "superkmer"};
constexpr double kU16 = 65535.0;
constexpr double kU32 = 4294967295.0;

// {name, kind, lo, hi, spellings, default, doc, setter}.  `memory-gb`
// follows `passes`, so a budget overrides an explicit pass count.
constexpr RunField kFields[] = {
    {"ranks", K::kInt, 1, kU16, {}, "1", "P, simulated MPI ranks",
     [](C& c, const V& v) { c.num_ranks = static_cast<int>(v.i); }},
    {"threads", K::kInt, 1, kU16, {}, "4", "T, threads per rank",
     [](C& c, const V& v) { c.threads_per_rank = static_cast<int>(v.i); }},
    {"passes", K::kInt, 0, kU16, {}, "1", "S, I/O passes (0 = derive from --memory-gb)",
     [](C& c, const V& v) { c.num_passes = static_cast<int>(v.i); }},
    {"memory-gb", K::kDouble, 0, 1e9, {}, "0", "per-task GB; > 0 picks the least S that fits",
     [](C& c, const V& v) {
       if (v.d <= 0.0) return;
       c.num_passes = 0;
       c.memory_budget_bytes = static_cast<std::uint64_t>(v.d * 1e9);
     }},
    {"filter-min", K::kInt, 0, kU32, {}, "0", "ignore k-mers seen fewer times (0 = no bound)",
     [](C& c, const V& v) { c.filter.min_freq = static_cast<std::uint32_t>(v.i); }},
    {"filter-max", K::kInt, 0, kU32, {}, "0", "ignore k-mers seen more times (0 = no bound)",
     [](C& c, const V& v) {
       c.filter.max_freq = v.i == 0 ? 0xFFFFFFFFu : static_cast<std::uint32_t>(v.i);
     }},
    {"out", K::kPath, 0, 0, {}, ".", "output directory",
     [](C& c, const V& v) { c.output_dir = v.s; }},
    {"no-output", K::kBool, 0, 0, {}, "false", "stop after labeling, write no FASTQ",
     [](C& c, const V& v) { c.write_output = !v.b; }},
    {"output-bins", K::kInt, 0, kU16, {}, "0", "B > 0 bin-packs components into B outputs",
     [](C& c, const V& v) { c.output_bins = static_cast<int>(v.i); }},
    {"parse-mode", K::kEnum, 0, 0, kParseModes, "strict", "malformed FASTQ: throw, or skip",
     [](C& c, const V& v) { c.parse_mode = static_cast<io::ParseMode>(v.i); }},
    {"pipeline-mode", K::kEnum, 0, 0, kPipelineModes, "barrier", "pass fusion width W = 1 or 2",
     [](C& c, const V& v) { c.pipeline_mode = static_cast<PipelineMode>(v.i); }},
    {"read-store", K::kEnum, 0, 0, kReadStores, "text", "KmerGen reads FASTQ text or an arena",
     [](C& c, const V& v) { c.read_store = static_cast<ReadStore>(v.i); }},
    {"comm-compress", K::kEnum, 0, 0, kCommCompress, "none", "KmerGen exchange codec",
     [](C& c, const V& v) { c.comm_compress = static_cast<CommCompress>(v.i); }},
    {"superkmer-minimizer-len", K::kInt, 1, 31, {}, "10", "super-k-mer minimizer length (<= k)",
     [](C& c, const V& v) { c.superkmer_minimizer_len = static_cast<int>(v.i); }},
    {"trace-out", K::kPath, 0, 0, {}, "", "Chrome trace_event JSON",
     [](C& c, const V& v) { c.trace_out = v.s; }},
    {"metrics-out", K::kPath, 0, 0, {}, "", "metrics JSONL snapshot",
     [](C& c, const V& v) { c.metrics_out = v.s; }},
    {"attr-out", K::kPath, 0, 0, {}, "", "attribution JSON for tools/metaprep-report",
     [](C& c, const V& v) { c.attr_out = v.s; }},
};

/// What @p f accepts, for error and usage text.
std::string accepted(const RunField& f) {
  std::string range(1, '[');
  range += obs::json_number(f.lo) + ", " + obs::json_number(f.hi) + "]";
  switch (f.kind) {
    case K::kInt: return "an integer in " + range;
    case K::kDouble: return "a number in " + range;
    case K::kBool: return "true or false";
    case K::kEnum: {
      std::string out = "one of " + std::string(f.spellings[0]);
      for (const std::string_view s : f.spellings.subspan(1)) (out += '|') += s;
      return out;
    }
    case K::kPath: break;
  }
  return f.default_value.empty() ? "a path" : "a non-empty path";
}

/// Parse @p text for @p f; errors name the field as @p label spells it.
FieldValue parse_text(const RunField& f, std::string_view text, const std::string& label) {
  FieldValue v;
  bool ok = true;
  switch (f.kind) {
    case K::kInt:
      ok = util::parse_whole(text, v.i) && static_cast<double>(v.i) >= f.lo &&
           static_cast<double>(v.i) <= f.hi;
      break;
    case K::kDouble: ok = util::parse_whole(text, v.d) && v.d >= f.lo && v.d <= f.hi; break;
    case K::kBool:
      v.b = text == "1" || text == "true";
      ok = v.b || text == "0" || text == "false";
      break;
    case K::kEnum: {
      const auto it = std::find(f.spellings.begin(), f.spellings.end(), text);
      ok = it != f.spellings.end();
      v.i = it - f.spellings.begin();
      v.s = text;
      break;
    }
    case K::kPath:
      ok = !text.empty() || f.default_value.empty();
      v.s = text;
      break;
  }
  if (!ok)
    throw util::config_error(label + " expects " + accepted(f) + " (got '" + std::string(text) +
                             "')");
  return v;
}

bool is_local(std::initializer_list<std::string_view> local, std::string_view name) {
  return std::find(local.begin(), local.end(), name) != local.end();
}

}  // namespace

std::span<const RunField> run_fields() { return kFields; }

const RunField* find_run_field(std::string_view name) {
  const auto* it = std::find_if(std::begin(kFields), std::end(kFields),
                                [&](const RunField& f) { return f.name == name; });
  return it == std::end(kFields) ? nullptr : it;
}

std::string json_key(std::string_view name) {
  std::string key(name);
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

FieldValue parse_field(const RunField& f, std::string_view text) {
  return parse_text(f, text, "--" + std::string(f.name));
}

FieldValue parse_field(const RunField& f, const util::JsonValue& value) {
  // A JSON value of the field's kind goes through the CLI text parser, so
  // both surfaces share one range check.  json_number round-trips every
  // double and prints a fraction or an exponent for any non-integer (and
  // for integers past 1e15, all outside every integer field's range).
  using J = util::JsonValue::Kind;
  const J want = f.kind == K::kInt || f.kind == K::kDouble ? J::kNumber
                 : f.kind == K::kBool                      ? J::kBool
                                                           : J::kString;
  const std::string label = json_key(f.name);
  if (value.kind() != want)
    throw util::config_error(label + " expects " + accepted(f) + " (got another JSON kind)");
  if (want == J::kString) return parse_text(f, value.as_string(), label);
  if (want == J::kBool) return parse_text(f, value.as_bool() ? "true" : "false", label);
  return parse_text(f, obs::json_number(value.as_number()), label);
}

MetaprepConfig default_run_config() {
  MetaprepConfig config;
  for (const RunField& f : kFields) f.set(config, parse_field(f, f.default_value));
  return config;
}

void apply_run_args(MetaprepConfig& config, const util::Args& args, std::string_view context,
                    std::initializer_list<std::string_view> local) {
  args.reject_unknown(context, [&](std::string_view name) {
    return is_local(local, name) || find_run_field(name) != nullptr;
  });
  for (const RunField& f : kFields) {
    const std::string name(f.name);
    if (args.has(name)) f.set(config, parse_field(f, args.get(name, "")));
  }
}

void apply_run_json(MetaprepConfig& config, const util::JsonValue& request,
                    std::string_view context, std::initializer_list<std::string_view> local) {
  for (const auto& [key, value] : request.as_object()) {
    if (!is_local(local, key) &&
        std::none_of(std::begin(kFields), std::end(kFields),
                     [&](const RunField& f) { return json_key(f.name) == key; }))
      throw util::config_error(std::string(context) + ": unknown field '" + key + "'");
  }
  for (const RunField& f : kFields) {
    const util::JsonValue* v = request.find(json_key(f.name));
    if (v != nullptr) f.set(config, parse_field(f, *v));
  }
}

std::string run_fields_usage() {
  std::string out;
  for (const RunField& f : kFields) {
    std::string line = "    --" + std::string(f.name) + (f.kind == K::kBool ? "" : "=V");
    line.resize(std::max<std::size_t>(line.size() + 1, 34), ' ');
    line += std::string(f.doc);
    if (f.kind != K::kBool && f.kind != K::kPath) line += "; " + accepted(f);
    if (f.kind != K::kBool && !f.default_value.empty())
      line += "; default " + std::string(f.default_value);
    out += line + '\n';
  }
  return out;
}

}  // namespace metaprep::core
