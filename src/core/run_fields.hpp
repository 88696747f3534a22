// The run configuration's one schema: every MetaprepConfig field a user sets
// from `metaprep_cli run`, `metaprep_cli daemon submit` or a metaprepd
// "submit" request, with its kind, range, default, one-line doc and setter.
// The CLI flag is the entry's name; the JSON key is the name with each '-'
// replaced by '_'.  Both surfaces apply the table in table order through one
// text parser, so `--flag=v` and {"flag":v} build the same config.  Checks
// that need the index (k, P*T, S from the budget) are plan_run's (plan.hpp).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

#include "core/config.hpp"

namespace metaprep::util {
class Args;
class JsonValue;
}  // namespace metaprep::util

namespace metaprep::core {

enum class FieldKind { kInt, kDouble, kBool, kEnum, kPath };

/// One parsed value; only the members of the field's kind are meaningful.
struct FieldValue {
  std::int64_t i = 0;  ///< kInt; kEnum: index into RunField::spellings
  double d = 0.0;      ///< kDouble
  bool b = false;      ///< kBool
  std::string s;       ///< kPath; kEnum: the spelling
};

struct RunField {
  std::string_view name;  ///< CLI flag without "--"
  FieldKind kind;
  double lo, hi;  ///< inclusive range (kInt, kDouble)
  std::span<const std::string_view> spellings;  ///< kEnum, in enum-value order
  /// Spelled as on the CLI.  A kPath field may be set empty (off) only when
  /// its default is empty: an empty `out` would write under "/".
  std::string_view default_value;
  std::string_view doc;
  void (*set)(MetaprepConfig&, const FieldValue&);
};

/// Every run field, in application order.
[[nodiscard]] std::span<const RunField> run_fields();
/// The run field whose CLI flag is @p name, or null.
[[nodiscard]] const RunField* find_run_field(std::string_view name);
/// @p name with every '-' replaced by '_'.
[[nodiscard]] std::string json_key(std::string_view name);

/// Parse CLI text / a JSON value for @p field.  A wrong JSON kind, an
/// unknown spelling, or a number that is not an integer (kInt) or lies
/// outside the range is a config error naming the field.
[[nodiscard]] FieldValue parse_field(const RunField& field, std::string_view text);
[[nodiscard]] FieldValue parse_field(const RunField& field, const util::JsonValue& value);

/// MetaprepConfig with every table default applied.
[[nodiscard]] MetaprepConfig default_run_config();

/// Apply every run field @p args / @p request names onto @p config.  A flag
/// (key) that is neither a run field nor in @p local is a config error
/// prefixed with @p context.
void apply_run_args(MetaprepConfig& config, const util::Args& args, std::string_view context,
                    std::initializer_list<std::string_view> local);
void apply_run_json(MetaprepConfig& config, const util::JsonValue& request,
                    std::string_view context, std::initializer_list<std::string_view> local);

/// One line per run field: flag, doc, accepted values, default.
[[nodiscard]] std::string run_fields_usage();

}  // namespace metaprep::core
