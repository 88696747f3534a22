#include "util/cli.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace metaprep::util {

namespace {

/// Parse all of @p value as a T, or throw a config error naming the flag.
template <typename T>
T parse_number(const std::string& name, const std::string& value, const char* what) {
  T out{};
  if (!parse_whole(value, out))
    throw config_error("--" + name + " expects " + what + " (got '" + value + "')");
  return out;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        named_.insert_or_assign(arg.substr(2), std::nullopt);
      } else {
        named_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Args::has(const std::string& name) const { return named_.count(name) > 0; }

bool Args::bare(const std::string& name) const {
  auto it = named_.find(name);
  return it != named_.end() && !it->second;
}

std::string Args::get(const std::string& name, const std::string& fallback) const {
  auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second.value_or("1");
}

std::int64_t Args::get_int(const std::string& name, std::int64_t fallback) const {
  if (!has(name)) return fallback;
  return parse_number<std::int64_t>(name, get(name, ""), "an integer");
}

double Args::get_double(const std::string& name, double fallback) const {
  if (!has(name)) return fallback;
  return parse_number<double>(name, get(name, ""), "a number");
}

void Args::reject_unknown(std::string_view context,
                          std::initializer_list<std::string_view> known) const {
  reject_unknown(context, [&](std::string_view name) {
    return std::find(known.begin(), known.end(), name) != known.end();
  });
}

void Args::reject_unknown(std::string_view context,
                          const std::function<bool(std::string_view)>& known) const {
  for (const auto& [name, value] : named_) {
    if (!known(name)) throw config_error(std::string(context) + ": unknown flag '--" + name + "'");
  }
}

}  // namespace metaprep::util
