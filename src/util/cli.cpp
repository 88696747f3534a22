#include "util/cli.hpp"

#include <algorithm>
#include <charconv>

#include "util/error.hpp"

namespace metaprep::util {

namespace {

/// Parse all of @p value as a T, or throw a config error naming the flag.
template <typename T>
T parse_number(const std::string& name, const std::string& value, const char* what) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc() || ptr != end)
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
        named_.insert_or_assign(arg.substr(2), std::string(1, '1'));
      } else {
        named_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Args::has(const std::string& name) const { return named_.count(name) > 0; }

std::string Args::get(const std::string& name, const std::string& fallback) const {
  auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  return parse_number<std::int64_t>(name, it->second, "an integer");
}

double Args::get_double(const std::string& name, double fallback) const {
  auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  return parse_number<double>(name, it->second, "a number");
}

void Args::reject_unknown(std::string_view context,
                          std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : named_) {
    if (std::find(known.begin(), known.end(), name) == known.end())
      throw config_error(std::string(context) + ": unknown flag '--" + name + "'");
  }
}

}  // namespace metaprep::util
