// Minimal command-line parsing for the examples and bench binaries.
// Accepts "--name=value" and "--flag" forms; everything else is positional.
// Malformed numbers and (for callers that list their flags) unknown flags
// throw a typed util::Error (config) naming the flag.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/env.hpp"  // env_double and friends moved to the blessed env layer

namespace metaprep::util {

/// True when all of @p text parses as a T (std::from_chars: no sign prefix
/// '+', no whitespace, no trailing characters).
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

class Args {
 public:
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  /// True when @p name was given as a bare "--name" (get() then reads "1").
  [[nodiscard]] bool bare(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  /// Throw a config error naming the first flag not in @p known; @p context
  /// (e.g. the subcommand) prefixes the message.
  void reject_unknown(std::string_view context, std::initializer_list<std::string_view> known) const;
  void reject_unknown(std::string_view context,
                      const std::function<bool(std::string_view)>& known) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::optional<std::string>> named_;  ///< nullopt: bare "--name"
  std::vector<std::string> positional_;
};

}  // namespace metaprep::util
