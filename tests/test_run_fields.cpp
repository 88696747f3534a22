// The run-field table (core/run_fields.hpp): one config through both
// surfaces.  Every table entry set as `--flag=v` through util::Args must
// build the same MetaprepConfig as {"flag":v} through serve::parse_submit
// and as the `daemon submit` client's forwarded request; hostile values
// (wrapping integers, fractions, out-of-range doubles, unknown spellings)
// must be config errors naming the field on both surfaces.
#include "core/run_fields.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "serve/proto.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace metaprep::core {
namespace {

/// Every MetaprepConfig field a surface can set, for field-by-field equality.
auto fields_of(const MetaprepConfig& c) {
  return std::tuple(c.k, c.num_ranks, c.threads_per_rank, c.num_passes, c.memory_budget_bytes,
                    c.filter.min_freq, c.filter.max_freq, c.parse_mode, c.cc_opt,
                    c.sort_digit_bits, c.write_output, c.output_dir, c.output_bins,
                    c.pipeline_mode, c.comm_compress, c.superkmer_minimizer_len, c.read_store,
                    c.trace_out, c.metrics_out, c.attr_out, c.progress);
}

/// A value for @p f that differs from its default, as CLI text and as JSON.
std::pair<std::string, std::string> non_default(const RunField& f) {
  switch (f.kind) {
    case FieldKind::kInt: {
      const std::int64_t d = parse_field(f, f.default_value).i;
      const std::string v = std::to_string(static_cast<double>(d + 1) <= f.hi ? d + 1 : d - 1);
      return {v, v};
    }
    case FieldKind::kDouble: return {"1.5", "1.5"};
    case FieldKind::kBool: return {"1", "true"};
    case FieldKind::kEnum: {
      const std::string s(f.spellings[1]);
      return {s, "\"" + s + "\""};
    }
    case FieldKind::kPath: break;
  }
  return {"some/path", "\"some/path\""};
}

MetaprepConfig from_cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv{"metaprep_cli", "run"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  const util::Args args(static_cast<int>(argv.size()), argv.data());
  MetaprepConfig config = default_run_config();
  apply_run_args(config, args, "run", {});
  return config;
}

MetaprepConfig from_json(const std::string& fields) {
  return serve::parse_submit(R"({"cmd":"submit","index":"i.bin")" + fields + "}").config;
}

/// The `daemon submit` client's request for @p flags, parsed by the daemon.
MetaprepConfig from_client(const std::vector<std::string>& flags) {
  std::vector<const char*> argv{"metaprep_cli", "daemon", "submit", "--index=i.bin"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  const util::Args args(static_cast<int>(argv.size()), argv.data());
  return serve::parse_submit(serve::submit_request(args)).config;
}

TEST(RunFields, CliAndSubmitBuildTheSameConfig) {
  const MetaprepConfig dflt = default_run_config();
  EXPECT_EQ(fields_of(from_cli({})), fields_of(dflt));
  EXPECT_EQ(fields_of(from_json("")), fields_of(dflt));
  for (const RunField& f : run_fields()) {
    SCOPED_TRACE(std::string(f.name));
    const auto [text, json] = non_default(f);
    const std::string flag = "--" + std::string(f.name) + "=" + text;
    const MetaprepConfig cli = from_cli({flag});
    EXPECT_NE(fields_of(cli), fields_of(dflt)) << "setter changed nothing";
    EXPECT_EQ(fields_of(cli), fields_of(from_json(",\"" + json_key(f.name) + "\":" + json)));
    EXPECT_EQ(fields_of(cli), fields_of(from_client({flag})));
  }
  // All fields at once, in reverse order: the table, not the input, orders
  // application (--memory-gb overrides --passes on both surfaces).
  std::vector<std::string> flags;
  std::string json;
  for (const RunField& f : run_fields()) {
    const auto [t, j] = non_default(f);
    flags.insert(flags.begin(), "--" + std::string(f.name) + "=" + t);
    json = ",\"" + json_key(f.name) + "\":" + j + json;
  }
  const MetaprepConfig all = from_cli(flags);
  EXPECT_EQ(all.num_passes, 0);
  EXPECT_EQ(fields_of(all), fields_of(from_json(json)));
  EXPECT_EQ(fields_of(all), fields_of(from_client(flags)));
}

TEST(RunFields, UsageNamesAndDocumentsEveryField) {
  const std::string usage = run_fields_usage();
  for (const RunField& f : run_fields()) {
    EXPECT_NE(usage.find("--" + std::string(f.name)), std::string::npos) << f.name;
    EXPECT_FALSE(f.doc.empty()) << f.name;
    EXPECT_EQ(json_key(f.name).find('-'), std::string::npos);
  }
}

/// The config error @p fn throws, or "" after recording a failure.
template <typename Fn>
std::string config_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kConfig) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "accepted";
  return "";
}

TEST(RunFields, HostileValuesAreConfigErrorsOnBothSurfaces) {
  // {field, value}: each would wrap, truncate or be ignored without a range
  // check.
  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"filter-max", "4294967296"}, {"filter-min", "-1"},   {"ranks", "4294967298"},
      {"ranks", "0"},               {"ranks", "-1"},        {"ranks", "1e30"},
      {"threads", "2.5"},           {"passes", "-2"},       {"memory-gb", "-3"},
      {"memory-gb", "1e30"},        {"output-bins", "65536"},
      {"superkmer-minimizer-len", "0"}, {"filter-max", "9.5"}};
  for (const auto& [name, value] : hostile) {
    SCOPED_TRACE(name + "=" + value);
    const std::string cli =
        config_error_of([&] { (void)from_cli({"--" + name + "=" + value}); });
    EXPECT_NE(cli.find("--" + name), std::string::npos) << cli;
    const std::string json =
        config_error_of([&] { (void)from_json(",\"" + json_key(name) + "\":" + value); });
    EXPECT_NE(json.find(json_key(name)), std::string::npos) << json;
  }
  // Wrong JSON kinds and unknown spellings are the same kind of error.
  for (const std::string fields : {R"(,"ranks":"2")", R"(,"no_output":1)",
                                   R"(,"comm_compress":"bloom")", R"(,"out":3)",
                                   R"(,"priority":2.5)", R"(,"priority":1e30)"}) {
    SCOPED_TRACE(fields);
    (void)config_error_of([&] { (void)from_json(fields); });
  }
  (void)config_error_of([] { (void)from_cli({"--comm-compress=bloom"}); });
  (void)config_error_of([] { (void)from_cli({"--no-output=maybe"}); });
}

TEST(RunFields, EmptyOutputDirectoryIsAConfigErrorOnBothSurfaces) {
  // An empty `out` would make the CC-I/O paths "/<name>...": the FASTQ
  // files and manifest.tsv would land in the root directory.  Parsing, which
  // runs before either surface touches the filesystem, rejects it.
  EXPECT_NE(config_error_of([] { (void)from_cli({"--out="}); }).find("--out expects"),
            std::string::npos);
  EXPECT_NE(config_error_of([] { (void)from_client({"--out="}); }).find("--out expects"),
            std::string::npos);
  EXPECT_NE(config_error_of([] { (void)from_json(R"(,"out":"")"); }).find("out expects"),
            std::string::npos);
  // Paths whose default is empty still take an empty value: off.
  EXPECT_TRUE(from_cli({"--trace-out="}).trace_out.empty());
}

TEST(RunFields, FilterMaxZeroMeansNoUpperBoundOnBothSurfaces) {
  EXPECT_EQ(from_cli({"--filter-max=0"}).filter.max_freq, 0xFFFFFFFFu);
  EXPECT_EQ(from_json(R"(,"filter_max":0)").filter.max_freq, 0xFFFFFFFFu);
  EXPECT_FALSE(from_json(R"(,"filter_max":0)").filter.enabled());
  EXPECT_EQ(from_cli({"--filter-max=4294967295"}).filter.max_freq, 0xFFFFFFFFu);
  EXPECT_EQ(from_json(R"(,"filter_max":4294967295)").filter.max_freq, 0xFFFFFFFFu);
}

TEST(RunFields, UnknownKeysAreRejectedOnBothSurfaces) {
  EXPECT_NE(config_error_of([] { (void)from_cli({"--thread=3"}); })
                .find("run: unknown flag '--thread'"),
            std::string::npos);
  EXPECT_NE(config_error_of([] { (void)from_json(R"(,"write_output":false)"); })
                .find("submit: unknown field 'write_output'"),
            std::string::npos);
  // The JSON spelling is not a CLI flag, and the CLI spelling is no JSON key.
  (void)config_error_of([] { (void)from_cli({"--no_output"}); });
  (void)config_error_of([] { (void)from_json(R"(,"no-output":true)"); });
}

}  // namespace
}  // namespace metaprep::core
