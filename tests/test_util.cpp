// Tests for timers, box stats, prefix sums, CLI parsing, and table output.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include <filesystem>
#include <fstream>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/memusage.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace metaprep::util {
namespace {

TEST(StepTimes, AccumulatesAndMerges) {
  StepTimes a;
  a.add("KmerGen", 1.0);
  a.add("KmerGen", 0.5);
  EXPECT_DOUBLE_EQ(a.get("KmerGen"), 1.5);
  EXPECT_DOUBLE_EQ(a.get("missing"), 0.0);

  StepTimes b;
  b.add("KmerGen", 2.0);
  b.add("LocalSort", 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.get("KmerGen"), 3.5);
  EXPECT_DOUBLE_EQ(a.get("LocalSort"), 3.0);
  EXPECT_DOUBLE_EQ(a.total(), 6.5);
}

TEST(StepTimes, MergeMaxTakesPerKeyMaximum) {
  StepTimes a;
  a.add("x", 1.0);
  a.add("y", 5.0);
  StepTimes b;
  b.add("x", 3.0);
  b.add("z", 2.0);
  a.merge_max(b);
  EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.get("y"), 5.0);
  EXPECT_DOUBLE_EQ(a.get("z"), 2.0);
}

TEST(StepTimes, MergeMaxDisjointKeysIsUnion) {
  StepTimes a;
  a.add("KmerGen", 1.0);
  a.add("LocalSort", 2.0);
  StepTimes b;
  b.add("LocalCC", 3.0);
  b.add("MergeCC", 4.0);
  a.merge_max(b);
  EXPECT_DOUBLE_EQ(a.get("KmerGen"), 1.0);
  EXPECT_DOUBLE_EQ(a.get("LocalSort"), 2.0);
  EXPECT_DOUBLE_EQ(a.get("LocalCC"), 3.0);
  EXPECT_DOUBLE_EQ(a.get("MergeCC"), 4.0);
  EXPECT_EQ(a.map().size(), 4U);
}

TEST(StepTimes, MergeMaxIntoEmptyCopies) {
  StepTimes a;
  StepTimes b;
  b.add("x", 7.0);
  a.merge_max(b);
  EXPECT_DOUBLE_EQ(a.get("x"), 7.0);
  // Merging an empty StepTimes changes nothing.
  a.merge_max(StepTimes{});
  EXPECT_DOUBLE_EQ(a.get("x"), 7.0);
  EXPECT_EQ(a.map().size(), 1U);
}

TEST(WallTimer, MeasuresNonNegativeMonotonicTime) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LE(t.seconds(), b + 1.0);
}

TEST(BoxStats, EmptyAndSingle) {
  const BoxStats e = box_stats({});
  EXPECT_DOUBLE_EQ(e.min, 0.0);
  EXPECT_DOUBLE_EQ(e.q1, 0.0);
  EXPECT_DOUBLE_EQ(e.median, 0.0);
  EXPECT_DOUBLE_EQ(e.q3, 0.0);
  EXPECT_DOUBLE_EQ(e.max, 0.0);
  const BoxStats s = box_stats({4.0});
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.q1, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 4.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(BoxStats, TwoElementsAndDuplicates) {
  const BoxStats two = box_stats({1.0, 3.0});
  EXPECT_DOUBLE_EQ(two.min, 1.0);
  EXPECT_DOUBLE_EQ(two.median, 2.0);
  EXPECT_DOUBLE_EQ(two.max, 3.0);
  const BoxStats same = box_stats({5.0, 5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(same.min, 5.0);
  EXPECT_DOUBLE_EQ(same.q1, 5.0);
  EXPECT_DOUBLE_EQ(same.median, 5.0);
  EXPECT_DOUBLE_EQ(same.q3, 5.0);
  EXPECT_DOUBLE_EQ(same.max, 5.0);
}

TEST(BoxStats, KnownQuartiles) {
  const BoxStats b = box_stats({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.q1, 2.0);
  EXPECT_DOUBLE_EQ(b.median, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.0);
  EXPECT_DOUBLE_EQ(b.max, 5.0);
}

TEST(BoxStats, UnsortedInputHandled) {
  const BoxStats b = box_stats({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(b.median, 3.0);
}

TEST(Args, ParsesNamedAndPositional) {
  const char* argv[] = {"prog", "--k=27", "--verbose", "input.fastq", "--scale=1.5"};
  Args args(5, argv);
  EXPECT_EQ(args.get_int("k", 0), 27);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 1.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.fastq");
}

TEST(Args, FallbacksUsedWhenMissing) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("n", -3), -3);
}

/// The category and message of the Error @p fn throws.
template <typename Fn>
std::pair<ErrorCategory, std::string> caught(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return {e.category(), e.what()};
  }
  ADD_FAILURE() << "expected util::Error";
  return {};
}

TEST(Args, MalformedNumbersThrowConfigErrorNamingFlagAndValue) {
  const char* argv[] = {"prog", "--ranks=abc", "--threads=3x", "--rate=0.5.1", "--n="};
  Args args(5, argv);
  for (const char* flag : {"ranks", "threads", "n"}) {
    const auto [category, what] = caught([&] { (void)args.get_int(flag, 1); });
    EXPECT_EQ(category, ErrorCategory::kConfig) << flag;
    EXPECT_NE(what.find(std::string("--") + flag), std::string::npos) << what;
    EXPECT_NE(what.find("'" + args.get(flag, "") + "'"), std::string::npos) << what;
  }
  const auto [category, what] = caught([&] { (void)args.get_double("rate", 0.0); });
  EXPECT_EQ(category, ErrorCategory::kConfig);
  EXPECT_NE(what.find("--rate"), std::string::npos) << what;
  EXPECT_NE(what.find("'0.5.1'"), std::string::npos) << what;
}

TEST(Args, NumbersParseWhole) {
  const char* argv[] = {"prog", "--a=-12", "--b=2.5e-3", "--c=7"};
  Args args(4, argv);
  EXPECT_EQ(args.get_int("a", 0), -12);
  EXPECT_DOUBLE_EQ(args.get_double("b", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(args.get_double("c", 0.0), 7.0);
}

TEST(Args, BareFlagIsDistinctFromAnExplicitOne) {
  const char* argv[] = {"prog", "--wait", "--timeout=1", "--later", "--later=5"};
  Args args(5, argv);
  EXPECT_TRUE(args.bare("wait"));
  EXPECT_EQ(args.get("wait", ""), "1");  // reads as "1", like before
  EXPECT_FALSE(args.bare("timeout"));
  EXPECT_DOUBLE_EQ(args.get_double("timeout", 0.0), 1.0);
  EXPECT_FALSE(args.bare("later"));  // the last spelling wins
  EXPECT_EQ(args.get_int("later", 0), 5);
  EXPECT_FALSE(args.bare("absent"));
}

TEST(Args, RejectUnknownNamesTheFlag) {
  const char* argv[] = {"prog", "run", "--threads=3", "--comm-matrx-out=x.json"};
  Args args(4, argv);
  const auto [category, what] =
      caught([&] { args.reject_unknown("run", {"index", "threads"}); });
  EXPECT_EQ(category, ErrorCategory::kConfig);
  EXPECT_NE(what.find("run: unknown flag '--comm-matrx-out'"), std::string::npos) << what;
  EXPECT_NO_THROW(args.reject_unknown("run", {"threads", "comm-matrx-out"}));
  // A near-miss of a known flag is still unknown, not silently ignored.
  const char* typo[] = {"prog", "--thread=3"};
  EXPECT_THROW(Args(2, typo).reject_unknown("run", {"threads"}), Error);
}

TEST(EnvDouble, ParsesAndFallsBack) {
  ::setenv("METAPREP_TEST_ENV_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("METAPREP_TEST_ENV_D", 1.0), 2.5);
  ::setenv("METAPREP_TEST_ENV_D", "junk", 1);
  EXPECT_DOUBLE_EQ(env_double("METAPREP_TEST_ENV_D", 1.0), 1.0);
  ::unsetenv("METAPREP_TEST_ENV_D");
  EXPECT_DOUBLE_EQ(env_double("METAPREP_TEST_ENV_D", 7.0), 7.0);
}

TEST(TablePrinter, AlignsColumnsAndFormats) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", TablePrinter::fmt(1.2345, 2)});
  t.add_row({"longer-name", "9"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(TablePrinter, CsvEscapesSpecialFields) {
  TablePrinter t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "multi\nline"});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("a,b\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TablePrinter, CsvExportViaEnvironment) {
  const std::string dir = ::testing::TempDir() + "/csv_export";
  std::filesystem::create_directories(dir);
  ::setenv("METAPREP_TABLE_CSV_DIR", dir.c_str(), 1);
  TablePrinter t({"x"});
  t.add_row({"1"});
  t.print();
  ::unsetenv("METAPREP_TABLE_CSV_DIR");
  // Exactly one CSV file appeared, containing the header.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    std::ifstream in(entry.path());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "x");
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.str());
}

TEST(MemUsage, ReportsPlausibleRss) {
  const auto rss = current_rss_bytes();
  const auto peak = peak_rss_bytes();
  EXPECT_GT(rss, 1u << 20);   // > 1 MB
  EXPECT_GE(peak, rss / 2);   // peak is at least in the same ballpark
}

}  // namespace
}  // namespace metaprep::util
