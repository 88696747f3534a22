// Tests for the radix sorts (64-bit, 128-bit, 64x64 baseline).
#include "sort/radix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace metaprep::sort {
namespace {

struct KV {
  std::uint64_t k;
  std::uint32_t v;
};

void make_random(std::size_t n, int key_bits, std::vector<std::uint64_t>& keys,
                 std::vector<std::uint32_t>& vals, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  keys.resize(n);
  vals.resize(n);
  const std::uint64_t mask = key_bits >= 64 ? ~0ULL : (1ULL << key_bits) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.next() & mask;
    vals[i] = static_cast<std::uint32_t>(rng.next());
  }
}

/// Reference: stable sort of (key, original index) pairs.
void reference_sort(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& vals) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  std::vector<std::uint64_t> k2(keys.size());
  std::vector<std::uint32_t> v2(vals.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    k2[i] = keys[order[i]];
    v2[i] = vals[order[i]];
  }
  keys.swap(k2);
  vals.swap(v2);
}

TEST(RadixSort64, EmptyAndSingle) {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals;
  radix_sort_kv64(keys, vals);
  EXPECT_TRUE(keys.empty());
  keys = {42};
  vals = {7};
  radix_sort_kv64(keys, vals);
  EXPECT_EQ(keys[0], 42u);
  EXPECT_EQ(vals[0], 7u);
}

TEST(RadixSort64, AlreadySortedAndReversed) {
  std::vector<std::uint64_t> keys{1, 2, 3, 4, 5};
  std::vector<std::uint32_t> vals{10, 20, 30, 40, 50};
  radix_sort_kv64(keys, vals);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(vals, (std::vector<std::uint32_t>{10, 20, 30, 40, 50}));

  keys = {5, 4, 3, 2, 1};
  vals = {50, 40, 30, 20, 10};
  radix_sort_kv64(keys, vals);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(vals, (std::vector<std::uint32_t>{10, 20, 30, 40, 50}));
}

TEST(RadixSort64, StableForEqualKeys) {
  std::vector<std::uint64_t> keys{7, 7, 7, 3, 3};
  std::vector<std::uint32_t> vals{1, 2, 3, 4, 5};
  radix_sort_kv64(keys, vals);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{3, 3, 7, 7, 7}));
  EXPECT_EQ(vals, (std::vector<std::uint32_t>{4, 5, 1, 2, 3}));
}

struct SortParams {
  std::size_t n;
  int key_bits;
  int digit_bits;
};

class RadixSortPropertyTest : public ::testing::TestWithParam<SortParams> {};

TEST_P(RadixSortPropertyTest, MatchesStableReference) {
  const auto [n, key_bits, digit_bits] = GetParam();
  std::vector<std::uint64_t> keys, ref_keys;
  std::vector<std::uint32_t> vals, ref_vals;
  make_random(n, key_bits, keys, vals, 1234 + n + static_cast<std::uint64_t>(key_bits));
  ref_keys = keys;
  ref_vals = vals;
  reference_sort(ref_keys, ref_vals);

  std::vector<std::uint64_t> tk(n);
  std::vector<std::uint32_t> tv(n);
  radix_sort_kv64(keys, vals, tk, tv, key_bits, digit_bits);
  EXPECT_EQ(keys, ref_keys);
  EXPECT_EQ(vals, ref_vals);
  EXPECT_TRUE(is_sorted_keys(keys));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixSortPropertyTest,
    ::testing::Values(SortParams{100, 64, 8}, SortParams{1000, 64, 8},
                      SortParams{1000, 54, 8},   // 2k bits for k=27
                      SortParams{1000, 64, 11},  // wider digits
                      SortParams{1000, 64, 16},  // the paper's rejected 16-bit variant
                      SortParams{1000, 16, 8},   // short keys
                      SortParams{777, 64, 7},    // odd digit width, odd pass count
                      SortParams{2048, 32, 4}));

TEST(RadixSort64, OddPassCountEndsInInputBuffer) {
  // 54 key bits at 9 bits/digit = 6 passes (even); at 11 = 5 passes (odd).
  std::vector<std::uint64_t> keys, ref;
  std::vector<std::uint32_t> vals;
  make_random(500, 54, keys, vals, 777);
  ref = keys;
  std::sort(ref.begin(), ref.end());
  radix_sort_kv64(keys, vals, 54, 11);
  EXPECT_EQ(keys, ref);
}

TEST(RadixSort64, ThrowsOnBufferMismatch) {
  std::vector<std::uint64_t> keys(10);
  std::vector<std::uint32_t> vals(9);
  std::vector<std::uint64_t> tk(10);
  std::vector<std::uint32_t> tv(10);
  EXPECT_THROW(radix_sort_kv64(keys, vals, tk, tv), std::invalid_argument);
}

TEST(RadixSort64, ThrowsOnBadDigitBits) {
  std::vector<std::uint64_t> keys(4);
  std::vector<std::uint32_t> vals(4);
  std::vector<std::uint64_t> tk(4);
  std::vector<std::uint32_t> tv(4);
  EXPECT_THROW(radix_sort_kv64(keys, vals, tk, tv, 64, 0), std::invalid_argument);
  EXPECT_THROW(radix_sort_kv64(keys, vals, tk, tv, 64, 17), std::invalid_argument);
}

TEST(RadixSort64x64, MatchesReference) {
  util::Xoshiro256 rng(555);
  const std::size_t n = 2000;
  std::vector<std::uint64_t> keys(n), vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.next();
    vals[i] = rng.next();
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = {keys[i], vals[i]};
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::uint64_t> tk(n), tv(n);
  radix_sort_kv64x64(keys, vals, tk, tv);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(keys[i], ref[i].first);
    EXPECT_EQ(vals[i], ref[i].second);
  }
}

/// Sorts @p keys with payloads 0..n-1 and checks keys and payloads against
/// std::stable_sort by the low @p key_bits bits: the unique payloads expose
/// any stability break, and the full keys must come back unchanged.
void expect_stable_sort(const std::vector<std::uint64_t>& keys, int key_bits, int digit_bits) {
  SCOPED_TRACE("n=" + std::to_string(keys.size()) + " key_bits=" + std::to_string(key_bits) +
               " digit_bits=" + std::to_string(digit_bits));
  const std::size_t n = keys.size();
  const std::uint64_t mask = key_bits >= 64 ? ~0ULL : (1ULL << key_bits) - 1;
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return (keys[a] & mask) < (keys[b] & mask);
  });
  std::vector<std::uint64_t> expect_keys(n);
  for (std::size_t i = 0; i < n; ++i) expect_keys[i] = keys[order[i]];

  std::vector<std::uint64_t> got_keys = keys;
  std::vector<std::uint32_t> got_vals(n);
  std::iota(got_vals.begin(), got_vals.end(), 0U);
  std::vector<std::uint64_t> tk(n);
  std::vector<std::uint32_t> tv(n);
  radix_sort_kv64(got_keys, got_vals, tk, tv, key_bits, digit_bits);
  ASSERT_EQ(got_keys, expect_keys);
  ASSERT_EQ(got_vals, order);
}

/// What one LocalSort thread sees: @p n 54-bit keys (k = 27) whose top 16
/// bits (the m = 8 bin) lie in a narrow band, each k-mer drawn about 8
/// times.
std::vector<std::uint64_t> localsort_region(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> distinct(std::max<std::size_t>(1, n / 8));
  for (std::uint64_t& km : distinct)
    km = ((30000 + rng.next_below(64)) << 38) | (rng.next() & ((1ULL << 38) - 1));
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t& km : keys) km = distinct[rng.next_below(distinct.size())];
  return keys;
}

struct RegionParams {
  int digit_bits;
  std::size_t n;  ///< above the bucket target at this digit width
};

class RadixSortRegionTest : public ::testing::TestWithParam<RegionParams> {};

TEST_P(RadixSortRegionTest, LocalSortShapedRegionMatchesStableSort) {
  const auto [digit_bits, n] = GetParam();
  expect_stable_sort(localsort_region(n, 100 + static_cast<std::uint64_t>(digit_bits)), 54,
                     digit_bits);
}

// The bucket target is kBucketKeys up to 8-bit digits and 16 keys per
// histogram counter above that (32768 at 11 bits, 2^20 at 16), so every
// case takes the MSD split.
INSTANTIATE_TEST_SUITE_P(DigitWidths, RadixSortRegionTest,
                         ::testing::Values(RegionParams{1, 3 * kBucketKeys + 5},
                                           RegionParams{8, 40 * kBucketKeys + 3},
                                           RegionParams{11, 100'000},
                                           RegionParams{16, 1'100'000}),
                         [](const ::testing::TestParamInfo<RegionParams>& info) {
                           return "digit" + std::to_string(info.param.digit_bits);
                         });

TEST(RadixSort64, SizesAroundTheBucketTarget) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, kBucketKeys - 1, kBucketKeys,
        kBucketKeys + 1}) {
    expect_stable_sort(localsort_region(n, 7 + n), 54, 8);
  }
}

TEST(RadixSort64, OneBucketHoldsAlmostEveryKey) {
  // One outlier at the top of the 54-bit range puts every other key in the
  // MSD split's first bucket, which then sorts 20-bit keys on its own.
  util::Xoshiro256 rng(31);
  std::vector<std::uint64_t> keys(10 * kBucketKeys);
  for (std::uint64_t& k : keys) k = rng.next_below(1ULL << 20);
  keys[keys.size() / 2] = (1ULL << 54) - 1;
  expect_stable_sort(keys, 54, 8);
}

TEST(RadixSort64, AllKeysEqualKeepsInputOrder) {
  // Equal low 54 bits with different carried high bits: the stable result
  // is the input order, and no counting pass runs.
  obs::MetricsRegistry& reg = obs::metrics();
  reg.set_enabled(true);
  const std::uint64_t before = reg.counter("sort.radix_passes").value();
  for (const std::size_t n : {std::size_t{5}, 3 * kBucketKeys}) {
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = (std::uint64_t{i % 1024} << 54) | 0x2b2b2b2bULL;
    expect_stable_sort(keys, 54, 8);
  }
  EXPECT_EQ(reg.counter("sort.radix_passes").value(), before);
}

TEST(RadixSort64, MinAndMaxDifferOnlyInBitZero) {
  util::Xoshiro256 rng(41);
  for (const std::size_t n : {kBucketKeys, kBucketKeys + 1, 9 * kBucketKeys}) {
    std::vector<std::uint64_t> keys(n);
    for (std::uint64_t& k : keys) k = 0x2aaaaaaaaaaaaaULL | (rng.next() & 1);
    expect_stable_sort(keys, 54, 8);
  }
}

TEST(RadixSort64, BitsAboveKeyBitsAreIgnoredAndCarried) {
  util::Xoshiro256 rng(51);
  for (const int digit_bits : {8, 11}) {
    for (const std::size_t n : {std::size_t{1000}, 6 * kBucketKeys}) {
      // Few distinct low 54 bits, so equal keys differ in the carried bits.
      std::vector<std::uint64_t> keys(n);
      for (std::uint64_t& k : keys) k = (rng.next() & ~((1ULL << 54) - 1)) | rng.next_below(n / 4);
      expect_stable_sort(keys, 54, digit_bits);
    }
  }
}

TEST(RadixSort64, PassCountAndScratchAreAccounted) {
  // Keys {0, 1, 0xFF00, 0xFF01} over 16 key bits, n = 2 * kBucketKeys + 2:
  // the MSD split takes 2 bits (4 buckets of 14 low bits, two of them
  // empty), and each full bucket varies only in digit 0, so it runs one
  // counting pass and skips digit 1.  Passes: 1 scatter + 1 + 1.
  obs::MetricsRegistry& reg = obs::metrics();
  reg.set_enabled(true);
  obs::MemRegistry& mem = obs::MemRegistry::global();
  mem.set_enabled(true);
  const std::uint64_t before = reg.counter("sort.radix_passes").value();
  const std::size_t n = 2 * kBucketKeys + 2;
  const std::uint64_t pattern[] = {0xFF01, 0, 0xFF00, 1};
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = pattern[i % 4];
  expect_stable_sort(keys, 16, 8);
  EXPECT_EQ(reg.counter("sort.radix_passes").value() - before, 3U);

  // Bucket offsets (4 buckets + 1) and two 256-counter digit histograms.
  std::int64_t high_water = -1;
  std::int64_t current = -1;
  for (const auto& [name, usage] : mem.snapshot()) {
    if (name == "sort") {
      high_water = usage.high_water;
      current = usage.current;
    }
  }
  EXPECT_EQ(high_water, static_cast<std::int64_t>((5 + 2 * 256) * sizeof(std::size_t)));
  EXPECT_EQ(current, 0);
  mem.set_enabled(false);
}

TEST(RadixSort64x64, LocalSortShapedRegionMatchesStableSort) {
  const std::vector<std::uint64_t> keys = localsort_region(12 * kBucketKeys, 61);
  const std::size_t n = keys.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = {keys[i], i};
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::uint64_t> k = keys, v(n), tk(n), tv(n);
  std::iota(v.begin(), v.end(), std::uint64_t{0});
  radix_sort_kv64x64(k, v, tk, tv, 54, 8);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(k[i], ref[i].first);
    ASSERT_EQ(v[i], ref[i].second);
  }
}

class RadixSort128Test : public ::testing::TestWithParam<int> {};

TEST_P(RadixSort128Test, MatchesReferenceFor128BitKeys) {
  const int key_bits = GetParam();
  util::Xoshiro256 rng(600 + static_cast<std::uint64_t>(key_bits));
  const std::size_t n = 1500;
  std::vector<std::uint64_t> hi(n), lo(n);
  std::vector<std::uint32_t> vals(n);
  const int hi_bits = key_bits > 64 ? key_bits - 64 : 0;
  const std::uint64_t hi_mask = hi_bits == 0 ? 0 : (hi_bits >= 64 ? ~0ULL : (1ULL << hi_bits) - 1);
  for (std::size_t i = 0; i < n; ++i) {
    hi[i] = rng.next() & hi_mask;
    lo[i] = rng.next();
    vals[i] = static_cast<std::uint32_t>(rng.next());
  }
  struct Rec {
    std::uint64_t hi, lo;
    std::uint32_t v;
  };
  std::vector<Rec> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = {hi[i], lo[i], vals[i]};
  std::stable_sort(ref.begin(), ref.end(), [](const Rec& a, const Rec& b) {
    return std::tie(a.hi, a.lo) < std::tie(b.hi, b.lo);
  });

  std::vector<std::uint64_t> th(n), tl(n);
  std::vector<std::uint32_t> tv(n);
  radix_sort_kv128(hi, lo, vals, th, tl, tv, key_bits, 8);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hi[i], ref[i].hi);
    EXPECT_EQ(lo[i], ref[i].lo);
    EXPECT_EQ(vals[i], ref[i].v);
  }
}

// 2k bits for k = 63 is 126; also test boundary and small widths.
INSTANTIATE_TEST_SUITE_P(KeyWidths, RadixSort128Test, ::testing::Values(126, 128, 66, 70, 64));

}  // namespace
}  // namespace metaprep::sort
