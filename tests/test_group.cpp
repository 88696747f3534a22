// The LocalSort + LocalCC kernel (core/group.hpp) against a brute-force
// std::map: on every shape below, the grouped-union labels and the
// KF-filtered group counts must equal what per-key read lists, a SerialDSU
// and the filter's inclusive bounds give.  The shapes hit the MSD split's edges
// (a region at and around kBucketKeys, keys that differ only in bit 0,
// 128-bit keys across the word boundary), the table's (one hot key, all
// keys equal) and the sentinel rule (kInvalidRead tuples are neither
// counted nor united).  Union-by-index makes every root its component's
// largest read ID, so raw labels must match, not just the partition.
#include "core/group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dsu/dsu.hpp"
#include "kmer/kmer128.hpp"
#include "obs/mem.hpp"
#include "util/rng.hpp"

namespace metaprep::core {
namespace {

using kmer::Kmer128;
using sort::kBucketKeys;

constexpr std::uint32_t kReads = 5000;

template <typename Key>
struct Region {
  std::vector<Key> keys;
  std::vector<std::uint32_t> reads;  ///< kInvalidRead marks a sentinel

  void add(Key key, std::uint32_t read) {
    keys.push_back(key);
    reads.push_back(read);
  }
};

struct Outcome {
  std::vector<std::uint32_t> labels;
  std::uint64_t groups = 0;
  std::uint64_t accepted = 0;
};

template <typename Key>
Outcome brute_force(const Region<Key>& region, const KmerFreqFilter& filter) {
  std::map<Key, std::vector<std::uint32_t>> groups;
  for (std::size_t i = 0; i < region.keys.size(); ++i) {
    if (region.reads[i] != kInvalidRead) groups[region.keys[i]].push_back(region.reads[i]);
  }
  dsu::SerialDSU dsu(kReads);
  Outcome out;
  for (const auto& [key, reads] : groups) {
    ++out.groups;
    // The §3.5 bounds, inclusive, spelled out apart from accepts().
    if (reads.size() < filter.min_freq || reads.size() > filter.max_freq) continue;
    ++out.accepted;
    for (std::size_t i = 1; i < reads.size(); ++i) dsu.unite(reads[i - 1], reads[i]);
  }
  out.labels = dsu.labels();
  return out;
}

/// The kernel on @p region placed at offset 7 of a larger buffer whose
/// other tuples carry the region's first key and read kReads - 1, so a read
/// outside the region shows in the labels.
template <typename Key>
Outcome grouped(RegionGrouper<Key>& grouper, const Region<Key>& region,
                const KmerFreqFilter& filter) {
  constexpr std::uint64_t kLo = 7;
  const std::size_t n = region.keys.size();
  const Key pad_key = n > 0 ? region.keys[0] : Key{};
  TupleBuffer<Key> tuples;
  TupleBuffer<Key> scratch;
  tuples.resize(kLo + n + 5);
  scratch.resize(tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples.put(i, pad_key, kReads - 1);
    scratch.put(i, pad_key, kReads - 1);
  }
  for (std::size_t i = 0; i < n; ++i) tuples.put(kLo + i, region.keys[i], region.reads[i]);

  dsu::AtomicDSU dsu(kReads);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  grouper.bucket(tuples, scratch, kLo, n);
  const GroupCounts counts = grouper.unite(filter, dsu, edges);
  dsu::process_edges_algorithm1(dsu, edges);
  return {dsu.labels(), counts.groups, counts.accepted};
}

/// Filters whose bounds fall on the group sizes the shapes produce, so an
/// off-by-one in either compare changes some group's verdict.
std::vector<KmerFreqFilter> filters() {
  return {KmerFreqFilter{},        KmerFreqFilter{2, 0xFFFFFFFFu}, KmerFreqFilter{0, 1},
          KmerFreqFilter{0, 2},    KmerFreqFilter{0, 3},           KmerFreqFilter{3, 4},
          KmerFreqFilter{5, 0xFFFFFFFFu}};
}

template <typename Key>
void expect_matches(const Region<Key>& region, const std::string& what) {
  RegionGrouper<Key> fresh;
  static RegionGrouper<Key> reused;  // one table across every case, as across passes
  for (const KmerFreqFilter& filter : filters()) {
    const std::string where = what + " filter [" + std::to_string(filter.min_freq) + ", " +
                              std::to_string(filter.max_freq) + "]";
    const Outcome want = brute_force(region, filter);
    for (RegionGrouper<Key>* grouper : {&fresh, &reused}) {
      const Outcome got = grouped(*grouper, region, filter);
      EXPECT_EQ(got.groups, want.groups) << where;
      EXPECT_EQ(got.accepted, want.accepted) << where;
      ASSERT_EQ(got.labels, want.labels) << where;
    }
  }
}

/// n tuples drawing from n / coverage distinct keys base + [0, span) (as
/// 64-bit offsets), each read a random ID: runs of every length the
/// filters cut.
template <typename Key>
Region<Key> random_region(std::size_t n, std::size_t coverage, std::uint64_t span,
                          std::uint64_t seed, Key (*at)(std::uint64_t)) {
  util::Xoshiro256 rng(seed);
  std::vector<Key> distinct(std::max<std::size_t>(1, n / coverage));
  for (Key& k : distinct) k = at(rng.next_below(span));
  Region<Key> r;
  for (std::size_t i = 0; i < n; ++i) {
    r.add(distinct[rng.next_below(distinct.size())],
          static_cast<std::uint32_t>(rng.next_below(kReads)));
  }
  return r;
}

/// 54-bit keys (k = 27) in one band of m = 8 bins, as a LocalSort region.
std::uint64_t band54(std::uint64_t off) { return (std::uint64_t{20000} << 38) + off; }

TEST(GroupRegion, SizesAroundTheBucketTargetMatchBruteForce) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, kBucketKeys - 1,
                              kBucketKeys, kBucketKeys + 1, 5 * kBucketKeys + 3}) {
    expect_matches(random_region<std::uint64_t>(n, 3, std::uint64_t{1} << 38, 11 + n, band54),
                   "n=" + std::to_string(n));
  }
}

TEST(GroupRegion, AllKeysEqualMatchBruteForce) {
  // One group over more than a bucket: no split, one table entry.
  for (const std::size_t n : {kBucketKeys, 3 * kBucketKeys + 1}) {
    Region<std::uint64_t> r;
    util::Xoshiro256 rng(5);
    for (std::size_t i = 0; i < n; ++i)
      r.add(band54(99), static_cast<std::uint32_t>(rng.next_below(kReads)));
    expect_matches(r, "all equal n=" + std::to_string(n));
  }
  // Four tuples of two reads: one group of count 4.
  Region<std::uint64_t> pair;
  for (std::uint32_t i = 0; i < 4; ++i) pair.add(band54(1), i % 2 == 0 ? 17 : 4000);
  expect_matches(pair, "all equal, two reads");
}

TEST(GroupRegion, OneHotKeyOverUniformKeysMatchesBruteForce) {
  Region<std::uint64_t> r =
      random_region<std::uint64_t>(4 * kBucketKeys, 3, std::uint64_t{1} << 38, 21, band54);
  util::Xoshiro256 rng(22);
  const std::uint64_t hot = band54(std::uint64_t{1} << 30);
  for (std::size_t i = 0; i < 3 * kBucketKeys; ++i) {
    const std::size_t at = rng.next_below(r.keys.size() + 1);
    r.keys.insert(r.keys.begin() + static_cast<std::ptrdiff_t>(at), hot);
    r.reads.insert(r.reads.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<std::uint32_t>(rng.next_below(kReads)));
  }
  expect_matches(r, "hot key");
}

TEST(GroupRegion, KeysDifferingOnlyInBitZeroMatchBruteForce) {
  // A one-bit range above the bucket target splits into one bucket per key.
  for (const std::size_t n : {kBucketKeys + 1, 2 * kBucketKeys + 2}) {
    Region<std::uint64_t> r;
    util::Xoshiro256 rng(31);
    for (std::size_t i = 0; i < n; ++i) {
      r.add(band54(0xABCD0) | rng.next_below(2),
            static_cast<std::uint32_t>(rng.next_below(kReads)));
    }
    expect_matches(r, "bit 0 n=" + std::to_string(n));
  }
}

Kmer128 add128(Kmer128 base, std::uint64_t off) {
  const std::uint64_t lo = base.lo + off;
  return {base.hi + (lo < base.lo ? 1 : 0), lo};
}

/// k = 33 (66-bit keys): a band across the word boundary, where the high
/// word holds only 2 bits and the split's bits straddle the boundary.
Kmer128 k33_boundary(std::uint64_t off) { return add128({1, ~std::uint64_t{0} - 50000}, off); }
/// k = 63 (126-bit keys): one band of m = 5 bins at bit 116, the low 52
/// bits of the high word and all of the low word varying.
Kmer128 k63_band(std::uint64_t off) {
  return {(std::uint64_t{700} << 52) | (off >> 12), (off * 0x9E3779B97F4A7C15ULL) ^ off};
}
/// k = 63 across the boundary: hi:lo = 0x5:FFFF... + off.
Kmer128 k63_boundary(std::uint64_t off) { return add128({5, ~std::uint64_t{0} - 3000}, off); }

TEST(GroupRegion, WideKeysAcrossTheWordBoundaryMatchBruteForce) {
  for (const std::size_t n : {kBucketKeys - 1, 6 * kBucketKeys + 1}) {
    const std::string tag = " n=" + std::to_string(n);
    expect_matches(random_region<Kmer128>(n, 3, 100000, 41, k33_boundary), "k33 boundary" + tag);
    expect_matches(random_region<Kmer128>(n, 3, std::uint64_t{1} << 40, 42, k63_band),
                   "k63 band" + tag);
    expect_matches(random_region<Kmer128>(n, 2, 6000, 43, k63_boundary), "k63 boundary" + tag);
  }
}

TEST(GroupRegion, SentinelsAreNeitherCountedNorUnited) {
  // Lenient-mode padding carries kInvalidRead under its slot's first bin
  // key, which a real k-mer can equal.  Reads 10 and 20 share only that key
  // with sentinels between them: they must join, and the group's count is
  // 2, so a filter capped at 2 keeps it.
  for (const std::size_t pad : {std::size_t{3}, 2 * kBucketKeys}) {
    Region<std::uint64_t> r;
    const std::uint64_t sentinel_key = band54(0);
    r.add(sentinel_key, 10);
    for (std::size_t i = 0; i < pad; ++i) r.add(sentinel_key, kInvalidRead);
    r.add(sentinel_key, 20);
    for (std::size_t i = 0; i < pad; ++i) r.add(band54(1 + i % 7), kInvalidRead);
    r.add(band54(5), 30);
    r.add(band54(5), 31);
    const std::string what = "sentinels pad=" + std::to_string(pad);
    expect_matches(r, what);

    RegionGrouper<std::uint64_t> grouper;
    const Outcome capped = grouped(grouper, r, KmerFreqFilter{0, 2});
    EXPECT_EQ(capped.labels[10], 20u) << what;
    EXPECT_EQ(capped.groups, 2u) << what;  // sentinel-only keys are no group
    EXPECT_EQ(capped.accepted, 2u) << what;
  }
  // The same with 128-bit keys at k = 33, whose bin key sits at bit 56.
  Region<Kmer128> wide;
  const Kmer128 bin_key = kmer::KmerTraits<Kmer128>::bin_key(3, 56);
  wide.add(bin_key, 1);
  for (int i = 0; i < 9; ++i) wide.add(bin_key, kInvalidRead);
  wide.add(bin_key, 2);
  expect_matches(wide, "k33 sentinels");
}

TEST(GroupRegion, HotBucketTableIsNotRegionSizedAndIsChargedToSort) {
  obs::MemRegistry& mem = obs::MemRegistry::global();
  mem.set_enabled(true);
  auto sort_usage = [&] {
    for (const auto& [name, usage] : mem.snapshot()) {
      if (name == "sort") return usage;
    }
    return obs::MemUsage{};
  };
  const std::int64_t before = sort_usage().current;
  const std::size_t n = 64 * kBucketKeys;
  {
    RegionGrouper<std::uint64_t> grouper;
    Region<std::uint64_t> r;
    for (std::size_t i = 0; i < n; ++i) r.add(band54(7), static_cast<std::uint32_t>(i % kReads));
    const Outcome got = grouped(grouper, r, KmerFreqFilter{});
    EXPECT_EQ(got.groups, 1u);
    const obs::MemUsage usage = sort_usage();
    EXPECT_GT(usage.current, before);
    // The table starts at kBucketKeys slots and one key never grows it,
    // so its charge stays far below one slot per tuple.
    EXPECT_LE(usage.high_water - before, static_cast<std::int64_t>(64 * kBucketKeys));
  }
  EXPECT_EQ(sort_usage().current, before);
  mem.set_enabled(false);
}

}  // namespace
}  // namespace metaprep::core
