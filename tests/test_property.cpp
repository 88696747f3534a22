// Property / fuzz tests for the two kernels the pipelined scheduler leans
// hardest on: the LSD radix sorts (stability is what makes the overlap
// schedule's partition provably equal to barrier's) and the vectorized
// canonical-k-mer scanner (the fused KmerGen path emits through it).
//
// Each case randomizes the configuration axes (key_bits, digit_bits, n;
// sequence length, N runs, case) with a fixed seed and checks against the
// obvious reference: std::stable_sort and the scalar scanner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "kmer/scanner.hpp"
#include "sort/radix.hpp"
#include "util/rng.hpp"

namespace metaprep {
namespace {

std::size_t pick_n(util::Xoshiro256& rng, int iter) {
  // Always hit the degenerate sizes early, then randomize.
  if (iter == 0) return 0;
  if (iter == 1) return 1;
  if (iter == 2) return 2;
  return 1 + rng.next_below(1500);
}

/// Checks radix_sort_kv64 against std::stable_sort on @p iters random
/// configurations, drawing keys (of n <= max_n, key_bits, digit_bits) from
/// @p gen.  Keys are compared by their low key_bits bits only; the unique
/// payloads expose stability breaks.
template <typename KeyGen>
void check_kv64_against_stable_sort(std::uint64_t seed, int iters, std::size_t max_n,
                                    const KeyGen& gen) {
  util::Xoshiro256 rng(seed);
  for (int iter = 0; iter < iters; ++iter) {
    const int key_bits = 1 + static_cast<int>(rng.next_below(64));
    const int digit_bits = 1 + static_cast<int>(rng.next_below(16));
    const std::size_t n = iter < 3 ? pick_n(rng, iter) : 1 + rng.next_below(max_n);
    const std::uint64_t mask = key_bits == 64 ? ~0ull : ((1ull << key_bits) - 1);

    std::vector<std::uint64_t> keys = gen(rng, n, key_bits);
    std::vector<std::uint32_t> vals(n);
    std::iota(vals.begin(), vals.end(), 0u);

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return (keys[a] & mask) < (keys[b] & mask);
    });
    std::vector<std::uint64_t> expect_keys(n);
    std::vector<std::uint32_t> expect_vals(n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_keys[i] = keys[order[i]];
      expect_vals[i] = vals[order[i]];
    }

    sort::radix_sort_kv64(keys, vals, key_bits, digit_bits);
    ASSERT_EQ(keys, expect_keys) << "key_bits=" << key_bits << " digit_bits=" << digit_bits
                                 << " n=" << n;
    ASSERT_EQ(vals, expect_vals) << "key_bits=" << key_bits << " digit_bits=" << digit_bits
                                 << " n=" << n;
  }
}

TEST(Property, RadixSortKv64MatchesStableSort) {
  // Uniform keys below key_bits: small widths force duplicates.
  check_kv64_against_stable_sort(
      20260805, 120, 1500, [](util::Xoshiro256& rng, std::size_t n, int key_bits) {
        const std::uint64_t mask = key_bits == 64 ? ~0ull : ((1ull << key_bits) - 1);
        std::vector<std::uint64_t> keys(n);
        for (std::uint64_t& k : keys) k = rng.next() & mask;
        return keys;
      });
}

TEST(Property, RadixSortKv64NarrowRangeMatchesStableSort) {
  // LocalSort-shaped keys: a narrow band [lo, lo + 2^w) of the key space,
  // sizes up to a few MSD buckets, and bits above key_bits set at random
  // (they must be carried, not sorted on).
  check_kv64_against_stable_sort(
      20261017, 60, 4 * sort::kBucketKeys, [](util::Xoshiro256& rng, std::size_t n, int key_bits) {
        const std::uint64_t mask = key_bits == 64 ? ~0ull : ((1ull << key_bits) - 1);
        const int w = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(key_bits) + 1));
        const std::uint64_t band = w == 64 ? ~0ull : ((1ull << w) - 1);
        const std::uint64_t lo = rng.next() & mask;
        std::vector<std::uint64_t> keys(n);
        for (std::uint64_t& k : keys)
          k = (rng.next() & ~mask) | ((lo + (rng.next() & band)) & mask);
        return keys;
      });
}

TEST(Property, RadixSortKv128MatchesStableSort) {
  util::Xoshiro256 rng(918273645);
  for (int iter = 0; iter < 80; ++iter) {
    const int key_bits = 1 + static_cast<int>(rng.next_below(128));
    const int digit_bits = 1 + static_cast<int>(rng.next_below(16));
    const std::size_t n = pick_n(rng, iter);
    const int hi_bits = key_bits > 64 ? key_bits - 64 : 0;
    const std::uint64_t lo_mask =
        key_bits >= 64 ? ~0ull : ((1ull << key_bits) - 1);
    const std::uint64_t hi_mask =
        hi_bits == 0 ? 0 : (hi_bits == 64 ? ~0ull : ((1ull << hi_bits) - 1));

    std::vector<std::uint64_t> hi(n), lo(n);
    std::vector<std::uint32_t> vals(n);
    for (std::size_t i = 0; i < n; ++i) {
      hi[i] = rng.next() & hi_mask;
      lo[i] = rng.next() & lo_mask;
      vals[i] = static_cast<std::uint32_t>(i);
    }

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return hi[a] != hi[b] ? hi[a] < hi[b] : lo[a] < lo[b];
    });
    std::vector<std::uint64_t> expect_hi(n), expect_lo(n);
    std::vector<std::uint32_t> expect_vals(n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_hi[i] = hi[order[i]];
      expect_lo[i] = lo[order[i]];
      expect_vals[i] = vals[order[i]];
    }

    std::vector<std::uint64_t> tmp_hi(n), tmp_lo(n);
    std::vector<std::uint32_t> tmp_vals(n);
    sort::radix_sort_kv128(hi, lo, vals, tmp_hi, tmp_lo, tmp_vals, key_bits, digit_bits);
    ASSERT_EQ(hi, expect_hi) << "key_bits=" << key_bits << " digit_bits=" << digit_bits
                             << " n=" << n;
    ASSERT_EQ(lo, expect_lo) << "key_bits=" << key_bits << " digit_bits=" << digit_bits
                             << " n=" << n;
    ASSERT_EQ(vals, expect_vals) << "key_bits=" << key_bits << " digit_bits=" << digit_bits
                                 << " n=" << n;
  }
}

TEST(Property, RadixSortRejectsBadDigitWidth) {
  std::vector<std::uint64_t> keys{3, 1, 2};
  std::vector<std::uint32_t> vals{0, 1, 2};
  EXPECT_THROW(sort::radix_sort_kv64(keys, vals, 64, 0), std::invalid_argument);
  EXPECT_THROW(sort::radix_sort_kv64(keys, vals, 64, 17), std::invalid_argument);
}

/// Random sequence generator covering the scanner's awkward inputs: embedded
/// N runs (upper- and lowercase), mixed-case ACGT, and short tails.
std::string random_sequence(util::Xoshiro256& rng, std::size_t len) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T', 'a', 'c', 'g', 't'};
  std::string seq;
  seq.reserve(len);
  while (seq.size() < len) {
    if (rng.next_below(12) == 0) {
      // N run, 1..8 long, randomly cased.
      const std::size_t run = 1 + rng.next_below(8);
      const char n = rng.next_below(2) == 0 ? 'N' : 'n';
      for (std::size_t i = 0; i < run && seq.size() < len; ++i) seq.push_back(n);
    } else {
      seq.push_back(kBases[rng.next_below(8)]);
    }
  }
  return seq;
}

TEST(Property, VectorScanMatchesScalarScanAsMultiset) {
  // The x4 scanner emits lane-major, the scalar position-major; their
  // sorted outputs must be identical for any input.
  util::Xoshiro256 rng(555001);
  for (int iter = 0; iter < 300; ++iter) {
    const int k = 1 + static_cast<int>(rng.next_below(31));
    // Bias lengths toward the short-tail regime (< k + 16, where the x4
    // scanner must fall back to the scalar path) and the empty/sub-k cases.
    std::size_t len;
    switch (iter % 4) {
      case 0: len = rng.next_below(static_cast<std::uint64_t>(k));  break;
      case 1: len = static_cast<std::size_t>(k) + rng.next_below(16); break;
      default: len = rng.next_below(400); break;
    }
    const std::string seq = random_sequence(rng, len);

    std::vector<std::uint64_t> scalar, vec;
    kmer::scan_canonical_kmers64(seq, k, scalar);
    kmer::scan_canonical_kmers64_x4(seq, k, vec);
    std::sort(scalar.begin(), scalar.end());
    std::sort(vec.begin(), vec.end());
    ASSERT_EQ(vec, scalar) << "k=" << k << " len=" << len << " seq=" << seq;
  }
}

TEST(Property, VectorScanHandlesAllNAndEmpty) {
  std::vector<std::uint64_t> out;
  kmer::scan_canonical_kmers64_x4("", 15, out);
  EXPECT_TRUE(out.empty());
  kmer::scan_canonical_kmers64_x4("NNNNNNNNNNNNNNNNNNNNNNNN", 15, out);
  EXPECT_TRUE(out.empty());
  kmer::scan_canonical_kmers64_x4("nnnnnnnnnnnnnnnnnnnnnnnn", 15, out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace metaprep
