// Out-of-place stable radix sort for (k-mer, read-ID) tuples, and the MSD
// bucket scatter it shares with LocalSort.
//
// LocalSort (paper §3.4) sorts each thread's k-mer sub-range with a *serial*
// out-of-place radix sort — parallelism comes from the range partitioning
// step, not from the sort itself.  The paper sorts 8 bits per pass (256
// buckets), having found that the better temporal locality of 256 bucket
// counters beats the fewer passes of 16-bit digits; digit width is a
// parameter here so the ablation bench can reproduce that finding.
//
// The sorts are two-level.  A LocalSort range covers a narrow, contiguous
// band of m-mer bins, so its keys agree on their top bits: one read sweep
// finds the masked keys' min and max, and one stable counting scatter on the
// highest bits that vary (msd_scatter) splits the range into buckets of
// about kBucketKeys keys (at most 2^16 buckets) in the scratch buffer.  Each
// bucket then runs an in-cache LSD over its remaining low bits with
// digit_bits-wide counting passes: all of its digit histograms come from one
// sweep, a digit every key in the bucket shares is skipped, and the result
// lands back in the caller's buffer.  A whole-array 8-bit LSD sweeps a
// 54-bit-key range 14 times (a count and a scatter per digit), with every
// thread's range contending for the shared cache; this sort sweeps it four
// times (min/max, count, scatter, then bucket by bucket).  The pass engine
// runs only the first level: it groups each bucket's equal keys with a hash
// table instead of ordering them (core/group.hpp).
//
// Tuples are stored SoA (separate key and payload arrays): same 12 bytes per
// tuple as the paper's packed layout, but radix passes stream each array
// linearly.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace metaprep::sort {

/// Keys per MSD bucket the 64-bit-key sorts aim for at digit_bits <= 8;
/// wider digits raise it to 16 keys per histogram counter.  A range of at
/// most this many keys skips the MSD split and runs one LSD.
inline constexpr std::size_t kBucketKeys = 4096;

/// Serial stable radix sort of (key, value) pairs by key.
/// @p keys / @p vals are sorted in place; @p tmp_keys / @p tmp_vals must be
/// the same size and are used as the out-of-place buffer ("We reuse the send
/// buffer of KmerGen-Comm step for storing the sorted tuples").
/// Only the low @p key_bits bits (2k for k-mers) order the keys; higher
/// bits are carried along.  @p digit_bits is the width of every LSD
/// counting pass (8 -> 256 buckets), in [1, 16].
void radix_sort_kv64(std::span<std::uint64_t> keys, std::span<std::uint32_t> vals,
                     std::span<std::uint64_t> tmp_keys, std::span<std::uint32_t> tmp_vals,
                     int key_bits = 64, int digit_bits = 8);

/// Convenience wrapper that allocates scratch internally.
void radix_sort_kv64(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& vals,
                     int key_bits = 64, int digit_bits = 8);

/// Baseline for the §4.2.2 comparison: the same sort with 64-bit key AND
/// 64-bit payload (the NUMA-aware implementation of Polychroniou & Ross
/// "requires that both the key and payload be 64 bits").
void radix_sort_kv64x64(std::span<std::uint64_t> keys, std::span<std::uint64_t> vals,
                        std::span<std::uint64_t> tmp_keys, std::span<std::uint64_t> tmp_vals,
                        int key_bits = 64, int digit_bits = 8);

/// Check that keys are non-decreasing (test/bench helper).
bool is_sorted_keys(std::span<const std::uint64_t> keys);

/// A key of W 64-bit words, least significant first, read as one unsigned
/// integer: W = 1 for k <= 32, W = 2 for 32 < k <= 63.
template <std::size_t W>
using KeyWords = std::array<std::uint64_t, W>;

template <std::size_t W>
constexpr bool key_less(const KeyWords<W>& a, const KeyWords<W>& b) noexcept {
  for (std::size_t w = W; w-- > 0;) {
    if (a[w] != b[w]) return a[w] < b[w];
  }
  return false;
}

/// The smallest and largest of key_of(0) .. key_of(n - 1), n >= 1: the
/// sweep that finds the bits a range's keys vary in.
template <std::size_t W, typename KeyOf>
std::pair<KeyWords<W>, KeyWords<W>> key_range(std::size_t n, KeyOf&& key_of) {
  KeyWords<W> lo = key_of(0);
  KeyWords<W> hi = lo;
  for (std::size_t i = 1; i < n; ++i) {
    const KeyWords<W> k = key_of(i);
    if constexpr (W == 1) {
      lo[0] = std::min(lo[0], k[0]);
      hi[0] = std::max(hi[0], k[0]);
    } else {
      if (key_less<W>(k, lo)) lo = k;
      if (key_less<W>(hi, k)) hi = k;
    }
  }
  return {lo, hi};
}

/// The MSD split of keys in [lo, hi] into about n / target buckets on the
/// top bits of hi - lo: bucket b holds the keys with (key >> low_bits) ==
/// base + b, so inside a bucket only the low_bits bits vary.  At W = 2 the
/// split bits may straddle the word boundary (at k = 33 the high word holds
/// only 2 bits), so every shift reads across it.
template <std::size_t W>
struct MsdSplit {
  /// At most 2^16 + 1 buckets per split.
  static constexpr int kMaxMsdBits = 16;

  int low_bits = 0;
  std::uint64_t base = 0;
  std::size_t buckets = 1;

  /// Low 64 bits of key >> low_bits (low_bits < 64 * W).
  [[nodiscard]] std::uint64_t shifted(const KeyWords<W>& key) const noexcept {
    if constexpr (W == 1) {
      return key[0] >> low_bits;
    } else {
      if (low_bits >= 64) return key[1] >> (low_bits - 64);
      if (low_bits == 0) return key[0];
      return (key[0] >> low_bits) | (key[1] << (64 - low_bits));
    }
  }
  [[nodiscard]] std::size_t bucket_of(const KeyWords<W>& key) const noexcept {
    return static_cast<std::size_t>(shifted(key) - base);
  }

  /// Requires lo < hi and n > target (a range that needs splitting).
  MsdSplit(const KeyWords<W>& lo, const KeyWords<W>& hi, std::size_t n, std::size_t target) {
    // hi - lo as a W-word integer; its bit width is the range's.
    KeyWords<W> range{};
    std::uint64_t borrow = 0;
    for (std::size_t w = 0; w < W; ++w) {
      range[w] = hi[w] - lo[w] - borrow;
      borrow = (hi[w] < lo[w] || (hi[w] == lo[w] && borrow)) ? 1 : 0;
    }
    int range_bits = 0;
    for (std::size_t w = W; w-- > 0;) {
      if (range[w] != 0) {
        range_bits = 64 * static_cast<int>(w) + static_cast<int>(std::bit_width(range[w]));
        break;
      }
    }
    const int msd_bits = std::min(
        {static_cast<int>(std::bit_width((n - 1) / target)), range_bits, kMaxMsdBits});
    low_bits = range_bits - msd_bits;
    base = shifted(lo);
    buckets = static_cast<std::size_t>(shifted(hi) - base) + 1;
  }
};

/// One stable counting scatter of n tuples into @p split's buckets:
/// move(i, dst) moves tuple i (key key_of(i)) to slot dst of the output,
/// and tuples of one bucket keep their input order.  Returns each bucket's
/// end offset; bucket b spans [b ? end[b - 1] : 0, end[b]).
template <std::size_t W, typename KeyOf, typename Move>
std::vector<std::size_t> msd_scatter(const MsdSplit<W>& split, std::size_t n, KeyOf&& key_of,
                                     Move&& move) {
  // end[b + 1] counts bucket b's keys, end[b] then becomes its start, and
  // the scatter advances it to the bucket's end.
  std::vector<std::size_t> end(split.buckets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++end[split.bucket_of(key_of(i)) + 1];
  for (std::size_t b = 1; b < split.buckets; ++b) end[b] += end[b - 1];
  for (std::size_t i = 0; i < n; ++i) move(i, end[split.bucket_of(key_of(i))]++);
  end.pop_back();
  return end;
}

}  // namespace metaprep::sort
