// Out-of-place stable radix sort for (k-mer, read-ID) tuples.
//
// LocalSort (paper §3.4) sorts each thread's k-mer sub-range with a *serial*
// out-of-place radix sort — parallelism comes from the range partitioning
// step, not from the sort itself.  The paper sorts 8 bits per pass (256
// buckets), having found that the better temporal locality of 256 bucket
// counters beats the fewer passes of 16-bit digits; digit width is a
// parameter here so the ablation bench can reproduce that finding.
//
// The 64-bit-key sorts are two-level.  A LocalSort range covers a narrow,
// contiguous band of m-mer bins, so its keys agree on their top bits: one
// read sweep finds the masked keys' min and max, and one stable counting
// scatter on the highest bits that vary splits the range into buckets of
// about kBucketKeys keys (at most 2^16 buckets) in the scratch buffer.  Each
// bucket then runs an in-cache LSD over its remaining low bits with
// digit_bits-wide counting passes: all of its digit histograms come from one
// sweep, a digit every key in the bucket shares is skipped, and the result
// lands back in the caller's buffer.  A whole-array 8-bit LSD sweeps a
// 54-bit-key range 14 times (a count and a scatter per digit), with every
// thread's range contending for the shared cache; this sort sweeps it four
// times (min/max, count, scatter, then bucket by bucket).  The 128-bit
// variant is still a plain whole-array LSD.
//
// Tuples are stored SoA (separate key and payload arrays): same 12 bytes per
// tuple as the paper's packed layout, but radix passes stream each array
// linearly.
#pragma once

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

/// 128-bit-key variant for 32 < k <= 63 (keys split into hi/lo words; the
/// paper's 63-mer runs use 16 radix passes).  Sorts by (hi, lo) numeric
/// order.
void radix_sort_kv128(std::span<std::uint64_t> keys_hi, std::span<std::uint64_t> keys_lo,
                      std::span<std::uint32_t> vals, std::span<std::uint64_t> tmp_hi,
                      std::span<std::uint64_t> tmp_lo, std::span<std::uint32_t> tmp_vals,
                      int key_bits = 128, int digit_bits = 8);

/// Baseline for the §4.2.2 comparison: the same sort with 64-bit key AND
/// 64-bit payload (the NUMA-aware implementation of Polychroniou & Ross
/// "requires that both the key and payload be 64 bits").
void radix_sort_kv64x64(std::span<std::uint64_t> keys, std::span<std::uint64_t> vals,
                        std::span<std::uint64_t> tmp_keys, std::span<std::uint64_t> tmp_vals,
                        int key_bits = 64, int digit_bits = 8);

/// Check that keys are non-decreasing (test/bench helper).
bool is_sorted_keys(std::span<const std::uint64_t> keys);

}  // namespace metaprep::sort
