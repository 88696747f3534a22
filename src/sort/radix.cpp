#include "sort/radix.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace metaprep::sort {

namespace {

void count_sort_metrics(std::size_t keys, int passes) {
  static thread_local obs::CounterHandle m_keys;
  static thread_local obs::CounterHandle m_passes;
  obs::MetricsRegistry& reg = obs::metrics();
  m_keys.of(reg, "sort.keys_sorted").add(keys);
  m_passes.of(reg, "sort.radix_passes").add(static_cast<std::uint64_t>(passes));
}

// kBucketKeys 12-byte tuples plus their ping-pong half are ~96 KB, so a
// bucket's LSD passes stay in L2 even with every core sorting at once.
// Wider digits raise the target to kKeysPerCounter keys per histogram
// counter, so zeroing and prefix-summing 2^digit_bits counters per bucket
// stays a small share of its work.
constexpr std::size_t kKeysPerCounter = 16;

void check_widths(int key_bits, int digit_bits) {
  if (digit_bits < 1 || digit_bits > 16) throw std::invalid_argument("radix: digit_bits in [1,16]");
  if (key_bits < 1) throw std::invalid_argument("radix: key_bits >= 1");
}

std::size_t digit_count(int bits, int digit_bits) {
  return static_cast<std::size_t>((bits + digit_bits - 1) / digit_bits);
}

/// Stable LSD sort of the n pairs at (ak, av) by the low @p bits bits of
/// `key & mask`, ping-ponging with (bk, bv).  One read sweep fills every
/// digit's histogram in @p hist (ceil(bits / digit_bits) << digit_bits
/// counters); a digit on which all n keys agree is skipped.  Returns the
/// counting passes run: the result is in (ak, av) when even, (bk, bv) when
/// odd.
template <typename Val>
int lsd_passes(std::uint64_t* ak, Val* av, std::uint64_t* bk, Val* bv, std::size_t n,
               std::uint64_t mask, int bits, int digit_bits, std::size_t* hist) {
  const std::size_t digits = digit_count(bits, digit_bits);
  const std::size_t radix = std::size_t{1} << digit_bits;
  const std::uint64_t digit_mask = radix - 1;
  std::fill_n(hist, digits * radix, std::size_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = ak[i] & mask;
    for (std::size_t d = 0; d < digits; ++d)
      ++hist[d * radix + ((k >> (static_cast<int>(d) * digit_bits)) & digit_mask)];
  }
  int passes = 0;
  for (std::size_t d = 0; d < digits; ++d) {
    const int shift = static_cast<int>(d) * digit_bits;
    std::size_t* count = hist + d * radix;
    if (count[((ak[0] & mask) >> shift) & digit_mask] == n) continue;
    std::size_t acc = 0;
    for (std::size_t b = 0; b < radix; ++b) {
      const std::size_t c = count[b];
      count[b] = acc;
      acc += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t dst = count[((ak[i] & mask) >> shift) & digit_mask]++;
      bk[dst] = ak[i];
      bv[dst] = av[i];
    }
    std::swap(ak, bk);
    std::swap(av, bv);
    ++passes;
  }
  return passes;
}

/// Two-level stable radix sort of the masked keys, which all lie in
/// [lo, hi].  A range of at most `target` keys runs one LSD over the bits
/// that vary, bit_width(lo ^ hi).  A larger range is split: msd_scatter
/// moves the keys into about n / target buckets in the scratch, and each
/// bucket, which varies only in its low bits, sorts on them with lsd_passes
/// and lands back in the caller's buffer.
template <typename Val>
void radix_sort_impl(std::span<std::uint64_t> keys, std::span<Val> vals,
                     std::span<std::uint64_t> tmp_keys, std::span<Val> tmp_vals, int key_bits,
                     int digit_bits) {
  if (keys.size() != vals.size() || tmp_keys.size() < keys.size() ||
      tmp_vals.size() < vals.size())
    throw std::invalid_argument("radix: buffer size mismatch");
  if (keys.size() <= 1) return;
  key_bits = std::min(key_bits, 64);
  check_widths(key_bits, digit_bits);
  const std::size_t n = keys.size();
  const std::uint64_t mask =
      key_bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << key_bits) - 1;

  const auto [lo_key, hi_key] =
      key_range<1>(n, [&](std::size_t i) { return KeyWords<1>{keys[i] & mask}; });
  const std::uint64_t lo = lo_key[0];
  const std::uint64_t hi = hi_key[0];
  if (lo == hi) {  // every key equal: the stable order is the input order
    count_sort_metrics(n, 0);
    return;
  }

  const std::size_t target = std::max(kBucketKeys, kKeysPerCounter << digit_bits);
  if (n <= target) {  // one bucket: LSD over the bits that vary
    const int bits = static_cast<int>(std::bit_width(lo ^ hi));
    std::vector<std::size_t> hist(digit_count(bits, digit_bits) << digit_bits);
    const obs::MemCharge hist_mem("sort", hist.size() * sizeof(std::size_t));
    const int passes = lsd_passes<Val>(keys.data(), vals.data(), tmp_keys.data(),
                                       tmp_vals.data(), n, mask, bits, digit_bits, hist.data());
    if (passes % 2 == 1) {
      std::memcpy(keys.data(), tmp_keys.data(), keys.size_bytes());
      std::memcpy(vals.data(), tmp_vals.data(), vals.size_bytes());
    }
    count_sort_metrics(n, passes);
    return;
  }

  // Split [lo, hi] on its top bits into about n / target buckets.
  const MsdSplit<1> split({lo}, {hi}, n, target);
  std::vector<std::size_t> hist(digit_count(split.low_bits, digit_bits) << digit_bits);
  const std::vector<std::size_t> end = msd_scatter(
      split, n, [&](std::size_t i) { return KeyWords<1>{keys[i] & mask}; },
      [&](std::size_t i, std::size_t dst) {
        tmp_keys[dst] = keys[i];
        tmp_vals[dst] = vals[i];
      });
  const obs::MemCharge bucket_mem("sort", (end.capacity() + hist.size()) * sizeof(std::size_t));

  int passes = 1;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < split.buckets; ++b) {
    const std::size_t m = end[b] - begin;
    if (m == 0) continue;
    const int p = m == 1 ? 0
                         : lsd_passes<Val>(tmp_keys.data() + begin, tmp_vals.data() + begin,
                                           keys.data() + begin, vals.data() + begin, m, mask,
                                           split.low_bits, digit_bits, hist.data());
    if (p % 2 == 0) {
      std::memcpy(keys.data() + begin, tmp_keys.data() + begin, m * sizeof(std::uint64_t));
      std::memcpy(vals.data() + begin, tmp_vals.data() + begin, m * sizeof(Val));
    }
    passes += p;
    begin = end[b];
  }
  count_sort_metrics(n, passes);
}

}  // namespace

void radix_sort_kv64(std::span<std::uint64_t> keys, std::span<std::uint32_t> vals,
                     std::span<std::uint64_t> tmp_keys, std::span<std::uint32_t> tmp_vals,
                     int key_bits, int digit_bits) {
  radix_sort_impl<std::uint32_t>(keys, vals, tmp_keys, tmp_vals, key_bits, digit_bits);
}

void radix_sort_kv64(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& vals,
                     int key_bits, int digit_bits) {
  std::vector<std::uint64_t> tk(keys.size());
  std::vector<std::uint32_t> tv(vals.size());
  const obs::MemCharge scratch_mem("sort", tk.size() * sizeof(std::uint64_t) +
                                               tv.size() * sizeof(std::uint32_t));
  radix_sort_kv64(keys, vals, tk, tv, key_bits, digit_bits);
}

void radix_sort_kv64x64(std::span<std::uint64_t> keys, std::span<std::uint64_t> vals,
                        std::span<std::uint64_t> tmp_keys, std::span<std::uint64_t> tmp_vals,
                        int key_bits, int digit_bits) {
  radix_sort_impl<std::uint64_t>(keys, vals, tmp_keys, tmp_vals, key_bits, digit_bits);
}

bool is_sorted_keys(std::span<const std::uint64_t> keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] > keys[i]) return false;
  }
  return true;
}

}  // namespace metaprep::sort
