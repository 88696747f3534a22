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
constexpr int kMaxMsdBits = 16;

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
/// that vary, bit_width(lo ^ hi).  A larger range is split: one counting
/// scatter on the top bits of hi - lo moves the keys into about n / target
/// buckets in the scratch, and each bucket, which varies only in its low
/// bits, sorts on them with lsd_passes and lands back in the caller's
/// buffer.
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

  std::uint64_t lo = keys[0] & mask;
  std::uint64_t hi = lo;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t k = keys[i] & mask;
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
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

  // Split [lo, hi] on its top msd_bits bits into about n / target buckets.
  const int range_bits = static_cast<int>(std::bit_width(hi - lo));
  const int msd_bits = std::min(
      {static_cast<int>(std::bit_width((n - 1) / target)), range_bits, kMaxMsdBits});
  const int low_bits = range_bits - msd_bits;
  std::vector<std::size_t> hist(digit_count(low_bits, digit_bits) << digit_bits);

  // Bucket b holds the keys with (key >> low_bits) == base + b, so only
  // their low_bits bits vary, and there are at most 2^msd_bits + 1 buckets.
  // end[b + 1] counts bucket b's keys, end[b] then becomes its start, and
  // the scatter advances it to the bucket's end.
  const std::uint64_t base = lo >> low_bits;
  const std::size_t nbuckets = static_cast<std::size_t>((hi >> low_bits) - base) + 1;
  std::vector<std::size_t> end(nbuckets + 1, 0);
  const obs::MemCharge bucket_mem("sort", (end.size() + hist.size()) * sizeof(std::size_t));
  auto bucket_of = [&](std::uint64_t k) {
    return static_cast<std::size_t>(((k & mask) >> low_bits) - base);
  };
  for (std::size_t i = 0; i < n; ++i) ++end[bucket_of(keys[i]) + 1];
  for (std::size_t b = 1; b < nbuckets; ++b) end[b] += end[b - 1];
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t dst = end[bucket_of(keys[i])]++;
    tmp_keys[dst] = keys[i];
    tmp_vals[dst] = vals[i];
  }

  int passes = 1;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < nbuckets; ++b) {
    const std::size_t m = end[b] - begin;
    if (m == 0) continue;
    const int p = m == 1 ? 0
                         : lsd_passes<Val>(tmp_keys.data() + begin, tmp_vals.data() + begin,
                                           keys.data() + begin, vals.data() + begin, m, mask,
                                           low_bits, digit_bits, hist.data());
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

void radix_sort_kv128(std::span<std::uint64_t> keys_hi, std::span<std::uint64_t> keys_lo,
                      std::span<std::uint32_t> vals, std::span<std::uint64_t> tmp_hi,
                      std::span<std::uint64_t> tmp_lo, std::span<std::uint32_t> tmp_vals,
                      int key_bits, int digit_bits) {
  const std::size_t n = keys_hi.size();
  if (keys_lo.size() != n || vals.size() != n || tmp_hi.size() < n || tmp_lo.size() < n ||
      tmp_vals.size() < n)
    throw std::invalid_argument("radix128: buffer size mismatch");
  if (n <= 1) return;

  // LSD across the full 128-bit key: low-word digits first, then high-word
  // digits.  Each pass permutes all three arrays together.
  const int lo_bits = std::min(key_bits, 64);
  const int hi_bits = key_bits > 64 ? key_bits - 64 : 0;
  const std::uint64_t digit_mask = (std::uint64_t{1} << digit_bits) - 1;

  std::span<std::uint64_t> sh = keys_hi, sl = keys_lo;
  std::span<std::uint32_t> sv = vals;
  std::span<std::uint64_t> dh = tmp_hi.subspan(0, n), dl = tmp_lo.subspan(0, n);
  std::span<std::uint32_t> dv = tmp_vals.subspan(0, n);

  int total_passes = 0;
  auto do_passes = [&](bool use_lo, int bits) {
    const int passes = bits == 0 ? 0 : (bits + digit_bits - 1) / digit_bits;
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * digit_bits;
      const std::size_t nbuckets = std::size_t{1} << digit_bits;
      std::vector<std::size_t> count(nbuckets, 0);
      const obs::MemCharge count_mem("sort", nbuckets * sizeof(std::size_t));
      auto digit_of = [&](std::size_t i) {
        const std::uint64_t w = use_lo ? sl[i] : sh[i];
        return static_cast<std::size_t>((w >> shift) & digit_mask);
      };
      for (std::size_t i = 0; i < n; ++i) ++count[digit_of(i)];
      std::size_t acc = 0;
      for (std::size_t b = 0; b < nbuckets; ++b) {
        const std::size_t c = count[b];
        count[b] = acc;
        acc += c;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t dst = count[digit_of(i)]++;
        dh[dst] = sh[i];
        dl[dst] = sl[i];
        dv[dst] = sv[i];
      }
      std::swap(sh, dh);
      std::swap(sl, dl);
      std::swap(sv, dv);
      ++total_passes;
    }
  };
  do_passes(/*use_lo=*/true, lo_bits);
  do_passes(/*use_lo=*/false, hi_bits);

  if (total_passes % 2 == 1) {
    std::memcpy(keys_hi.data(), sh.data(), n * sizeof(std::uint64_t));
    std::memcpy(keys_lo.data(), sl.data(), n * sizeof(std::uint64_t));
    std::memcpy(vals.data(), sv.data(), n * sizeof(std::uint32_t));
  }
  count_sort_metrics(n, total_passes);
}

bool is_sorted_keys(std::span<const std::uint64_t> keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] > keys[i]) return false;
  }
  return true;
}

}  // namespace metaprep::sort
