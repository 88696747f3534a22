// KmerTraits: one compile-time interface over the two k-mer representations
// (64-bit for k <= 32, 128-bit for k <= 63), so components that must work at
// any k — the pass engine, IndexCreate and the MiniHit assembler — are
// written once, and with_kmer_type picks the representation from k.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "kmer/codec.hpp"
#include "kmer/kmer128.hpp"
#include "kmer/scanner.hpp"
#include "kmer/superkmer.hpp"

namespace metaprep::kmer {

template <typename K>
struct KmerTraits;

template <>
struct KmerTraits<std::uint64_t> {
  static constexpr int kMaxK = kMaxK64;
  /// 64-bit words per key, and bytes per (k-mer, read ID) tuple (§4.4).
  static constexpr int kWords = 1;
  static constexpr std::uint64_t kTupleBytes = 12;

  static std::uint64_t mask(int k) { return kmer_mask64(k); }
  static std::uint64_t canonical(std::uint64_t v, int k) { return canonical64(v, k); }
  static std::uint64_t reverse_complement(std::uint64_t v, int k) { return revcomp64(v, k); }
  /// Append base code b at the 3' end: ((v << 2) | b) & mask.
  static std::uint64_t shift_in(std::uint64_t v, std::uint8_t b, std::uint64_t m) {
    return ((v << 2) | b) & m;
  }
  static std::string decode(std::uint64_t v, int k) { return decode64(v, k); }

  /// The merHist bin (m-mer prefix) of a k-mer.
  static std::uint32_t prefix_bin(std::uint64_t v, int k, int m) { return prefix_bin64(v, k, m); }
  /// The key whose bits above @p shift hold @p bin and whose others are 0.
  static std::uint64_t bin_key(std::uint64_t bin, int shift) { return bin << shift; }
  /// 64-bit word @p w of a key, least significant first.
  static std::uint64_t word(std::uint64_t v, std::size_t) { return v; }

  template <typename Fn>
  static void for_each_canonical(std::string_view seq, int k, Fn&& fn) {
    for_each_canonical_kmer64(seq, k, std::forward<Fn>(fn));
  }
  template <typename Fn>
  static void for_each_canonical_packed(const std::uint64_t* words, std::uint32_t len,
                                        const std::uint32_t* npos, std::uint32_t ncount, int k,
                                        Fn&& fn) {
    for_each_canonical_kmer64_packed(words, len, npos, ncount, k, std::forward<Fn>(fn));
  }
  /// The current super-k-mer record's k-mers, fn(km) each.
  template <typename Fn>
  static void expand(SuperKmerReader& reader, Fn&& fn) {
    reader.expand64(std::forward<Fn>(fn));
  }
};

template <>
struct KmerTraits<Kmer128> {
  static constexpr int kMaxK = kMaxK128;
  static constexpr int kWords = 2;
  static constexpr std::uint64_t kTupleBytes = 20;

  static Kmer128 mask(int k) { return kmer_mask128(k); }
  static Kmer128 canonical(Kmer128 v, int k) { return canonical128(v, k); }
  static Kmer128 reverse_complement(Kmer128 v, int k) { return revcomp128(v, k); }
  static Kmer128 shift_in(Kmer128 v, std::uint8_t b, Kmer128 m) {
    return push_base128(v, b, m);
  }
  static std::string decode(Kmer128 v, int k) { return decode128(v, k); }

  static std::uint32_t prefix_bin(Kmer128 v, int k, int m) { return prefix_bin128(v, k, m); }
  static Kmer128 bin_key(std::uint64_t bin, int shift) {
    if (shift >= 64) return {bin << (shift - 64), 0};
    if (shift == 0) return {0, bin};
    return {bin >> (64 - shift), bin << shift};
  }
  static std::uint64_t word(Kmer128 v, std::size_t w) { return w == 0 ? v.lo : v.hi; }

  template <typename Fn>
  static void for_each_canonical(std::string_view seq, int k, Fn&& fn) {
    for_each_canonical_kmer128(seq, k, std::forward<Fn>(fn));
  }
  template <typename Fn>
  static void for_each_canonical_packed(const std::uint64_t* words, std::uint32_t len,
                                        const std::uint32_t* npos, std::uint32_t ncount, int k,
                                        Fn&& fn) {
    for_each_canonical_kmer128_packed(words, len, npos, ncount, k, std::forward<Fn>(fn));
  }
  template <typename Fn>
  static void expand(SuperKmerReader& reader, Fn&& fn) {
    reader.expand128(std::forward<Fn>(fn));
  }
};

/// The one run-time choice of key width: fn(std::uint64_t{}) when k fits a
/// 64-bit word, fn(Kmer128{}) otherwise.  Both calls must return one type.
template <typename Fn>
decltype(auto) with_kmer_type(int k, Fn&& fn) {
  if (k <= kMaxK64) return fn(std::uint64_t{});
  return fn(Kmer128{});
}

}  // namespace metaprep::kmer

namespace std {
/// Hash for 128-bit k-mers (hash-map keys in the wide-k assembler path).
template <>
struct hash<metaprep::kmer::Kmer128> {
  size_t operator()(const metaprep::kmer::Kmer128& v) const noexcept {
    // SplitMix-style mix of the two words.
    std::uint64_t z = v.hi ^ (v.lo * 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(z ^ (z >> 31));
  }
};
}  // namespace std
