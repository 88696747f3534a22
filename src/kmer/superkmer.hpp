// Super-k-mer decomposition and wire records for the compressed exchange.
//
// A super k-mer (KMC 2) is a maximal run of consecutive k-mers sharing the
// same minimizer — the smallest canonical m-mer among a k-window's m-length
// substrings.  A run of n k-mers occupies n + k - 1 bases, so shipping the
// packed bases instead of n separate (k-mer, value) tuples converts the
// exchange volume from O(occurrences * tuple_bytes) toward
// O(distinct runs * (header + bases/4)).
//
// This header is the single shared implementation: the KMC-2 comparison
// baseline (src/baseline/kmc_like) and the pipeline's --comm-compress emit
// path (src/core/pipeline.cpp) both decompose reads through
// SuperKmerScanner, and the pipeline's wire format lives next to it so the
// encoder and decoder cannot drift apart.
//
// Wire record layout (little-endian, self-delimiting):
//
//   uint32  value      read ID, or component root under §3.5.1 substitution
//   uint16  n_kmers    k-mers in the run (1 .. kMaxSuperKmerRun)
//   bytes   bases      ceil((n_kmers + k - 1) / 4) bytes of 2-bit codes,
//                      LSB-first within each byte — byte i's bits 2j..2j+1
//                      hold base 4i+j, the same layout as io::PackedStore
//                      words, so the decoder reassembles uint64 words and
//                      reuses the packed k-mer scanners verbatim.
//
// Records never span an N: the scanner only forms runs from windows free of
// invalid bases, so decoding needs no npos sidecar.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "kmer/codec.hpp"
#include "kmer/scanner.hpp"

static_assert(std::endian::native == std::endian::little,
              "super-k-mer wire records are stored and loaded as little-endian words");

namespace metaprep::kmer {

/// SplitMix64 finalizer: the routing hash for minimizer bins.  Decoupling
/// the routing bin from the minimizer's value (lexicographically tiny
/// m-mers dominate) spreads runs uniformly over ranks.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Routing-bin space for minimizer-routed super-k-mers.  All occurrences of
/// a canonical k-mer share its minimizer, hence its bin — so uniform splits
/// of bin space over (pass, rank, thread) keep frequency counting global.
inline constexpr int kMinimizerBinBits = 12;
inline constexpr std::uint32_t kNumMinimizerBins = 1u << kMinimizerBinBits;
constexpr std::uint32_t minimizer_bin(std::uint64_t minimizer) noexcept {
  return static_cast<std::uint32_t>(mix64(minimizer) >> (64 - kMinimizerBinBits));
}

/// Streaming super-k-mer decomposition with reusable scratch.  fn(start,
/// kmer_count, minimizer) is invoked once per run in increasing start order;
/// k-windows containing non-ACGT bases are skipped (consistent with the
/// k-mer scanners).  Requires 1 <= m <= min(k, 31).
class SuperKmerScanner {
 public:
  template <typename Fn>
  void scan(std::string_view seq, int k, int m, Fn&& fn) {
    if (!prepare(seq.size(), k)) return;
    for_each_canonical_kmer64(seq, m, [&](std::uint64_t v, std::size_t pos) {
      mmer_[pos] = v;
      mmer_valid_[pos] = 1;
    });
    emit_runs(static_cast<std::int64_t>(seq.size()), k, m, std::forward<Fn>(fn));
  }

  /// Same decomposition over a 2-bit packed record (io::PackedStore layout);
  /// bit-identical runs to scan() on the equivalent text.
  template <typename Fn>
  void scan_packed(const std::uint64_t* words, std::uint32_t len, const std::uint32_t* npos,
                   std::uint32_t ncount, int k, int m, Fn&& fn) {
    if (!prepare(len, k)) return;
    for_each_canonical_kmer64_packed(words, len, npos, ncount, m,
                                     [&](std::uint64_t v, std::size_t pos) {
                                       mmer_[pos] = v;
                                       mmer_valid_[pos] = 1;
                                     });
    emit_runs(static_cast<std::int64_t>(len), k, m, std::forward<Fn>(fn));
  }

 private:
  [[nodiscard]] bool prepare(std::size_t len, int k) {
    if (len < static_cast<std::size_t>(k)) return false;
    mmer_.assign(len, ~0ULL);
    mmer_valid_.assign(len, 0);
    return true;
  }

  template <typename Fn>
  void emit_runs(std::int64_t len, int k, int m, Fn&& fn) {
    const std::int64_t nkmers = len - k + 1;
    const std::int64_t width = k - m + 1;  // m-mers per k-window
    // Sliding-window minimum over canonical m-mer values using a monotonic
    // deque of (value, position); O(len) total.
    window_.clear();
    std::size_t head = 0;
    auto push_mmer = [&](std::int64_t pos) {
      if (mmer_valid_[static_cast<std::size_t>(pos)] == 0) return;
      const std::uint64_t v = mmer_[static_cast<std::size_t>(pos)];
      while (window_.size() > head && window_.back().first >= v) window_.pop_back();
      window_.emplace_back(v, pos);
    };

    // Count of valid m-mers inside the current k-window, to detect N's.
    std::int64_t valid_in_window = 0;
    for (std::int64_t pos = 0; pos < width - 1; ++pos) {
      push_mmer(pos);
      if (mmer_valid_[static_cast<std::size_t>(pos)] != 0) ++valid_in_window;
    }

    std::uint32_t run_start = 0;
    std::uint32_t run_count = 0;
    std::uint64_t run_mz = 0;
    auto flush = [&] {
      if (run_count > 0) {
        fn(run_start, run_count, run_mz);
        run_count = 0;
      }
    };

    for (std::int64_t start = 0; start < nkmers; ++start) {
      const std::int64_t newest = start + width - 1;
      push_mmer(newest);
      if (mmer_valid_[static_cast<std::size_t>(newest)] != 0) ++valid_in_window;
      while (window_.size() > head && window_[head].second < start) ++head;

      const bool window_clean = valid_in_window == width;
      if (!window_clean || window_.size() == head) {
        flush();
      } else {
        const std::uint64_t mz = window_[head].first;
        if (run_count > 0 && run_mz == mz) {
          ++run_count;
        } else {
          flush();
          run_start = static_cast<std::uint32_t>(start);
          run_count = 1;
          run_mz = mz;
        }
      }

      // start leaves the window next iteration
      if (mmer_valid_[static_cast<std::size_t>(start)] != 0) --valid_in_window;
    }
    flush();
  }

  std::vector<std::uint64_t> mmer_;
  std::vector<std::uint8_t> mmer_valid_;
  std::vector<std::pair<std::uint64_t, std::int64_t>> window_;  // deque via head index
};

// ---------------------------------------------------------------------------
// Wire records.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kSuperKmerHeaderBytes = 6;
/// Runs longer than this are split at encode time (same minimizer, so the
/// fragments route identically); keeps n_kmers in a uint16.
inline constexpr std::uint32_t kMaxSuperKmerRun = 0xFFFF;

/// On-wire size of one record carrying @p n_kmers k-mers.
constexpr std::size_t superkmer_record_bytes(int k, std::uint32_t n_kmers) noexcept {
  const std::size_t nbases = static_cast<std::size_t>(n_kmers) + static_cast<std::size_t>(k) - 1;
  return kSuperKmerHeaderBytes + (nbases + 3) / 4;
}

namespace detail {

/// Grow @p out by one record carrying @p n_kmers k-mers, write its header and
/// return the offset of its zero-filled base bytes.  resize() grows the
/// vector geometrically, so a stream built record by record costs amortized
/// O(1) copies per byte (reserving exactly one record ahead would reallocate
/// and copy the whole stream on every append).
inline std::size_t append_superkmer_header(std::vector<std::byte>& out, std::uint32_t value,
                                           std::uint32_t n_kmers, int k) {
  const std::size_t at = out.size();
  out.resize(at + superkmer_record_bytes(k, n_kmers));
  std::byte* h = out.data() + at;
  for (int i = 0; i < 4; ++i) h[i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
  for (int i = 0; i < 2; ++i) h[4 + i] = static_cast<std::byte>((n_kmers >> (8 * i)) & 0xFF);
  return at + kSuperKmerHeaderBytes;
}

/// Store the first min(@p n, 32) 2-bit codes of @p codes (LSB-first) at @p dst
/// as ceil(n/4) bytes; code bits past n are written as zero.
inline void store_base_word(std::byte* dst, std::uint64_t codes, std::size_t n) noexcept {
  if (n < 32) codes &= (std::uint64_t{1} << (2 * n)) - 1;
  std::memcpy(dst, &codes, n < 32 ? (n + 3) / 4 : 8);
}

}  // namespace detail

/// Append one record.  @p code_at(j) must return the 2-bit code (0..3) of the
/// j-th base of the run, j in [0, n_kmers + k - 1); the caller guarantees the
/// run is free of invalid bases (the scanner only emits such runs).  Text
/// records are encoded here; packed records go through the word-at-a-time
/// append_superkmer_record_packed below, which writes identical bytes.
template <typename CodeAt>
void append_superkmer_record(std::vector<std::byte>& out, std::uint32_t value,
                             std::uint32_t n_kmers, int k, CodeAt&& code_at) {
  const std::uint32_t nbases = n_kmers + static_cast<std::uint32_t>(k) - 1;
  const std::size_t base = detail::append_superkmer_header(out, value, n_kmers, k);
  for (std::uint32_t j = 0; j < nbases; ++j) {
    const auto code = static_cast<std::uint8_t>(code_at(static_cast<std::size_t>(j)) & 3u);
    out[base + (j >> 2)] |= static_cast<std::byte>(code << (2 * (j & 3u)));
  }
}

/// Append one record whose bases start at base @p start of a 2-bit packed
/// record (io::PackedStore layout: LSB-first, 32 bases per word).  The wire
/// layout is the same bit order, so each 32-base output word is one
/// (possibly straddling) 64-bit field of @p words; no word past the run's
/// last base is read.
inline void append_superkmer_record_packed(std::vector<std::byte>& out, std::uint32_t value,
                                           std::uint32_t n_kmers, int k,
                                           const std::uint64_t* words, std::size_t start) {
  const std::size_t nbases = static_cast<std::size_t>(n_kmers) + static_cast<std::size_t>(k) - 1;
  const std::size_t at = detail::append_superkmer_header(out, value, n_kmers, k);
  std::byte* dst = out.data() + at;  // after the resize: the header may reallocate
  const std::size_t end_bit = 2 * (start + nbases);
  for (std::size_t j = 0; j < nbases; j += 32) {
    const std::size_t bit = 2 * (start + j);
    const std::size_t w = bit >> 6;
    const unsigned shift = static_cast<unsigned>(bit & 63);
    std::uint64_t codes = words[w] >> shift;
    if (shift != 0 && (w + 1) * 64 < end_bit) codes |= words[w + 1] << (64 - shift);
    detail::store_base_word(dst + j / 4, codes, nbases - j);
  }
}

/// Totals of a record stream, validated record by record (throws
/// util::parse_error on truncation).  The receiver's sizing pass.
struct SuperKmerStreamStats {
  std::uint64_t records = 0;
  std::uint64_t kmers = 0;
};
SuperKmerStreamStats count_superkmer_stream(const std::byte* data, std::size_t size, int k);

/// Streaming reader over a buffer of wire records.  Usage:
///
///   SuperKmerReader rd(data, size, k);
///   while (!rd.done()) { rd.next_header(); rd.expand64([&](uint64_t km){...}); }
///
/// expand64/expand128 re-enumerate the run's canonical k-mers by rebuilding
/// the packed words and running the 2-bit scanners — the exact enumeration
/// the sender's text/packed scan performed over those bases.
class SuperKmerReader {
 public:
  SuperKmerReader(const std::byte* data, std::size_t size, int k)
      : p_(data), end_(data + size), k_(k) {}

  [[nodiscard]] bool done() const noexcept { return p_ == end_; }
  /// Parse the next record's header and advance past the whole record.
  /// Throws util::parse_error if the buffer truncates mid-record.
  void next_header();
  [[nodiscard]] std::uint32_t value() const noexcept { return value_; }
  [[nodiscard]] std::uint32_t kmer_count() const noexcept { return n_; }

  template <typename Fn>
  void expand64(Fn&& fn) {
    rebuild_words();
    for_each_canonical_kmer64_packed(words_.data(), nbases_, nullptr, 0, k_,
                                     [&](std::uint64_t km, std::size_t) { fn(km); });
  }
  template <typename Fn>
  void expand128(Fn&& fn) {
    rebuild_words();
    for_each_canonical_kmer128_packed(words_.data(), nbases_, nullptr, 0, k_,
                                      [&](Kmer128 km, std::size_t) { fn(km); });
  }

 private:
  void rebuild_words();

  const std::byte* p_;
  const std::byte* end_;
  int k_;
  const std::byte* bases_ = nullptr;  ///< current record's packed bases
  std::uint32_t value_ = 0;
  std::uint32_t n_ = 0;
  std::uint32_t nbases_ = 0;
  std::vector<std::uint64_t> words_;  ///< scratch for the packed scanners
};

}  // namespace metaprep::kmer
