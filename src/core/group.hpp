// LocalSort + LocalCC kernel (paper §3.4-§3.5): bin a dest-thread region's
// tuples, then group its equal k-mers bin by bin.
//
// The paper radix-sorts each region so that equal k-mers sit in runs, and
// LocalCC walks the runs.  LocalCC needs equal keys together, not a total
// order.  So the kernel keeps the sort's first level as LocalSort: the
// min/max sweep and the one stable MSD counting scatter into buckets of
// about sort::kBucketKeys keys (sort/radix.hpp).  In place of the in-bucket
// LSD, LocalCC groups each bucket's keys in an open-addressing table that
// stays in cache.  KMC 2 counts k-mers the same way, binning then hashing
// (the Fig. 9 baseline, src/baseline/kmc_like), as does MetaHipMer's
// hash-table k-mer analysis.
//
// Per bucket, pass 1 counts each group's valid tuples and keeps its first
// read.  Pass 2 applies the KF filter (§3.5) to the group's count and
// unites each read with the group's first read, buffering the edges whose
// union succeeded for Algorithm 1's re-verification.  Sentinel tuples
// (kInvalidRead: lenient-mode padding keyed by a slot's first bin) are
// neither counted nor united, so a real k-mer equal to a sentinel key groups
// as if no sentinel were there.  Union-by-index makes every root its
// component's largest read ID, so labels do not depend on the union order.
//
// Memory attribution: each thread's RegionGrouper keeps its table across
// buckets and passes and charges it to the "sort" subsystem.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/indices.hpp"
#include "core/tuple_arena.hpp"
#include "dsu/dsu.hpp"
#include "kmer/traits.hpp"
#include "obs/mem.hpp"
#include "sort/radix.hpp"

namespace metaprep::core {

/// What one LocalCC call saw: key groups with at least one valid tuple, and
/// those whose count the KF filter accepted.
struct GroupCounts {
  std::uint64_t groups = 0;
  std::uint64_t accepted = 0;
};

/// One thread's LocalSort + LocalCC state.  bucket() bins a region;
/// unite() then groups and unions it, and must run before the next
/// bucket().  The table starts at the bucket's size capped at kBucketKeys
/// slots, grows by rehash past half full, and is reused across buckets and
/// passes, so a bucket of one hot k-mer never gets a table sized to its
/// tuples.  unite() returns its group counts for tests.
template <typename Key>
class RegionGrouper {
 public:
  static constexpr std::size_t W = kmer::KmerTraits<Key>::kWords;
  using Words = sort::KeyWords<W>;

  RegionGrouper() = default;
  RegionGrouper(const RegionGrouper&) = delete;
  RegionGrouper& operator=(const RegionGrouper&) = delete;
  ~RegionGrouper() { mem_.credit("sort", charged_); }

  /// LocalSort: bin region [lo, lo + n) of @p tuples.  A region of at most
  /// kBucketKeys tuples, or one whose keys are all equal, stays in place as
  /// one bucket.  A larger one is scattered into the same region of
  /// @p scratch, which must stay untouched until unite() returns.
  void bucket(const TupleBuffer<Key>& tuples, TupleBuffer<Key>& scratch, std::uint64_t lo,
              std::size_t n) {
    src_ = &tuples;
    lo_ = lo;
    end_.assign(1, n);
    if (n <= sort::kBucketKeys) return;
    auto key_of = [&](std::size_t i) { return words(tuples, lo + i); };
    const auto [min, max] = sort::key_range<W>(n, key_of);
    if (!sort::key_less<W>(min, max)) return;
    const sort::MsdSplit<W> split(min, max, n, sort::kBucketKeys);
    end_ = sort::msd_scatter(split, n, key_of, [&](std::size_t i, std::size_t dst) {
      for (std::size_t w = 0; w < W; ++w) scratch.keys[w][lo + dst] = tuples.keys[w][lo + i];
      scratch.vals[lo + dst] = tuples.vals[lo + i];
    });
    src_ = &scratch;
  }

  /// LocalCC over the region the last bucket() binned: unite each accepted
  /// group's reads in @p dsu, appending each edge whose union succeeded to
  /// @p edges.
  GroupCounts unite(const KmerFreqFilter& filter, dsu::AtomicDSU& dsu,
                    std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
    GroupCounts counts;
    std::uint64_t begin = lo_;
    for (const std::size_t end : end_) {
      const std::uint64_t stop = lo_ + end;
      if (stop > begin) unite_bucket(begin, stop, filter, dsu, edges, counts);
      begin = stop;
    }
    return counts;
  }

 private:
  struct Entry {
    Words key;
    std::uint32_t count;  ///< valid tuples in the group; 0 marks an empty slot
    std::uint32_t first;  ///< the group's first valid read
  };

  static constexpr std::size_t kMinSlots = 16;

  /// Word by word: std::array's operator== may call memcmp.
  static bool same(const Words& a, const Words& b) noexcept {
    for (std::size_t w = 0; w < W; ++w) {
      if (a[w] != b[w]) return false;
    }
    return true;
  }

  static Words words(const TupleBuffer<Key>& t, std::uint64_t i) {
    Words k{};
    for (std::size_t w = 0; w < W; ++w) k[w] = t.keys[w][i];
    return k;
  }

  /// The slots in use, held in locals so the probe loop keeps them in
  /// registers across its stores.
  struct Slots {
    Entry* table;
    std::size_t mask;
    int shift;

    /// The slot holding @p key, or the empty slot where it belongs.
    [[nodiscard]] std::size_t probe(const Words& key) const noexcept {
      std::uint64_t h = key[0];
      if constexpr (W == 2) h ^= key[1] * 0xC2B2AE3D27D4EB4FULL;
      auto s = static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift);
      while (table[s].count != 0 && !same(table[s].key, key)) s = (s + 1) & mask;
      return s;
    }
  };

  [[nodiscard]] Slots slots() noexcept { return {table_.data(), slots_ - 1, shift_}; }

  /// Use the table's first @p slots slots (a power of two), allocating them
  /// if the table is smaller.  Every slot is empty on entry.
  void set_slots(std::size_t slots) {
    slots_ = slots;
    shift_ = 64 - std::countr_zero(slots);
    if (table_.size() < slots) {
      table_.assign(slots, Entry{});
      used_.reserve(slots / 2 + 1);
      recharge();
    }
  }

  /// Double the slots in use and re-place every group.
  void grow() {
    stash_.clear();
    for (const std::uint32_t s : used_) {
      stash_.push_back(table_[s]);
      table_[s].count = 0;
    }
    used_.clear();
    set_slots(slots_ * 2);
    const Slots view = slots();
    for (const Entry& e : stash_) {
      const std::size_t s = view.probe(e.key);
      view.table[s] = e;
      used_.push_back(static_cast<std::uint32_t>(s));
    }
    recharge();
  }

  void recharge() {
    const std::uint64_t bytes = (table_.capacity() + stash_.capacity()) * sizeof(Entry) +
                                used_.capacity() * sizeof(std::uint32_t);
    if (bytes > charged_) mem_.charge("sort", bytes - charged_);
    if (bytes < charged_) mem_.credit("sort", charged_ - bytes);
    charged_ = bytes;
  }

  /// Algorithm 1's first iteration for edge (u, v): one union attempt,
  /// buffering the edge if the roots differed.
  static void link(std::uint32_t u, std::uint32_t v, dsu::AtomicDSU& dsu,
                   std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
    if (u == v) return;
    const std::uint32_t ru = dsu.find(u);
    const std::uint32_t rv = dsu.find(v);
    if (ru != rv) {
      dsu.unite_once(ru, rv);
      edges.emplace_back(u, v);
    }
  }

  void unite_bucket(std::uint64_t begin, std::uint64_t stop, const KmerFreqFilter& filter,
                    dsu::AtomicDSU& dsu,
                    std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
                    GroupCounts& counts) {
    const TupleBuffer<Key>& t = *src_;
    const std::size_t m = static_cast<std::size_t>(stop - begin);
    set_slots(std::max(kMinSlots, std::bit_ceil(std::min(m, sort::kBucketKeys))));

    // Pass 1: count each group's valid tuples.  A filter that accepts every
    // count decides nothing, so the reads unite on the way.
    const bool accepts_all = filter.min_freq <= 1 && filter.max_freq == UINT32_MAX;
    Slots view = slots();
    for (std::uint64_t i = begin; i < stop; ++i) {
      const std::uint32_t read = t.vals[i];
      if (read == kInvalidRead) continue;
      const Words key = words(t, i);
      const std::size_t s = view.probe(key);
      Entry& e = view.table[s];
      if (e.count != 0) {
        e.count += e.count != UINT32_MAX ? 1U : 0U;  // saturates above any filter bound
        if (accepts_all) link(read, e.first, dsu, edges);
        continue;
      }
      e = Entry{key, 1, read};
      used_.push_back(static_cast<std::uint32_t>(s));
      if (2 * used_.size() > slots_) {
        grow();
        view = slots();
      }
    }

    // Pass 2: unite each read of an accepted group with its first read.
    if (!accepts_all) {
      for (std::uint64_t i = begin; i < stop; ++i) {
        const std::uint32_t read = t.vals[i];
        if (read == kInvalidRead) continue;
        const Entry& e = view.table[view.probe(words(t, i))];
        if (filter.accepts(e.count)) link(read, e.first, dsu, edges);
      }
    }

    counts.groups += used_.size();
    for (const std::uint32_t s : used_) {
      counts.accepted += filter.accepts(table_[s].count) ? 1 : 0;
      table_[s].count = 0;
    }
    used_.clear();
  }

  obs::MemRegistry& mem_ = obs::MemRegistry::current();
  std::uint64_t charged_ = 0;
  const TupleBuffer<Key>* src_ = nullptr;  ///< the binned region: input or scratch
  std::uint64_t lo_ = 0;
  std::vector<std::size_t> end_;           ///< bucket ends, relative to lo_
  std::vector<Entry> table_;
  std::vector<std::uint32_t> used_;        ///< occupied slots, in insertion order
  std::vector<Entry> stash_;               ///< grow()'s copy of the groups
  std::size_t slots_ = 0;
  int shift_ = 64;
};

}  // namespace metaprep::core
