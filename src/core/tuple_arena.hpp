// TupleArena: the one owner of a rank's tuple arrays.
//
// In the paper each task's tuple arrays live for one run and the §3.7 model
// sizes them.  The pass engine leases every pass buffer (the receive window,
// the LocalSort scratch) from its rank's arena.  A released buffer stays
// with the arena as a spare: the next acquire takes the smallest spare that
// fits and resizes it, so its storage stays paged in across passes.  A miss
// frees the largest spare (the one a growing vector would have reallocated)
// before it allocates, which keeps the arena at about its live leases.
// Leases are uninitialised: nothing zero-fills them, and the threads that
// write a fresh buffer are the first to touch its pages.  Everything the
// arena holds is freed when it dies: at run end, or when a cancel or a
// typed Error unwinds mid-pass.
//
// Memory attribution: the arena charges the "tuples" subsystem when it
// allocates storage and credits it when it frees storage, so the count
// reads 0 once the arena is gone.
//
// Checked mode (check::enabled()): every lease starts poisoned
// (check::kPoison32), so a slot nobody wrote reads as poison — a window's
// closing fence reports such slots as kUnwrittenSlot.  release() fills the
// buffer with the poison and the acquire that reuses it scans the pattern,
// so a write through a reference kept across the release is caught as
// kUseAfterReturn.  Releasing a buffer the arena does not hold as leased —
// one it never handed out, or one already released — is kForeignRelease.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <new>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "kmer/traits.hpp"
#include "obs/mem.hpp"

namespace metaprep::core {

/// A std::allocator whose value-initialisation (resize, the sized
/// constructor) default-initialises instead: a grown vector of trivial
/// elements holds whatever its storage held, with no zero-fill.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  explicit UninitAllocator(const UninitAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Tuple arrays in SoA layout: kWords arrays of key words (least
/// significant first), then the read IDs.  A tuple is 12 bytes at k <= 32
/// and the paper's 20 bytes above (§4.4).  Growing an array leaves the new
/// slots uninitialised.
template <typename Key>
struct TupleBuffer {
  using Traits = kmer::KmerTraits<Key>;
  template <typename T>
  using Array = std::vector<T, UninitAllocator<T>>;
  std::array<Array<std::uint64_t>, Traits::kWords> keys;
  Array<std::uint32_t> vals;

  [[nodiscard]] std::size_t size() const noexcept { return vals.size(); }
  void resize(std::size_t n) {
    for (auto& words : keys) words.resize(n);
    vals.resize(n);
  }
  void put(std::uint64_t at, Key km, std::uint32_t value) {
    for (std::size_t w = 0; w < keys.size(); ++w) keys[w][at] = Traits::word(km, w);
    vals[at] = value;
  }
  /// Bytes of storage the arrays hold (capacity, not size).
  [[nodiscard]] std::uint64_t capacity_bytes() const noexcept {
    std::uint64_t bytes = vals.capacity() * sizeof(std::uint32_t);
    for (const auto& words : keys) bytes += words.capacity() * sizeof(std::uint64_t);
    return bytes;
  }
};

template <typename Key>
class TupleArena {
 public:
  using Buffer = TupleBuffer<Key>;

  /// @p max_live_bytes receives the high-water mark of leased tuple bytes
  /// (size, not capacity): PipelineResult::max_tuple_buffer_bytes.
  explicit TupleArena(std::uint64_t& max_live_bytes) : max_live_bytes_(max_live_bytes) {}
  TupleArena(const TupleArena&) = delete;
  TupleArena& operator=(const TupleArena&) = delete;
  ~TupleArena() {
    for (const Slot& s : leased_) mem_.credit("tuples", s.buf.capacity_bytes());
    for (const Slot& s : spare_) mem_.credit("tuples", s.buf.capacity_bytes());
  }

  /// A buffer of size() == @p n whose storage holds max(n, @p reserve).
  /// Element values are unspecified (poison in checked mode); callers
  /// overwrite every slot.  The reference stays valid until release().
  Buffer& acquire(std::size_t n, std::size_t reserve = 0) {
    const std::size_t cap = std::max(n, reserve);
    auto fits = [&](const Buffer& b) {
      return b.vals.capacity() >= cap &&
             std::all_of(b.keys.begin(), b.keys.end(),
                         [&](const auto& words) { return words.capacity() >= cap; });
    };
    auto best = spare_.end();
    auto largest = spare_.end();
    for (auto it = spare_.begin(); it != spare_.end(); ++it) {
      const std::size_t c = it->buf.vals.capacity();
      if (fits(it->buf) && (best == spare_.end() || c < best->buf.vals.capacity())) best = it;
      if (largest == spare_.end() || c > largest->buf.vals.capacity()) largest = it;
    }
    if (best != spare_.end()) {
      leased_.splice(leased_.end(), spare_, best);
      Slot& s = leased_.back();
      if (s.poisoned) {
        s.poisoned = false;
        scan_poison(s.buf);  // and the lease starts poisoned
      } else if (check::enabled()) {
        poison(s.buf);
      }
      s.buf.resize(n);
      note_live(n);
      return s.buf;
    }
    if (largest != spare_.end()) {
      mem_.credit("tuples", largest->buf.capacity_bytes());
      spare_.erase(largest);
    }
    Buffer& b = leased_.emplace_back().buf;
    for (auto& words : b.keys) words.reserve(cap);
    b.vals.reserve(cap);
    if (check::enabled()) poison(b);
    b.resize(n);
    mem_.charge("tuples", b.capacity_bytes());
    note_live(n);
    return b;
  }

  /// Return @p b to the arena as a spare.
  void release(Buffer& b) {
    auto it = std::find_if(leased_.begin(), leased_.end(),
                           [&](const Slot& s) { return &s.buf == &b; });
    if (it == leased_.end()) {
      if (check::enabled()) {
        fail(check::ViolationKind::kForeignRelease, b,
             "buffer released that the arena does not hold as leased");
      }
      return;
    }
    live_bytes_ -= b.size() * Buffer::Traits::kTupleBytes;
    if (check::enabled()) {
      poison(b);
      it->poisoned = true;
    }
    spare_.splice(spare_.end(), leased_, it);
  }

 private:

  /// A buffer plus whether a checked-mode release poisoned it (storage
  /// released while checking was off must not be scanned).
  struct Slot {
    Buffer buf;
    bool poisoned = false;
  };

  [[noreturn]] static void fail(check::ViolationKind kind, const Buffer& b, const char* what) {
    check::Violation v;
    v.kind = kind;
    v.bytes = b.capacity_bytes();
    std::ostringstream msg;
    msg << "TupleArena: " << what << ", " << v.bytes << " byte(s) of capacity";
    v.message = msg.str();
    check::throw_violation(std::move(v));
  }

  /// Fill all of @p b's storage (capacity, not size) with the poison.
  static void poison(Buffer& b) {
    for (auto& words : b.keys) {
      words.resize(words.capacity());
      check::poison_fill(words.data(), words.size() * sizeof(std::uint64_t));
    }
    b.vals.resize(b.vals.capacity());
    check::poison_fill(b.vals.data(), b.vals.size() * sizeof(std::uint32_t));
  }

  static void scan_poison(const Buffer& b) {
    const bool intact =
        std::all_of(b.keys.begin(), b.keys.end(),
                    [](const auto& words) {
                      return check::is_poisoned(words.data(),
                                                words.size() * sizeof(std::uint64_t));
                    }) &&
        check::is_poisoned(b.vals.data(), b.vals.size() * sizeof(std::uint32_t));
    if (!intact) {
      fail(check::ViolationKind::kUseAfterReturn, b,
           "released buffer was written while it was a spare");
    }
  }

  void note_live(std::size_t n) {
    live_bytes_ += n * Buffer::Traits::kTupleBytes;
    max_live_bytes_ = std::max(max_live_bytes_, live_bytes_);
  }

  obs::MemRegistry& mem_ = obs::MemRegistry::current();
  std::uint64_t& max_live_bytes_;
  std::uint64_t live_bytes_ = 0;
  std::list<Slot> leased_;  ///< lists: references stay valid across splices
  std::list<Slot> spare_;
};

}  // namespace metaprep::core
