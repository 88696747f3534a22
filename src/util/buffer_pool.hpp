// BufferPool: process-wide recycling of the large tuple-sized arrays.
//
// Every METAPREP pass allocates the same shapes over and over — per-pass
// keys/keys_hi/vals arrays, send blocks, radix scratch — and at fusion
// width 2 two passes' buffers are alive at once, so freeing and
// reallocating them each pass costs page faults and zero-fill on exactly
// the hottest boundary.  The pool keeps released vectors on a free list and
// hands the smallest fitting one back on the next acquire: storage stays
// paged-in and warm across passes and across Worlds.  A miss (no held
// buffer is large enough) drops the largest held buffer before allocating,
// so the pool holds about as many buffers as its callers keep live.
//
// Ownership is move-based: acquire() transfers a vector to the caller,
// release() transfers it back, and discard() ends a lease and frees the
// storage (for a caller that recycles privately and has outgrown it).  Nothing in the pool aliases caller memory,
// so a leased buffer may be handed to mpsim::Comm::isend and released as
// soon as the post returns (the mailbox owns the in-flight copy; see
// DESIGN.md "Buffer-pool ownership").
//
// Observability: the pool mirrors its state into the obs gauges
// `pool.bytes_held` (bytes sitting on the free lists right now) and
// `pool.reuse_hits` (acquires served from the free list since process
// start); both are also readable directly via bytes_held()/reuse_hits()
// when the metrics registry is disabled.
//
// Checked mode (check::enabled()): every acquire registers a
// generation-stamped lease keyed by the buffer's data pointer, and every
// release must match a live lease.  Releasing an empty/moved-from vector is
// flagged as a double release, releasing storage the pool never leased as a
// foreign release.  Released buffers are filled with a poison pattern and
// re-scanned on the next acquire, so a caller that kept a dangling span and
// wrote through it is caught as use-after-return at the reuse point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/sync.hpp"

namespace metaprep::util {

class BufferPool {
 public:
  /// The process-wide pool the pipeline's pass engine leases from.
  static BufferPool& global();

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Acquire a vector with size() == n.  Element values are unspecified
  /// (recycled buffers keep stale contents); callers overwrite every slot —
  /// the pipeline's precomputed-offset writes already guarantee that.
  [[nodiscard]] std::vector<std::uint64_t> acquire_u64(std::size_t n);
  [[nodiscard]] std::vector<std::uint32_t> acquire_u32(std::size_t n);

  /// Return a buffer to the free list.  The vector is left empty.
  void release(std::vector<std::uint64_t>&& v);
  void release(std::vector<std::uint32_t>&& v);

  /// End a lease without keeping the buffer: it is freed, not listed, so no
  /// other caller can be handed it.  Checked mode applies release()'s lease
  /// checks.  The vector is left empty.
  void discard(std::vector<std::uint64_t>&& v);
  void discard(std::vector<std::uint32_t>&& v);

  /// Bytes of capacity currently sitting on the free lists.
  [[nodiscard]] std::uint64_t bytes_held() const;
  /// Acquires served by recycling (free-list capacity >= requested size).
  [[nodiscard]] std::uint64_t reuse_hits() const;
  /// Buffers currently on the free lists.
  [[nodiscard]] std::size_t buffers_held() const;
  /// Live (acquired, not yet released) leases.  Only tracked while
  /// check::enabled(); the cancelled-run tests assert this drains to zero.
  [[nodiscard]] std::size_t outstanding_leases() const;

  /// Drop every held buffer (bytes_held returns to 0; hits are kept).
  void trim();

  /// This pool's capability, for lock-order declarations in other layers
  /// (see util/sync.hpp).
  [[nodiscard]] Mutex& mu() const RETURN_CAPABILITY(mutex_) { return mutex_; }

 private:
  /// Free-list entry; `poisoned` records whether checked-mode release filled
  /// the storage with the poison pattern (a buffer released while checking
  /// was off must not be poison-scanned on reuse).
  template <typename T>
  struct FreeEntry {
    std::vector<T> buf;
    bool poisoned = false;
  };
  /// Live leases in checked mode: buffer data pointer -> generation stamp.
  using LeaseMap = std::map<const void*, std::uint64_t>;

  template <typename T>
  std::vector<T> acquire_from(std::vector<FreeEntry<T>>& list, LeaseMap& leases,
                              std::size_t n, T poison) REQUIRES(mutex_);
  template <typename T>
  void release_into(std::vector<FreeEntry<T>>& list, LeaseMap& leases,
                    std::vector<T>&& v, T poison) REQUIRES(mutex_);
  /// Retire @p v's lease (checked mode: flag a double or foreign release).
  /// False when there is nothing to hold: an empty vector, checking off.
  template <typename T>
  bool end_lease(LeaseMap& leases, const std::vector<T>& v) REQUIRES(mutex_);
  template <typename T>
  void discard_lease(std::vector<T>&& v) EXCLUDES(mutex_);
  /// Mirror a pool-state snapshot into the obs gauges and the "pool" memory
  /// row.  Called with mutex_ released: the pool lock is a leaf in the
  /// declared order and must never be held across a registry lock.
  void publish_gauges(std::uint64_t bytes_held, std::uint64_t reuse_hits) const
      EXCLUDES(mutex_);

  /// Leaf lock in the declared global order (see util/sync.hpp): acquired
  /// after the JobQueue and session-registry mutexes — the globals below
  /// stand in for every registry instance — and nothing is taken under it.
  mutable Mutex mutex_ ACQUIRED_AFTER(obs::TraceSession::global().mu(),
                                      obs::MetricsRegistry::global().mu(),
                                      obs::MemRegistry::global().mu());
  std::vector<FreeEntry<std::uint64_t>> free64_ GUARDED_BY(mutex_);
  std::vector<FreeEntry<std::uint32_t>> free32_ GUARDED_BY(mutex_);
  LeaseMap leases64_ GUARDED_BY(mutex_);
  LeaseMap leases32_ GUARDED_BY(mutex_);
  std::uint64_t next_generation_ GUARDED_BY(mutex_) = 1;
  std::uint64_t bytes_held_ GUARDED_BY(mutex_) = 0;
  std::uint64_t reuse_hits_ GUARDED_BY(mutex_) = 0;
};

}  // namespace metaprep::util
