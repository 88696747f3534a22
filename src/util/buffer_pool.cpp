#include "util/buffer_pool.hpp"

#include <algorithm>
#include <sstream>

#include "check/check.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace metaprep::util {

namespace {

constexpr std::uint64_t kPoison64 = 0xDEADBEEFDEADBEEFULL;
constexpr std::uint32_t kPoison32 = 0xDEADBEEFU;

[[noreturn]] void throw_pool_violation(check::ViolationKind kind, std::uint64_t generation,
                                       std::uint64_t capacity_bytes, const char* detail) {
  check::Violation v;
  v.kind = kind;
  v.detail_a = generation;
  v.bytes = capacity_bytes;
  std::ostringstream msg;
  msg << "BufferPool: " << detail;
  if (generation != 0) msg << " (lease generation " << generation << ")";
  msg << ", " << capacity_bytes << " byte(s) of capacity";
  v.message = msg.str();
  check::CheckReport report;
  report.violations.push_back(std::move(v));
  throw check::CheckError(std::move(report));
}

}  // namespace

BufferPool& BufferPool::global() {
  static BufferPool pool;
  return pool;
}

template <typename T>
std::vector<T> BufferPool::acquire_from(std::vector<FreeEntry<T>>& list, LeaseMap& leases,
                                        std::size_t n, T poison) {
  const bool checked = check::enabled();
  // Best fit: smallest capacity that still holds n, so one oversized buffer
  // is not burned on a tiny request.
  std::size_t best = list.size();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].buf.capacity() < n) continue;
    if (best == list.size() || list[i].buf.capacity() < list[best].buf.capacity()) best = i;
  }
  std::vector<T> out;
  if (best == list.size()) {
    // Miss: every held buffer is too small.  Drop the largest before the
    // fresh allocation, so callers whose sizes grow pass to pass hold about
    // as many buffers as they have live leases, not a trail of undersized
    // ones.
    if (!list.empty()) {
      auto largest = std::max_element(list.begin(), list.end(), [](const auto& a, const auto& b) {
        return a.buf.capacity() < b.buf.capacity();
      });
      bytes_held_ -= largest->buf.capacity() * sizeof(T);
      std::iter_swap(largest, list.end() - 1);
      list.pop_back();
    }
    out.assign(n, T{});
  } else {
    FreeEntry<T> entry = std::move(list[best]);
    list[best] = std::move(list.back());
    list.pop_back();
    bytes_held_ -= entry.buf.capacity() * sizeof(T);
    ++reuse_hits_;
    if (checked && entry.poisoned) {
      // Release filled size()==capacity() with poison; any break means a
      // caller wrote through a dangling handle while we held the storage.
      for (const T& x : entry.buf) {
        if (x != poison) {
          throw_pool_violation(check::ViolationKind::kUseAfterReturn, 0,
                               entry.buf.capacity() * sizeof(T),
                               "released buffer was written while on the free list");
        }
      }
    }
    out = std::move(entry.buf);
    out.resize(n);
  }
  if (checked) {
    // Zero-size leases still need a registrable data pointer.
    if (out.capacity() == 0) out.reserve(1);
    leases[out.data()] = next_generation_++;
  }
  return out;
}

template <typename T>
bool BufferPool::end_lease(LeaseMap& leases, const std::vector<T>& v) {
  if (check::enabled()) {
    if (v.capacity() == 0) {
      // An empty/moved-from vector is the signature of re-releasing a lease
      // release() already consumed.
      throw_pool_violation(check::ViolationKind::kDoubleRelease, 0, 0,
                           "empty/moved-from buffer released (lease already returned?)");
    }
    auto it = leases.find(v.data());
    if (it == leases.end()) {
      throw_pool_violation(check::ViolationKind::kForeignRelease, 0,
                           v.capacity() * sizeof(T),
                           "buffer released that the pool never leased");
    }
    leases.erase(it);
    return true;
  }
  if (v.capacity() == 0) return false;
  if (!leases.empty()) leases.erase(v.data());  // tolerate toggled-off checking
  return true;
}

template <typename T>
void BufferPool::release_into(std::vector<FreeEntry<T>>& list, LeaseMap& leases,
                              std::vector<T>&& v, T poison) {
  if (!end_lease(leases, v)) return;
  const bool poisoned = check::enabled();
  if (poisoned) {
    v.resize(v.capacity());
    std::fill(v.begin(), v.end(), poison);
  }
  bytes_held_ += v.capacity() * sizeof(T);
  list.push_back(FreeEntry<T>{std::move(v), poisoned});
}

template <typename T>
void BufferPool::discard_lease(std::vector<T>&& v) {
  const std::uint64_t credited = v.capacity() * sizeof(T);
  {
    MutexLock lock(mutex_);
    if constexpr (sizeof(T) == sizeof(std::uint64_t)) {
      end_lease(leases64_, v);
    } else {
      end_lease(leases32_, v);
    }
  }
  std::vector<T>().swap(v);  // free outside the lock
  obs::mem_credit(obs::MemScope::current("pool"), credited);
}

// The public entry points hold mutex_ only across the free-list/lease state
// change, then run the observability side effects (registry locks) after
// releasing it: the pool lock is declared a leaf, so holding it across
// obs::mem_charge / gauge publication would invert the global lock order.
// The charge may therefore land a moment after a concurrent release's
// credit for the same storage; the balance is unchanged and the high-water
// mark errs high (never low).

std::vector<std::uint64_t> BufferPool::acquire_u64(std::size_t n) {
  std::vector<std::uint64_t> out;
  std::uint64_t bytes = 0;
  std::uint64_t hits = 0;
  {
    MutexLock lock(mutex_);
    out = acquire_from(free64_, leases64_, n, kPoison64);
    bytes = bytes_held_;
    hits = reuse_hits_;
  }
  // Memory attribution: leased bytes belong to the caller's subsystem (the
  // pipeline tags tuple leases with MemScope("tuples")); acquire and release
  // sites must agree on the tag for the charge to balance.
  obs::mem_charge(obs::MemScope::current("pool"), out.capacity() * sizeof(std::uint64_t));
  publish_gauges(bytes, hits);
  return out;
}

std::vector<std::uint32_t> BufferPool::acquire_u32(std::size_t n) {
  std::vector<std::uint32_t> out;
  std::uint64_t bytes = 0;
  std::uint64_t hits = 0;
  {
    MutexLock lock(mutex_);
    out = acquire_from(free32_, leases32_, n, kPoison32);
    bytes = bytes_held_;
    hits = reuse_hits_;
  }
  obs::mem_charge(obs::MemScope::current("pool"), out.capacity() * sizeof(std::uint32_t));
  publish_gauges(bytes, hits);
  return out;
}

void BufferPool::release(std::vector<std::uint64_t>&& v) {
  const std::uint64_t credited = v.capacity() * sizeof(std::uint64_t);
  std::uint64_t bytes = 0;
  std::uint64_t hits = 0;
  {
    MutexLock lock(mutex_);
    release_into(free64_, leases64_, std::move(v), kPoison64);
    bytes = bytes_held_;
    hits = reuse_hits_;
  }
  obs::mem_credit(obs::MemScope::current("pool"), credited);
  publish_gauges(bytes, hits);
}

void BufferPool::release(std::vector<std::uint32_t>&& v) {
  const std::uint64_t credited = v.capacity() * sizeof(std::uint32_t);
  std::uint64_t bytes = 0;
  std::uint64_t hits = 0;
  {
    MutexLock lock(mutex_);
    release_into(free32_, leases32_, std::move(v), kPoison32);
    bytes = bytes_held_;
    hits = reuse_hits_;
  }
  obs::mem_credit(obs::MemScope::current("pool"), credited);
  publish_gauges(bytes, hits);
}

void BufferPool::discard(std::vector<std::uint64_t>&& v) { discard_lease(std::move(v)); }

void BufferPool::discard(std::vector<std::uint32_t>&& v) { discard_lease(std::move(v)); }

std::uint64_t BufferPool::bytes_held() const {
  MutexLock lock(mutex_);
  return bytes_held_;
}

std::uint64_t BufferPool::reuse_hits() const {
  MutexLock lock(mutex_);
  return reuse_hits_;
}

std::size_t BufferPool::buffers_held() const {
  MutexLock lock(mutex_);
  return free64_.size() + free32_.size();
}

std::size_t BufferPool::outstanding_leases() const {
  MutexLock lock(mutex_);
  return leases64_.size() + leases32_.size();
}

void BufferPool::trim() {
  std::uint64_t hits = 0;
  {
    MutexLock lock(mutex_);
    free64_.clear();
    free32_.clear();
    bytes_held_ = 0;
    hits = reuse_hits_;
  }
  publish_gauges(0, hits);
}

void BufferPool::publish_gauges(std::uint64_t bytes_held, std::uint64_t reuse_hits) const {
  // Deliberately pinned to the *global* registry: a pool can be shared
  // across sessions (the daemon's jobs all lease from one pool), so its
  // footprint is process-level state, and pinning keeps these static refs
  // safe — they must never bind a session registry that can die first.
  // Per-session pool accounting goes through bytes_held() accessors.
  static obs::Gauge& g_bytes = obs::MetricsRegistry::global().gauge("pool.bytes_held");
  static obs::Gauge& g_hits = obs::MetricsRegistry::global().gauge("pool.reuse_hits");
  g_bytes.set(static_cast<double>(bytes_held));
  g_hits.set(static_cast<double>(reuse_hits));
  // Bytes parked on the free list are the pool's own footprint (leased bytes
  // are attributed to the acquiring subsystem above).
  obs::mem_set_current("pool", bytes_held);
}

}  // namespace metaprep::util
