// Per-subsystem memory attribution (Table 5's "memory per structure").
//
// The memory model (core/memory_model) *predicts* bytes per structure; this
// registry *measures* them: instrumented allocation sites charge/credit a
// named subsystem ("tuples", "dsu", "sort", "io", ...) and the registry
// keeps a current count plus a high-water mark per name.  The attribution
// report reconciles the high-water marks against the model's prediction so
// the predicted-vs-actual delta becomes a printed number.  Every site names
// its own subsystem: mem_charge("dsu", bytes) / mem_credit("dsu", bytes),
// or a scoped MemCharge.
//
// Cost discipline mirrors src/check and the tracer: when the registry is
// disabled (the default), every charge/credit is one relaxed atomic load and
// a branch — no lock, no map lookup — so instrumented allocation sites add
// nothing to untraced runs.  Enable/snapshot are for quiescent points only.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace metaprep::obs {

/// Measured bytes for one subsystem.
struct MemUsage {
  std::int64_t current = 0;      // charges minus credits right now
  std::int64_t high_water = 0;   // max of current since reset
};

class MemRegistry {
 public:
  /// The process-wide registry used as the default sink.
  static MemRegistry& global();

  /// The registry instrumented allocation sites charge: the calling
  /// thread's override when one is installed (util::SessionContext does
  /// this for pipeline sessions), otherwise global().
  static MemRegistry& current() noexcept;

  /// Install @p registry as the calling thread's charge target (nullptr
  /// restores the global default).  Returns the previous override.
  static MemRegistry* exchange_current(MemRegistry* registry) noexcept;

  /// The calling thread's override, nullptr when inheriting the global.
  [[nodiscard]] static MemRegistry* current_override() noexcept;

  MemRegistry() = default;
  MemRegistry(const MemRegistry&) = delete;
  MemRegistry& operator=(const MemRegistry&) = delete;

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Add @p bytes to @p subsystem's current count (raising the high-water
  /// mark if needed).  No-op when disabled.
  void charge(const char* subsystem, std::uint64_t bytes);

  /// Subtract @p bytes from @p subsystem's current count.  No-op when
  /// disabled; the count may go negative if enable happened mid-lease (the
  /// snapshot clamps high_water at >= 0, which is what reports consume).
  void credit(const char* subsystem, std::uint64_t bytes);

  /// Per-subsystem usage, sorted by name.  Takes the reader side of the
  /// registry lock, so a live snapshot never blocks concurrent snapshots —
  /// charge/credit writers still serialise against it.
  [[nodiscard]] std::vector<std::pair<std::string, MemUsage>> snapshot() const;

  /// Drop all counts and high-water marks.
  void reset();

  /// This registry's capability, for lock-order declarations in other
  /// layers (see util/sync.hpp).
  [[nodiscard]] util::SharedMutex& mu() const RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable util::SharedMutex mutex_;
  std::map<std::string, MemUsage> usage_ GUARDED_BY(mutex_);
};

/// Convenience forwarders against the current registry.  One TLS access and
/// one relaxed load when the registry is disabled.
inline void mem_charge(const char* subsystem, std::uint64_t bytes) {
  MemRegistry& r = MemRegistry::current();
  if (r.enabled()) r.charge(subsystem, bytes);
}
inline void mem_credit(const char* subsystem, std::uint64_t bytes) {
  MemRegistry& r = MemRegistry::current();
  if (r.enabled()) r.credit(subsystem, bytes);
}

/// RAII charge: charges @p bytes to @p subsystem on construction, credits
/// the same amount on destruction.  Both the registry and the charge/credit
/// pair are decided at construction time, so a registry toggled — or a
/// thread override swapped — mid-scope stays balanced.
class MemCharge {
 public:
  MemCharge(const char* subsystem, std::uint64_t bytes) noexcept
      : subsystem_(subsystem), bytes_(bytes), registry_(&MemRegistry::current()),
        active_(registry_->enabled()) {
    if (active_) registry_->charge(subsystem_, bytes_);
  }
  MemCharge(const MemCharge&) = delete;
  MemCharge& operator=(const MemCharge&) = delete;
  ~MemCharge() {
    if (active_) registry_->credit(subsystem_, bytes_);
  }

 private:
  const char* subsystem_;
  std::uint64_t bytes_;
  MemRegistry* registry_;
  bool active_;
};

}  // namespace metaprep::obs
