#include "obs/mem.hpp"

#include <algorithm>

namespace metaprep::obs {

namespace {

/// Calling thread's registry override; nullptr = inherit the global default.
thread_local MemRegistry* tls_current = nullptr;

}  // namespace

MemRegistry& MemRegistry::global() {
  // NOLINT(metaprep-no-naked-new): intentionally leaked process-lifetime singleton
  static MemRegistry* instance = new MemRegistry();  // never destroyed
  return *instance;
}

MemRegistry& MemRegistry::current() noexcept {
  MemRegistry* r = tls_current;
  return r != nullptr ? *r : global();
}

MemRegistry* MemRegistry::exchange_current(MemRegistry* registry) noexcept {
  MemRegistry* prev = tls_current;
  tls_current = registry;
  return prev;
}

MemRegistry* MemRegistry::current_override() noexcept { return tls_current; }

void MemRegistry::charge(const char* subsystem, std::uint64_t bytes) {
  if (!enabled()) return;
  util::WriterLock lock(mutex_);
  MemUsage& u = usage_[subsystem];
  u.current += static_cast<std::int64_t>(bytes);
  u.high_water = std::max(u.high_water, u.current);
}

void MemRegistry::credit(const char* subsystem, std::uint64_t bytes) {
  if (!enabled()) return;
  util::WriterLock lock(mutex_);
  usage_[subsystem].current -= static_cast<std::int64_t>(bytes);
}

std::vector<std::pair<std::string, MemUsage>> MemRegistry::snapshot() const {
  util::ReaderLock lock(mutex_);
  std::vector<std::pair<std::string, MemUsage>> out;
  out.reserve(usage_.size());
  for (const auto& [name, u] : usage_) {
    MemUsage clamped = u;
    clamped.high_water = std::max<std::int64_t>(clamped.high_water, 0);
    out.emplace_back(name, clamped);
  }
  return out;
}

void MemRegistry::reset() {
  util::WriterLock lock(mutex_);
  usage_.clear();
}

}  // namespace metaprep::obs
