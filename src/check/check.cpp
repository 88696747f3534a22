#include "check/check.hpp"

#include <cstddef>
#include <cstring>
#include <sstream>

#include "util/env.hpp"

namespace metaprep::check {

namespace {

#if METAPREP_CHECKED
bool env_enabled() {
  static const bool value = util::env_bool("METAPREP_CHECK");
  return value;
}
#endif

std::atomic<int>& force_count() noexcept {
  static std::atomic<int> count{0};
  return count;
}

// Per-thread tri-state override (-1 inherit, 0 off, 1 on); see check.hpp.
thread_local int tls_override = -1;

}  // namespace

#if METAPREP_CHECKED
bool enabled() noexcept {
  const int o = tls_override;
  if (o >= 0) return o != 0;
  return force_count().load(std::memory_order_relaxed) > 0 || env_enabled();
}
#endif

int exchange_thread_override(int value) noexcept {
  const int prev = tls_override;
  tls_override = value < 0 ? -1 : (value != 0 ? 1 : 0);
  return prev;
}

int thread_override() noexcept { return tls_override; }

void force_enable() noexcept { force_count().fetch_add(1, std::memory_order_relaxed); }
void force_disable() noexcept { force_count().fetch_sub(1, std::memory_order_relaxed); }

const char* to_string(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kUnmatchedSend: return "unmatched-send";
    case ViolationKind::kRecvReorder: return "recv-reorder";
    case ViolationKind::kDeadlock: return "deadlock";
    case ViolationKind::kOffsetOverlap: return "offset-overlap";
    case ViolationKind::kForeignRelease: return "foreign-release";
    case ViolationKind::kUseAfterReturn: return "use-after-return";
    case ViolationKind::kDsuCycle: return "dsu-cycle";
    case ViolationKind::kDsuBounds: return "dsu-bounds";
    case ViolationKind::kSizeConservation: return "size-conservation";
    case ViolationKind::kEpochViolation: return "epoch-violation";
    case ViolationKind::kFenceMismatch: return "fence-mismatch";
    case ViolationKind::kUnwrittenSlot: return "unwritten-slot";
  }
  return "unknown";
}

std::size_t CheckReport::count(ViolationKind kind) const noexcept {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.kind == kind) ++n;
  }
  return n;
}

const Violation* CheckReport::first(ViolationKind kind) const noexcept {
  for (const Violation& v : violations) {
    if (v.kind == kind) return &v;
  }
  return nullptr;
}

std::string CheckReport::to_string() const {
  std::ostringstream out;
  for (const Violation& v : violations) {
    out << "check: " << check::to_string(v.kind) << ": " << v.message << '\n';
    for (const BlockedOp& b : v.blocked) {
      out << "  rank " << b.rank << " blocked in " << b.op;
      if (b.peer >= 0) out << " on rank " << b.peer << " tag " << b.tag;
      out << " (clock " << b.clock << ")\n";
    }
  }
  return out.str();
}

CheckError::CheckError(CheckReport report)
    : std::runtime_error(report.to_string()), report_(std::move(report)) {}

void throw_violation(Violation v) {
  CheckReport report;
  report.violations.push_back(std::move(v));
  throw CheckError(std::move(report));
}

void poison_fill(void* data, std::size_t bytes) noexcept {
  auto* out = static_cast<std::byte*>(data);
  for (std::size_t at = 0; at + sizeof(kPoison32) <= bytes; at += sizeof(kPoison32)) {
    std::memcpy(out + at, &kPoison32, sizeof(kPoison32));
  }
}

bool is_poisoned(const void* data, std::size_t bytes) noexcept {
  const auto* in = static_cast<const std::byte*>(data);
  for (std::size_t at = 0; at + sizeof(kPoison32) <= bytes; at += sizeof(kPoison32)) {
    std::uint32_t word = 0;
    std::memcpy(&word, in + at, sizeof(word));
    if (word != kPoison32) return false;
  }
  return true;
}

}  // namespace metaprep::check
