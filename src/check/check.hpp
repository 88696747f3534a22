// Correctness-tooling layer: compile-out-able verification subsystem.
//
// The pipeline's concurrency discipline — mailbox FIFO per (src, tag),
// tuple-array lease lifetimes, atomic DSU adoption, precomputed all-to-all
// offset geometry — is hand-maintained and only probed by TSan on the
// schedules TSan happens to see.  This layer makes the discipline
// *checkable*: mpsim grows a protocol checker (src/check/protocol.hpp), the
// hot structures grow invariant hooks (dsu::verify_forest, the TupleArena's
// poisoned spares), and every violation is reported as a structured
// CheckReport instead of a hang or a silently wrong answer.
//
// Gating is two-level:
//  * compile time: the METAPREP_CHECKED macro (CMake option of the same
//    name, default ON).  With METAPREP_CHECKED=0 every hook compiles away
//    and the binaries contain zero checker code.
//  * run time: enabled() — true when the METAPREP_CHECK environment
//    variable is "1"/"on"/"true" at process start, or when a test forces it
//    via ScopedCheckEnable.  When disabled at runtime, the per-operation
//    cost is one relaxed atomic load and a branch.
//
// This library is deliberately std-only (it sits *below* util in the link
// order so util, core and the DSU can use it without a dependency cycle).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#if !defined(METAPREP_CHECKED)
#define METAPREP_CHECKED 1
#endif

namespace metaprep::check {

/// True when checking was compiled in AND enabled at runtime (env
/// METAPREP_CHECK, or a ScopedCheckEnable in scope).  With
/// METAPREP_CHECKED=0 this is constexpr-false, so every
/// `if (check::enabled())` hook folds away entirely.
#if METAPREP_CHECKED
[[nodiscard]] bool enabled() noexcept;
#else
[[nodiscard]] constexpr bool enabled() noexcept { return false; }
#endif

/// Test/e2e override of the environment gate (reference-counted so nested
/// scopes compose).  Prefer ScopedCheckEnable.
void force_enable() noexcept;
void force_disable() noexcept;

/// Per-thread override of the process-wide gate, used by pipeline sessions
/// to give each concurrent job its own check setting.  Values: -1 inherit
/// (consult force_enable / METAPREP_CHECK as before), 0 force-off, 1
/// force-on — for the calling thread and any worker that installs the same
/// override.  Returns the previous value so callers can restore it (RAII in
/// util::SessionContext).  Precedence: thread override > force_enable >
/// METAPREP_CHECK environment variable.
int exchange_thread_override(int value) noexcept;
[[nodiscard]] int thread_override() noexcept;

/// RAII runtime-enable for tests: checking is on while any instance lives.
class ScopedCheckEnable {
 public:
  ScopedCheckEnable() noexcept { force_enable(); }
  ~ScopedCheckEnable() { force_disable(); }
  ScopedCheckEnable(const ScopedCheckEnable&) = delete;
  ScopedCheckEnable& operator=(const ScopedCheckEnable&) = delete;
};

/// What a violation is, machine-readably (tests assert on this, not on
/// message strings).
enum class ViolationKind {
  kUnmatchedSend,    ///< message still in a mailbox when the World wound down
  kRecvReorder,      ///< (src, tag) message delivered out of send order
  kDeadlock,         ///< cycle of blocked ranks in the wait-for graph
  kOffsetOverlap,    ///< overlapping blocks: all-to-all offsets or a window epoch's stores
  kForeignRelease,   ///< TupleArena buffer released that it does not hold as leased
  kUseAfterReturn,   ///< released buffer written while it was an arena spare
  kDsuCycle,         ///< parent-pointer forest contains a cycle
  kDsuBounds,        ///< parent pointer out of [0, n)
  kSizeConservation, ///< component sizes after flatten do not sum to n
  kEpochViolation,   ///< window store outside an open epoch, or a region read inside one
  kFenceMismatch,    ///< a collective (fence or barrier) not reached by every rank
  kUnwrittenSlot,    ///< window slot still poisoned when its epoch closed
};

[[nodiscard]] const char* to_string(ViolationKind kind) noexcept;

/// One blocked operation in a deadlock report: what the rank was stuck on.
struct BlockedOp {
  int rank = -1;
  std::string op;          ///< "recv", "barrier"
  int peer = -1;           ///< awaited source rank (-1 for barrier)
  int tag = 0;
  std::uint64_t clock = 0; ///< rank-local Lamport component of its vector clock
};

/// One rule violation, with enough structure for a test (or a human) to see
/// exactly which ranks/sites are involved.
struct Violation {
  ViolationKind kind{};
  std::string message;          ///< human-readable one-liner
  std::vector<int> ranks;       ///< ranks involved (deadlock cycle order)
  std::vector<BlockedOp> blocked;  ///< per-rank blocked-op trace (deadlocks)
  int src = -1;                 ///< source rank / lease site where it applies
  int dst = -1;                 ///< destination rank where it applies
  int tag = 0;                  ///< mpsim tag where it applies
  std::uint64_t count = 0;      ///< e.g. messages left unmatched
  std::uint64_t bytes = 0;      ///< payload bytes involved
  std::uint64_t detail_a = 0;   ///< kind-specific (expected seq, node id, ...)
  std::uint64_t detail_b = 0;   ///< kind-specific (observed seq, parent, ...)
};

/// The checker's structured output.  Accumulated per World / per structure
/// and carried inside CheckError when a violation is fatal.
struct CheckReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool empty() const noexcept { return violations.empty(); }
  [[nodiscard]] std::size_t count(ViolationKind kind) const noexcept;
  [[nodiscard]] const Violation* first(ViolationKind kind) const noexcept;
  /// Multi-line rendering: one "check: <kind>: <message>" line per
  /// violation, blocked-op traces indented beneath deadlocks.
  [[nodiscard]] std::string to_string() const;
};

/// Thrown when a check fails.  Derives std::runtime_error (this layer sits
/// below util::Error) so existing catch sites keep working; the structured
/// report rides along for tests and tooling.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(CheckReport report);

  [[nodiscard]] const CheckReport& report() const noexcept { return report_; }

 private:
  CheckReport report_;
};

/// Throw a CheckError carrying the one violation @p v.
[[noreturn]] void throw_violation(Violation v);

/// Checked mode's fill for storage that holds no data: leased but not yet
/// written, or released.  Both patterns are the little-endian byte cycle
/// EF BE AD DE, so a 4- or 8-byte element is poisoned when every 4-byte
/// word of it reads kPoison32.
inline constexpr std::uint32_t kPoison32 = 0xDEADBEEFU;
inline constexpr std::uint64_t kPoison64 = 0xDEADBEEFDEADBEEFULL;

/// Fill @p bytes (a multiple of 4) at @p data with the poison cycle.
void poison_fill(void* data, std::size_t bytes) noexcept;
/// True when every 4-byte word of the @p bytes at @p data reads kPoison32.
[[nodiscard]] bool is_poisoned(const void* data, std::size_t bytes) noexcept;

}  // namespace metaprep::check
