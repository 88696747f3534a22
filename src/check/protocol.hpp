// Happens-before / deadlock checker for a message-passing substrate.
//
// The checker is substrate-agnostic: ranks and tags are plain ints, and the
// owner (mpsim::World) feeds it events — send, recv, barrier — plus "I am
// blocked on X" state transitions.  From those it maintains
//  * a vector clock per rank (ticked on send/recv, joined on recv and
//    barrier) so every blocked-op trace carries a causal timestamp,
//  * per-(src, dst, tag) send/recv sequence numbers, verifying the mailbox
//    FIFO contract on every delivery,
//  * a wait-for graph over blocked ranks, probed periodically by blocked
//    ranks; a cycle is reported as a structured deadlock (every blocked
//    rank's operation, peer, tag, clock) instead of hanging the test suite.
//
// Immediate-fatal violations (FIFO breach, deadlock) throw CheckError at
// the offending call; end-of-world violations (unmatched sends) are
// accumulated and thrown by the owner after all ranks have finished.
//
// All methods are thread-safe (one internal mutex); the checker is only
// instantiated when check::enabled(), so the production fast path never
// touches it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "check/check.hpp"
#include "util/sync.hpp"

namespace metaprep::check {

class ProtocolChecker {
 public:
  explicit ProtocolChecker(int num_ranks);

  /// Clear all state for a fresh run (the owner reuses one checker per
  /// World, and a World may host several run() invocations).
  void reset();

  // --- messaging events -----------------------------------------------
  /// A message (src -> dst, tag) entered the destination mailbox.  Returns
  /// the per-(src, dst, tag) send sequence number the owner must stamp on
  /// the message so on_recv can verify FIFO delivery.
  std::uint64_t on_send(int src, int dst, int tag, std::size_t bytes);

  /// A message was taken from the mailbox.  Joins the sender's clock into
  /// the receiver's and verifies @p seq is the next expected for the
  /// (src, dst, tag) stream; throws CheckError(kRecvReorder) otherwise.
  void on_recv(int src, int dst, int tag, std::uint64_t seq);

  // --- blocking state / deadlock detection ----------------------------
  void block_recv(int rank, int src, int tag, const char* op);
  void block_barrier(int rank, std::string_view op = "barrier");
  void unblock(int rank);

  /// Arrival at a barrier-shaped collective (a barrier or a window fence,
  /// named by @p site): accumulates the rank's clock into the phase join;
  /// the P-th arrival folds the joined clock into every rank and releases
  /// every rank blocked in it.  Arriving at a different site than the ranks
  /// already waiting throws CheckError(kFenceMismatch): the collective is
  /// not reached by every rank.
  void on_barrier_arrive(int rank, std::string_view site = "barrier");

  /// Probe the wait-for graph.  @p mailbox_has(dst, src, tag) must return
  /// true when dst's mailbox already holds a (src, tag) message (such a
  /// blocked rank is about to wake and contributes no edge) — conservative
  /// "true" is always safe.  Throws CheckError(kDeadlock) with the full
  /// per-rank blocked-op trace when a cycle of blocked ranks exists.
  void detect_deadlock(const std::function<bool(int, int, int)>& mailbox_has);

  // --- end-of-world accounting ----------------------------------------
  /// Owner reports a message still sitting in a mailbox after all ranks
  /// returned.
  void note_unmatched_send(int src, int dst, int tag, std::uint64_t count,
                           std::uint64_t bytes);

  /// Returns the accumulated deferred report (clearing it).
  [[nodiscard]] CheckReport take_final_report();

  /// The rank's own Lamport component (diagnostics / tests).
  [[nodiscard]] std::uint64_t clock(int rank) const;

 private:
  struct Blocked {
    bool active = false;
    bool barrier = false;
    int peer = -1;
    int tag = 0;
    std::string op;
  };

  using Key = std::tuple<int, int, int>;  // (src, dst, tag)

  [[nodiscard]] BlockedOp blocked_trace_locked(int rank) const REQUIRES(mutex_);

  int num_ranks_;
  mutable util::Mutex mutex_;
  std::vector<std::vector<std::uint64_t>> vc_ GUARDED_BY(mutex_);  ///< vc_[rank][comp]
  std::map<Key, std::uint64_t> send_seq_ GUARDED_BY(mutex_);
  std::map<Key, std::uint64_t> recv_seq_ GUARDED_BY(mutex_);
  std::map<Key, std::deque<std::vector<std::uint64_t>>> msg_clocks_ GUARDED_BY(mutex_);
  std::vector<Blocked> blocked_ GUARDED_BY(mutex_);
  std::vector<std::uint64_t> barrier_join_ GUARDED_BY(mutex_);
  int barrier_arrivals_ GUARDED_BY(mutex_) = 0;
  std::string barrier_site_ GUARDED_BY(mutex_);  ///< what the waiting ranks arrived at
  CheckReport deferred_ GUARDED_BY(mutex_);
};

/// A collective at @p site that rank @p rank waits in can never complete:
/// rank @p exited returned without reaching it.  Throws
/// CheckError(kFenceMismatch).
[[noreturn]] void throw_collective_abandoned(int rank, std::string_view site, int exited);

// --- one-sided window epochs (mpsim::Window) ----------------------------

/// A store (@p store) must happen inside an open epoch and a region read
/// outside one.  Throws CheckError(kEpochViolation) otherwise.
void check_epoch_access(bool epoch_open, bool store, int rank, int window);

/// One source's declared stores into a target region: slots
/// [begin, begin + count).
struct WindowBlock {
  int src = -1;
  std::uint64_t begin = 0;
  std::uint64_t count = 0;
};

/// The blocks one epoch declared into region @p region (of @p elems slots)
/// of window @p window on rank @p dest must lie inside the region and not
/// overlap.  Sorts @p blocks by begin; throws CheckError(kOffsetOverlap)
/// naming both sources of the first overlap.
void validate_window_blocks(std::vector<WindowBlock>& blocks, std::uint64_t elems, int dest,
                            int window, int region);

/// Slot @p slot of region @p region of window @p window on rank @p dest was
/// still poisoned when the epoch closed (@p unwritten such slots in all);
/// @p src is the rank whose block holds it, or -1 when no block does.
/// Throws CheckError(kUnwrittenSlot).
[[noreturn]] void throw_unwritten_slot(int src, int dest, int window, int region,
                                       std::uint64_t slot, std::uint64_t unwritten);

/// Validates the P+1-entry block-offset contract of the staged all-to-all:
/// offsets must be monotone non-decreasing (blocks must not overlap).
/// Throws CheckError(kOffsetOverlap) naming the rank and first bad index.
void validate_block_offsets(std::span<const std::uint64_t> offsets, int rank,
                            const char* which);

}  // namespace metaprep::check
