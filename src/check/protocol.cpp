#include "check/protocol.hpp"

#include <algorithm>
#include <sstream>

namespace metaprep::check {

ProtocolChecker::ProtocolChecker(int num_ranks) : num_ranks_(num_ranks) { reset(); }

void ProtocolChecker::reset() {
  util::MutexLock lock(mutex_);
  vc_.assign(static_cast<std::size_t>(num_ranks_),
             std::vector<std::uint64_t>(static_cast<std::size_t>(num_ranks_), 0));
  send_seq_.clear();
  recv_seq_.clear();
  msg_clocks_.clear();
  blocked_.assign(static_cast<std::size_t>(num_ranks_), Blocked{});
  barrier_join_.assign(static_cast<std::size_t>(num_ranks_), 0);
  barrier_arrivals_ = 0;
  barrier_site_.clear();
  deferred_ = CheckReport{};
}

std::uint64_t ProtocolChecker::on_send(int src, int dst, int tag, std::size_t bytes) {
  (void)bytes;
  util::MutexLock lock(mutex_);
  auto& my_vc = vc_[static_cast<std::size_t>(src)];
  ++my_vc[static_cast<std::size_t>(src)];
  const Key key{src, dst, tag};
  msg_clocks_[key].push_back(my_vc);
  return send_seq_[key]++;
}

void ProtocolChecker::on_recv(int src, int dst, int tag, std::uint64_t seq) {
  util::MutexLock lock(mutex_);
  const Key key{src, dst, tag};
  const std::uint64_t expected = recv_seq_[key]++;
  auto& my_vc = vc_[static_cast<std::size_t>(dst)];
  auto it = msg_clocks_.find(key);
  if (it != msg_clocks_.end() && !it->second.empty()) {
    const auto& snap = it->second.front();
    for (std::size_t i = 0; i < my_vc.size(); ++i) my_vc[i] = std::max(my_vc[i], snap[i]);
    it->second.pop_front();
  }
  ++my_vc[static_cast<std::size_t>(dst)];
  if (seq != expected) {
    Violation v;
    v.kind = ViolationKind::kRecvReorder;
    v.src = src;
    v.dst = dst;
    v.tag = tag;
    v.detail_a = expected;
    v.detail_b = seq;
    std::ostringstream msg;
    msg << "mailbox FIFO breach on (src " << src << " -> dst " << dst << ", tag " << tag
        << "): delivered send #" << seq << ", expected #" << expected;
    v.message = msg.str();
    v.ranks = {src, dst};
    throw_violation(std::move(v));
  }
}

void ProtocolChecker::block_recv(int rank, int src, int tag, const char* op) {
  util::MutexLock lock(mutex_);
  Blocked& b = blocked_[static_cast<std::size_t>(rank)];
  b.active = true;
  b.barrier = false;
  b.peer = src;
  b.tag = tag;
  b.op = op;
}

void ProtocolChecker::block_barrier(int rank, std::string_view op) {
  util::MutexLock lock(mutex_);
  Blocked& b = blocked_[static_cast<std::size_t>(rank)];
  b.active = true;
  b.barrier = true;
  b.peer = -1;
  b.tag = 0;
  b.op = op;
}

void ProtocolChecker::unblock(int rank) {
  util::MutexLock lock(mutex_);
  blocked_[static_cast<std::size_t>(rank)].active = false;
}

void ProtocolChecker::on_barrier_arrive(int rank, std::string_view site) {
  util::MutexLock lock(mutex_);
  if (barrier_arrivals_ == 0) {
    barrier_site_ = site;
  } else if (site != barrier_site_) {
    Violation v;
    v.kind = ViolationKind::kFenceMismatch;
    v.src = rank;
    std::ostringstream msg;
    msg << "rank " << rank << " arrived at " << site << " while " << barrier_arrivals_
        << " rank(s) wait in " << barrier_site_ << ": a collective not reached by every rank";
    v.message = msg.str();
    v.ranks = {rank};
    throw_violation(std::move(v));
  }
  const auto& my_vc = vc_[static_cast<std::size_t>(rank)];
  for (std::size_t i = 0; i < barrier_join_.size(); ++i) {
    barrier_join_[i] = std::max(barrier_join_[i], my_vc[i]);
  }
  if (++barrier_arrivals_ == num_ranks_) {
    for (auto& rank_vc : vc_) {
      for (std::size_t i = 0; i < rank_vc.size(); ++i) {
        rank_vc[i] = std::max(rank_vc[i], barrier_join_[i]);
      }
    }
    std::fill(barrier_join_.begin(), barrier_join_.end(), 0);
    barrier_arrivals_ = 0;
    // The phase is complete, so every rank parked in it is released now,
    // even before its thread wakes to unblock itself: a peer that already
    // left the barrier and waits on a still-sleeping rank is no deadlock.
    for (Blocked& b : blocked_) {
      if (b.barrier) b.active = false;
    }
  }
}

BlockedOp ProtocolChecker::blocked_trace_locked(int rank) const {
  const Blocked& b = blocked_[static_cast<std::size_t>(rank)];
  BlockedOp op;
  op.rank = rank;
  op.op = b.op;
  op.peer = b.peer;
  op.tag = b.tag;
  op.clock = vc_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(rank)];
  return op;
}

void ProtocolChecker::detect_deadlock(
    const std::function<bool(int, int, int)>& mailbox_has) {
  // Snapshot the blocked table, then verify recv edges against the
  // mailboxes *outside* the checker mutex (mailbox_has try-locks; a busy
  // mailbox means its owner is active, so "no edge" is the safe answer on
  // contention — handled by the caller returning true).
  std::vector<Blocked> snap;
  {
    util::MutexLock lock(mutex_);
    snap = blocked_;
  }
  // adj[r] = ranks r is waiting on.  A recv edge only counts while the
  // awaited message is absent; a barrier edge points at every rank that has
  // not (yet) parked in the same barrier.
  std::vector<std::vector<int>> adj(snap.size());
  for (int r = 0; r < num_ranks_; ++r) {
    const Blocked& b = snap[static_cast<std::size_t>(r)];
    if (!b.active) continue;
    if (b.barrier) {
      for (int q = 0; q < num_ranks_; ++q) {
        if (q == r) continue;
        const Blocked& other = snap[static_cast<std::size_t>(q)];
        if (!(other.active && other.barrier)) adj[static_cast<std::size_t>(r)].push_back(q);
      }
    } else if (!mailbox_has(r, b.peer, b.tag)) {
      adj[static_cast<std::size_t>(r)].push_back(b.peer);
    }
  }
  // Cycle search restricted to blocked ranks: an edge into a non-blocked
  // rank can still resolve (that rank is running), so it ends the path.
  std::vector<int> color(snap.size(), 0);  // 0 white, 1 on-stack, 2 done
  std::vector<int> stack;
  std::vector<int> cycle;
  std::function<bool(int)> dfs = [&](int r) {
    if (!snap[static_cast<std::size_t>(r)].active) return false;
    color[static_cast<std::size_t>(r)] = 1;
    stack.push_back(r);
    for (int q : adj[static_cast<std::size_t>(r)]) {
      if (color[static_cast<std::size_t>(q)] == 1) {
        auto it = std::find(stack.begin(), stack.end(), q);
        cycle.assign(it, stack.end());
        return true;
      }
      if (color[static_cast<std::size_t>(q)] == 0 && dfs(q)) return true;
    }
    stack.pop_back();
    color[static_cast<std::size_t>(r)] = 2;
    return false;
  };
  for (int r = 0; r < num_ranks_; ++r) {
    if (color[static_cast<std::size_t>(r)] == 0 && dfs(r)) break;
  }
  if (cycle.empty()) return;

  Violation v;
  v.kind = ViolationKind::kDeadlock;
  v.ranks = cycle;
  {
    util::MutexLock lock(mutex_);
    for (int r = 0; r < num_ranks_; ++r) {
      if (blocked_[static_cast<std::size_t>(r)].active) {
        v.blocked.push_back(blocked_trace_locked(r));
      }
    }
  }
  std::ostringstream msg;
  msg << "cross-rank deadlock: cycle";
  for (int r : cycle) msg << ' ' << r;
  msg << " in the wait-for graph (" << v.blocked.size() << " rank(s) blocked)";
  v.message = msg.str();
  throw_violation(std::move(v));
}

void ProtocolChecker::note_unmatched_send(int src, int dst, int tag, std::uint64_t count,
                                          std::uint64_t bytes) {
  util::MutexLock lock(mutex_);
  Violation v;
  v.kind = ViolationKind::kUnmatchedSend;
  v.src = src;
  v.dst = dst;
  v.tag = tag;
  v.count = count;
  v.bytes = bytes;
  std::ostringstream msg;
  msg << count << " message(s), " << bytes << " byte(s) from rank " << src
      << " still queued in rank " << dst << "'s mailbox (tag " << tag
      << ") at end of run: send with no matching recv";
  v.message = msg.str();
  v.ranks = {src, dst};
  deferred_.violations.push_back(std::move(v));
}

CheckReport ProtocolChecker::take_final_report() {
  util::MutexLock lock(mutex_);
  CheckReport out = std::move(deferred_);
  deferred_ = CheckReport{};
  return out;
}

std::uint64_t ProtocolChecker::clock(int rank) const {
  util::MutexLock lock(mutex_);
  return vc_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(rank)];
}

void throw_collective_abandoned(int rank, std::string_view site, int exited) {
  Violation v;
  v.kind = ViolationKind::kFenceMismatch;
  v.src = exited;
  v.dst = rank;
  std::ostringstream msg;
  msg << "rank " << rank << " waits in " << site << ", which rank " << exited
      << " returned without reaching";
  v.message = msg.str();
  v.ranks = {rank, exited};
  throw_violation(std::move(v));
}

void check_epoch_access(bool epoch_open, bool store, int rank, int window) {
  if (epoch_open == store) return;
  Violation v;
  v.kind = ViolationKind::kEpochViolation;
  v.src = rank;
  v.tag = window;
  std::ostringstream msg;
  msg << "rank " << rank << ": window " << window
      << (store ? " store outside an open epoch" : " region read inside an open epoch")
      << (store ? " (no fence opened it)" : " (peers may still store; close it with a fence)");
  v.message = msg.str();
  v.ranks = {rank};
  throw_violation(std::move(v));
}

void validate_window_blocks(std::vector<WindowBlock>& blocks, std::uint64_t elems, int dest,
                            int window, int region) {
  std::sort(blocks.begin(), blocks.end(),
            [](const WindowBlock& a, const WindowBlock& b) { return a.begin < b.begin; });
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const WindowBlock& b = blocks[i];
    const bool outside = b.begin > elems || b.count > elems - b.begin;
    const bool overlap = i + 1 < blocks.size() && blocks[i + 1].begin < b.begin + b.count;
    if (!outside && !overlap) continue;
    Violation v;
    v.kind = ViolationKind::kOffsetOverlap;
    v.src = b.src;
    v.dst = dest;
    v.tag = window;
    v.detail_a = b.begin;
    v.detail_b = b.count;
    std::ostringstream msg;
    msg << "window " << window << " region " << region << " on rank " << dest << ": rank "
        << b.src << "'s block [" << b.begin << ", " << b.begin + b.count << ")";
    if (outside) {
      msg << " lies outside the region's " << elems << " slots";
      v.ranks = {b.src, dest};
    } else {
      const WindowBlock& next = blocks[i + 1];
      msg << " overlaps rank " << next.src << "'s block [" << next.begin << ", "
          << next.begin + next.count << ")";
      v.ranks = {b.src, next.src, dest};
    }
    v.message = msg.str();
    throw_violation(std::move(v));
  }
}

void throw_unwritten_slot(int src, int dest, int window, int region, std::uint64_t slot,
                          std::uint64_t unwritten) {
  Violation v;
  v.kind = ViolationKind::kUnwrittenSlot;
  v.src = src;
  v.dst = dest;
  v.tag = window;
  v.count = unwritten;
  v.detail_a = slot;
  std::ostringstream msg;
  msg << "window " << window << " region " << region << " on rank " << dest << ": slot "
      << slot;
  if (src >= 0) {
    msg << " (in rank " << src << "'s block)";
  } else {
    msg << " (in no declared block)";
  }
  msg << " was never written when the epoch closed; " << unwritten << " such slot(s)";
  v.message = msg.str();
  v.ranks = src >= 0 ? std::vector<int>{src, dest} : std::vector<int>{dest};
  throw_violation(std::move(v));
}

void validate_block_offsets(std::span<const std::uint64_t> offsets, int rank,
                            const char* which) {
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] <= offsets[i + 1]) continue;
    Violation v;
    v.kind = ViolationKind::kOffsetOverlap;
    v.dst = rank;
    v.detail_a = i;
    v.detail_b = offsets[i];
    std::ostringstream msg;
    msg << "rank " << rank << ": " << which << " offsets not monotone at index " << i
        << " (" << offsets[i] << " > " << offsets[i + 1]
        << "): send blocks would overlap";
    v.message = msg.str();
    v.ranks = {rank};
    throw_violation(std::move(v));
  }
}

}  // namespace metaprep::check
