#include "mpsim/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "check/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/session.hpp"

namespace metaprep::mpsim {

namespace {

/// The comm Error of a rank woken because another rank's failure poisoned
/// the world.  It is a consequence, so run() reports the other failure.
class PoisonedError : public util::Error {
 public:
  explicit PoisonedError(const std::string& where)
      : util::Error(util::ErrorCategory::kComm, "mpsim: world poisoned by a failed rank " + where) {}
};

}  // namespace

/// What the ranks of one window share: each rank's exposed regions, which
/// ranks may still store (the collective free waits on it), and under the
/// checker the blocks each epoch declared into each rank's regions.
struct WindowShared {
  explicit WindowShared(int num_ranks)
      : regions(static_cast<std::size_t>(num_ranks)),
        storing(static_cast<std::size_t>(num_ranks), 0),
        blocks(static_cast<std::size_t>(num_ranks)) {}

  util::Mutex mutex;
  util::CondVar cv;
  std::vector<std::vector<Window::Region>> regions GUARDED_BY(mutex);  ///< [rank]
  /// [rank] 1 from the opening fence until the rank closes the epoch or
  /// unwinds: its threads may store into any rank's regions.
  std::vector<char> storing GUARDED_BY(mutex);
  /// [dest] the blocks the closing epoch declared into dest's regions, as
  /// (region, block) pairs.
  std::vector<std::vector<std::pair<int, check::WindowBlock>>> blocks GUARDED_BY(mutex);
  int attached = 0;  ///< guarded by World::windows_mutex_
};

int Comm::size() const noexcept { return world_->size(); }

World::World(int num_ranks, CostModelParams cost) : num_ranks_(num_ranks), cost_(cost) {
  if (num_ranks < 1) throw std::invalid_argument("World: num_ranks must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  sim_comm_seconds_.assign(static_cast<std::size_t>(num_ranks), 0.0);
  traffic_bytes_.assign(static_cast<std::size_t>(num_ranks) * static_cast<std::size_t>(num_ranks),
                        0);
  traffic_msgs_.assign(static_cast<std::size_t>(num_ranks) * static_cast<std::size_t>(num_ranks),
                       0);
  barrier_flows_.assign(static_cast<std::size_t>(num_ranks), 0);
  windows_created_.assign(static_cast<std::size_t>(num_ranks), 0);
  if (check::enabled()) checker_ = std::make_unique<check::ProtocolChecker>(num_ranks);
}

World::~World() = default;

void World::run(const std::function<void(Comm&)>& fn) {
  // Clear any poison left by a previous failed run.
  for (auto& mb : mailboxes_) {
    util::MutexLock lock(mb->mutex);
    mb->poisoned = false;
    mb->queues.clear();
  }
  {
    util::MutexLock lock(barrier_mutex_);
    barrier_poisoned_ = false;
    barrier_count_ = 0;
    barrier_exited_ = 0;
    first_exited_ = -1;
  }
  {
    util::MutexLock lock(windows_mutex_);
    pending_windows_.clear();
    std::fill(windows_created_.begin(), windows_created_.end(), 0);
  }
  if (checker_) checker_->reset();

  // The failure run() reports: the first one that is not a rank woken by
  // the poison another failure set.
  std::exception_ptr first_exception;
  bool first_is_poison = false;
  util::Mutex exception_mutex;
  auto body = [&](int rank) {
    Comm comm(*this, rank);
    try {
      fn(comm);
      {
        util::MutexLock lock(barrier_mutex_);
        if (barrier_exited_++ == 0) first_exited_ = rank;
      }
      barrier_cv_.notify_all();
    } catch (...) {
      bool poison = false;
      try {
        throw;
      } catch (const PoisonedError&) {
        poison = true;
      } catch (...) {
      }
      {
        util::MutexLock lock(exception_mutex);
        if (!first_exception || (first_is_poison && !poison)) {
          first_exception = std::current_exception();
          first_is_poison = poison;
        }
      }
      poison_all();
    }
  };

  if (num_ranks_ == 1) {
    body(0);
  } else {
    // Rank threads are spawned fresh per run, so they inherit nothing:
    // install the caller's session context (per-session obs/check/log
    // overrides) in each one so a World driven from a pipeline session
    // records into that session's sinks.  Rank 0 runs on the caller's
    // thread, which already has the context.
    const util::SessionContext ctx = util::SessionContext::capture();
    auto rank_body = [&, ctx](int rank) {
      const util::ScopedSessionContext bind(ctx);
      body(rank);
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_ranks_ - 1));
    for (int rank = 1; rank < num_ranks_; ++rank) threads.emplace_back(rank_body, rank);
    body(0);
    for (auto& t : threads) t.join();
  }
  if (first_exception) std::rethrow_exception(first_exception);
  finalize_check();
}

void World::finalize_check() {
  if (!checker_) return;
  // Every rank has returned cleanly; anything still queued is a send that
  // never found its recv.
  for (int dest = 0; dest < num_ranks_; ++dest) {
    Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dest)];
    util::MutexLock lock(mb.mutex);
    for (const auto& [key, queue] : mb.queues) {
      if (queue.empty()) continue;
      std::uint64_t bytes = 0;
      for (const Message& m : queue) bytes += m.payload.size();
      checker_->note_unmatched_send(key.first, dest, key.second, queue.size(), bytes);
    }
  }
  check::CheckReport report = checker_->take_final_report();
  if (!report.empty()) throw check::CheckError(std::move(report));
}

bool World::mailbox_has(int dest, int src, int tag) {
  if (dest < 0 || dest >= num_ranks_) return true;
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dest)];
  // Bare try_lock/unlock rather than a scoped lock: the analysis proves the
  // branch-on-try_lock pattern directly, and nothing in between can throw
  // (map::find with a nothrow comparator, plain reads).
  if (!mb.mutex.try_lock()) return true;  // contended: owner is active, no edge
  const bool has = mb.ready({src, tag});  // poisoned counts as "has": about to
                                          // wake with comm_error, no edge
  mb.mutex.unlock();
  return has;
}

void World::poison_all() {
  for (auto& mb : mailboxes_) {
    {
      util::MutexLock lock(mb->mutex);
      mb->poisoned = true;
    }
    mb->cv.notify_all();
  }
  // Ranks parked inside barrier() watch barrier_poisoned_, not the mailbox
  // flags; without it a failure elsewhere would leave them waiting forever
  // on a phase change that can no longer happen.
  {
    util::MutexLock lock(barrier_mutex_);
    barrier_poisoned_ = true;
  }
  barrier_cv_.notify_all();
}

void World::deliver(int src, int dest, int tag, const void* data, std::size_t bytes) {
  {
    util::FaultPlan& plan = util::FaultPlan::global();
    if (plan.armed() && plan.inject_comm_delay()) {
      static thread_local obs::CounterHandle m_delays;
      m_delays.of(obs::metrics(), "mpsim.deliveries_delayed").add(1);
    }
  }
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dest)];
  Message msg;
  msg.payload.resize(bytes);
  // memcpy with a null pointer is undefined even for 0 bytes, and an empty
  // payload (or caller buffer) may have no storage.
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);
  // Stamp-then-push is safe: a rank's sends to one (dest, tag) stream are
  // issued from its own thread, so stamp order equals enqueue order.
  if (checker_) msg.seq = checker_->on_send(src, dest, tag, bytes);
  // Flow markers pair this enqueue with the matching take() on the receiver
  // thread; the critical-path walker (obs/attr) turns them into send->recv
  // DAG edges.  One relaxed load when tracing is off; self-sends need no
  // edge (same-thread program order already covers them).
  if (src != dest) {
    obs::TraceSession& tr = obs::TraceSession::current();
    if (tr.enabled()) {
      msg.flow = next_flow_id_.fetch_add(1, std::memory_order_relaxed);
      tr.flow_marker("msg", msg.flow, /*is_send=*/true);
    }
  }
  {
    util::MutexLock lock(mb.mutex);
    mb.queues[{src, tag}].push_back(std::move(msg));
  }
  mb.cv.notify_all();
  // Simulated interconnect time is charged to the receiver when the message
  // crosses "the wire" (self-sends are free: MPI implementations short-cut
  // them through shared memory, and the paper's stage-0 block is a local
  // copy).
  if (src != dest) charge(src, dest, bytes);
}

void World::charge(int src, int dest, std::uint64_t bytes) {
  {
    util::MutexLock lock(cost_mutex_);
    sim_comm_seconds_[static_cast<std::size_t>(dest)] +=
        cost_.latency_s + static_cast<double>(bytes) / cost_.link_bandwidth_Bps;
    traffic_bytes_[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_ranks_) +
                   static_cast<std::size_t>(dest)] += bytes;
    traffic_msgs_[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_ranks_) +
                  static_cast<std::size_t>(dest)] += 1;
    ++message_count_;
  }
  // Cross-rank edge metrics: same quantities as the traffic matrix, but
  // accumulated process-wide across Worlds so a whole bench run snapshots
  // into one metrics file.
  static thread_local obs::CounterHandle m_msgs;
  static thread_local obs::CounterHandle m_bytes;
  static thread_local obs::HistogramHandle m_size;
  obs::MetricsRegistry& reg = obs::metrics();
  m_msgs.of(reg, "mpsim.messages_total").add(1);
  m_bytes.of(reg, "mpsim.bytes_total").add(bytes);
  m_size.of(reg, "mpsim.message_bytes").record(bytes);
}

World::Message World::take(int src, int dest, int tag) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dest)];
  util::MutexLock lock(mb.mutex);
  const std::pair<int, int> key{src, tag};
  if (checker_ && !mb.ready(key)) {
    // Checked blocking path: register as blocked, poll with a short timeout,
    // and probe the wait-for graph on each timeout so a cross-rank deadlock
    // becomes a structured CheckError instead of a hung test run.  Lock
    // order is mailbox -> checker everywhere; the deadlock probe touches
    // mailboxes only through try_lock, outside the checker mutex.
    checker_->block_recv(dest, src, tag, "recv");
    try {
      while (!mb.ready(key)) {
        if (mb.cv.wait_for(mb.mutex, lock, std::chrono::milliseconds(10)) ==
            std::cv_status::timeout) {
          lock.Unlock();
          checker_->detect_deadlock(
              [this](int d, int s, int t) { return mailbox_has(d, s, t); });
          lock.Lock();
        }
      }
    } catch (...) {
      checker_->unblock(dest);
      throw;
    }
    checker_->unblock(dest);
  } else if (!checker_) {
    while (!mb.ready(key)) mb.cv.wait(mb.mutex, lock);
  }
  if (mb.poisoned) throw PoisonedError("(recv)");
  auto it = mb.queues.find(key);
  Message msg = std::move(it->second.front());
  it->second.pop_front();
  lock.Unlock();
  // Verify mailbox FIFO and join the sender's vector clock.  Safe outside
  // the mailbox lock: this rank's thread is the stream's only consumer.
  if (checker_) checker_->on_recv(src, dest, tag, msg.seq);
  // Close the flow edge on the receiver thread (see the deliver() marker).
  if (msg.flow != 0) {
    obs::TraceSession& tr = obs::TraceSession::current();
    if (tr.enabled()) tr.flow_marker("msg", msg.flow, /*is_send=*/false);
  }
  return msg;
}

void Comm::send(int dest, int tag, const void* data, std::size_t bytes) {
  if (dest < 0 || dest >= size())
    throw util::comm_error("mpsim send: bad dest rank " + std::to_string(dest));
  // Lost-message handling of a reliable transport: a delivery attempt that
  // the FaultPlan drops throws a transient comm Error and is retransmitted
  // with backoff.  The message enqueues exactly once (the drop fires before
  // the mailbox is touched), so receivers never see duplicates.
  static const util::RetryPolicy kSendRetryPolicy{};
  util::with_retries(
      kSendRetryPolicy,
      [&] {
        util::FaultPlan& plan = util::FaultPlan::global();
        if (plan.armed() && plan.inject_comm_drop())
          throw util::comm_error("injected message drop", /*transient=*/true);
        world_->deliver(rank_, dest, tag, data, bytes);
      },
      [](int /*attempt*/, const util::Error& /*error*/) {
        static thread_local obs::CounterHandle m_retries;
        m_retries.of(obs::metrics(), "mpsim.send_retries").add(1);
      });
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes) {
  World::Message msg = world_->take(src, rank_, tag);
  if (msg.payload.size() != bytes)
    throw util::comm_error("mpsim recv: size mismatch (got " +
                           std::to_string(msg.payload.size()) + ", expected " +
                           std::to_string(bytes) + ")");
  if (bytes > 0) std::memcpy(data, msg.payload.data(), bytes);
}

std::vector<std::byte> Comm::recv_any_size(int src, int tag) {
  return world_->take(src, rank_, tag).payload;
}

void Comm::barrier() { world_->collective(rank_, "barrier", {}); }

void World::collective(int rank, const std::string& site,
                       const std::function<void()>& on_complete) {
  if (num_ranks_ == 1) {
    if (on_complete) on_complete();
    return;
  }
  check::ProtocolChecker* checker = checker_.get();
  obs::TraceSession& tr = obs::TraceSession::current();
  util::MutexLock lock(barrier_mutex_);
  if (barrier_poisoned_) throw PoisonedError("(before " + site + ")");
  if (checker) checker->on_barrier_arrive(rank, site);
  const std::uint64_t phase = barrier_phase_;
  if (++barrier_count_ == num_ranks_) {
    if (on_complete) on_complete();
    // The last arrival releases every waiter: in a traced run that is a
    // dependency edge from this rank to each of them.
    if (tr.enabled()) {
      for (int r = 0; r < num_ranks_; ++r) {
        if (r == rank) continue;
        const std::uint64_t id = next_flow_id_.fetch_add(1, std::memory_order_relaxed);
        barrier_flows_[static_cast<std::size_t>(r)] = id;
        tr.flow_marker("collective", id, /*is_send=*/true);
      }
    }
    barrier_count_ = 0;
    ++barrier_phase_;
    barrier_cv_.notify_all();
    return;
  }
  if (checker) {
    checker->block_barrier(rank, site);
    try {
      while (!collective_over(phase)) {
        if (barrier_cv_.wait_for(barrier_mutex_, lock, std::chrono::milliseconds(10)) ==
            std::cv_status::timeout) {
          lock.Unlock();
          checker->detect_deadlock([this](int d, int s, int t) { return mailbox_has(d, s, t); });
          lock.Lock();
        }
      }
    } catch (...) {
      checker->unblock(rank);
      throw;
    }
    checker->unblock(rank);
  } else {
    while (!collective_over(phase)) barrier_cv_.wait(barrier_mutex_, lock);
  }
  if (barrier_phase_ == phase) {
    if (barrier_poisoned_) throw PoisonedError("(in " + site + ")");
    if (checker) check::throw_collective_abandoned(rank, site, first_exited_);
    throw util::comm_error("mpsim: rank " + std::to_string(first_exited_) +
                           " returned without reaching " + site);
  }
  const std::uint64_t flow = std::exchange(barrier_flows_[static_cast<std::size_t>(rank)], 0);
  if (flow != 0 && tr.enabled()) tr.flow_marker("collective", flow, /*is_send=*/false);
}

void Comm::broadcast(void* data, std::size_t bytes, int root) {
  if (size() == 1) return;
  constexpr int kBcastTag = -424242;
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, kBcastTag, data, bytes);
    }
  } else {
    recv(root, kBcastTag, data, bytes);
  }
}

void Comm::scatterv(const void* sendbuf, std::span<const std::uint64_t> offsets,
                    std::span<const std::uint64_t> lengths, void* recvbuf, int root) {
  constexpr int kScatterTag = -454545;
  const int P = size();
  if (offsets.size() != static_cast<std::size_t>(P) ||
      lengths.size() != static_cast<std::size_t>(P))
    throw util::comm_error("scatterv: offsets/lengths must have P entries");
  if (rank_ == root) {
    const auto* sbytes = static_cast<const std::byte*>(sendbuf);
    std::uint64_t cross_bytes = 0;
    for (int q = 0; q < P; ++q) {
      const std::uint64_t len = lengths[static_cast<std::size_t>(q)];
      if (len == 0) continue;
      const std::byte* slice = sbytes + offsets[static_cast<std::size_t>(q)];
      if (q == root) {
        std::memcpy(recvbuf, slice, len);
      } else {
        send(q, kScatterTag, slice, len);
        cross_bytes += len;
      }
    }
    if (cross_bytes > 0) {
      static thread_local obs::CounterHandle m_scatter;
      m_scatter.of(obs::metrics(), "mpsim.scatter_bytes").add(cross_bytes);
    }
  } else if (lengths[static_cast<std::size_t>(rank_)] > 0) {
    recv(root, kScatterTag, recvbuf, lengths[static_cast<std::size_t>(rank_)]);
  }
}

void Comm::alltoallv_staged(const void* sendbuf, std::span<const std::uint64_t> send_offsets,
                            void* recvbuf, std::span<const std::uint64_t> recv_offsets,
                            int tag) {
  const int P = size();
  if (send_offsets.size() != static_cast<std::size_t>(P) + 1 ||
      recv_offsets.size() != static_cast<std::size_t>(P) + 1)
    throw std::invalid_argument("alltoallv_staged: offset arrays must have P+1 entries");
  if (world_->checker_) {
    check::validate_block_offsets(send_offsets, rank_, "alltoallv_staged send");
    check::validate_block_offsets(recv_offsets, rank_, "alltoallv_staged recv");
  }

  const auto* sbytes = static_cast<const std::byte*>(sendbuf);
  auto* rbytes = static_cast<std::byte*>(recvbuf);

  // Stage 0: local block, plain copy (src == dest).
  const std::uint64_t local_len = send_offsets[static_cast<std::size_t>(rank_) + 1] -
                                  send_offsets[static_cast<std::size_t>(rank_)];
  if (local_len > 0)
    std::memcpy(rbytes + recv_offsets[static_cast<std::size_t>(rank_)],
                sbytes + send_offsets[static_cast<std::size_t>(rank_)], local_len);

  // Stages 1..P-1: in stage i, rank p sends to (p+i) mod P and receives
  // from (p-i+P) mod P (paper §3.3).
  for (int stage = 1; stage < P; ++stage) {
    const int dest = (rank_ + stage) % P;
    const int src = (rank_ - stage + P) % P;
    const std::uint64_t send_begin = send_offsets[static_cast<std::size_t>(dest)];
    const std::uint64_t send_len = send_offsets[static_cast<std::size_t>(dest) + 1] - send_begin;
    send(dest, tag + stage, sbytes + send_begin, send_len);
    const std::uint64_t recv_begin = recv_offsets[static_cast<std::size_t>(src)];
    const std::uint64_t recv_len = recv_offsets[static_cast<std::size_t>(src) + 1] - recv_begin;
    recv(src, tag + stage, rbytes + recv_begin, recv_len);
  }
}

std::shared_ptr<WindowShared> World::attach_window(int rank, int& id) {
  util::MutexLock lock(windows_mutex_);
  id = windows_created_[static_cast<std::size_t>(rank)]++;
  auto it = pending_windows_.find(id);
  if (it == pending_windows_.end()) {
    it = pending_windows_.emplace(id, std::make_shared<WindowShared>(num_ranks_)).first;
  }
  std::shared_ptr<WindowShared> shared = it->second;
  if (++shared->attached == num_ranks_) pending_windows_.erase(it);
  return shared;
}

Window::Window(Comm& comm, std::vector<Region> local)
    : world_(comm.world_),
      rank_(comm.rank_),
      uncaught_(std::uncaught_exceptions()),
      local_(std::move(local)),
      declared_(static_cast<std::size_t>(world_->size()) * local_.size(), 0) {
  shared_ = world_->attach_window(rank_, id_);
  util::MutexLock lock(shared_->mutex);
  shared_->regions[static_cast<std::size_t>(rank_)] = local_;
}

Window::~Window() {
  WindowShared& sh = *shared_;
  util::MutexLock lock(sh.mutex);
  sh.storing[static_cast<std::size_t>(rank_)] = 0;
  sh.cv.notify_all();
  auto storing = [](const std::vector<char>& flags) {
    return std::find(flags.begin(), flags.end(), 1) != flags.end();
  };
  if (!storing(sh.storing)) return;
  if (std::uncaught_exceptions() > uncaught_) {
    // Unwinding mid-epoch fails the world now, as the throw out of run()
    // will: a peer blocked in a collective that waits for this rank wakes,
    // unwinds and stops storing.  Peers still sweeping finish first.
    lock.Unlock();
    world_->poison_all();
    lock.Lock();
  }
  while (storing(sh.storing)) sh.cv.wait(sh.mutex, lock);
}

std::string Window::site() const { return "fence of window " + std::to_string(id_); }

void Window::fence() {
  if (open_) {
    close_epoch();
    return;
  }
  WindowShared& sh = *shared_;
  world_->collective(
      rank_, site(),
      [&sh] {
        util::MutexLock lock(sh.mutex);
        std::fill(sh.storing.begin(), sh.storing.end(), 1);
      });
  {
    util::MutexLock lock(sh.mutex);
    peers_ = sh.regions;
  }
  std::fill(declared_.begin(), declared_.end(), 0);
  blocks_.clear();
  open_ = true;
}

void Window::close_epoch() {
  const int P = world_->size();
  WindowShared& sh = *shared_;
  {
    util::MutexLock lock(sh.mutex);
    sh.storing[static_cast<std::size_t>(rank_)] = 0;
    for (const Block& b : blocks_) {
      sh.blocks[static_cast<std::size_t>(b.dest)].emplace_back(
          b.region, check::WindowBlock{rank_, b.begin, b.count});
    }
  }
  sh.cv.notify_all();
  // The staged all-to-all's messages, region by region and segment by
  // segment: in stage i this rank "sends" (rank + i) mod P what it declared
  // there.
  const std::size_t nregions = local_.size();
  for (std::size_t r = 0; r < nregions; ++r) {
    for (std::size_t a = 0; a < local_[r].segments.size(); ++a) {
      for (int stage = 1; stage < P; ++stage) {
        const auto d = static_cast<std::size_t>((rank_ + stage) % P);
        world_->charge(rank_, static_cast<int>(d),
                       declared_[d * nregions + r] * peers_[d][r].segments[a].elem_bytes);
      }
    }
  }
  open_ = false;
  world_->collective(rank_, site(), {});
  if (world_->checker_) verify_closed_epoch();
}

void Window::verify_closed_epoch() {
  std::vector<std::vector<check::WindowBlock>> blocks(local_.size());
  {
    WindowShared& sh = *shared_;
    util::MutexLock lock(sh.mutex);
    auto& mine = sh.blocks[static_cast<std::size_t>(rank_)];
    for (const auto& [r, b] : mine) blocks[static_cast<std::size_t>(r)].push_back(b);
    mine.clear();
  }
  for (std::size_t r = 0; r < local_.size(); ++r) {
    const Region& reg = local_[r];
    auto& rb = blocks[r];
    check::validate_window_blocks(rb, reg.elems, rank_, id_, static_cast<int>(r));
    std::uint64_t unwritten = 0;
    std::uint64_t first = 0;
    for (std::uint64_t i = 0; i < reg.elems; ++i) {
      const bool poisoned = std::all_of(reg.segments.begin(), reg.segments.end(),
                                        [&](const Segment& seg) {
                                          return check::is_poisoned(
                                              static_cast<const std::byte*>(seg.base) +
                                                  i * seg.elem_bytes,
                                              seg.elem_bytes);
                                        });
      if (poisoned && unwritten++ == 0) first = i;
    }
    if (unwritten == 0) continue;
    // The blocks are sorted and disjoint: the last one starting at or
    // before the slot is the only one that can hold it.
    int src = -1;
    auto it = std::upper_bound(rb.begin(), rb.end(), first,
                               [](std::uint64_t at, const check::WindowBlock& b) {
                                 return at < b.begin;
                               });
    if (it != rb.begin() && first < std::prev(it)->begin + std::prev(it)->count) {
      src = std::prev(it)->src;
    }
    check::throw_unwritten_slot(src, rank_, id_, static_cast<int>(r), first, unwritten);
  }
}

void Window::declare(int dest, int region, std::uint64_t begin, std::uint64_t count) {
  if (world_->checker_) {
    check::check_epoch_access(open_, /*store=*/true, rank_, id_);
    blocks_.push_back({dest, region, begin, count});
  }
  declared_[static_cast<std::size_t>(dest) * local_.size() + static_cast<std::size_t>(region)] +=
      count;
}

void* Window::target(int dest, int region, int segment) const {
  if (world_->checker_) check::check_epoch_access(open_, /*store=*/true, rank_, id_);
  return peers_[static_cast<std::size_t>(dest)][static_cast<std::size_t>(region)]
      .segments[static_cast<std::size_t>(segment)]
      .base;
}

const void* Window::local(int region, int segment) const {
  if (world_->checker_) check::check_epoch_access(open_, /*store=*/false, rank_, id_);
  return local_[static_cast<std::size_t>(region)].segments[static_cast<std::size_t>(segment)].base;
}

double World::simulated_comm_seconds(int rank) const {
  util::MutexLock lock(cost_mutex_);
  return sim_comm_seconds_[static_cast<std::size_t>(rank)];
}

double World::max_simulated_comm_seconds() const {
  util::MutexLock lock(cost_mutex_);
  double mx = 0.0;
  for (double v : sim_comm_seconds_) mx = std::max(mx, v);
  return mx;
}

std::vector<std::uint64_t> World::traffic_matrix() const {
  util::MutexLock lock(cost_mutex_);
  return traffic_bytes_;
}

std::vector<std::uint64_t> World::message_matrix() const {
  util::MutexLock lock(cost_mutex_);
  return traffic_msgs_;
}

std::uint64_t World::total_traffic_bytes() const {
  util::MutexLock lock(cost_mutex_);
  std::uint64_t total = 0;
  for (auto v : traffic_bytes_) total += v;
  return total;
}

std::uint64_t World::message_count() const {
  util::MutexLock lock(cost_mutex_);
  return message_count_;
}

}  // namespace metaprep::mpsim
