#include "mpsim/comm.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "check/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/session.hpp"

namespace metaprep::mpsim {

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
  }
  if (checker_) checker_->reset();

  std::exception_ptr first_exception;
  util::Mutex exception_mutex;
  auto body = [&](int rank) {
    Comm comm(*this, rank);
    try {
      fn(comm);
    } catch (...) {
      {
        util::MutexLock lock(exception_mutex);
        if (!first_exception) first_exception = std::current_exception();
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
  if (src != dest) {
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
  if (mb.poisoned) throw util::comm_error("mpsim: world poisoned by a failed rank");
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

void Comm::barrier() {
  if (size() == 1) return;
  check::ProtocolChecker* checker = world_->checker_.get();
  util::MutexLock lock(world_->barrier_mutex_);
  if (world_->barrier_poisoned_)
    throw util::comm_error("mpsim: world poisoned by a failed rank");
  if (checker) checker->on_barrier_arrive(rank_);
  const std::uint64_t phase = world_->barrier_phase_;
  if (++world_->barrier_count_ == size()) {
    world_->barrier_count_ = 0;
    ++world_->barrier_phase_;
    world_->barrier_cv_.notify_all();
  } else if (checker) {
    checker->block_barrier(rank_);
    try {
      while (world_->barrier_phase_ == phase && !world_->barrier_poisoned_) {
        if (world_->barrier_cv_.wait_for(world_->barrier_mutex_, lock,
                                         std::chrono::milliseconds(10)) ==
            std::cv_status::timeout) {
          lock.Unlock();
          checker->detect_deadlock(
              [w = world_](int d, int s, int t) { return w->mailbox_has(d, s, t); });
          lock.Lock();
        }
      }
    } catch (...) {
      checker->unblock(rank_);
      throw;
    }
    checker->unblock(rank_);
    if (world_->barrier_phase_ == phase && world_->barrier_poisoned_)
      throw util::comm_error("mpsim: world poisoned while in barrier");
  } else {
    // A rank failing elsewhere can never advance the phase, so the wait
    // also watches the poison flag (set by poison_all) to avoid hanging.
    while (world_->barrier_phase_ == phase && !world_->barrier_poisoned_)
      world_->barrier_cv_.wait(world_->barrier_mutex_, lock);
    if (world_->barrier_phase_ == phase && world_->barrier_poisoned_)
      throw util::comm_error("mpsim: world poisoned while in barrier");
  }
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
