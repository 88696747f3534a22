// mpsim: an in-process message-passing substrate standing in for MPI.
//
// METAPREP uses MPI for distributed memory parallelism (1 task per node) and
// OpenMP within a task.  This container has no MPI and no network, so we run
// each "rank" on its own thread.  There are two transfer models: blocking,
// buffered point-to-point (send copies the payload into the destination
// mailbox and returns; recv blocks until its (src, tag) message is there),
// with the collectives the pipeline and its benchmarks call (barrier,
// broadcast, scatterv and the staged all-to-all); and one-sided stores
// into a peer's exposed memory through a Window (MPI-3 shared-memory
// windows with fence epochs), which KmerGen-Comm uses.  The pipeline code is
// written against this interface exactly as it would be against MPI: ranks
// own disjoint state, exchange k-mer tuples through the paper's custom
// P-stage All-to-all (§3.3: "In stage i, task p sends tuples to task (p+i)
// mod P"), and merge components pairwise over ⌈log P⌉ rounds.
//
// A CostModel accumulates *simulated* interconnect seconds per rank
// (latency + bytes / link bandwidth, defaults from the paper's Edison
// measurements) so the scaling benches can report modeled multi-node
// communication time alongside measured compute time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "util/sync.hpp"

namespace metaprep::check {
class ProtocolChecker;
}

namespace metaprep::mpsim {

/// Interconnect parameters; defaults follow the paper's Edison numbers
/// (§4: "point-to-point link bandwidth of large messages is 8 GB/s").
struct CostModelParams {
  double latency_s = 2e-6;
  double link_bandwidth_Bps = 8e9;
};

class World;
class Window;
struct WindowShared;

/// Per-rank communicator handle, valid only inside World::run.
class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Blocking-send semantics of a buffered MPI send: copies @p bytes into
  /// the destination mailbox and returns immediately, so the caller may
  /// reuse or release the send buffer at once.  Messages from one rank to
  /// one (dest, tag) arrive in send order.  A delivery the FaultPlan drops
  /// is retransmitted before send returns and never enqueues twice.
  void send(int dest, int tag, const void* data, std::size_t bytes);

  /// Blocking receive of the message (src, tag).  Message sizes are always
  /// known in advance in METAPREP (precomputed from the index tables), so
  /// the caller passes the expected byte count; a mismatch throws.
  void recv(int src, int tag, void* data, std::size_t bytes);

  /// Receive without a size expectation (returns the payload).
  std::vector<std::byte> recv_any_size(int src, int tag);

  /// Sense-reversing barrier over all ranks.
  void barrier();

  /// Broadcast @p bytes from @p root into every rank's @p data.
  void broadcast(void* data, std::size_t bytes, int root);

  /// Scatter per-rank slices of @p root's buffer: rank q receives the byte
  /// range [offsets[q], offsets[q] + lengths[q]) of @p sendbuf into its
  /// @p recvbuf.  Unlike MPI_Scatterv, slices may overlap — the label
  /// scatter of the merge tail ships each rank the read-ID interval its
  /// chunks cover, and paired-end chunk tables interleave those intervals.
  /// Both arrays have P entries and must agree on every rank (they are
  /// derived from the shared index tables); @p sendbuf is read only on
  /// root, and zero-length slices ship nothing.  Cross-rank bytes charge
  /// the CostModel/traffic matrix as usual and accumulate in the
  /// mpsim.scatter_bytes counter.
  void scatterv(const void* sendbuf, std::span<const std::uint64_t> offsets,
                std::span<const std::uint64_t> lengths, void* recvbuf, int root);

  /// The paper's custom staged All-to-all (§3.3).  Rank p's send buffer
  /// holds the block for destination d at byte range
  /// [send_offsets[d], send_offsets[d+1]); the block from source s is
  /// received at [recv_offsets[s], recv_offsets[s+1]).  Both offset arrays
  /// have P+1 entries and are precomputed from the FASTQPart table, which is
  /// how METAPREP avoids MPI_Alltoallv's 32-bit count limitation.
  void alltoallv_staged(const void* sendbuf, std::span<const std::uint64_t> send_offsets,
                        void* recvbuf, std::span<const std::uint64_t> recv_offsets, int tag);

 private:
  friend class World;
  friend class Window;
  Comm(World& world, int rank) : world_(&world), rank_(rank) {}
  World* world_;
  int rank_;
};

/// A one-sided shared-memory window, modelled on MPI-3's
/// MPI_Win_allocate_shared / MPI_Win_shared_query with MPI_Win_fence epochs.
/// Every rank constructs its windows collectively (in the same order on
/// every rank) and exposes its own regions; a region is a set of parallel
/// arrays (segments) of one slot count, like the SoA arrays of a tuple
/// buffer.  The ranks agree on the number of regions and on each
/// segment's element width.
///
/// Epoch rules (checked by the protocol checker when check::enabled()):
///  - fence() is collective; the first opens an epoch, the next closes it.
///    Every rank must reach every fence (kFenceMismatch).
///  - Inside an open epoch a rank declares the slot blocks it stores into
///    each peer's region and stores through target() pointers.  Declared
///    blocks of one region may not overlap (kOffsetOverlap), and target()
///    outside an open epoch is a violation (kEpochViolation).
///  - A region is read through local() only outside an epoch: after the
///    closing fence every store is visible (kEpochViolation inside one).
///  - The closing fence scans each exposed region for slots still holding
///    the checked-mode poison (check::kPoison32) and reports the first as
///    kUnwrittenSlot, naming the block and source it belongs to.  Storage
///    the window exposes should therefore be poisoned in checked mode
///    (TupleArena leases are).
///
/// Cost: the closing fence charges the CostModel, the traffic and message
/// matrices and the mpsim metrics as if each rank had sent, per region and
/// segment, one message to every other rank holding the bytes it declared
/// there (even zero bytes), in the stage order of the staged all-to-all.
/// That is the message shape of Comm::alltoallv_staged once per segment,
/// so a fenced epoch models exactly the exchange it replaces.
///
/// Lifetime: the destructor is a collective free.  It returns once no rank
/// is inside an epoch in which it may still store, so a rank that unwinds
/// mid-epoch (an error, a cancel) cannot free exposed memory while a
/// peer's threads are still storing into it; such a rank poisons the world
/// first, so peers blocked on it wake up.  At P = 1 a window is its rank's
/// own storage and the fences only flip the epoch.
class Window {
 public:
  struct Segment {
    void* base = nullptr;
    std::size_t elem_bytes = 0;
  };
  struct Region {
    std::vector<Segment> segments;
    std::uint64_t elems = 0;
  };

  /// Expose @p local (this rank's regions) in a new window.
  Window(Comm& comm, std::vector<Region> local);
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;
  ~Window();

  /// MPI_Win_fence: opens an epoch, or closes the open one.
  void fence();

  /// Declare that this rank stores slots [begin, begin + count) of region
  /// @p region on rank @p dest in the open epoch.
  void declare(int dest, int region, std::uint64_t begin, std::uint64_t count);

  /// Segment @p segment of region @p region on rank @p dest, for stores in
  /// the open epoch (MPI_Win_shared_query).
  [[nodiscard]] void* target(int dest, int region, int segment) const;

  /// This rank's own segment, for reads outside an epoch.
  [[nodiscard]] const void* local(int region, int segment) const;

 private:
  void close_epoch();
  void verify_closed_epoch();
  [[nodiscard]] std::string site() const;

  struct Block {
    int dest = 0;
    int region = 0;
    std::uint64_t begin = 0;
    std::uint64_t count = 0;
  };

  World* world_;
  int rank_;
  int uncaught_;  ///< std::uncaught_exceptions() at construction
  int id_ = 0;    ///< creation index, the same on every rank
  std::shared_ptr<WindowShared> shared_;
  std::vector<Region> local_;               ///< this rank's regions
  std::vector<std::vector<Region>> peers_;  ///< [rank] regions, cached when an epoch opens
  bool open_ = false;
  std::vector<std::uint64_t> declared_;  ///< [dest][region] slots declared this epoch
  std::vector<Block> blocks_;            ///< checked mode: this epoch's declared blocks
};

/// Owns P ranks; run(fn) executes fn(comm) once per rank concurrently.
class World {
 public:
  explicit World(int num_ranks, CostModelParams cost = {});
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  [[nodiscard]] int size() const noexcept { return num_ranks_; }

  /// Execute fn(comm) on every rank; returns when all ranks finish.  If a
  /// rank throws, the first exception is rethrown after all ranks complete
  /// (remaining ranks may deadlock only if they wait on the failed rank; a
  /// failure poisons all mailboxes to unblock them).
  void run(const std::function<void(Comm&)>& fn);

  /// Max over ranks of simulated comm seconds recorded so far.
  [[nodiscard]] double max_simulated_comm_seconds() const;
  [[nodiscard]] double simulated_comm_seconds(int rank) const;

  /// Traffic matrix: bytes shipped from src to dest over the lifetime of
  /// this world (self-sends excluded; row-major P x P).  Lets the exchange
  /// pattern of the staged all-to-all (§3.3) be inspected directly.
  [[nodiscard]] std::vector<std::uint64_t> traffic_matrix() const;
  /// Message counts per (src, dest) pair, same shape/exclusions as
  /// traffic_matrix().  Together they are the `mpsim.comm_matrix` export.
  [[nodiscard]] std::vector<std::uint64_t> message_matrix() const;
  [[nodiscard]] std::uint64_t total_traffic_bytes() const;
  [[nodiscard]] std::uint64_t message_count() const;

 private:
  friend class Comm;
  friend class Window;

  struct Message {
    std::vector<std::byte> payload;
    std::uint64_t seq = 0;   ///< per-(src, dest, tag) send index (checker FIFO proof)
    std::uint64_t flow = 0;  ///< trace flow id pairing send/recv markers (0 = untraced)
  };

  struct Mailbox {
    util::Mutex mutex;
    util::CondVar cv;
    std::map<std::pair<int, int>, std::deque<Message>> queues GUARDED_BY(mutex);  // (src, tag)
    bool poisoned GUARDED_BY(mutex) = false;

    /// take()'s wake condition: poisoned (about to throw comm_error) or a
    /// queued (src, tag) message.  A named member rather than a lambda at the
    /// wait site so the guarded reads stay visible to the thread-safety
    /// analysis (lambda bodies are opaque to it).
    [[nodiscard]] bool ready(const std::pair<int, int>& key) const REQUIRES(mutex) {
      if (poisoned) return true;
      auto it = queues.find(key);
      return it != queues.end() && !it->second.empty();
    }
  };

  void deliver(int src, int dest, int tag, const void* data, std::size_t bytes);
  Message take(int src, int dest, int tag);
  void poison_all();

  /// Charge one cross-rank message of @p bytes (src != dest): the
  /// receiver's simulated seconds, the traffic and message matrices and
  /// the mpsim metrics.
  void charge(int src, int dest, std::uint64_t bytes);

  /// The barrier behind Comm::barrier and Window::fence.  @p site names the
  /// collective for the checker; @p on_complete (may be empty) runs on the
  /// last arriving rank, under the barrier lock, before any rank leaves.  A
  /// traced run records a flow edge from that rank to each waiter.  A rank
  /// that returns from run() while others wait in a collective fails them:
  /// kFenceMismatch under the checker, else a comm Error.
  void collective(int rank, const std::string& site, const std::function<void()>& on_complete);

  /// collective()'s wake condition for the waiters of @p phase: it
  /// completed, or can no longer complete because a rank failed (poison_all)
  /// or returned from run().
  [[nodiscard]] bool collective_over(std::uint64_t phase) const REQUIRES(barrier_mutex_) {
    return barrier_phase_ != phase || barrier_poisoned_ || barrier_exited_ > 0;
  }

  /// The shared state of rank @p rank's next window (created by the first
  /// rank to get there); @p id receives its creation index.
  std::shared_ptr<WindowShared> attach_window(int rank, int& id);

  /// Non-blocking probe: does dest's mailbox hold a (src, tag) message right
  /// now?  Returns true on lock contention (conservative: "may have one"),
  /// which suppresses the deadlock edge — never a false deadlock.
  [[nodiscard]] bool mailbox_has(int dest, int src, int tag);

  /// After all rank threads joined: scan mailboxes for leftover messages
  /// (unmatched sends) and throw CheckError if the checker accumulated any
  /// deferred violations.  Only called when no rank threw.
  void finalize_check();

  int num_ranks_;
  CostModelParams cost_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  mutable util::Mutex cost_mutex_;
  std::vector<double> sim_comm_seconds_ GUARDED_BY(cost_mutex_);
  /// P x P, row-major (src, dest).
  std::vector<std::uint64_t> traffic_bytes_ GUARDED_BY(cost_mutex_);
  /// P x P, row-major (src, dest).
  std::vector<std::uint64_t> traffic_msgs_ GUARDED_BY(cost_mutex_);
  std::uint64_t message_count_ GUARDED_BY(cost_mutex_) = 0;
  std::atomic<std::uint64_t> next_flow_id_{1};  ///< trace flow ids (never 0)

  // Barrier state.
  util::Mutex barrier_mutex_;
  util::CondVar barrier_cv_;
  int barrier_count_ GUARDED_BY(barrier_mutex_) = 0;
  std::uint64_t barrier_phase_ GUARDED_BY(barrier_mutex_) = 0;
  /// Set by poison_all to free parked ranks.
  bool barrier_poisoned_ GUARDED_BY(barrier_mutex_) = false;
  /// Ranks whose fn returned this run: a collective they never reached
  /// can no longer complete.
  int barrier_exited_ GUARDED_BY(barrier_mutex_) = 0;
  int first_exited_ GUARDED_BY(barrier_mutex_) = -1;
  /// Flow id per waiting rank for the phase that just completed (0 = none).
  std::vector<std::uint64_t> barrier_flows_ GUARDED_BY(barrier_mutex_);

  // Windows some rank has created and not every rank has attached to yet,
  // by creation index; windows_created_[rank] counts each rank's windows.
  util::Mutex windows_mutex_;
  std::map<int, std::shared_ptr<WindowShared>> pending_windows_ GUARDED_BY(windows_mutex_);
  std::vector<int> windows_created_ GUARDED_BY(windows_mutex_);

  /// Protocol checker; non-null only when check::enabled() at construction.
  std::unique_ptr<check::ProtocolChecker> checker_;
};

}  // namespace metaprep::mpsim
