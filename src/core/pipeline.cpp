#include "core/pipeline.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "check/invariants.hpp"
#include "core/group.hpp"
#include "core/memory_model.hpp"
#include "core/packed_ingest.hpp"
#include "core/plan.hpp"
#include "core/tuple_arena.hpp"
#include "dsu/dsu.hpp"
#include "io/fastq.hpp"
#include "kmer/superkmer.hpp"
#include "kmer/traits.hpp"
#include "mpsim/comm.hpp"
#include "obs/attr.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "part/part.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/memusage.hpp"
#include "util/session.hpp"
#include "util/thread_team.hpp"

namespace metaprep::core {

namespace {

using util::StepTimes;
using util::ThreadTeam;
using util::WallTimer;

/// Lookup table bin -> part index for a boundary vector covering
/// [bounds.front(), bounds.back()).
std::vector<std::uint16_t> bin_owner_table(std::span<const std::uint32_t> bounds) {
  const std::uint32_t lo = bounds.front();
  const std::uint32_t hi = bounds.back();
  std::vector<std::uint16_t> table(hi - lo, 0);
  for (std::size_t part = 0; part + 1 < bounds.size(); ++part) {
    for (std::uint32_t b = bounds[part]; b < bounds[part + 1]; ++b) {
      table[b - lo] = static_cast<std::uint16_t>(part);
    }
  }
  return table;
}

/// Lay out a row-major [row][col] count table column by column: column c's
/// blocks are contiguous and ordered by row.  @p block receives each
/// block's element offset, @p col_start the cols + 1 column offsets.
void column_major_offsets(std::span<const std::uint64_t> count, std::size_t rows,
                          std::size_t cols, std::vector<std::uint64_t>& block,
                          std::vector<std::uint64_t>& col_start) {
  block.assign(rows * cols, 0);
  col_start.assign(cols + 1, 0);
  std::uint64_t off = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      block[r * cols + c] = off;
      off += count[r * cols + c];
    }
    col_start[c + 1] = off;
  }
}

/// One CC-I/O output file: its path, the records written to it, and the
/// root->slot table slot whose reads it holds.
struct OutputFile {
  part::BinFile file;
  std::uint16_t slot = part::RootSlotTable::kNoSlot;
};

struct RankShared {
  StepTimes times;
  std::vector<OutputFile> output_files;  ///< in (thread, first write) order
  int cc_iterations = 0;
  std::uint64_t tuples = 0;
  std::uint64_t max_buffer_bytes = 0;
  std::uint64_t merge_comm_bytes = 0;
  std::vector<obs::RssSample> rss_samples;    ///< rank 0 only: peak RSS per phase boundary
  std::uint64_t records_skipped = 0;  ///< distinct records lenient parsing dropped
                                      ///< (first KmerGen sweep over this rank's chunks)
  // Exchange-compression accounting (--comm-compress; see PipelineResult).
  std::uint64_t exchange_bytes = 0;      ///< cross-rank KmerGen-Comm bytes shipped
  std::uint64_t exchange_bytes_raw = 0;  ///< uncompressed-equivalent of the same traffic
  std::uint64_t superkmer_records = 0;   ///< wire records this rank emitted
};

/// Everything the per-rank pass engine and merge tail need from the run.
struct PassCtx {
  const DatasetIndex& index;
  const MetaprepConfig& config;
  const PassPlan& plan;
  const ChunkAssignment& ca;
  mpsim::Comm& comm;
  ThreadTeam& team;
  dsu::AtomicDSU& local_cc;
  RankShared& my;
  /// Non-null in --read-store=packed runs: the in-memory 2-bit arena KmerGen
  /// scans instead of re-reading FASTQ text each pass.
  const io::PackedStore* packed;
  int p, P, T, S, k, m;
  // The run's sinks, as the rank thread inherits them; the hot-path metric
  // handles are resolved once per rank (registry lookup takes a mutex).
  obs::TraceSession& tr = obs::TraceSession::current();
  obs::Counter& m_tuples = obs::metrics().counter("pipeline.tuples_total");
  obs::Counter& m_cc_edges = obs::metrics().counter("pipeline.cc_edges_total");
  obs::Gauge& m_rss = obs::metrics().gauge("mem.rss_peak");
  obs::Gauge& m_peak = obs::metrics().gauge("proc.peak_rss_bytes");
};

/// Manual span markers for steps whose lifetime doesn't match a C++ scope.
inline double span_begin(obs::TraceSession& tr) { return tr.enabled() ? tr.now_us() : -1.0; }
inline void span_end(obs::TraceSession& tr, const char* name, double t0) {
  if (t0 >= 0.0) tr.record(name, t0, tr.now_us() - t0);
}

/// Phase boundary (ISSUE satellite: per-phase RSS growth).  Records the
/// process peak RSS into the proc.peak_rss_bytes gauge and — on rank 0 of a
/// traced run — appends an (phase, peak) sample for the attribution report.
/// Collapses to two relaxed loads when neither tracing nor metrics are on.
void phase_boundary(PassCtx& ctx, const char* phase) {
  if (!ctx.tr.enabled() && !obs::metrics().enabled()) return;
  const std::uint64_t peak = util::peak_rss_bytes();
  if (peak == 0) return;  // /proc unavailable
  ctx.m_peak.set_max(static_cast<double>(peak));
  if (ctx.p == 0 && ctx.tr.enabled()) ctx.my.rss_samples.push_back({phase, peak});
}

/// Progress line updates happen on rank 0 only (the phases are globally
/// synchronized by the exchange anyway, so rank 0's view is representative).
inline void progress_phase(const PassCtx& ctx, const char* phase) {
  if (ctx.p == 0) obs::Progress::global().phase(phase);
}

/// A timed step of this rank: when the scope ends, its wall goes to the
/// rank's StepTimes and to a trace span, both under @p name.  A phase step
/// also names the progress line as it starts and ends at a phase boundary.
class Step {
 public:
  Step(PassCtx& ctx, const char* name, bool phase = false)
      : ctx_(ctx), name_(name), phase_(phase), t0_(span_begin(ctx.tr)) {
    if (phase) progress_phase(ctx, name);
  }
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;
  ~Step() {
    ctx_.my.times.add(name_, timer_.seconds());
    span_end(ctx_.tr, name_, t0_);
    if (phase_) phase_boundary(ctx_, name_);
  }

 private:
  PassCtx& ctx_;
  const char* name_;
  bool phase_;
  double t0_;
  WallTimer timer_;
};

/// One record's bases as KmerGen sees them: raw text characters, or the
/// packed store's 2-bit words.
struct RecordView {
  const char* text = nullptr;            ///< text mode: raw sequence chars
  const std::uint64_t* words = nullptr;  ///< packed mode: 2-bit LSB-first words
  std::uint32_t len = 0;
  const std::uint32_t* npos = nullptr;   ///< packed mode: N positions
  std::uint32_t ncount = 0;
  /// Append the wire record for the @p n_kmers k-mers starting at window
  /// @p start.  Only called for valid super-k-mer runs, which the scanner
  /// guarantees are free of invalid bases.
  void append_record(std::vector<std::byte>& out, std::uint32_t value, std::uint32_t start,
                     std::uint32_t n_kmers, int k) const {
    if (words != nullptr) {
      kmer::append_superkmer_record_packed(out, value, n_kmers, k, words, start);
    } else {
      kmer::append_superkmer_record(out, value, n_kmers, k, [&](std::size_t j) {
        return kmer::base_code(text[start + j]);
      });
    }
  }
};

/// Per-k-mer view of a record: fn(km, pos) per canonical k-mer.
template <typename Key, typename Fn>
void for_each_kmer(const RecordView& rec, int k, Fn&& fn) {
  using Traits = kmer::KmerTraits<Key>;
  if (rec.words != nullptr) {
    Traits::for_each_canonical_packed(rec.words, rec.len, rec.npos, rec.ncount, k, fn);
  } else {
    Traits::for_each_canonical(std::string_view(rec.text, rec.len), k, fn);
  }
}

/// The one chunk scanner.  Text mode reads the chunk's byte range and
/// parses it; packed mode walks the arena's record range for the chunk —
/// same records, same order, same read IDs, so every emitter downstream
/// sees an identical stream.  Per record: value = find(read_id) under the
/// §3.5.1 substitution, then rec_fn(value, RecordView).  @p io_s and
/// @p gen_s accumulate the KmerGen-I/O and KmerGen step walls for this
/// thread.  Returns the lenient-parse skips this scan observed (always 0 in
/// packed mode: ingest already recorded them in the arena).
template <typename RecFn>
std::uint64_t scan_chunk(PassCtx& ctx, std::uint32_t c, bool substitute, double& io_s,
                         double& gen_s, RecFn&& rec_fn) {
  util::throw_if_cancelled(ctx.config.cancel_token, "KmerGen chunk");
  const DatasetIndex& index = ctx.index;
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  std::uint64_t skipped = 0;
  if (ctx.packed != nullptr) {
    const io::PackedStore& ps = *ctx.packed;
    WallTimer gen_timer;
    const double gen_t0 = span_begin(ctx.tr);
    for (std::uint64_t r = ps.chunk_begin(c), e = ps.chunk_end(c); r < e; ++r) {
      const io::PackedStore::Record rec = ps.record(r);
      const std::uint32_t value = substitute ? local_cc.find(rec.read_id) : rec.read_id;
      rec_fn(value, RecordView{nullptr, rec.words, rec.len, rec.npos, rec.ncount});
    }
    span_end(ctx.tr, "KmerGen", gen_t0);
    gen_s += gen_timer.seconds();
  } else {
    WallTimer io_timer;
    const double io_t0 = span_begin(ctx.tr);
    const auto buffer = read_chunk(index, c);
    span_end(ctx.tr, "KmerGen-I/O", io_t0);
    const obs::MemCharge io_mem("io", buffer.size());
    io_s += io_timer.seconds();

    WallTimer gen_timer;
    const double gen_t0 = span_begin(ctx.tr);
    const io::BufferParseStats stats = for_each_chunk_record(
        index, c, buffer, ctx.config.parse_mode,
        [&](std::uint32_t read_id, std::string_view, std::string_view seq, std::string_view) {
          // LocalCC-Opt (§3.5.1): from pass 2 on, enumerate the component
          // ID instead of the read ID for better locality.
          const std::uint32_t value = substitute ? local_cc.find(read_id) : read_id;
          rec_fn(value, RecordView{seq.data(), nullptr,
                                   static_cast<std::uint32_t>(seq.size()), nullptr, 0});
        });
    span_end(ctx.tr, "KmerGen", gen_t0);
    gen_s += gen_timer.seconds();
    skipped = stats.skipped;
  }
  obs::Progress::global().chunk_done();
  return skipped;
}

// ---------------------------------------------------------------------------
// The pass engine (DESIGN.md "Pass engine (W, codec)").
//
// Passes run in groups of W: W = 1 is the paper's barrier schedule, W = 2
// the pipelined one.  Each group does one fused chunk sweep that generates
// every pass of the group (an emitted k-mer's routing bin places it in one
// pass), completes the group's exchange, then sorts and unions pass by
// pass.
//
// Every pass routes at (dest rank, dest thread) granularity: P·T slots,
// slot d·T+dt.  The receiver lays its T sort regions out by src rank, and
// within a src rank by src thread and generation order — the order the
// paper's LocalSort partition step produces — so the receive buffer IS the
// sort buffer and LocalSort sees the barrier schedule's input.
//
// Wire codecs:
//  - fixed tuples (comm_compress none): one-sided.  Every (src thread,
//    dest slot) count follows from the FASTQPart tables, so every rank
//    knows where each of its threads' blocks starts in every destination's
//    receive buffer.  Each rank leases its receive buffers and exposes
//    them in an mpsim::Window; after the opening fence KmerGen threads
//    store each tuple straight into its destination's buffer, and the
//    closing fence ends the exchange.  The fence charges the CostModel with
//    the paper's staged all-to-all: per (stage, pass, tuple array) rank p
//    "sends" (p+stage) mod P one message, even when empty.
//  - super-k-mer records (comm_compress superkmer): one message per (src,
//    dest, pass) with a u64 lens[T] header, then the T dest-thread
//    sections; the receiver sizes its regions from the headers and expands
//    in parallel.
// ---------------------------------------------------------------------------

/// Tag of the super-k-mer exchange of pass @p s, above the MergeCC range
/// (1 << 20).
constexpr int kKmerGenTagBase = 2'000'000;
inline int kmergen_tag(int s) { return kKmerGenTagBase + s; }

/// Routing of one pass: its bin range and the bin -> slot table.
struct PassRoute {
  std::uint32_t lo = 0, hi = 0;
  std::vector<std::uint32_t> slot_bounds;  ///< P*T+1 bin bounds
  std::vector<std::uint16_t> slot_of_bin;  ///< bin - lo -> slot d*T+dt
};

/// Run-wide engine settings: fusion width, wire codec and routing.
struct EnginePlan {
  int W = 1;               ///< passes fused per chunk sweep
  bool superkmer = false;  ///< wire codec: super-k-mer records, else fixed tuples
  int minimizer_len = 0;
  std::vector<PassRoute> routes;  ///< S entries, tiling the bin space in order
};

/// Per-pass routes.  Prefix bins follow the PassPlan (pass ⊃ rank ⊃
/// thread); super-k-mer records use minimizer-hash bins split uniformly
/// over passes and slots (prefix bins cannot route a run of consecutive
/// k-mers).
std::vector<PassRoute> make_routes(const PassPlan& plan, int S, int P, int T,
                                   bool minimizer_bins) {
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  const auto mz_pass = util::split_range(kmer::kNumMinimizerBins, S);
  std::vector<PassRoute> routes(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    PassRoute& r = routes[static_cast<std::size_t>(s)];
    r.slot_bounds.reserve(nslots + 1);
    if (minimizer_bins) {
      r.lo = static_cast<std::uint32_t>(mz_pass[static_cast<std::size_t>(s)]);
      r.hi = static_cast<std::uint32_t>(mz_pass[static_cast<std::size_t>(s) + 1]);
      const auto rel = util::split_range(r.hi - r.lo, static_cast<int>(nslots));
      for (std::size_t i = 0; i <= nslots; ++i)
        r.slot_bounds.push_back(r.lo + static_cast<std::uint32_t>(rel[i]));
    } else {
      r.lo = plan.pass_range(s).begin;
      r.hi = plan.pass_range(s).end;
      r.slot_bounds.push_back(plan.thread_bounds(s, 0).front());
      for (int d = 0; d < P; ++d) {
        const auto& tb = plan.thread_bounds(s, d);
        for (int t = 1; t <= T; ++t) r.slot_bounds.push_back(tb[static_cast<std::size_t>(t)]);
      }
    }
    r.slot_of_bin = bin_owner_table(r.slot_bounds);
  }
  return routes;
}

/// One pass of a group, from generation to union.
template <typename Key>
struct PassWork {
  int s = 0;
  const PassRoute* route = nullptr;
  double t0 = -1.0;
  std::vector<std::uint64_t> region;  ///< T+1 sort-region offsets in the receive buffer
  TupleBuffer<Key>* recv = nullptr;
  // Fixed codec: my thread t's block for each slot, in the receive buffer
  // of the slot's dest rank.
  std::vector<std::uint64_t> block;      ///< [t][slot] first element
  std::vector<std::uint64_t> block_len;  ///< [t][slot] tuples the index counts
  // Super-k-mer codec: per (my thread, slot) byte streams, then my own message.
  std::vector<std::vector<std::vector<std::byte>>> streams;  ///< [t][slot]
  std::vector<std::byte> self_msg;
};

/// Fixed codec: the exchange geometry of one pass from the FASTQPart
/// tables (O(chunks × P × T) bounded counts, each O(1)).  Every rank
/// derives the same (src rank, src thread) x (dest slot) count table, so
/// it knows its own sort regions and, in every destination's buffer, where
/// its threads' blocks start: dest d's region dt holds its blocks in
/// (src rank, src thread) order.
template <typename Key>
void fixed_geometry(const PassCtx& ctx, PassWork<Key>& w) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  const auto uT = static_cast<std::size_t>(T);
  std::vector<std::uint64_t> count(nslots * nslots, 0);  // [src q*T+t][dest slot]
  for (int q = 0; q < P; ++q) {
    for (int t = 0; t < T; ++t) {
      const auto row = std::span(count).subspan((static_cast<std::size_t>(q) * uT + t) * nslots,
                                                nslots);
      for (std::uint32_t c = ctx.ca.thread_begin(q, t); c < ctx.ca.thread_end(q, t); ++c) {
        ctx.index.part.add_range_counts(c, w.route->slot_bounds, row);
      }
    }
  }
  w.block.assign(uT * nslots, 0);
  w.block_len.assign(uT * nslots, 0);
  std::vector<std::uint64_t> dest_count(nslots * uT);  // [src slot][dt] of one dest rank
  std::vector<std::uint64_t> block;
  std::vector<std::uint64_t> region;
  for (std::size_t d = 0; d < static_cast<std::size_t>(P); ++d) {
    for (std::size_t src = 0; src < nslots; ++src) {
      for (std::size_t dt = 0; dt < uT; ++dt) {
        dest_count[src * uT + dt] = count[src * nslots + d * uT + dt];
      }
    }
    column_major_offsets(dest_count, nslots, uT, block, region);
    for (std::size_t t = 0; t < uT; ++t) {
      const std::size_t src = static_cast<std::size_t>(p) * uT + t;
      for (std::size_t dt = 0; dt < uT; ++dt) {
        w.block[t * nslots + d * uT + dt] = block[src * uT + dt];
        w.block_len[t * nslots + d * uT + dt] = dest_count[src * uT + dt];
      }
    }
    if (d == static_cast<std::size_t>(p)) w.region = region;
  }
}

/// Fixed codec: a receive buffer as a window region.  The segments are the
/// tuple arrays in the staged all-to-all's order — low key words, read
/// IDs, then high key words (k > 32 ships the k <= 32 arrays plus one) —
/// so a fenced epoch charges their messages in that order.
template <typename Key>
mpsim::Window::Region window_region(TupleBuffer<Key>& b) {
  mpsim::Window::Region r;
  r.elems = b.size();
  r.segments.push_back({b.keys[0].data(), sizeof(std::uint64_t)});
  r.segments.push_back({b.vals.data(), sizeof(std::uint32_t)});
  for (std::size_t w = 1; w < b.keys.size(); ++w) {
    r.segments.push_back({b.keys[w].data(), sizeof(std::uint64_t)});
  }
  return r;
}
constexpr int kValSegment = 1;
constexpr int key_segment(std::size_t w) { return w == 0 ? 0 : static_cast<int>(w) + 1; }

/// Fixed codec, KmerGen-Comm's opening half: lease each group pass's
/// receive buffer, expose them all in one window, open its epoch and
/// declare this rank's blocks.  Also books the pass's tuple and exchange
/// counts, which the geometry fixes.
template <typename Key>
std::unique_ptr<mpsim::Window> open_window(PassCtx& ctx, std::span<PassWork<Key>> group,
                                           TupleArena<Key>& arena) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  std::vector<mpsim::Window::Region> regions;
  for (PassWork<Key>& w : group) {
    fixed_geometry(ctx, w);
    w.recv = &arena.acquire(w.region.back());
    regions.push_back(window_region(*w.recv));
  }
  auto window = std::make_unique<mpsim::Window>(ctx.comm, std::move(regions));
  window->fence();
  RankShared& my = ctx.my;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const PassWork<Key>& w = group[i];
    std::uint64_t generated = 0;
    std::uint64_t own = 0;
    for (std::size_t ts = 0; ts < w.block.size(); ++ts) {
      const std::uint64_t len = w.block_len[ts];
      if (len == 0) continue;
      const int dest = static_cast<int>(ts % nslots) / T;
      window->declare(dest, static_cast<int>(i), w.block[ts], len);
      generated += len;
      if (dest == p) own += len;
    }
    my.tuples += generated;
    ctx.m_tuples.add(generated);
    // Exchange-volume accounting (cross-rank tuples only, matching the
    // traffic matrix); uncompressed, so shipped == raw.
    const std::uint64_t cross_bytes = (generated - own) * kmer::KmerTraits<Key>::kTupleBytes;
    my.exchange_bytes += cross_bytes;
    my.exchange_bytes_raw += cross_bytes;
  }
  return window;
}

/// Little-endian byte append/read for the record-codec framing.
inline void append_le(std::vector<std::byte>& out, std::uint64_t v, int nbytes) {
  for (int b = 0; b < nbytes; ++b)
    out.push_back(static_cast<std::byte>((v >> (8 * b)) & 0xFF));
}
inline std::uint64_t read_le(const std::byte* p, int nbytes) {
  std::uint64_t v = 0;
  for (int b = 0; b < nbytes; ++b)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[b])) << (8 * b);
  return v;
}

/// Enumerate a record's super-k-mer runs; fn(start, kmer_count, minimizer).
template <typename Fn>
void for_each_run(kmer::SuperKmerScanner& scanner, const RecordView& rec, int k, int msk,
                  Fn&& fn) {
  if (rec.words != nullptr) {
    scanner.scan_packed(rec.words, rec.len, rec.npos, rec.ncount, k, msk, std::forward<Fn>(fn));
  } else {
    scanner.scan(std::string_view(rec.text, rec.len), k, msk, std::forward<Fn>(fn));
  }
}

/// Per-thread tallies of one fused KmerGen sweep.
struct SweepCounts {
  std::uint64_t skipped = 0;  ///< lenient-parse skips
  std::uint64_t raw = 0;      ///< cross-rank k-mer occurrences (super-k-mer codec)
  std::uint64_t kept = 0;     ///< k-mer occurrences shipped (super-k-mer codec)
  std::uint64_t records = 0;  ///< super-k-mer records emitted
};

/// Fused KmerGen: one chunk read + scan generates every pass of the group.
/// Fixed tuples go through @p window (open, one region per group pass);
/// super-k-mer records go to the group's streams.
template <typename Key>
void kmergen_sweep(PassCtx& ctx, const EnginePlan& ep, std::span<PassWork<Key>> group,
                   const mpsim::Window* window, bool substitute) {
  using Traits = kmer::KmerTraits<Key>;
  const int p = ctx.p, T = ctx.T, k = ctx.k, m = ctx.m;
  const std::size_t nslots = static_cast<std::size_t>(ctx.P) * T;
  // A routing bin in [lo, hi) belongs to group pass (bin >= mid): routes
  // tile the bin space in pass order.
  const std::uint32_t lo = group.front().route->lo;
  const std::uint32_t mid = group.front().route->hi;
  const std::uint32_t hi = group.back().route->hi;
  std::vector<double> io_seconds(static_cast<std::size_t>(T), 0.0);
  std::vector<double> gen_seconds(static_cast<std::size_t>(T), 0.0);
  std::vector<SweepCounts> counts(static_cast<std::size_t>(T));
  progress_phase(ctx, "KmerGen");
  ctx.team.run([&](int t) {
    obs::TraceSession::set_thread_identity(p, t);
    const std::size_t ut = static_cast<std::size_t>(t);
    // Tallies and write positions live on this thread's stack or heap for
    // the sweep: shared per-thread rows would sit a few words apart, and
    // updating them per k-mer would bounce their cache lines between the
    // cores of the team.
    SweepCounts n;
    std::uint32_t chunk = 0;  // the chunk being scanned
    auto sweep = [&](auto&& on_record) {
      for (chunk = ctx.ca.thread_begin(p, t); chunk < ctx.ca.thread_end(p, t); ++chunk) {
        n.skipped +=
            scan_chunk(ctx, chunk, substitute, io_seconds[ut], gen_seconds[ut], on_record);
      }
    };
    if (!ep.superkmer) {
      // Fixed tuples, stored into this thread's block of each slot in the
      // slot's destination buffer.  A block is bounded by the tuples the
      // index counts for it: a chunk that yields more (its file changed
      // after indexing) stops with a parse Error instead of writing into
      // the next block.  Plain per-pass locals and an explicit branch keep
      // pass 0's pointers in registers on the per-k-mer path (W = 1 never
      // takes the else).
      struct Block {
        std::array<std::uint64_t*, Traits::kWords> keys{};  ///< at the block's first slot
        std::uint32_t* vals = nullptr;
        std::uint64_t n = 0;    ///< tuples stored
        std::uint64_t len = 0;  ///< tuples the index counts
      };
      struct Out {
        const std::uint16_t* slot_of_bin = nullptr;
        Block* blocks = nullptr;
      };
      // Two blocks of padding on each side of the table: it shares no
      // cache line with other threads' data, whatever the allocator does.
      constexpr std::size_t kPad = 2;
      std::array<std::vector<Block>, 2> tables;
      auto out_of = [&](std::size_t i) {
        if (i >= group.size()) return Out{};
        const PassWork<Key>& w = group[i];
        tables[i].assign(nslots + 2 * kPad, Block{});
        Block* blocks = tables[i].data() + kPad;
        for (std::size_t slot = 0; slot < nslots; ++slot) {
          const int dest = static_cast<int>(slot) / T;
          const int region = static_cast<int>(i);
          const std::uint64_t at = w.block[ut * nslots + slot];
          Block& b = blocks[slot];
          for (std::size_t wd = 0; wd < b.keys.size(); ++wd) {
            b.keys[wd] =
                static_cast<std::uint64_t*>(window->target(dest, region, key_segment(wd))) + at;
          }
          b.vals = static_cast<std::uint32_t*>(window->target(dest, region, kValSegment)) + at;
          b.len = w.block_len[ut * nslots + slot];
        }
        return Out{w.route->slot_of_bin.data(), blocks};
      };
      const Out o0 = out_of(0);
      const Out o1 = out_of(1);
      auto put = [&](const Out& o, std::uint32_t rel_bin, Key km, std::uint32_t value) {
        Block& b = o.blocks[o.slot_of_bin[rel_bin]];
        if (b.n == b.len) [[unlikely]] {
          throw chunk_kmer_overrun(ctx.index, chunk);
        }
        const std::uint64_t at = b.n++;
        for (std::size_t wd = 0; wd < b.keys.size(); ++wd) b.keys[wd][at] = Traits::word(km, wd);
        b.vals[at] = value;
      };
      sweep([&](std::uint32_t value, const RecordView& rec) {
        for_each_kmer<Key>(rec, k, [&](Key km, std::size_t) {
          const std::uint32_t bin = Traits::prefix_bin(km, k, m);
          if (bin < lo || bin >= hi) return;
          if (bin < mid) {
            put(o0, bin - lo, km, value);
          } else {
            put(o1, bin - mid, km, value);
          }
        });
      });
      // Lenient parsing: records the (clean-data) chunk histograms counted
      // but the parser skipped leave blocks short, and the geometry holds
      // their slots regardless.  Fill each gap with sentinel tuples keyed by
      // the slot's first bin (so every key stays in its dest thread's bin
      // range) whose value is kInvalidRead (so LocalCC ignores them).
      const int shift = 2 * (k - m);
      for (std::size_t i = 0; i < group.size(); ++i) {
        const Out& o = i == 0 ? o0 : o1;
        for (std::size_t slot = 0; slot < nslots; ++slot) {
          Block& b = o.blocks[slot];
          if (b.n == b.len) continue;
          const Key sentinel = Traits::bin_key(group[i].route->slot_bounds[slot], shift);
          for (std::uint64_t at = b.n; at < b.len; ++at) {
            for (std::size_t wd = 0; wd < b.keys.size(); ++wd) {
              b.keys[wd][at] = Traits::word(sentinel, wd);
            }
            b.vals[at] = kInvalidRead;
          }
        }
      }
      counts[ut] = n;
      return;
    }
    // Super-k-mer records: this thread's per-(group pass, slot) streams,
    // in rows it allocates itself (their headers change on every append)
    // and hands to the group when the sweep ends.
    std::array<std::vector<std::vector<std::byte>>, 2> rows;
    for (std::size_t i = 0; i < group.size(); ++i) rows[i].resize(nslots);
    kmer::SuperKmerScanner scanner;
    sweep([&](std::uint32_t value, const RecordView& rec) {
      for_each_run(scanner, rec, k, ep.minimizer_len,
                   [&](std::uint32_t start, std::uint32_t count, std::uint64_t mz) {
        const std::uint32_t bin = kmer::minimizer_bin(mz);
        if (bin < lo || bin >= hi) return;
        const std::size_t i = bin >= mid ? 1 : 0;
        const std::uint16_t slot = group[i].route->slot_of_bin[bin - group[i].route->lo];
        std::vector<std::byte>& stream = rows[i][slot];
        if (slot / T != p) n.raw += count;
        n.kept += count;
        for (std::uint32_t a = 0; a < count;) {
          const std::uint32_t take = std::min(count - a, kmer::kMaxSuperKmerRun);
          rec.append_record(stream, value, start + a, take, k);
          ++n.records;
          a += take;
        }
      });
    });
    for (std::size_t i = 0; i < group.size(); ++i) group[i].streams[ut] = std::move(rows[i]);
    counts[ut] = n;
  });
  RankShared& my = ctx.my;
  my.times.add("KmerGen-I/O", *std::max_element(io_seconds.begin(), io_seconds.end()));
  my.times.add("KmerGen", *std::max_element(gen_seconds.begin(), gen_seconds.end()));
  for (const SweepCounts& n : counts) {
    // The first sweep visits every record exactly once, so its skip count
    // is the number of *distinct* records lenient parsing dropped (later
    // sweeps re-discover the same skips in text mode).
    if (group.front().s == 0) my.records_skipped += n.skipped;
    if (!ep.superkmer) continue;
    my.exchange_bytes_raw += n.raw * Traits::kTupleBytes;
    my.tuples += n.kept;
    my.superkmer_records += n.records;
    ctx.m_tuples.add(n.kept);
  }
  phase_boundary(ctx, "KmerGen");
}

/// Super-k-mer codec: post one pass's messages.  Sends are buffered (the
/// mailbox owns the in-flight copies), so the send side is done when this
/// returns and receive_records completes the receive.  One message per
/// (dest, pass), always sent: the u64 lens[T] header makes even an empty
/// message well-formed and keeps the receive count deterministic.
template <typename Key>
void post_records(PassCtx& ctx, PassWork<Key>& w) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  for (int d = 0; d < P; ++d) {
    std::vector<std::byte> msg;
    std::size_t total = 8u * static_cast<std::size_t>(T);
    for (int dt = 0; dt < T; ++dt) {
      for (int t = 0; t < T; ++t) {
        total +=
            w.streams[static_cast<std::size_t>(t)][static_cast<std::size_t>(d) * T + dt].size();
      }
    }
    msg.reserve(total);
    for (int dt = 0; dt < T; ++dt) {
      std::uint64_t len = 0;
      for (int t = 0; t < T; ++t) {
        len += w.streams[static_cast<std::size_t>(t)][static_cast<std::size_t>(d) * T + dt].size();
      }
      append_le(msg, len, 8);
    }
    for (int dt = 0; dt < T; ++dt) {
      for (int t = 0; t < T; ++t) {
        auto& st = w.streams[static_cast<std::size_t>(t)][static_cast<std::size_t>(d) * T + dt];
        msg.insert(msg.end(), st.begin(), st.end());
        std::vector<std::byte>().swap(st);
      }
    }
    if (d == p) {
      w.self_msg = std::move(msg);
    } else {
      ctx.my.exchange_bytes += msg.size();
      ctx.comm.send(d, kmergen_tag(w.s), msg.data(), msg.size());
    }
  }
}

/// Super-k-mer codec: complete one pass's receive into its T sort regions.
/// Size the regions from the headers, validate and count every record,
/// then decode at exact offsets in parallel.
template <typename Key>
void receive_records(PassCtx& ctx, PassWork<Key>& w, TupleArena<Key>& arena) {
  const int P = ctx.P, T = ctx.T, p = ctx.p, k = ctx.k;
  std::vector<std::vector<std::byte>> msgs(static_cast<std::size_t>(P));
  msgs[static_cast<std::size_t>(p)] = std::move(w.self_msg);
  if (P > 1) {
    const Step step(ctx, "KmerGen-Comm");
    for (int stage = 1; stage < P; ++stage) {
      const int q = (p - stage + P) % P;
      msgs[static_cast<std::size_t>(q)] = ctx.comm.recv_any_size(q, kmergen_tag(w.s));
    }
  }
  std::uint64_t msg_bytes = 0;
  for (const auto& msg : msgs) msg_bytes += msg.size();
  const obs::MemCharge msgs_mem("comm", msg_bytes);

  const Step step(ctx, "Expand", true);
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  std::vector<std::uint64_t> sec_off(nslots, 0);
  std::vector<std::uint64_t> sec_len(nslots, 0);
  for (int q = 0; q < P; ++q) {
    const auto& msg = msgs[static_cast<std::size_t>(q)];
    if (msg.size() < 8u * static_cast<std::size_t>(T))
      throw util::parse_error("comm-compress: message shorter than its header");
    std::uint64_t off = 8u * static_cast<std::size_t>(T);
    for (int dt = 0; dt < T; ++dt) {
      const std::uint64_t len = read_le(msg.data() + 8 * dt, 8);
      if (len > msg.size() - off)
        throw util::parse_error("comm-compress: section overruns message");
      sec_off[static_cast<std::size_t>(q) * T + dt] = off;
      sec_len[static_cast<std::size_t>(q) * T + dt] = len;
      off += len;
    }
    if (off != msg.size())
      throw util::parse_error("comm-compress: trailing bytes after last section");
  }
  std::vector<std::uint64_t> recv_count(nslots, 0);  // [q][dt] k-mers from src rank q
  ctx.team.run([&](int t) {
    for (int q = 0; q < P; ++q) {
      const std::size_t idx = static_cast<std::size_t>(q) * T + t;
      const std::byte* data = msgs[static_cast<std::size_t>(q)].data() + sec_off[idx];
      recv_count[idx] = kmer::count_superkmer_stream(data, sec_len[idx], k).kmers;
    }
  });
  std::vector<std::uint64_t> recv_block;  // [q][dt] element offsets
  column_major_offsets(recv_count, static_cast<std::size_t>(P), static_cast<std::size_t>(T),
                       recv_block, w.region);
  TupleBuffer<Key>& tuples = arena.acquire(w.region.back());
  w.recv = &tuples;
  const std::uint32_t R = ctx.index.total_reads;
  ctx.team.run([&](int t) {
    obs::TraceSession::set_thread_identity(p, t);
    for (int q = 0; q < P; ++q) {
      const std::size_t idx = static_cast<std::size_t>(q) * T + t;
      const std::byte* data = msgs[static_cast<std::size_t>(q)].data() + sec_off[idx];
      std::uint64_t at = recv_block[idx];
      kmer::SuperKmerReader reader(data, sec_len[idx], k);
      while (!reader.done()) {
        reader.next_header();
        const std::uint32_t value = reader.value();
        if (value >= R) throw util::parse_error("comm-compress: record value out of range");
        kmer::KmerTraits<Key>::expand(reader, [&](Key km) { tuples.put(at++, km, value); });
      }
    }
  });
}

/// LocalSort and LocalCC (§3.4-§3.5) of one pass: each thread bins its
/// dest-thread region into a leased scratch, then groups and unions it
/// bucket by bucket (core/group.hpp).  Algorithm 1 re-verifies each
/// thread's buffered edges.
template <typename Key>
void group_regions(PassCtx& ctx, const TupleBuffer<Key>& tuples,
                   const std::vector<std::uint64_t>& region, TupleArena<Key>& arena,
                   std::vector<RegionGrouper<Key>>& groupers) {
  TupleBuffer<Key>* scratch = nullptr;
  {
    const Step step(ctx, "LocalSort", true);
    scratch = &arena.acquire(tuples.size());
    ctx.team.run([&](int t) {
      const std::uint64_t lo = region[static_cast<std::size_t>(t)];
      const std::size_t n = region[static_cast<std::size_t>(t) + 1] - lo;
      groupers[static_cast<std::size_t>(t)].bucket(tuples, *scratch, lo, n);
    });
  }

  const Step step(ctx, "LocalCC", true);
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  std::vector<int> thread_iters(static_cast<std::size_t>(ctx.T), 0);
  ctx.team.run([&](int t) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    groupers[static_cast<std::size_t>(t)].unite(ctx.config.filter, local_cc, edges);
    thread_iters[static_cast<std::size_t>(t)] =
        1 + dsu::process_edges_algorithm1(local_cc, edges);
    ctx.m_cc_edges.add(edges.size());
  });
  ctx.my.cc_iterations = std::max(ctx.my.cc_iterations,
                                  *std::max_element(thread_iters.begin(), thread_iters.end()));
  arena.release(*scratch);
}

/// The pass loop: groups of W passes, each one fused sweep and one
/// exchange, then LocalSort and LocalCC pass by pass.  With cc_opt every
/// pass of a group substitutes component IDs as of the group start (at
/// W = 2, pass s+1 reads roots one pass stale — still members of the same
/// component, so the partition is unchanged).
template <typename Key>
void run_passes(PassCtx& ctx, const EnginePlan& ep) {
  const MetaprepConfig& config = ctx.config;
  RankShared& my = ctx.my;
  obs::TraceSession& tr = ctx.tr;
  const int T = ctx.T, S = ctx.S;
  TupleArena<Key> arena(my.max_buffer_bytes);
  std::vector<RegionGrouper<Key>> groupers(static_cast<std::size_t>(T));

  for (int s0 = 0; s0 < S; s0 += ep.W) {
    util::throw_if_cancelled(config.cancel_token, "pass group");
    const int npasses = std::min(ep.W, S - s0);
    std::array<PassWork<Key>, 2> work;
    const std::span<PassWork<Key>> group(work.data(), static_cast<std::size_t>(npasses));
    group.front().t0 = span_begin(tr);
    for (std::size_t i = 0; i < group.size(); ++i) {
      PassWork<Key>& w = group[i];
      w.s = s0 + static_cast<int>(i);
      w.route = &ep.routes[static_cast<std::size_t>(w.s)];
      if (ep.superkmer) w.streams.assign(static_cast<std::size_t>(T), {});  // filled by the sweep
    }
    // Declared after the arena, so an error unwinding the pass frees the
    // window (which waits for peers still storing into it) before the
    // arena frees the buffers it exposes.
    std::unique_ptr<mpsim::Window> window;
    if (!ep.superkmer) {
      const Step step(ctx, "KmerGen-Comm");
      window = open_window(ctx, group, arena);
    }

    kmergen_sweep(ctx, ep, group, window.get(), config.cc_opt && s0 > 0);

    progress_phase(ctx, "KmerGen-Comm");
    if (window) {
      const Step step(ctx, "KmerGen-Comm");
      window->fence();
      window.reset();
    } else {
      for (PassWork<Key>& w : group) {
        const Step step(ctx, "KmerGen-Comm");
        post_records(ctx, w);
      }
    }
    phase_boundary(ctx, "KmerGen-Comm");

    // Pass by pass.  Super-k-mer records at W = 2: pass s0+1's exchange
    // stays in flight while pass s0 sorts and unions (straggler ranks may
    // still be generating it); its receive is the pipeline's only
    // synchronization.
    const double window_t0 = span_begin(tr);
    for (PassWork<Key>& w : group) {
      util::throw_if_cancelled(config.cancel_token, "pass drain");
      if (ep.superkmer && ep.W > 1 && &w == &group.back()) {
        span_end(tr, "Overlap-Window", window_t0);
      }
      if (w.t0 < 0.0) w.t0 = span_begin(tr);
      if (ep.superkmer) receive_records(ctx, w, arena);
      group_regions(ctx, *w.recv, w.region, arena, groupers);
      arena.release(*w.recv);
      ctx.m_rss.set_max(static_cast<double>(util::current_rss_bytes()));
      span_end(tr, "Pass", w.t0);
    }
  }
}

/// Label-slice geometry for the merge tail's scatter: rank q's chunks cover
/// the read-ID interval [off[q], off[q] + len[q]).  Derived from the shared
/// chunk table, so every rank computes identical slices.  Paired-end
/// libraries interleave the per-rank intervals (mates share one ID), which
/// is why the slices may overlap and each rank's slice spans roughly 2R/P
/// IDs instead of R/P.
struct LabelSlices {
  std::vector<std::uint64_t> off;
  std::vector<std::uint64_t> len;

  LabelSlices(const DatasetIndex& index, const ChunkAssignment& ca, int P)
      : off(static_cast<std::size_t>(P), 0), len(static_cast<std::size_t>(P), 0) {
    for (int q = 0; q < P; ++q) {
      std::uint64_t lo = index.total_reads;
      std::uint64_t hi = 0;
      for (std::uint32_t c = ca.rank_begin(q); c < ca.rank_end(q); ++c) {
        const ChunkRecord& chunk = index.part.chunks[c];
        lo = std::min<std::uint64_t>(lo, chunk.first_read_id);
        hi = std::max<std::uint64_t>(hi, chunk.first_read_id + chunk.record_count);
      }
      if (hi > lo) {
        off[static_cast<std::size_t>(q)] = lo;
        len[static_cast<std::size_t>(q)] = hi - lo;
      }
    }
  }
};

/// What rank 0's MergeCC flatten learns about the global components.
struct ComponentSummary {
  std::vector<std::uint32_t> labels;        ///< final root per read
  std::uint64_t num_components = 0;
  std::uint32_t largest_root = 0;           ///< ties: smallest root
  std::vector<std::uint64_t> top_sizes;     ///< up to 10, descending
  std::vector<part::Component> components;  ///< output bins only
  part::BinPlan bin_plan;                   ///< output bins only
};

/// What MergeCC leaves on every rank for CC-I/O.
struct RankLabels {
  std::vector<std::uint32_t> slice;  ///< root per read ID of this rank's label slice
  part::RootSlotTable table;         ///< root -> output slot; kNoSlot is ".other"
};

/// MergeCC (§3.6).  The paper's pairwise tree (Figure 4) combines the
/// rank-local forests over ceil(log P) rounds, each shipping a full 4R-byte
/// component array.  Rank 0 then flattens labels and counts component sizes
/// across the thread team and fills @p summary.  Each rank receives only
/// the label slice covering its own chunk ranges plus the root->slot table
/// — the scaled form of "The global components list in Rank 0 is broadcast
/// to all other tasks" that ships O(R/P + #components) per rank instead of
/// O(R).  The paper's split table is {largest root -> 0}, built on every
/// rank from the broadcast 4-byte largest root; --output-bins=B broadcasts
/// the LPT table of all components (count, roots, slots).
RankLabels merge_cc(PassCtx& ctx, const LabelSlices& slices, ComponentSummary& summary) {
  const MetaprepConfig& config = ctx.config;
  mpsim::Comm& comm = ctx.comm;
  RankShared& my = ctx.my;
  const int p = ctx.p, P = ctx.P, T = ctx.T;
  const std::uint32_t R = ctx.index.total_reads;
  const bool bin_mode = config.output_bins >= 1;
  util::throw_if_cancelled(config.cancel_token, "MergeCC");
  progress_phase(ctx, "MergeCC");

  std::vector<std::uint32_t> parents = ctx.local_cc.parents();
  constexpr int kMergeTag = 1 << 20;
  int round = 0;
  for (int step = 1; step < P; step <<= 1, ++round) {
    if (p % (2 * step) == step) {
      const Step send_step(ctx, "Merge-Comm");
      comm.send(p - step, kMergeTag + round, parents.data(),
                parents.size() * sizeof(std::uint32_t));
      my.merge_comm_bytes += parents.size() * sizeof(std::uint32_t);
      break;  // this rank is inactive in later rounds
    }
    if (p % (2 * step) == 0 && p + step < P) {
      std::vector<std::uint32_t> incoming;
      {
        const Step recv_step(ctx, "Merge-Comm");
        incoming.resize(R);
        comm.recv(p + step, kMergeTag + round, incoming.data(),
                  incoming.size() * sizeof(std::uint32_t));
      }
      const Step merge_step(ctx, "MergeCC");
      // Each entry is an edge (i, p'[i]); union into the local forest.
      dsu::SerialDSU merged(std::move(parents));
      for (std::uint32_t i = 0; i < R; ++i) {
        if (incoming[i] != i) merged.unite(i, incoming[i]);
      }
      parents = merged.take_parents();
    }
  }

  RankLabels out;
  if (p == 0) {
    const Step flatten_step(ctx, "MergeCC");
    std::vector<std::uint32_t>& labels = summary.labels;
    labels.assign(R, 0);
    dsu::AtomicDSU final_dsu{std::span<const std::uint32_t>(parents)};
    std::vector<std::uint32_t> sizes(R, 0);
    const auto id_bounds = util::split_range(R, T);
    // Parallel find with path splitting; per-thread counts land directly
    // in the global size array via atomic increments, and the thread that
    // first touches a root claims it for the (deterministic-set) root
    // list — no O(R) post-scan, no O(R*T) per-thread arrays.
    std::vector<std::vector<std::uint32_t>> thread_roots(static_cast<std::size_t>(T));
    ctx.team.run([&](int t) {
      auto& my_roots = thread_roots[static_cast<std::size_t>(t)];
      for (std::size_t i = id_bounds[static_cast<std::size_t>(t)];
           i < id_bounds[static_cast<std::size_t>(t) + 1]; ++i) {
        const std::uint32_t root = final_dsu.find(static_cast<std::uint32_t>(i));
        labels[i] = root;
        const std::uint32_t prev =
            std::atomic_ref<std::uint32_t>(sizes[root]).fetch_add(1, std::memory_order_relaxed);
        if (prev == 0) my_roots.push_back(root);
      }
    });
    std::vector<std::uint32_t> roots;
    for (auto& tr_roots : thread_roots) {
      roots.insert(roots.end(), tr_roots.begin(), tr_roots.end());
    }
    if (check::enabled()) {
      // The merged forest must still be a forest (union-by-index promises
      // acyclicity even under the CAS races of LocalCC), and the per-root
      // size counts must conserve the read count: every read labeled once.
      check::verify_parent_forest(parents, "MergeCC merged forest (rank 0)");
      std::uint64_t labeled = 0;
      for (std::uint32_t root : roots) labeled += sizes[root];
      check::verify_size_conservation(labeled, R, "MergeCC flatten component sizes");
    }
    // Largest components first (size desc, root asc): the first is the
    // ".lc" component, the first ten sizes are the reported top sizes.
    const auto top = std::min<std::size_t>(10, roots.size());
    std::partial_sort(roots.begin(), roots.begin() + static_cast<std::ptrdiff_t>(top),
                      roots.end(), [&](std::uint32_t a, std::uint32_t b) {
                        return sizes[a] != sizes[b] ? sizes[a] > sizes[b] : a < b;
                      });
    summary.num_components = roots.size();
    summary.largest_root = roots.front();
    for (std::size_t i = 0; i < top; ++i) summary.top_sizes.push_back(sizes[roots[i]]);
    if (bin_mode) {
      // Component weights in estimated bp: reads * mean bases per read
      // (per-read lengths are not in the index; DESIGN.md documents the
      // proxy).  128-bit intermediate so huge datasets cannot overflow.
      summary.components.reserve(roots.size());
      for (std::uint32_t root : roots) {
        summary.components.push_back(part::Component{
            root, sizes[root],
            static_cast<std::uint64_t>(static_cast<unsigned __int128>(sizes[root]) *
                                       ctx.index.total_bases / R)});
      }
      summary.bin_plan = part::greedy_bin_pack(summary.components, config.output_bins);
      out.table = part::make_root_slot_table(summary.components, summary.bin_plan);
    }
  }

  out.slice.resize(slices.len[static_cast<std::size_t>(p)]);
  {
    obs::TraceSpan bc_span("Merge-Comm");
    WallTimer bc_timer;
    // Label scatter: every rank gets the slice its CC-I/O chunks index.
    std::vector<std::uint64_t> byte_off(static_cast<std::size_t>(P));
    std::vector<std::uint64_t> byte_len(static_cast<std::size_t>(P));
    for (std::size_t q = 0; q < byte_off.size(); ++q) {
      byte_off[q] = slices.off[q] * sizeof(std::uint32_t);
      byte_len[q] = slices.len[q] * sizeof(std::uint32_t);
    }
    // summary is rank 0's to read: the other ranks learn it from rank 0.
    comm.scatterv(p == 0 ? summary.labels.data() : nullptr, byte_off, byte_len,
                  out.slice.data(), 0);
    std::uint32_t largest_root = p == 0 ? summary.largest_root : 0;
    comm.broadcast(&largest_root, sizeof(largest_root), 0);
    if (!bin_mode) {
      out.table.roots = {largest_root};
      out.table.slots = {0};
    } else if (P > 1) {
      // Compact root -> bin table: O(#components), not O(R).
      std::uint64_t ncomp = out.table.roots.size();
      comm.broadcast(&ncomp, sizeof(ncomp), 0);
      out.table.roots.resize(ncomp);
      out.table.slots.resize(ncomp);
      if (ncomp > 0) {
        comm.broadcast(out.table.roots.data(), ncomp * sizeof(std::uint32_t), 0);
        comm.broadcast(out.table.slots.data(), ncomp * sizeof(std::uint16_t), 0);
      }
    }
    if (p != 0) my.times.add("Merge-Comm", bc_timer.seconds());
  }
  phase_boundary(ctx, "MergeCC");
  return out;
}

/// CC-I/O (§3.6): each thread re-reads its FASTQ chunks and appends every
/// record to "<dataset>.p<rank>.t<thread>.<tag>.fastq", where the tag names
/// the table slot of the record's root: "lc" for the paper split's slot 0,
/// "b<j>" for output bin j, and "other" for roots not in the table.  A file
/// is opened the first time a record lands in it, so no thread leaves empty
/// files behind.  Labels come from the scattered slice, indexed relative to
/// this rank's slice offset.
void write_partitions(PassCtx& ctx, const RankLabels& labels, std::uint64_t slice_off) {
  const MetaprepConfig& config = ctx.config;
  const DatasetIndex& index = ctx.index;
  const int p = ctx.p;
  const bool bin_mode = config.output_bins >= 1;
  const Step step(ctx, "CC-I/O", true);
  // Writer per slot; the extra last entry stands for kNoSlot.
  const std::size_t nslots = bin_mode ? static_cast<std::size_t>(config.output_bins) : 1;
  constexpr std::size_t kClosed = static_cast<std::size_t>(-1);
  std::vector<std::vector<OutputFile>> thread_files(static_cast<std::size_t>(ctx.T));
  ctx.team.run([&](int t) {
    const std::string base = config.output_dir + "/" + index.name + ".p" + std::to_string(p) +
                             ".t" + std::to_string(t) + ".";
    auto& files = thread_files[static_cast<std::size_t>(t)];
    std::vector<std::unique_ptr<io::FastqWriter>> writers;
    std::vector<std::size_t> writer_of(nslots + 1, kClosed);
    for (std::uint32_t c = ctx.ca.thread_begin(p, t); c < ctx.ca.thread_end(p, t); ++c) {
      util::throw_if_cancelled(config.cancel_token, "CC-I/O chunk");
      const auto buffer = read_chunk(index, c);
      const obs::MemCharge io_mem("io", buffer.size());
      for_each_chunk_record(
          index, c, buffer, config.parse_mode,
          [&](std::uint32_t read_id, std::string_view id, std::string_view seq,
              std::string_view qual) {
            const std::uint16_t slot = labels.table.slot_of(labels.slice[read_id - slice_off]);
            const bool other = slot == part::RootSlotTable::kNoSlot;
            std::size_t& w = writer_of[other ? nslots : slot];
            if (w == kClosed) {
              std::string path = base + (other ? "other" : bin_mode ? "b" : "lc");
              if (!other && bin_mode) path += std::to_string(slot);
              files.push_back({{path + ".fastq", 0}, slot});
              writers.push_back(std::make_unique<io::FastqWriter>(files.back().file.path));
              w = writers.size() - 1;
            }
            writers[w]->write(id, seq, qual);
            ++files[w].file.records;
          });
      obs::Progress::global().chunk_done();
    }
    // Explicit close so a failed flush (e.g. ENOSPC) surfaces as a typed
    // Error instead of being swallowed by the destructor.
    for (auto& w : writers) w->close();
  });
  for (auto& files : thread_files) {
    for (auto& f : files) ctx.my.output_files.push_back(std::move(f));
  }
}

/// One run's observability, from setup to restore.  The config's per-
/// session tracer, metrics and memory registries become this thread's
/// overrides for the run: everything below resolves sinks through
/// obs::*::current(), and the overrides propagate to ThreadTeam workers and
/// mpsim rank threads, so a null config keeps the process globals.  When
/// the config names output files the run owns its session's tracer and
/// metrics: cleared and enabled here, written by export_artifacts, and
/// restored when the scope ends, also when an Error unwinds the run.
/// attr_out needs the span data, so it forces tracing like trace_out.
class RunObservability {
 public:
  RunObservability(const MetaprepConfig& config, std::uint64_t progress_ticks)
      : config_(config), session_bind_(session_of(config)) {
    if (want_trace_) {
      tr_.clear();
      tr_.enable();
    }
    if (!config.metrics_out.empty()) {
      metrics_.reset_values();
      metrics_.set_enabled(true);
    }
    // Memory attribution rides with tracing: its subsystem high-water marks
    // feed the same report, and its cost discipline is the same one-relaxed-
    // load-when-off, so untraced runs are unaffected.
    if (traced_ && !mem_was_enabled_) {
      mem_.reset();
      mem_.set_enabled(true);
    }
    // --progress: one stderr line driven by the pipeline's phase boundaries.
    if (config.progress) {
      obs::Progress::global().set_enabled(true);
      obs::Progress::global().begin_run(progress_ticks);
    }
  }
  RunObservability(const RunObservability&) = delete;
  RunObservability& operator=(const RunObservability&) = delete;
  ~RunObservability() {
    if (config_.progress) {
      obs::Progress::global().finish();
      obs::Progress::global().set_enabled(false);
    }
    if (!config_.metrics_out.empty()) metrics_.set_enabled(metrics_were_enabled_);
    if (want_trace_ && !trace_was_enabled_) tr_.disable();
    if (traced_ && !mem_was_enabled_) mem_.set_enabled(false);
  }

  [[nodiscard]] obs::TraceSession& tr() const { return tr_; }
  [[nodiscard]] obs::MemRegistry& mem() const { return mem_; }
  [[nodiscard]] bool traced() const { return traced_; }

 private:
  static util::SessionContext session_of(const MetaprepConfig& config) {
    util::SessionContext ctx = util::SessionContext::capture();
    if (config.trace_session != nullptr) ctx.trace = config.trace_session;
    if (config.metrics_registry != nullptr) ctx.metrics = config.metrics_registry;
    if (config.mem_registry != nullptr) ctx.mem = config.mem_registry;
    return ctx;
  }

  const MetaprepConfig& config_;
  const util::ScopedSessionContext session_bind_;  // first: the sinks below resolve through it
  obs::TraceSession& tr_ = obs::TraceSession::current();
  obs::MetricsRegistry& metrics_ = obs::metrics();
  obs::MemRegistry& mem_ = obs::MemRegistry::current();
  const bool want_trace_ = !config_.trace_out.empty() || !config_.attr_out.empty();
  const bool trace_was_enabled_ = tr_.enabled();
  const bool traced_ = want_trace_ || trace_was_enabled_;
  const bool metrics_were_enabled_ = metrics_.enabled();
  const bool mem_was_enabled_ = mem_.enabled();
};

/// What PackedIngest leaves for the passes: the arena and what it cost.
struct PackedIngest {
  io::PackedStore store;
  io::PackedStoreStats stats{};
  double seconds = 0.0;
};

/// PackedIngest (--read-store=packed): the run's single FASTQ parse.  Every
/// record lands 2-bit-packed in an arena; the KmerGen scans walk the arena
/// and the per-pass text re-parse disappears.  The arena lives in memory
/// for the run and never touches disk.  The ingest is deliberately
/// inside the measured wall: packed mode must pay for its arena to claim a
/// win over text mode.  The parse is sharded over the run's worker budget,
/// capped at the machine's real core count — mpsim ranks oversubscribe
/// cores by design, but for the ingest (pure local CPU work, no simulated
/// communication) extra threads on a small host are pure overhead.  Shards
/// merge deterministically, so the arena bytes never depend on the thread
/// count.
PackedIngest ingest_packed(const DatasetIndex& index, const MetaprepConfig& config,
                           obs::TraceSession& tr) {
  const int threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                                 config.num_ranks * config.threads_per_rank);
  PackedIngest out;
  WallTimer timer;
  const double t0 = span_begin(tr);
  out.store = build_packed_store_in_memory(index, config.parse_mode, threads, &out.stats);
  span_end(tr, "PackedIngest", t0);
  out.seconds = timer.seconds();
  return out;
}

/// Result assembly: rank 0's component summary, every rank's accounting,
/// the packed ingest and the world's comm matrices become the result;
/// --output-bins writes its manifest; the exchange counters are published.
PipelineResult assemble_result(const DatasetIndex& index, const MetaprepConfig& config,
                               ComponentSummary& summary, std::vector<RankShared>& shared,
                               const PackedIngest& packed, const mpsim::World& world,
                               const LabelSlices& slices) {
  const std::uint32_t R = index.total_reads;
  const int P = config.num_ranks;
  PipelineResult result;
  result.num_reads = R;
  result.labels = std::move(summary.labels);
  result.num_components = summary.num_components;
  result.largest_root = summary.largest_root;
  result.largest_size = summary.top_sizes.front();
  result.largest_fraction = static_cast<double>(result.largest_size) / static_cast<double>(R);
  result.top_component_sizes = std::move(summary.top_sizes);
  std::vector<part::BinFile> files;
  std::vector<std::uint16_t> file_slots;
  for (auto& rs : shared) {
    result.step_times.merge_max(rs.times);
    result.rank_times.push_back(rs.times);
    result.total_tuples += rs.tuples;
    result.merge_comm_bytes += rs.merge_comm_bytes;
    result.max_tuple_buffer_bytes = std::max(result.max_tuple_buffer_bytes, rs.max_buffer_bytes);
    for (auto& f : rs.output_files) {
      result.output_files.push_back(f.file.path);
      files.push_back(std::move(f.file));
      file_slots.push_back(f.slot);
    }
    result.cc_iterations_max = std::max(result.cc_iterations_max, rs.cc_iterations);
    result.records_skipped += rs.records_skipped;
    result.exchange_bytes += rs.exchange_bytes;
    result.exchange_bytes_raw += rs.exchange_bytes_raw;
    result.superkmer_records += rs.superkmer_records;
  }
  if (result.exchange_bytes_raw > 0) {
    result.superkmer_ratio = static_cast<double>(result.exchange_bytes) /
                             static_cast<double>(result.exchange_bytes_raw);
  }
  if (config.read_store == ReadStore::kPacked) {
    // The arena recorded every skip at ingest; the scans saw none.  Text
    // mode accumulated the same distinct-record count from pass 1.
    result.records_skipped = packed.stats.skipped;
    result.packed_ingest_seconds = packed.seconds;
    result.packed_store_bytes = packed.stats.file_bytes;
    result.step_times.add("PackedIngest", packed.seconds);
  }
  result.traffic_matrix = world.traffic_matrix();
  result.message_matrix = world.message_matrix();
  result.total_traffic_bytes = world.total_traffic_bytes();
  result.message_count = world.message_count();
  result.sim_comm_seconds = world.max_simulated_comm_seconds();

  // Merge/output tail accounting: what the label scatter actually shipped
  // cross-rank (rank 0 keeps its own slice) and, in bin mode, the compact
  // root->bin table broadcast — O(R/P + #components) per rank versus the
  // old O(R) full-label broadcast.
  for (int q = 1; q < P; ++q) {
    result.label_scatter_bytes += slices.len[static_cast<std::size_t>(q)] * sizeof(std::uint32_t);
  }
  if (config.output_bins >= 1) {
    if (P > 1) {
      const std::uint64_t table_bytes =
          sizeof(std::uint64_t) +
          summary.num_components * (sizeof(std::uint32_t) + sizeof(std::uint16_t));
      result.root_table_bytes = static_cast<std::uint64_t>(P - 1) * table_bytes;
    }
    result.bin_reads = summary.bin_plan.bin_reads;
    result.bin_weights_bp = summary.bin_plan.bin_weight_bp;
    result.bin_skew = summary.bin_plan.skew();
    if (config.write_output) {
      const part::BinManifest manifest = part::build_bin_manifest(
          index.name, R, summary.components, summary.bin_plan, files, file_slots);
      result.bin_manifest_path = config.output_dir + "/" + index.name + ".bins.json";
      part::save_bin_manifest(manifest, result.bin_manifest_path);
    }
  }
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("part.label_scatter_bytes").add(result.label_scatter_bytes);
  m.counter("part.root_table_bytes").add(result.root_table_bytes);
  m.counter("comm.alltoallv_bytes").add(result.exchange_bytes);
  m.counter("comm.alltoallv_bytes_raw").add(result.exchange_bytes_raw);
  m.counter("comm.superkmer_records").add(result.superkmer_records);
  if (result.exchange_bytes_raw > 0) m.gauge("comm.superkmer_ratio").set(result.superkmer_ratio);
  return result;
}

/// Artifact export: a traced run's attribution report (span analysis, comm
/// matrices, measured-vs-modeled memory), the run-level metrics, and the
/// requested metrics, attr and trace files.  Every run exports here, the
/// R == 0 short cut included.
void export_artifacts(const MetaprepConfig& config, const RunObservability& run_obs,
                      const MemoryModelInput& mm, double run_wall_s,
                      const std::vector<obs::RssSample>& rss_samples, PipelineResult& result) {
  const int P = config.num_ranks;
  obs::TraceSession& tr = run_obs.tr();
  const double comm_skew = obs::comm_matrix_skew(result.traffic_matrix, P);
  if (run_obs.traced()) {
    obs::AttrReport ar = obs::PhaseAccountant::analyze(tr.snapshot(), run_wall_s * 1e6);
    ar.ranks = P;
    ar.threads = config.threads_per_rank;
    ar.passes = result.passes_used;
    ar.comm_ranks = P;
    ar.comm_bytes = result.traffic_matrix;
    ar.comm_msgs = result.message_matrix;
    ar.comm_skew = comm_skew;
    ar.peak_rss_bytes = util::peak_rss_bytes();
    ar.rss_samples = rss_samples;
    // The model predicts bytes per task; the registry measures the whole
    // process hosting all P ranks, so predictions scale by P.  Subsystems
    // without a model term ("sort", "comm", "packed") report measured-only.
    const MemoryBreakdown pred = estimate_memory(mm);
    const auto up = static_cast<std::uint64_t>(P);
    for (const auto& [name, usage] : run_obs.mem().snapshot()) {
      obs::MemSubsystem ms;
      ms.name = name;
      ms.high_water_bytes =
          usage.high_water > 0 ? static_cast<std::uint64_t>(usage.high_water) : 0;
      if (name == "tuples") {
        ms.predicted_bytes = (pred.kmer_out + pred.kmer_in) * up;
      } else if (name == "dsu") {
        ms.predicted_bytes = (pred.p_array + pred.p_prime) * up;
      } else if (name == "io") {
        ms.predicted_bytes = pred.fastq_buffer * up;
      }
      ar.memory.push_back(std::move(ms));
    }
    ar.mem_predicted_total = pred.total * up;
    result.has_attr = true;
    result.attr = std::move(ar);
  }

  obs::MetricsRegistry& m = obs::metrics();
  m.gauge("pipeline.passes").set(static_cast<double>(result.passes_used));
  m.gauge("pipeline.components").set(static_cast<double>(result.num_components));
  m.gauge("pipeline.largest_fraction").set(result.largest_fraction);
  m.gauge("pipeline.max_tuple_buffer_bytes")
      .set_max(static_cast<double>(result.max_tuple_buffer_bytes));
  m.gauge("pipeline.cc_iterations_max").set_max(static_cast<double>(result.cc_iterations_max));
  m.gauge("mpsim.sim_comm_seconds").set_max(result.sim_comm_seconds);
  m.gauge("mem.rss_peak").set_max(static_cast<double>(util::peak_rss_bytes()));
  m.gauge("proc.peak_rss_bytes").set_max(static_cast<double>(util::peak_rss_bytes()));
  // Comm-matrix export as metrics: the off-diagonal byte cells land in one
  // histogram (the distribution is what skew summarizes) plus the skew
  // gauge, so metrics-only consumers see the exchange shape too.
  if (m.enabled() && P > 1) {
    obs::Histogram& h = m.histogram("mpsim.comm_matrix");
    for (std::size_t c = 0; c < result.traffic_matrix.size(); ++c) {
      const std::uint64_t v = result.traffic_matrix[c];
      if (c / static_cast<std::size_t>(P) != c % static_cast<std::size_t>(P) && v > 0) h.record(v);
    }
    m.gauge("mpsim.comm_matrix_skew").set_max(comm_skew);
  }
  if (result.has_attr) {
    for (const auto& ms : result.attr.memory) {
      m.gauge("mem." + ms.name + ".high_water").set_max(static_cast<double>(ms.high_water_bytes));
    }
  }
  if (!config.metrics_out.empty()) m.write_jsonl(config.metrics_out);
  if (!config.attr_out.empty()) result.attr.write_json(config.attr_out);
  if (!config.trace_out.empty()) tr.write_chrome_json(config.trace_out);
  tr.flush();  // no-op unless the session has an armed flush path
}

}  // namespace

PipelineResult run_metaprep(const DatasetIndex& index, const MetaprepConfig& config) {
  // Validation and S: one plan, shared with daemon admission.  Its memory
  // input also feeds the attribution report's predicted-vs-actual table.
  const RunPlan run_plan = plan_run(config, index);
  const int S = run_plan.num_passes;
  const int P = config.num_ranks;
  const int T = config.threads_per_rank;
  const std::uint32_t R = index.total_reads;
  const bool superkmer = config.comm_compress == CommCompress::kSuperKmer;
  const int W = config.pipeline_mode == PipelineMode::kOverlap ? 2 : 1;

  // Progress ticks: the chunk reads of each KmerGen sweep (one per group of
  // W passes), plus the CC-I/O sweep when output is on.
  const std::uint64_t nchunks = index.part.num_chunks();
  const RunObservability run_obs(
      config, nchunks * static_cast<std::uint64_t>((S + W - 1) / W) +
                  (config.write_output ? nchunks : 0));

  // Zero-component hardening: an empty dataset short-circuits to a fully
  // formed empty result in either pipeline mode — no passes, no comm, no
  // ghost ".other.fastq" files, no sentinel roots — and exports like any run.
  if (R == 0) {
    PipelineResult result;
    result.passes_used = S;
    export_artifacts(config, run_obs, run_plan.memory, 0.0, {}, result);
    return result;
  }

  const PassPlan plan(index.mer_hist, S, P, T);
  const ChunkAssignment ca(index.part.num_chunks(), P, T);
  const EnginePlan engine{W, superkmer, config.superkmer_minimizer_len,
                          make_routes(plan, S, P, T, superkmer)};
  const LabelSlices slices(index, ca, P);
  mpsim::World world(P, config.cost_model);
  std::vector<RankShared> shared(static_cast<std::size_t>(P));
  ComponentSummary summary;  // written by rank 0 only

  WallTimer run_timer;  // measured wall for the attribution report
  PackedIngest packed;
  if (config.read_store == ReadStore::kPacked) packed = ingest_packed(index, config, run_obs.tr());
  world.run([&](mpsim::Comm& comm) {
    const int p = comm.rank();
    obs::TraceSession::set_thread_identity(p, 0);
    RankShared& my = shared[static_cast<std::size_t>(p)];
    ThreadTeam team(T);
    dsu::AtomicDSU local_cc(R);
    PassCtx ctx{index, config, plan, ca, comm, team, local_cc, my,
                packed.store ? &packed.store : nullptr,
                p, P, T, S, config.k, index.mer_hist.m};
    kmer::with_kmer_type(config.k, [&](auto key) { run_passes<decltype(key)>(ctx, engine); });
    const RankLabels labels = merge_cc(ctx, slices, summary);
    if (config.write_output) {
      write_partitions(ctx, labels, slices.off[static_cast<std::size_t>(p)]);
    }
  });
  const double run_wall_s = run_timer.seconds();
  // Drop the arena before assembling the result so its pages are returned
  // (and the packed mem subsystem credited) inside the run.
  packed.store = io::PackedStore();

  PipelineResult result = assemble_result(index, config, summary, shared, packed, world, slices);
  result.passes_used = S;
  export_artifacts(config, run_obs, run_plan.memory, run_wall_s, shared[0].rss_samples, result);
  return result;
}

std::vector<std::uint32_t> reference_components(const DatasetIndex& index,
                                                const KmerFreqFilter& filter,
                                                io::ParseMode parse_mode) {
  const int k = index.k;
  return kmer::with_kmer_type(k, [&](auto key) {
    using Key = decltype(key);
    std::map<Key, std::vector<std::uint32_t>> kmer_reads;
    for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
      const auto buffer = read_chunk(index, c);
      for_each_chunk_record(
          index, c, buffer, parse_mode,
          [&](std::uint32_t read_id, std::string_view, std::string_view seq, std::string_view) {
            kmer::KmerTraits<Key>::for_each_canonical(
                seq, k, [&](Key km, std::size_t) { kmer_reads[km].push_back(read_id); });
          });
    }
    dsu::SerialDSU dsu(index.total_reads);
    for (const auto& [km, reads] : kmer_reads) {
      if (!filter.accepts(reads.size())) continue;
      for (std::size_t i = 1; i < reads.size(); ++i) dsu.unite(reads[i - 1], reads[i]);
    }
    return dsu.labels();
  });
}

}  // namespace metaprep::core
