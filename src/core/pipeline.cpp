#include "core/pipeline.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "check/invariants.hpp"
#include "core/memory_model.hpp"
#include "core/packed_ingest.hpp"
#include "core/plan.hpp"
#include "dsu/dsu.hpp"
#include "io/fastq.hpp"
#include "kmer/scanner.hpp"
#include "kmer/superkmer.hpp"
#include "mpsim/comm.hpp"
#include "obs/attr.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "part/part.hpp"
#include "sort/radix.hpp"
#include "util/buffer_pool.hpp"
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

/// Tuple arrays in SoA layout.  keys_hi is used only for k > 32 ("wide"):
/// the 12-byte tuple becomes the paper's 20-byte tuple (§4.4).
struct TupleBuffer {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> keys_hi;
  std::vector<std::uint32_t> vals;
  [[nodiscard]] std::size_t size() const noexcept { return vals.size(); }
};

/// The one lease path for tuple arrays.  Every pass buffer (send, receive,
/// radix scratch) is leased from util::BufferPool under the "tuples" memory
/// tag.  A released buffer stays with its rank as a spare for the next
/// acquire, as the paper's per-task tuple arrays persist across passes.
/// Mid-run the arena only takes from the pool: ranks share one pool, so a
/// buffer one rank handed back could be taken (or evicted) by another
/// rank's miss, and which rank pays fresh page faults would depend on
/// thread timing.  Instead a miss discards the largest spare (the one a
/// growing vector would have reallocated) before leasing fresh, which keeps
/// each rank's buffers at about its live leases.  Whatever the arena still
/// holds when it dies (at run end, or when a cancel or a typed Error unwinds
/// mid-pass) goes back to the pool for the next run, so the pool's lease
/// count always drains.
class TupleArena {
 public:
  TupleArena(util::BufferPool& pool, bool wide, std::uint64_t& max_live_bytes)
      : pool_(pool), wide_(wide), max_live_bytes_(max_live_bytes) {}
  TupleArena(const TupleArena&) = delete;
  TupleArena& operator=(const TupleArena&) = delete;
  ~TupleArena() {
    spare_.splice(spare_.end(), leased_);
    const obs::MemScope tuples_scope("tuples");
    for (TupleBuffer& b : spare_) {
      try {
        pool_.release(std::move(b.keys));
        // keys_hi is only leased for wide keys; releasing the empty vector
        // would (correctly) trip the pool's double-release check.
        if (wide_) pool_.release(std::move(b.keys_hi));
        pool_.release(std::move(b.vals));
      } catch (...) {
        // Unwind path: the original exception matters more.
      }
    }
  }

  TupleBuffer& acquire(std::size_t n, std::size_t reserve = 0) {
    const std::size_t cap = std::max(n, reserve);
    auto fits = [&](const TupleBuffer& b) {
      return b.vals.capacity() >= cap && b.keys.capacity() >= cap &&
             (!wide_ || b.keys_hi.capacity() >= cap);
    };
    auto best = spare_.end();
    auto largest = spare_.end();
    for (auto it = spare_.begin(); it != spare_.end(); ++it) {
      if (fits(*it) && (best == spare_.end() || it->vals.capacity() < best->vals.capacity()))
        best = it;
      if (largest == spare_.end() || it->vals.capacity() > largest->vals.capacity()) largest = it;
    }
    if (best != spare_.end()) {
      leased_.splice(leased_.end(), spare_, best);
      TupleBuffer& b = leased_.back();
      b.keys.resize(n);
      if (wide_) b.keys_hi.resize(n);
      b.vals.resize(n);
      note_live(n);
      return b;
    }
    const obs::MemScope tuples_scope("tuples");  // tags the pool calls below
    if (largest != spare_.end()) {
      pool_.discard(std::move(largest->keys));
      if (wide_) pool_.discard(std::move(largest->keys_hi));
      pool_.discard(std::move(largest->vals));
      spare_.erase(largest);
    }
    TupleBuffer& b = leased_.emplace_back();
    b.keys = pool_.acquire_u64(cap);
    b.keys.resize(n);
    if (wide_) {
      b.keys_hi = pool_.acquire_u64(cap);
      b.keys_hi.resize(n);
    }
    b.vals = pool_.acquire_u32(cap);
    b.vals.resize(n);
    note_live(n);
    return b;
  }

  void release(TupleBuffer& b) {
    live_bytes_ -= bytes_of(b.size());
    for (auto it = leased_.begin(); it != leased_.end(); ++it) {
      if (&*it == &b) {
        spare_.splice(spare_.end(), leased_, it);
        return;
      }
    }
  }

 private:
  [[nodiscard]] std::uint64_t bytes_of(std::size_t n) const { return n * (wide_ ? 20ull : 12ull); }
  void note_live(std::size_t n) {
    live_bytes_ += bytes_of(n);
    max_live_bytes_ = std::max(max_live_bytes_, live_bytes_);
  }

  util::BufferPool& pool_;
  bool wide_;
  std::uint64_t& max_live_bytes_;
  std::uint64_t live_bytes_ = 0;
  std::list<TupleBuffer> leased_;  ///< lists: references stay valid across splices
  std::list<TupleBuffer> spare_;
};

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

struct RankShared {
  StepTimes times;
  std::vector<std::string> output_files;
  int cc_iterations = 0;
  std::uint64_t tuples = 0;
  std::uint64_t max_buffer_bytes = 0;
  std::uint64_t merge_comm_bytes = 0;
  std::vector<part::BinFile> bin_files;       ///< binned-output files this rank wrote
  std::vector<std::uint16_t> bin_file_bins;   ///< bin of bin_files[i]
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
  obs::TraceSession& tr;
  obs::Counter& m_tuples;
  obs::Counter& m_cc_edges;
  obs::Gauge& m_rss;
  obs::Gauge& m_peak;
  /// Non-null in --read-store=packed runs: the mmap'd 2-bit arena KmerGen
  /// scans instead of re-reading FASTQ text each pass.
  const io::PackedStore* packed;
  int p, P, T, S, k, m;
  bool wide;
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

/// Per-k-mer view of a record: f64(km, pos) per canonical k-mer when
/// k <= 32, f128(km, pos) otherwise.
template <typename F64, typename F128>
void for_each_kmer(const RecordView& rec, int k, bool wide, F64&& f64, F128&& f128) {
  if (rec.words != nullptr) {
    if (!wide) {
      kmer::for_each_canonical_kmer64_packed(rec.words, rec.len, rec.npos, rec.ncount, k, f64);
    } else {
      kmer::for_each_canonical_kmer128_packed(rec.words, rec.len, rec.npos, rec.ncount, k, f128);
    }
  } else {
    const std::string_view seq(rec.text, rec.len);
    if (!wide) {
      kmer::for_each_canonical_kmer64(seq, k, f64);
    } else {
      kmer::for_each_canonical_kmer128(seq, k, f128);
    }
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
    const ChunkRecord& chunk = index.part.chunks[c];
    WallTimer io_timer;
    const double io_t0 = span_begin(ctx.tr);
    const auto buffer =
        io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
    span_end(ctx.tr, "KmerGen-I/O", io_t0);
    const obs::MemCharge io_mem("io", buffer.size());
    io_s += io_timer.seconds();

    WallTimer gen_timer;
    const double gen_t0 = span_begin(ctx.tr);
    std::uint32_t read_id = chunk.first_read_id;
    io::ParseOptions popt{ctx.config.parse_mode, index.files[chunk.file], chunk.offset,
                          [&read_id] { ++read_id; }};
    const io::BufferParseStats stats = io::for_each_record_in_buffer(
        std::string_view(buffer.data(), buffer.size()),
        [&](std::string_view, std::string_view seq, std::string_view) {
          // LocalCC-Opt (§3.5.1): from pass 2 on, enumerate the component
          // ID instead of the read ID for better locality.
          const std::uint32_t value = substitute ? local_cc.find(read_id) : read_id;
          rec_fn(value, RecordView{seq.data(), nullptr,
                                   static_cast<std::uint32_t>(seq.size()), nullptr, 0});
          ++read_id;
        },
        popt);
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
// pass), posts each pass's exchange, then drains pass by pass: complete
// the receive, expand it when the codec is super-k-mers, sort, then union.
//
// Every pass routes at (dest rank, dest thread) granularity: P·T slots,
// slot d·T+dt.  The receiver lays its T sort regions out by src rank, and
// within a src rank by src thread and generation order — the order the
// paper's LocalSort partition step produces — so the receive buffer IS the
// sort buffer and the stable radix sort sees the barrier schedule's input.
//
// Wire codecs:
//  - fixed tuples (comm_compress none): every size is precomputed from the
//    FASTQPart tables on both sides.  Per (stage, pass, tuple array) rank p
//    sends exactly one message to (p+stage) mod P, even when empty — the
//    dest rank's T contiguous slot sections — which is the paper's staged
//    all-to-all shape; the receiver checks its size against the geometry
//    and copies the T sections into its T regions.
//  - super-k-mer records (comm_compress superkmer): one message per (src,
//    dest, pass) with a u64 lens[T] header, then the T dest-thread
//    sections; the receiver sizes its regions from the headers and expands
//    in parallel.
// ---------------------------------------------------------------------------

/// Tags of the KmerGen exchange: one per (pass, tuple array), above the
/// MergeCC range (1 << 20).  The super-k-mer codec uses array 0 only.
constexpr int kKmerGenTagBase = 2'000'000;
inline int kmergen_tag(int s, int arr) { return kKmerGenTagBase + 3 * s + arr; }

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
struct PassWork {
  int s = 0;
  const PassRoute* route = nullptr;
  double t0 = -1.0;
  // Receive layout: T sort regions, region dt = blocks [q][dt] by src rank.
  std::vector<std::uint64_t> recv_count;  ///< [q][dt] tuples from src rank q
  std::vector<std::uint64_t> recv_block;  ///< [q][dt] element offsets
  std::vector<std::uint64_t> region;      ///< T+1 region offsets
  TupleBuffer* recv = nullptr;
  // Fixed codec: send geometry from the index tables.
  std::vector<std::uint64_t> cursor;      ///< [t][slot] write cursors of my thread t
  std::vector<std::uint64_t> send_end;    ///< [t][slot] where each cursor must end
  std::vector<std::uint64_t> slot_start;  ///< P*T+1: slot-major, by my thread within a slot
  TupleBuffer* send = nullptr;
  // Super-k-mer codec: per (my thread, slot) byte streams, then my own message.
  std::vector<std::vector<std::vector<std::byte>>> streams;  ///< [t][slot]
  std::vector<std::byte> self_msg;
};

/// Fixed codec: send and receive geometry of one pass from the FASTQPart
/// tables (O(chunks × P × T) bounded counts, each O(1)).
void fixed_geometry(const PassCtx& ctx, PassWork& w) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  const auto& bounds = w.route->slot_bounds;
  std::vector<std::uint64_t> send_count(static_cast<std::size_t>(T) * nslots, 0);  // [t][slot]
  for (int t = 0; t < T; ++t) {
    for (std::uint32_t c = ctx.ca.thread_begin(p, t); c < ctx.ca.thread_end(p, t); ++c) {
      ctx.index.part.add_range_counts(
          c, bounds, std::span(send_count).subspan(static_cast<std::size_t>(t) * nslots, nslots));
    }
  }
  column_major_offsets(send_count, static_cast<std::size_t>(T), nslots, w.cursor, w.slot_start);
  w.send_end = w.cursor;
  for (std::size_t i = 0; i < send_count.size(); ++i) w.send_end[i] += send_count[i];
  const auto my_bounds =
      std::span(bounds).subspan(static_cast<std::size_t>(p) * T, static_cast<std::size_t>(T) + 1);
  w.recv_count.assign(static_cast<std::size_t>(P) * T, 0);
  for (int q = 0; q < P; ++q) {
    for (std::uint32_t c = ctx.ca.rank_begin(q); c < ctx.ca.rank_end(q); ++c) {
      ctx.index.part.add_range_counts(
          c, my_bounds, std::span(w.recv_count).subspan(static_cast<std::size_t>(q) * T, T));
    }
  }
  column_major_offsets(w.recv_count, static_cast<std::size_t>(P), static_cast<std::size_t>(T),
                       w.recv_block, w.region);
}

/// Fixed codec, lenient parsing: records the (clean-data) chunk histograms
/// counted but the parser skipped leave under-filled (thread, slot) blocks,
/// and the precomputed geometry ships them regardless.  Fill the gaps with
/// sentinel tuples keyed by the slot's first bin (so every key stays in its
/// dest thread's bin range) whose value is kInvalidRead (so LocalCC ignores
/// them).
void fill_sentinels(const PassCtx& ctx, PassWork& w) {
  const std::size_t nslots = static_cast<std::size_t>(ctx.P) * ctx.T;
  TupleBuffer& buf = *w.send;
  const int shift = 2 * (ctx.k - ctx.m);
  for (std::size_t ts = 0; ts < w.cursor.size(); ++ts) {
    const std::uint64_t block_end = w.send_end[ts];
    if (w.cursor[ts] == block_end) continue;
    const auto bin = static_cast<std::uint64_t>(w.route->slot_bounds[ts % nslots]);
    std::uint64_t s_lo, s_hi;
    if (!ctx.wide) {
      s_lo = bin << shift;
      s_hi = 0;
    } else if (shift >= 64) {
      s_hi = bin << (shift - 64);
      s_lo = 0;
    } else {
      s_lo = bin << shift;
      s_hi = bin >> (64 - shift);
    }
    for (std::uint64_t at = w.cursor[ts]; at < block_end; ++at) {
      buf.keys[at] = s_lo;
      if (ctx.wide) buf.keys_hi[at] = s_hi;
      buf.vals[at] = kInvalidRead;
    }
    w.cursor[ts] = block_end;
  }
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
void kmergen_sweep(PassCtx& ctx, const EnginePlan& ep, std::span<PassWork> group,
                   bool substitute) {
  const int p = ctx.p, T = ctx.T, k = ctx.k, m = ctx.m;
  const bool wide = ctx.wide;
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
    // Tallies and write cursors live on this thread's stack or heap for
    // the sweep and are stored back once: the shared per-thread rows sit
    // a few words apart, and incrementing them per k-mer would bounce
    // their cache lines between the cores of the team.
    SweepCounts n;
    auto sweep = [&](auto&& on_record) {
      for (std::uint32_t c = ctx.ca.thread_begin(p, t); c < ctx.ca.thread_end(p, t); ++c) {
        n.skipped += scan_chunk(ctx, c, substitute, io_seconds[ut], gen_seconds[ut], on_record);
      }
    };
    if (!ep.superkmer) {
      // Fixed tuples written at this thread's precomputed cursors.  Plain
      // per-pass locals and an explicit branch keep pass 0's pointers in
      // registers on the per-k-mer path (W = 1 never takes the else).
      struct Out {
        const std::uint16_t* slot_of_bin = nullptr;
        std::uint64_t* cur = nullptr;
        std::uint64_t* keys = nullptr;
        std::uint64_t* keys_hi = nullptr;
        std::uint32_t* vals = nullptr;
      };
      // A cache line of padding on each side of the copy: it shares no
      // line with other threads' data, whatever the allocator does.
      constexpr std::size_t kPad = 64 / sizeof(std::uint64_t);
      std::array<std::vector<std::uint64_t>, 2> cursors;
      auto out_of = [&](std::size_t i) {
        if (i >= group.size()) return Out{};
        cursors[i].assign(nslots + 2 * kPad, 0);
        const auto row = group[i].cursor.begin() + static_cast<std::ptrdiff_t>(ut * nslots);
        std::copy(row, row + static_cast<std::ptrdiff_t>(nslots), cursors[i].begin() + kPad);
        TupleBuffer& b = *group[i].send;
        return Out{group[i].route->slot_of_bin.data(), cursors[i].data() + kPad, b.keys.data(),
                   b.keys_hi.data(), b.vals.data()};
      };
      const Out o0 = out_of(0);
      const Out o1 = out_of(1);
      auto put = [](const Out& o, std::uint32_t rel_bin, std::uint64_t key, std::uint32_t value) {
        const std::uint64_t at = o.cur[o.slot_of_bin[rel_bin]]++;
        o.keys[at] = key;
        o.vals[at] = value;
        return at;
      };
      sweep([&](std::uint32_t value, const RecordView& rec) {
        for_each_kmer(
            rec, k, wide,
            [&](std::uint64_t km, std::size_t) {
              const std::uint32_t bin = kmer::prefix_bin64(km, k, m);
              if (bin < lo || bin >= hi) return;
              if (bin < mid) {
                put(o0, bin - lo, km, value);
              } else {
                put(o1, bin - mid, km, value);
              }
            },
            [&](kmer::Kmer128 km, std::size_t) {
              const std::uint32_t bin = kmer::prefix_bin128(km, k, m);
              if (bin < lo || bin >= hi) return;
              if (bin < mid) {
                o0.keys_hi[put(o0, bin - lo, km.lo, value)] = km.hi;
              } else {
                o1.keys_hi[put(o1, bin - mid, km.lo, value)] = km.hi;
              }
            });
      });
      for (std::size_t i = 0; i < group.size(); ++i) {
        const auto mine = cursors[i].begin() + kPad;
        std::copy(mine, mine + static_cast<std::ptrdiff_t>(nslots),
                  group[i].cursor.begin() + static_cast<std::ptrdiff_t>(ut * nslots));
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
  const std::uint64_t tuple_bytes = ctx.wide ? 20 : 12;
  for (const SweepCounts& n : counts) {
    // The first sweep visits every record exactly once, so its skip count
    // is the number of *distinct* records lenient parsing dropped (later
    // sweeps re-discover the same skips in text mode).
    if (group.front().s == 0) my.records_skipped += n.skipped;
    if (!ep.superkmer) continue;
    my.exchange_bytes_raw += n.raw * tuple_bytes;
    my.tuples += n.kept;
    my.superkmer_records += n.records;
    ctx.m_tuples.add(n.kept);
  }
  phase_boundary(ctx, "KmerGen");
}

/// Fixed codec: tuple array @p arr of a buffer as bytes (0 keys, 1 vals,
/// 2 keys_hi) and its element size.
std::pair<std::byte*, std::size_t> tuple_array(TupleBuffer& b, int arr) {
  if (arr == 1) return {reinterpret_cast<std::byte*>(b.vals.data()), 4};
  return {reinterpret_cast<std::byte*>(arr == 0 ? b.keys.data() : b.keys_hi.data()), 8};
}

/// Fixed codec, one step of the paper's staged all-to-all (§3.3): in stage
/// i rank p sends (p+i) mod P one message per tuple array — the dest rank's
/// T contiguous slot sections, sent even when empty.
void fixed_send(PassCtx& ctx, PassWork& w, int arr, int stage) {
  const int P = ctx.P, T = ctx.T;
  const std::size_t d = static_cast<std::size_t>((ctx.p + stage) % P);
  const auto [sb, esz] = tuple_array(*w.send, arr);
  const std::uint64_t begin = w.slot_start[d * T];
  ctx.comm.isend(static_cast<int>(d), kmergen_tag(w.s, arr), sb + begin * esz,
                 (w.slot_start[(d + 1) * T] - begin) * esz);
}

/// ... and receives (p-i) mod P's message, checks its size against the
/// geometry and copies its T sections into the T sort regions.
void fixed_recv(PassCtx& ctx, PassWork& w, int arr, int stage) {
  const int P = ctx.P, T = ctx.T;
  const int q = (ctx.p - stage + P) % P;
  const std::size_t qs = static_cast<std::size_t>(q) * T;
  const auto [rb, esz] = tuple_array(*w.recv, arr);
  const std::vector<std::byte> msg = ctx.comm.recv_any_size(q, kmergen_tag(w.s, arr));
  std::uint64_t expected = 0;
  for (int dt = 0; dt < T; ++dt) expected += w.recv_count[qs + dt] * esz;
  if (msg.size() != expected) {
    throw util::comm_error("KmerGen-Comm: message from rank " + std::to_string(q) + " has " +
                           std::to_string(msg.size()) + " bytes, geometry expects " +
                           std::to_string(expected));
  }
  std::uint64_t off = 0;
  for (int dt = 0; dt < T; ++dt) {
    const std::uint64_t len = w.recv_count[qs + dt] * esz;
    if (len > 0) std::memcpy(rb + w.recv_block[qs + dt] * esz, msg.data() + off, len);
    off += len;
  }
}

/// Post one pass's exchange.  Sends are buffered (the mailbox owns the
/// in-flight copies — DESIGN.md "Buffer-pool ownership"), so the send side
/// is done when this returns and drain_receive completes the receives.  At
/// W = 1 nothing runs between post and drain, so the fixed codec completes
/// each stage's receive right after its send, as the paper's staged
/// all-to-all does: at most one message per rank is in flight.
void post_exchange(PassCtx& ctx, const EnginePlan& ep, PassWork& w, TupleArena& arena) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  RankShared& my = ctx.my;
  if (ep.superkmer) {
    // One message per (dest, pass), always sent: the u64 lens[T] header
    // makes even an empty message well-formed and keeps the receive count
    // deterministic.
    for (int d = 0; d < P; ++d) {
      std::vector<std::byte> msg;
      std::size_t total = 8u * static_cast<std::size_t>(T);
      for (int dt = 0; dt < T; ++dt) {
        for (int t = 0; t < T; ++t) {
          total += w.streams[static_cast<std::size_t>(t)][static_cast<std::size_t>(d) * T + dt]
                       .size();
        }
      }
      msg.reserve(total);
      for (int dt = 0; dt < T; ++dt) {
        std::uint64_t len = 0;
        for (int t = 0; t < T; ++t) {
          len += w.streams[static_cast<std::size_t>(t)][static_cast<std::size_t>(d) * T + dt]
                     .size();
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
        my.exchange_bytes += msg.size();
        ctx.comm.isend(d, kmergen_tag(w.s, 0), msg.data(), msg.size());
      }
    }
    return;
  }
  fill_sentinels(ctx, w);
  if (P == 1) {
    // Slot layout == region layout at P == 1: the generation buffer IS the
    // sort buffer; no exchange, no copy.
    w.recv = w.send;
    w.send = nullptr;
    return;
  }
  w.recv = &arena.acquire(w.region.back());
  const std::size_t my_slot = static_cast<std::size_t>(p) * T;
  for (int arr = 0; arr < (ctx.wide ? 3 : 2); ++arr) {
    const auto [sb, esz] = tuple_array(*w.send, arr);
    std::byte* rb = tuple_array(*w.recv, arr).first;
    for (int dt = 0; dt < T; ++dt) {  // stage 0: my own sections, plain copy
      const std::uint64_t len = w.recv_count[my_slot + dt];
      if (len > 0) {
        std::memcpy(rb + w.recv_block[my_slot + dt] * esz,
                    sb + w.slot_start[my_slot + dt] * esz, len * esz);
      }
    }
    for (int stage = 1; stage < P; ++stage) {
      fixed_send(ctx, w, arr, stage);
      if (ep.W == 1) fixed_recv(ctx, w, arr, stage);
    }
  }
  // Exchange-volume accounting (cross-rank tuples only, matching the
  // traffic matrix); uncompressed, so shipped == raw.
  const std::uint64_t cross =
      w.slot_start.back() - (w.slot_start[my_slot + T] - w.slot_start[my_slot]);
  my.exchange_bytes += cross * (ctx.wide ? 20u : 12u);
  my.exchange_bytes_raw += cross * (ctx.wide ? 20u : 12u);
  arena.release(*w.send);
  w.send = nullptr;
}

/// Complete one pass's receive into its T sort regions.  Fixed tuples at
/// W = 2: one message per (stage, array).  Super-k-mer records: size the
/// regions from the headers, validate and count every record, then decode
/// at exact offsets in parallel.
void drain_receive(PassCtx& ctx, const EnginePlan& ep, PassWork& w, TupleArena& arena) {
  const int P = ctx.P, T = ctx.T, p = ctx.p, k = ctx.k;
  const bool wide = ctx.wide;
  if (!ep.superkmer) {
    if (P == 1 || ep.W == 1) return;
    obs::TraceSpan wait_span("KmerGen-Comm");
    WallTimer wait_timer;
    for (int arr = 0; arr < (wide ? 3 : 2); ++arr) {
      for (int stage = 1; stage < P; ++stage) fixed_recv(ctx, w, arr, stage);
    }
    ctx.my.times.add("KmerGen-Comm", wait_timer.seconds());
    return;
  }

  std::vector<std::vector<std::byte>> msgs(static_cast<std::size_t>(P));
  msgs[static_cast<std::size_t>(p)] = std::move(w.self_msg);
  if (P > 1) {
    obs::TraceSpan wait_span("KmerGen-Comm");
    WallTimer wait_timer;
    for (int stage = 1; stage < P; ++stage) {
      const int q = (p - stage + P) % P;
      msgs[static_cast<std::size_t>(q)] = ctx.comm.recv_any_size(q, kmergen_tag(w.s, 0));
    }
    ctx.my.times.add("KmerGen-Comm", wait_timer.seconds());
  }
  std::uint64_t msg_bytes = 0;
  for (const auto& msg : msgs) msg_bytes += msg.size();
  const obs::MemCharge msgs_mem("comm", msg_bytes);

  progress_phase(ctx, "Expand");
  const double ex_t0 = span_begin(ctx.tr);
  WallTimer ex_timer;
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
  w.recv_count.assign(nslots, 0);
  ctx.team.run([&](int t) {
    for (int q = 0; q < P; ++q) {
      const std::size_t idx = static_cast<std::size_t>(q) * T + t;
      const std::byte* data = msgs[static_cast<std::size_t>(q)].data() + sec_off[idx];
      w.recv_count[idx] = kmer::count_superkmer_stream(data, sec_len[idx], k).kmers;
    }
  });
  column_major_offsets(w.recv_count, static_cast<std::size_t>(P), static_cast<std::size_t>(T),
                       w.recv_block, w.region);
  TupleBuffer& tuples = arena.acquire(w.region.back());
  w.recv = &tuples;
  const std::uint32_t R = ctx.index.total_reads;
  ctx.team.run([&](int t) {
    obs::TraceSession::set_thread_identity(p, t);
    for (int q = 0; q < P; ++q) {
      const std::size_t idx = static_cast<std::size_t>(q) * T + t;
      const std::byte* data = msgs[static_cast<std::size_t>(q)].data() + sec_off[idx];
      std::uint64_t at = w.recv_block[idx];
      kmer::SuperKmerReader reader(data, sec_len[idx], k);
      while (!reader.done()) {
        reader.next_header();
        const std::uint32_t value = reader.value();
        if (value >= R) throw util::parse_error("comm-compress: record value out of range");
        if (!wide) {
          reader.expand64([&](std::uint64_t km) {
            tuples.keys[at] = km;
            tuples.vals[at] = value;
            ++at;
          });
        } else {
          reader.expand128([&](kmer::Kmer128 km) {
            tuples.keys[at] = km.lo;
            tuples.keys_hi[at] = km.hi;
            tuples.vals[at] = value;
            ++at;
          });
        }
      }
    }
  });
  ctx.my.times.add("Expand", ex_timer.seconds());
  span_end(ctx.tr, "Expand", ex_t0);
  phase_boundary(ctx, "Expand");
}

/// LocalSort (§3.4): one stable radix sort per dest-thread region, with a
/// leased scratch as the out-of-place buffer.
void sort_regions(PassCtx& ctx, TupleBuffer& tuples, const std::vector<std::uint64_t>& region,
                  TupleArena& arena) {
  progress_phase(ctx, "LocalSort");
  const double sort_t0 = span_begin(ctx.tr);
  WallTimer sort_timer;
  TupleBuffer& scratch = arena.acquire(tuples.size());
  const int bits = 2 * ctx.k;
  const int digit = ctx.config.sort_digit_bits;
  ctx.team.run([&](int t) {
    const std::uint64_t lo = region[static_cast<std::size_t>(t)];
    const std::size_t n = region[static_cast<std::size_t>(t) + 1] - lo;
    if (n == 0) return;
    if (!ctx.wide) {
      sort::radix_sort_kv64(std::span(tuples.keys).subspan(lo, n),
                            std::span(tuples.vals).subspan(lo, n),
                            std::span(scratch.keys).subspan(lo, n),
                            std::span(scratch.vals).subspan(lo, n), bits, digit);
    } else {
      sort::radix_sort_kv128(std::span(tuples.keys_hi).subspan(lo, n),
                             std::span(tuples.keys).subspan(lo, n),
                             std::span(tuples.vals).subspan(lo, n),
                             std::span(scratch.keys_hi).subspan(lo, n),
                             std::span(scratch.keys).subspan(lo, n),
                             std::span(scratch.vals).subspan(lo, n), bits, digit);
    }
  });
  arena.release(scratch);
  ctx.my.times.add("LocalSort", sort_timer.seconds());
  span_end(ctx.tr, "LocalSort", sort_t0);
  phase_boundary(ctx, "LocalSort");
}

/// LocalCC (§3.5, Algorithm 1): runs of equal k-mers in each sorted region
/// become read-graph edges; union-find with buffered re-verification.
/// Sentinel tuples (kInvalidRead) never form an edge.
void union_regions(PassCtx& ctx, const TupleBuffer& tuples,
                   const std::vector<std::uint64_t>& region) {
  progress_phase(ctx, "LocalCC");
  const double cc_t0 = span_begin(ctx.tr);
  WallTimer cc_timer;
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  const KmerFreqFilter& filter = ctx.config.filter;
  std::vector<int> thread_iters(static_cast<std::size_t>(ctx.T), 0);
  ctx.team.run([&](int t) {
    const std::uint64_t hi = region[static_cast<std::size_t>(t) + 1];
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    std::uint64_t i = region[static_cast<std::size_t>(t)];
    while (i < hi) {
      std::uint64_t j = i + 1;
      if (!ctx.wide) {
        while (j < hi && tuples.keys[j] == tuples.keys[i]) ++j;
      } else {
        while (j < hi && tuples.keys[j] == tuples.keys[i] && tuples.keys_hi[j] == tuples.keys_hi[i])
          ++j;
      }
      if (filter.accepts(j - i)) {
        for (std::uint64_t x = i + 1; x < j; ++x) {
          const std::uint32_t u = tuples.vals[x - 1];
          const std::uint32_t v = tuples.vals[x];
          if (u == v) continue;
          if (u == kInvalidRead || v == kInvalidRead) continue;
          const std::uint32_t ru = local_cc.find(u);
          const std::uint32_t rv = local_cc.find(v);
          if (ru != rv) {
            local_cc.unite_once(ru, rv);
            edges.emplace_back(u, v);
          }
        }
      }
      i = j;
    }
    thread_iters[static_cast<std::size_t>(t)] =
        1 + dsu::process_edges_algorithm1(local_cc, edges);
    ctx.m_cc_edges.add(edges.size());
  });
  ctx.my.times.add("LocalCC", cc_timer.seconds());
  span_end(ctx.tr, "LocalCC", cc_t0);
  phase_boundary(ctx, "LocalCC");
  ctx.my.cc_iterations = std::max(ctx.my.cc_iterations,
                                  *std::max_element(thread_iters.begin(), thread_iters.end()));
}

/// The pass loop: groups of W passes, each one fused sweep, W posts, then
/// W drains.  With cc_opt every pass of a group substitutes component IDs
/// as of the group start (at W = 2, pass s+1 reads roots one pass stale —
/// still members of the same component, so the partition is unchanged).
void run_passes(PassCtx& ctx, const EnginePlan& ep) {
  const MetaprepConfig& config = ctx.config;
  RankShared& my = ctx.my;
  obs::TraceSession& tr = ctx.tr;
  const int T = ctx.T, S = ctx.S;
  util::BufferPool& pool =
      config.buffer_pool != nullptr ? *config.buffer_pool : util::BufferPool::global();
  TupleArena arena(pool, ctx.wide, my.max_buffer_bytes);

  for (int s0 = 0; s0 < S; s0 += ep.W) {
    util::throw_if_cancelled(config.cancel_token, "pass group");
    const int npasses = std::min(ep.W, S - s0);
    std::array<PassWork, 2> work;
    const std::span<PassWork> group(work.data(), static_cast<std::size_t>(npasses));
    group.front().t0 = span_begin(tr);
    for (std::size_t i = 0; i < group.size(); ++i) {
      PassWork& w = group[i];
      w.s = s0 + static_cast<int>(i);
      w.route = &ep.routes[static_cast<std::size_t>(w.s)];
      if (ep.superkmer) {
        w.streams.assign(static_cast<std::size_t>(T), {});  // filled by the sweep
        continue;
      }
      fixed_geometry(ctx, w);
      // Room for the receive count too: once posted, the send buffer's
      // storage comes back as this rank's LocalSort scratch.
      w.send = &arena.acquire(w.slot_start.back(), w.region.back());
      my.tuples += w.slot_start.back();
      ctx.m_tuples.add(w.slot_start.back());
    }

    kmergen_sweep(ctx, ep, group, config.cc_opt && s0 > 0);

    progress_phase(ctx, "KmerGen-Comm");
    for (PassWork& w : group) {
      obs::TraceSpan comm_span("KmerGen-Comm");
      WallTimer comm_timer;
      post_exchange(ctx, ep, w, arena);
      my.times.add("KmerGen-Comm", comm_timer.seconds());
    }
    phase_boundary(ctx, "KmerGen-Comm");

    // Drain pass by pass: at W = 2, pass s0+1's exchange stays in flight
    // while pass s0 sorts and unions (straggler ranks may still be
    // generating it); its receive is the pipeline's only synchronization.
    const double window_t0 = span_begin(tr);
    for (PassWork& w : group) {
      util::throw_if_cancelled(config.cancel_token, "pass drain");
      if (ep.W > 1 && &w == &group.back()) span_end(tr, "Overlap-Window", window_t0);
      if (w.t0 < 0.0) w.t0 = span_begin(tr);
      drain_receive(ctx, ep, w, arena);
      sort_regions(ctx, *w.recv, w.region, arena);
      union_regions(ctx, *w.recv, w.region);
      arena.release(*w.recv);
      ctx.m_rss.set_max(static_cast<double>(util::current_rss_bytes()));
      span_end(tr, "Pass", w.t0);
    }
  }
  // The arena hands its spares back to the shared pool when it dies.  A
  // rank that finished early must not do so while another rank still leases
  // for its last pass, or that lease would reuse the early rank's buffer.
  ctx.comm.barrier();
}

/// Dump the per-(src, dst) traffic matrices (--comm-matrix-out) as one JSON
/// object: {"ranks": P, "skew": s, "bytes": [[..]], "msgs": [[..]]}.
void write_comm_matrix(const std::string& path, int ranks,
                       const std::vector<std::uint64_t>& bytes,
                       const std::vector<std::uint64_t>& msgs, double skew) {
  std::string out = "{\n  \"ranks\": " + std::to_string(ranks) + ",\n  \"skew\": ";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", skew);
  out += buf;
  auto emit = [&](const char* name, const std::vector<std::uint64_t>& mat) {
    out += ",\n  \"";
    out += name;
    out += "\": [";
    for (int i = 0; i < ranks; ++i) {
      out += i > 0 ? ",\n    [" : "\n    [";
      for (int j = 0; j < ranks; ++j) {
        if (j > 0) out += ",";
        out += std::to_string(mat[static_cast<std::size_t>(i) * ranks + j]);
      }
      out += "]";
    }
    out += "\n  ]";
  };
  emit("bytes", bytes);
  emit("msgs", msgs);
  out += "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw util::io_error("comm matrix: cannot open for writing", path);
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const int rc = std::fclose(f);
  if (written != out.size() || rc != 0)
    throw util::io_error("comm matrix: short write", path);
}

}  // namespace

PipelineResult run_metaprep(const DatasetIndex& index, const MetaprepConfig& config) {
  const int k = config.k;
  if (k != index.k)
    throw util::config_error("run_metaprep: config.k differs from the index's k");
  if (k < index.mer_hist.m || k > kmer::kMaxK128)
    throw util::config_error("run_metaprep: k out of range");
  const int P = config.num_ranks;
  const int T = config.threads_per_rank;
  if (P < 1 || T < 1) throw util::config_error("run_metaprep: P and T must be >= 1");
  if (config.num_passes < 0)
    throw util::config_error("run_metaprep: num_passes must be >= 0 (0 = derive from budget)");
  // Every mode and codec routes through a 16-bit (dest rank, dest thread)
  // slot table; checked here, before any rank starts.
  if (static_cast<std::size_t>(P) * static_cast<std::size_t>(T) > 0xFFFF)
    throw util::config_error("run_metaprep: P*T must fit the 16-bit slot table (<= 65535)");
  if (config.output_bins < 0 || config.output_bins > 0xFFFF)
    throw util::config_error("run_metaprep: output_bins must be in [0, 65535]");
  const bool superkmer = config.comm_compress == CommCompress::kSuperKmer;
  if (superkmer && (config.superkmer_minimizer_len < 1 ||
                    config.superkmer_minimizer_len > std::min(k, 31)))
    throw util::config_error("comm-compress: superkmer_minimizer_len must be in [1, min(k, 31)]");
  const bool wide = k > kmer::kMaxK64;
  const int tuple_bytes = wide ? 20 : 12;
  const std::uint32_t R = index.total_reads;
  const int m = index.mer_hist.m;

  // Session plumbing: when the config names per-session observability
  // instances, install them as this thread's overrides for the whole run.
  // Everything below resolves sinks through obs::*::current(), and the
  // overrides propagate to ThreadTeam workers and mpsim rank threads, so a
  // null config keeps the historical global-singleton behaviour exactly.
  util::SessionContext session_ctx = util::SessionContext::capture();
  if (config.trace_session != nullptr) session_ctx.trace = config.trace_session;
  if (config.metrics_registry != nullptr) session_ctx.metrics = config.metrics_registry;
  if (config.mem_registry != nullptr) session_ctx.mem = config.mem_registry;
  const util::ScopedSessionContext session_bind(session_ctx);

  // Memory-model input, shared by pass derivation (S == 0) and the
  // attribution report's predicted-vs-actual reconciliation.
  MemoryModelInput mm;
  mm.total_tuples = index.mer_hist.total();
  mm.total_reads = R;
  mm.num_chunks = index.part.num_chunks();
  mm.max_chunk_bytes = index.max_chunk_bytes();
  mm.m = m;
  mm.num_ranks = P;
  mm.threads_per_rank = T;
  mm.tuple_bytes = tuple_bytes;

  int S = config.num_passes;
  if (S == 0) {
    S = min_passes_for_budget(mm, config.memory_budget_bytes);
    if (S == 0)
      throw util::config_error("run_metaprep: memory budget too small for any pass count");
  }
  mm.num_passes = S;

  // Zero-component hardening: an empty dataset short-circuits to a fully
  // formed empty result in either pipeline mode — no passes, no comm, no
  // ghost ".other.fastq" files, no sentinel roots.
  if (R == 0) {
    PipelineResult result;
    result.passes_used = S;
    if (!config.metrics_out.empty()) {
      obs::MetricsRegistry& mreg = obs::metrics();
      const bool were_enabled = mreg.enabled();
      mreg.reset_values();
      mreg.set_enabled(true);
      mreg.gauge("pipeline.passes").set(static_cast<double>(S));
      mreg.gauge("pipeline.components").set(0.0);
      mreg.write_jsonl(config.metrics_out);
      mreg.set_enabled(were_enabled);
    }
    if (!config.trace_out.empty()) {
      obs::TraceSession& trs = obs::TraceSession::current();
      const bool was_enabled = trs.enabled();
      trs.clear();
      trs.write_chrome_json(config.trace_out);
      if (!was_enabled) trs.disable();
    }
    if (!config.attr_out.empty()) {
      obs::AttrReport empty;
      empty.ranks = P;
      empty.threads = T;
      empty.passes = S;
      empty.write_json(config.attr_out);
    }
    if (!config.comm_matrix_out.empty()) {
      write_comm_matrix(config.comm_matrix_out, P,
                        std::vector<std::uint64_t>(static_cast<std::size_t>(P) * P, 0),
                        std::vector<std::uint64_t>(static_cast<std::size_t>(P) * P, 0), 0.0);
    }
    return result;
  }

  const PassPlan plan(index.mer_hist, S, P, T);
  const ChunkAssignment ca(index.part.num_chunks(), P, T);

  EnginePlan engine;
  engine.W = config.pipeline_mode == PipelineMode::kOverlap ? 2 : 1;
  engine.superkmer = superkmer;
  engine.minimizer_len = config.superkmer_minimizer_len;
  engine.routes = make_routes(plan, S, P, T, superkmer);

  // Observability: when the config names output files, this run owns its
  // session's tracer/metrics (cleared + enabled here, exported after the
  // run); with no session installed that is still the process globals.
  // attr_out needs the span data, so it forces tracing like trace_out.
  obs::TraceSession& tr = obs::TraceSession::current();
  const bool trace_was_enabled = tr.enabled();
  const bool want_trace = !config.trace_out.empty() || !config.attr_out.empty();
  if (want_trace) {
    tr.clear();
    tr.enable();
  }
  const bool metrics_were_enabled = obs::metrics().enabled();
  if (!config.metrics_out.empty()) {
    obs::metrics().reset_values();
    obs::metrics().set_enabled(true);
  }
  // Memory attribution rides with tracing: its subsystem high-water marks
  // feed the same report, and its cost discipline is the same one-relaxed-
  // load-when-off, so untraced runs are unaffected.
  obs::MemRegistry& memreg = obs::MemRegistry::current();
  const bool mem_was_enabled = memreg.enabled();
  const bool traced_run = tr.enabled();
  if (traced_run && !mem_was_enabled) {
    memreg.reset();
    memreg.set_enabled(true);
  }
  // --progress: one stderr line driven by the pipeline's phase boundaries.
  // Total ticks = chunk reads per KmerGen sweep (one sweep per group of W
  // passes) plus the CC-I/O sweep when output is on.
  obs::Progress& prog = obs::Progress::global();
  if (config.progress) {
    const std::uint64_t nchunks = index.part.num_chunks();
    const auto sweeps = static_cast<std::uint64_t>((S + engine.W - 1) / engine.W);
    prog.set_enabled(true);
    prog.begin_run(nchunks * sweeps + (config.write_output ? nchunks : 0));
  }
  // Hot-path metric handles resolved once (registry lookup takes a mutex).
  obs::Counter& m_tuples = obs::metrics().counter("pipeline.tuples_total");
  obs::Counter& m_cc_edges = obs::metrics().counter("pipeline.cc_edges_total");
  obs::Gauge& m_rss = obs::metrics().gauge("mem.rss_peak");
  obs::Gauge& m_peak = obs::metrics().gauge("proc.peak_rss_bytes");
  // Manual span markers for steps whose lifetime doesn't match a C++ scope.
  auto span_begin = [&tr]() { return tr.enabled() ? tr.now_us() : -1.0; };
  auto span_end = [&tr](const char* name, double t0) {
    if (t0 >= 0.0) tr.record(name, t0, tr.now_us() - t0);
  };

  // Label-slice geometry for the merge tail's scatter: rank q's chunks
  // cover the read-ID interval [sl_off[q], sl_off[q] + sl_len[q]).  Derived
  // from the shared chunk table, so every rank computes identical slices.
  // Paired-end libraries interleave the per-rank intervals (mates share one
  // ID), which is why the slices may overlap and each rank's slice spans
  // roughly 2R/P IDs instead of R/P.
  std::vector<std::uint64_t> slice_off(static_cast<std::size_t>(P), 0);
  std::vector<std::uint64_t> slice_len(static_cast<std::size_t>(P), 0);
  {
    for (int q = 0; q < P; ++q) {
      std::uint64_t lo = R;
      std::uint64_t hi = 0;
      for (std::uint32_t c = ca.rank_begin(q); c < ca.rank_end(q); ++c) {
        const ChunkRecord& chunk = index.part.chunks[c];
        lo = std::min<std::uint64_t>(lo, chunk.first_read_id);
        hi = std::max<std::uint64_t>(hi, chunk.first_read_id + chunk.record_count);
      }
      if (hi > lo) {
        slice_off[static_cast<std::size_t>(q)] = lo;
        slice_len[static_cast<std::size_t>(q)] = hi - lo;
      }
    }
  }

  const bool bin_mode = config.output_bins >= 1;
  mpsim::World world(P, config.cost_model);
  std::vector<RankShared> shared(static_cast<std::size_t>(P));
  std::vector<std::uint32_t> final_labels(R);
  std::uint32_t largest_root_shared = 0;
  std::vector<part::Component> components_shared;  // written by rank 0 only
  part::BinPlan bin_plan_shared;                   // written by rank 0 only

  WallTimer run_timer;  // measured wall for the attribution report

  // ---- PackedIngest (--read-store=packed): the run's single FASTQ parse.
  // Every record lands 2-bit-packed in an arena; the KmerGen scans below
  // walk the arena and the per-pass text re-parse disappears.  A named
  // --packed-store arena is serialized and mmapped back (it outlives the
  // run); an ephemeral arena stays in memory and never touches disk.  The
  // ingest is deliberately inside the measured wall: packed mode must pay
  // for its arena to claim a win over text mode.  The parse itself is
  // sharded over the run's worker budget, capped at the machine's real
  // core count — mpsim ranks oversubscribe cores by design, but for the
  // ingest (pure local CPU work, no simulated communication) extra threads
  // on a small host are pure overhead.  Shards merge deterministically, so
  // the arena bytes never depend on the thread count. ----
  io::PackedStore packed_store;
  io::PackedStoreStats packed_stats{};
  double packed_ingest_s = 0.0;
  const bool packed_is_temp = config.packed_store_path.empty();
  if (config.read_store == ReadStore::kPacked) {
    const int ingest_threads = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, P * T);
    WallTimer ingest_timer;
    const double ingest_t0 = span_begin();
    if (packed_is_temp) {
      packed_store = build_packed_store_in_memory(index, config.parse_mode,
                                                  ingest_threads, &packed_stats);
    } else {
      packed_stats = build_packed_store(index, config.packed_store_path,
                                        config.parse_mode, ingest_threads);
      packed_store = io::PackedStore::open(config.packed_store_path);
    }
    span_end("PackedIngest", ingest_t0);
    packed_ingest_s = ingest_timer.seconds();
  }

  world.run([&](mpsim::Comm& comm) {
    const int p = comm.rank();
    obs::TraceSession::set_thread_identity(p, 0);
    RankShared& my = shared[static_cast<std::size_t>(p)];
    ThreadTeam team(T);
    dsu::AtomicDSU local_cc(R);

    PassCtx ctx{index,  config, plan,   ca,
                comm,   team,   local_cc, my,
                tr,     m_tuples, m_cc_edges, m_rss,
                m_peak, packed_store.is_open() ? &packed_store : nullptr,
                p,      P,      T,      S,
                k,      m,      wide};
    run_passes(ctx, engine);

    // ---- MergeCC (§3.6): combine rank-local component arrays. ----
    util::throw_if_cancelled(config.cancel_token, "MergeCC");
    progress_phase(ctx, "MergeCC");
    std::vector<std::uint32_t> parents = local_cc.parents();
    if (config.merge_strategy == MergeStrategy::kPairwiseTree) {
      // The paper's method (Figure 4): pairwise merge over ceil(log P)
      // rounds; rank 0 ends with the global components.
      constexpr int kMergeTag = 1 << 20;
      int round = 0;
      for (int step = 1; step < P; step <<= 1, ++round) {
        if (p % (2 * step) == step) {
          const double send_t0 = span_begin();
          WallTimer send_timer;
          comm.send(p - step, kMergeTag + round, parents.data(),
                    parents.size() * sizeof(std::uint32_t));
          my.times.add("Merge-Comm", send_timer.seconds());
          span_end("Merge-Comm", send_t0);
          my.merge_comm_bytes += parents.size() * sizeof(std::uint32_t);
          break;  // this rank is inactive in later rounds
        }
        if (p % (2 * step) == 0 && p + step < P) {
          const double recv_t0 = span_begin();
          WallTimer recv_timer;
          std::vector<std::uint32_t> incoming(R);
          comm.recv(p + step, kMergeTag + round, incoming.data(),
                    incoming.size() * sizeof(std::uint32_t));
          my.times.add("Merge-Comm", recv_timer.seconds());
          span_end("Merge-Comm", recv_t0);
          const double merge_t0 = span_begin();
          WallTimer merge_timer;
          // Each entry is an edge (i, p'[i]); union into the local forest.
          dsu::SerialDSU merged(std::move(parents));
          for (std::uint32_t i = 0; i < R; ++i) {
            if (incoming[i] != i) merged.unite(i, incoming[i]);
          }
          parents = merged.take_parents();
          my.times.add("MergeCC", merge_timer.seconds());
          span_end("MergeCC", merge_t0);
        }
      }
    } else if (P > 1) {
      // Contraction (§5 future work, after Iverson et al.): ship only the
      // non-trivial (vertex, parent) pairs — the contracted component
      // graph — to rank 0 in a single round.
      constexpr int kContractTag = (1 << 20) + 4096;
      if (p != 0) {
        const double send_t0 = span_begin();
        WallTimer send_timer;
        std::vector<std::uint32_t> edges;
        for (std::uint32_t i = 0; i < R; ++i) {
          if (parents[i] != i) {
            edges.push_back(i);
            edges.push_back(parents[i]);
          }
        }
        comm.send(0, kContractTag, edges.data(), edges.size() * sizeof(std::uint32_t));
        my.times.add("Merge-Comm", send_timer.seconds());
        span_end("Merge-Comm", send_t0);
        my.merge_comm_bytes += edges.size() * sizeof(std::uint32_t);
      } else {
        dsu::SerialDSU merged(std::move(parents));
        for (int q = 1; q < P; ++q) {
          const double recv_t0 = span_begin();
          WallTimer recv_timer;
          const auto payload = comm.recv_any_size(q, kContractTag);
          my.times.add("Merge-Comm", recv_timer.seconds());
          span_end("Merge-Comm", recv_t0);
          const double merge_t0 = span_begin();
          WallTimer merge_timer;
          std::vector<std::uint32_t> edges(payload.size() / sizeof(std::uint32_t));
          std::memcpy(edges.data(), payload.data(), payload.size());
          for (std::size_t i = 0; i + 1 < edges.size(); i += 2) {
            merged.unite(edges[i], edges[i + 1]);
          }
          my.times.add("MergeCC", merge_timer.seconds());
          span_end("MergeCC", merge_t0);
        }
        parents = merged.take_parents();
      }
    }

    // Rank 0 flattens labels and ranks component sizes across the thread
    // team; each rank then receives only the label slice covering its own
    // chunk ranges plus compact component tables — the scaled form of "The
    // global components list in Rank 0 is broadcast to all other tasks"
    // (§3.6) that ships O(R/P + #components) per rank instead of O(R).
    const int top_n = std::max(1, config.output_top_components);
    std::vector<std::uint32_t> labels;  // full array lives on rank 0 only
    std::vector<std::uint32_t> top_roots(static_cast<std::size_t>(top_n), 0xFFFFFFFFu);
    part::RootSlotTable root_table;  // bin mode: root -> output bin
    if (p == 0) {
      const double flatten_t0 = span_begin();
      WallTimer flatten_timer;
      labels.assign(R, 0);
      dsu::AtomicDSU final_dsu{std::span<const std::uint32_t>(parents)};
      std::vector<std::uint32_t> sizes(R, 0);
      const auto id_bounds = util::split_range(R, T);
      // Parallel find with path splitting; per-thread counts land directly
      // in the global size array via atomic increments, and the thread that
      // first touches a root claims it for the (deterministic-set) root
      // list — no O(R) post-scan, no O(R*T) per-thread arrays.
      std::vector<std::vector<std::uint32_t>> thread_roots(static_cast<std::size_t>(T));
      team.run([&](int t) {
        auto& my_roots = thread_roots[static_cast<std::size_t>(t)];
        for (std::size_t i = id_bounds[static_cast<std::size_t>(t)];
             i < id_bounds[static_cast<std::size_t>(t) + 1]; ++i) {
          const std::uint32_t root = final_dsu.find(static_cast<std::uint32_t>(i));
          labels[i] = root;
          const std::uint32_t prev =
              std::atomic_ref<std::uint32_t>(sizes[root])
                  .fetch_add(1, std::memory_order_relaxed);
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
      // Top-N roots by component size (N is small; partial selection).
      const auto take = std::min<std::size_t>(static_cast<std::size_t>(top_n), roots.size());
      std::partial_sort(roots.begin(), roots.begin() + static_cast<std::ptrdiff_t>(take),
                        roots.end(), [&](std::uint32_t a, std::uint32_t b) {
                          return sizes[a] != sizes[b] ? sizes[a] > sizes[b] : a < b;
                        });
      for (std::size_t i = 0; i < take; ++i) top_roots[i] = roots[i];
      final_labels = labels;
      largest_root_shared = top_roots[0];
      if (bin_mode) {
        // Component weights in estimated bp: reads * mean bases per read
        // (per-read lengths are not in the index; DESIGN.md documents the
        // proxy).  128-bit intermediate so huge datasets cannot overflow.
        components_shared.reserve(roots.size());
        for (std::uint32_t root : roots) {
          part::Component comp;
          comp.root = root;
          comp.reads = sizes[root];
          comp.weight_bp = static_cast<std::uint64_t>(
              static_cast<unsigned __int128>(sizes[root]) * index.total_bases / R);
          components_shared.push_back(comp);
        }
        bin_plan_shared = part::greedy_bin_pack(components_shared, config.output_bins);
        root_table = part::make_root_slot_table(components_shared, bin_plan_shared);
      }
      my.times.add("MergeCC", flatten_timer.seconds());
      span_end("MergeCC", flatten_t0);
    }
    std::vector<std::uint32_t> label_slice(slice_len[static_cast<std::size_t>(p)]);
    {
      obs::TraceSpan bc_span("Merge-Comm");
      WallTimer bc_timer;
      // Label scatter: every rank gets the slice its CC-I/O chunks index,
      // byte geometry shared via the chunk table (see slice_off above).
      std::vector<std::uint64_t> byte_off(static_cast<std::size_t>(P));
      std::vector<std::uint64_t> byte_len(static_cast<std::size_t>(P));
      for (int q = 0; q < P; ++q) {
        byte_off[static_cast<std::size_t>(q)] = slice_off[static_cast<std::size_t>(q)] * 4;
        byte_len[static_cast<std::size_t>(q)] = slice_len[static_cast<std::size_t>(q)] * 4;
      }
      comm.scatterv(labels.data(), byte_off, byte_len, label_slice.data(), 0);
      comm.broadcast(top_roots.data(), top_roots.size() * sizeof(std::uint32_t), 0);
      if (bin_mode && P > 1) {
        // Compact root -> bin table: O(#components), not O(R).
        std::uint64_t ncomp = root_table.roots.size();
        comm.broadcast(&ncomp, sizeof(ncomp), 0);
        if (p != 0) {
          root_table.roots.resize(ncomp);
          root_table.slots.resize(ncomp);
        }
        if (ncomp > 0) {
          comm.broadcast(root_table.roots.data(), ncomp * sizeof(std::uint32_t), 0);
          comm.broadcast(root_table.slots.data(), ncomp * sizeof(std::uint16_t), 0);
        }
      }
      if (p != 0) my.times.add("Merge-Comm", bc_timer.seconds());
    }
    phase_boundary(ctx, "MergeCC");

    // ---- CC-I/O (§3.6): each thread extracts reads from its FASTQ chunks
    // and writes them to per-thread output files.  Labels come from the
    // scattered slice, indexed relative to this rank's slice offset. ----
    if (config.write_output) {
      progress_phase(ctx, "CC-I/O");
      obs::TraceSpan io_span("CC-I/O");
      WallTimer io_timer;
      const std::uint64_t my_slice_off = slice_off[static_cast<std::size_t>(p)];
      std::vector<std::vector<std::string>> thread_files(static_cast<std::size_t>(T));
      std::vector<std::vector<part::BinFile>> thread_bin_files(static_cast<std::size_t>(T));
      std::vector<std::vector<std::uint16_t>> thread_bin_of(static_cast<std::size_t>(T));
      team.run([&](int t) {
        if (ca.thread_begin(p, t) >= ca.thread_end(p, t)) return;
        const std::string base = config.output_dir + "/" + index.name + ".p" +
                                 std::to_string(p) + ".t" + std::to_string(t);
        std::vector<std::string> names;
        std::vector<std::unique_ptr<io::FastqWriter>> writers;
        std::vector<std::uint64_t> writer_records;
        std::vector<std::uint16_t> writer_bin;
        std::size_t other_slot = 0;
        // Bin mode: one lazily-opened writer per output bin this thread
        // actually touches (no ghost files for bins with no local reads).
        // kNoSlot maps bin index -> writer index.
        std::vector<std::size_t> bin_writer;
        if (bin_mode) {
          bin_writer.assign(static_cast<std::size_t>(config.output_bins),
                            static_cast<std::size_t>(-1));
        } else {
          // Legacy split: one writer per top component plus the remainder.
          // N == 1 keeps the paper's ".lc"/".other" naming.
          for (int j = 0; j < top_n; ++j) {
            if (top_roots[static_cast<std::size_t>(j)] == 0xFFFFFFFFu) break;
            names.push_back(base + (top_n == 1 ? ".lc" : ".c" + std::to_string(j)) + ".fastq");
            writers.push_back(std::make_unique<io::FastqWriter>(names.back()));
          }
          names.push_back(base + ".other.fastq");
          writers.push_back(std::make_unique<io::FastqWriter>(names.back()));
          other_slot = writers.size() - 1;
        }

        auto legacy_slot_of = [&](std::uint32_t root) -> std::size_t {
          for (std::size_t j = 0; j < other_slot; ++j) {
            if (top_roots[j] == root) return j;
          }
          return other_slot;
        };
        auto bin_writer_of = [&](std::uint32_t root) -> std::size_t {
          const std::uint16_t bin = root_table.slot_of(root);
          auto& w = bin_writer[bin];
          if (w == static_cast<std::size_t>(-1)) {
            names.push_back(base + ".b" + std::to_string(bin) + ".fastq");
            writers.push_back(std::make_unique<io::FastqWriter>(names.back()));
            writer_records.push_back(0);
            writer_bin.push_back(bin);
            w = writers.size() - 1;
          }
          return w;
        };

        for (std::uint32_t c = ca.thread_begin(p, t); c < ca.thread_end(p, t); ++c) {
          util::throw_if_cancelled(config.cancel_token, "CC-I/O chunk");
          const ChunkRecord& chunk = index.part.chunks[c];
          const auto buffer =
              io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
          const obs::MemCharge io_mem("io", buffer.size());
          std::uint32_t read_id = chunk.first_read_id;
          io::ParseOptions popt{config.parse_mode, index.files[chunk.file], chunk.offset,
                                [&read_id] { ++read_id; }};
          io::for_each_record_in_buffer(
              std::string_view(buffer.data(), buffer.size()),
              [&](std::string_view id, std::string_view seq, std::string_view qual) {
                const std::uint32_t root = label_slice[read_id - my_slice_off];
                if (bin_mode) {
                  const std::size_t w = bin_writer_of(root);
                  writers[w]->write(id, seq, qual);
                  ++writer_records[w];
                } else {
                  writers[legacy_slot_of(root)]->write(id, seq, qual);
                }
                ++read_id;
              },
              popt);
          obs::Progress::global().chunk_done();
        }
        // Explicit close so a failed flush (e.g. ENOSPC) surfaces as a typed
        // Error instead of being swallowed by the destructor.
        for (auto& w : writers) w->close();
        writers.clear();
        if (bin_mode) {
          auto& bf = thread_bin_files[static_cast<std::size_t>(t)];
          for (std::size_t j = 0; j < names.size(); ++j) {
            bf.push_back(part::BinFile{names[j], writer_records[j]});
          }
          thread_bin_of[static_cast<std::size_t>(t)] = std::move(writer_bin);
        }
        thread_files[static_cast<std::size_t>(t)] = std::move(names);
      });
      for (auto& files : thread_files) {
        for (auto& f : files) my.output_files.push_back(std::move(f));
      }
      for (int t = 0; t < T; ++t) {
        auto& bf = thread_bin_files[static_cast<std::size_t>(t)];
        auto& bb = thread_bin_of[static_cast<std::size_t>(t)];
        for (std::size_t j = 0; j < bf.size(); ++j) {
          my.bin_files.push_back(std::move(bf[j]));
          my.bin_file_bins.push_back(bb[j]);
        }
      }
      my.times.add("CC-I/O", io_timer.seconds());
      phase_boundary(ctx, "CC-I/O");
    }
  });
  const double run_wall_s = run_timer.seconds();
  if (config.progress) {
    prog.finish();
    prog.set_enabled(false);
  }
  if (packed_store.is_open() && packed_is_temp) {
    // Drop the in-memory arena before assembling the result so its pages
    // are returned (and the packed mem subsystem credited) inside the run.
    packed_store = io::PackedStore();
  }

  // ---- Assemble the result. ----
  PipelineResult result;
  result.num_reads = R;
  result.labels = std::move(final_labels);
  result.passes_used = S;
  result.largest_root = largest_root_shared;
  {
    std::vector<std::uint64_t> sizes(R, 0);
    for (std::uint32_t l : result.labels) ++sizes[l];
    std::vector<std::uint64_t> nonzero;
    for (std::uint64_t v : sizes) {
      if (v > 0) nonzero.push_back(v);
    }
    result.num_components = nonzero.size();
    result.largest_size = R > 0 ? sizes[result.largest_root] : 0;
    result.largest_fraction =
        R > 0 ? static_cast<double>(result.largest_size) / static_cast<double>(R) : 0.0;
    std::sort(nonzero.begin(), nonzero.end(), std::greater<>());
    nonzero.resize(std::min<std::size_t>(nonzero.size(), 10));
    result.top_component_sizes = std::move(nonzero);
  }
  for (auto& rs : shared) {
    result.step_times.merge_max(rs.times);
    result.rank_times.push_back(rs.times);
    result.total_tuples += rs.tuples;
    result.merge_comm_bytes += rs.merge_comm_bytes;
    result.max_tuple_buffer_bytes = std::max(result.max_tuple_buffer_bytes, rs.max_buffer_bytes);
    for (auto& f : rs.output_files) result.output_files.push_back(std::move(f));
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
    result.records_skipped = packed_stats.skipped;
    result.packed_ingest_seconds = packed_ingest_s;
    result.packed_store_bytes = packed_stats.file_bytes;
    result.step_times.add("PackedIngest", packed_ingest_s);
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
    result.label_scatter_bytes += slice_len[static_cast<std::size_t>(q)] * sizeof(std::uint32_t);
  }
  if (bin_mode) {
    if (P > 1) {
      const std::uint64_t table_bytes =
          sizeof(std::uint64_t) +
          components_shared.size() * (sizeof(std::uint32_t) + sizeof(std::uint16_t));
      result.root_table_bytes = static_cast<std::uint64_t>(P - 1) * table_bytes;
    }
    result.bin_reads = bin_plan_shared.bin_reads;
    result.bin_weights_bp = bin_plan_shared.bin_weight_bp;
    result.bin_skew = bin_plan_shared.skew();
    if (config.write_output) {
      std::vector<part::BinFile> all_files;
      std::vector<std::uint16_t> all_bins;
      for (auto& rs : shared) {
        for (std::size_t j = 0; j < rs.bin_files.size(); ++j) {
          all_files.push_back(std::move(rs.bin_files[j]));
          all_bins.push_back(rs.bin_file_bins[j]);
        }
      }
      const part::BinManifest manifest = part::build_bin_manifest(
          index.name, R, components_shared, bin_plan_shared, all_files, all_bins);
      result.bin_manifest_path = config.output_dir + "/" + index.name + ".bins.json";
      part::save_bin_manifest(manifest, result.bin_manifest_path);
    }
  }
  {
    obs::MetricsRegistry& m = obs::metrics();
    m.counter("part.label_scatter_bytes").add(result.label_scatter_bytes);
    m.counter("part.root_table_bytes").add(result.root_table_bytes);
    m.counter("comm.alltoallv_bytes").add(result.exchange_bytes);
    m.counter("comm.alltoallv_bytes_raw").add(result.exchange_bytes_raw);
    m.counter("comm.superkmer_records").add(result.superkmer_records);
    if (result.exchange_bytes_raw > 0)
      m.gauge("comm.superkmer_ratio").set(result.superkmer_ratio);
  }

  // ---- Performance attribution (src/obs/attr): whenever the run was
  // traced, fold the span analysis, the comm matrices, and the measured-vs-
  // modeled memory reconciliation into one AttrReport. ----
  const double comm_skew = obs::comm_matrix_skew(result.traffic_matrix, P);
  if (traced_run) {
    obs::AttrReport ar = obs::PhaseAccountant::analyze(tr.snapshot(), run_wall_s * 1e6);
    ar.ranks = P;
    ar.threads = T;
    ar.passes = S;
    ar.comm_ranks = P;
    ar.comm_bytes = result.traffic_matrix;
    ar.comm_msgs = result.message_matrix;
    ar.comm_skew = comm_skew;
    ar.peak_rss_bytes = util::peak_rss_bytes();
    ar.rss_samples = shared[0].rss_samples;
    // The model predicts bytes per task; the registry measures the whole
    // process hosting all P ranks, so predictions scale by P.  "sort" and
    // "pool" have no model term and report measured-only.
    const MemoryBreakdown pred = estimate_memory(mm);
    const auto up = static_cast<std::uint64_t>(P);
    for (const auto& [name, usage] : memreg.snapshot()) {
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

  // Publish run-level metrics and export the requested artifacts.
  {
    obs::MetricsRegistry& m = obs::metrics();
    m.gauge("pipeline.passes").set(static_cast<double>(result.passes_used));
    m.gauge("pipeline.components").set(static_cast<double>(result.num_components));
    m.gauge("pipeline.largest_fraction").set(result.largest_fraction);
    m.gauge("pipeline.max_tuple_buffer_bytes")
        .set_max(static_cast<double>(result.max_tuple_buffer_bytes));
    m.gauge("pipeline.cc_iterations_max")
        .set_max(static_cast<double>(result.cc_iterations_max));
    m.gauge("mpsim.sim_comm_seconds").set_max(result.sim_comm_seconds);
    m_rss.set_max(static_cast<double>(util::peak_rss_bytes()));
    m_peak.set_max(static_cast<double>(util::peak_rss_bytes()));
    // Comm-matrix export as metrics: the off-diagonal byte cells land in one
    // histogram (the distribution is what skew summarizes) plus the skew
    // gauge, so metrics-only consumers see the exchange shape too.
    if (m.enabled() && P > 1) {
      obs::Histogram& h = m.histogram("mpsim.comm_matrix");
      for (int i = 0; i < P; ++i) {
        for (int j = 0; j < P; ++j) {
          if (i == j) continue;
          const std::uint64_t v = result.traffic_matrix[static_cast<std::size_t>(i) * P + j];
          if (v > 0) h.record(v);
        }
      }
      m.gauge("mpsim.comm_matrix_skew").set_max(comm_skew);
    }
    if (result.has_attr) {
      for (const auto& ms : result.attr.memory) {
        m.gauge("mem." + ms.name + ".high_water")
            .set_max(static_cast<double>(ms.high_water_bytes));
      }
    }
    if (!config.metrics_out.empty()) {
      m.write_jsonl(config.metrics_out);
      m.set_enabled(metrics_were_enabled);
    }
    if (!config.attr_out.empty()) result.attr.write_json(config.attr_out);
    if (!config.comm_matrix_out.empty()) {
      write_comm_matrix(config.comm_matrix_out, P, result.traffic_matrix,
                        result.message_matrix, comm_skew);
    }
    if (!config.trace_out.empty()) tr.write_chrome_json(config.trace_out);
    tr.flush();  // no-op unless the session has an armed flush path
    if (want_trace && !trace_was_enabled) tr.disable();
    if (traced_run && !mem_was_enabled) memreg.set_enabled(false);
  }
  return result;
}

std::vector<std::uint32_t> reference_components(const DatasetIndex& index,
                                                const KmerFreqFilter& filter,
                                                io::ParseMode parse_mode) {
  const int k = index.k;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::uint32_t>> kmer_reads;
  for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
    const ChunkRecord& chunk = index.part.chunks[c];
    const auto buffer = io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
    std::uint32_t read_id = chunk.first_read_id;
    io::ParseOptions popt{parse_mode, index.files[chunk.file], chunk.offset,
                          [&read_id] { ++read_id; }};
    io::for_each_record_in_buffer(
        std::string_view(buffer.data(), buffer.size()),
        [&](std::string_view, std::string_view seq, std::string_view) {
          if (k <= kmer::kMaxK64) {
            kmer::for_each_canonical_kmer64(seq, k, [&](std::uint64_t km, std::size_t) {
              kmer_reads[{0, km}].push_back(read_id);
            });
          } else {
            kmer::for_each_canonical_kmer128(seq, k, [&](kmer::Kmer128 km, std::size_t) {
              kmer_reads[{km.hi, km.lo}].push_back(read_id);
            });
          }
          ++read_id;
        },
        popt);
  }
  dsu::SerialDSU dsu(index.total_reads);
  for (const auto& [km, reads] : kmer_reads) {
    if (!filter.accepts(reads.size())) continue;
    for (std::size_t i = 1; i < reads.size(); ++i) dsu.unite(reads[i - 1], reads[i]);
  }
  return dsu.labels();
}

}  // namespace metaprep::core
