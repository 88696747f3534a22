#include "core/pipeline.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
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
#include "kmer/bloom.hpp"
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
#include "util/prefix_sum.hpp"
#include "util/session.hpp"
#include "util/thread_team.hpp"

namespace metaprep::core {

namespace {

using util::StepTimes;
using util::ThreadTeam;
using util::WallTimer;

/// Tuple buffers in SoA layout.  keys_hi is used only for k > 32 ("wide"):
/// the 12-byte tuple becomes the paper's 20-byte tuple (§4.4).
struct TupleBuffer {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> keys_hi;
  std::vector<std::uint32_t> vals;
  bool wide = false;

  void resize(std::size_t n) {
    keys.resize(n);
    vals.resize(n);
    if (wide) keys_hi.resize(n);
  }
  [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return keys.size() * (wide ? 20 : 12);
  }
  void swap(TupleBuffer& other) noexcept {
    keys.swap(other.keys);
    keys_hi.swap(other.keys_hi);
    vals.swap(other.vals);
    std::swap(wide, other.wide);
    std::swap(mem_charged, other.mem_charged);
  }

  /// Memory attribution (src/obs/mem): reconcile the "tuples" subsystem with
  /// this buffer's current capacity.  Called after resizes in the barrier
  /// schedule; the overlap schedule leases from BufferPool, whose charges are
  /// tagged via MemScope instead, so it never calls this.
  std::uint64_t mem_charged = 0;
  void mem_account() {
    const std::uint64_t now =
        keys.capacity() * 8 + keys_hi.capacity() * 8 + vals.capacity() * 4;
    if (now >= mem_charged) {
      obs::mem_charge("tuples", now - mem_charged);
    } else {
      obs::mem_credit("tuples", mem_charged - now);
    }
    mem_charged = now;
  }
};

/// counts[i] += sum of row[b] for b in [bounds[i], bounds[i+1]), computed in
/// one scan over the row's relevant bin range.
void accumulate_bounded_counts(const std::uint32_t* row,
                               std::span<const std::uint32_t> bounds,
                               std::span<std::uint64_t> counts) {
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    std::uint64_t acc = 0;
    for (std::uint32_t b = bounds[i]; b < bounds[i + 1]; ++b) acc += row[b];
    counts[i] += acc;
  }
}

/// Minimal scope guard for lease cleanup on exception unwind (a cancel or a
/// typed Error mid-pass must return every BufferPool lease).  The callback
/// must not throw during unwind, so failures inside it are swallowed.
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() {
    if (!armed_) return;
    try {
      f_();
    } catch (...) {
      // Unwind path: the original exception matters more.
    }
  }
  void dismiss() noexcept { armed_ = false; }

 private:
  F f_;
  bool armed_ = true;
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
  std::uint64_t bloom_dropped = 0;       ///< k-mer occurrences the Bloom prefilter dropped
};

/// Everything the per-rank pass loop needs, bundled so the barrier and
/// overlap schedules are interchangeable implementations of one interface.
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

/// One chunk's record stream for KmerGen, shared by the barrier and overlap
/// schedulers.  Text mode reads the chunk's byte range and parses it;
/// packed mode walks the arena's record range for the chunk — same records,
/// same order, same read IDs, so the emitted tuple stream is bit-identical.
/// Per record: value = find(read_id) under the §3.5.1 substitution, then
/// emit64(km, value) / emit128(km, value) per canonical k-mer.  @p io_s and
/// @p gen_s accumulate the KmerGen-I/O and KmerGen step walls for this
/// thread.  Returns the lenient-parse skips this scan observed (always 0 in
/// packed mode: ingest already recorded them in the arena).
template <typename Emit64, typename Emit128>
std::uint64_t scan_chunk(PassCtx& ctx, std::uint32_t c, bool substitute,
                         double& io_s, double& gen_s, Emit64&& emit64,
                         Emit128&& emit128, bool tick_progress = true) {
  util::throw_if_cancelled(ctx.config.cancel_token, "KmerGen chunk");
  const DatasetIndex& index = ctx.index;
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  const int k = ctx.k;
  std::uint64_t skipped = 0;
  if (ctx.packed != nullptr) {
    const io::PackedStore& ps = *ctx.packed;
    WallTimer gen_timer;
    const double gen_t0 = span_begin(ctx.tr);
    for (std::uint64_t r = ps.chunk_begin(c), e = ps.chunk_end(c); r < e; ++r) {
      const io::PackedStore::Record rec = ps.record(r);
      const std::uint32_t value = substitute ? local_cc.find(rec.read_id) : rec.read_id;
      if (!ctx.wide) {
        kmer::for_each_canonical_kmer64_packed(
            rec.words, rec.len, rec.npos, rec.ncount, k,
            [&](std::uint64_t km, std::size_t) { emit64(km, value); });
      } else {
        kmer::for_each_canonical_kmer128_packed(
            rec.words, rec.len, rec.npos, rec.ncount, k,
            [&](kmer::Kmer128 km, std::size_t) { emit128(km, value); });
      }
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
          if (!ctx.wide) {
            kmer::for_each_canonical_kmer64(
                seq, k, [&](std::uint64_t km, std::size_t) { emit64(km, value); });
          } else {
            kmer::for_each_canonical_kmer128(
                seq, k, [&](kmer::Kmer128 km, std::size_t) { emit128(km, value); });
          }
          ++read_id;
        },
        popt);
    span_end(ctx.tr, "KmerGen", gen_t0);
    gen_s += gen_timer.seconds();
    skipped = stats.skipped;
  }
  if (tick_progress) obs::Progress::global().chunk_done();
  return skipped;
}

/// Record-granular variant of scan_chunk for the compressed emit path: same
/// I/O scaffolding and §3.5.1 substitution, but the callback receives the
/// whole record's bases (RecordView) instead of per-k-mer events, so the
/// super-k-mer scanner can see run structure.
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

template <typename RecFn>
std::uint64_t scan_chunk_records(PassCtx& ctx, std::uint32_t c, bool substitute,
                                 double& io_s, double& gen_s, bool tick_progress,
                                 RecFn&& rec_fn) {
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
  if (tick_progress) obs::Progress::global().chunk_done();
  return skipped;
}

// ---------------------------------------------------------------------------
// Barrier schedule: the paper's pass loop, one phase at a time.
// ---------------------------------------------------------------------------
void run_passes_barrier(PassCtx& ctx) {
  const DatasetIndex& index = ctx.index;
  const MetaprepConfig& config = ctx.config;
  const PassPlan& plan = ctx.plan;
  const ChunkAssignment& ca = ctx.ca;
  mpsim::Comm& comm = ctx.comm;
  ThreadTeam& team = ctx.team;
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  RankShared& my = ctx.my;
  obs::TraceSession& tr = ctx.tr;
  obs::Counter& m_tuples = ctx.m_tuples;
  obs::Counter& m_cc_edges = ctx.m_cc_edges;
  obs::Gauge& m_rss = ctx.m_rss;
  const int p = ctx.p, P = ctx.P, T = ctx.T, S = ctx.S, k = ctx.k, m = ctx.m;
  const bool wide = ctx.wide;

  TupleBuffer kmer_out;
  TupleBuffer kmer_in;
  kmer_out.wide = wide;
  kmer_in.wide = wide;

  for (int s = 0; s < S; ++s) {
    util::throw_if_cancelled(config.cancel_token, "barrier pass");
    const double pass_t0 = span_begin(tr);
    const BinRange my_range = plan.rank_range(s, p);
    const auto& rank_bounds = plan.rank_bounds(s);
    const auto& thread_bounds = plan.thread_bounds(s, p);

    // ---- Send-side offsets (§3.2.2): tuples generated by each of my
    // threads destined to each rank, from the chunk histograms. ----
    std::vector<std::uint64_t> count_send(static_cast<std::size_t>(T) * P, 0);  // [t][dest]
    for (int t = 0; t < T; ++t) {
      for (std::uint32_t c = ca.thread_begin(p, t); c < ca.thread_end(p, t); ++c) {
        accumulate_bounded_counts(
            index.part.row(c), rank_bounds,
            std::span(count_send).subspan(static_cast<std::size_t>(t) * P, P));
      }
    }
    std::vector<std::uint64_t> send_offsets(static_cast<std::size_t>(P) + 1, 0);
    for (int d = 0; d < P; ++d) {
      std::uint64_t tot = 0;
      for (int t = 0; t < T; ++t) tot += count_send[static_cast<std::size_t>(t) * P + d];
      send_offsets[static_cast<std::size_t>(d) + 1] =
          send_offsets[static_cast<std::size_t>(d)] + tot;
    }
    // Per-(thread, dest) write cursors within the dest blocks.
    std::vector<std::uint64_t> cursor(static_cast<std::size_t>(T) * P, 0);
    for (int d = 0; d < P; ++d) {
      std::uint64_t off = send_offsets[static_cast<std::size_t>(d)];
      for (int t = 0; t < T; ++t) {
        cursor[static_cast<std::size_t>(t) * P + d] = off;
        off += count_send[static_cast<std::size_t>(t) * P + d];
      }
    }
    const std::vector<std::uint64_t> cursor_start = cursor;
    const std::uint64_t total_out = send_offsets.back();
    kmer_out.resize(total_out);
    kmer_out.mem_account();
    my.tuples += total_out;
    m_tuples.add(total_out);

    // ---- Recv-side offsets (§3.3): tuples arriving from each source
    // rank's threads that fall in my k-mer range. ----
    std::vector<std::uint64_t> count_recv(static_cast<std::size_t>(P) * T, 0);  // [src][t']
    const std::array<std::uint32_t, 2> my_bounds_arr{my_range.begin, my_range.end};
    for (int q = 0; q < P; ++q) {
      for (int t2 = 0; t2 < T; ++t2) {
        std::uint64_t acc = 0;
        for (std::uint32_t c = ca.thread_begin(q, t2); c < ca.thread_end(q, t2); ++c) {
          std::uint64_t one = 0;
          accumulate_bounded_counts(index.part.row(c), my_bounds_arr, std::span(&one, 1));
          acc += one;
        }
        count_recv[static_cast<std::size_t>(q) * T + t2] = acc;
      }
    }
    std::vector<std::uint64_t> recv_offsets(static_cast<std::size_t>(P) + 1, 0);
    for (int q = 0; q < P; ++q) {
      std::uint64_t tot = 0;
      for (int t2 = 0; t2 < T; ++t2) tot += count_recv[static_cast<std::size_t>(q) * T + t2];
      recv_offsets[static_cast<std::size_t>(q) + 1] =
          recv_offsets[static_cast<std::size_t>(q)] + tot;
    }
    const std::uint64_t total_in = recv_offsets.back();

    // ---- KmerGen: threads enumerate canonical k-mers from their chunks
    // and write tuples at precomputed offsets, no synchronization. ----
    const std::vector<std::uint16_t> dest_of_bin = bin_owner_table(rank_bounds);
    const std::uint32_t pass_lo = plan.pass_range(s).begin;
    const std::uint32_t pass_hi = plan.pass_range(s).end;
    std::vector<double> io_seconds(static_cast<std::size_t>(T), 0.0);
    std::vector<double> gen_seconds(static_cast<std::size_t>(T), 0.0);
    const bool substitute_components = config.cc_opt && s > 0;

    progress_phase(ctx, "KmerGen");
    std::vector<std::uint64_t> skip_counts(static_cast<std::size_t>(T), 0);
    team.run([&](int t) {
      obs::TraceSession::set_thread_identity(p, t);
      std::uint64_t* cur = cursor.data() + static_cast<std::size_t>(t) * P;
      auto emit64 = [&](std::uint64_t km, std::uint32_t value) {
        const std::uint32_t bin = kmer::prefix_bin64(km, k, m);
        if (bin < pass_lo || bin >= pass_hi) return;
        const std::uint16_t d = dest_of_bin[bin - pass_lo];
        const std::uint64_t at = cur[d]++;
        kmer_out.keys[at] = km;
        kmer_out.vals[at] = value;
      };
      auto emit128 = [&](kmer::Kmer128 km, std::uint32_t value) {
        const std::uint32_t bin = kmer::prefix_bin128(km, k, m);
        if (bin < pass_lo || bin >= pass_hi) return;
        const std::uint16_t d = dest_of_bin[bin - pass_lo];
        const std::uint64_t at = cur[d]++;
        kmer_out.keys[at] = km.lo;
        kmer_out.keys_hi[at] = km.hi;
        kmer_out.vals[at] = value;
      };
      for (std::uint32_t c = ca.thread_begin(p, t); c < ca.thread_end(p, t); ++c) {
        skip_counts[static_cast<std::size_t>(t)] +=
            scan_chunk(ctx, c, substitute_components,
                       io_seconds[static_cast<std::size_t>(t)],
                       gen_seconds[static_cast<std::size_t>(t)], emit64, emit128);
      }
    });
    my.times.add("KmerGen-I/O", *std::max_element(io_seconds.begin(), io_seconds.end()));
    my.times.add("KmerGen", *std::max_element(gen_seconds.begin(), gen_seconds.end()));
    if (s == 0) {
      // The first sweep visits every record exactly once, so its skip count
      // is the number of *distinct* records lenient parsing dropped (later
      // passes re-discover the same skips in text mode).
      for (std::uint64_t sk : skip_counts) my.records_skipped += sk;
    }

    // Lenient parsing may have skipped records that the (clean-data) chunk
    // histograms counted, leaving some (thread, dest) blocks under-filled.
    // The exchange geometry is precomputed on both sides, so the gap slots
    // ship regardless — fill them with sentinel tuples whose bin falls in
    // the destination's range (so its partition step stays in bounds) and
    // whose value is kInvalidRead (so LocalCC ignores them).
    for (int t = 0; t < T; ++t) {
      for (int d = 0; d < P; ++d) {
        const std::size_t td = static_cast<std::size_t>(t) * P + d;
        const std::uint64_t block_end = cursor_start[td] + count_send[td];
        if (cursor[td] == block_end) continue;
        const auto bin = static_cast<std::uint64_t>(rank_bounds[static_cast<std::size_t>(d)]);
        const int shift = 2 * (k - m);
        std::uint64_t s_lo, s_hi;
        if (!wide) {
          s_lo = bin << shift;
          s_hi = 0;
        } else if (shift >= 64) {
          s_hi = bin << (shift - 64);
          s_lo = 0;
        } else {
          s_lo = bin << shift;
          s_hi = bin >> (64 - shift);
        }
        for (std::uint64_t at = cursor[td]; at < block_end; ++at) {
          kmer_out.keys[at] = s_lo;
          if (wide) kmer_out.keys_hi[at] = s_hi;
          kmer_out.vals[at] = kInvalidRead;
        }
        cursor[td] = block_end;
      }
    }

    // ---- KmerGen-Comm: staged All-to-all of the tuple arrays. ----
    progress_phase(ctx, "KmerGen-Comm");
    {
      obs::TraceSpan comm_span("KmerGen-Comm");
      WallTimer comm_timer;
      if (P == 1) {
        kmer_in.swap(kmer_out);
        kmer_out.resize(kmer_in.size());
      } else {
        kmer_in.resize(total_in);
        const int tag_base = (s * 3) * (P + 1) + 1000;
        auto byte_offsets = [&](std::span<const std::uint64_t> elems, std::size_t esize) {
          std::vector<std::uint64_t> out(elems.size());
          for (std::size_t i = 0; i < elems.size(); ++i) out[i] = elems[i] * esize;
          return out;
        };
        const auto so8 = byte_offsets(send_offsets, 8);
        const auto ro8 = byte_offsets(recv_offsets, 8);
        const auto so4 = byte_offsets(send_offsets, 4);
        const auto ro4 = byte_offsets(recv_offsets, 4);
        comm.alltoallv_staged(kmer_out.keys.data(), so8, kmer_in.keys.data(), ro8, tag_base);
        comm.alltoallv_staged(kmer_out.vals.data(), so4, kmer_in.vals.data(), ro4,
                              tag_base + (P + 1));
        if (wide) {
          comm.alltoallv_staged(kmer_out.keys_hi.data(), so8, kmer_in.keys_hi.data(), ro8,
                                tag_base + 2 * (P + 1));
        }
        // Exchange-volume accounting (cross-rank tuples only, matching the
        // traffic matrix); uncompressed, so shipped == raw.
        const std::uint64_t cross =
            total_out - (send_offsets[static_cast<std::size_t>(p) + 1] -
                         send_offsets[static_cast<std::size_t>(p)]);
        my.exchange_bytes += cross * (wide ? 20u : 12u);
        my.exchange_bytes_raw += cross * (wide ? 20u : 12u);
        kmer_out.resize(total_in);  // becomes the partition/sort buffer
      }
      my.times.add("KmerGen-Comm", comm_timer.seconds());
    }
    kmer_in.mem_account();
    kmer_out.mem_account();
    my.max_buffer_bytes = std::max(my.max_buffer_bytes, kmer_in.bytes() + kmer_out.bytes());
    phase_boundary(ctx, "KmerGen-Comm");

    // ---- LocalSort (§3.4): parallel range partitioning into T disjoint
    // thread ranges, then serial radix sort per thread. ----
    progress_phase(ctx, "LocalSort");
    {
      const double sort_t0 = span_begin(tr);
      WallTimer sort_timer;
      // Source blocks: one per (src rank, src thread), layout known from
      // the recv offsets; bin distribution known from FASTQPart.
      const int nblocks = P * T;
      std::vector<std::uint64_t> block_start(static_cast<std::size_t>(nblocks) + 1, 0);
      {
        std::size_t bi = 0;
        std::uint64_t off = 0;
        for (int q = 0; q < P; ++q) {
          for (int t2 = 0; t2 < T; ++t2) {
            block_start[bi++] = off;
            off += count_recv[static_cast<std::size_t>(q) * T + t2];
          }
        }
        block_start[static_cast<std::size_t>(nblocks)] = off;
      }
      // Scatter counts per (block, dest thread range).
      std::vector<std::uint64_t> count_part(static_cast<std::size_t>(nblocks) * T, 0);
      {
        std::size_t bi = 0;
        for (int q = 0; q < P; ++q) {
          for (int t2 = 0; t2 < T; ++t2, ++bi) {
            for (std::uint32_t c = ca.thread_begin(q, t2); c < ca.thread_end(q, t2); ++c) {
              accumulate_bounded_counts(
                  index.part.row(c), thread_bounds,
                  std::span(count_part).subspan(bi * T, static_cast<std::size_t>(T)));
            }
          }
        }
      }
      // Dest-range starts and per-(block, dest) cursors.
      std::vector<std::uint64_t> dest_start(static_cast<std::size_t>(T) + 1, 0);
      for (int t = 0; t < T; ++t) {
        std::uint64_t tot = 0;
        for (int b = 0; b < nblocks; ++b) tot += count_part[static_cast<std::size_t>(b) * T + t];
        dest_start[static_cast<std::size_t>(t) + 1] = dest_start[static_cast<std::size_t>(t)] + tot;
      }
      std::vector<std::uint64_t> part_cursor(static_cast<std::size_t>(nblocks) * T, 0);
      for (int t = 0; t < T; ++t) {
        std::uint64_t off = dest_start[static_cast<std::size_t>(t)];
        for (int b = 0; b < nblocks; ++b) {
          part_cursor[static_cast<std::size_t>(b) * T + t] = off;
          off += count_part[static_cast<std::size_t>(b) * T + t];
        }
      }

      const std::vector<std::uint16_t> thread_of_bin = bin_owner_table(thread_bounds);
      const std::uint32_t range_lo = my_range.begin;
      const auto block_bounds = util::split_range(static_cast<std::size_t>(nblocks), T);

      // Phase 1: parallel partition kmer_in -> kmer_out.
      team.run([&](int t) {
        for (std::size_t b = block_bounds[static_cast<std::size_t>(t)];
             b < block_bounds[static_cast<std::size_t>(t) + 1]; ++b) {
          std::uint64_t* cur = part_cursor.data() + b * T;
          for (std::uint64_t i = block_start[b]; i < block_start[b + 1]; ++i) {
            const std::uint32_t bin =
                wide ? kmer::prefix_bin128({kmer_in.keys_hi[i], kmer_in.keys[i]}, k, m)
                     : kmer::prefix_bin64(kmer_in.keys[i], k, m);
            const std::uint16_t d = thread_of_bin[bin - range_lo];
            const std::uint64_t at = cur[d]++;
            kmer_out.keys[at] = kmer_in.keys[i];
            kmer_out.vals[at] = kmer_in.vals[i];
            if (wide) kmer_out.keys_hi[at] = kmer_in.keys_hi[i];
          }
        }
      });

      // Phase 2: serial radix sort per thread range, scratch = kmer_in
      // (the paper reuses the send buffer as the out-of-place buffer).
      team.run([&](int t) {
        const std::uint64_t lo = dest_start[static_cast<std::size_t>(t)];
        const std::uint64_t hi = dest_start[static_cast<std::size_t>(t) + 1];
        const std::size_t n = hi - lo;
        if (n == 0) return;
        if (!wide) {
          sort::radix_sort_kv64(std::span(kmer_out.keys).subspan(lo, n),
                                std::span(kmer_out.vals).subspan(lo, n),
                                std::span(kmer_in.keys).subspan(lo, n),
                                std::span(kmer_in.vals).subspan(lo, n), 2 * k,
                                config.sort_digit_bits);
        } else {
          sort::radix_sort_kv128(std::span(kmer_out.keys_hi).subspan(lo, n),
                                 std::span(kmer_out.keys).subspan(lo, n),
                                 std::span(kmer_out.vals).subspan(lo, n),
                                 std::span(kmer_in.keys_hi).subspan(lo, n),
                                 std::span(kmer_in.keys).subspan(lo, n),
                                 std::span(kmer_in.vals).subspan(lo, n), 2 * k,
                                 config.sort_digit_bits);
        }
      });
      my.times.add("LocalSort", sort_timer.seconds());
      span_end(tr, "LocalSort", sort_t0);
      phase_boundary(ctx, "LocalSort");

      // ---- LocalCC (§3.5, Algorithm 1): runs of equal k-mers become
      // read-graph edges; union-find with buffered re-verification. ----
      progress_phase(ctx, "LocalCC");
      const double cc_t0 = span_begin(tr);
      WallTimer cc_timer;
      std::vector<int> thread_iters(static_cast<std::size_t>(T), 0);
      team.run([&](int t) {
        const std::uint64_t lo = dest_start[static_cast<std::size_t>(t)];
        const std::uint64_t hi = dest_start[static_cast<std::size_t>(t) + 1];
        std::vector<std::pair<std::uint32_t, std::uint32_t>> pending;
        std::uint64_t i = lo;
        while (i < hi) {
          std::uint64_t j = i + 1;
          if (!wide) {
            while (j < hi && kmer_out.keys[j] == kmer_out.keys[i]) ++j;
          } else {
            while (j < hi && kmer_out.keys[j] == kmer_out.keys[i] &&
                   kmer_out.keys_hi[j] == kmer_out.keys_hi[i])
              ++j;
          }
          const std::uint64_t freq = j - i;
          if (config.filter.accepts(freq)) {
            for (std::uint64_t x = i + 1; x < j; ++x) {
              const std::uint32_t u = kmer_out.vals[x - 1];
              const std::uint32_t v = kmer_out.vals[x];
              if (u == v) continue;
              if (u == kInvalidRead || v == kInvalidRead) continue;
              const std::uint32_t ru = local_cc.find(u);
              const std::uint32_t rv = local_cc.find(v);
              if (ru != rv) {
                local_cc.unite_once(ru, rv);
                pending.emplace_back(u, v);
              }
            }
          }
          i = j;
        }
        thread_iters[static_cast<std::size_t>(t)] =
            1 + dsu::process_edges_algorithm1(local_cc, pending);
        m_cc_edges.add(pending.size());
      });
      my.times.add("LocalCC", cc_timer.seconds());
      span_end(tr, "LocalCC", cc_t0);
      phase_boundary(ctx, "LocalCC");
      my.cc_iterations =
          std::max(my.cc_iterations,
                   *std::max_element(thread_iters.begin(), thread_iters.end()));
    }
    m_rss.set_max(static_cast<double>(util::current_rss_bytes()));
    span_end(tr, "Pass", pass_t0);
  }  // passes
}

// ---------------------------------------------------------------------------
// Overlap (pipelined) schedule.
//
// Passes run in groups of two.  One chunk read + k-mer scan generates both
// passes' tuple sets — pass s+1's KmerGen rides inside pass s's
// KmerGen-Comm window — the exchange is posted with async isend/irecv and
// completed lazily, and KmerGen partitions tuples at (dest rank, dest
// thread) granularity so the receive buffer IS the sort buffer and
// LocalSort's partition copy disappears.  All tuple arrays are leased from
// util::BufferPool and recycled across passes and groups.
//
// Equivalence to the barrier schedule (the differential grid asserts it):
// within a dest-thread region, tuples are laid out ordered by (src rank,
// src thread, generation order) — exactly the sequence the barrier
// partition copy produces — and the radix sort is stable, so LocalSort
// emits the same tuple sequence and LocalCC performs the same unions.  The
// one visible difference is §3.5.1 staleness: pass s+1 substitutes
// component IDs as of pass s-1 instead of pass s.  A stale root is still a
// member of the same component, so the union structure — and therefore the
// final partition — is unchanged (only label representatives may differ).
// ---------------------------------------------------------------------------

/// Exchange geometry of one pass at (dest rank, dest thread) granularity,
/// fully precomputed from the index tables (the overlap-mode analogue of
/// the barrier schedule's send/recv offset vectors).
struct OverlapGeom {
  std::uint32_t pass_lo = 0, pass_hi = 0;
  std::vector<std::uint32_t> slot_bounds;   ///< P*T+1 concatenated thread bounds
  std::vector<std::uint16_t> slot_of_bin;   ///< bin - pass_lo -> slot d*T+dt
  // Send side: slot-major layout, ordered by my thread t within a slot.
  std::vector<std::uint64_t> count_send;    ///< [t][slot]
  std::vector<std::uint64_t> slot_start;    ///< P*T+1 element offsets
  std::vector<std::uint64_t> cursor_start;  ///< [t][slot]
  std::uint64_t total_out = 0;
  // Recv side: T regions (one per dest thread), each ordered by src rank q,
  // within q by src thread — the barrier partition's output order.
  std::vector<std::uint64_t> count_recv;    ///< [q][dt]
  std::vector<std::uint64_t> region_start;  ///< T+1 element offsets
  std::vector<std::uint64_t> block_start;   ///< [q][dt] absolute element offsets
  std::uint64_t total_in = 0;
};

OverlapGeom overlap_geometry(const PassCtx& ctx, int s) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  OverlapGeom g;
  g.pass_lo = ctx.plan.pass_range(s).begin;
  g.pass_hi = ctx.plan.pass_range(s).end;
  g.slot_bounds.reserve(nslots + 1);
  g.slot_bounds.push_back(ctx.plan.thread_bounds(s, 0).front());
  for (int d = 0; d < P; ++d) {
    const auto& tb = ctx.plan.thread_bounds(s, d);
    for (int t = 1; t <= T; ++t) g.slot_bounds.push_back(tb[static_cast<std::size_t>(t)]);
  }
  g.slot_of_bin = bin_owner_table(g.slot_bounds);

  g.count_send.assign(static_cast<std::size_t>(ctx.T) * nslots, 0);
  for (int t = 0; t < T; ++t) {
    for (std::uint32_t c = ctx.ca.thread_begin(p, t); c < ctx.ca.thread_end(p, t); ++c) {
      accumulate_bounded_counts(
          ctx.index.part.row(c), g.slot_bounds,
          std::span(g.count_send).subspan(static_cast<std::size_t>(t) * nslots, nslots));
    }
  }
  g.slot_start.assign(nslots + 1, 0);
  for (std::size_t slot = 0; slot < nslots; ++slot) {
    std::uint64_t tot = 0;
    for (int t = 0; t < T; ++t) tot += g.count_send[static_cast<std::size_t>(t) * nslots + slot];
    g.slot_start[slot + 1] = g.slot_start[slot] + tot;
  }
  g.cursor_start.assign(static_cast<std::size_t>(T) * nslots, 0);
  for (std::size_t slot = 0; slot < nslots; ++slot) {
    std::uint64_t off = g.slot_start[slot];
    for (int t = 0; t < T; ++t) {
      g.cursor_start[static_cast<std::size_t>(t) * nslots + slot] = off;
      off += g.count_send[static_cast<std::size_t>(t) * nslots + slot];
    }
  }
  g.total_out = g.slot_start[nslots];

  const auto& my_tb = ctx.plan.thread_bounds(s, p);
  g.count_recv.assign(static_cast<std::size_t>(P) * T, 0);
  for (int q = 0; q < P; ++q) {
    for (std::uint32_t c = ctx.ca.rank_begin(q); c < ctx.ca.rank_end(q); ++c) {
      accumulate_bounded_counts(
          ctx.index.part.row(c), my_tb,
          std::span(g.count_recv).subspan(static_cast<std::size_t>(q) * T, T));
    }
  }
  g.region_start.assign(static_cast<std::size_t>(T) + 1, 0);
  for (int dt = 0; dt < T; ++dt) {
    std::uint64_t tot = 0;
    for (int q = 0; q < P; ++q) tot += g.count_recv[static_cast<std::size_t>(q) * T + dt];
    g.region_start[static_cast<std::size_t>(dt) + 1] =
        g.region_start[static_cast<std::size_t>(dt)] + tot;
  }
  g.block_start.assign(static_cast<std::size_t>(P) * T, 0);
  for (int dt = 0; dt < T; ++dt) {
    std::uint64_t off = g.region_start[static_cast<std::size_t>(dt)];
    for (int q = 0; q < P; ++q) {
      g.block_start[static_cast<std::size_t>(q) * T + dt] = off;
      off += g.count_recv[static_cast<std::size_t>(q) * T + dt];
    }
  }
  g.total_in = g.region_start[static_cast<std::size_t>(T)];
  return g;
}

/// Tags for the fine-grained async exchange: unique per (pass, tuple array,
/// dest thread), disjoint from the barrier all-to-all (1000+) and MergeCC
/// (1<<20) ranges.
constexpr int kOverlapTagBase = 2'000'000;
inline int overlap_tag(int s, int arr, int dt, int T) {
  return kOverlapTagBase + (s * 3 + arr) * T + dt;
}

/// Post the pass-s exchange: self sub-blocks copy inline, every remote
/// sub-block is isend'ed now (buffered) and its irecv lands directly at the
/// tuple's final sort position.  Zero-length sub-blocks are not shipped —
/// both sides derive the same sizes from the index tables, so the skip is
/// symmetric.  Returns immediately; the caller owns the pending receives.
void post_overlap_exchange(PassCtx& ctx, int s, const OverlapGeom& g,
                           const TupleBuffer& sendb, TupleBuffer& recvb,
                           std::vector<mpsim::Request>& pending) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  auto post_array = [&](int arr, const void* sdata, void* rdata, std::size_t esz) {
    const auto* sb = static_cast<const std::byte*>(sdata);
    auto* rb = static_cast<std::byte*>(rdata);
    for (int dt = 0; dt < T; ++dt) {
      const std::size_t self = static_cast<std::size_t>(p) * T + dt;
      const std::uint64_t len = g.count_recv[self];
      if (len == 0) continue;
      std::memcpy(rb + g.block_start[self] * esz, sb + g.slot_start[self] * esz, len * esz);
    }
    // Staged schedule (§3.3): stage i sends to (p+i)%P, receives from
    // (p-i+P)%P, one message per destination thread.
    for (int stage = 1; stage < P; ++stage) {
      const int d = (p + stage) % P;
      const int q = (p - stage + P) % P;
      for (int dt = 0; dt < T; ++dt) {
        const std::size_t dslot = static_cast<std::size_t>(d) * T + dt;
        const std::uint64_t slen = g.slot_start[dslot + 1] - g.slot_start[dslot];
        if (slen > 0) {
          ctx.comm.isend(d, overlap_tag(s, arr, dt, T), sb + g.slot_start[dslot] * esz,
                         slen * esz);
        }
        const std::size_t qslot = static_cast<std::size_t>(q) * T + dt;
        const std::uint64_t rlen = g.count_recv[qslot];
        if (rlen > 0) {
          pending.push_back(ctx.comm.irecv(q, overlap_tag(s, arr, dt, T),
                                           rb + g.block_start[qslot] * esz, rlen * esz));
        }
      }
    }
  };
  post_array(0, sendb.keys.data(), recvb.keys.data(), 8);
  post_array(1, sendb.vals.data(), recvb.vals.data(), 4);
  if (sendb.wide) post_array(2, sendb.keys_hi.data(), recvb.keys_hi.data(), 8);
}

void run_passes_overlap(PassCtx& ctx) {
  const MetaprepConfig& config = ctx.config;
  const ChunkAssignment& ca = ctx.ca;
  mpsim::Comm& comm = ctx.comm;
  ThreadTeam& team = ctx.team;
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  RankShared& my = ctx.my;
  obs::TraceSession& tr = ctx.tr;
  const int p = ctx.p, P = ctx.P, T = ctx.T, S = ctx.S, k = ctx.k, m = ctx.m;
  const bool wide = ctx.wide;
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  if (nslots > 0xFFFF)
    throw util::config_error("overlap mode: P*T must fit the 16-bit slot table");

  util::BufferPool& pool =
      config.buffer_pool != nullptr ? *config.buffer_pool : util::BufferPool::global();
  std::uint64_t live_bytes = 0;
  auto tuple_bytes_of = [wide](std::size_t n) { return n * (wide ? 20ull : 12ull); };
  auto acquire_tuples = [&](std::size_t n) {
    const obs::MemScope tuples_scope("tuples");  // tags the pool lease below
    TupleBuffer b;
    b.wide = wide;
    b.keys = pool.acquire_u64(n);
    if (wide) b.keys_hi = pool.acquire_u64(n);
    b.vals = pool.acquire_u32(n);
    live_bytes += tuple_bytes_of(n);
    my.max_buffer_bytes = std::max(my.max_buffer_bytes, live_bytes);
    return b;
  };
  auto release_tuples = [&](TupleBuffer&& b) {
    const obs::MemScope tuples_scope("tuples");
    live_bytes -= tuple_bytes_of(b.size());
    pool.release(std::move(b.keys));
    // keys_hi is only leased for wide keys; releasing the empty vector would
    // (correctly) trip the pool's double-release check.
    if (b.wide) pool.release(std::move(b.keys_hi));
    pool.release(std::move(b.vals));
  };

  for (int s0 = 0; s0 < S; s0 += 2) {
    util::throw_if_cancelled(config.cancel_token, "overlap pass group");
    const int npasses = std::min(2, S - s0);
    std::array<double, 2> pass_t0{span_begin(tr), -1.0};
    std::array<OverlapGeom, 2> geom;
    std::array<TupleBuffer, 2> send_buf;
    std::array<TupleBuffer, 2> recv_buf;
    // Liveness flags + guard: any exception leaving this group (cancel,
    // comm poison, CheckError) releases whatever is still leased.  Flags
    // rather than emptiness tests so a zero-tuple lease is still returned.
    std::array<bool, 2> send_live{false, false};
    std::array<bool, 2> recv_live{false, false};
    ScopeExit lease_guard([&] {
      for (std::size_t i = 0; i < 2; ++i) {
        if (send_live[i]) release_tuples(std::move(send_buf[i]));
        if (recv_live[i]) release_tuples(std::move(recv_buf[i]));
      }
    });
    std::array<std::vector<mpsim::Request>, 2> pending;
    std::array<std::vector<std::uint64_t>, 2> cursor;
    for (int i = 0; i < npasses; ++i) {
      geom[static_cast<std::size_t>(i)] = overlap_geometry(ctx, s0 + i);
      send_buf[static_cast<std::size_t>(i)] =
          acquire_tuples(geom[static_cast<std::size_t>(i)].total_out);
      send_live[static_cast<std::size_t>(i)] = true;
      cursor[static_cast<std::size_t>(i)] = geom[static_cast<std::size_t>(i)].cursor_start;
      my.tuples += geom[static_cast<std::size_t>(i)].total_out;
      ctx.m_tuples.add(geom[static_cast<std::size_t>(i)].total_out);
    }

    // ---- Fused KmerGen: one chunk read + scan fills every pass buffer in
    // the group (pass s0+1's generation overlaps pass s0's comm window). ----
    const bool substitute_components = config.cc_opt && s0 > 0;
    const std::uint32_t lo = geom[0].pass_lo;
    const std::uint32_t mid = geom[0].pass_hi;
    const std::uint32_t hi = geom[static_cast<std::size_t>(npasses) - 1].pass_hi;
    std::vector<double> io_seconds(static_cast<std::size_t>(T), 0.0);
    std::vector<double> gen_seconds(static_cast<std::size_t>(T), 0.0);
    std::vector<std::uint64_t> skip_counts(static_cast<std::size_t>(T), 0);
    progress_phase(ctx, "KmerGen");
    team.run([&](int t) {
      obs::TraceSession::set_thread_identity(p, t);
      std::uint64_t* cur0 = cursor[0].data() + static_cast<std::size_t>(t) * nslots;
      std::uint64_t* cur1 =
          npasses > 1 ? cursor[1].data() + static_cast<std::size_t>(t) * nslots : nullptr;
      TupleBuffer& out0 = send_buf[0];
      TupleBuffer& out1 = send_buf[1];
      auto emit64 = [&](std::uint64_t km, std::uint32_t value) {
        const std::uint32_t bin = kmer::prefix_bin64(km, k, m);
        if (bin < lo || bin >= hi) return;
        if (bin < mid) {
          const std::uint64_t at = cur0[geom[0].slot_of_bin[bin - lo]]++;
          out0.keys[at] = km;
          out0.vals[at] = value;
        } else {
          const std::uint64_t at = cur1[geom[1].slot_of_bin[bin - mid]]++;
          out1.keys[at] = km;
          out1.vals[at] = value;
        }
      };
      auto emit128 = [&](kmer::Kmer128 km, std::uint32_t value) {
        const std::uint32_t bin = kmer::prefix_bin128(km, k, m);
        if (bin < lo || bin >= hi) return;
        if (bin < mid) {
          const std::uint64_t at = cur0[geom[0].slot_of_bin[bin - lo]]++;
          out0.keys[at] = km.lo;
          out0.keys_hi[at] = km.hi;
          out0.vals[at] = value;
        } else {
          const std::uint64_t at = cur1[geom[1].slot_of_bin[bin - mid]]++;
          out1.keys[at] = km.lo;
          out1.keys_hi[at] = km.hi;
          out1.vals[at] = value;
        }
      };
      // §3.5.1 substitution happens inside scan_chunk, one group staler
      // than barrier mode (components as of pass s0-1 for both passes in
      // the group).
      for (std::uint32_t c = ca.thread_begin(p, t); c < ca.thread_end(p, t); ++c) {
        skip_counts[static_cast<std::size_t>(t)] +=
            scan_chunk(ctx, c, substitute_components,
                       io_seconds[static_cast<std::size_t>(t)],
                       gen_seconds[static_cast<std::size_t>(t)], emit64, emit128);
      }
    });
    my.times.add("KmerGen-I/O", *std::max_element(io_seconds.begin(), io_seconds.end()));
    my.times.add("KmerGen", *std::max_element(gen_seconds.begin(), gen_seconds.end()));
    if (s0 == 0) {
      // First chunk sweep == one visit per record: distinct-skip count.
      for (std::uint64_t sk : skip_counts) my.records_skipped += sk;
    }
    phase_boundary(ctx, "KmerGen");

    // Sentinel fill (lenient-parsing gaps), per pass: same rule as barrier
    // mode, except the key is the slot's first bin (the sub-block must stay
    // inside its dest thread's range; see DESIGN.md).
    for (int i = 0; i < npasses; ++i) {
      const OverlapGeom& g = geom[static_cast<std::size_t>(i)];
      TupleBuffer& buf = send_buf[static_cast<std::size_t>(i)];
      auto& cur = cursor[static_cast<std::size_t>(i)];
      for (int t = 0; t < T; ++t) {
        for (std::size_t slot = 0; slot < nslots; ++slot) {
          const std::size_t ts = static_cast<std::size_t>(t) * nslots + slot;
          const std::uint64_t block_end = g.cursor_start[ts] + g.count_send[ts];
          if (cur[ts] == block_end) continue;
          const auto bin = static_cast<std::uint64_t>(g.slot_bounds[slot]);
          const int shift = 2 * (k - m);
          std::uint64_t s_lo, s_hi;
          if (!wide) {
            s_lo = bin << shift;
            s_hi = 0;
          } else if (shift >= 64) {
            s_hi = bin << (shift - 64);
            s_lo = 0;
          } else {
            s_lo = bin << shift;
            s_hi = bin >> (64 - shift);
          }
          for (std::uint64_t at = cur[ts]; at < block_end; ++at) {
            buf.keys[at] = s_lo;
            if (wide) buf.keys_hi[at] = s_hi;
            buf.vals[at] = kInvalidRead;
          }
          cur[ts] = block_end;
        }
      }
    }

    // ---- Post every pass's exchange; sends are buffered, so the send
    // buffers go back to the pool immediately (the mailbox owns the
    // in-flight copies — DESIGN.md "Buffer-pool ownership"). ----
    progress_phase(ctx, "KmerGen-Comm");
    for (int i = 0; i < npasses; ++i) {
      obs::TraceSpan comm_span("KmerGen-Comm");
      WallTimer comm_timer;
      const std::size_t si = static_cast<std::size_t>(i);
      if (P == 1) {
        // Slot layout == region layout at P == 1: the generation buffer IS
        // the sort buffer; no exchange, no copy.
        recv_buf[si] = std::move(send_buf[si]);
        send_buf[si] = TupleBuffer{};
        recv_live[si] = send_live[si];
        send_live[si] = false;
      } else {
        recv_buf[si] = acquire_tuples(geom[si].total_in);
        recv_live[si] = true;
        post_overlap_exchange(ctx, s0 + i, geom[si], send_buf[si], recv_buf[si], pending[si]);
        release_tuples(std::move(send_buf[si]));
        send_buf[si] = TupleBuffer{};
        send_live[si] = false;
        // Cross-rank tuples = everything outside my own P*T slot block.
        const std::uint64_t cross =
            geom[si].total_out -
            (geom[si].slot_start[(static_cast<std::size_t>(p) + 1) * T] -
             geom[si].slot_start[static_cast<std::size_t>(p) * T]);
        my.exchange_bytes += cross * (wide ? 20u : 12u);
        my.exchange_bytes_raw += cross * (wide ? 20u : 12u);
      }
      my.times.add("KmerGen-Comm", comm_timer.seconds());
    }
    phase_boundary(ctx, "KmerGen-Comm");

    // ---- Drain the group: while pass s0 sorts and unions, pass s0+1's
    // exchange stays in flight (straggler ranks may still be generating
    // it); its wait_all is the pipeline's only synchronization. ----
    const double window_t0 = span_begin(tr);
    for (int i = 0; i < npasses; ++i) {
      util::throw_if_cancelled(config.cancel_token, "overlap drain");
      const std::size_t si = static_cast<std::size_t>(i);
      const OverlapGeom& g = geom[si];
      TupleBuffer& tuples = recv_buf[si];
      if (i == npasses - 1) span_end(tr, "Overlap-Window", window_t0);
      if (pass_t0[si] < 0.0) pass_t0[si] = span_begin(tr);
      if (P > 1) {
        obs::TraceSpan wait_span("KmerGen-Comm");
        WallTimer wait_timer;
        comm.wait_all(pending[si]);
        pending[si].clear();
        my.times.add("KmerGen-Comm", wait_timer.seconds());
      }

      // ---- LocalSort: the fine-grained exchange already delivered every
      // tuple into its dest thread's region, so only the stable radix sort
      // remains (barrier mode's partition copy is structurally gone). ----
      progress_phase(ctx, "LocalSort");
      {
        const double sort_t0 = span_begin(tr);
        WallTimer sort_timer;
        TupleBuffer scratch = acquire_tuples(g.total_in);
        ScopeExit scratch_guard([&] { release_tuples(std::move(scratch)); });
        team.run([&](int t) {
          const std::uint64_t rlo = g.region_start[static_cast<std::size_t>(t)];
          const std::uint64_t rhi = g.region_start[static_cast<std::size_t>(t) + 1];
          const std::size_t n = rhi - rlo;
          if (n == 0) return;
          if (!wide) {
            sort::radix_sort_kv64(std::span(tuples.keys).subspan(rlo, n),
                                  std::span(tuples.vals).subspan(rlo, n),
                                  std::span(scratch.keys).subspan(rlo, n),
                                  std::span(scratch.vals).subspan(rlo, n), 2 * k,
                                  config.sort_digit_bits);
          } else {
            sort::radix_sort_kv128(std::span(tuples.keys_hi).subspan(rlo, n),
                                   std::span(tuples.keys).subspan(rlo, n),
                                   std::span(tuples.vals).subspan(rlo, n),
                                   std::span(scratch.keys_hi).subspan(rlo, n),
                                   std::span(scratch.keys).subspan(rlo, n),
                                   std::span(scratch.vals).subspan(rlo, n), 2 * k,
                                   config.sort_digit_bits);
          }
        });
        scratch_guard.dismiss();
        release_tuples(std::move(scratch));
        my.times.add("LocalSort", sort_timer.seconds());
        span_end(tr, "LocalSort", sort_t0);
        phase_boundary(ctx, "LocalSort");
      }

      // ---- LocalCC: identical to barrier mode, over the sorted regions. ----
      progress_phase(ctx, "LocalCC");
      {
        const double cc_t0 = span_begin(tr);
        WallTimer cc_timer;
        std::vector<int> thread_iters(static_cast<std::size_t>(T), 0);
        team.run([&](int t) {
          const std::uint64_t rlo = g.region_start[static_cast<std::size_t>(t)];
          const std::uint64_t rhi = g.region_start[static_cast<std::size_t>(t) + 1];
          std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
          std::uint64_t i2 = rlo;
          while (i2 < rhi) {
            std::uint64_t j = i2 + 1;
            if (!wide) {
              while (j < rhi && tuples.keys[j] == tuples.keys[i2]) ++j;
            } else {
              while (j < rhi && tuples.keys[j] == tuples.keys[i2] &&
                     tuples.keys_hi[j] == tuples.keys_hi[i2])
                ++j;
            }
            const std::uint64_t freq = j - i2;
            if (config.filter.accepts(freq)) {
              for (std::uint64_t x = i2 + 1; x < j; ++x) {
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
            i2 = j;
          }
          thread_iters[static_cast<std::size_t>(t)] =
              1 + dsu::process_edges_algorithm1(local_cc, edges);
          ctx.m_cc_edges.add(edges.size());
        });
        my.times.add("LocalCC", cc_timer.seconds());
        span_end(tr, "LocalCC", cc_t0);
        phase_boundary(ctx, "LocalCC");
        my.cc_iterations =
            std::max(my.cc_iterations,
                     *std::max_element(thread_iters.begin(), thread_iters.end()));
      }

      release_tuples(std::move(tuples));
      recv_buf[si] = TupleBuffer{};
      recv_live[si] = false;
      ctx.m_rss.set_max(static_cast<double>(util::current_rss_bytes()));
      span_end(tr, "Pass", pass_t0[si]);
    }
  }  // pass groups
}

// ---------------------------------------------------------------------------
// Compressed exchange (--comm-compress): super-k-mer aggregation and/or the
// counting-Bloom singleton prefilter over a variable-size staged exchange.
//
// Routing.  superkmer/both route whole runs by minimizer-hash bin
// (kmer::minimizer_bin): the minimizer is a deterministic function of the
// canonical k-mer, so every occurrence of a k-mer lands on one
// (pass, rank, thread) and frequency counting stays global.  bloom-only
// keeps the prefix-bin routing of the uncompressed schedules.  Payloads are
// variable-size, so the precomputed-offset all-to-all is replaced by exactly
// one isend per (src, dest, pass) — sent even when empty, so the receive
// loop has a deterministic message count and World::finalize_check stays
// clean.
//
// Message layout per (src -> dest, pass): u64 lens[T] header (bytes per
// dest-thread section), then section dt = 0..T-1, each the concatenation of
// the source's T thread streams for slot d*T+dt.  The receiver sizes T sort
// regions (one per dest thread, blocks ordered by src rank — the same order
// the uncompressed schedules produce), expands records at exact offsets,
// then LocalSort/LocalCC run unchanged.  Equivalence arguments: DESIGN.md
// "Exchange compression".
// ---------------------------------------------------------------------------

/// Tag space disjoint from barrier (1000+), overlap (2'000'000+), and
/// MergeCC (1<<20): one tag per pass.
constexpr int kCompressTagBase = 3'000'000;

/// Little-endian byte append/read for the message headers.
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

/// Reusable per-thread scratch for the super-k-mer emit path: the scanner's
/// window state plus, on the Bloom paths only, the record's canonical k-mers
/// indexed by window start (runs only cover valid windows, so only those
/// slots are read).
struct SuperKmerScratch {
  kmer::SuperKmerScanner scanner;
  std::vector<std::uint64_t> km_lo;
  std::vector<std::uint64_t> km_hi;
};

/// Enumerate a record's super-k-mer runs; fn(start, kmer_count, minimizer).
template <typename Fn>
void for_each_run(SuperKmerScratch& sc, const RecordView& rec, int k, int msk, Fn&& fn) {
  if (rec.words != nullptr) {
    sc.scanner.scan_packed(rec.words, rec.len, rec.npos, rec.ncount, k, msk,
                           std::forward<Fn>(fn));
  } else {
    sc.scanner.scan(std::string_view(rec.text, rec.len), k, msk, std::forward<Fn>(fn));
  }
}

/// Fill sc.km_lo/km_hi with the record's canonical k-mer per window so the
/// Bloom paths can hash a run's k-mers by position.
void fill_canonical_kmers(SuperKmerScratch& sc, const RecordView& rec, int k, bool wide) {
  if (rec.len < static_cast<std::uint32_t>(k)) return;
  const std::uint32_t nwin = rec.len - static_cast<std::uint32_t>(k) + 1;
  sc.km_lo.resize(nwin);
  if (wide) sc.km_hi.resize(nwin);
  auto put64 = [&](std::uint64_t km, std::size_t pos) { sc.km_lo[pos] = km; };
  auto put128 = [&](kmer::Kmer128 km, std::size_t pos) {
    sc.km_lo[pos] = km.lo;
    sc.km_hi[pos] = km.hi;
  };
  if (rec.words != nullptr) {
    if (!wide) {
      kmer::for_each_canonical_kmer64_packed(rec.words, rec.len, rec.npos, rec.ncount, k, put64);
    } else {
      kmer::for_each_canonical_kmer128_packed(rec.words, rec.len, rec.npos, rec.ncount, k,
                                              put128);
    }
  } else {
    const std::string_view seq(rec.text, rec.len);
    if (!wide) {
      kmer::for_each_canonical_kmer64(seq, k, put64);
    } else {
      kmer::for_each_canonical_kmer128(seq, k, put128);
    }
  }
}

/// One pass's routing geometry for the compressed exchange: the bin range
/// plus a bin -> slot (d*T+dt) table, uniform over minimizer-hash bins in
/// superkmer modes, the PassPlan's prefix-bin geometry in bloom-only mode.
struct CompressPassGeom {
  std::uint32_t lo = 0, hi = 0;
  std::vector<std::uint16_t> slot_of_bin;  ///< bin - lo -> slot d*T+dt
};

struct CompressPlan {
  bool superkmer = false;
  bool bloom = false;
  std::uint32_t nbins = 0;
  std::vector<CompressPassGeom> pass;      ///< S entries
  std::vector<std::uint16_t> rank_of_bin;  ///< global bin -> owner rank
};

CompressPlan make_compress_plan(const PassPlan& plan, int S, int P, int T,
                                std::uint32_t prefix_nbins, bool superkmer,
                                bool bloom) {
  CompressPlan cp;
  cp.superkmer = superkmer;
  cp.bloom = bloom;
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  cp.pass.resize(static_cast<std::size_t>(S));
  if (superkmer) {
    cp.nbins = kmer::kNumMinimizerBins;
    const auto pass_bounds = util::split_range(cp.nbins, S);
    for (int s = 0; s < S; ++s) {
      CompressPassGeom& pg = cp.pass[static_cast<std::size_t>(s)];
      pg.lo = static_cast<std::uint32_t>(pass_bounds[static_cast<std::size_t>(s)]);
      pg.hi = static_cast<std::uint32_t>(pass_bounds[static_cast<std::size_t>(s) + 1]);
      const auto slot_rel = util::split_range(pg.hi - pg.lo, static_cast<int>(nslots));
      std::vector<std::uint32_t> bounds(nslots + 1);
      for (std::size_t i = 0; i <= nslots; ++i)
        bounds[i] = pg.lo + static_cast<std::uint32_t>(slot_rel[i]);
      pg.slot_of_bin = bin_owner_table(bounds);
    }
  } else {
    cp.nbins = prefix_nbins;
    for (int s = 0; s < S; ++s) {
      CompressPassGeom& pg = cp.pass[static_cast<std::size_t>(s)];
      pg.lo = plan.pass_range(s).begin;
      pg.hi = plan.pass_range(s).end;
      std::vector<std::uint32_t> bounds;
      bounds.reserve(nslots + 1);
      bounds.push_back(plan.thread_bounds(s, 0).front());
      for (int d = 0; d < P; ++d) {
        const auto& tb = plan.thread_bounds(s, d);
        for (int t = 1; t <= T; ++t) bounds.push_back(tb[static_cast<std::size_t>(t)]);
      }
      pg.slot_of_bin = bin_owner_table(bounds);
    }
  }
  cp.rank_of_bin.assign(cp.nbins, 0);
  for (int s = 0; s < S; ++s) {
    const CompressPassGeom& pg = cp.pass[static_cast<std::size_t>(s)];
    for (std::uint32_t b = pg.lo; b < pg.hi; ++b) {
      cp.rank_of_bin[b] =
          static_cast<std::uint16_t>(pg.slot_of_bin[b - pg.lo] / static_cast<unsigned>(T));
    }
  }
  return cp;
}

/// The compressed pass scheduler.  Barrier mode runs one pass per group;
/// overlap mode fuses two passes per chunk sweep (same grouping as
/// run_passes_overlap, same one-group-staler §3.5.1 substitution).
/// @p blooms is non-null in bloom/both modes: P destination-owned counting
/// Blooms, globally counted in a pre-scan below (shared-memory stand-in for
/// an MPI-3 one-sided accumulate window; DESIGN.md).
void run_passes_compressed(PassCtx& ctx, const CompressPlan& cplan,
                           std::vector<kmer::CountingBloom>* blooms) {
  const MetaprepConfig& config = ctx.config;
  const ChunkAssignment& ca = ctx.ca;
  mpsim::Comm& comm = ctx.comm;
  ThreadTeam& team = ctx.team;
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  RankShared& my = ctx.my;
  obs::TraceSession& tr = ctx.tr;
  const int p = ctx.p, P = ctx.P, T = ctx.T, S = ctx.S, k = ctx.k, m = ctx.m;
  const bool wide = ctx.wide;
  const int msk = config.superkmer_minimizer_len;
  const std::uint64_t tuple_bytes = wide ? 20 : 12;
  const std::size_t fixed_rec = wide ? 20 : 12;  ///< bloom-only record size
  const std::uint32_t R = ctx.index.total_reads;
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  const int group_sz = config.pipeline_mode == PipelineMode::kOverlap ? 2 : 1;

  auto hash_at = [&](const SuperKmerScratch& sc, std::uint32_t pos) {
    return wide ? kmer::kmer_hash128(sc.km_hi[pos], sc.km_lo[pos])
                : kmer::kmer_hash64(sc.km_lo[pos]);
  };

  // ---- BloomCount: one extra scan over this rank's chunks inserting every
  // k-mer occurrence into its destination rank's filter, so counts are
  // global before any drop decision.  The barrier publishes all inserts
  // (count() is read-only afterwards); a k-mer seen once on each of two
  // ranks still counts 2 at its single destination, so only true global
  // singletons can be suppressed. ----
  if (blooms != nullptr) {
    progress_phase(ctx, "BloomCount");
    const double bc_t0 = span_begin(tr);
    WallTimer bc_timer;
    team.run([&](int t) {
      obs::TraceSession::set_thread_identity(p, t);
      double io_s = 0.0, gen_s = 0.0;  // folded into BloomCount's own step wall
      if (cplan.superkmer) {
        SuperKmerScratch sc;
        for (std::uint32_t c = ca.thread_begin(p, t); c < ca.thread_end(p, t); ++c) {
          scan_chunk_records(
              ctx, c, false, io_s, gen_s, false,
              [&](std::uint32_t, const RecordView& rec) {
                fill_canonical_kmers(sc, rec, k, wide);
                for_each_run(sc, rec, k, msk,
                             [&](std::uint32_t start, std::uint32_t count, std::uint64_t mz) {
                               kmer::CountingBloom& bl =
                                   (*blooms)[cplan.rank_of_bin[kmer::minimizer_bin(mz)]];
                               for (std::uint32_t j = 0; j < count; ++j)
                                 bl.insert(hash_at(sc, start + j));
                             });
              });
        }
      } else {
        auto count64 = [&](std::uint64_t km, std::uint32_t) {
          const std::uint32_t bin = kmer::prefix_bin64(km, k, m);
          (*blooms)[cplan.rank_of_bin[bin]].insert(kmer::kmer_hash64(km));
        };
        auto count128 = [&](kmer::Kmer128 km, std::uint32_t) {
          const std::uint32_t bin = kmer::prefix_bin128(km, k, m);
          (*blooms)[cplan.rank_of_bin[bin]].insert(kmer::kmer_hash128(km.hi, km.lo));
        };
        for (std::uint32_t c = ca.thread_begin(p, t); c < ca.thread_end(p, t); ++c) {
          scan_chunk(ctx, c, false, io_s, gen_s, count64, count128, false);
        }
      }
    });
    comm.barrier();  // happens-before: all inserts visible to all readers
    my.times.add("BloomCount", bc_timer.seconds());
    span_end(tr, "BloomCount", bc_t0);
    phase_boundary(ctx, "BloomCount");
  }

  TupleBuffer tuples;
  TupleBuffer scratch;
  tuples.wide = wide;
  scratch.wide = wide;

  for (int s0 = 0; s0 < S; s0 += group_sz) {
    util::throw_if_cancelled(ctx.config.cancel_token, "compressed pass group");
    const int npasses = std::min(group_sz, S - s0);
    std::array<double, 2> pass_t0{span_begin(tr), -1.0};
    const std::uint32_t g0lo = cplan.pass[static_cast<std::size_t>(s0)].lo;
    const std::uint32_t g0hi = cplan.pass[static_cast<std::size_t>(s0)].hi;
    const std::uint32_t g1lo =
        npasses > 1 ? cplan.pass[static_cast<std::size_t>(s0) + 1].lo : 0;
    const std::uint32_t g1hi =
        npasses > 1 ? cplan.pass[static_cast<std::size_t>(s0) + 1].hi : 0;

    // Per (pass-in-group, my thread, slot) byte streams; concatenated into
    // one message per (dest, pass) below.
    std::array<std::vector<std::vector<std::vector<std::byte>>>, 2> streams;
    for (int i = 0; i < npasses; ++i) {
      streams[static_cast<std::size_t>(i)].assign(
          static_cast<std::size_t>(T), std::vector<std::vector<std::byte>>(nslots));
    }

    // ---- KmerGen (fused over the group in overlap mode): emit wire
    // records instead of fixed tuples.  Lenient-parse skips simply emit
    // nothing — variable-size messages need no sentinel padding. ----
    const bool substitute_components = config.cc_opt && s0 > 0;
    std::vector<double> io_seconds(static_cast<std::size_t>(T), 0.0);
    std::vector<double> gen_seconds(static_cast<std::size_t>(T), 0.0);
    std::vector<std::uint64_t> skip_counts(static_cast<std::size_t>(T), 0);
    std::vector<std::uint64_t> raw_counts(static_cast<std::size_t>(T), 0);
    std::vector<std::uint64_t> kept_counts(static_cast<std::size_t>(T), 0);
    std::vector<std::uint64_t> rec_counts(static_cast<std::size_t>(T), 0);
    std::vector<std::uint64_t> drop_counts(static_cast<std::size_t>(T), 0);
    progress_phase(ctx, "KmerGen");
    team.run([&](int t) {
      obs::TraceSession::set_thread_identity(p, t);
      const std::size_t ut = static_cast<std::size_t>(t);
      // pass-in-group of a routing bin, or -1 when outside the group.
      auto group_pass_of = [&](std::uint32_t bin) -> int {
        if (bin >= g0lo && bin < g0hi) return 0;
        if (npasses > 1 && bin >= g1lo && bin < g1hi) return 1;
        return -1;
      };
      if (cplan.superkmer) {
        SuperKmerScratch sc;
        auto handle_record = [&](std::uint32_t value, const RecordView& rec) {
          // Only the Bloom filter probes k-mers by position; plain
          // super-k-mer emission needs the minimizer scan alone.
          if (blooms != nullptr) fill_canonical_kmers(sc, rec, k, wide);
          for_each_run(sc, rec, k, msk,
                       [&](std::uint32_t start, std::uint32_t count, std::uint64_t mz) {
            const std::uint32_t bin = kmer::minimizer_bin(mz);
            const int i = group_pass_of(bin);
            if (i < 0) return;
            const CompressPassGeom& pg = cplan.pass[static_cast<std::size_t>(s0 + i)];
            const std::uint16_t slot = pg.slot_of_bin[bin - pg.lo];
            const int d = slot / T;
            std::vector<std::byte>& stream =
                streams[static_cast<std::size_t>(i)][ut][slot];
            if (d != p) raw_counts[ut] += count;
            auto emit_subrun = [&](std::uint32_t a, std::uint32_t cnt) {
              while (cnt > 0) {
                const std::uint32_t take = std::min(cnt, kmer::kMaxSuperKmerRun);
                rec.append_record(stream, value, start + a, take, k);
                ++rec_counts[ut];
                a += take;
                cnt -= take;
              }
            };
            if (blooms == nullptr) {
              kept_counts[ut] += count;
              emit_subrun(0, count);
            } else {
              // Bloom-surviving maximal sub-runs: every k-mer in a kept
              // sub-run has global count >= 2 at its (single) destination.
              const kmer::CountingBloom& bl = (*blooms)[d];
              std::uint32_t a = 0;
              while (a < count) {
                if (bl.count(hash_at(sc, start + a)) < 2) {
                  ++drop_counts[ut];
                  ++a;
                  continue;
                }
                std::uint32_t b = a + 1;
                while (b < count && bl.count(hash_at(sc, start + b)) >= 2) ++b;
                kept_counts[ut] += b - a;
                emit_subrun(a, b - a);
                a = b;
              }
            }
          });
        };
        for (std::uint32_t c = ca.thread_begin(p, t); c < ca.thread_end(p, t); ++c) {
          skip_counts[ut] += scan_chunk_records(ctx, c, substitute_components,
                                                io_seconds[ut], gen_seconds[ut],
                                                true, handle_record);
        }
      } else {
        // bloom-only: prefix-bin routing, fixed-size (k-mer, value) records.
        auto route = [&](std::uint32_t bin) -> std::pair<int, std::vector<std::byte>*> {
          const int i = group_pass_of(bin);
          if (i < 0) return {-1, nullptr};
          const CompressPassGeom& pg = cplan.pass[static_cast<std::size_t>(s0 + i)];
          const std::uint16_t slot = pg.slot_of_bin[bin - pg.lo];
          return {slot / T, &streams[static_cast<std::size_t>(i)][ut][slot]};
        };
        auto emit64 = [&](std::uint64_t km, std::uint32_t value) {
          const auto [d, stream] = route(kmer::prefix_bin64(km, k, m));
          if (d < 0) return;
          if (d != p) ++raw_counts[ut];
          if ((*blooms)[d].count(kmer::kmer_hash64(km)) < 2) {
            ++drop_counts[ut];
            return;
          }
          ++kept_counts[ut];
          append_le(*stream, km, 8);
          append_le(*stream, value, 4);
        };
        auto emit128 = [&](kmer::Kmer128 km, std::uint32_t value) {
          const auto [d, stream] = route(kmer::prefix_bin128(km, k, m));
          if (d < 0) return;
          if (d != p) ++raw_counts[ut];
          if ((*blooms)[d].count(kmer::kmer_hash128(km.hi, km.lo)) < 2) {
            ++drop_counts[ut];
            return;
          }
          ++kept_counts[ut];
          append_le(*stream, km.lo, 8);
          append_le(*stream, km.hi, 8);
          append_le(*stream, value, 4);
        };
        for (std::uint32_t c = ca.thread_begin(p, t); c < ca.thread_end(p, t); ++c) {
          skip_counts[ut] += scan_chunk(ctx, c, substitute_components, io_seconds[ut],
                                        gen_seconds[ut], emit64, emit128);
        }
      }
    });
    my.times.add("KmerGen-I/O", *std::max_element(io_seconds.begin(), io_seconds.end()));
    my.times.add("KmerGen", *std::max_element(gen_seconds.begin(), gen_seconds.end()));
    if (s0 == 0) {
      for (std::uint64_t sk : skip_counts) my.records_skipped += sk;
    }
    for (int t = 0; t < T; ++t) {
      const std::size_t ut = static_cast<std::size_t>(t);
      my.exchange_bytes_raw += raw_counts[ut] * tuple_bytes;
      my.tuples += kept_counts[ut];
      my.bloom_dropped += drop_counts[ut];
      if (cplan.superkmer) my.superkmer_records += rec_counts[ut];
      ctx.m_tuples.add(kept_counts[ut]);
    }
    phase_boundary(ctx, "KmerGen");

    // ---- KmerGen-Comm: one message per (dest, pass), always sent (the
    // u64 lens[T] header makes even an empty message well-formed and keeps
    // the receive count deterministic). ----
    progress_phase(ctx, "KmerGen-Comm");
    std::array<std::vector<std::byte>, 2> self_msg;
    for (int i = 0; i < npasses; ++i) {
      obs::TraceSpan comm_span("KmerGen-Comm");
      WallTimer comm_timer;
      const std::size_t si = static_cast<std::size_t>(i);
      for (int d = 0; d < P; ++d) {
        std::vector<std::byte> msg;
        std::size_t total = 8u * static_cast<std::size_t>(T);
        for (int dt = 0; dt < T; ++dt) {
          for (int t = 0; t < T; ++t) {
            total += streams[si][static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(d) * T + dt].size();
          }
        }
        msg.reserve(total);
        for (int dt = 0; dt < T; ++dt) {
          std::uint64_t len = 0;
          for (int t = 0; t < T; ++t) {
            len += streams[si][static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(d) * T + dt].size();
          }
          append_le(msg, len, 8);
        }
        for (int dt = 0; dt < T; ++dt) {
          for (int t = 0; t < T; ++t) {
            auto& st = streams[si][static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(d) * T + dt];
            msg.insert(msg.end(), st.begin(), st.end());
            st.clear();
            st.shrink_to_fit();
          }
        }
        if (d == p) {
          self_msg[si] = std::move(msg);
        } else {
          my.exchange_bytes += msg.size();
          comm.isend(d, kCompressTagBase + s0 + i, msg.data(), msg.size());
        }
      }
      my.times.add("KmerGen-Comm", comm_timer.seconds());
    }
    phase_boundary(ctx, "KmerGen-Comm");

    // ---- Drain the group pass by pass: receive, expand, sort, union. ----
    for (int i = 0; i < npasses; ++i) {
      const std::size_t si = static_cast<std::size_t>(i);
      if (pass_t0[si] < 0.0) pass_t0[si] = span_begin(tr);
      std::vector<std::vector<std::byte>> msgs(static_cast<std::size_t>(P));
      msgs[static_cast<std::size_t>(p)] = std::move(self_msg[si]);
      if (P > 1) {
        obs::TraceSpan wait_span("KmerGen-Comm");
        WallTimer wait_timer;
        for (int stage = 1; stage < P; ++stage) {
          const int q = (p - stage + P) % P;
          msgs[static_cast<std::size_t>(q)] =
              comm.recv_any_size(q, kCompressTagBase + s0 + i);
        }
        my.times.add("KmerGen-Comm", wait_timer.seconds());
      }
      std::uint64_t msg_bytes = 0;
      for (const auto& msg : msgs) msg_bytes += msg.size();
      const obs::MemCharge msgs_mem("comm", msg_bytes);

      // ---- Expand: size the T sort regions from the headers, validate
      // and count every record, then decode at exact offsets in parallel.
      // Region dt holds blocks ordered by src rank q ascending — the same
      // (src rank, src thread, generation order) sequence the uncompressed
      // schedules deliver, so the stable sort sees equivalent input. ----
      progress_phase(ctx, "Expand");
      const double ex_t0 = span_begin(tr);
      WallTimer ex_timer;
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
      std::vector<std::uint64_t> block_count(nslots, 0);
      team.run([&](int t) {
        for (int q = 0; q < P; ++q) {
          const std::size_t idx = static_cast<std::size_t>(q) * T + t;
          const std::byte* data = msgs[static_cast<std::size_t>(q)].data() + sec_off[idx];
          if (cplan.superkmer) {
            block_count[idx] = kmer::count_superkmer_stream(data, sec_len[idx], k).kmers;
          } else {
            if (sec_len[idx] % fixed_rec != 0)
              throw util::parse_error("comm-compress: truncated tuple record");
            block_count[idx] = sec_len[idx] / fixed_rec;
          }
        }
      });
      std::vector<std::uint64_t> region_start(static_cast<std::size_t>(T) + 1, 0);
      for (int dt = 0; dt < T; ++dt) {
        std::uint64_t tot = 0;
        for (int q = 0; q < P; ++q) tot += block_count[static_cast<std::size_t>(q) * T + dt];
        region_start[static_cast<std::size_t>(dt) + 1] =
            region_start[static_cast<std::size_t>(dt)] + tot;
      }
      std::vector<std::uint64_t> block_off(nslots, 0);
      for (int dt = 0; dt < T; ++dt) {
        std::uint64_t off = region_start[static_cast<std::size_t>(dt)];
        for (int q = 0; q < P; ++q) {
          block_off[static_cast<std::size_t>(q) * T + dt] = off;
          off += block_count[static_cast<std::size_t>(q) * T + dt];
        }
      }
      const std::uint64_t total_in = region_start[static_cast<std::size_t>(T)];
      tuples.resize(total_in);
      tuples.mem_account();
      scratch.resize(total_in);
      scratch.mem_account();
      my.max_buffer_bytes =
          std::max(my.max_buffer_bytes, tuples.bytes() + scratch.bytes() + msg_bytes);
      team.run([&](int t) {
        obs::TraceSession::set_thread_identity(p, t);
        for (int q = 0; q < P; ++q) {
          const std::size_t idx = static_cast<std::size_t>(q) * T + t;
          const std::byte* data = msgs[static_cast<std::size_t>(q)].data() + sec_off[idx];
          std::uint64_t at = block_off[idx];
          if (cplan.superkmer) {
            kmer::SuperKmerReader reader(data, sec_len[idx], k);
            while (!reader.done()) {
              reader.next_header();
              const std::uint32_t value = reader.value();
              if (value >= R)
                throw util::parse_error("comm-compress: record value out of range");
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
          } else {
            for (const std::byte* rp = data; rp != data + sec_len[idx]; rp += fixed_rec) {
              const std::uint32_t value =
                  static_cast<std::uint32_t>(read_le(rp + fixed_rec - 4, 4));
              if (value >= R)
                throw util::parse_error("comm-compress: record value out of range");
              tuples.keys[at] = read_le(rp, 8);
              if (wide) tuples.keys_hi[at] = read_le(rp + 8, 8);
              tuples.vals[at] = value;
              ++at;
            }
          }
        }
      });
      my.times.add("Expand", ex_timer.seconds());
      span_end(tr, "Expand", ex_t0);
      phase_boundary(ctx, "Expand");

      // ---- LocalSort: stable radix per dest-thread region. ----
      progress_phase(ctx, "LocalSort");
      {
        const double sort_t0 = span_begin(tr);
        WallTimer sort_timer;
        team.run([&](int t) {
          const std::uint64_t rlo = region_start[static_cast<std::size_t>(t)];
          const std::uint64_t rhi = region_start[static_cast<std::size_t>(t) + 1];
          const std::size_t n = rhi - rlo;
          if (n == 0) return;
          if (!wide) {
            sort::radix_sort_kv64(std::span(tuples.keys).subspan(rlo, n),
                                  std::span(tuples.vals).subspan(rlo, n),
                                  std::span(scratch.keys).subspan(rlo, n),
                                  std::span(scratch.vals).subspan(rlo, n), 2 * k,
                                  config.sort_digit_bits);
          } else {
            sort::radix_sort_kv128(std::span(tuples.keys_hi).subspan(rlo, n),
                                   std::span(tuples.keys).subspan(rlo, n),
                                   std::span(tuples.vals).subspan(rlo, n),
                                   std::span(scratch.keys_hi).subspan(rlo, n),
                                   std::span(scratch.keys).subspan(rlo, n),
                                   std::span(scratch.vals).subspan(rlo, n), 2 * k,
                                   config.sort_digit_bits);
          }
        });
        my.times.add("LocalSort", sort_timer.seconds());
        span_end(tr, "LocalSort", sort_t0);
        phase_boundary(ctx, "LocalSort");
      }

      // ---- LocalCC: identical to the uncompressed schedules.  Decoded
      // values are validated < R above, so no sentinel guard is needed. ----
      progress_phase(ctx, "LocalCC");
      {
        const double cc_t0 = span_begin(tr);
        WallTimer cc_timer;
        std::vector<int> thread_iters(static_cast<std::size_t>(T), 0);
        team.run([&](int t) {
          const std::uint64_t rlo = region_start[static_cast<std::size_t>(t)];
          const std::uint64_t rhi = region_start[static_cast<std::size_t>(t) + 1];
          std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
          std::uint64_t i2 = rlo;
          while (i2 < rhi) {
            std::uint64_t j = i2 + 1;
            if (!wide) {
              while (j < rhi && tuples.keys[j] == tuples.keys[i2]) ++j;
            } else {
              while (j < rhi && tuples.keys[j] == tuples.keys[i2] &&
                     tuples.keys_hi[j] == tuples.keys_hi[i2])
                ++j;
            }
            const std::uint64_t freq = j - i2;
            if (config.filter.accepts(freq)) {
              for (std::uint64_t x = i2 + 1; x < j; ++x) {
                const std::uint32_t u = tuples.vals[x - 1];
                const std::uint32_t v = tuples.vals[x];
                if (u == v) continue;
                const std::uint32_t ru = local_cc.find(u);
                const std::uint32_t rv = local_cc.find(v);
                if (ru != rv) {
                  local_cc.unite_once(ru, rv);
                  edges.emplace_back(u, v);
                }
              }
            }
            i2 = j;
          }
          thread_iters[static_cast<std::size_t>(t)] =
              1 + dsu::process_edges_algorithm1(local_cc, edges);
          ctx.m_cc_edges.add(edges.size());
        });
        my.times.add("LocalCC", cc_timer.seconds());
        span_end(tr, "LocalCC", cc_t0);
        phase_boundary(ctx, "LocalCC");
        my.cc_iterations =
            std::max(my.cc_iterations,
                     *std::max_element(thread_iters.begin(), thread_iters.end()));
      }
      ctx.m_rss.set_max(static_cast<double>(util::current_rss_bytes()));
      span_end(tr, "Pass", pass_t0[si]);
    }
  }  // pass groups
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
  if (config.output_bins < 0 || config.output_bins > 0xFFFF)
    throw util::config_error("run_metaprep: output_bins must be in [0, 65535]");
  const bool compress = config.comm_compress != CommCompress::kNone;
  const bool cp_superkmer = config.comm_compress == CommCompress::kSuperKmer ||
                            config.comm_compress == CommCompress::kBoth;
  const bool cp_bloom = config.comm_compress == CommCompress::kBloom ||
                        config.comm_compress == CommCompress::kBoth;
  if (compress) {
    if (static_cast<std::size_t>(P) * static_cast<std::size_t>(T) > 0xFFFF)
      throw util::config_error("comm-compress: P*T must fit the 16-bit slot table");
    if (cp_superkmer &&
        (config.superkmer_minimizer_len < 1 ||
         config.superkmer_minimizer_len > std::min(k, 31)))
      throw util::config_error(
          "comm-compress: superkmer_minimizer_len must be in [1, min(k, 31)]");
    if (cp_bloom && (config.bloom_counters_per_key < 1 || config.bloom_hashes < 1 ||
                     config.bloom_hashes > 8))
      throw util::config_error(
          "comm-compress: bloom_counters_per_key must be >= 1 and bloom_hashes in [1, 8]");
  }
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
  const std::size_t nbins = index.mer_hist.counts.size();

  // Exchange-compression routing plan and (bloom modes) the P destination-
  // owned counting filters.  Each filter is sized for its rank's expected
  // share of k-mer occurrences; the bloom bytes are charged to their own
  // memory subsystem and are deliberately NOT wire traffic (a shared-memory
  // stand-in for an MPI-3 one-sided accumulate window; DESIGN.md).
  CompressPlan cplan;
  if (compress) {
    cplan = make_compress_plan(plan, S, P, T, static_cast<std::uint32_t>(nbins),
                               cp_superkmer, cp_bloom);
  }
  std::vector<kmer::CountingBloom> blooms;
  std::uint64_t bloom_bytes = 0;
  if (cp_bloom) {
    const std::uint64_t expected =
        std::max<std::uint64_t>(1, mm.total_tuples / static_cast<std::uint64_t>(P));
    blooms.reserve(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      blooms.emplace_back(expected, config.bloom_counters_per_key, config.bloom_hashes,
                          config.bloom_seed + static_cast<std::uint64_t>(d));
      bloom_bytes += blooms.back().memory_bytes();
    }
    obs::mem_charge("bloom", bloom_bytes);
  }

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
  // Total ticks = chunk reads per KmerGen sweep (overlap mode reads each
  // chunk once per pass *group*) plus the CC-I/O sweep when output is on.
  obs::Progress& prog = obs::Progress::global();
  if (config.progress) {
    const std::uint64_t nchunks = index.part.num_chunks();
    const std::uint64_t sweeps = config.pipeline_mode == PipelineMode::kOverlap
                                     ? (static_cast<std::uint64_t>(S) + 1) / 2
                                     : static_cast<std::uint64_t>(S);
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
    if (compress) {
      run_passes_compressed(ctx, cplan, cp_bloom ? &blooms : nullptr);
    } else if (config.pipeline_mode == PipelineMode::kOverlap) {
      run_passes_overlap(ctx);
    } else {
      run_passes_barrier(ctx);
    }

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
  if (cp_bloom) {
    blooms.clear();
    blooms.shrink_to_fit();
    obs::mem_credit("bloom", bloom_bytes);
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
    result.bloom_dropped += rs.bloom_dropped;
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
    m.counter("comm.bloom_dropped").add(result.bloom_dropped);
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
