// Per-layer probes: each times one layer's public functions on the
// workload's own data, inside a driver span named after the call.  Every
// probe repeats its call and reports the median; rates are items per second
// over the stated item count.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "core/packed_ingest.hpp"
#include "core/plan.hpp"
#include "dsu/dsu.hpp"
#include "io/fastq.hpp"
#include "kmer/codec.hpp"
#include "kmer/scanner.hpp"
#include "kmer/superkmer.hpp"
#include "mpsim/comm.hpp"
#include "part/part.hpp"
#include "perfbench.hpp"
#include "sort/radix.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

namespace core = metaprep::core;
namespace io = metaprep::io;
namespace kmer = metaprep::kmer;
namespace mpsim = metaprep::mpsim;

/// Each probe repeats until it has run this long and at least kMinReps times.
constexpr double kMinProbeSeconds = 0.3;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;
/// Output bins for the bin-packing probe (ll-fixedcost writes 4 bins).
constexpr int kProbeBins = 4;

/// Median seconds of fn() over the repetition policy above.  @p prepare runs
/// before every repetition, outside the timing.
double time_median(SpanRecorder& spans, const std::string& name, const std::function<void()>& fn,
                   const std::function<void()>& prepare = {}) {
  std::vector<double> samples;
  double total = 0.0;
  while (static_cast<int>(samples.size()) < kMinReps ||
         (total < kMinProbeSeconds && static_cast<int>(samples.size()) < kMaxReps)) {
    if (prepare) prepare();
    metaprep::util::WallTimer t;
    {
      ScopedSpan s(spans, name);
      fn();
    }
    samples.push_back(t.seconds());
    total += samples.back();
  }
  return median(samples);
}

struct Read {
  std::uint32_t id;
  std::string_view seq;
};

}  // namespace

void run_layer_probes(const ProbeInput& in, SpanRecorder& spans, MetricList& out) {
  const core::DatasetIndex& index = in.index;
  const int k = in.config.k;
  const int workers = in.config.num_ranks * in.config.threads_per_rank;
  volatile std::uint64_t sink = 0;  // keeps the probed loops from being folded away

  // ---- io/fastq: parse every chunk of the workload FASTQ from memory. ----
  std::vector<std::vector<char>> buffers;
  std::uint64_t text_bytes = 0;
  for (const core::ChunkRecord& c : index.part.chunks) {
    buffers.push_back(io::read_file_range(index.files[c.file], c.offset, c.size));
    text_bytes += buffers.back().size();
  }
  const double parse_s = time_median(spans, "io.for_each_record_in_buffer", [&] {
    std::uint64_t bases = 0;
    for (const auto& b : buffers) {
      io::for_each_record_in_buffer(
          std::string_view(b.data(), b.size()),
          [&](std::string_view, std::string_view seq, std::string_view) { bases += seq.size(); });
    }
    sink = sink + bases;
  });
  out.set("io.parse_mb_per_s", static_cast<double>(text_bytes) / 1e6 / parse_s, "MB/s");

  std::vector<Read> reads;
  reads.reserve(static_cast<std::size_t>(index.total_reads) * 2);
  for (std::size_t c = 0; c < buffers.size(); ++c) {
    std::uint32_t id = index.part.chunks[c].first_read_id;
    io::for_each_record_in_buffer(
        std::string_view(buffers[c].data(), buffers[c].size()),
        [&](std::string_view, std::string_view seq, std::string_view) {
          reads.push_back(Read{id++, seq});
        });
  }

  // ---- kmer/scanner over text. ----
  std::uint64_t kmers = 0;
  const double scan_s = time_median(spans, "kmer.for_each_canonical_kmer64", [&] {
    std::uint64_t n = 0;
    std::uint64_t x = 0;
    for (const Read& r : reads) {
      kmer::for_each_canonical_kmer64(r.seq, k, [&](std::uint64_t km, std::size_t) {
        x ^= km;
        ++n;
      });
    }
    kmers = n;
    sink = sink + x;
  });
  out.set("kmer.scan_mkmers_per_s", static_cast<double>(kmers) / 1e6 / scan_s, "Mkmer/s");

  // ---- io/packed_store via core/packed_ingest, then the packed scanner. ----
  io::PackedStoreStats pstats{};
  io::PackedStore store;
  const double ingest_s = time_median(
      spans, "core.build_packed_store_in_memory",
      [&] {
        store = core::build_packed_store_in_memory(index, in.config.parse_mode, workers, &pstats);
      },
      [&] { store = io::PackedStore(); });
  out.set("io.packed_ingest_s", ingest_s, "s");
  out.set("io.packed_store_mb", static_cast<double>(pstats.file_bytes) / kMiB, "MiB");
  std::uint64_t packed_kmers = 0;
  const double pscan_s = time_median(spans, "kmer.for_each_canonical_kmer64_packed", [&] {
    std::uint64_t n = 0;
    std::uint64_t x = 0;
    for (std::uint64_t r = 0; r < store.num_records(); ++r) {
      const io::PackedStore::Record rec = store.record(r);
      kmer::for_each_canonical_kmer64_packed(rec.words, rec.len, rec.npos, rec.ncount, k,
                                             [&](std::uint64_t km, std::size_t) {
                                               x ^= km;
                                               ++n;
                                             });
    }
    packed_kmers = n;
    sink = sink + x;
  });
  store = io::PackedStore();
  if (packed_kmers != kmers) throw std::runtime_error("packed scan k-mer count differs from text");
  out.set("kmer.scan_packed_mkmers_per_s", static_cast<double>(packed_kmers) / 1e6 / pscan_s,
          "Mkmer/s");

  // ---- kmer/superkmer: encode every read into one wire stream, decode it. ----
  // append_superkmer_record reserves exactly one record ahead, so a stream
  // that is not pre-sized regrows (and copies) on every record; an untimed
  // counting pass sizes it the way a production caller would have to.
  std::vector<std::byte> wire;
  std::uint64_t sk_kmers = 0;
  kmer::SuperKmerScanner scanner;
  const int mz = in.config.superkmer_minimizer_len;
  {
    std::size_t wire_bytes = 0;
    for (const Read& r : reads) {
      scanner.scan(r.seq, k, mz, [&](std::uint32_t, std::uint32_t count, std::uint64_t) {
        wire_bytes += kmer::superkmer_record_bytes(k, count);
      });
    }
    wire.reserve(wire_bytes);
  }
  const double enc_s = time_median(
      spans, "kmer.superkmer_encode",
      [&] {
        std::uint64_t n = 0;
        for (const Read& r : reads) {
          scanner.scan(r.seq, k, mz, [&](std::uint32_t start, std::uint32_t count, std::uint64_t) {
            kmer::append_superkmer_record(wire, r.id, count, k, [&](std::size_t j) {
              return kmer::base_code(r.seq[start + j]);
            });
            n += count;
          });
        }
        sk_kmers = n;
      },
      [&] { wire.clear(); });
  if (sk_kmers != kmers) throw std::runtime_error("super-k-mer encode lost k-mers");
  out.set("kmer.superkmer_encode_mkmers_per_s", static_cast<double>(sk_kmers) / 1e6 / enc_s,
          "Mkmer/s");
  out.set("kmer.superkmer_bytes_per_kmer",
          static_cast<double>(wire.size()) / static_cast<double>(sk_kmers), "B/kmer");
  std::uint64_t decoded = 0;
  const double dec_s = time_median(spans, "kmer.SuperKmerReader.expand64", [&] {
    std::uint64_t n = 0;
    std::uint64_t x = 0;
    kmer::SuperKmerReader rd(wire.data(), wire.size(), k);
    while (!rd.done()) {
      rd.next_header();
      rd.expand64([&](std::uint64_t km) {
        x ^= km;
        ++n;
      });
    }
    decoded = n;
    sink = sink + x;
  });
  if (decoded != sk_kmers) throw std::runtime_error("super-k-mer decode k-mer count differs");
  out.set("kmer.superkmer_decode_mkmers_per_s", static_cast<double>(decoded) / 1e6 / dec_s,
          "Mkmer/s");
  wire = {};

  // ---- sort/radix on pass 0's (k-mer, read) tuples. ----
  const core::PassPlan plan(index.mer_hist, in.run.passes_used, in.config.num_ranks,
                            in.config.threads_per_rank);
  const core::BinRange pass0 = plan.pass_range(0);
  const int m = index.mer_hist.m;
  std::vector<std::uint64_t> keys0;
  std::vector<std::uint32_t> vals0;
  for (const Read& r : reads) {
    kmer::for_each_canonical_kmer64(r.seq, k, [&](std::uint64_t km, std::size_t) {
      if (pass0.contains(kmer::prefix_bin64(km, k, m))) {
        keys0.push_back(km);
        vals0.push_back(r.id);
      }
    });
  }
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals;
  std::vector<std::uint64_t> tmp_keys(keys0.size());
  std::vector<std::uint32_t> tmp_vals(vals0.size());
  const double sort_s = time_median(
      spans, "sort.radix_sort_kv64",
      [&] {
        metaprep::sort::radix_sort_kv64(keys, vals, tmp_keys, tmp_vals, 2 * k,
                                        in.config.sort_digit_bits);
      },
      [&] {
        keys = keys0;
        vals = vals0;
      });
  if (!metaprep::sort::is_sorted_keys(keys)) throw std::runtime_error("radix probe did not sort");
  out.set("sort.radix_mkeys_per_s", static_cast<double>(keys.size()) / 1e6 / sort_s, "Mkey/s");
  tmp_keys = {};
  tmp_vals = {};

  // ---- dsu: Algorithm 1 on the read-graph edges of the sorted tuples. ----
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] == keys[i - 1] && vals[i] != vals[i - 1]) edges.emplace_back(vals[i - 1], vals[i]);
  }
  keys = {};
  vals = {};
  keys0 = {};
  vals0 = {};
  const int threads = in.config.threads_per_rank;
  int iterations = 0;
  std::unique_ptr<metaprep::dsu::AtomicDSU> dsu;
  const double dsu_s = time_median(
      spans, "dsu.process_edges_algorithm1",
      [&] {
        std::vector<int> iters(static_cast<std::size_t>(threads), 0);
        std::vector<std::thread> team;
        const std::size_t per = (edges.size() + threads - 1) / static_cast<std::size_t>(threads);
        for (int t = 0; t < threads; ++t) {
          const std::size_t b = std::min(edges.size(), per * static_cast<std::size_t>(t));
          const std::size_t e = std::min(edges.size(), b + per);
          team.emplace_back([&, t, b, e] {
            iters[static_cast<std::size_t>(t)] = metaprep::dsu::process_edges_algorithm1(
                *dsu, std::span(edges).subspan(b, e - b));
          });
        }
        for (auto& th : team) th.join();
        iterations = *std::max_element(iters.begin(), iters.end());
      },
      [&] {
        dsu.reset();
        dsu = std::make_unique<metaprep::dsu::AtomicDSU>(index.total_reads);
      });
  dsu.reset();
  out.set("dsu.unite_medges_per_s", static_cast<double>(edges.size()) / 1e6 / dsu_s,
          "Medge/s");
  out.set("dsu.cc_iterations", iterations, "count");
  edges = {};

  // ---- mpsim: one staged all-to-all with the run's per-pair volumes. ----
  const int P = in.config.num_ranks;
  const std::vector<std::uint64_t>& tm = in.run.traffic_matrix;
  std::uint64_t cross_bytes = 0;
  for (int s = 0; s < P; ++s) {
    for (int d = 0; d < P; ++d) {
      if (s != d) cross_bytes += tm[static_cast<std::size_t>(s * P + d)];
    }
  }
  std::vector<double> a2a_samples;
  {
    mpsim::World world(P, in.config.cost_model);
    ScopedSpan s(spans, "mpsim.alltoallv_staged");
    world.run([&](mpsim::Comm& comm) {
      const int p = comm.rank();
      std::vector<std::uint64_t> send_off(static_cast<std::size_t>(P) + 1, 0);
      std::vector<std::uint64_t> recv_off(static_cast<std::size_t>(P) + 1, 0);
      for (int q = 0; q < P; ++q) {
        const auto uq = static_cast<std::size_t>(q);
        send_off[uq + 1] = send_off[uq] + (q == p ? 0 : tm[static_cast<std::size_t>(p * P + q)]);
        recv_off[uq + 1] = recv_off[uq] + (q == p ? 0 : tm[static_cast<std::size_t>(q * P + p)]);
      }
      std::vector<std::byte> sendbuf(send_off.back(), std::byte{1});
      std::vector<std::byte> recvbuf(recv_off.back());
      double total = 0.0;
      for (int rep = 0; rep < kMaxReps; ++rep) {
        comm.barrier();
        metaprep::util::WallTimer t;
        comm.alltoallv_staged(sendbuf.data(), send_off, recvbuf.data(), recv_off, 700 + rep);
        comm.barrier();
        const double dt = t.seconds();
        total += dt;
        if (p == 0) a2a_samples.push_back(dt);
        // Rank 0 decides when to stop; everyone follows the broadcast.
        std::uint8_t more = (rep + 1 < kMinReps || total < kMinProbeSeconds) ? 1 : 0;
        comm.broadcast(&more, 1, 0);
        if (more == 0) break;
      }
    });
  }
  const double a2a_s = median(a2a_samples);
  out.set("mpsim.alltoallv_gb_per_s", static_cast<double>(cross_bytes) / 1e9 / a2a_s, "GB/s");
  out.set("mpsim.exchange_mb", static_cast<double>(in.run.exchange_bytes) / 1e6, "MB");
  out.set("mpsim.exchange_ratio",
          in.run.exchange_bytes_raw > 0 ? static_cast<double>(in.run.exchange_bytes) /
                                              static_cast<double>(in.run.exchange_bytes_raw)
                                        : 0.0,
          "ratio");
  out.set("mpsim.messages", static_cast<double>(in.run.message_count), "count");
  out.set("mpsim.merge_comm_mb", static_cast<double>(in.run.merge_comm_bytes) / 1e6, "MB");
  out.set("mpsim.label_scatter_mb", static_cast<double>(in.run.label_scatter_bytes) / 1e6, "MB");

  // ---- part: LPT bin packing of the reference partition's components. ----
  std::map<std::uint32_t, std::uint64_t> sizes;
  for (const std::uint32_t l : in.labels) ++sizes[l];
  const double bp_per_read =
      static_cast<double>(index.total_bases) / static_cast<double>(index.total_reads);
  std::vector<metaprep::part::Component> comps;
  comps.reserve(sizes.size());
  for (const auto& [root, n] : sizes) {
    comps.push_back({root, n, static_cast<std::uint64_t>(static_cast<double>(n) * bp_per_read)});
  }
  metaprep::part::BinPlan bins;
  const double pack_s = time_median(spans, "part.greedy_bin_pack", [&] {
    bins = metaprep::part::greedy_bin_pack(comps, kProbeBins);
  });
  out.set("part.bin_pack_s", pack_s, "s");
  out.set("part.bin_skew", bins.skew(), "ratio");
}

}  // namespace perfbench
