// §4.2.2: LocalSort performance comparison, plus the digit-width ablation.
//
// Paper: METAPREP's serial 8-bit-digit LSD radix sort reaches 154 M
// tuples/s vs 196 M tuples/s for the NUMA-aware sort of Polychroniou &
// Ross (78%); the NUMA-aware code requires 64-bit key AND payload, which we
// model with the kv64x64 variant.  The paper also reports that 8-bit digits
// beat 16-bit digits ("accessing bucket counts of 256 buckets repeatedly has
// better temporal locality").
//
// The 64-bit-key sorts are two-level (one MSD split on the top bits of the
// key range, then an in-cache LSD per bucket; see sort/radix.hpp), so the
// rows measure that design, not the paper's whole-array LSD:
// - kv64 vs kv64x64 is the payload-width contrast only.  Both share the
//   sort; the wider tuple fills a bucket's cache footprint sooner and moves
//   more bytes in the MSD scatter.
// - The digit-width sweep sets the width of the in-bucket LSD passes, and
//   the bucket target grows with 2^digit_bits: at 16 bits it is 2^20 keys,
//   so the 16-bit rows take no MSD split and run one whole-array LSD.  The
//   8-vs-16 rows therefore compare the two-level sort with a whole-array
//   16-bit LSD, not the paper's two whole-array LSDs.
// BM_LocalSortRegion sorts what one LocalSort thread sees on xl-raw: 1.37 M
// 54-bit keys (k = 27) confined to 1/8 of the m = 8 bins, with each k-mer
// repeated about 8 times.  BM_LocalSortConcurrent sorts four such regions
// at once, one per thread, as xl-raw's 2 ranks x 2 threads do, so the
// shared cache is contended.
// BM_GroupRegion runs the kernel the pass engine runs on that region
// instead of the sort (core/group.hpp): the MSD scatter into buckets
// (LocalSort), then per bucket a hash grouping of equal k-mers that unions
// their reads, and Algorithm 1's re-verification (LocalCC).  Its read IDs
// are the region's payloads reduced to kRegionReads reads.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/group.hpp"
#include "dsu/dsu.hpp"
#include "sort/radix.hpp"
#include "util/rng.hpp"

namespace {

using namespace metaprep;

struct Data {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals32;
  std::vector<std::uint64_t> vals64;
};

Data make_data(std::size_t n) {
  util::Xoshiro256 rng(4242);
  Data d;
  d.keys.resize(n);
  d.vals32.resize(n);
  d.vals64.resize(n);
  // 54-bit keys: 2k bits for the paper's k=27 tuples.
  for (std::size_t i = 0; i < n; ++i) {
    d.keys[i] = rng.next() & ((1ULL << 54) - 1);
    d.vals32[i] = static_cast<std::uint32_t>(rng.next());
    d.vals64[i] = rng.next();
  }
  return d;
}

constexpr std::size_t kRegionKeys = 1'370'000;
constexpr int kRegionKeyBits = 54;
constexpr int kBinBits = 16;  // m = 8: the top 2m key bits pick the bin
constexpr std::uint64_t kRegionBins = 8192;  // 1/8 of the bins: P = 2, T = 2, 2 passes
constexpr std::size_t kCoverage = 8;

/// One LocalSort region: distinct k-mers in bins [first_bin, first_bin +
/// kRegionBins), each drawn about kCoverage times, in random order.
Data make_region(std::uint64_t first_bin, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const int low_bits = kRegionKeyBits - kBinBits;
  std::vector<std::uint64_t> distinct(kRegionKeys / kCoverage);
  for (std::uint64_t& km : distinct)
    km = ((first_bin + rng.next_below(kRegionBins)) << low_bits) |
         (rng.next() & ((std::uint64_t{1} << low_bits) - 1));
  Data d;
  d.keys.resize(kRegionKeys);
  d.vals32.resize(kRegionKeys);
  for (std::size_t i = 0; i < kRegionKeys; ++i) {
    d.keys[i] = distinct[rng.next_below(distinct.size())];
    d.vals32[i] = static_cast<std::uint32_t>(rng.next());
  }
  return d;
}

void BM_RadixKv64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int digit_bits = static_cast<int>(state.range(1));
  const Data base = make_data(n);
  std::vector<std::uint64_t> keys(n), tk(n);
  std::vector<std::uint32_t> vals(n), tv(n);
  for (auto _ : state) {
    state.PauseTiming();
    keys = base.keys;
    vals = base.vals32;
    state.ResumeTiming();
    sort::radix_sort_kv64(keys, vals, tk, tv, 54, digit_bits);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetLabel("metaprep LocalSort tuple layout (12B), digit=" +
                 std::to_string(digit_bits));
}
BENCHMARK(BM_RadixKv64)
    ->Args({1 << 18, 8})    // the paper's configuration
    ->Args({1 << 18, 11})
    ->Args({1 << 18, 16})   // the rejected wide-digit variant
    ->Args({1 << 20, 8})
    ->Args({1 << 20, 16})
    ->Unit(benchmark::kMillisecond);

void BM_RadixKv64x64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data base = make_data(n);
  std::vector<std::uint64_t> keys(n), vals(n), tk(n), tv(n);
  for (auto _ : state) {
    state.PauseTiming();
    keys = base.keys;
    vals = base.vals64;
    state.ResumeTiming();
    sort::radix_sort_kv64x64(keys, vals, tk, tv, 54, 8);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetLabel("NUMA-aware-baseline layout (64-bit key + 64-bit payload)");
}
BENCHMARK(BM_RadixKv64x64)->Arg(1 << 18)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

void BM_LocalSortRegion(benchmark::State& state) {
  const int digit_bits = static_cast<int>(state.range(0));
  const Data base = make_region(20000, 4243);
  std::vector<std::uint64_t> keys(kRegionKeys), tk(kRegionKeys);
  std::vector<std::uint32_t> vals(kRegionKeys), tv(kRegionKeys);
  for (auto _ : state) {
    state.PauseTiming();
    keys = base.keys;
    vals = base.vals32;
    state.ResumeTiming();
    sort::radix_sort_kv64(keys, vals, tk, tv, kRegionKeyBits, digit_bits);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kRegionKeys) * state.iterations());
  state.SetLabel("one xl-raw LocalSort region, digit=" + std::to_string(digit_bits));
}
BENCHMARK(BM_LocalSortRegion)->Arg(8)->Arg(11)->Unit(benchmark::kMillisecond);

void BM_LocalSortConcurrent(benchmark::State& state) {
  constexpr int kRegions = 4;
  struct Region {
    Data base;
    std::vector<std::uint64_t> keys, tk;
    std::vector<std::uint32_t> vals, tv;
  };
  std::vector<Region> regions(kRegions);
  for (int r = 0; r < kRegions; ++r) {
    Region& g = regions[static_cast<std::size_t>(r)];
    g.base = make_region(20000 + static_cast<std::uint64_t>(r) * kRegionBins,
                         4300 + static_cast<std::uint64_t>(r));
    g.tk.resize(kRegionKeys);
    g.tv.resize(kRegionKeys);
  }
  for (auto _ : state) {
    state.PauseTiming();
    for (Region& g : regions) {
      g.keys = g.base.keys;
      g.vals = g.base.vals32;
    }
    state.ResumeTiming();
    std::vector<std::thread> team;
    for (Region& g : regions)
      team.emplace_back([&g] {
        sort::radix_sort_kv64(g.keys, g.vals, g.tk, g.tv, kRegionKeyBits, 8);
      });
    for (std::thread& t : team) t.join();
    for (Region& g : regions) benchmark::DoNotOptimize(g.keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kRegions * kRegionKeys) *
                          state.iterations());
  state.SetLabel("4 xl-raw LocalSort regions sorted at once, one per thread, digit=8");
}
BENCHMARK(BM_LocalSortConcurrent)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_GroupRegion(benchmark::State& state) {
  constexpr std::uint32_t kRegionReads = 1 << 17;
  const Data base = make_region(20000, 4243);
  core::TupleBuffer<std::uint64_t> tuples, scratch;
  tuples.resize(kRegionKeys);
  scratch.resize(kRegionKeys);
  core::RegionGrouper<std::uint64_t> grouper;
  dsu::AtomicDSU cc(kRegionReads);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (auto _ : state) {
    state.PauseTiming();
    tuples.keys[0].assign(base.keys.begin(), base.keys.end());
    for (std::size_t i = 0; i < kRegionKeys; ++i) tuples.vals[i] = base.vals32[i] % kRegionReads;
    cc.reset();
    edges.clear();
    state.ResumeTiming();
    grouper.bucket(tuples, scratch, 0, kRegionKeys);
    grouper.unite(core::KmerFreqFilter{}, cc, edges);
    dsu::process_edges_algorithm1(cc, edges);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kRegionKeys) * state.iterations());
  state.SetLabel("one xl-raw LocalSort region, binned then grouped and united");
}
BENCHMARK(BM_GroupRegion)->Unit(benchmark::kMillisecond);

void BM_StdSortPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data base = make_data(n);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs(n);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < n; ++i) pairs[i] = {base.keys[i], base.vals32[i]};
    state.ResumeTiming();
    std::sort(pairs.begin(), pairs.end());
    benchmark::DoNotOptimize(pairs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetLabel("std::sort comparison baseline");
}
BENCHMARK(BM_StdSortPairs)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
