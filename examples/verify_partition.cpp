// verify_partition: independent validation of a METAPREP output split.
//
// The correctness property downstream users rely on (paper §2, after Flick
// et al.): reads in different partitions share no canonical k-mer that
// passed the filter, so each partition can be assembled independently
// without losing any overlap.  This tool re-derives that property from the
// output FASTQ files alone — it builds a k-mer -> partition map and reports
// any k-mer seen in more than one partition.
//
// Usage: verify_partition --k=27 [--filter-min=N --filter-max=N]
//                         <partition1.fastq> <partition2.fastq> ...
// The filter flags are the run fields of the same name (0 = no bound).
// Files sharing one CC-I/O slot tag (core::partition_class_of: ".lc.",
// ".other.", ".b<j>.") are treated as one partition; any other file is its
// own partition.
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/manifest.hpp"
#include "core/run_fields.hpp"
#include "io/fastq.hpp"
#include "kmer/scanner.hpp"
#include "util/cli.hpp"

using namespace metaprep;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: verify_partition --k=27 [--filter-min --filter-max] FASTQ...\n");
    return 2;
  }
  const int k = static_cast<int>(args.get_int("k", 27));
  core::MetaprepConfig run = core::default_run_config();
  core::apply_run_args(run, args, "verify_partition", {"k"});
  const core::KmerFreqFilter filter = run.filter;

  // Partition id per file.
  std::map<std::string, int> class_ids;
  struct KmerInfo {
    std::uint64_t freq = 0;
    int partition = -1;
    bool crosses = false;
  };
  std::unordered_map<std::uint64_t, KmerInfo> kmers;

  std::uint64_t reads = 0;
  for (const auto& path : args.positional()) {
    std::string cls = core::partition_class_of(path);
    if (cls == "unknown") cls = path;  // standalone partition
    const auto [it, inserted] = class_ids.try_emplace(cls, static_cast<int>(class_ids.size()));
    const int pid = it->second;
    (void)inserted;
    io::FastqReader reader(path);
    io::FastqRecord rec;
    while (reader.next(rec)) {
      ++reads;
      kmer::for_each_canonical_kmer64(rec.seq, k, [&](std::uint64_t km, std::size_t) {
        auto& info = kmers[km];
        ++info.freq;
        if (info.partition == -1) {
          info.partition = pid;
        } else if (info.partition != pid) {
          info.crosses = true;
        }
      });
    }
  }

  std::uint64_t crossing = 0;
  std::uint64_t crossing_filtered = 0;
  for (const auto& [km, info] : kmers) {
    if (!info.crosses) continue;
    ++crossing;
    if (filter.accepts(info.freq)) ++crossing_filtered;
  }

  std::printf("%llu reads, %zu partitions, %zu distinct %d-mers\n",
              static_cast<unsigned long long>(reads), class_ids.size(), kmers.size(), k);
  std::printf("k-mers present in more than one partition: %llu total, %llu within the "
              "filter band [%llu, %llu]\n",
              static_cast<unsigned long long>(crossing),
              static_cast<unsigned long long>(crossing_filtered),
              static_cast<unsigned long long>(filter.min_freq),
              static_cast<unsigned long long>(filter.max_freq));
  if (crossing_filtered == 0) {
    std::printf("OK: partition is edge-free under the given filter — components are "
                "independent.\n");
    return 0;
  }
  std::printf("FAIL: %llu filtered k-mers cross partitions.\n",
              static_cast<unsigned long long>(crossing_filtered));
  return 1;
}
