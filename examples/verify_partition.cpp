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
// Any k in [1, 63] works: k > 32 counts 128-bit k-mers.
// The filter flags are the run fields of the same name (0 = no bound).
// Files sharing one CC-I/O slot tag (core::partition_class_of: ".lc.",
// ".other.", ".b<j>.") are treated as one partition; any other file is its
// own partition.
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/manifest.hpp"
#include "core/run_fields.hpp"
#include "io/fastq.hpp"
#include "kmer/traits.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

using namespace metaprep;

namespace {

int run(const util::Args& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: verify_partition --k=27 [--filter-min --filter-max] FASTQ...\n");
    return 2;
  }
  const std::int64_t k_arg = args.get_int("k", 27);
  if (k_arg < 1 || k_arg > kmer::kMaxK128)
    throw util::config_error("--k must be in [1, 63] (got " + std::to_string(k_arg) + ")");
  const int k = static_cast<int>(k_arg);
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
  std::uint64_t reads = 0, distinct = 0, crossing = 0, crossing_filtered = 0;
  kmer::with_kmer_type(k, [&](auto key) {
    using Key = decltype(key);
    std::unordered_map<Key, KmerInfo> kmers;
    for (const auto& path : args.positional()) {
      std::string cls = core::partition_class_of(path);
      if (cls == "unknown") cls = path;  // standalone partition
      const int pid =
          class_ids.try_emplace(cls, static_cast<int>(class_ids.size())).first->second;
      io::FastqReader reader(path);
      io::FastqRecord rec;
      while (reader.next(rec)) {
        ++reads;
        kmer::KmerTraits<Key>::for_each_canonical(rec.seq, k, [&](Key km, std::size_t) {
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
    distinct = kmers.size();
    for (const auto& [km, info] : kmers) {
      if (!info.crosses) continue;
      ++crossing;
      if (filter.accepts(info.freq)) ++crossing_filtered;
    }
  });

  std::printf("%llu reads, %zu partitions, %llu distinct %d-mers\n",
              static_cast<unsigned long long>(reads), class_ids.size(),
              static_cast<unsigned long long>(distinct), k);
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

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verify_partition: %s\n", e.what());
    return 1;
  }
}
