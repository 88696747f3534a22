#include "assembler/minihit.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "assembler/dbg.hpp"
#include "assembler/kmer_count.hpp"
#include "io/fastq.hpp"
#include "util/timer.hpp"

namespace metaprep::assembler {

namespace {

/// One assembly round at a single k: count reads (+ carried-in contigs),
/// build the solid-k-mer graph, clip tips, extract contigs.
template <typename K>
std::vector<std::string> assemble_round(
    const std::function<void(BasicKmerCountTable<K>&)>& feed_reads,
    const std::vector<std::string>& carried_contigs, int k, const AssemblyOptions& options,
    std::uint64_t* distinct_out, std::uint64_t* solid_out) {
  BasicKmerCountTable<K> counts(k);
  feed_reads(counts);
  // Contigs from the previous round enter with weight = min_kmer_count so
  // the solid filter cannot erase already-assembled sequence.
  for (const auto& c : carried_contigs) {
    counts.add_read_weighted(c, options.min_kmer_count);
  }
  if (distinct_out != nullptr) *distinct_out = counts.distinct();
  BasicDeBruijnGraph<K> graph(counts, options.min_kmer_count);
  if (options.tip_clip_bases > 0) graph.remove_tips(options.tip_clip_bases);
  if (options.bubble_pop_bases > 0) graph.pop_bubbles(options.bubble_pop_bases);
  if (solid_out != nullptr) *solid_out = graph.num_live_vertices();
  return graph.extract_contigs(options.min_contig_len);
}

/// Read feeder abstraction shared by file and in-memory entry points: calls
/// consume(seq) for every read; the template lets one feeder serve both
/// k-mer widths.
using ReadConsumer = std::function<void(std::string_view)>;
using ReadFeeder = std::function<void(const ReadConsumer&)>;

template <typename K>
AssemblyResult assemble_impl(const ReadFeeder& feed, std::uint64_t reads_in,
                             const AssemblyOptions& options, const std::vector<int>& ks) {
  util::WallTimer timer;
  AssemblyResult result;
  result.reads_in = reads_in;

  std::vector<std::string> contigs;
  for (int k : ks) {
    auto feed_counts = [&feed](BasicKmerCountTable<K>& counts) {
      feed([&counts](std::string_view seq) { counts.add_read(seq); });
    };
    contigs = assemble_round<K>(feed_counts, contigs, k, options, &result.distinct_kmers,
                                &result.solid_kmers);
  }
  result.contigs = std::move(contigs);
  result.stats = contig_stats(result.contigs);
  result.seconds = timer.seconds();
  return result;
}

AssemblyResult assemble_dispatch(const ReadFeeder& feed, std::uint64_t reads_in,
                                 const AssemblyOptions& options) {
  std::vector<int> ks = options.k_list;
  if (ks.empty()) ks.push_back(options.k);
  const int max_k = *std::max_element(ks.begin(), ks.end());
  const int min_k = *std::min_element(ks.begin(), ks.end());
  if (min_k < 1 || max_k > kmer::kMaxK128)
    throw std::invalid_argument("assemble: k values must be in [1, 63]");
  // One representation serves the whole k-list: the 128-bit path also
  // handles small k, so any list containing k > 32 runs entirely wide.
  return kmer::with_kmer_type(max_k, [&](auto key) {
    return assemble_impl<decltype(key)>(feed, reads_in, options, ks);
  });
}

}  // namespace

AssemblyResult assemble_fastq(const std::vector<std::string>& files,
                              const AssemblyOptions& options) {
  std::uint64_t reads = 0;
  auto feed = [&files, &reads](const ReadConsumer& consume) {
    reads = 0;
    for (const auto& path : files) {
      io::FastqReader reader(path);
      io::FastqRecord rec;
      while (reader.next(rec)) {
        consume(rec.seq);
        ++reads;
      }
    }
  };
  // `reads` is populated by the first feed invocation inside assemble.
  AssemblyResult result = assemble_dispatch(feed, 0, options);
  result.reads_in = reads;
  return result;
}

AssemblyResult assemble_reads(const std::vector<std::string>& reads,
                              const AssemblyOptions& options) {
  auto feed = [&reads](const ReadConsumer& consume) {
    for (const auto& r : reads) consume(r);
  };
  return assemble_dispatch(feed, reads.size(), options);
}

}  // namespace metaprep::assembler
