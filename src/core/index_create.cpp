#include "core/index_create.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "io/fastq.hpp"
#include "kmer/scanner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace metaprep::core {

namespace {

struct FileScan {
  std::vector<ChunkRecord> chunks;  // first_read_id is file-local here
  std::uint64_t record_count = 0;
};

/// Stream one FASTQ file, cutting chunks of ~target_bytes at record
/// boundaries.
FileScan chunk_file(const std::string& path, std::uint32_t file_index,
                    std::uint64_t target_bytes, io::ParseMode parse_mode) {
  FileScan scan;
  io::FastqReader reader(path, io::ParseOptions{parse_mode, path, 0});
  io::FastqRecord rec;
  ChunkRecord current;
  current.file = file_index;
  current.offset = 0;
  current.first_read_id = 0;
  std::uint64_t prev_offset = 0;
  while (reader.next(rec)) {
    ++scan.record_count;
    ++current.record_count;
    const std::uint64_t end = reader.offset();
    if (end - current.offset >= target_bytes) {
      current.size = end - current.offset;
      scan.chunks.push_back(current);
      current = ChunkRecord{};
      current.file = file_index;
      current.offset = end;
      // Wraps only past 2^32 reads, which assign_read_ids rejects.
      current.first_read_id = static_cast<std::uint32_t>(scan.record_count);
    }
    prev_offset = end;
  }
  if (current.record_count > 0) {
    current.size = prev_offset - current.offset;
    scan.chunks.push_back(current);
  }
  return scan;
}

}  // namespace

ReadIdBases assign_read_ids(const std::vector<std::uint64_t>& record_counts, bool paired) {
  ReadIdBases ids;
  ids.base.assign(record_counts.size(), 0);
  const std::size_t per_lib = paired ? 2 : 1;
  std::uint64_t total = 0;
  for (std::size_t f = 0; f < record_counts.size(); f += per_lib) {
    for (std::size_t j = f; j < f + per_lib && j < record_counts.size(); ++j)
      ids.base[j] = static_cast<std::uint32_t>(total);
    total += record_counts[f];
    if (total >= kInvalidRead) {
      throw util::config_error("create_index: dataset has at least " + std::to_string(total) +
                               " reads; 32-bit read IDs allow at most " +
                               std::to_string(kInvalidRead - 1));
    }
  }
  ids.total_reads = static_cast<std::uint32_t>(total);
  return ids;
}

DatasetIndex create_index(const std::string& name, const std::vector<std::string>& files,
                          bool paired, const IndexCreateOptions& options,
                          IndexCreateTiming* timing_out) {
  if (files.empty()) throw std::invalid_argument("create_index: no input files");
  if (paired && files.size() % 2 != 0)
    throw std::invalid_argument("create_index: paired datasets need an even file count");
  obs::TraceSpan index_span("IndexCreate");
  if (options.m < 1 || options.m > 15)
    throw std::invalid_argument("create_index: m must be in [1, 15]");
  if (options.k < options.m || options.k > kmer::kMaxK128)
    throw std::invalid_argument("create_index: k must be in [m, 63]");

  DatasetIndex index;
  index.name = name;
  index.files = files;
  index.paired = paired;
  index.k = options.k;
  index.mer_hist.m = options.m;
  index.mer_hist.k = options.k;
  index.part.m = options.m;

  for (const auto& f : files) index.total_file_bytes += io::file_size_bytes(f);
  const std::uint64_t target_bytes = std::max<std::uint64_t>(
      1, index.total_file_bytes / std::max<std::uint32_t>(1, options.target_chunks));

  // --- Phase 1: chunking (the FASTQPart structure sans histograms). ---
  util::WallTimer chunk_timer;
  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (std::uint32_t f = 0; f < files.size(); ++f) {
    scans.push_back(chunk_file(files[f], f, target_bytes, options.parse_mode));
  }

  // Global read IDs: file-local IDs offset by each file's library base.
  std::vector<std::uint64_t> record_counts(files.size(), 0);
  for (std::size_t f = 0; f < files.size(); ++f) record_counts[f] = scans[f].record_count;
  if (paired) {
    for (std::size_t j = 0; j * 2 < files.size(); ++j) {
      if (record_counts[2 * j] != record_counts[2 * j + 1])
        throw util::parse_error("create_index: paired files have different record counts: " +
                                    files[2 * j] + " vs " + files[2 * j + 1],
                                files[2 * j + 1]);
    }
  }
  const ReadIdBases ids = assign_read_ids(record_counts, paired);
  index.total_reads = ids.total_reads;
  const std::vector<std::uint32_t>& id_base = ids.base;

  for (std::size_t f = 0; f < files.size(); ++f) {
    for (auto chunk : scans[f].chunks) {
      chunk.first_read_id += id_base[f];
      index.part.chunks.push_back(chunk);
    }
  }
  const double chunking_seconds = chunk_timer.seconds();

  // --- Phase 2: per-chunk m-mer histograms of canonical k-mer prefixes.
  // Chunk rows are independent, so threads take disjoint contiguous chunk
  // ranges (the same static partitioning KmerGen uses).  Each row is made
  // cumulative right after it is counted, while it is still in cache, and
  // its raw counts go into the thread's merHist accumulator; merHist is the
  // sum of the accumulators. ---
  util::WallTimer hist_timer;
  const std::size_t nbins = std::size_t{1} << (2 * options.m);
  index.part.histograms.assign(index.part.chunks.size() * nbins, 0);

  const int k = options.k;
  const int m = options.m;
  const int threads = std::max(1, options.threads);
  std::vector<std::uint64_t> bases_per_thread(static_cast<std::size_t>(threads), 0);
  std::vector<std::vector<std::uint32_t>> mer_acc(static_cast<std::size_t>(threads));
  {
    util::ThreadTeam team(threads);
    const auto bounds = util::split_range(index.part.num_chunks(), threads);
    team.run([&](int t) {
      std::vector<std::uint32_t>& acc = mer_acc[static_cast<std::size_t>(t)];
      acc.assign(nbins, 0);
      std::uint64_t bases = 0;
      for (std::size_t c = bounds[static_cast<std::size_t>(t)];
           c < bounds[static_cast<std::size_t>(t) + 1]; ++c) {
        const ChunkRecord& chunk = index.part.chunks[c];
        const auto buffer =
            io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
        const std::span<std::uint32_t> hist(index.part.histograms.data() + c * nbins, nbins);
        io::for_each_record_in_buffer(
            std::string_view(buffer.data(), buffer.size()),
            [&](std::string_view, std::string_view seq, std::string_view) {
              bases += seq.size();
              if (k <= kmer::kMaxK64) {
                kmer::for_each_canonical_kmer64(seq, k, [&](std::uint64_t km, std::size_t) {
                  ++hist[kmer::prefix_bin64(km, k, m)];
                });
              } else {
                kmer::for_each_canonical_kmer128(seq, k,
                                                 [&](kmer::Kmer128 km, std::size_t) {
                                                   ++hist[kmer::prefix_bin128(km, k, m)];
                                                 });
              }
            },
            io::ParseOptions{options.parse_mode, index.files[chunk.file], chunk.offset});
        cumulate_chunk_row(static_cast<std::uint32_t>(c), hist, acc);
      }
      bases_per_thread[static_cast<std::size_t>(t)] = bases;
    });
  }
  for (std::uint64_t b : bases_per_thread) index.total_bases += b;
  index.mer_hist.counts.assign(nbins, 0);
  for (std::size_t b = 0; b < nbins; ++b) {
    std::uint64_t sum = 0;
    for (const auto& acc : mer_acc) sum += acc[b];
    if (sum > std::numeric_limits<std::uint32_t>::max()) throw mer_hist_overflow();
    index.mer_hist.counts[b] = static_cast<std::uint32_t>(sum);
  }
  const double histogram_seconds = hist_timer.seconds();

  if (timing_out != nullptr) {
    timing_out->chunking_seconds = chunking_seconds;
    timing_out->histogram_seconds = histogram_seconds;
  }
  obs::metrics().counter("index.reads_indexed").add(index.total_reads);
  obs::metrics().counter("index.bases_indexed").add(index.total_bases);
  return index;
}

}  // namespace metaprep::core
