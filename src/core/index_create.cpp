#include "core/index_create.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/fastq.hpp"
#include "kmer/traits.hpp"
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
/// boundaries.  A record the lenient parser abandons between two records of
/// a chunk lies inside the chunk's bytes, so every re-parse of the chunk
/// meets it too: it takes a read ID of its own, as for_each_chunk_record
/// gives it.  A bad tail after the file's last record is in no chunk and
/// takes none.
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
  std::uint64_t skipped = 0;  // abandoned records already given IDs
  while (reader.next(rec)) {
    const std::uint64_t ids = 1 + reader.records_skipped() - skipped;
    skipped = reader.records_skipped();
    scan.record_count += ids;
    current.record_count += static_cast<std::uint32_t>(ids);
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

/// Sort @p bins, each below 2^@p bits, in place by LSD counting passes of
/// at most 11 bits, with @p tmp (bins.size() entries) as the other buffer.
/// A chunk's few thousand first-touched bins sort in a few linear sweeps
/// instead of a comparison sort's n log n unpredictable branches.
void sort_bins(std::span<std::uint32_t> bins, std::span<std::uint32_t> tmp, int bits) {
  constexpr int kMaxDigit = 11;
  const int passes = std::max(1, (bits + kMaxDigit - 1) / kMaxDigit);
  const int digit = (bits + passes - 1) / passes;
  const std::uint32_t mask = (std::uint32_t{1} << digit) - 1;
  std::array<std::uint32_t, std::size_t{1} << kMaxDigit> count{};
  std::uint32_t* src = bins.data();
  std::uint32_t* dst = tmp.data();
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit;
    std::fill_n(count.begin(), std::size_t{mask} + 1, 0u);
    for (std::size_t i = 0; i < bins.size(); ++i) ++count[(src[i] >> shift) & mask];
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d <= mask; ++d) sum += std::exchange(count[d], sum);
    for (std::size_t i = 0; i < bins.size(); ++i) dst[count[(src[i] >> shift) & mask]++] = src[i];
    std::swap(src, dst);
  }
  if (src != bins.data()) std::copy_n(src, bins.size(), bins.data());
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
  {
    obs::TraceSpan span("IndexCreate-Chunking");
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
  }
  const double chunking_seconds = chunk_timer.seconds();

  // --- Phase 2: per-chunk m-mer histograms of canonical k-mer prefixes.
  // Chunk rows are independent, so threads take disjoint contiguous chunk
  // ranges (the same static partitioning KmerGen uses).  Each thread counts
  // a chunk into one dense scratch row, noting the bins it touches, then
  // appends the row in its stored form to the thread's pool while it is
  // still in cache, adds the raw counts into the thread's merHist
  // accumulator and clears the scratch (append_chunk_row).  The pools are
  // concatenated in chunk order; merHist is the sum of the accumulators. ---
  util::WallTimer hist_timer;
  {
    obs::TraceSpan span("IndexCreate-Histograms");
    const std::size_t nbins = std::size_t{1} << (2 * options.m);
    const std::uint32_t nchunks = index.part.num_chunks();

    const int k = options.k;
    const int m = options.m;
    const int threads = std::max(1, options.threads);
    std::vector<std::uint64_t> bases_per_thread(static_cast<std::size_t>(threads), 0);
    std::vector<std::vector<std::uint32_t>> mer_acc(static_cast<std::size_t>(threads));
    std::vector<std::vector<std::uint32_t>> pools(static_cast<std::size_t>(threads));
    std::vector<std::uint64_t> row_len(nchunks, 0);
    {
      util::ThreadTeam team(threads);
      const auto bounds = util::split_range(nchunks, threads);
      team.run([&](int t) {
        std::vector<std::uint32_t>& acc = mer_acc[static_cast<std::size_t>(t)];
        std::vector<std::uint32_t>& pool = pools[static_cast<std::size_t>(t)];
        acc.assign(nbins, 0);
        // Reserve the pool for the longest rows the chunks allow (a row has
        // at most 4^m entries and at most two per k-mer, and a chunk holds
        // fewer k-mers than bytes), so appending never reallocates.  The
        // unused tail is never touched, so it costs address space only, and
        // is not shrunk away: that would copy the pool and hand the old block
        // back to the allocator, still resident.
        std::uint64_t reserve = 0;
        for (std::size_t c = bounds[static_cast<std::size_t>(t)];
             c < bounds[static_cast<std::size_t>(t) + 1]; ++c)
          reserve += std::min<std::uint64_t>(nbins, 2 * index.part.chunks[c].size);
        pool.reserve(reserve);
        std::vector<std::uint32_t> hist(nbins, 0);
        // A small chunk's non-empty bins, then the buffer that sorts them.
        std::vector<std::uint32_t> touched;
        std::uint64_t bases = 0;
        for (std::size_t c = bounds[static_cast<std::size_t>(t)];
             c < bounds[static_cast<std::size_t>(t) + 1]; ++c) {
          const ChunkRecord& chunk = index.part.chunks[c];
          const auto buffer = read_chunk(index, static_cast<std::uint32_t>(c));
          auto scan = [&](auto&& count) {
            kmer::with_kmer_type(k, [&](auto key) {
              using Traits = kmer::KmerTraits<decltype(key)>;
              for_each_chunk_record(
                  index, static_cast<std::uint32_t>(c), buffer, options.parse_mode,
                  [&](std::uint32_t, std::string_view, std::string_view seq, std::string_view) {
                    bases += seq.size();
                    Traits::for_each_canonical(seq, k, [&](decltype(key) km, std::size_t) {
                      count(Traits::prefix_bin(km, k, m));
                    });
                  });
            });
          };
          // A chunk holds fewer k-mers than bytes.  One under half as many
          // bytes as bins cannot fill half the bins, so its row is sparse and
          // its bins are noted as they are first touched, without a branch:
          // every k-mer writes its bin at the end and only a first touch keeps
          // it; the list's second half then sorts them.  A larger chunk is
          // counted plainly, and append_chunk_row finds its bins by one sweep,
          // which costs no more than the chunk's scan.
          std::size_t ntouched = 0;
          if (2 * chunk.size < nbins) {
            if (touched.size() < 2 * chunk.size) touched.resize(2 * chunk.size);
            scan([&](std::uint32_t b) {
              touched[ntouched] = b;
              ntouched += hist[b]++ == 0 ? 1 : 0;
            });
            sort_bins(std::span(touched).first(ntouched),
                      std::span(touched).subspan(ntouched, ntouched), 2 * m);
          } else {
            scan([&](std::uint32_t b) { ++hist[b]; });
          }
          row_len[c] = append_chunk_row(static_cast<std::uint32_t>(c), hist,
                                        std::span(touched).first(ntouched), acc, pool);
        }
        bases_per_thread[static_cast<std::size_t>(t)] = bases;
      });
    }
    index.part.row_begin.assign(nchunks + std::size_t{1}, 0);
    for (std::uint32_t c = 0; c < nchunks; ++c)
      index.part.row_begin[c + 1] = index.part.row_begin[c] + row_len[c];
    index.part.histograms = std::move(pools[0]);
    index.part.histograms.reserve(index.part.row_begin.back());
    for (std::size_t t = 1; t < pools.size(); ++t) {
      index.part.histograms.insert(index.part.histograms.end(), pools[t].begin(), pools[t].end());
      std::vector<std::uint32_t>().swap(pools[t]);
    }
    for (std::uint64_t b : bases_per_thread) index.total_bases += b;
    index.mer_hist.counts.assign(nbins, 0);
    for (std::size_t b = 0; b < nbins; ++b) {
      std::uint64_t sum = 0;
      for (const auto& acc : mer_acc) sum += acc[b];
      if (sum > std::numeric_limits<std::uint32_t>::max()) throw mer_hist_overflow();
      index.mer_hist.counts[b] = static_cast<std::uint32_t>(sum);
    }
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
