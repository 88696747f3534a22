// The two IndexCreate tables (paper §3.1): merHist and FASTQPart.
//
// merHist: counts of the m-mer prefixes of all canonical k-mers in the
// dataset (4^m bins, 32-bit counts).  It partitions the k-mer value range
// for multipass and parallel execution.
//
// FASTQPart: the input FASTQ files are logically partitioned into C chunks
// of roughly equal size; each record stores the chunk's file, byte offset,
// size, the global read ID of its first read, and a chunk-local m-mer
// histogram.  The chunk histograms are what let METAPREP precompute every
// send/receive buffer size and per-thread write offset (§3.2.2, §3.3, §3.4).
//
// Both tables are written to disk in binary format and reused across runs
// ("These indices can be reused for parallel runs on different compute
// platforms").
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/fastq.hpp"
#include "util/error.hpp"

namespace metaprep::core {

/// Reserved read ID, never assigned to a read: the pipeline marks padding
/// tuples with it.  A dataset holds fewer than kInvalidRead reads, so
/// neither a read ID nor total_reads ever equals it.
inline constexpr std::uint32_t kInvalidRead = 0xFFFFFFFFu;

/// Global m-mer prefix histogram (merHist, §3.1.1).
struct MerHist {
  int m = 10;
  int k = 27;  ///< the k the prefixes were computed for
  std::vector<std::uint32_t> counts;  ///< 4^m bins

  [[nodiscard]] std::uint32_t num_bins() const noexcept {
    return static_cast<std::uint32_t>(counts.size());
  }
  [[nodiscard]] std::uint64_t total() const;
};

/// One logical FASTQ chunk (one row of the FASTQPart table, Figure 2).
struct ChunkRecord {
  std::uint32_t file = 0;          ///< index into DatasetIndex::files
  std::uint64_t offset = 0;        ///< byte offset of the chunk's first record
  std::uint64_t size = 0;          ///< chunk size in bytes
  std::uint32_t first_read_id = 0; ///< global read ID of the first read
  std::uint32_t record_count = 0;  ///< number of records in the chunk
};

/// FASTQPart table (§3.1.2): chunk records plus per-chunk m-mer histograms.
///
/// Each chunk's row is stored in whichever of two forms is smaller, and the
/// row's length tells which:
///   - dense (length exactly 4^m): the row's inclusive prefix sum, so entry
///     b counts the chunk's k-mers whose m-mer bin is <= b;
///   - sparse (an even length 2·nnz < 4^m): the nnz non-empty bins in
///     strictly increasing order, then their nnz inclusive prefix sums.
/// A bounded count is one lookup per bound on a dense row and one
/// binary search (O(log nnz)) on a sparse one, so the pipeline's per-pass
/// send/recv/partition geometry costs O(chunks x P x T) lookups rather than
/// a sweep over every bin, and a small dataset at a large m stores only its
/// non-empty bins.  IndexCreate rejects a chunk whose total does not fit 32
/// bits (see append_chunk_row).
struct FastqPartTable {
  int m = 10;
  std::vector<ChunkRecord> chunks;
  /// Row pool: every chunk's row back to back, row c being entries
  /// [row_begin[c], row_begin[c + 1]).
  std::vector<std::uint32_t> histograms;
  /// chunks.size() + 1 offsets into histograms.
  std::vector<std::uint64_t> row_begin{0};

  [[nodiscard]] std::uint32_t num_chunks() const noexcept {
    return static_cast<std::uint32_t>(chunks.size());
  }
  [[nodiscard]] std::uint32_t num_bins() const noexcept { return 1u << (2 * m); }
  /// Whether chunk @p c's row is stored dense (else sparse).
  [[nodiscard]] bool dense(std::uint32_t c) const {
    return row_begin[c + 1] - row_begin[c] == num_bins();
  }
  /// Bytes the row pool and its offsets occupy.
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept {
    return histograms.size() * sizeof(std::uint32_t) + row_begin.size() * sizeof(std::uint64_t);
  }
  /// Number of chunk @p c's k-mers in bins [bin_begin, bin_end); 0 when the
  /// range is empty.  O(1) on a dense row, O(log nnz) on a sparse one.
  [[nodiscard]] std::uint64_t range_count(std::uint32_t c, std::uint32_t bin_begin,
                                          std::uint32_t bin_end) const {
    if (bin_end <= bin_begin) return 0;
    const Row r = row(c);
    return r.prefix(bin_end) - r.prefix(bin_begin);
  }
  /// counts[i] += range_count(c, bounds[i], bounds[i + 1]) for every i, one
  /// lookup per bound.  @p bounds is non-decreasing and @p counts holds
  /// bounds.size() - 1 entries.
  void add_range_counts(std::uint32_t c, std::span<const std::uint32_t> bounds,
                        std::span<std::uint64_t> counts) const {
    if (bounds.empty()) return;
    const Row r = row(c);
    std::uint32_t lo = r.prefix(bounds[0]);
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const std::uint32_t hi = r.prefix(bounds[i + 1]);
      counts[i] += hi - lo;
      lo = hi;
    }
  }

 private:
  /// One stored row: n cumulative counts, keyed by position (dense) or by
  /// the n bins before them (sparse).
  struct Row {
    bool dense;
    const std::uint32_t* bins;
    const std::uint32_t* cum;
    std::size_t n;
    /// k-mers in bins [0, bin).
    [[nodiscard]] std::uint32_t prefix(std::uint32_t bin) const {
      if (dense) return bin == 0 ? 0 : cum[bin - 1];
      const std::uint32_t* it = std::lower_bound(bins, bins + n, bin);
      return it == bins ? 0 : cum[it - bins - 1];
    }
  };
  [[nodiscard]] Row row(std::uint32_t c) const {
    const std::uint32_t* base = histograms.data() + row_begin[c];
    const std::size_t len = row_begin[c + 1] - row_begin[c];
    if (len == num_bins()) return {true, base, base, len};
    return {false, base, base + len / 2, len / 2};
  }
};

/// Append chunk @p chunk's row to @p pool in whichever form is smaller and
/// return its length.  @p scratch holds the chunk's raw m-mer counts (4^m
/// bins) and is left zeroed for the next chunk; @p touched lists each of
/// its non-empty bins once, in increasing order, or is empty to have them
/// found by a sweep of @p scratch.  The raw counts are added into
/// @p mer_acc.  A row touching half the bins or more is stored dense and
/// its scratch cleared whole; a sparser one touches only its own bins.  Throws a config util::Error naming the chunk when
/// its k-mer total does not fit a 32-bit row entry, and mer_hist_overflow()
/// when a @p mer_acc bin passes 2^32 - 1.
std::size_t append_chunk_row(std::uint32_t chunk, std::span<std::uint32_t> scratch,
                             std::span<const std::uint32_t> touched,
                             std::span<std::uint32_t> mer_acc,
                             std::vector<std::uint32_t>& pool);

/// The config util::Error for a merHist bin holding 2^32 or more k-mers.
util::Error mer_hist_overflow();

/// Everything IndexCreate knows about a dataset.
struct DatasetIndex {
  std::string name;
  std::vector<std::string> files;
  bool paired = true;  ///< files come in (R1, R2) pairs sharing read IDs
  int k = 27;
  std::uint32_t total_reads = 0;  ///< R: number of paired-end reads (pairs)
  std::uint64_t total_bases = 0;  ///< cumulative base count (2R * read_len)
  std::uint64_t total_file_bytes = 0;
  MerHist mer_hist;
  FastqPartTable part;

  /// Largest chunk size in bytes (s_c in the §3.7 analysis).
  [[nodiscard]] std::uint64_t max_chunk_bytes() const;
};

/// Chunk @p c's bytes, read from its FASTQ file.
std::vector<char> read_chunk(const DatasetIndex& index, std::uint32_t c);

/// The parse util::Error for chunk @p c yielding more records (parsed or
/// abandoned) than its record_count: its bytes changed after indexing.
util::Error chunk_overrun(const DatasetIndex& index, std::uint32_t c);

/// The parse util::Error for chunk @p c taking a routing slot past the
/// k-mers the histograms of its thread's chunks count: the chunk's bytes
/// (or an earlier chunk's of the same thread) changed after indexing.
util::Error chunk_kmer_overrun(const DatasetIndex& index, std::uint32_t c);

/// Parse chunk @p c of @p index out of @p text, the chunk's bytes as
/// read_chunk returns them, calling
/// on_record(read_id, id, seq, qual) per record.  This is where the index's
/// read IDs meet the parser: IDs count up from the chunk's first_read_id,
/// and a record the lenient parser abandons takes its ID, as it did when
/// IndexCreate counted the chunk (on_skip is called with it), so every
/// record keeps the ID IndexCreate gave it.  IDs stay inside the chunk's
/// range: a chunk yielding more than record_count records and skips throws
/// chunk_overrun before the out-of-range ID reaches a callback.  A
/// strict-mode parse error names the chunk's file and the record's offset in
/// that file.
template <typename OnRecord>
io::BufferParseStats for_each_chunk_record(
    const DatasetIndex& index, std::uint32_t c, std::span<const char> text, io::ParseMode mode,
    OnRecord&& on_record, const std::function<void(std::uint32_t)>& on_skip = {}) {
  const ChunkRecord& chunk = index.part.chunks[c];
  const std::uint32_t end_id = chunk.first_read_id + chunk.record_count;
  std::uint32_t read_id = chunk.first_read_id;
  const auto take_id = [&] {
    if (read_id == end_id) throw chunk_overrun(index, c);
    return read_id++;
  };
  return io::for_each_record_in_buffer(
      std::string_view(text.data(), text.size()),
      [&](std::string_view id, std::string_view seq, std::string_view qual) {
        on_record(take_id(), id, seq, qual);
      },
      io::ParseOptions{mode, index.files[chunk.file], chunk.offset, [&] {
                         const std::uint32_t skipped = take_id();
                         if (on_skip) on_skip(skipped);
                       }});
}

/// Serialize / deserialize the index (binary, versioned; format v5 stores
/// the dense-or-sparse FASTQPart rows and ends in a checksum).  load_index
/// treats the file as untrusted: a checksum mismatch or trailing bytes, a
/// length the rest of the file cannot hold, a chunk naming a missing file,
/// chunk read-ID ranges that do not tile [0, total_reads), a k the merHist
/// was not counted for, tables whose sizes disagree with m, a malformed row
/// (see validate_index in indices.cpp), a row total above its chunk's byte
/// size, or a merHist that is not the column sum of the rows throw a parse
/// util::Error before anything is sized from them.
void save_index(const DatasetIndex& index, const std::string& path);
DatasetIndex load_index(const std::string& path);

}  // namespace metaprep::core
