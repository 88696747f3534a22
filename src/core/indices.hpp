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

#include <cstdint>
#include <span>
#include <string>
#include <vector>

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
/// Each histogram row is stored as its inclusive prefix sum, in place:
/// entry b of chunk c's row counts c's k-mers whose m-mer bin is <= b.  A
/// bounded count is then one subtraction, so the pipeline's per-pass
/// send/recv/partition geometry costs O(chunks x P x T) lookups rather
/// than a sweep over every bin.  IndexCreate rejects a chunk whose total
/// does not fit 32 bits (see cumulate_chunk_row).
struct FastqPartTable {
  int m = 10;
  std::vector<ChunkRecord> chunks;
  /// Row-major [chunk][bin] cumulative counts, chunks.size() * 4^m entries.
  std::vector<std::uint32_t> histograms;

  [[nodiscard]] std::uint32_t num_chunks() const noexcept {
    return static_cast<std::uint32_t>(chunks.size());
  }
  [[nodiscard]] std::uint32_t num_bins() const noexcept {
    return chunks.empty() ? 0
                          : static_cast<std::uint32_t>(histograms.size() / chunks.size());
  }
  /// Number of chunk @p c's k-mers in bins [bin_begin, bin_end); 0 when the
  /// range is empty.  O(1).
  [[nodiscard]] std::uint64_t range_count(std::uint32_t c, std::uint32_t bin_begin,
                                          std::uint32_t bin_end) const {
    const std::uint32_t* r = row(c);
    return bin_end <= bin_begin ? 0 : prefix(r, bin_end) - prefix(r, bin_begin);
  }
  /// counts[i] += range_count(c, bounds[i], bounds[i + 1]) for every i, one
  /// lookup per bound.  @p bounds is non-decreasing and @p counts holds
  /// bounds.size() - 1 entries.
  void add_range_counts(std::uint32_t c, std::span<const std::uint32_t> bounds,
                        std::span<std::uint64_t> counts) const {
    if (bounds.empty()) return;
    const std::uint32_t* r = row(c);
    std::uint32_t lo = prefix(r, bounds[0]);
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const std::uint32_t hi = prefix(r, bounds[i + 1]);
      counts[i] += hi - lo;
      lo = hi;
    }
  }

 private:
  [[nodiscard]] const std::uint32_t* row(std::uint32_t c) const {
    return histograms.data() + static_cast<std::size_t>(c) * num_bins();
  }
  /// k-mers in bins [0, bin) of cumulative row @p r.
  static std::uint32_t prefix(const std::uint32_t* r, std::uint32_t bin) {
    return bin == 0 ? 0 : r[bin - 1];
  }
};

/// Turn chunk @p chunk's raw m-mer histogram @p row into its inclusive prefix
/// sum in place (the FASTQPart row format) and add the raw counts into
/// @p mer_acc (one bin per row entry).  Throws a config util::Error naming
/// the chunk when its k-mer total does not fit a 32-bit row entry, and
/// mer_hist_overflow() when a @p mer_acc bin passes 2^32 - 1.
void cumulate_chunk_row(std::uint32_t chunk, std::span<std::uint32_t> row,
                        std::span<std::uint32_t> mer_acc);

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

/// Serialize / deserialize the index (binary, versioned; format v4 stores
/// the cumulative FASTQPart rows).  load_index treats the file as
/// untrusted: a length the rest of the file cannot hold, a chunk naming a
/// missing file, chunk read-ID ranges that do not tile [0, total_reads),
/// tables whose sizes disagree with m, a decreasing row, a row total above
/// its chunk's byte size, or a merHist that is not the column sum of the
/// rows throw a parse util::Error before anything is sized from them.
void save_index(const DatasetIndex& index, const std::string& path);
DatasetIndex load_index(const std::string& path);

}  // namespace metaprep::core
