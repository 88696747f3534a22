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
#include <string>
#include <vector>

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
struct FastqPartTable {
  int m = 10;
  std::vector<ChunkRecord> chunks;
  /// Row-major [chunk][bin] counts, chunks.size() * 4^m entries.
  std::vector<std::uint32_t> histograms;

  [[nodiscard]] std::uint32_t num_chunks() const noexcept {
    return static_cast<std::uint32_t>(chunks.size());
  }
  [[nodiscard]] std::uint32_t num_bins() const noexcept {
    return chunks.empty() ? 0
                          : static_cast<std::uint32_t>(histograms.size() / chunks.size());
  }
  /// Histogram row of chunk @p c.
  [[nodiscard]] const std::uint32_t* row(std::uint32_t c) const {
    return histograms.data() + static_cast<std::size_t>(c) * num_bins();
  }
  /// Sum of bins [bin_begin, bin_end) of chunk @p c.
  [[nodiscard]] std::uint64_t range_count(std::uint32_t c, std::uint32_t bin_begin,
                                          std::uint32_t bin_end) const;
};

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

/// Serialize / deserialize the index (binary, versioned).  load_index
/// treats the file as untrusted: a length the rest of the file cannot hold,
/// a chunk naming a missing file, chunk read-ID ranges that do not tile
/// [0, total_reads), or tables whose sizes disagree with m throw a parse
/// util::Error before anything is sized from them.
void save_index(const DatasetIndex& index, const std::string& path);
DatasetIndex load_index(const std::string& path);

}  // namespace metaprep::core
