// IndexCreate (paper §3.1): the sequential, once-per-dataset preprocessing
// step that builds the merHist and FASTQPart tables.
//
// Two phases, timed separately to mirror Table 5:
//  1. chunking — stream each FASTQ file once, cutting logical chunks of
//     approximately equal byte size at record boundaries and recording the
//     global read ID of each chunk's first read ("FASTQPart" column);
//  2. histogram — stream the chunks, enumerate canonical k-mers, and count
//     m-mer prefixes per chunk into one dense scratch row per thread; each
//     row is then stored dense or sparse, whichever is smaller (the
//     FASTQPart format), while its raw counts are added into merHist, the
//     column-sum of the chunk histograms ("merHist" column).  No C x 4^m
//     table is ever allocated.
//
// Paired-end handling: both mates of pair i carry global read ID i ("we use
// a single read identifier for both ends of a paired-end read", §3.2).  We
// chunk R1 and R2 files independently — a chunk never needs to contain both
// mates, because read IDs are assigned per record index within each file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/indices.hpp"
#include "io/fastq.hpp"

namespace metaprep::core {

struct IndexCreateOptions {
  int k = 27;
  int m = 10;
  /// Strict: malformed FASTQ aborts indexing with a typed parse Error.
  /// Lenient: bad records are skipped (counted in io.records_skipped) and
  /// the index covers only the parseable records.
  io::ParseMode parse_mode = io::ParseMode::kStrict;
  /// Target number of chunks across all files (the paper uses 384 for the
  /// small datasets and 1536 for IS).  At least one chunk per file.
  std::uint32_t target_chunks = 64;
  /// Threads for the histogram phase.  The paper keeps IndexCreate
  /// sequential ("not in the critical path") but notes it "can be
  /// parallelized in the same manner" as KmerGen (§4.3); chunk histograms
  /// are independent, so threads process disjoint chunk sets.
  int threads = 1;
};

struct IndexCreateTiming {
  double chunking_seconds = 0;   ///< Table 5 "FASTQPart" column
  double histogram_seconds = 0;  ///< Table 5 "merHist" column
};

/// Global read-ID bases assigned from per-file record counts.
struct ReadIdBases {
  std::vector<std::uint32_t> base;  ///< first global read ID of each file
  std::uint32_t total_reads = 0;
};

/// Assign global read-ID bases.  Paired: library j = files (2j, 2j+1), both
/// mates of pair i share ID base_j + i, and the library contributes
/// @p record_counts[2j] IDs (the caller has checked the mates agree).
/// Single-end: IDs accumulate across files.  Sums in 64 bits and throws a
/// config util::Error once the total reaches kInvalidRead, which is reserved.
ReadIdBases assign_read_ids(const std::vector<std::uint64_t>& record_counts, bool paired);

/// Build the dataset index.  @p files lists FASTQ paths; when @p paired is
/// true they must come in (R1, R2) pairs with equal record counts.
/// @p timing_out, when non-null, receives the per-phase times.
DatasetIndex create_index(const std::string& name, const std::vector<std::string>& files,
                          bool paired, const IndexCreateOptions& options,
                          IndexCreateTiming* timing_out = nullptr);

}  // namespace metaprep::core
