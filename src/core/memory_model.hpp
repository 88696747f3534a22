// Analytic per-task memory model (paper §3.7).
//
// "The total memory (in bytes) required per task is given by
//  4^{m+1}(C + 1) + T*s_c + 24M/(SP) + 8R" — the dominant term is the tuple
// buffers, and "we can increase the number of passes to reduce the per-task
// memory footprint."  The paper's FASTQPart term 4^{m+1}·C is the size of a
// table of dense rows; here the term is the bytes the index actually stores,
// so a small dataset at a large m, whose rows are sparse, is not budgeted a
// table it never holds.  The model is unit-tested against the paper's worked
// IS example (8 passes, 16 tasks, 24 threads => ~49 GB/task) and drives the
// automatic pass-count selection when MetaprepConfig::num_passes == 0.
#pragma once

#include <cstdint>

#include "core/indices.hpp"

namespace metaprep::core {

struct MemoryModelInput {
  std::uint64_t total_tuples = 0;      ///< enumerated canonical k-mers (<= M bp)
  std::uint64_t total_reads = 0;       ///< R (paired-end read count)
  std::uint64_t fastq_part_bytes = 0;  ///< stored FASTQPart bytes (dense rows: 4^{m+1} * C)
  std::uint64_t max_chunk_bytes = 0;   ///< s_c
  int m = 10;                          ///< merHist prefix length
  int num_ranks = 1;                   ///< P
  int threads_per_rank = 1;            ///< T
  int num_passes = 1;                  ///< S
  int tuple_bytes = 12;                ///< 12 for k <= 32, 20 for k <= 63
};

struct MemoryBreakdown {
  std::uint64_t mer_hist = 0;      ///< 4^{m+1}
  std::uint64_t fastq_part = 0;    ///< fastq_part_bytes
  std::uint64_t fastq_buffer = 0;  ///< T * s_c
  std::uint64_t kmer_out = 0;      ///< tuple_bytes * M / (S*P)
  std::uint64_t kmer_in = 0;       ///< tuple_bytes * M / (S*P)
  std::uint64_t p_array = 0;       ///< 4R
  std::uint64_t p_prime = 0;       ///< 4R
  std::uint64_t total = 0;
};

/// The model's input for running @p index on @p num_ranks ranks of
/// @p threads_per_rank threads, in one pass.
MemoryModelInput memory_model_input(const DatasetIndex& index, int num_ranks,
                                    int threads_per_rank);

/// Per-task memory estimate.
MemoryBreakdown estimate_memory(const MemoryModelInput& input);

/// Smallest S such that the per-task estimate fits @p budget_bytes.
/// Returns 0 if no pass count up to @p max_passes fits (fixed-cost terms
/// alone exceed the budget).
int min_passes_for_budget(MemoryModelInput input, std::uint64_t budget_bytes,
                          int max_passes = 64);

}  // namespace metaprep::core
