#include "core/memory_model.hpp"

#include <stdexcept>

#include "kmer/traits.hpp"

namespace metaprep::core {

MemoryModelInput memory_model_input(const DatasetIndex& index, int num_ranks,
                                    int threads_per_rank) {
  MemoryModelInput in;
  in.total_tuples = index.mer_hist.total();
  in.total_reads = index.total_reads;
  in.fastq_part_bytes = index.part.stored_bytes();
  in.max_chunk_bytes = index.max_chunk_bytes();
  in.m = index.mer_hist.m;
  in.num_ranks = num_ranks;
  in.threads_per_rank = threads_per_rank;
  in.tuple_bytes = static_cast<int>(kmer::with_kmer_type(
      index.k, [](auto key) { return kmer::KmerTraits<decltype(key)>::kTupleBytes; }));
  return in;
}

MemoryBreakdown estimate_memory(const MemoryModelInput& in) {
  if (in.num_ranks < 1 || in.threads_per_rank < 1 || in.num_passes < 1)
    throw std::invalid_argument("estimate_memory: P, T, S must be >= 1");
  MemoryBreakdown b;
  const std::uint64_t bins4 = std::uint64_t{4} << (2 * in.m);  // 4^{m+1}
  b.mer_hist = bins4;
  b.fastq_part = in.fastq_part_bytes;
  b.fastq_buffer = static_cast<std::uint64_t>(in.threads_per_rank) * in.max_chunk_bytes;
  const std::uint64_t tuples_per_task_pass =
      in.total_tuples / (static_cast<std::uint64_t>(in.num_passes) *
                         static_cast<std::uint64_t>(in.num_ranks));
  b.kmer_out = static_cast<std::uint64_t>(in.tuple_bytes) * tuples_per_task_pass;
  b.kmer_in = b.kmer_out;
  b.p_array = 4 * in.total_reads;
  b.p_prime = 4 * in.total_reads;
  b.total = b.mer_hist + b.fastq_part + b.fastq_buffer + b.kmer_out + b.kmer_in + b.p_array +
            b.p_prime;
  return b;
}

int min_passes_for_budget(MemoryModelInput input, std::uint64_t budget_bytes, int max_passes) {
  for (int s = 1; s <= max_passes; ++s) {
    input.num_passes = s;
    if (estimate_memory(input).total <= budget_bytes) return s;
  }
  return 0;
}

}  // namespace metaprep::core
