// Tests for the §3.7 analytic memory model, including the paper's worked
// example for the IS dataset.
#include "core/memory_model.hpp"

#include <gtest/gtest.h>

namespace metaprep::core {
namespace {

/// The paper's IS example (§3.7): 8 passes, 16 tasks, 24 threads/task,
/// m = 10, C = 1536 chunks of ~0.3 GB, R = 1.13e9 reads, ~1.3e9 tuples per
/// task per pass => merHist 4 MB, FASTQPart ~6 GB, FASTQBuffer ~7 GB,
/// kmerIn/kmerOut ~14 GB each, p/p' ~8 GB together; total ~49 GB.
MemoryModelInput paper_is_input() {
  MemoryModelInput in;
  in.total_reads = 1'130'000'000ULL;
  // ~1.3e9 tuples/task/pass * 8 passes * 16 tasks.
  in.total_tuples = 1'300'000'000ULL * 8 * 16;
  in.fastq_part_bytes = (std::uint64_t{4} << 20) * 1536;  // dense rows: 4^{11} * C
  in.max_chunk_bytes = 300'000'000ULL;  // ~0.3 GB
  in.m = 10;
  in.num_ranks = 16;
  in.threads_per_rank = 24;
  in.num_passes = 8;
  in.tuple_bytes = 12;
  return in;
}

TEST(MemoryModel, ReproducesThePaperIsExample) {
  const auto b = estimate_memory(paper_is_input());
  const double GB = 1e9;
  EXPECT_NEAR(static_cast<double>(b.mer_hist) / GB, 0.004, 0.001);
  EXPECT_NEAR(static_cast<double>(b.fastq_part) / GB, 6.4, 0.5);
  EXPECT_NEAR(static_cast<double>(b.fastq_buffer) / GB, 7.2, 0.5);
  EXPECT_NEAR(static_cast<double>(b.kmer_out) / GB, 15.6, 1.0);  // "~14 GB" (GiB)
  EXPECT_NEAR(static_cast<double>(b.kmer_in) / GB, 15.6, 1.0);
  EXPECT_NEAR(static_cast<double>(b.p_array + b.p_prime) / GB, 9.0, 1.0);  // "~8 GB"
  // Total ~49 GB (the paper sums rounded GiB-ish values; allow slack).
  EXPECT_NEAR(static_cast<double>(b.total) / GB, 52.6, 4.0);
}

TEST(MemoryModel, TupleBuffersShrinkWithMorePasses) {
  auto in = paper_is_input();
  std::uint64_t prev = ~0ULL;
  for (int s : {1, 2, 4, 8, 16}) {
    in.num_passes = s;
    const auto b = estimate_memory(in);
    EXPECT_LT(b.kmer_out, prev);
    prev = b.kmer_out;
  }
}

TEST(MemoryModel, FixedTermsIndependentOfPasses) {
  auto in = paper_is_input();
  in.num_passes = 1;
  const auto b1 = estimate_memory(in);
  in.num_passes = 8;
  const auto b8 = estimate_memory(in);
  EXPECT_EQ(b1.mer_hist, b8.mer_hist);
  EXPECT_EQ(b1.fastq_part, b8.fastq_part);
  EXPECT_EQ(b1.fastq_buffer, b8.fastq_buffer);
  EXPECT_EQ(b1.p_array, b8.p_array);
}

TEST(MemoryModel, WideTuplesCost20Bytes) {
  auto in = paper_is_input();
  const auto narrow = estimate_memory(in);
  in.tuple_bytes = 20;
  const auto wide = estimate_memory(in);
  EXPECT_NEAR(static_cast<double>(wide.kmer_out) / static_cast<double>(narrow.kmer_out),
              20.0 / 12.0, 1e-9);
}

TEST(MemoryModel, MinPassesMonotoneInBudget) {
  const auto in = paper_is_input();
  const int tight = min_passes_for_budget(in, 50'000'000'000ULL);   // 50 GB
  const int loose = min_passes_for_budget(in, 200'000'000'000ULL);  // 200 GB
  EXPECT_GT(tight, 0);
  EXPECT_GT(loose, 0);
  EXPECT_LE(loose, tight);
}

TEST(MemoryModel, PaperBudgetNeedsEightishPasses) {
  // With a 64 GB Edison node and ~50 GB of usable budget, the model should
  // land near the paper's choice of 8 passes for 16 nodes.
  const int s = min_passes_for_budget(paper_is_input(), 53'000'000'000ULL);
  EXPECT_GE(s, 6);
  EXPECT_LE(s, 10);
}

TEST(MemoryModel, ImpossibleBudgetReturnsZero) {
  EXPECT_EQ(min_passes_for_budget(paper_is_input(), 1'000'000ULL), 0);
}

TEST(MemoryModel, InvalidInputThrows) {
  auto in = paper_is_input();
  in.num_ranks = 0;
  EXPECT_THROW(estimate_memory(in), std::invalid_argument);
}

}  // namespace
}  // namespace metaprep::core
