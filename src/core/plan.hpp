// Pass / rank / thread partitioning of the k-mer range, and chunk
// assignment (paper §3.1: "The histogram is used to partition the range of
// integers spanned by k-mer values for multipass and parallel execution").
//
// The 4^m merHist bins are split hierarchically by weight (bin count):
// pass s gets a contiguous bin range, within it each rank a contiguous
// sub-range, within that each thread a sub-sub-range.  All partition
// boundaries land on bin edges, so every occurrence of a canonical k-mer —
// whose bin is its m-mer prefix — lands in exactly one (pass, rank, thread)
// cell; that is what makes per-pass/per-rank frequencies global and every
// buffer size precomputable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/indices.hpp"
#include "core/memory_model.hpp"

namespace metaprep::core {

struct BinRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;  ///< exclusive
  [[nodiscard]] bool contains(std::uint32_t bin) const noexcept {
    return bin >= begin && bin < end;
  }
};

/// Split bins [begin, end) into @p parts contiguous ranges of approximately
/// equal total weight.  Returns parts+1 boundaries.
std::vector<std::uint32_t> split_bins_weighted(std::span<const std::uint32_t> weights,
                                               std::uint32_t begin, std::uint32_t end,
                                               int parts);

/// Complete hierarchical partitioning for S passes, P ranks, T threads.
class PassPlan {
 public:
  PassPlan(const MerHist& hist, int num_passes, int num_ranks, int threads_per_rank);

  [[nodiscard]] int passes() const noexcept { return S_; }
  [[nodiscard]] int ranks() const noexcept { return P_; }
  [[nodiscard]] int threads() const noexcept { return T_; }

  [[nodiscard]] BinRange pass_range(int s) const;
  [[nodiscard]] BinRange rank_range(int s, int p) const;
  [[nodiscard]] BinRange thread_range(int s, int p, int t) const;

  /// Rank owning @p bin within pass s (bins outside the pass range have no
  /// owner; caller guarantees containment).
  [[nodiscard]] int owner_rank(int s, std::uint32_t bin) const;

  /// Raw boundary vectors (P+1 / T+1 entries) for single-scan range counts.
  [[nodiscard]] const std::vector<std::uint32_t>& rank_bounds(int s) const {
    return rank_bounds_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& thread_bounds(int s, int p) const {
    return thread_bounds_[static_cast<std::size_t>(s) * static_cast<std::size_t>(P_) +
                          static_cast<std::size_t>(p)];
  }

  /// Tuple count in bins [r.begin, r.end) according to the global histogram.
  [[nodiscard]] std::uint64_t range_tuples(const MerHist& hist, BinRange r) const;

 private:
  int S_, P_, T_;
  std::vector<std::uint32_t> pass_bounds_;              // S+1
  std::vector<std::vector<std::uint32_t>> rank_bounds_; // per pass: P+1
  std::vector<std::vector<std::uint32_t>> thread_bounds_;  // per (pass, rank): T+1
};

/// Contiguous assignment of the C chunks to P*T workers; worker (p, t) gets
/// chunks [chunk_begin(p,t), chunk_end(p,t)).
class ChunkAssignment {
 public:
  ChunkAssignment(std::uint32_t num_chunks, int num_ranks, int threads_per_rank);

  [[nodiscard]] std::uint32_t rank_begin(int p) const;
  [[nodiscard]] std::uint32_t rank_end(int p) const;
  [[nodiscard]] std::uint32_t thread_begin(int p, int t) const;
  [[nodiscard]] std::uint32_t thread_end(int p, int t) const;

 private:
  std::vector<std::uint32_t> rank_bounds_;                  // P+1
  std::vector<std::vector<std::uint32_t>> thread_bounds_;   // per rank: T+1
};

/// What a run of a config on an index will be, fixed before it starts.
struct RunPlan {
  int num_passes = 0;       ///< S; derived from the budget when config.num_passes == 0
  MemoryModelInput memory;  ///< the §3.7 model input at P, T and S
  [[nodiscard]] std::uint64_t predicted_bytes() const { return estimate_memory(memory).total; }
};

/// Validate @p config against @p index — k, P and T >= 1, P*T within the
/// 16-bit slot table, output bins, minimizer length, S >= 0 — and derive S
/// from the per-task budget when num_passes is 0.  Throws config_error.
/// run_metaprep and daemon admission both plan through here.
[[nodiscard]] RunPlan plan_run(const MetaprepConfig& config, const DatasetIndex& index);

}  // namespace metaprep::core
