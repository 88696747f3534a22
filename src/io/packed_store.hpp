// Packed read arena: the 2-bit read store behind --read-store=packed.
//
// Every pass of the pipeline used to re-read and re-parse FASTQ text per
// chunk.  The packed store moves all parsing to a single ingest pass: bases
// are packed 2 bits each (A=0 C=1 G=2 T=3) into 64-bit words, ambiguous
// bases (N and the other IUPAC codes) are recorded as a sparse per-record
// position list, and per-record offsets plus the chunk-table record ranges
// sit alongside so KmerGen can scan any chunk of any pass straight out of
// the arena — word-at-a-time, no text in sight (mhm2's packed_reads idiom).
// The arena lives in memory for one run; nothing is written to disk.
//
// Sections (see DESIGN.md "Packed read store"):
//
//   chunk_rec_start (num_chunks+1)  u64  record-index range per chunk
//   rec_read_id     num_records     u32  global read ID per record
//   rec_len         num_records     u32  bases per record
//   rec_word_off    (num_records+1) u64  word offset into base_words
//   rec_npos_off    (num_records+1) u64  offset into npos
//   skip_read_id    num_skips       u32  lenient-parse skipped read IDs
//   npos            num_npos        u32  per-record ambiguous-base positions
//   base_words      num_base_words  u64  2-bit bases, LSB-first per word
//
// Each record's bases start on a word boundary (<= 31 wasted base slots per
// record) so extraction never straddles words: base i of a record lives in
// bits [2*(i%32), 2*(i%32)+1] of word words[i/32].
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/mem.hpp"

namespace metaprep::io {

class PackedStore;

/// Counts reported by a finished ingest (PackedStoreBuilder::finish).
struct PackedStoreStats {
  std::uint64_t records = 0;     ///< records packed into the arena
  std::uint64_t skipped = 0;     ///< lenient-parse records skipped at ingest
  std::uint64_t bases = 0;       ///< total bases packed
  std::uint64_t file_bytes = 0;  ///< bytes the arena's sections occupy
};

/// The arena's sections, laid out as in the table above: filled by the
/// builder, adopted unchanged by the store.
struct PackedSections {
  std::vector<std::uint64_t> chunk_rec_start;
  std::vector<std::uint32_t> rec_read_id;
  std::vector<std::uint32_t> rec_len;
  std::vector<std::uint64_t> rec_word_off;
  std::vector<std::uint64_t> rec_npos_off;
  std::vector<std::uint32_t> skip_read_id;
  std::vector<std::uint32_t> npos;
  std::vector<std::uint64_t> base_words;
};

/// Accumulates records chunk by chunk, then hands the sections to a
/// PackedStore.  Chunks must be appended in chunk-table order; records
/// within a chunk in read order.  Skips (lenient parse) are recorded by
/// read ID so packed and text pipelines agree on which records exist.
class PackedStoreBuilder {
 public:
  /// @p expected_records / @p expected_bases are capacity hints (0 = none);
  /// exact values are not required, they only avoid reallocation copies.
  explicit PackedStoreBuilder(std::uint32_t num_chunks,
                              std::uint64_t expected_records = 0,
                              std::uint64_t expected_bases = 0);

  /// Start chunk @p c (0-based; must be called in increasing order for
  /// every chunk, even empty ones).
  void begin_chunk(std::uint32_t c);

  /// Append one read.  Bases outside ACGT (any case) are packed as code 0
  /// and their positions recorded in the N-position list.
  void add_record(std::uint32_t read_id, std::string_view seq);

  /// Record a lenient-parse skip: @p read_id exists in the chunk table but
  /// produced no record.
  void add_skip(std::uint32_t read_id);

  /// Append every shard in order, each built over the next shard.num_chunks
  /// chunks (parallel ingest: each worker packs a contiguous chunk range
  /// into its own builder).  The result is identical to a serial build.
  /// The sections are sized up front and the copies fan out over up to
  /// @p threads workers (the serial copy plus its first-touch page faults
  /// is what makes a serial merge the ingest bottleneck).  Throws
  /// util::Error (category config) when the shards overrun this builder's
  /// chunk table.
  void merge_all(std::vector<PackedStoreBuilder>&& shards, int threads);

  /// Pad any trailing empty chunks and move the sections into a PackedStore.
  /// The builder is consumed.
  PackedStore finish(PackedStoreStats* stats = nullptr);

 private:
  std::uint32_t num_chunks_;
  std::uint32_t next_chunk_ = 0;
  PackedSections s_;
  std::uint64_t total_bases_ = 0;
};

/// Read-only view of a finished arena.  Move-only; records point into the
/// arena's sections, which live as long as the store.  A default-constructed
/// store holds no arena and converts to false.
class PackedStore {
 public:
  /// One record's view into the arena.
  struct Record {
    const std::uint64_t* words;  ///< 2-bit bases, LSB-first within each word
    const std::uint32_t* npos;   ///< sorted ambiguous-base positions
    std::uint32_t ncount;        ///< entries in npos
    std::uint32_t len;           ///< bases in the record
    std::uint32_t read_id;       ///< global read ID assigned at indexing
  };

  [[nodiscard]] explicit operator bool() const noexcept { return arena_ != nullptr; }
  [[nodiscard]] std::uint64_t num_records() const noexcept {
    return arena_ ? arena_->s.rec_read_id.size() : 0;
  }
  [[nodiscard]] std::uint32_t num_chunks() const noexcept {
    return arena_ ? static_cast<std::uint32_t>(arena_->s.chunk_rec_start.size() - 1) : 0;
  }
  /// Bytes the arena's sections occupy (what the `packed` subsystem is
  /// charged).
  [[nodiscard]] std::uint64_t bytes() const noexcept { return arena_ ? arena_->bytes : 0; }
  [[nodiscard]] std::uint64_t total_bases() const noexcept {
    return arena_ ? arena_->total_bases : 0;
  }

  /// Record-index range [chunk_begin(c), chunk_end(c)) of chunk @p c.
  [[nodiscard]] std::uint64_t chunk_begin(std::uint32_t c) const noexcept {
    return arena_->s.chunk_rec_start[c];
  }
  [[nodiscard]] std::uint64_t chunk_end(std::uint32_t c) const noexcept {
    return arena_->s.chunk_rec_start[c + 1];
  }

  /// Record @p r (0 <= r < num_records()); O(1) pointer math into the arena.
  [[nodiscard]] Record record(std::uint64_t r) const noexcept {
    const PackedSections& s = arena_->s;
    return Record{s.base_words.data() + s.rec_word_off[r], s.npos.data() + s.rec_npos_off[r],
                  static_cast<std::uint32_t>(s.rec_npos_off[r + 1] - s.rec_npos_off[r]),
                  s.rec_len[r], s.rec_read_id[r]};
  }

  /// Read IDs skipped by lenient parsing at ingest, in discovery order.
  [[nodiscard]] std::span<const std::uint32_t> skipped_read_ids() const noexcept {
    if (!arena_) return {};
    return arena_->s.skip_read_id;
  }

 private:
  friend class PackedStoreBuilder;  // finish() adopts the sections

  /// The adopted sections and their `packed` memory charge, credited when
  /// the arena is freed.
  struct Arena {
    Arena(PackedSections sections, std::uint64_t bases, std::uint64_t arena_bytes)
        : s(std::move(sections)),
          total_bases(bases),
          bytes(arena_bytes),
          charge("packed", arena_bytes) {}

    PackedSections s;
    std::uint64_t total_bases;
    std::uint64_t bytes;
    obs::MemCharge charge;
  };

  std::unique_ptr<const Arena> arena_;
};

}  // namespace metaprep::io
