#include "io/packed_store.hpp"

#include "kmer/codec.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

namespace metaprep::io {
namespace {

// --- SWAR base packing -----------------------------------------------------
// Eight bases per step instead of one table lookup per base: the ingest pack
// loop is the hot half of PackedIngest, and the bench guard holds packed
// ingest+scan to a win over the per-pass text parse it replaces.

constexpr std::uint64_t kSwarOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kSwarHigh = 0x8080808080808080ULL;

/// Per-byte equality: MSB of each byte set iff that byte of @p v equals @p c.
constexpr std::uint64_t eq8(std::uint64_t v, char c) noexcept {
  const std::uint64_t x = v ^ (static_cast<std::uint8_t>(c) * kSwarOnes);
  return (x - kSwarOnes) & ~x & kSwarHigh;
}

/// Packs 8 ACGT/acgt bytes (little-endian in @p chars) into 16 bits of 2-bit
/// codes matching kmer::base_code (A=0 C=1 G=2 T=3).  Caller must have
/// verified all 8 bytes are valid bases.
constexpr std::uint64_t pack8_codes(std::uint64_t chars) noexcept {
  // ASCII bit trick: (c >> 1) & 3 gives A=0 C=1 G=3 T=2 for either case;
  // bit0 ^= bit1 swaps G/T into the codec order.
  std::uint64_t x = (chars >> 1) & 0x0303030303030303ULL;
  x ^= (x >> 1) & kSwarOnes;
  // Fold the per-byte 2-bit fields down to one contiguous 16-bit group.
  x = (x | (x >> 6)) & 0x000F000F000F000FULL;
  x = (x | (x >> 12)) & 0x000000FF000000FFULL;
  return (x | (x >> 24)) & 0xFFFFULL;
}

/// Bytes held by @p v's elements.
template <typename T>
std::uint64_t bytes_of(const std::vector<T>& v) noexcept {
  return v.size() * sizeof(T);
}

}  // namespace

// ---------------------------------------------------------------------------
// PackedStoreBuilder

PackedStoreBuilder::PackedStoreBuilder(std::uint32_t num_chunks,
                                       std::uint64_t expected_records,
                                       std::uint64_t expected_bases)
    : num_chunks_(num_chunks) {
  s_.chunk_rec_start.reserve(num_chunks + 1);
  if (expected_records != 0) {
    s_.rec_read_id.reserve(expected_records);
    s_.rec_len.reserve(expected_records);
    s_.rec_word_off.reserve(expected_records + 1);
    s_.rec_npos_off.reserve(expected_records + 1);
    // worst case one partial word per record, plus the full words
    s_.base_words.reserve(expected_bases / 32 + expected_records);
  }
  s_.rec_word_off.push_back(0);
  s_.rec_npos_off.push_back(0);
}

void PackedStoreBuilder::begin_chunk(std::uint32_t c) {
  if (c != next_chunk_ || c >= num_chunks_) {
    throw util::config_error("packed store chunks must be appended in order (got " +
                             std::to_string(c) + ", expected " +
                             std::to_string(next_chunk_) + " of " +
                             std::to_string(num_chunks_) + ")");
  }
  s_.chunk_rec_start.push_back(s_.rec_read_id.size());
  ++next_chunk_;
}

void PackedStoreBuilder::add_record(std::uint32_t read_id, std::string_view seq) {
  s_.rec_read_id.push_back(read_id);
  s_.rec_len.push_back(static_cast<std::uint32_t>(seq.size()));
  const std::uint64_t words = (seq.size() + 31) / 32;
  const std::size_t word_base = s_.base_words.size();
  s_.base_words.resize(word_base + words, 0);
  std::uint64_t* out = s_.base_words.data() + word_base;

  // One base at a time; invalid characters are recorded in npos and packed as
  // code 0.
  const auto scalar = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const std::uint8_t code = kmer::base_code(seq[i]);
      if (code == kmer::kInvalidBase) {
        s_.npos.push_back(static_cast<std::uint32_t>(i));
      } else {
        out[i >> 5] |= static_cast<std::uint64_t>(code) << (2 * (i & 31));
      }
    }
  };

  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // SWAR fast path: pack 8 bases per step.  i stays a multiple of 8, so
    // the 16 emitted bits never straddle a 64-bit word.  Blocks holding any
    // non-ACGT byte fall back to the scalar loop (which records npos).
    for (; i + 8 <= seq.size(); i += 8) {
      std::uint64_t chars;
      std::memcpy(&chars, seq.data() + i, 8);
      const std::uint64_t folded = chars | 0x2020202020202020ULL;  // to lowercase
      const std::uint64_t valid =
          eq8(folded, 'a') | eq8(folded, 'c') | eq8(folded, 'g') | eq8(folded, 't');
      if (valid != kSwarHigh) {
        scalar(i, i + 8);
        continue;
      }
      out[i >> 5] |= pack8_codes(chars) << (2 * (i & 31));
    }
  }
  scalar(i, seq.size());

  s_.rec_word_off.push_back(s_.rec_word_off.back() + words);
  s_.rec_npos_off.push_back(s_.npos.size());
  total_bases_ += seq.size();
}

void PackedStoreBuilder::add_skip(std::uint32_t read_id) {
  s_.skip_read_id.push_back(read_id);
}

void PackedStoreBuilder::merge_all(std::vector<PackedStoreBuilder>&& shards,
                                   int threads) {
  std::uint64_t shard_chunks = 0;
  for (const PackedStoreBuilder& sh : shards) shard_chunks += sh.num_chunks_;
  if (next_chunk_ + shard_chunks > num_chunks_) {
    throw util::config_error(
        "packed store shards overrun the chunk table (" +
        std::to_string(next_chunk_) + " + " + std::to_string(shard_chunks) + " > " +
        std::to_string(num_chunks_) + ")");
  }
  for (PackedStoreBuilder& sh : shards) {
    while (sh.next_chunk_ < sh.num_chunks_) sh.begin_chunk(sh.next_chunk_);
  }

  // Destination bases per shard: prefix sums over the current section sizes.
  struct Base {
    std::uint64_t chunk, rec, word, npos, skip;
  };
  const std::size_t n = shards.size();
  std::vector<Base> base(n + 1);
  base[0] = {s_.chunk_rec_start.size(), s_.rec_read_id.size(), s_.base_words.size(),
             s_.npos.size(), s_.skip_read_id.size()};
  for (std::size_t i = 0; i < n; ++i) {
    const PackedSections& src = shards[i].s_;
    base[i + 1] = {base[i].chunk + src.chunk_rec_start.size(),
                   base[i].rec + src.rec_read_id.size(),
                   base[i].word + src.base_words.size(), base[i].npos + src.npos.size(),
                   base[i].skip + src.skip_read_id.size()};
  }
  s_.chunk_rec_start.resize(base[n].chunk);
  s_.rec_read_id.resize(base[n].rec);
  s_.rec_len.resize(base[n].rec);
  s_.rec_word_off.resize(base[n].rec + 1);
  s_.rec_npos_off.resize(base[n].rec + 1);
  s_.base_words.resize(base[n].word);
  s_.npos.resize(base[n].npos);
  s_.skip_read_id.resize(base[n].skip);

  const auto copy_shard = [&](std::size_t i) {
    const PackedSections& src = shards[i].s_;
    const Base& b = base[i];
    const auto at = [](auto& v, std::uint64_t off) {
      return v.begin() + static_cast<std::ptrdiff_t>(off);
    };
    for (std::size_t j = 0; j < src.chunk_rec_start.size(); ++j) {
      s_.chunk_rec_start[b.chunk + j] = b.rec + src.chunk_rec_start[j];
    }
    std::copy(src.rec_read_id.begin(), src.rec_read_id.end(), at(s_.rec_read_id, b.rec));
    std::copy(src.rec_len.begin(), src.rec_len.end(), at(s_.rec_len, b.rec));
    // Shard offset arrays carry a leading sentinel 0; entry j belongs to
    // shard record j-1, i.e. global slot b.rec + j, rebased by the words /
    // npos accumulated before this shard.
    for (std::size_t j = 1; j < src.rec_word_off.size(); ++j) {
      s_.rec_word_off[b.rec + j] = b.word + src.rec_word_off[j];
    }
    for (std::size_t j = 1; j < src.rec_npos_off.size(); ++j) {
      s_.rec_npos_off[b.rec + j] = b.npos + src.rec_npos_off[j];
    }
    std::copy(src.base_words.begin(), src.base_words.end(), at(s_.base_words, b.word));
    std::copy(src.npos.begin(), src.npos.end(), at(s_.npos, b.npos));
    std::copy(src.skip_read_id.begin(), src.skip_read_id.end(), at(s_.skip_read_id, b.skip));
  };
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) copy_shard(i);
  } else {
    std::vector<std::thread> workers;
    const std::size_t w =
        std::min<std::size_t>(static_cast<std::size_t>(threads), n);
    workers.reserve(w);
    std::atomic<std::size_t> next{0};
    for (std::size_t t = 0; t < w; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          copy_shard(i);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  next_chunk_ += static_cast<std::uint32_t>(shard_chunks);
  for (const PackedStoreBuilder& sh : shards) total_bases_ += sh.total_bases_;
}

PackedStore PackedStoreBuilder::finish(PackedStoreStats* stats) {
  while (next_chunk_ < num_chunks_) begin_chunk(next_chunk_);  // trailing empties
  s_.chunk_rec_start.push_back(s_.rec_read_id.size());
  const std::uint64_t bytes =
      bytes_of(s_.chunk_rec_start) + bytes_of(s_.rec_read_id) + bytes_of(s_.rec_len) +
      bytes_of(s_.rec_word_off) + bytes_of(s_.rec_npos_off) + bytes_of(s_.skip_read_id) +
      bytes_of(s_.npos) + bytes_of(s_.base_words);
  if (stats != nullptr) {
    *stats = PackedStoreStats{s_.rec_read_id.size(), s_.skip_read_id.size(), total_bases_,
                              bytes};
  }
  PackedStore ps;
  ps.arena_ = std::make_unique<const PackedStore::Arena>(std::move(s_), total_bases_, bytes);
  return ps;
}

}  // namespace metaprep::io
