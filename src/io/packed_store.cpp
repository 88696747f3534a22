#include "io/packed_store.hpp"

#include "io/binary.hpp"
#include "kmer/codec.hpp"
#include "obs/mem.hpp"
#include "util/error.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

namespace metaprep::io {
namespace {

constexpr std::uint32_t kMagic = 0x5352504Du;  // 'MPRS' little-endian
constexpr std::uint32_t kVersion = 1;

// Fixed arena header.  header_checksum covers every preceding byte; the
// payload checksum covers every byte after the header.
struct ArenaHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t num_records;
  std::uint64_t num_chunks;
  std::uint64_t num_skips;
  std::uint64_t num_npos;
  std::uint64_t num_base_words;
  std::uint64_t total_bases;
  std::uint64_t payload_checksum;
  std::uint64_t header_checksum;
};
static_assert(sizeof(ArenaHeader) == 72, "arena header layout drifted");

constexpr std::uint64_t pad8(std::uint64_t bytes) noexcept {
  return (bytes + 7) & ~std::uint64_t{7};
}

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

/// Payload byte size implied by the header counts (sections are 8-byte
/// aligned, so u32 sections round up).
std::uint64_t payload_bytes(const ArenaHeader& h) noexcept {
  return (h.num_chunks + 1) * 8 + pad8(h.num_records * 4) * 2 +
         (h.num_records + 1) * 8 * 2 + pad8(h.num_skips * 4) +
         pad8(h.num_npos * 4) + h.num_base_words * 8;
}

void checked_fwrite(std::FILE* f, const void* data, std::size_t size,
                    const std::string& path) {
  if (size != 0 && std::fwrite(data, 1, size, f) != size) {
    const int err = errno;
    std::fclose(f);
    throw util::io_error("short write to packed read store", path,
                         util::Error::kNoOffset, err);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PackedStoreBuilder

PackedStoreBuilder::PackedStoreBuilder(std::uint32_t num_chunks,
                                       std::uint64_t expected_records,
                                       std::uint64_t expected_bases)
    : num_chunks_(num_chunks) {
  chunk_rec_start_.reserve(num_chunks + 1);
  if (expected_records != 0) {
    rec_read_id_.reserve(expected_records);
    rec_len_.reserve(expected_records);
    rec_word_off_.reserve(expected_records + 1);
    rec_npos_off_.reserve(expected_records + 1);
    // worst case one partial word per record, plus the full words
    base_words_.reserve(expected_bases / 32 + expected_records);
  }
  rec_word_off_.push_back(0);
  rec_npos_off_.push_back(0);
}

void PackedStoreBuilder::begin_chunk(std::uint32_t c) {
  if (c != next_chunk_ || c >= num_chunks_) {
    throw util::config_error("packed store chunks must be appended in order (got " +
                             std::to_string(c) + ", expected " +
                             std::to_string(next_chunk_) + " of " +
                             std::to_string(num_chunks_) + ")");
  }
  chunk_rec_start_.push_back(rec_read_id_.size());
  ++next_chunk_;
}

void PackedStoreBuilder::add_record(std::uint32_t read_id, std::string_view seq) {
  rec_read_id_.push_back(read_id);
  rec_len_.push_back(static_cast<std::uint32_t>(seq.size()));
  const std::uint64_t words = (seq.size() + 31) / 32;
  const std::size_t word_base = base_words_.size();
  base_words_.resize(word_base + words, 0);
  std::uint64_t* out = base_words_.data() + word_base;

  // One base at a time; invalid characters are recorded in npos_ and packed
  // as code 0.
  const auto scalar = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const std::uint8_t code = kmer::base_code(seq[i]);
      if (code == kmer::kInvalidBase) {
        npos_.push_back(static_cast<std::uint32_t>(i));
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

  rec_word_off_.push_back(rec_word_off_.back() + words);
  rec_npos_off_.push_back(npos_.size());
  total_bases_ += seq.size();
}

void PackedStoreBuilder::add_skip(std::uint32_t read_id) {
  skip_read_id_.push_back(read_id);
}

void PackedStoreBuilder::merge(PackedStoreBuilder&& shard) {
  if (next_chunk_ + shard.num_chunks_ > num_chunks_) {
    throw util::config_error(
        "packed store shard overruns the chunk table (" +
        std::to_string(next_chunk_) + " + " + std::to_string(shard.num_chunks_) +
        " > " + std::to_string(num_chunks_) + ")");
  }
  while (shard.next_chunk_ < shard.num_chunks_) shard.begin_chunk(shard.next_chunk_);

  const std::uint64_t rec_base = rec_read_id_.size();
  const std::uint64_t word_base = rec_word_off_.back();
  const std::uint64_t npos_base = rec_npos_off_.back();
  for (const std::uint64_t s : shard.chunk_rec_start_) {
    chunk_rec_start_.push_back(rec_base + s);
  }
  next_chunk_ += shard.num_chunks_;
  rec_read_id_.insert(rec_read_id_.end(), shard.rec_read_id_.begin(),
                      shard.rec_read_id_.end());
  rec_len_.insert(rec_len_.end(), shard.rec_len_.begin(), shard.rec_len_.end());
  // Skip each shard's leading sentinel 0; rebase the running offsets.
  for (std::size_t i = 1; i < shard.rec_word_off_.size(); ++i) {
    rec_word_off_.push_back(word_base + shard.rec_word_off_[i]);
  }
  for (std::size_t i = 1; i < shard.rec_npos_off_.size(); ++i) {
    rec_npos_off_.push_back(npos_base + shard.rec_npos_off_[i]);
  }
  skip_read_id_.insert(skip_read_id_.end(), shard.skip_read_id_.begin(),
                       shard.skip_read_id_.end());
  npos_.insert(npos_.end(), shard.npos_.begin(), shard.npos_.end());
  base_words_.insert(base_words_.end(), shard.base_words_.begin(),
                     shard.base_words_.end());
  total_bases_ += shard.total_bases_;
}

void PackedStoreBuilder::merge_all(std::vector<PackedStoreBuilder>&& shards,
                                   int threads) {
  std::uint64_t shard_chunks = 0;
  for (const PackedStoreBuilder& s : shards) shard_chunks += s.num_chunks_;
  if (next_chunk_ + shard_chunks > num_chunks_) {
    throw util::config_error(
        "packed store shards overrun the chunk table (" +
        std::to_string(next_chunk_) + " + " + std::to_string(shard_chunks) + " > " +
        std::to_string(num_chunks_) + ")");
  }
  for (PackedStoreBuilder& s : shards) {
    while (s.next_chunk_ < s.num_chunks_) s.begin_chunk(s.next_chunk_);
  }

  // Destination bases per shard: prefix sums over the current section sizes.
  struct Base {
    std::uint64_t chunk, rec, word, npos, skip;
  };
  const std::size_t n = shards.size();
  std::vector<Base> base(n + 1);
  base[0] = {chunk_rec_start_.size(), rec_read_id_.size(), base_words_.size(),
             npos_.size(), skip_read_id_.size()};
  for (std::size_t i = 0; i < n; ++i) {
    const PackedStoreBuilder& s = shards[i];
    base[i + 1] = {base[i].chunk + s.chunk_rec_start_.size(),
                   base[i].rec + s.rec_read_id_.size(),
                   base[i].word + s.base_words_.size(), base[i].npos + s.npos_.size(),
                   base[i].skip + s.skip_read_id_.size()};
  }
  chunk_rec_start_.resize(base[n].chunk);
  rec_read_id_.resize(base[n].rec);
  rec_len_.resize(base[n].rec);
  rec_word_off_.resize(base[n].rec + 1);
  rec_npos_off_.resize(base[n].rec + 1);
  base_words_.resize(base[n].word);
  npos_.resize(base[n].npos);
  skip_read_id_.resize(base[n].skip);

  const auto copy_shard = [&](std::size_t i) {
    const PackedStoreBuilder& s = shards[i];
    const Base& b = base[i];
    for (std::size_t j = 0; j < s.chunk_rec_start_.size(); ++j) {
      chunk_rec_start_[b.chunk + j] = b.rec + s.chunk_rec_start_[j];
    }
    std::copy(s.rec_read_id_.begin(), s.rec_read_id_.end(),
              rec_read_id_.begin() + static_cast<std::ptrdiff_t>(b.rec));
    std::copy(s.rec_len_.begin(), s.rec_len_.end(),
              rec_len_.begin() + static_cast<std::ptrdiff_t>(b.rec));
    // Shard offset arrays carry a leading sentinel 0; entry j belongs to
    // shard record j-1, i.e. global slot b.rec + j, rebased by the words /
    // npos accumulated before this shard.
    for (std::size_t j = 1; j < s.rec_word_off_.size(); ++j) {
      rec_word_off_[b.rec + j] = b.word + s.rec_word_off_[j];
    }
    for (std::size_t j = 1; j < s.rec_npos_off_.size(); ++j) {
      rec_npos_off_[b.rec + j] = b.npos + s.rec_npos_off_[j];
    }
    std::copy(s.base_words_.begin(), s.base_words_.end(),
              base_words_.begin() + static_cast<std::ptrdiff_t>(b.word));
    std::copy(s.npos_.begin(), s.npos_.end(),
              npos_.begin() + static_cast<std::ptrdiff_t>(b.npos));
    std::copy(s.skip_read_id_.begin(), s.skip_read_id_.end(),
              skip_read_id_.begin() + static_cast<std::ptrdiff_t>(b.skip));
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
  for (const PackedStoreBuilder& s : shards) total_bases_ += s.total_bases_;
}

PackedStoreStats PackedStoreBuilder::write(const std::string& path) {
  while (next_chunk_ < num_chunks_) begin_chunk(next_chunk_);  // trailing empties
  chunk_rec_start_.push_back(rec_read_id_.size());

  ArenaHeader h{};
  h.magic = kMagic;
  h.version = kVersion;
  h.num_records = rec_read_id_.size();
  h.num_chunks = num_chunks_;
  h.num_skips = skip_read_id_.size();
  h.num_npos = npos_.size();
  h.num_base_words = base_words_.size();
  h.total_bases = total_bases_;

  // Assemble the payload contiguously (every section 8-byte aligned, zero
  // padding after the u32 sections), then checksum it word-at-a-time and
  // write it with one fwrite — byte-wise checksums and per-section writes
  // showed up in the PackedIngest wall on the XL-mini bench.
  const std::uint64_t pbytes = payload_bytes(h);
  std::vector<std::uint64_t> payload(pbytes / 8, 0);
  auto* out = reinterpret_cast<unsigned char*>(payload.data());
  std::uint64_t off = 0;
  const auto emit = [&](const void* data, std::uint64_t bytes) {
    if (bytes != 0) std::memcpy(out + off, data, bytes);
    off += pad8(bytes);
  };
  emit(chunk_rec_start_.data(), chunk_rec_start_.size() * 8);
  emit(rec_read_id_.data(), rec_read_id_.size() * 4);
  emit(rec_len_.data(), rec_len_.size() * 4);
  emit(rec_word_off_.data(), rec_word_off_.size() * 8);
  emit(rec_npos_off_.data(), rec_npos_off_.size() * 8);
  emit(skip_read_id_.data(), skip_read_id_.size() * 4);
  emit(npos_.data(), npos_.size() * 4);
  emit(base_words_.data(), base_words_.size() * 8);
  h.payload_checksum = fnv1a_words(payload.data(), payload.size());
  h.header_checksum = fnv1a(&h, sizeof(h) - sizeof(h.header_checksum));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw util::io_error("cannot create packed read store", path,
                         util::Error::kNoOffset, errno);
  }
  checked_fwrite(f, &h, sizeof(h), path);
  checked_fwrite(f, payload.data(), pbytes, path);
  if (std::fclose(f) != 0) {
    throw util::io_error("close failed on packed read store", path,
                         util::Error::kNoOffset, errno);
  }

  return PackedStoreStats{h.num_records, h.num_skips, h.total_bases,
                          sizeof(ArenaHeader) + payload_bytes(h)};
}

// ---------------------------------------------------------------------------
// PackedStore

/// Section storage adopted from a builder by finish(): an in-memory arena
/// keeps the vectors instead of a serialized mapping.
struct PackedStore::OwnedSections {
  std::vector<std::uint64_t> chunk_rec_start;
  std::vector<std::uint32_t> rec_read_id;
  std::vector<std::uint32_t> rec_len;
  std::vector<std::uint64_t> rec_word_off;
  std::vector<std::uint64_t> rec_npos_off;
  std::vector<std::uint32_t> skip_read_id;
  std::vector<std::uint32_t> npos;
  std::vector<std::uint64_t> base_words;
};

PackedStore PackedStoreBuilder::finish(PackedStoreStats* stats) {
  while (next_chunk_ < num_chunks_) begin_chunk(next_chunk_);  // trailing empties
  chunk_rec_start_.push_back(rec_read_id_.size());

  ArenaHeader h{};
  h.num_records = rec_read_id_.size();
  h.num_chunks = num_chunks_;
  h.num_skips = skip_read_id_.size();
  h.num_npos = npos_.size();
  h.num_base_words = base_words_.size();
  const std::uint64_t arena_bytes = sizeof(ArenaHeader) + payload_bytes(h);
  if (stats != nullptr) {
    *stats = PackedStoreStats{h.num_records, h.num_skips, total_bases_, arena_bytes};
  }

  PackedStore ps;
  ps.owned_ = std::make_unique<PackedStore::OwnedSections>(PackedStore::OwnedSections{
      std::move(chunk_rec_start_), std::move(rec_read_id_), std::move(rec_len_),
      std::move(rec_word_off_), std::move(rec_npos_off_), std::move(skip_read_id_),
      std::move(npos_), std::move(base_words_)});
  ps.map_bytes_ = arena_bytes;
  ps.num_records_ = h.num_records;
  ps.num_chunks_ = num_chunks_;
  ps.num_skips_ = h.num_skips;
  ps.total_bases_ = total_bases_;
  ps.chunk_rec_start_ = ps.owned_->chunk_rec_start.data();
  ps.rec_read_id_ = ps.owned_->rec_read_id.data();
  ps.rec_len_ = ps.owned_->rec_len.data();
  ps.rec_word_off_ = ps.owned_->rec_word_off.data();
  ps.rec_npos_off_ = ps.owned_->rec_npos_off.data();
  ps.skip_read_id_ = ps.owned_->skip_read_id.data();
  ps.npos_ = ps.owned_->npos.data();
  ps.base_words_ = ps.owned_->base_words.data();
  obs::mem_charge("packed", arena_bytes);
  return ps;
}

PackedStore::PackedStore() = default;

PackedStore::PackedStore(PackedStore&& other) noexcept
    : path_(std::move(other.path_)),
      owned_(std::move(other.owned_)),
      map_(std::exchange(other.map_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      num_records_(other.num_records_),
      num_chunks_(other.num_chunks_),
      num_skips_(other.num_skips_),
      total_bases_(other.total_bases_),
      payload_checksum_(other.payload_checksum_),
      chunk_rec_start_(other.chunk_rec_start_),
      rec_read_id_(other.rec_read_id_),
      rec_len_(other.rec_len_),
      rec_word_off_(other.rec_word_off_),
      rec_npos_off_(other.rec_npos_off_),
      skip_read_id_(other.skip_read_id_),
      npos_(other.npos_),
      base_words_(other.base_words_) {}

PackedStore& PackedStore::operator=(PackedStore&& other) noexcept {
  if (this != &other) {
    reset();
    path_ = std::move(other.path_);
    owned_ = std::move(other.owned_);
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    num_records_ = other.num_records_;
    num_chunks_ = other.num_chunks_;
    num_skips_ = other.num_skips_;
    total_bases_ = other.total_bases_;
    payload_checksum_ = other.payload_checksum_;
    chunk_rec_start_ = other.chunk_rec_start_;
    rec_read_id_ = other.rec_read_id_;
    rec_len_ = other.rec_len_;
    rec_word_off_ = other.rec_word_off_;
    rec_npos_off_ = other.rec_npos_off_;
    skip_read_id_ = other.skip_read_id_;
    npos_ = other.npos_;
    base_words_ = other.base_words_;
  }
  return *this;
}

PackedStore::~PackedStore() { reset(); }

void PackedStore::reset() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    obs::mem_credit("packed", map_bytes_);
    map_ = nullptr;
  } else if (owned_ != nullptr) {
    obs::mem_credit("packed", map_bytes_);
  }
  owned_.reset();
  map_bytes_ = 0;
}

PackedStore PackedStore::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw util::io_error("cannot open packed read store", path,
                         util::Error::kNoOffset, errno);
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw util::io_error("cannot stat packed read store", path,
                         util::Error::kNoOffset, err);
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < sizeof(ArenaHeader)) {
    ::close(fd);
    throw util::io_error("packed read store truncated before header (" +
                             std::to_string(file_bytes) + " bytes)",
                         path, file_bytes);
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_errno = errno;
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    throw util::io_error("cannot mmap packed read store", path,
                         util::Error::kNoOffset, map_errno);
  }

  ArenaHeader h{};
  std::memcpy(&h, map, sizeof(h));
  const auto fail_parse = [&](const std::string& detail) {
    ::munmap(map, file_bytes);
    throw util::parse_error(detail, path, 0);
  };
  if (h.magic != kMagic) fail_parse("bad packed read store magic");
  if (h.version != kVersion) {
    fail_parse("packed read store version mismatch (file " +
               std::to_string(h.version) + ", expected " + std::to_string(kVersion) +
               ")");
  }
  if (h.header_checksum != fnv1a(&h, sizeof(h) - sizeof(h.header_checksum))) {
    fail_parse("packed read store header checksum mismatch");
  }
  const std::uint64_t want = sizeof(ArenaHeader) + payload_bytes(h);
  if (file_bytes != want) {
    ::munmap(map, file_bytes);
    throw util::io_error("packed read store truncated: " + std::to_string(file_bytes) +
                             " bytes, header implies " + std::to_string(want),
                         path, file_bytes);
  }

  PackedStore ps;
  ps.path_ = path;
  ps.map_ = map;
  ps.map_bytes_ = file_bytes;
  ps.num_records_ = h.num_records;
  ps.num_chunks_ = static_cast<std::uint32_t>(h.num_chunks);
  ps.num_skips_ = h.num_skips;
  ps.total_bases_ = h.total_bases;
  ps.payload_checksum_ = h.payload_checksum;
  const auto* base = static_cast<const unsigned char*>(map);
  std::uint64_t off = sizeof(ArenaHeader);
  const auto section = [&](std::uint64_t bytes) {
    const unsigned char* p = base + off;
    off += pad8(bytes);
    return p;
  };
  ps.chunk_rec_start_ =
      reinterpret_cast<const std::uint64_t*>(section((h.num_chunks + 1) * 8));
  ps.rec_read_id_ = reinterpret_cast<const std::uint32_t*>(section(h.num_records * 4));
  ps.rec_len_ = reinterpret_cast<const std::uint32_t*>(section(h.num_records * 4));
  ps.rec_word_off_ =
      reinterpret_cast<const std::uint64_t*>(section((h.num_records + 1) * 8));
  ps.rec_npos_off_ =
      reinterpret_cast<const std::uint64_t*>(section((h.num_records + 1) * 8));
  ps.skip_read_id_ = reinterpret_cast<const std::uint32_t*>(section(h.num_skips * 4));
  ps.npos_ = reinterpret_cast<const std::uint32_t*>(section(h.num_npos * 4));
  ps.base_words_ = reinterpret_cast<const std::uint64_t*>(section(h.num_base_words * 8));
  obs::mem_charge("packed", file_bytes);
  return ps;
}

void PackedStore::verify_payload() const {
  if (owned_ != nullptr) return;  // never serialized: nothing to audit
  // sizeof(ArenaHeader) is a multiple of 8, so the mapped payload is both
  // 8-byte aligned and a whole number of words.
  const auto* base = static_cast<const unsigned char*>(map_);
  const std::uint64_t sum =
      fnv1a_words(reinterpret_cast<const std::uint64_t*>(base + sizeof(ArenaHeader)),
                  (map_bytes_ - sizeof(ArenaHeader)) / 8);
  if (sum != payload_checksum_) {
    throw util::parse_error("packed read store payload checksum mismatch", path_,
                            sizeof(ArenaHeader));
  }
}

}  // namespace metaprep::io
