#include "kmer/superkmer.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace metaprep::kmer {

namespace {

std::uint64_t read_le(const std::byte* p, int nbytes) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < nbytes; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

SuperKmerStreamStats count_superkmer_stream(const std::byte* data, std::size_t size, int k) {
  SuperKmerStreamStats stats;
  std::size_t off = 0;
  while (off < size) {
    if (size - off < kSuperKmerHeaderBytes) {
      throw util::parse_error("comm-compress: truncated super-k-mer record header");
    }
    const auto n = static_cast<std::uint32_t>(read_le(data + off + 4, 2));
    if (n == 0) throw util::parse_error("comm-compress: empty super-k-mer record");
    const std::size_t rec = superkmer_record_bytes(k, n);
    if (size - off < rec) {
      throw util::parse_error("comm-compress: truncated super-k-mer record bases");
    }
    ++stats.records;
    stats.kmers += n;
    off += rec;
  }
  return stats;
}

void SuperKmerReader::next_header() {
  if (end_ - p_ < static_cast<std::ptrdiff_t>(kSuperKmerHeaderBytes)) {
    throw util::parse_error("comm-compress: truncated super-k-mer record header");
  }
  value_ = static_cast<std::uint32_t>(read_le(p_, 4));
  n_ = static_cast<std::uint32_t>(read_le(p_ + 4, 2));
  if (n_ == 0) throw util::parse_error("comm-compress: empty super-k-mer record");
  nbases_ = n_ + static_cast<std::uint32_t>(k_) - 1;
  const std::size_t rec = superkmer_record_bytes(k_, n_);
  if (static_cast<std::size_t>(end_ - p_) < rec) {
    throw util::parse_error("comm-compress: truncated super-k-mer record bases");
  }
  bases_ = p_ + kSuperKmerHeaderBytes;
  p_ += rec;
}

void SuperKmerReader::rebuild_words() {
  // One little-endian 8-byte load per word; the last word takes only the
  // record's remaining bytes, so the load never crosses into the next record.
  const std::size_t nbytes = (static_cast<std::size_t>(nbases_) + 3) / 4;
  words_.resize((nbytes + 7) / 8);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t v = 0;
    std::memcpy(&v, bases_ + 8 * w, std::min<std::size_t>(8, nbytes - 8 * w));
    words_[w] = v;
  }
}

}  // namespace metaprep::kmer
