// Versioned binary (de)serialization for the index files.
//
// IndexCreate writes the merHist and FASTQPart tables "to disk in binary
// format" for reuse across runs and platforms (paper §3.1).  These helpers
// give every table a magic + version header and length-prefixed fields so a
// stale or truncated index fails loudly instead of corrupting a run.
// Values are little-endian (asserted at build time; the reproduction targets
// x86-64/AArch64 Linux).
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

static_assert(std::endian::native == std::endian::little,
              "metaprep binary indices assume a little-endian host");

namespace metaprep::io {

class BinaryWriter {
 public:
  /// Opens @p path and writes the header.  Throws on failure.
  BinaryWriter(const std::string& path, std::uint32_t magic, std::uint32_t version);
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;
  ~BinaryWriter();

  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_string(const std::string& s);
  void write_bytes(const void* data, std::size_t size);

  template <typename T>
  void write_vector(std::span<const T> v) {
    write_u64(v.size());
    write_bytes(v.data(), v.size_bytes());
  }

  /// Flush and close; throws util::Error (category io) if the flush fails.
  /// The destructor closes too but only logs failures; callers that must
  /// not lose an index should close() explicitly.
  void close();

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

class BinaryReader {
 public:
  /// Opens @p path and validates magic + version.  Throws on mismatch.
  BinaryReader(const std::string& path, std::uint32_t magic, std::uint32_t version);
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;
  ~BinaryReader();

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::string read_string();
  /// Throws a parse Error when the file ends before @p size bytes.
  void read_bytes(void* data, std::size_t size);

  /// Read a u64 element count whose elements occupy at least @p min_bytes_each
  /// bytes apiece in the rest of the file.  A count the remaining bytes
  /// cannot hold throws a parse Error before the caller allocates for it.
  std::uint64_t read_count(std::size_t min_bytes_each);

  template <typename T>
  std::vector<T> read_vector() {
    const std::uint64_t n = read_count(sizeof(T));
    std::vector<T> v(n);
    read_bytes(v.data(), n * sizeof(T));
    return v;
  }

 private:
  [[nodiscard]] std::uint64_t remaining() const noexcept { return size_ - pos_; }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t size_ = 0;  ///< file size at open
  std::uint64_t pos_ = 0;   ///< bytes consumed so far
};

}  // namespace metaprep::io
