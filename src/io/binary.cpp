#include "io/binary.hpp"

#include <sys/stat.h>

#include <cerrno>

#include "util/error.hpp"
#include "util/log.hpp"

namespace metaprep::io {

BinaryWriter::BinaryWriter(const std::string& path, std::uint32_t magic, std::uint32_t version)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr)
    throw util::io_error("binary index: cannot open for writing", path_, 0, errno);
  write_u32(magic);
  write_u32(version);
}

BinaryWriter::~BinaryWriter() {
  try {
    close();
  } catch (const std::exception& e) {
    LOG_ERROR("binary index: " << e.what());
  }
}

void BinaryWriter::close() {
  if (file_ == nullptr) return;
  std::FILE* f = file_;
  file_ = nullptr;  // the handle is gone even if the flush fails
  const bool trailer_ok = std::fwrite(&hash_, 1, sizeof(hash_), f) == sizeof(hash_);
  if (std::fclose(f) != 0 || !trailer_ok) {
    const int err = errno;
    throw util::io_error("binary index: close failed, buffered data may be lost", path_,
                         util::Error::kNoOffset, err);
  }
}

void BinaryWriter::write_bytes(const void* data, std::size_t size) {
  if (file_ == nullptr) throw util::io_error("binary index: write after close", path_);
  if (std::fwrite(data, 1, size, file_) != size) {
    const int err = errno;
    throw util::io_error("binary index: short write", path_, util::Error::kNoOffset, err);
  }
  hash_ = fnv1a(data, size, hash_);
}

void BinaryWriter::write_u32(std::uint32_t v) { write_bytes(&v, sizeof(v)); }
void BinaryWriter::write_u64(std::uint64_t v) { write_bytes(&v, sizeof(v)); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_bytes(s.data(), s.size());
}

BinaryReader::BinaryReader(const std::string& path, std::uint32_t magic, std::uint32_t version)
    : path_(path) {
  // Every length read from the file is checked against its size, which only
  // a regular file reports; a FIFO or device (st_size 0) is refused up front,
  // before fopen could block on a FIFO with no writer.
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0)
    throw util::io_error("binary index: cannot open for reading", path_, 0, errno);
  if (!S_ISREG(st.st_mode))
    throw util::io_error("binary index: must be a regular file", path_, 0);
  const auto size = static_cast<std::uint64_t>(st.st_size);
  end_ = size < sizeof(hash_) ? 0 : size - sizeof(hash_);
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr)
    throw util::io_error("binary index: cannot open for reading", path_, 0, errno);
  try {  // the destructor does not run when the constructor throws
    if (read_u32() != magic)
      throw util::parse_error("binary index: bad magic (not a metaprep index?)", path_, 0);
    const std::uint32_t got = read_u32();
    if (got != version)
      throw util::parse_error("binary index: version mismatch (file v" + std::to_string(got) +
                                  ", expected v" + std::to_string(version) + ")",
                              path_, sizeof(std::uint32_t));
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryReader::read_bytes(void* data, std::size_t size) {
  if (size > remaining())
    throw util::parse_error("binary index: truncated file", path_, pos_);
  if (std::fread(data, 1, size, file_) != size) {
    const int err = std::ferror(file_) != 0 ? errno : 0;
    throw util::io_error("binary index: short read", path_, pos_, err);
  }
  pos_ += size;
  hash_ = fnv1a(data, size, hash_);
}

void BinaryReader::finish() {
  if (pos_ != end_)
    throw util::parse_error("binary index: " + std::to_string(end_ - pos_) +
                                " trailing bytes after the last field",
                            path_, pos_);
  std::uint64_t stored = 0;
  if (std::fread(&stored, 1, sizeof(stored), file_) != sizeof(stored))
    throw util::parse_error("binary index: missing checksum", path_, pos_);
  if (stored != hash_) throw util::parse_error("binary index: checksum mismatch", path_, pos_);
}

std::uint64_t BinaryReader::read_count(std::size_t min_bytes_each) {
  const std::uint64_t at = pos_;
  const std::uint64_t n = read_u64();
  if (min_bytes_each != 0 && n > remaining() / min_bytes_each)
    throw util::parse_error("binary index: length " + std::to_string(n) +
                                " exceeds the bytes left in the file",
                            path_, at);
  return n;
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v;
  read_bytes(&v, sizeof(v));
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v;
  read_bytes(&v, sizeof(v));
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_count(1);
  std::string s(n, '\0');
  read_bytes(s.data(), n);
  return s;
}

}  // namespace metaprep::io
