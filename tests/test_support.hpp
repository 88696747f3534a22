// Shared helpers for the METAPREP test suite.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "io/fastq.hpp"

namespace metaprep::test {

/// RAII temporary directory under the system temp root.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "metaprep_test") {
    const auto base = std::filesystem::temp_directory_path();
    for (int attempt = 0;; ++attempt) {
      path_ = base / (prefix + "_" + std::to_string(::getpid()) + "_" +
                      std::to_string(counter_++) + "_" + std::to_string(attempt));
      std::error_code ec;
      if (std::filesystem::create_directory(path_, ec)) break;
      if (attempt > 100) throw std::runtime_error("TempDir: cannot create");
    }
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
  static inline int counter_ = 0;
};

/// Write reads as a FASTQ file with constant qualities; returns the path.
inline std::string write_fastq(const std::string& path, const std::vector<std::string>& reads,
                               const std::string& id_prefix = "r") {
  io::FastqWriter w(path);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    w.write(id_prefix + std::to_string(i), reads[i], std::string(reads[i].size(), 'I'));
  }
  return path;
}

/// Corrupt record @p idx of the FASTQ at @p path in place (same byte
/// length): clobber its '+' separator so strict parsing fails and lenient
/// parsing resyncs.  Returns the byte offset of the record's header line,
/// where a strict parse reports the error.
inline std::uint64_t corrupt_record_separator(const std::string& path, std::size_t idx) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::vector<std::size_t> line_start{0};  // record idx is lines 4*idx .. 4*idx+3
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == '\n') line_start.push_back(i + 1);
  }
  const std::size_t plus = 4 * idx + 2;
  if (plus >= line_start.size() || bytes[line_start[plus]] != '+') {
    throw std::runtime_error("corrupt_record_separator: no record " + std::to_string(idx));
  }
  bytes[line_start[plus]] = 'J';
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return line_start[4 * idx];
}

/// Normalize component labels so two labelings can be compared as
/// partitions: each element's label becomes the smallest element index in
/// its component.
inline std::vector<std::uint32_t> normalize_partition(const std::vector<std::uint32_t>& labels) {
  std::map<std::uint32_t, std::uint32_t> representative;
  for (std::uint32_t i = 0; i < labels.size(); ++i) {
    auto [it, inserted] = representative.try_emplace(labels[i], i);
    (void)it;
    (void)inserted;
  }
  std::vector<std::uint32_t> out(labels.size());
  for (std::uint32_t i = 0; i < labels.size(); ++i) out[i] = representative[labels[i]];
  return out;
}

/// All reads of a FASTQ file, in order.
inline std::vector<io::FastqRecord> read_all_fastq(const std::string& path) {
  std::vector<io::FastqRecord> out;
  io::FastqReader reader(path);
  io::FastqRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

}  // namespace metaprep::test
