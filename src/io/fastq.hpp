// FASTQ reading, writing, and in-buffer parsing.
//
// METAPREP's KmerGen step reads *logical chunks* (byte ranges aligned to
// record boundaries) of FASTQ files into per-thread buffers and parses
// records out of the buffer (paper §3.1.2, §3.2).  We support the standard
// 4-line record form (@id / sequence / + / quality), which is what both the
// paper's Illumina datasets and our simulator produce.  CRLF line endings
// are accepted (the '\r' is stripped, never fed to k-mer enumeration), and
// offsets are 64-bit throughout so >2 GiB files work.
//
// Failure handling comes in two modes (ParseMode):
//  - strict (default): malformed input throws util::Error with category
//    parse, naming the file and byte offset of the bad record;
//  - lenient: the parser resynchronizes on the next plausible '@' header,
//    counts the event in the io.records_skipped metric, and continues —
//    the graceful-degradation behaviour a preprocessing service needs on
//    dirty real-world read sets.
// Transient read failures (EINTR, faults injected by util::FaultPlan) are
// retried with backoff and counted in io.retries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace metaprep::io {

struct FastqRecord {
  std::string id;    ///< header without the leading '@'
  std::string seq;   ///< base sequence (ACGTN)
  std::string qual;  ///< per-base quality string, same length as seq
};

enum class ParseMode {
  kStrict,   ///< malformed record -> typed util::Error (category parse)
  kLenient,  ///< malformed record -> resync on next '@' header, count skip
};

struct ParseOptions {
  ParseMode mode = ParseMode::kStrict;
  /// Error-reporting context for buffer parsing: the file the buffer was
  /// read from and the buffer's byte offset within that file.  Ignored by
  /// FastqReader (which knows its own path).
  std::string path;
  std::uint64_t base_offset = 0;
  /// Lenient mode only: invoked once per record the parser abandons, in
  /// input order between the records around it.  IndexCreate gives an
  /// abandoned record a read ID of its own (it becomes a singleton
  /// component), so a caller deriving read IDs from the chunk table must
  /// advance its cursor here; core::for_each_chunk_record applies that rule
  /// for every chunk parse.
  std::function<void()> on_skip = {};
};

/// Per-buffer parse outcome.
struct BufferParseStats {
  std::uint64_t records = 0;  ///< records delivered to the callback
  std::uint64_t skipped = 0;  ///< lenient-mode resynchronization events
};

namespace detail {
/// Where the FASTQ record grammar stands in a byte window (see fastq.cpp).
struct GrammarCursor {
  std::size_t pos = 0;  ///< start of the next line to read
  bool resync = false;  ///< looking for a header after abandoning a record
};
}  // namespace detail

/// Streaming reader over one FASTQ file.  Strict mode throws util::Error on
/// open failure or malformed records; lenient mode skips bad records.  It
/// runs the same record grammar as for_each_record_in_buffer over a 1 MiB
/// refill window, so both give the same records, skips and offsets.
class FastqReader {
 public:
  explicit FastqReader(const std::string& path, ParseOptions options = {});
  FastqReader(const FastqReader&) = delete;
  FastqReader& operator=(const FastqReader&) = delete;
  ~FastqReader();

  /// Read the next record.  Returns false at clean EOF.
  bool next(FastqRecord& out);

  /// Byte offset of the start of the next record (for chunking).  Exact
  /// even when the final line has no trailing newline or lines end in CRLF.
  [[nodiscard]] std::uint64_t offset() const noexcept { return buf_offset_ + cursor_.pos; }

  /// Records abandoned so far (lenient mode).
  [[nodiscard]] std::uint64_t records_skipped() const noexcept { return skipped_; }

 private:
  void refill();

  std::string path_;
  ParseOptions options_;
  std::FILE* file_ = nullptr;
  std::vector<char> buffer_;      ///< the window; grows only for a longer record
  std::size_t buf_len_ = 0;       ///< bytes of buffer_ holding input
  std::uint64_t buf_offset_ = 0;  ///< file offset of buffer_[0]
  bool eof_ = false;              ///< buffer_ holds the end of the file
  detail::GrammarCursor cursor_;
  std::uint64_t skipped_ = 0;
};

/// Buffered FASTQ writer.  Short writes and close failures (e.g. ENOSPC
/// during CC-I/O) surface as typed util::Error instead of silent success.
class FastqWriter {
 public:
  explicit FastqWriter(const std::string& path);
  FastqWriter(const FastqWriter&) = delete;
  FastqWriter& operator=(const FastqWriter&) = delete;
  ~FastqWriter();

  void write(const FastqRecord& record);
  void write(std::string_view id, std::string_view seq, std::string_view qual);

  /// Flush and close; throws util::Error (category io) if the flush fails,
  /// so callers that must not lose data should call this explicitly.  The
  /// destructor closes too but only logs failures (destructors can't throw).
  void close();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t bytes_ = 0;
};

/// Read the byte range [offset, offset + size) of a file into a buffer.
/// 64-bit clean (uses fseeko); transient failures are retried with backoff.
std::vector<char> read_file_range(const std::string& path, std::uint64_t offset,
                                  std::uint64_t size);

/// Parse whole FASTQ records out of a memory buffer (a logical chunk).
/// Invokes fn(id, seq, qual) per record; string_views alias the buffer.
/// Strict mode throws on malformed input; lenient mode resynchronizes and
/// reports the skip count in the returned stats.  A lone blank last line
/// ends the input, as it does for FastqReader.
BufferParseStats for_each_record_in_buffer(
    std::string_view buffer,
    const std::function<void(std::string_view, std::string_view, std::string_view)>& fn,
    ParseOptions options = {});

/// Total size of a file in bytes (64-bit clean).
std::uint64_t file_size_bytes(const std::string& path);

}  // namespace metaprep::io
