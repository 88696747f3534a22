#include "io/fastq.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/retry.hpp"

namespace metaprep::io {

namespace {
constexpr std::size_t kReadBufferSize = 1 << 20;

obs::Counter& bytes_read_counter() {
  static thread_local obs::CounterHandle c;
  return c.of(obs::metrics(), "io.bytes_read");
}

obs::Counter& retries_counter() {
  static thread_local obs::CounterHandle c;
  return c.of(obs::metrics(), "io.retries");
}

obs::Counter& skipped_counter() {
  static thread_local obs::CounterHandle c;
  return c.of(obs::metrics(), "io.records_skipped");
}

const util::RetryPolicy& io_retry_policy() {
  static const util::RetryPolicy policy{};
  return policy;
}

void count_retry(int /*attempt*/, const util::Error& /*error*/) { retries_counter().add(1); }

/// A line that could be the sequence of a FASTQ record: non-empty, IUPAC
/// nucleotide codes only.  Used by lenient resynchronization to reject '@'
/// quality lines masquerading as headers.
bool plausible_sequence(std::string_view s) {
  static constexpr char kCodes[] = "ACGTUNRYKMSWBDHV";
  if (s.empty()) return false;
  for (char c : s) {
    const char upper = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (std::memchr(kCodes, upper, sizeof(kCodes) - 1) == nullptr) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The record grammar, written once as a resumable step over a byte window.
// for_each_record_in_buffer runs it over a whole buffer (eof = true);
// FastqReader runs it over its refill window, refilling on kMore.

/// One step's outcome.  kSkip abandons the record starting at window offset
/// `at`; kMore means the window ends inside a line that more input may
/// extend (only when eof is false), and the cursor is where to resume.
struct Step {
  enum Kind { kRecord, kSkip, kEnd, kMore } kind;
  std::string_view id{}, seq{}, qual{};  ///< kRecord: views into the window
  const char* what = nullptr;      ///< kSkip: what was wrong
  std::size_t at = 0;              ///< kSkip: the abandoned record's start
};

// read_line and scan_step are forced inline: they are the per-line and
// per-record path of every chunk parse, and out of line they cost about a
// third of for_each_record_in_buffer's throughput.

/// The line starting at @p pos ('\r' stripped) and, in @p next, the start of
/// the line after it.  False when the window holds no complete line there:
/// @p pos is at the end of the input, or more input may extend the line.
[[gnu::always_inline]] inline bool read_line(std::string_view w, bool eof, std::size_t pos,
                                             std::string_view& line, std::size_t& next) {
  if (pos >= w.size()) return false;
  const char* begin = w.data() + pos;
  const auto* nl = static_cast<const char*>(std::memchr(begin, '\n', w.size() - pos));
  if (nl == nullptr && !eof) return false;
  std::size_t len = nl == nullptr ? w.size() - pos : static_cast<std::size_t>(nl - begin);
  next = pos + len + (nl == nullptr ? 0 : 1);
  if (len > 0 && begin[len - 1] == '\r') --len;  // CRLF: '\r' counted, stripped
  line = std::string_view(begin, len);
  return true;
}

/// Parse the next record, or abandon one, from @p cur in window @p w.  A
/// record is a '@' header, a sequence, a '+' separator and a quality line as
/// long as the sequence; a lone blank last line ends the input.  After an
/// abandoned record, lenient resynchronization scans for a '@' line followed
/// by a plausible sequence and resumes there.
[[gnu::always_inline]] inline Step scan_step(std::string_view w, bool eof,
                                             detail::GrammarCursor& cur) {
  const Step stop{eof ? Step::kEnd : Step::kMore};
  std::string_view line, seq, qual;
  std::size_t next = 0;
  while (cur.resync) {
    if (!read_line(w, eof, cur.pos, line, next)) return stop;
    if (!line.empty() && line[0] == '@') {
      std::size_t after = 0;
      if (!read_line(w, eof, next, seq, after)) return stop;
      if (plausible_sequence(seq)) {
        cur.resync = false;
        break;
      }
    }
    cur.pos = next;  // a lookahead that failed is itself the next candidate
  }
  const std::size_t start = cur.pos;
  const auto abandon = [&](const char* what, std::size_t resume, bool resync) {
    cur = {resume, resync};
    return Step{Step::kSkip, {}, {}, {}, what, start};
  };
  // At the end of the input a record is truncated: nothing follows it.
  const auto truncated = [&](const char* what) {
    return eof ? abandon(what, w.size(), false) : stop;
  };
  if (!read_line(w, eof, start, line, next)) return stop;
  if (line.empty() || line[0] != '@') {
    if (line.empty() && next == w.size()) {  // a lone blank last line
      if (!eof) return stop;
      cur.pos = next;
      return Step{Step::kEnd};
    }
    return abandon("expected '@' header line", next, true);
  }
  const std::string_view header = line;
  std::size_t pos = next;
  if (!read_line(w, eof, pos, seq, next)) return truncated("truncated record (missing sequence)");
  pos = next;
  if (!read_line(w, eof, pos, line, next))
    return truncated("truncated record (missing '+' separator)");
  if (line.empty() || line[0] != '+') return abandon("expected '+' separator line", pos, true);
  pos = next;
  if (!read_line(w, eof, pos, qual, next)) return truncated("truncated record (missing quality)");
  // The quality line may itself open the next record.
  if (qual.size() != seq.size()) return abandon("quality length != sequence length", pos, true);
  cur.pos = next;
  return Step{Step::kRecord, header.substr(1), seq, qual};
}

/// A record the grammar abandoned, starting at @p offset of @p path: strict
/// mode throws; lenient mode counts it and tells on_skip.
void abandoned(const ParseOptions& options, const std::string& path, const char* what,
               std::uint64_t offset) {
  if (options.mode == ParseMode::kStrict) throw util::parse_error(what, path, offset);
  skipped_counter().add(1);
  if (options.on_skip) options.on_skip();
}

}  // namespace

// ---------------------------------------------------------------------------
// FastqReader

FastqReader::FastqReader(const std::string& path, ParseOptions options)
    : path_(path), options_(std::move(options)), buffer_(kReadBufferSize) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) throw util::io_error("cannot open for reading", path_, 0, errno);
}

FastqReader::~FastqReader() {
  if (file_ != nullptr) std::fclose(file_);
}

// Keep the unparsed tail of the window (a record cut by the window's end),
// moved to the front, and read more behind it.  A tail that fills the whole
// window doubles it.
void FastqReader::refill() {
  const std::size_t keep = buf_len_ - cursor_.pos;
  std::memmove(buffer_.data(), buffer_.data() + cursor_.pos, keep);
  buf_offset_ += cursor_.pos;
  cursor_.pos = 0;
  buf_len_ = keep;
  if (buf_len_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  const std::uint64_t stream_pos = buf_offset_ + buf_len_;  // file offset of the fread
  const std::size_t got = util::with_retries(
      io_retry_policy(),
      [&]() -> std::size_t {
        util::FaultPlan& plan = util::FaultPlan::global();
        if (plan.armed() && plan.inject_read_fault(path_, stream_pos))
          throw util::io_error("injected transient read fault", path_, stream_pos, EINTR,
                               /*transient=*/true);
        const std::size_t n =
            std::fread(buffer_.data() + buf_len_, 1, buffer_.size() - buf_len_, file_);
        if (n == 0 && std::ferror(file_) != 0) {
          const int err = errno;
          std::clearerr(file_);
          throw util::io_error("read failed", path_, stream_pos, err,
                               err == EINTR || err == EAGAIN);
        }
        return n;
      },
      count_retry);
  buf_len_ += got;
  eof_ = got == 0;
  bytes_read_counter().add(got);
}

bool FastqReader::next(FastqRecord& out) {
  for (;;) {
    const Step step = scan_step(std::string_view(buffer_.data(), buf_len_), eof_, cursor_);
    switch (step.kind) {
      case Step::kRecord:
        out.id.assign(step.id);
        out.seq.assign(step.seq);
        out.qual.assign(step.qual);
        return true;
      case Step::kSkip:
        abandoned(options_, path_, step.what, buf_offset_ + step.at);
        ++skipped_;
        break;
      case Step::kMore:
        refill();
        break;
      case Step::kEnd:
        return false;
    }
  }
}

// ---------------------------------------------------------------------------
// FastqWriter

FastqWriter::FastqWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) throw util::io_error("cannot open for writing", path_, 0, errno);
}

FastqWriter::~FastqWriter() {
  try {
    close();
  } catch (const std::exception& e) {
    LOG_ERROR("fastq: " << e.what());
  }
}

void FastqWriter::close() {
  if (file_ == nullptr) return;
  std::FILE* f = file_;
  file_ = nullptr;  // the handle is gone even if the flush fails
  static thread_local obs::CounterHandle written;
  written.of(obs::metrics(), "io.bytes_written").add(bytes_);
  if (std::fclose(f) != 0) {
    const int err = errno;
    throw util::io_error("close failed, buffered data may be lost", path_, bytes_, err);
  }
}

void FastqWriter::write(const FastqRecord& record) { write(record.id, record.seq, record.qual); }

void FastqWriter::write(std::string_view id, std::string_view seq, std::string_view qual) {
  if (file_ == nullptr) throw util::io_error("write after close", path_);
  if (qual.size() != seq.size())
    throw util::parse_error("quality length != sequence length", path_, bytes_);
  const auto put = [&](const char* data, std::size_t n) {
    if (std::fwrite(data, 1, n, file_) != n) {
      const int err = errno;
      throw util::io_error("short write", path_, bytes_, err);
    }
    bytes_ += n;
  };
  put("@", 1);
  put(id.data(), id.size());
  put("\n", 1);
  put(seq.data(), seq.size());
  put("\n+\n", 3);
  put(qual.data(), qual.size());
  put("\n", 1);
}

// ---------------------------------------------------------------------------
// Free functions

std::vector<char> read_file_range(const std::string& path, std::uint64_t offset,
                                  std::uint64_t size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw util::io_error("cannot open for reading", path, offset, errno);
  std::vector<char> buf(size);
  try {
    util::with_retries(
        io_retry_policy(),
        [&] {
          util::FaultPlan& plan = util::FaultPlan::global();
          if (plan.armed() && plan.inject_read_fault(path, offset))
            throw util::io_error("injected transient read fault", path, offset, EINTR,
                                 /*transient=*/true);
          // fseeko keeps the full 64-bit offset (fseek takes long: chunk
          // offsets past 2 GiB would truncate and read the wrong range).
          if (fseeko(f, static_cast<off_t>(offset), SEEK_SET) != 0)
            throw util::io_error("seek failed", path, offset, errno);
          std::clearerr(f);
          const std::size_t got = std::fread(buf.data(), 1, size, f);
          if (got != size) {
            const int err = std::ferror(f) != 0 ? errno : 0;
            std::clearerr(f);
            throw util::io_error("short read (got " + std::to_string(got) + " of " +
                                     std::to_string(size) + " bytes)",
                                 path, offset, err, err == EINTR || err == EAGAIN);
          }
        },
        count_retry);
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
  bytes_read_counter().add(size);
  util::FaultPlan::global().corrupt_fastq_chunk(path, offset,
                                                std::span<char>(buf.data(), buf.size()));
  return buf;
}

BufferParseStats for_each_record_in_buffer(
    std::string_view buffer,
    const std::function<void(std::string_view, std::string_view, std::string_view)>& fn,
    ParseOptions options) {
  BufferParseStats stats;
  detail::GrammarCursor cursor;
  for (;;) {
    const Step step = scan_step(buffer, /*eof=*/true, cursor);
    if (step.kind == Step::kEnd) break;
    if (step.kind == Step::kRecord) {
      fn(step.id, step.seq, step.qual);
      ++stats.records;
    } else {
      abandoned(options, options.path, step.what, options.base_offset + step.at);
      ++stats.skipped;
    }
  }
  static thread_local obs::CounterHandle parsed;
  parsed.of(obs::metrics(), "io.records_parsed").add(stats.records);
  return stats;
}

std::uint64_t file_size_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw util::io_error("cannot open for reading", path, 0, errno);
  if (fseeko(f, 0, SEEK_END) != 0) {
    const int err = errno;
    std::fclose(f);
    throw util::io_error("seek to end failed", path, 0, err);
  }
  const off_t size = ftello(f);  // 64-bit, unlike ftell's long
  const int err = errno;
  std::fclose(f);
  if (size < 0) throw util::io_error("ftello failed", path, 0, err);
  return static_cast<std::uint64_t>(size);
}

}  // namespace metaprep::io
