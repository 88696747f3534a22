// Tests for FASTQ I/O and binary index serialization.
#include "io/fastq.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "io/binary.hpp"
#include "io/fasta.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace metaprep::io {
namespace {

using test::TempDir;

std::string write_raw(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

TEST(Fastq, WriteReadRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("a.fastq");
  {
    FastqWriter w(path);
    w.write("read1", "ACGT", "IIII");
    w.write("read2 extra tokens", "GGNTA", "ABCDE");
  }
  FastqReader r(path);
  FastqRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.id, "read1");
  EXPECT_EQ(rec.seq, "ACGT");
  EXPECT_EQ(rec.qual, "IIII");
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.id, "read2 extra tokens");
  EXPECT_EQ(rec.seq, "GGNTA");
  ASSERT_FALSE(r.next(rec));
}

TEST(Fastq, OffsetTracksRecordBoundaries) {
  TempDir dir;
  const std::string path = dir.file("b.fastq");
  {
    FastqWriter w(path);
    w.write("x", "AAAA", "IIII");
    w.write("y", "CCCC", "IIII");
  }
  FastqReader r(path);
  FastqRecord rec;
  EXPECT_EQ(r.offset(), 0u);
  ASSERT_TRUE(r.next(rec));
  const std::uint64_t first_end = r.offset();
  // "@x\nAAAA\n+\nIIII\n" = 15 bytes.
  EXPECT_EQ(first_end, 15u);
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(r.offset(), file_size_bytes(path));
}

TEST(Fastq, WriterBytesMatchesFileSize) {
  TempDir dir;
  const std::string path = dir.file("c.fastq");
  std::uint64_t bytes = 0;
  {
    FastqWriter w(path);
    w.write("abc", "ACGTACGT", "IIIIIIII");
    bytes = w.bytes_written();
  }
  EXPECT_EQ(bytes, file_size_bytes(path));
}

TEST(Fastq, MissingFileThrows) {
  EXPECT_THROW(FastqReader("/nonexistent/definitely/not.fastq"), std::runtime_error);
}

TEST(Fastq, MalformedHeaderThrows) {
  TempDir dir;
  const std::string path = dir.file("bad.fastq");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not-a-header\nACGT\n+\nIIII\n", f);
    std::fclose(f);
  }
  FastqReader r(path);
  FastqRecord rec;
  EXPECT_THROW(r.next(rec), std::runtime_error);
}

TEST(Fastq, QualityLengthMismatchThrows) {
  TempDir dir;
  const std::string path = dir.file("bad2.fastq");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("@x\nACGT\n+\nII\n", f);
    std::fclose(f);
  }
  FastqReader r(path);
  FastqRecord rec;
  EXPECT_THROW(r.next(rec), std::runtime_error);
}

TEST(Fastq, TruncatedRecordThrows) {
  TempDir dir;
  const std::string path = dir.file("bad3.fastq");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("@x\nACGT\n", f);
    std::fclose(f);
  }
  FastqReader r(path);
  FastqRecord rec;
  EXPECT_THROW(r.next(rec), std::runtime_error);
}

TEST(Fastq, NoTrailingNewlineOffsetExact) {
  // The final line of real-world FASTQ files often lacks a trailing newline;
  // the reader's offset must not drift by the phantom '\n'.
  TempDir dir;
  const std::string path =
      write_raw(dir.file("g.fastq"), "@x\nAAAA\n+\nIIII\n@y\nCCCC\n+\nIIII");
  FastqReader r(path);
  FastqRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(r.offset(), 15u);
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.id, "y");
  EXPECT_EQ(rec.qual, "IIII");
  EXPECT_EQ(r.offset(), file_size_bytes(path));  // 29, not 30
  EXPECT_FALSE(r.next(rec));
}

TEST(Fastq, CrLfLineEndingsParsedAndOffsetExact) {
  TempDir dir;
  const std::string path =
      write_raw(dir.file("h.fastq"), "@x\r\nACGT\r\n+\r\nIIII\r\n@y\r\nGGGG\r\n+\r\nIIII\r\n");
  FastqReader r(path);
  FastqRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.id, "x");
  EXPECT_EQ(rec.seq, "ACGT");  // '\r' stripped, never fed to k-mer code
  EXPECT_EQ(rec.qual, "IIII");
  EXPECT_EQ(r.offset(), 19u);  // '\r' bytes still counted in the offset
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.seq, "GGGG");
  EXPECT_EQ(r.offset(), file_size_bytes(path));
}

TEST(Fastq, CrLfBufferParsing) {
  const std::string content = "@x\r\nACGT\r\n+\r\nIIII\r\n";
  std::vector<std::string> seqs;
  const auto stats = for_each_record_in_buffer(
      content, [&](std::string_view, std::string_view seq, std::string_view qual) {
        seqs.emplace_back(seq);
        EXPECT_EQ(qual, "IIII");
      });
  EXPECT_EQ(seqs, std::vector<std::string>{"ACGT"});
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.skipped, 0u);
}

// ---- Malformed-FASTQ corpus: strict mode raises typed errors naming the
// file and offset; lenient mode resynchronizes and counts the skip. ----

TEST(Fastq, MissingPlusStrictThrowsTypedError) {
  TempDir dir;
  const std::string path =
      write_raw(dir.file("noplus.fastq"), "@x\nACGT\nIIII\n@y\nGGGG\n+\nIIII\n");
  FastqReader r(path);
  FastqRecord rec;
  try {
    r.next(rec);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
    EXPECT_EQ(e.path(), path);
    EXPECT_TRUE(e.has_offset());
    EXPECT_EQ(e.offset(), 0u);  // the record that started at byte 0 is bad
  }
}

TEST(Fastq, MissingPlusLenientResyncs) {
  TempDir dir;
  const std::string path =
      write_raw(dir.file("noplus2.fastq"), "@x\nACGT\nIIII\n@y\nGGGG\n+\nIIII\n");
  FastqReader r(path, ParseOptions{ParseMode::kLenient, "", 0});
  FastqRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.id, "y");
  EXPECT_FALSE(r.next(rec));
  EXPECT_EQ(r.records_skipped(), 1u);
}

TEST(Fastq, TruncatedRecordLenientCountsSkip) {
  TempDir dir;
  const std::string path = write_raw(dir.file("trunc.fastq"), "@x\nACGT\n+\nIIII\n@y\nGG");
  FastqReader r(path, ParseOptions{ParseMode::kLenient, "", 0});
  FastqRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.id, "x");
  EXPECT_FALSE(r.next(rec));
  EXPECT_EQ(r.records_skipped(), 1u);
}

TEST(Fastq, BlankInteriorLineStrictThrowsLenientResyncs) {
  const std::string content = "@x\nACGT\n+\nIIII\n\n@y\nGGGG\n+\nIIII\n";
  TempDir dir;
  const std::string path = write_raw(dir.file("blank.fastq"), content);
  {
    FastqReader r(path);
    FastqRecord rec;
    ASSERT_TRUE(r.next(rec));
    EXPECT_THROW(r.next(rec), util::Error);
  }
  {
    FastqReader r(path, ParseOptions{ParseMode::kLenient, "", 0});
    FastqRecord rec;
    ASSERT_TRUE(r.next(rec));
    ASSERT_TRUE(r.next(rec));
    EXPECT_EQ(rec.id, "y");
    EXPECT_FALSE(r.next(rec));
    EXPECT_EQ(r.records_skipped(), 1u);
  }
}

TEST(Fastq, QualityLengthMismatchLenientResyncs) {
  TempDir dir;
  const std::string path =
      write_raw(dir.file("qlen.fastq"), "@x\nACGT\n+\nII\n@y\nGGGG\n+\nIIII\n");
  FastqReader r(path, ParseOptions{ParseMode::kLenient, "", 0});
  FastqRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.id, "y");
  EXPECT_FALSE(r.next(rec));
  EXPECT_EQ(r.records_skipped(), 1u);
}

TEST(Fastq, BufferStrictErrorNamesFileAndOffset) {
  const std::string content = "@x\nACGT\nIIII\n";  // missing '+'
  try {
    for_each_record_in_buffer(
        content, [](std::string_view, std::string_view, std::string_view) {},
        ParseOptions{ParseMode::kStrict, "/data/sample.fastq", 4096});
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kParse);
    EXPECT_EQ(e.path(), "/data/sample.fastq");
    EXPECT_EQ(e.offset(), 4096u);  // base_offset + in-buffer record start
  }
}

TEST(Fastq, BufferLenientCorpusSkipCounts) {
  // One good record, one missing '+', one good, one truncated.
  const std::string content =
      "@a\nACGT\n+\nIIII\n@b\nCCCC\nIIII\n@c\nGGGG\n+\nIIII\n@d\nTT";
  std::vector<std::string> ids;
  const auto stats = for_each_record_in_buffer(
      content,
      [&](std::string_view id, std::string_view, std::string_view) { ids.emplace_back(id); },
      ParseOptions{ParseMode::kLenient, "", 0});
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.skipped, 2u);
}

// ---- One grammar: FastqReader (over its 1 MiB refill window) and
// for_each_record_in_buffer (over a whole buffer) must give the same
// records, skips, record-end offsets and strict-mode errors. ----

/// Everything a parse reports, in a form two parsers can be compared by.
struct ParseTrace {
  std::vector<std::string> records;  ///< "id|seq|qual"
  std::vector<std::uint64_t> ends;   ///< offset just past each record
  std::uint64_t skipped = 0;
  std::string error;  ///< strict mode: "<detail> @<offset>"

  bool operator==(const ParseTrace&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ParseTrace& t) {
  os << t.records.size() << " records, " << t.skipped << " skipped, error '" << t.error
     << "', ends";
  for (auto e : t.ends) os << ' ' << e;
  return os;
}

std::string error_text(const util::Error& e) {
  return e.detail() + " @" + std::to_string(e.offset());
}

ParseTrace trace_reader(const std::string& path, ParseMode mode) {
  ParseTrace t;
  try {
    FastqReader r(path, ParseOptions{mode, "", 0});
    FastqRecord rec;
    while (r.next(rec)) {
      t.records.push_back(rec.id + "|" + rec.seq + "|" + rec.qual);
      t.ends.push_back(r.offset());
    }
    t.skipped = r.records_skipped();
  } catch (const util::Error& e) {
    t.error = error_text(e);
  }
  return t;
}

ParseTrace trace_buffer(std::string_view content, ParseMode mode) {
  ParseTrace t;
  try {
    const auto stats = for_each_record_in_buffer(
        content,
        [&](std::string_view id, std::string_view seq, std::string_view qual) {
          t.records.push_back(std::string(id) + "|" + std::string(seq) + "|" +
                              std::string(qual));
          // The record ends after its quality line's terminator ('\r' is
          // stripped from the view, '\n' may be missing at the end).
          std::size_t end = static_cast<std::size_t>(qual.data() - content.data()) + qual.size();
          if (end < content.size() && content[end] == '\r') ++end;
          if (end < content.size() && content[end] == '\n') ++end;
          t.ends.push_back(end);
        },
        ParseOptions{mode, "", 0});
    t.skipped = stats.skipped;
  } catch (const util::Error& e) {
    t.error = error_text(e);
  }
  return t;
}

/// Parse @p content both ways in both modes; both parsers must agree.
void expect_grammar_agrees(const TempDir& dir, const std::string& content,
                           const std::string& what) {
  const std::string path = write_raw(dir.file("agree.fastq"), content);
  for (const ParseMode mode : {ParseMode::kStrict, ParseMode::kLenient}) {
    EXPECT_EQ(trace_reader(path, mode), trace_buffer(content, mode))
        << what << (mode == ParseMode::kStrict ? " (strict)" : " (lenient)");
  }
}

TEST(Fastq, ReaderAndBufferShareOneGrammar) {
  const std::string big_seq(1536 * 1024, 'A');  // longer than the 1 MiB window
  const std::string big_qual(big_seq.size(), 'I');
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"empty", ""},
      {"clean", "@x\nAAAA\n+\nIIII\n@y\nCCCC\n+\nIIII\n"},
      {"bad header", "not-a-header\nACGT\n+\nIIII\n"},
      {"short quality", "@x\nACGT\n+\nII\n"},
      {"truncated", "@x\nACGT\n"},
      {"missing plus", "@x\nACGT\nIIII\n@y\nGGGG\n+\nIIII\n"},
      {"truncated tail", "@x\nACGT\n+\nIIII\n@y\nGG"},
      {"blank interior line", "@x\nACGT\n+\nIIII\n\n@y\nGGGG\n+\nIIII\n"},
      {"short quality, resync", "@x\nACGT\n+\nII\n@y\nGGGG\n+\nIIII\n"},
      {"mixed", "@a\nACGT\n+\nIIII\n@b\nCCCC\nIIII\n@c\nGGGG\n+\nIIII\n@d\nTT"},
      {"'@' quality line", "@x\nACGT\n+\n@III\n@y\nGG\n+\nI\n@z\nTTTT\n+\nIIII\n"},
      {"CRLF", "@x\r\nACGT\r\n+\r\nIIII\r\n@y\r\nGGGG\r\n+\r\nIIII\r\n"},
      {"no trailing newline", "@x\nAAAA\n+\nIIII\n@y\nCCCC\n+\nIIII"},
      {"one blank last line", "@x\nAAAA\n+\nIIII\n\n"},
      {"CRLF blank last line", "@x\r\nAAAA\r\n+\r\nIIII\r\n\r\n"},
      {"two blank last lines", "@x\nAAAA\n+\nIIII\n\n\n"},
      {"record over the window", "@a\nACGT\n+\nIIII\n@big\n" + big_seq + "\n+\n" + big_qual +
                                     "\n@b\nCCCC\n+\nIIII\n"},
      {"bad record over the window", "@a\nACGT\n+\nIIII\n@big\n" + big_seq + "\n+\n" +
                                         big_qual.substr(1) + "\n@b\nCCCC\n+\nIIII\n"},
  };
  TempDir dir;
  for (const auto& [what, content] : corpus) expect_grammar_agrees(dir, content, what);
}

TEST(Fastq, ReaderEndsCleanlyAtOneBlankLastLine) {
  TempDir dir;
  const std::string path = write_raw(dir.file("blank_end.fastq"), "@x\nAAAA\n+\nIIII\n\n");
  FastqReader r(path);
  FastqRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(r.offset(), 15u);
  EXPECT_FALSE(r.next(rec));
  EXPECT_EQ(r.records_skipped(), 0u);
}

/// A FASTQ-ish text of @p lines random lines drawn from a vocabulary of
/// record pieces and junk, with LF or CRLF endings and an optional final
/// newline.
std::string random_fastq_text(std::mt19937_64& rng, int lines) {
  static const std::vector<std::string> kVocab = {
      "@r", "@r2 x", "@", "@@II", "ACGT", "AC", "ACGTN", "acgt", "+", "+r", "IIII", "II", "",
      "@ACGT", "#r", "I", "N"};
  const bool crlf = rng() % 4 == 0;
  std::string out;
  for (int i = 0; i < lines; ++i) {
    if (i > 0) out += crlf ? "\r\n" : "\n";
    out += kVocab[rng() % kVocab.size()];
  }
  if (lines > 0 && rng() % 2 == 0) out += crlf ? "\r\n" : "\n";
  return out;
}

TEST(Fastq, RandomLinesParseAlikeInReaderAndBuffer) {
  // Seeded differential with a fixed budget, in both modes.
  std::mt19937_64 rng(20251019);
  TempDir dir;
  const std::string path = dir.file("random.fastq");
  for (int i = 0; i < 2000; ++i) {
    const std::string content = random_fastq_text(rng, static_cast<int>(rng() % 14));
    write_raw(path, content);
    for (const ParseMode mode : {ParseMode::kStrict, ParseMode::kLenient}) {
      const ParseTrace reader = trace_reader(path, mode);
      const ParseTrace buffer = trace_buffer(content, mode);
      ASSERT_EQ(reader, buffer) << "case " << i
                                << (mode == ParseMode::kStrict ? " strict" : " lenient") << ":\n"
                                << content;
    }
  }
}

TEST(Fastq, RandomRecordsAcrossWindowsParseAlike) {
  // Mostly valid records with junk mixed in, a few MiB each, so records,
  // resyncs and a blank line meet the reader's window edge in many ways.
  std::mt19937_64 rng(7);
  TempDir dir;
  for (int round = 0; round < 3; ++round) {
    std::string content;
    while (content.size() < (std::size_t{5} << 19)) {
      const std::size_t len = 1 + rng() % 300;
      std::string seq(len, 'A');
      for (char& ch : seq) ch = "ACGT"[rng() % 4];
      const std::size_t qlen = rng() % 50 == 0 ? len - 1 : len;
      content += "@read" + std::to_string(content.size()) + "\n" + seq + "\n+\n" +
                 std::string(qlen, rng() % 8 == 0 ? '@' : 'I') + "\n";
      if (rng() % 80 == 0) content += random_fastq_text(rng, static_cast<int>(rng() % 6)) + "\n";
    }
    expect_grammar_agrees(dir, content, "round " + std::to_string(round));
  }
}

TEST(Fastq, WriterSurfacesEnospcOnClose) {
  // /dev/full accepts buffered writes but fails the flush with ENOSPC —
  // exactly the silent-data-loss case the writer must surface.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  FastqWriter w("/dev/full");
  w.write("x", "ACGT", "IIII");
  try {
    w.close();
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.category(), util::ErrorCategory::kIo);
    EXPECT_EQ(e.path(), "/dev/full");
    EXPECT_EQ(e.sys_errno(), ENOSPC);
  }
}

TEST(Fastq, WriteAfterCloseThrows) {
  TempDir dir;
  FastqWriter w(dir.file("w.fastq"));
  w.write("x", "ACGT", "IIII");
  w.close();
  w.close();  // idempotent
  EXPECT_THROW(w.write("y", "ACGT", "IIII"), util::Error);
}

TEST(Fastq, LargeFileOffsetsBeyond2GiB) {
  // Regression: fseek/ftell truncate at 2 GiB on ABIs with 32-bit long;
  // file_size_bytes and read_file_range must use fseeko/ftello.  The file is
  // sparse, so this costs ~no disk.
  TempDir dir;
  const std::string path = dir.file("big.fastq");
  const std::uint64_t two_gib = std::uint64_t{1} << 31;
  const std::string record = "@big\nACGTACGT\n+\nIIIIIIII\n";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (fseeko(f, static_cast<off_t>(two_gib), SEEK_SET) != 0) {
      std::fclose(f);
      GTEST_SKIP() << "filesystem does not support sparse 2 GiB files";
    }
    ASSERT_EQ(std::fwrite(record.data(), 1, record.size(), f), record.size());
    std::fclose(f);
  }
  std::error_code ec;
  if (std::filesystem::file_size(path, ec) != two_gib + record.size() || ec) {
    GTEST_SKIP() << "filesystem does not support sparse 2 GiB files";
  }
  EXPECT_EQ(file_size_bytes(path), two_gib + record.size());
  const auto buf = read_file_range(path, two_gib, record.size());
  EXPECT_EQ(std::string(buf.data(), buf.size()), record);
  std::vector<std::string> seqs;
  for_each_record_in_buffer(std::string_view(buf.data(), buf.size()),
                            [&](std::string_view, std::string_view seq, std::string_view) {
                              seqs.emplace_back(seq);
                            });
  EXPECT_EQ(seqs, std::vector<std::string>{"ACGTACGT"});
}

TEST(Fastq, BufferParsingMatchesStreaming) {
  TempDir dir;
  const std::string path = dir.file("d.fastq");
  std::vector<std::string> reads{"ACGTACGTAA", "TTTTGGGGCC", "NACGTNACGT"};
  test::write_fastq(path, reads);
  const auto buffer = read_file_range(path, 0, file_size_bytes(path));
  std::vector<std::string> parsed;
  const auto stats = for_each_record_in_buffer(
      std::string_view(buffer.data(), buffer.size()),
      [&](std::string_view, std::string_view seq, std::string_view qual) {
        EXPECT_EQ(seq.size(), qual.size());
        parsed.emplace_back(seq);
      });
  EXPECT_EQ(parsed, reads);
  EXPECT_EQ(stats.records, 3u);
}

TEST(Fastq, ReadFileRangeExtractsMiddleRecord) {
  TempDir dir;
  const std::string path = dir.file("e.fastq");
  {
    FastqWriter w(path);
    w.write("a", "AAAA", "IIII");  // 15 bytes
    w.write("b", "CCCC", "IIII");  // next 15
    w.write("c", "GGGG", "IIII");
  }
  const auto mid = read_file_range(path, 15, 15);
  std::vector<std::string> seqs;
  for_each_record_in_buffer(std::string_view(mid.data(), mid.size()),
                            [&](std::string_view, std::string_view seq, std::string_view) {
                              seqs.emplace_back(seq);
                            });
  EXPECT_EQ(seqs, std::vector<std::string>{"CCCC"});
}

TEST(Fastq, ShortRangeReadThrows) {
  TempDir dir;
  const std::string path = dir.file("f.fastq");
  test::write_fastq(path, {"ACGT"});
  EXPECT_THROW(read_file_range(path, 0, file_size_bytes(path) + 1), std::runtime_error);
}

TEST(Fasta, RoundTripWithWrapping) {
  TempDir dir;
  const std::string path = dir.file("a.fasta");
  const std::vector<FastaRecord> records{{"seq1 descriptive text", std::string(200, 'A')},
                                         {"seq2", "ACGT"}};
  write_fasta(path, records, 60);
  const auto back = read_fasta(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, "seq1 descriptive text");
  EXPECT_EQ(back[0].seq, std::string(200, 'A'));
  EXPECT_EQ(back[1].seq, "ACGT");
}

TEST(Fasta, ReadsMultiLineAndCrLf) {
  TempDir dir;
  const std::string path = dir.file("b.fasta");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(">x\r\nACGT\r\nGGTT\r\n>y\nAA\n", f);
    std::fclose(f);
  }
  const auto records = read_fasta(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, "ACGTGGTT");
  EXPECT_EQ(records[1].seq, "AA");
}

TEST(Fasta, SequenceBeforeHeaderThrows) {
  TempDir dir;
  const std::string path = dir.file("c.fasta");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("ACGT\n>x\nAA\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_fasta(path), std::runtime_error);
}

TEST(Fasta, WriteContigsGeneratesHeaders) {
  TempDir dir;
  const std::string path = dir.file("contigs.fasta");
  write_contigs_fasta(path, {"ACGTACGT", "GG"}, "ctg");
  const auto records = read_fasta(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, "ctg_0 len=8");
  EXPECT_EQ(records[1].id, "ctg_1 len=2");
}

TEST(Fasta, MissingFileThrows) {
  EXPECT_THROW(read_fasta("/nonexistent/no.fasta"), std::runtime_error);
}

TEST(Binary, RoundTripAllTypes) {
  TempDir dir;
  const std::string path = dir.file("idx.bin");
  const std::vector<std::uint32_t> v{1, 2, 3, 4};
  {
    BinaryWriter w(path, 0xABCD1234, 2);
    w.write_u32(7);
    w.write_u64(1ULL << 40);
    w.write_string("hello");
    w.write_vector<std::uint32_t>(v);
  }
  BinaryReader r(path, 0xABCD1234, 2);
  EXPECT_EQ(r.read_u32(), 7u);
  EXPECT_EQ(r.read_u64(), 1ULL << 40);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_vector<std::uint32_t>(), v);
}

TEST(Binary, MagicMismatchThrows) {
  TempDir dir;
  const std::string path = dir.file("idx.bin");
  { BinaryWriter w(path, 0x11111111, 1); }
  EXPECT_THROW(BinaryReader(path, 0x22222222, 1), std::runtime_error);
}

TEST(Binary, VersionMismatchThrows) {
  TempDir dir;
  const std::string path = dir.file("idx.bin");
  { BinaryWriter w(path, 0x11111111, 1); }
  EXPECT_THROW(BinaryReader(path, 0x11111111, 2), std::runtime_error);
}

TEST(Binary, TruncatedFileThrows) {
  TempDir dir;
  const std::string path = dir.file("idx.bin");
  { BinaryWriter w(path, 0x11111111, 1); }
  BinaryReader r(path, 0x11111111, 1);
  EXPECT_THROW(r.read_u64(), std::runtime_error);
}

}  // namespace
}  // namespace metaprep::io
