#include "core/indices.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "io/binary.hpp"
#include "util/error.hpp"

namespace metaprep::core {

namespace {
constexpr std::uint32_t kIndexMagic = 0x4D505249;  // "MPRI"
constexpr std::uint32_t kIndexVersion = 4;  // v4: cumulative FASTQPart rows
}  // namespace

std::uint64_t MerHist::total() const {
  std::uint64_t t = 0;
  for (std::uint32_t c : counts) t += c;
  return t;
}

void cumulate_chunk_row(std::uint32_t chunk, std::span<std::uint32_t> row,
                        std::span<std::uint32_t> mer_acc) {
  std::uint64_t total = 0;
  bool acc_wrapped = false;
  for (std::size_t b = 0; b < row.size(); ++b) {
    const std::uint32_t raw = row[b];
    total += raw;
    row[b] = static_cast<std::uint32_t>(total);
    mer_acc[b] += raw;
    acc_wrapped |= mer_acc[b] < raw;
  }
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw util::config_error("create_index: chunk " + std::to_string(chunk) + " holds " +
                             std::to_string(total) +
                             " k-mers; FASTQPart rows count at most 2^32 - 1 per chunk, so "
                             "split the input into more chunks (--chunks)");
  }
  if (acc_wrapped) throw mer_hist_overflow();
}

util::Error mer_hist_overflow() {
  return util::config_error(
      "create_index: an m-mer bin holds 2^32 or more k-mers; merHist counts are "
      "32-bit, so use a larger m (--m)");
}

std::uint64_t DatasetIndex::max_chunk_bytes() const {
  std::uint64_t mx = 0;
  for (const auto& c : part.chunks) mx = std::max(mx, c.size);
  return mx;
}

void save_index(const DatasetIndex& index, const std::string& path) {
  io::BinaryWriter w(path, kIndexMagic, kIndexVersion);
  w.write_string(index.name);
  w.write_u64(index.files.size());
  for (const auto& f : index.files) w.write_string(f);
  w.write_u32(index.paired ? 1 : 0);
  w.write_u32(static_cast<std::uint32_t>(index.k));
  w.write_u32(index.total_reads);
  w.write_u64(index.total_bases);
  w.write_u64(index.total_file_bytes);

  w.write_u32(static_cast<std::uint32_t>(index.mer_hist.m));
  w.write_u32(static_cast<std::uint32_t>(index.mer_hist.k));
  w.write_vector<std::uint32_t>(index.mer_hist.counts);

  w.write_u32(static_cast<std::uint32_t>(index.part.m));
  w.write_u64(index.part.chunks.size());
  for (const auto& c : index.part.chunks) {
    w.write_u32(c.file);
    w.write_u64(c.offset);
    w.write_u64(c.size);
    w.write_u32(c.first_read_id);
    w.write_u32(c.record_count);
  }
  w.write_vector<std::uint32_t>(index.part.histograms);
  w.close();  // surface a failed flush as a typed Error, not a logged one
}

namespace {

/// On-disk size of one ChunkRecord (file, offset, size, first_read_id,
/// record_count).
constexpr std::size_t kChunkRecordBytes = 4 + 8 + 8 + 4 + 4;

/// Reject a loaded index whose tables disagree with each other: the
/// pipeline indexes files, histogram rows and read-ID arrays with these
/// values unchecked.
void validate_index(const DatasetIndex& index, const std::string& path) {
  auto fail = [&](const std::string& what) {
    throw util::parse_error("load_index: " + what, path);
  };
  const int m = index.part.m;
  if (m < 1 || m > 15 || index.mer_hist.m != m) fail("m out of range or inconsistent");
  const std::size_t nbins = std::size_t{1} << (2 * m);
  if (index.mer_hist.counts.size() != nbins) fail("merHist size does not match 4^m");
  // Overflow-safe form of histograms.size() == chunks.size() * nbins.
  const std::size_t nchunks = index.part.chunks.size();
  if (index.part.histograms.size() % nbins != 0 ||
      index.part.histograms.size() / nbins != nchunks)
    fail("inconsistent FASTQPart histogram size");

  // Cumulative rows: non-decreasing (a decreasing row would wrap a bounded
  // count), a total no larger than the chunk's bytes (each k-mer needs at
  // least one byte), and raw counts whose column sums are merHist, which
  // sizes the tuple buffers.
  std::vector<std::uint32_t> mer_left = index.mer_hist.counts;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::uint32_t* row = index.part.histograms.data() + c * nbins;
    std::uint32_t prev = 0;
    for (std::size_t b = 0; b < nbins; ++b) {
      if (row[b] < prev) fail("FASTQPart row " + std::to_string(c) + " decreases");
      const std::uint32_t raw = row[b] - prev;
      if (raw > mer_left[b]) fail("merHist is not the column sum of the FASTQPart rows");
      mer_left[b] -= raw;
      prev = row[b];
    }
    if (prev > index.part.chunks[c].size)
      fail("FASTQPart row " + std::to_string(c) + " counts more k-mers than its chunk has bytes");
  }
  for (std::uint32_t left : mer_left)
    if (left != 0) fail("merHist is not the column sum of the FASTQPart rows");

  // Chunk read-ID ranges must tile [0, total_reads): file by file within an
  // ID library (one file single-end, an (R1, R2) pair paired-end, whose mates
  // share IDs), libraries back to back.
  const std::size_t nfiles = index.files.size();
  if (index.paired && nfiles % 2 != 0) fail("paired index with an odd file count");
  std::vector<std::uint64_t> file_lo(nfiles, 0);
  std::vector<std::uint64_t> file_hi(nfiles, 0);
  std::vector<bool> seen(nfiles, false);
  std::uint32_t prev_file = 0;
  for (const ChunkRecord& c : index.part.chunks) {
    if (c.file >= nfiles) fail("chunk file index out of range");
    if (c.file < prev_file) fail("chunks out of file order");
    prev_file = c.file;
    if (!seen[c.file]) {
      seen[c.file] = true;
      file_lo[c.file] = file_hi[c.file] = c.first_read_id;
    }
    if (c.first_read_id != file_hi[c.file]) fail("chunk read-ID ranges have a gap or overlap");
    file_hi[c.file] += c.record_count;
  }
  // A file without chunks holds the empty range at the cursor.
  const std::size_t per_lib = index.paired ? 2 : 1;
  std::uint64_t next = 0;
  for (std::size_t f = 0; f < nfiles; f += per_lib) {
    const std::uint64_t lib_hi = seen[f] ? file_hi[f] : next;
    for (std::size_t j = f; j < f + per_lib; ++j) {
      if ((seen[j] ? file_lo[j] : next) != next)
        fail("chunk read-ID ranges do not tile [0, total_reads)");
      if ((seen[j] ? file_hi[j] : next) != lib_hi) fail("paired files cover different reads");
    }
    next = lib_hi;
  }
  if (next != index.total_reads) fail("chunk read-ID ranges do not tile [0, total_reads)");
  if (index.total_reads >= kInvalidRead) fail("total_reads exceeds the 32-bit read-ID space");
}

}  // namespace

DatasetIndex load_index(const std::string& path) {
  io::BinaryReader r(path, kIndexMagic, kIndexVersion);
  DatasetIndex index;
  index.name = r.read_string();
  const std::uint64_t nfiles = r.read_count(sizeof(std::uint64_t));  // each a length-prefixed path
  for (std::uint64_t i = 0; i < nfiles; ++i) index.files.push_back(r.read_string());
  index.paired = r.read_u32() != 0;
  index.k = static_cast<int>(r.read_u32());
  index.total_reads = r.read_u32();
  index.total_bases = r.read_u64();
  index.total_file_bytes = r.read_u64();

  index.mer_hist.m = static_cast<int>(r.read_u32());
  index.mer_hist.k = static_cast<int>(r.read_u32());
  index.mer_hist.counts = r.read_vector<std::uint32_t>();

  index.part.m = static_cast<int>(r.read_u32());
  const std::uint64_t nchunks = r.read_count(kChunkRecordBytes);
  index.part.chunks.resize(nchunks);
  for (auto& c : index.part.chunks) {
    c.file = r.read_u32();
    c.offset = r.read_u64();
    c.size = r.read_u64();
    c.first_read_id = r.read_u32();
    c.record_count = r.read_u32();
  }
  index.part.histograms = r.read_vector<std::uint32_t>();
  validate_index(index, path);
  return index;
}

}  // namespace metaprep::core
