#include "core/indices.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "io/binary.hpp"
#include "kmer/kmer128.hpp"
#include "util/error.hpp"

namespace metaprep::core {

namespace {
constexpr std::uint32_t kIndexMagic = 0x4D505249;  // "MPRI"
// v5: dense-or-sparse FASTQPart rows, checksum trailer
constexpr std::uint32_t kIndexVersion = 5;
}  // namespace

std::uint64_t MerHist::total() const {
  std::uint64_t t = 0;
  for (std::uint32_t c : counts) t += c;
  return t;
}

std::size_t append_chunk_row(std::uint32_t chunk, std::span<std::uint32_t> scratch,
                             std::span<const std::uint32_t> touched,
                             std::span<std::uint32_t> mer_acc,
                             std::vector<std::uint32_t>& pool) {
  std::uint64_t total = 0;
  bool acc_wrapped = false;
  // Bin b's running total, after adding its raw count into mer_acc.
  auto cumulate = [&](std::size_t b) {
    const std::uint32_t raw = scratch[b];
    total += raw;
    mer_acc[b] += raw;
    acc_wrapped |= mer_acc[b] < raw;
    return static_cast<std::uint32_t>(total);
  };
  const std::size_t nbins = scratch.size();
  const std::size_t at = pool.size();
  const std::size_t nnz =
      !touched.empty()
          ? touched.size()
          : static_cast<std::size_t>(std::count_if(scratch.begin(), scratch.end(),
                                                   [](std::uint32_t v) { return v != 0; }));
  if (2 * nnz >= nbins) {
    // Dense: cumulated in place, copied out, cleared whole.
    for (std::size_t b = 0; b < nbins; ++b) scratch[b] = cumulate(b);
    pool.insert(pool.end(), scratch.begin(), scratch.end());
    std::fill(scratch.begin(), scratch.end(), 0u);
  } else {
    pool.resize(at + 2 * nnz);
    std::uint32_t* bins = pool.data() + at;
    if (touched.empty() && nnz > 0) {
      // Branch-free: every bin is written at the cursor, and only a
      // non-empty one advances it (into the counts' half, filled below).
      std::size_t i = 0;
      for (std::uint32_t b = 0; b < nbins; ++b) {
        bins[i] = b;
        i += scratch[b] != 0 ? 1 : 0;
      }
    } else {
      std::copy(touched.begin(), touched.end(), bins);
    }
    for (std::size_t i = 0; i < nnz; ++i) {
      bins[nnz + i] = cumulate(bins[i]);
      scratch[bins[i]] = 0;
    }
  }
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw util::config_error("create_index: chunk " + std::to_string(chunk) + " holds " +
                             std::to_string(total) +
                             " k-mers; FASTQPart rows count at most 2^32 - 1 per chunk, so "
                             "split the input into more chunks (--chunks)");
  }
  if (acc_wrapped) throw mer_hist_overflow();
  return pool.size() - at;
}

util::Error mer_hist_overflow() {
  return util::config_error(
      "create_index: an m-mer bin holds 2^32 or more k-mers; merHist counts are "
      "32-bit, so use a larger m (--m)");
}

util::Error chunk_overrun(const DatasetIndex& index, std::uint32_t c) {
  const ChunkRecord& chunk = index.part.chunks[c];
  return util::parse_error("chunk " + std::to_string(c) + " holds more records than the " +
                               std::to_string(chunk.record_count) +
                               " the index counted; the file changed after indexing",
                           index.files[chunk.file], chunk.offset);
}

util::Error chunk_kmer_overrun(const DatasetIndex& index, std::uint32_t c) {
  const ChunkRecord& chunk = index.part.chunks[c];
  return util::parse_error("chunk " + std::to_string(c) +
                               " yields more k-mers for a routing slot than the index "
                               "counted; the file changed after indexing",
                           index.files[chunk.file], chunk.offset);
}

std::uint64_t DatasetIndex::max_chunk_bytes() const {
  std::uint64_t mx = 0;
  for (const auto& c : part.chunks) mx = std::max(mx, c.size);
  return mx;
}

std::vector<char> read_chunk(const DatasetIndex& index, std::uint32_t c) {
  const ChunkRecord& chunk = index.part.chunks[c];
  return io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
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
  w.write_vector<std::uint64_t>(index.part.row_begin);
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
  // KmerGen sizes its slot blocks from histograms counted for mer_hist.k and
  // writes the k-mers of index.k: the two must agree.
  if (index.k != index.mer_hist.k) fail("k disagrees with the k merHist was counted for");
  if (index.k < m || index.k > kmer::kMaxK128) fail("k out of range [m, 63]");
  const std::uint32_t nbins = index.part.num_bins();
  if (index.mer_hist.counts.size() != nbins) fail("merHist size does not match 4^m");

  const std::size_t nchunks = index.part.chunks.size();
  const auto& pool = index.part.histograms;
  const auto& begin = index.part.row_begin;
  if (begin.size() != nchunks + 1) fail("FASTQPart row offsets do not match the chunk count");
  if (begin.front() != 0) fail("FASTQPart row offsets do not start at 0");
  if (begin.back() != pool.size()) fail("FASTQPart row offsets do not end at the pool size");
  for (std::size_t c = 0; c < nchunks; ++c) {
    if (begin[c + 1] < begin[c]) fail("FASTQPart row offsets decrease");
    const std::uint64_t len = begin[c + 1] - begin[c];
    if (len != nbins && (len % 2 != 0 || len > nbins))
      fail("FASTQPart row " + std::to_string(c) + " has length " + std::to_string(len) +
           ", neither 4^m nor an even length below it");
  }

  // Rows: cumulative counts that never decrease (a decreasing row would
  // wrap a bounded count), sparse bins in range and strictly increasing
  // with strictly increasing counts (only non-empty bins are listed), a
  // total no larger than the chunk's bytes (each k-mer needs at least one
  // byte), and raw counts whose column sums are merHist, which sizes the
  // tuple buffers.  One pass over the stored entries, with one 4^m
  // remainder array.
  std::vector<std::uint32_t> mer_left = index.mer_hist.counts;
  auto take = [&](std::uint32_t b, std::uint32_t raw) {
    if (raw > mer_left[b]) fail("merHist is not the column sum of the FASTQPart rows");
    mer_left[b] -= raw;
  };
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::uint32_t* row = pool.data() + begin[c];
    const std::uint64_t len = begin[c + 1] - begin[c];
    std::uint32_t prev = 0;
    if (len == nbins) {
      for (std::uint32_t b = 0; b < nbins; ++b) {
        if (row[b] < prev) fail("FASTQPart row " + std::to_string(c) + " decreases");
        take(b, row[b] - prev);
        prev = row[b];
      }
    } else {
      const std::size_t nnz = len / 2;
      const std::uint32_t* cum = row + nnz;
      for (std::size_t i = 0; i < nnz; ++i) {
        if (row[i] >= nbins) fail("FASTQPart row " + std::to_string(c) + " has a bin past 4^m");
        if (i > 0 && row[i] <= row[i - 1])
          fail("FASTQPart row " + std::to_string(c) + " has sparse bins out of order");
        if (cum[i] <= prev)
          fail("FASTQPart row " + std::to_string(c) + " has sparse counts that do not increase");
        take(row[i], cum[i] - prev);
        prev = cum[i];
      }
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
  index.part.row_begin = r.read_vector<std::uint64_t>();
  index.part.histograms = r.read_vector<std::uint32_t>();
  r.finish();
  validate_index(index, path);
  return index;
}

}  // namespace metaprep::core
