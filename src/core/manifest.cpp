#include "core/manifest.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "io/fastq.hpp"
#include "util/error.hpp"

namespace metaprep::core {

std::uint64_t Manifest::total_records() const {
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.records;
  return total;
}

std::string partition_class_of(const std::string& path) {
  // CC-I/O names its files "<...>.<tag>.fastq".
  constexpr std::string_view kSuffix = ".fastq";
  if (!path.ends_with(kSuffix)) return "unknown";
  const std::string_view stem(path.data(), path.size() - kSuffix.size());
  const std::string_view tag = stem.substr(stem.rfind('.') + 1);
  const bool bin = tag.size() > 1 && tag[0] == 'b' &&
                   std::all_of(tag.begin() + 1, tag.end(),
                               [](char c) { return std::isdigit(static_cast<unsigned char>(c)); });
  if (tag == "lc" || tag == "other" || bin) return std::string(tag);
  return "unknown";
}

Manifest build_manifest(const DatasetIndex& index, const PipelineResult& result,
                        io::ParseMode parse_mode) {
  Manifest m;
  m.dataset = index.name;
  m.k = index.k;
  m.num_reads = result.num_reads;
  m.num_components = result.num_components;
  m.largest_size = result.largest_size;
  for (const auto& path : result.output_files) {
    ManifestEntry e;
    e.path = path;
    e.partition = partition_class_of(path);
    io::ParseOptions popt;
    popt.mode = parse_mode;
    io::FastqReader reader(path, popt);
    io::FastqRecord rec;
    while (reader.next(rec)) {
      ++e.records;
      e.bases += rec.seq.size();
    }
    e.skipped = reader.records_skipped();
    m.records_skipped += e.skipped;
    m.entries.push_back(std::move(e));
  }
  return m;
}

void save_manifest(const Manifest& m, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw util::io_error("manifest: cannot open for writing", path, util::Error::kNoOffset, errno);
  std::fprintf(f, "#dataset\t%s\n", m.dataset.c_str());
  std::fprintf(f, "#k\t%d\n", m.k);
  std::fprintf(f, "#reads\t%u\n", m.num_reads);
  std::fprintf(f, "#components\t%llu\n",
               static_cast<unsigned long long>(m.num_components));
  std::fprintf(f, "#largest\t%llu\n", static_cast<unsigned long long>(m.largest_size));
  std::fprintf(f, "#skipped\t%llu\n",
               static_cast<unsigned long long>(m.records_skipped));
  std::fprintf(f, "path\tpartition\trecords\tbases\tskipped\n");
  for (const auto& e : m.entries) {
    std::fprintf(f, "%s\t%s\t%llu\t%llu\t%llu\n", e.path.c_str(), e.partition.c_str(),
                 static_cast<unsigned long long>(e.records),
                 static_cast<unsigned long long>(e.bases),
                 static_cast<unsigned long long>(e.skipped));
  }
  std::fclose(f);
}

Manifest load_manifest(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) throw util::io_error("manifest: cannot open for reading", path, util::Error::kNoOffset, errno);
  Manifest m;
  char line[4096];
  bool header_seen = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string s(line);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    if (s.empty()) continue;
    std::istringstream is(s);
    if (s[0] == '#') {
      std::string key, value;
      std::getline(is, key, '\t');
      std::getline(is, value, '\t');
      if (key == "#dataset") m.dataset = value;
      if (key == "#k") m.k = std::stoi(value);
      if (key == "#reads") m.num_reads = static_cast<std::uint32_t>(std::stoul(value));
      if (key == "#components") m.num_components = std::stoull(value);
      if (key == "#largest") m.largest_size = std::stoull(value);
      if (key == "#skipped") m.records_skipped = std::stoull(value);
      continue;
    }
    if (!header_seen) {  // column header row
      header_seen = true;
      continue;
    }
    ManifestEntry e;
    std::string records, bases, skipped;
    std::getline(is, e.path, '\t');
    std::getline(is, e.partition, '\t');
    std::getline(is, records, '\t');
    std::getline(is, bases, '\t');
    std::getline(is, skipped, '\t');  // absent in pre-skip-column manifests
    e.records = std::stoull(records);
    e.bases = std::stoull(bases);
    e.skipped = skipped.empty() ? 0 : std::stoull(skipped);
    m.entries.push_back(std::move(e));
  }
  std::fclose(f);
  return m;
}

}  // namespace metaprep::core
