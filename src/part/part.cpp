#include "part/part.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace metaprep::part {

double BinPlan::skew() const {
  if (num_bins < 1) return 0.0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (std::uint64_t w : bin_weight_bp) {
    total += w;
    max = std::max(max, w);
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(num_bins);
  return static_cast<double>(max) / mean;
}

BinPlan greedy_bin_pack(std::span<const Component> components, int num_bins) {
  if (num_bins < 1) throw util::config_error("greedy_bin_pack: num_bins must be >= 1");
  if (num_bins > 0xFFFF)
    throw util::config_error("greedy_bin_pack: num_bins must fit the 16-bit slot table");

  BinPlan plan;
  plan.num_bins = num_bins;
  plan.slot_of.assign(components.size(), 0);
  plan.bin_weight_bp.assign(static_cast<std::size_t>(num_bins), 0);
  plan.bin_reads.assign(static_cast<std::size_t>(num_bins), 0);
  plan.bin_components.assign(static_cast<std::size_t>(num_bins), 0);

  // LPT order: heaviest first; equal weights by root so the assignment is a
  // pure function of the component set.
  std::vector<std::uint32_t> order(components.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (components[a].weight_bp != components[b].weight_bp)
      return components[a].weight_bp > components[b].weight_bp;
    return components[a].root < components[b].root;
  });

  obs::Histogram& m_sizes = obs::metrics().histogram("part.component_reads");
  for (std::uint32_t ci : order) {
    std::size_t best = 0;
    for (std::size_t b = 1; b < plan.bin_weight_bp.size(); ++b) {
      if (plan.bin_weight_bp[b] < plan.bin_weight_bp[best]) best = b;
    }
    plan.slot_of[ci] = static_cast<std::uint16_t>(best);
    plan.bin_weight_bp[best] += components[ci].weight_bp;
    plan.bin_reads[best] += components[ci].reads;
    ++plan.bin_components[best];
    m_sizes.record(components[ci].reads);
  }
  obs::metrics().gauge("part.bin_skew").set(plan.skew());
  return plan;
}

std::uint16_t RootSlotTable::slot_of(std::uint32_t root) const {
  const auto it = std::lower_bound(roots.begin(), roots.end(), root);
  if (it == roots.end() || *it != root) return kNoSlot;
  return slots[static_cast<std::size_t>(it - roots.begin())];
}

RootSlotTable make_root_slot_table(std::span<const Component> components,
                                   const BinPlan& plan) {
  RootSlotTable table;
  std::vector<std::uint32_t> order(components.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return components[a].root < components[b].root;
  });
  table.roots.reserve(components.size());
  table.slots.reserve(components.size());
  for (std::uint32_t ci : order) {
    table.roots.push_back(components[ci].root);
    table.slots.push_back(plan.slot_of[ci]);
  }
  return table;
}

BinManifest build_bin_manifest(const std::string& dataset, std::uint64_t total_reads,
                               std::span<const Component> components, const BinPlan& plan,
                               std::span<const BinFile> files,
                               std::span<const std::uint16_t> file_bins) {
  BinManifest m;
  m.dataset = dataset;
  m.num_bins = plan.num_bins;
  m.total_reads = total_reads;
  m.num_components = components.size();
  m.skew = plan.skew();
  m.bins.resize(static_cast<std::size_t>(plan.num_bins));
  for (std::size_t b = 0; b < m.bins.size(); ++b) {
    m.bins[b].components = plan.bin_components[b];
    m.bins[b].reads = plan.bin_reads[b];
    m.bins[b].weight_bp = plan.bin_weight_bp[b];
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    m.bins[file_bins[i]].files.push_back(files[i]);
  }
  return m;
}

void save_bin_manifest(const BinManifest& manifest, const std::string& path) {
  std::string out;
  out += "{\n";
  out += "  \"dataset\": \"" + obs::json_escape(manifest.dataset) + "\",\n";
  out += "  \"bins\": " + std::to_string(manifest.num_bins) + ",\n";
  out += "  \"reads\": " + std::to_string(manifest.total_reads) + ",\n";
  out += "  \"components\": " + std::to_string(manifest.num_components) + ",\n";
  char skew_buf[32];
  std::snprintf(skew_buf, sizeof(skew_buf), "%.6f", manifest.skew);
  out += std::string("  \"skew\": ") + skew_buf + ",\n";
  out += "  \"rows\": [\n";
  for (std::size_t b = 0; b < manifest.bins.size(); ++b) {
    const auto& bin = manifest.bins[b];
    out += "    {\"bin\": " + std::to_string(b) +
           ", \"components\": " + std::to_string(bin.components) +
           ", \"reads\": " + std::to_string(bin.reads) +
           ", \"weight_bp\": " + std::to_string(bin.weight_bp) + ", \"files\": [";
    for (std::size_t f = 0; f < bin.files.size(); ++f) {
      if (f > 0) out += ", ";
      out += "{\"path\": \"" + obs::json_escape(bin.files[f].path) +
             "\", \"records\": " + std::to_string(bin.files[f].records) + "}";
    }
    out += "]}";
    out += b + 1 < manifest.bins.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw util::io_error("cannot write bin manifest", path, 0, errno);
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const int close_rc = std::fclose(f);
  if (written != out.size() || close_rc != 0)
    throw util::io_error("short write on bin manifest", path, written, errno);
}

BinManifest load_bin_manifest(const std::string& path) {
  const util::JsonValue doc = util::parse_json_file(path);
  BinManifest m;
  m.dataset = doc.at("dataset").as_string();
  m.num_bins = static_cast<int>(doc.at("bins").as_uint());
  m.total_reads = doc.at("reads").as_uint();
  m.num_components = doc.at("components").as_uint();
  m.skew = doc.at("skew").as_number();
  for (const util::JsonValue& row : doc.at("rows").as_array()) {
    BinManifest::Bin& bin = m.bins.emplace_back();
    bin.components = static_cast<std::uint32_t>(row.at("components").as_uint());
    bin.reads = row.at("reads").as_uint();
    bin.weight_bp = row.at("weight_bp").as_uint();
    for (const util::JsonValue& file : row.at("files").as_array())
      bin.files.push_back({file.at("path").as_string(), file.at("records").as_uint()});
  }
  if (m.bins.size() != static_cast<std::size_t>(m.num_bins))
    throw util::parse_error("bin manifest: row count disagrees with \"bins\"", path);
  return m;
}

}  // namespace metaprep::part
