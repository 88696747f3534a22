#include "obs/attr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace metaprep::obs {

namespace {

/// Wait vs. compute split: comm phases ("KmerGen-Comm", "Merge-Comm") are
/// the spans whose self-time is message wait, everything else is compute.
bool is_wait_phase(const std::string& name) {
  return name.find("Comm") != std::string::npos;
}

/// Self-time segment: [start, end) on one track, attributed to the
/// innermost span open over the interval.  The critical-path DP runs over
/// these — they are disjoint within a track, so serial (program-order)
/// edges reduce to a per-track prefix maximum.
struct Segment {
  double start = 0.0;
  double end = 0.0;
  const TraceEvent* span = nullptr;
  int track = -1;
  // DP state: longest dependency chain ending at `end`, in microseconds.
  double chain = 0.0;
  int prev = -1;         // global index of the predecessor segment
  bool prev_flow = false;  // predecessor reached through a message edge
};

struct Track {
  int pid = 0;
  int tid = 0;
  std::vector<const TraceEvent*> spans;
  std::vector<double> marker_times;  // send/recv flow marker timestamps
  std::vector<int> seg_index;        // global segment indices, time order
};

std::string human_bytes(std::uint64_t b) {
  char buf[48];
  const double v = static_cast<double>(b);
  if (b >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", v / (1ull << 30));
  } else if (b >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", v / (1ull << 20));
  } else if (b >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", v / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(b));
  }
  return buf;
}

}  // namespace

double PhaseAccountant::imbalance_factor(const std::vector<double>& per_rank) {
  if (per_rank.empty()) return 0.0;
  const double mx = *std::max_element(per_rank.begin(), per_rank.end());
  const double sum = std::accumulate(per_rank.begin(), per_rank.end(), 0.0);
  if (sum <= 0.0) return 0.0;
  return mx / (sum / static_cast<double>(per_rank.size()));
}

AttrReport PhaseAccountant::analyze(const std::vector<TraceEvent>& events,
                                    double wall_us) {
  AttrReport report;

  // ---- Partition into per-track span lists plus the flow-marker index. ----
  std::map<std::pair<int, int>, int> track_of;
  std::vector<Track> tracks;
  struct Marker {
    int track = -1;
    double ts = 0.0;
  };
  std::map<std::uint64_t, Marker> sends;
  std::map<std::uint64_t, Marker> recvs;

  auto track_id = [&](int pid, int tid) {
    auto [it, inserted] = track_of.try_emplace({pid, tid}, static_cast<int>(tracks.size()));
    if (inserted) {
      tracks.push_back(Track{});
      tracks.back().pid = pid;
      tracks.back().tid = tid;
    }
    return it->second;
  };

  double extent_lo = 0.0, extent_hi = 0.0;
  bool have_span = false;
  for (const TraceEvent& ev : events) {
    if (ev.dur_us >= 0.0) {
      const int t = track_id(ev.pid, ev.tid);
      tracks[static_cast<std::size_t>(t)].spans.push_back(&ev);
      if (!have_span) {
        extent_lo = ev.ts_us;
        extent_hi = ev.ts_us + ev.dur_us;
        have_span = true;
      } else {
        extent_lo = std::min(extent_lo, ev.ts_us);
        extent_hi = std::max(extent_hi, ev.ts_us + ev.dur_us);
      }
    } else if (ev.flow_dir != 0 && ev.flow != 0) {
      const int t = track_id(ev.pid, ev.tid);
      tracks[static_cast<std::size_t>(t)].marker_times.push_back(ev.ts_us);
      Marker m{t, ev.ts_us};
      if (ev.flow_dir == TraceEvent::kFlowSend) {
        sends.emplace(ev.flow, m);
      } else {
        recvs.emplace(ev.flow, m);
      }
    }
  }
  if (!have_span) return report;

  const double extent_us = std::max(0.0, extent_hi - extent_lo);
  report.trace_span_s = extent_us / 1e6;
  report.wall_s = wall_us > 0.0 ? wall_us / 1e6 : report.trace_span_s;

  // ---- Decompose each track's laminar span family into self-time
  // segments, split at flow-marker timestamps so message edges land on
  // segment boundaries. ----
  std::vector<Segment> segs;
  for (std::size_t ti = 0; ti < tracks.size(); ++ti) {
    Track& trk = tracks[ti];
    std::sort(trk.spans.begin(), trk.spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<Segment> raw;
    std::vector<const TraceEvent*> open;
    double cur = 0.0;
    bool cur_set = false;
    auto advance = [&](double t) {
      if (!cur_set) {
        cur = t;
        cur_set = true;
        return;
      }
      if (t <= cur) return;  // never move backwards (robust to odd overlap)
      if (!open.empty()) {
        Segment s;
        s.start = cur;
        s.end = t;
        s.span = open.back();
        s.track = static_cast<int>(ti);
        raw.push_back(s);
      }
      cur = t;
    };
    for (const TraceEvent* sp : trk.spans) {
      while (!open.empty() && open.back()->ts_us + open.back()->dur_us <= sp->ts_us) {
        advance(open.back()->ts_us + open.back()->dur_us);
        open.pop_back();
      }
      advance(sp->ts_us);
      open.push_back(sp);
    }
    while (!open.empty()) {
      advance(open.back()->ts_us + open.back()->dur_us);
      open.pop_back();
    }

    std::sort(trk.marker_times.begin(), trk.marker_times.end());
    std::size_t mi = 0;
    for (Segment s : raw) {
      while (mi < trk.marker_times.size() && trk.marker_times[mi] <= s.start) ++mi;
      std::size_t mj = mi;
      while (mj < trk.marker_times.size() && trk.marker_times[mj] < s.end) {
        Segment head = s;
        head.end = trk.marker_times[mj];
        s.start = trk.marker_times[mj];
        trk.seg_index.push_back(static_cast<int>(segs.size()));
        segs.push_back(head);
        ++mj;
      }
      trk.seg_index.push_back(static_cast<int>(segs.size()));
      segs.push_back(s);
    }
  }

  // ---- Phase self-time aggregation + imbalance (Fig. 8 statistic). ----
  {
    std::map<std::string, std::map<int, double>> phase_rank;
    for (const Segment& s : segs) {
      phase_rank[s.span->name][tracks[static_cast<std::size_t>(s.track)].pid] +=
          (s.end - s.start) / 1e6;
    }
    for (auto& [name, ranks] : phase_rank) {
      PhaseStat ps;
      ps.name = name;
      std::vector<double> vals;
      for (auto& [rank, sec] : ranks) {
        ps.rank_self_s[rank] = sec;
        ps.self_s += sec;
        vals.push_back(sec);
      }
      ps.max_rank_s = vals.empty() ? 0.0 : *std::max_element(vals.begin(), vals.end());
      ps.mean_rank_s = vals.empty() ? 0.0 : ps.self_s / static_cast<double>(vals.size());
      ps.imbalance = imbalance_factor(vals);
      ps.wall_frac = report.wall_s > 0.0 ? ps.max_rank_s / report.wall_s : 0.0;
      report.phases.push_back(std::move(ps));
    }
    std::sort(report.phases.begin(), report.phases.end(),
              [](const PhaseStat& a, const PhaseStat& b) {
                if (a.max_rank_s != b.max_rank_s) return a.max_rank_s > b.max_rank_s;
                return a.name < b.name;
              });
  }

  // ---- Flow edges: send marker -> matching recv marker.  The source is
  // the last segment on the sender's track ending at or before the send
  // time; the target is the first segment on the receiver's track starting
  // at or after the receive time.  Both exist on a marker-split boundary
  // when the marker fell inside a span; markers in idle gaps degrade to
  // the nearest valid segment (or drop the edge). ----
  struct FlowEdge {
    int src_seg = -1;
  };
  std::map<int, std::vector<int>> edges_into;  // target segment -> source segments
  auto last_seg_ending_by = [&](const Track& trk, double t) -> int {
    int best = -1;
    for (int gi : trk.seg_index) {
      if (segs[static_cast<std::size_t>(gi)].end <= t) best = gi;
      else break;
    }
    return best;
  };
  auto first_seg_starting_at = [&](const Track& trk, double t) -> int {
    for (int gi : trk.seg_index) {
      if (segs[static_cast<std::size_t>(gi)].start >= t) return gi;
    }
    return -1;
  };
  for (const auto& [id, snd] : sends) {
    auto rit = recvs.find(id);
    if (rit == recvs.end()) continue;
    const Marker& rcv = rit->second;
    const int src = last_seg_ending_by(tracks[static_cast<std::size_t>(snd.track)], snd.ts);
    const int dst = first_seg_starting_at(tracks[static_cast<std::size_t>(rcv.track)], rcv.ts);
    if (src < 0 || dst < 0 || src == dst) continue;
    edges_into[dst].push_back(src);
  }

  // ---- Longest-chain DP over segments in global end-time order.  Within
  // a track, disjoint segments make every earlier segment a valid serial
  // predecessor (prefix max); flow sources end at the send time, which
  // precedes the receive, so they are always processed before the target.
  // Induction: chain(v) <= v.end - extent_lo, hence length <= trace span.
  std::vector<int> order(segs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Segment& sa = segs[static_cast<std::size_t>(a)];
    const Segment& sb = segs[static_cast<std::size_t>(b)];
    if (sa.end != sb.end) return sa.end < sb.end;
    return sa.start < sb.start;
  });
  std::vector<double> track_best(tracks.size(), 0.0);
  std::vector<int> track_best_seg(tracks.size(), -1);
  int best_seg = -1;
  for (int gi : order) {
    Segment& s = segs[static_cast<std::size_t>(gi)];
    const auto ti = static_cast<std::size_t>(s.track);
    double best = track_best[ti];
    s.prev = track_best_seg[ti];
    s.prev_flow = false;
    auto eit = edges_into.find(gi);
    if (eit != edges_into.end()) {
      for (int src : eit->second) {
        const double c = segs[static_cast<std::size_t>(src)].chain;
        if (c > best) {
          best = c;
          s.prev = src;
          s.prev_flow = true;
        }
      }
    }
    s.chain = (s.end - s.start) + best;
    if (s.chain > track_best[ti]) {
      track_best[ti] = s.chain;
      track_best_seg[ti] = gi;
    }
    if (best_seg < 0 || s.chain > segs[static_cast<std::size_t>(best_seg)].chain)
      best_seg = gi;
  }

  // ---- Path reconstruction: walk back, reverse, merge same-phase runs. ----
  if (best_seg >= 0) {
    std::vector<int> path;
    for (int at = best_seg; at >= 0; at = segs[static_cast<std::size_t>(at)].prev)
      path.push_back(at);
    std::reverse(path.begin(), path.end());
    CriticalPath& cp = report.critical_path;
    for (int gi : path) {
      const Segment& s = segs[static_cast<std::size_t>(gi)];
      const Track& trk = tracks[static_cast<std::size_t>(s.track)];
      const double dur = s.end - s.start;
      const bool wait = is_wait_phase(s.span->name);
      if (!cp.steps.empty() && !s.prev_flow && cp.steps.back().name == s.span->name &&
          cp.steps.back().pid == trk.pid && cp.steps.back().tid == trk.tid) {
        cp.steps.back().dur_us += dur;
      } else {
        CritStep step;
        step.name = s.span->name;
        step.pid = trk.pid;
        step.tid = trk.tid;
        step.start_us = s.start - extent_lo;
        step.dur_us = dur;
        step.wait = wait;
        step.via_flow = s.prev_flow;
        cp.steps.push_back(std::move(step));
      }
      if (wait) cp.wait_s += dur / 1e6;
      else cp.compute_s += dur / 1e6;
    }
    // Mathematically chain <= trace extent; the min guards summed-fp drift.
    cp.length_s = std::min(segs[static_cast<std::size_t>(best_seg)].chain / 1e6,
                           report.trace_span_s);
  }

  // Track counts (the pipeline overwrites these with the configured P/T/S).
  {
    std::map<int, int> threads_per_rank;
    for (const Track& trk : tracks) {
      if (!trk.spans.empty()) ++threads_per_rank[trk.pid];
    }
    report.ranks = static_cast<int>(threads_per_rank.size());
    for (const auto& [pid, n] : threads_per_rank)
      report.threads = std::max(report.threads, n);
  }
  return report;
}

std::string AttrReport::to_json() const {
  std::ostringstream out;
  out << "{\"wall_s\":" << json_number(wall_s)
      << ",\"trace_span_s\":" << json_number(trace_span_s) << ",\"ranks\":" << ranks
      << ",\"threads\":" << threads << ",\"passes\":" << passes;

  out << ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseStat& p = phases[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << json_escape(p.name);
    out << "\",\"self_s\":" << json_number(p.self_s)
        << ",\"max_rank_s\":" << json_number(p.max_rank_s)
        << ",\"mean_rank_s\":" << json_number(p.mean_rank_s)
        << ",\"imbalance\":" << json_number(p.imbalance)
        << ",\"wall_frac\":" << json_number(p.wall_frac) << ",\"per_rank\":{";
    bool first = true;
    for (const auto& [rank, sec] : p.rank_self_s) {
      if (!first) out << ',';
      first = false;
      out << '"' << rank << "\":" << json_number(sec);
    }
    out << "}}";
  }
  out << ']';

  out << ",\"critical_path\":{\"length_s\":" << json_number(critical_path.length_s)
      << ",\"wait_s\":" << json_number(critical_path.wait_s)
      << ",\"compute_s\":" << json_number(critical_path.compute_s) << ",\"steps\":[";
  for (std::size_t i = 0; i < critical_path.steps.size(); ++i) {
    const CritStep& s = critical_path.steps[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << json_escape(s.name);
    out << "\",\"pid\":" << s.pid << ",\"tid\":" << s.tid
        << ",\"start_us\":" << json_number(s.start_us)
        << ",\"dur_us\":" << json_number(s.dur_us)
        << ",\"wait\":" << (s.wait ? "true" : "false")
        << ",\"via_flow\":" << (s.via_flow ? "true" : "false") << '}';
  }
  out << "]}";

  out << ",\"comm\":{\"ranks\":" << comm_ranks << ",\"skew\":" << json_number(comm_skew)
      << ",\"bytes\":[";
  for (int r = 0; r < comm_ranks; ++r) {
    if (r > 0) out << ',';
    out << '[';
    for (int c = 0; c < comm_ranks; ++c) {
      if (c > 0) out << ',';
      out << comm_bytes[static_cast<std::size_t>(r) * static_cast<std::size_t>(comm_ranks) +
                        static_cast<std::size_t>(c)];
    }
    out << ']';
  }
  out << "],\"msgs\":[";
  for (int r = 0; r < comm_ranks; ++r) {
    if (r > 0) out << ',';
    out << '[';
    for (int c = 0; c < comm_ranks; ++c) {
      if (c > 0) out << ',';
      out << comm_msgs[static_cast<std::size_t>(r) * static_cast<std::size_t>(comm_ranks) +
                       static_cast<std::size_t>(c)];
    }
    out << ']';
  }
  out << "]}";

  out << ",\"memory\":{\"subsystems\":[";
  for (std::size_t i = 0; i < memory.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"name\":\"" << json_escape(memory[i].name);
    out << "\",\"high_water_bytes\":" << memory[i].high_water_bytes
        << ",\"predicted_bytes\":" << memory[i].predicted_bytes << '}';
  }
  out << "],\"predicted_total_bytes\":" << mem_predicted_total
      << ",\"peak_rss_bytes\":" << peak_rss_bytes << ",\"rss_samples\":[";
  for (std::size_t i = 0; i < rss_samples.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"phase\":\"" << json_escape(rss_samples[i].phase);
    out << "\",\"peak_rss_bytes\":" << rss_samples[i].peak_rss_bytes << '}';
  }
  out << "]}}";
  return out.str();
}

void AttrReport::write_json(const std::string& path) const {
  const std::string body = to_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  // NOLINT(metaprep-no-adhoc-throw): obs links below util; util::Error unavailable
  if (f == nullptr) throw std::runtime_error("attr: cannot open " + path);
  const std::size_t wrote = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  // NOLINT(metaprep-no-adhoc-throw): obs links below util; util::Error unavailable
  if (wrote != body.size()) throw std::runtime_error("attr: short write to " + path);
}

std::string format_report(const AttrReport& r) {
  std::ostringstream out;
  char buf[256];
  out << "METAPREP performance attribution\n";
  std::snprintf(buf, sizeof(buf),
                "  wall %.3f s (trace span %.3f s, ranks=%d threads=%d passes=%d)\n",
                r.wall_s, r.trace_span_s, r.ranks, r.threads, r.passes);
  out << buf;

  out << "\n  phase walls (self-time; imbalance = max/mean over ranks, Fig. 8)\n";
  std::snprintf(buf, sizeof(buf), "  %-16s %12s %12s %10s %7s\n", "phase",
                "max-rank (s)", "mean-rank(s)", "imbalance", "wall%");
  out << buf;
  for (const PhaseStat& p : r.phases) {
    std::snprintf(buf, sizeof(buf), "  %-16s %12.4f %12.4f %10.3f %6.1f%%\n",
                  p.name.c_str(), p.max_rank_s, p.mean_rank_s, p.imbalance,
                  100.0 * p.wall_frac);
    out << buf;
  }

  const CriticalPath& cp = r.critical_path;
  std::snprintf(buf, sizeof(buf),
                "\n  critical path: %.3f s (%.1f%% of wall; wait %.3f s, compute %.3f s)\n",
                cp.length_s, r.wall_s > 0.0 ? 100.0 * cp.length_s / r.wall_s : 0.0,
                cp.wait_s, cp.compute_s);
  out << buf;
  double comm_wall = 0.0;
  for (const PhaseStat& p : r.phases) {
    if (p.name.find("Comm") != std::string::npos) comm_wall += p.max_rank_s;
  }
  if (comm_wall > cp.wait_s) {
    std::snprintf(buf, sizeof(buf),
                  "  comm wall %.3f s vs %.3f s on the path -> %.1f ms of comm hidden "
                  "by overlap\n",
                  comm_wall, cp.wait_s, 1e3 * (comm_wall - cp.wait_s));
    out << buf;
  }
  for (const CritStep& s : cp.steps) {
    std::snprintf(buf, sizeof(buf), "    [r%d/t%d]%s %-16s %10.4f s%s\n", s.pid, s.tid,
                  s.via_flow ? " <-msg" : "      ", s.name.c_str(), s.dur_us / 1e6,
                  s.wait ? "  (wait)" : "");
    out << buf;
  }

  if (r.comm_ranks > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  comm matrix: skew %.3f (max/mean off-diagonal bytes)\n", r.comm_skew);
    out << buf;
    out << "    src\\dst";
    for (int c = 0; c < r.comm_ranks; ++c) {
      std::snprintf(buf, sizeof(buf), " %12d", c);
      out << buf;
    }
    out << '\n';
    for (int row = 0; row < r.comm_ranks; ++row) {
      std::snprintf(buf, sizeof(buf), "    %7d", row);
      out << buf;
      for (int c = 0; c < r.comm_ranks; ++c) {
        const std::uint64_t b =
            r.comm_bytes[static_cast<std::size_t>(row) *
                             static_cast<std::size_t>(r.comm_ranks) +
                         static_cast<std::size_t>(c)];
        std::snprintf(buf, sizeof(buf), " %12llu", static_cast<unsigned long long>(b));
        out << buf;
      }
      out << '\n';
    }
  }

  if (!r.memory.empty() || r.peak_rss_bytes > 0) {
    out << "\n  memory high-water by subsystem (measured vs memory_model)\n";
    for (const MemSubsystem& m : r.memory) {
      if (m.predicted_bytes > 0) {
        const double delta = 100.0 *
                             (static_cast<double>(m.high_water_bytes) -
                              static_cast<double>(m.predicted_bytes)) /
                             static_cast<double>(m.predicted_bytes);
        std::snprintf(buf, sizeof(buf), "    %-10s %12s   predicted %12s  (%+.1f%%)\n",
                      m.name.c_str(), human_bytes(m.high_water_bytes).c_str(),
                      human_bytes(m.predicted_bytes).c_str(), delta);
      } else {
        std::snprintf(buf, sizeof(buf), "    %-10s %12s\n", m.name.c_str(),
                      human_bytes(m.high_water_bytes).c_str());
      }
      out << buf;
    }
    if (r.mem_predicted_total > 0) {
      std::snprintf(buf, sizeof(buf), "    model total %s; ",
                    human_bytes(r.mem_predicted_total).c_str());
      out << buf;
    } else {
      out << "    ";
    }
    std::snprintf(buf, sizeof(buf), "peak RSS %s\n", human_bytes(r.peak_rss_bytes).c_str());
    out << buf;
    for (const RssSample& s : r.rss_samples) {
      std::snprintf(buf, sizeof(buf), "      after %-16s peak RSS %12s\n",
                    s.phase.c_str(), human_bytes(s.peak_rss_bytes).c_str());
      out << buf;
    }
  }
  return out.str();
}

double comm_matrix_skew(const std::vector<std::uint64_t>& matrix, int ranks) {
  if (ranks <= 1 ||
      matrix.size() < static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks)) {
    return 0.0;
  }
  std::uint64_t max_cell = 0;
  std::uint64_t sum = 0;
  for (int i = 0; i < ranks; ++i) {
    for (int j = 0; j < ranks; ++j) {
      if (i == j) continue;
      const std::uint64_t v = matrix[static_cast<std::size_t>(i) * ranks + j];
      max_cell = std::max(max_cell, v);
      sum += v;
    }
  }
  if (sum == 0) return 0.0;
  const double mean = static_cast<double>(sum) /
                      (static_cast<double>(ranks) * (ranks - 1));
  return static_cast<double>(max_cell) / mean;
}

}  // namespace metaprep::obs
