// Scenario benchmark: host cost per simulated second of three declarative
// topologies, one single-threaded trial at a time.
//
//   scenario_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --topologies DIR --out DIR [--source-id ID]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// interleaves untraced trials with traced ones (spans around the device
// and graph seams plus engine handler timing) and reports the per-layer
// metrics. Every invocation checks its outputs; any failed check makes
// the exit code non-zero. The last stdout line is the result JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "osnt/common/json.hpp"
#include "osnt/sim/engine.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "trial.hpp"

#ifndef SCENARIO_BENCH_BUILD_TYPE
#define SCENARIO_BENCH_BUILD_TYPE "unknown"
#endif

namespace sb = scenario_bench;
using Clock = std::chrono::steady_clock;

namespace {

/// A trial whose engine runs longer than this on the host has hung.
constexpr std::uint64_t kTrialWallBudgetMs = 60'000;
/// Trials each side measures at the least, whatever --seconds says.
constexpr std::size_t kMinTrials = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string topologies;
  std::string out;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "scenario_bench: %s\nusage: scenario_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 --topologies DIR --out DIR "
               "[--source-id ID]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--topologies") a.topologies = v;
      else if (k == "--out") a.out = v;
      else if (k == "--source-id") a.source_id = v;
      else usage("unknown flag " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty() || a.topologies.empty() || a.out.empty()) {
    usage("--workload, --topologies and --out are required");
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Quantile by linear interpolation between order statistics (q = 0.5
/// is the median).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

template <class F>
std::vector<double> each(const std::vector<sb::TrialResult>& trials, F&& f) {
  std::vector<double> out;
  out.reserve(trials.size());
  for (const auto& t : trials) out.push_back(f(t));
  return out;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double tele(const sb::TrialResult& t, const std::string& name) {
  const auto it = t.telemetry.find(name);
  return it == t.telemetry.end() ? 0.0 : it->second;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count or base, printed for humans
  /// Also in the result JSON. Times that are 0 by construction on some
  /// workload (the layer never runs there) are printed only; the JSON
  /// carries them as shares of run wall instead.
  bool in_json = true;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Checker {
 public:
  /// Inside attempt() this fails the trial; outside, it counts as one
  /// more failed attempt of its own.
  void fail(const std::string& what) {
    std::fprintf(stderr, "scenario_bench: CHECK FAILED: %s\n", what.c_str());
    if (in_trial_) {
      failed_trial_ = true;
    } else {
      ++attempted_;
      ++failed_;
    }
  }
  /// Run one trial; a throw or a failed check marks it failed.
  void attempt(const std::function<void()>& fn) {
    ++attempted_;
    in_trial_ = true;
    failed_trial_ = false;
    try {
      fn();
    } catch (const std::exception& e) {
      fail(std::string("trial threw: ") + e.what());
    }
    in_trial_ = false;
    if (failed_trial_) ++failed_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool in_trial_ = false;
  bool failed_trial_ = false;
};

/// Metrics in print order; the result JSON takes those marked in_json.
class MetricList {
 public:
  void operator()(std::string name, double v, std::string unit,
                  std::string note = "", bool in_json = true) {
    metrics_.push_back(
        {std::move(name), v, std::move(unit), std::move(note), in_json});
  }

  void print(const char* workload) const {
    for (const auto& m : metrics_) {
      std::printf("metric %s %s = %s %s%s%s\n", workload, m.name.c_str(),
                  fmt(m.value).c_str(), m.unit.c_str(),
                  m.note.empty() ? "" : "  # ", m.note.c_str());
    }
  }

  /// {"name": {"value": v, "unit": "u"}, ...}
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& m : metrics_) {
      if (!m.in_json) continue;
      if (out.size() > 1) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

std::string median_of(const std::vector<sb::TrialResult>& trials,
                      const char* kind) {
  return "median of " + std::to_string(trials.size()) + " " + kind +
         " trials";
}

/// The host's speed switches between a fast and a contended level that
/// last seconds each, and the fast level itself drifts from minute to
/// minute (METRICS.md, "Provenance and steadiness"). End-to-end host
/// times therefore take two steps:
/// - Each untraced trial's times are scaled by kReferenceProbeS over the
///   host-speed probe run beside it, to seconds of a host as fast as the
///   reference host. This removes the minute-scale drift.
/// - A low quantile over trials reads the fast level. A median lands
///   wherever the mix of fast and contended time falls in a run.
constexpr double kQuietQuantile = 0.05;
/// host_speed_probe_s() at the fast level of the 4-core VM the baseline
/// was taken on.
constexpr double kReferenceProbeS = 10e-3;

double quiet(std::vector<double> v) {
  return quantile(std::move(v), kQuietQuantile);
}
/// Reference-host seconds per host second of this trial.
double host_scale(const sb::TrialResult& t) {
  return kReferenceProbeS / t.host_probe_s;
}

/// End-to-end metrics, from untraced trials only.
void end_to_end_metrics(const sb::WorkloadDef& w,
                        const std::vector<sb::TrialResult>& untraced,
                        double rss, const Checker& check, MetricList& add) {
  const std::string trials =
      std::to_string(untraced.size()) + " untraced trials";
  const std::string p_q = "p" + fmt(kQuietQuantile * 100);
  // Every trial repeats the same simulation, so slice i does the same
  // work in each. The run's slice profile takes, for each i, the low
  // quantile of slice i's scaled time over trials: the contended level
  // comes and goes inside a trial too, and this filters it slice by
  // slice, while the cost that depends on the phase of the run stays.
  // Every trial has at least 100 slices, so at least 10 lie beyond p90.
  std::vector<double> profile(untraced.front().slice_s.size());
  for (std::size_t i = 0; i < profile.size(); ++i) {
    profile[i] = quiet(each(untraced, [i](const auto& t) {
      return t.slice_s.at(i) * host_scale(t);
    }));
  }
  double run_s = 0.0;
  for (const double s : profile) run_s += s;
  const sb::TrialResult& any = untraced.front();
  const std::string n_p =
      "profile of " + std::to_string(profile.size()) + " slices of " +
      fmt(static_cast<double>(w.slice) * 1e-9) + " ms, each the " + p_q +
      " of " + trials + ", scaled to the reference host";
  const auto wall = [](const sb::TrialResult& t) {
    return t.run_s / (static_cast<double>(t.sim_time) * 1e-12);
  };
  add("wall_per_sim_s",
      run_s / (static_cast<double>(any.sim_time) * 1e-12), "s/s",
      "sum over the " + n_p);
  add("wall_per_sim_s.raw_" + p_q, quiet(each(untraced, wall)), "s/s",
      "whole trials, unscaled, " + trials, false);
  add("wall_per_sim_s.raw_median", median(each(untraced, wall)), "s/s",
      "whole trials, unscaled, " + trials, false);
  add("host_probe_ms.median", median(each(untraced, [](const auto& t) {
        return t.host_probe_s * 1e3;
      })), "ms", "reference " + fmt(kReferenceProbeS * 1e3) + " ms", false);
  add("frames_per_s",
      ratio(static_cast<double>(any.frames_entered), run_s), "1/s",
      "frames per trial / sum over the " + n_p);
  add("slice_ms.p50", quantile(profile, 0.5) * 1e3, "ms", "over the " + n_p);
  add("slice_ms.p90", quantile(profile, 0.9) * 1e3, "ms", "over the " + n_p);
  add("setup_s", quiet(each(untraced, [](const auto& t) {
        return t.setup_s() * host_scale(t);
      })), "s", p_q + " of " + trials + ", scaled to the reference host");
  add("peak_rss_mib", rss, "MiB", "whole process, one workload");
  add("ok_share",
      ratio(static_cast<double>(check.attempted() - check.failed()),
            static_cast<double>(check.attempted())),
      "share", "failed_share = " +
                   fmt(ratio(static_cast<double>(check.failed()),
                             static_cast<double>(check.attempted()))));
}

/// Per-layer metrics: times from traced trials, with untraced trials as
/// the base for per-event costs, shares and the tracing overhead.
void per_layer_metrics(const sb::WorkloadDef& w,
                       const std::vector<sb::TrialResult>& untraced,
                       const std::vector<sb::TrialResult>& traced,
                       MetricList& add) {
  const std::string n_u = median_of(untraced, "untraced");
  const std::string n_t = median_of(traced, "traced");
  const sb::TrialResult& last = traced.back();
  const osnt::graph::TopologyTrialReport& rep = last.report;
  const double run_u = median(each(untraced, [](const auto& t) {
    return t.run_s;
  }));
  const double run_t = median(each(traced, [](const auto& t) {
    return t.run_s;
  }));

  // sim
  add("sim.events", static_cast<double>(last.events), "count");
  add("sim.events_cancelled", static_cast<double>(last.events_cancelled),
      "count");
  add("sim.ns_per_event",
      ratio(run_u * 1e9, static_cast<double>(last.events)),
      "ns", "untraced run wall / events");
  // gen, link and dut run on every workload; hw (DMA) only with capture,
  // tcp only with TCP, and no event of these workloads is scheduled
  // under mon (monitor work runs inside link and dut events).
  for (const char* cat : {"gen", "link", "dut", "hw", "tcp", "mon"}) {
    const std::string key = std::string("sim.engine.handler_ns.wall.") + cat;
    const bool everywhere = std::string_view(cat) == "gen" ||
                            std::string_view(cat) == "link" ||
                            std::string_view(cat) == "dut";
    add(std::string("sim.handler_s.") + cat,
        median(each(traced,
                    [&](const auto& t) { return tele(t, key) * 1e-9; })),
        "s", n_t, everywhere);
    if (!everywhere && std::string_view(cat) != "mon") {
      add(std::string("sim.handler_share.") + cat,
          median(each(traced, [&](const auto& t) {
            return ratio(tele(t, key) * 1e-9, t.run_s);
          })),
          "share", "of traced run wall, " + n_t);
    }
  }
  add("sim.dispatch_s", median(each(traced, [](const auto& t) {
        return t.run_s - t.handler_s_total;
      })), "s", "traced run wall - summed handler time, " + n_t);
  add("sim.live_high_water", static_cast<double>(last.live_high_water),
      "count");

  // Seams: self time per traced trial, summed over seams with a prefix.
  const auto seam_self = [](const sb::TrialResult& t,
                            const std::string& prefix) {
    double s = 0.0;
    for (const auto& seam : t.seams) {
      if (seam.name.starts_with(prefix)) s += seam.self_s;
    }
    return s;
  };
  const auto seam_s = [&](const std::string& prefix) {
    return median(each(traced, [&](const auto& t) {
      return seam_self(t, prefix);
    }));
  };
  const auto seam_calls = [&](const std::string& prefix) {
    double c = 0.0;
    for (const auto& seam : last.seams) {
      if (seam.name.starts_with(prefix)) c += static_cast<double>(seam.calls);
    }
    return c;
  };

  // graph
  const double ingress_s = seam_s("graph.");
  const double ingress_calls = seam_calls("graph.");
  add("graph.ingress_s", ingress_s, "s", "self time, " + n_t);
  add("graph.ingress_calls", ingress_calls, "count");
  add("graph.ingress_ns_per_call", ratio(ingress_s * 1e9, ingress_calls),
      "ns");
  add("graph.frames_in", static_cast<double>(rep.graph_frames_in), "count",
      "summed over blocks");
  add("graph.drops", static_cast<double>(rep.graph_drops), "count");
  add("graph.drop_ratio",
      ratio(static_cast<double>(rep.graph_drops),
            static_cast<double>(rep.graph_frames_in)),
      "share", "graph.drops / graph.frames_in");
  for (const auto& b : rep.blocks) {
    if (b.name != w.bottleneck) continue;
    add("graph.bottleneck.frames_in", static_cast<double>(b.frames_in),
        "count", "block " + b.name);
    add("graph.bottleneck.drops", static_cast<double>(b.drops), "count",
        "block " + b.name);
  }

  // device RX
  // Port 1 receives on every workload; port 0 (the ACK direction)
  // receives nothing under CBR.
  for (const char* port : {"port0", "port1"}) {
    const std::string prefix = std::string("device.rx.") + port;
    const double s = seam_s(prefix);
    const double calls = seam_calls(prefix);
    const bool everywhere = std::string_view(port) == "port1";
    add(std::string("device.rx_s.") + port, s, "s", "self time, " + n_t,
        everywhere);
    add(std::string("device.rx_calls.") + port, calls, "count");
    add(std::string("device.rx_ns_per_call.") + port, ratio(s * 1e9, calls),
        "ns", "", everywhere);
    if (!everywhere) {
      add(std::string("device.rx_share.") + port,
          median(each(traced, [&](const auto& t) {
            return ratio(seam_self(t, prefix), t.run_s);
          })),
          "share", "self time / traced run wall, " + n_t);
    }
  }

  // gen, hw, mon
  add("gen.tx.frames_sent", tele(last, "gen.tx.frames_sent"), "count");
  add("hw.dma.records_delivered", tele(last, "hw.dma.records_delivered"),
      "count");
  add("hw.dma.drops_ring_full", tele(last, "hw.dma.drops_ring_full"),
      "count");
  const double seen = tele(last, "mon.rx.frames_seen");
  const double captured = tele(last, "mon.rx.captured");
  add("mon.rx.frames_seen", seen, "count");
  add("mon.rx.captured", captured, "count");
  add("mon.capture_ratio", ratio(captured, seen), "share",
      "mon.rx.captured / mon.rx.frames_seen");

  // Unit costs on the frames this workload carried.
  std::vector<sb::ProbeRow> rows;
  for (const auto& seam : last.seams) {
    for (const auto& pkt : seam.shapes) {
      const sb::Shape shape = sb::classify(pkt);
      const bool seen_before = std::any_of(rows.begin(), rows.end(),
          [&](const sb::ProbeRow& r) {
            return r.shape == shape && r.bytes == pkt.size();
          });
      if (!seen_before) rows.push_back(sb::probe_frame(pkt));
    }
  }
  // The largest frame of a shape stands for it (full-size segments
  // rather than a short tail segment).
  const auto row_of = [&](sb::Shape s) {
    const sb::ProbeRow* best = nullptr;
    for (const auto& r : rows) {
      if (r.shape == s && (!best || r.bytes > best->bytes)) best = &r;
    }
    return best ? *best : sb::ProbeRow{};
  };
  for (const auto& r : rows) {
    std::printf("probe %s %s_%zuB crc32 %.2f ns, l4_checksum_v4 %.2f ns, "
                "parse_packet %.2f ns, parse_tcp_options %.2f ns\n",
                w.name, sb::shape_name(r.shape), r.bytes, r.crc32_ns,
                r.l4_checksum_v4_ns, r.parse_packet_ns,
                r.parse_tcp_options_ns);
  }
  const sb::ProbeRow primary = row_of(w.primary);
  const std::string on = std::string("on ") + sb::shape_name(w.primary) +
                         " " + std::to_string(primary.bytes) + " B";
  add("common.crc32_ns", primary.crc32_ns, "ns", on);
  add("net.l4_checksum_v4_ns", primary.l4_checksum_v4_ns, "ns", on);
  add("net.parse_packet_ns", primary.parse_packet_ns, "ns", on);
  add("net.parse_tcp_options_ns", primary.parse_tcp_options_ns, "ns", on);

  // Cutter hashes every frame that passes the capture filter.
  const double cutter_calls =
      tele(last, "mon.rx.captured") + tele(last, "mon.rx.dma_drops");
  add("mon.crc_share", ratio(primary.crc32_ns * 1e-9 * cutter_calls, run_u),
      "share",
      "crc32_ns(" + std::to_string(primary.bytes) + " B) x cutter calls " +
          fmt(cutter_calls) + " / untraced run wall " + fmt(run_u) + " s");
  const sb::ProbeRow data = row_of(sb::Shape::kTcpData);
  const sb::ProbeRow ack = row_of(sb::Shape::kTcpAck);
  const double segs = static_cast<double>(rep.tcp.segs_sent);
  const double acks = static_cast<double>(rep.tcp.acks_sent);
  add("tcp.checksum_share",
      ratio((data.l4_checksum_v4_ns * segs + ack.l4_checksum_v4_ns * acks) *
                1e-9,
            run_u),
      "share",
      "(l4_checksum_v4_ns(" + std::to_string(data.bytes) + " B) x segs " +
          fmt(segs) + " + l4_checksum_v4_ns(" + std::to_string(ack.bytes) +
          " B) x acks " + fmt(acks) + ") / untraced run wall " + fmt(run_u) +
          " s");

  // tcp
  add("tcp.segs_sent", segs, "count");
  add("tcp.retransmits", static_cast<double>(rep.tcp.retransmits), "count");
  add("tcp.rto_fires", static_cast<double>(rep.tcp.rto_fires), "count");
  add("tcp.acks_sent", acks, "count");
  add("tcp.useful_ratio",
      ratio(static_cast<double>(rep.tcp.bytes_acked),
            static_cast<double>(last.tcp_bytes_sent)),
      "share", "bytes acked / bytes sent");
  add("tcp.goodput_gbps", rep.tcp.goodput_bps * 1e-9, "Gb/s", "simulated");

  // burst and set-up
  add("burst.frames", static_cast<double>(last.burst_frames), "count");
  add("burst.bursts", static_cast<double>(last.burst_bursts), "count");
  add("burst.frames_per_event",
      ratio(static_cast<double>(last.burst_frames),
            static_cast<double>(last.burst_bursts)),
      "count");
  add("setup.parse_s", median(each(untraced, [](const auto& t) {
        return t.parse_s;
      })), "s", n_u);
  add("setup.build_s", median(each(untraced, [](const auto& t) {
        return t.build_s;
      })), "s", n_u);
  add("setup.workload_s", median(each(untraced, [](const auto& t) {
        return t.workload_s;
      })), "s", n_u);

  // tracing itself
  add("trace.overhead_s", run_t - run_u, "s",
      "median traced - median untraced run wall");
  add("trace.overhead_share", ratio(run_t - run_u, run_u), "share");
  add("trace.coverage", median(each(traced, [](const auto& t) {
        return ratio(t.handler_s_total, t.run_s);
      })), "share", "summed handler time / traced run wall, " + n_t);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const sb::WorkloadDef* w = sb::find_workload(args.workload);
  if (!w) usage("unknown workload '" + args.workload + "'");
  std::printf("workload %s: %s\n", w->name, w->why);

#ifndef __OPTIMIZE__
  std::fprintf(stderr, "scenario_bench: refusing to time an unoptimised "
                       "build (build type %s)\n", SCENARIO_BENCH_BUILD_TYPE);
  return 3;
#endif

  const std::string topo_text = osnt::json::read_file(
      args.topologies + "/" + w->name + ".json", "topology JSON");

  double load1 = -1.0;
  if (double l[1]; getloadavg(l, 1) == 1) load1 = l[0];
  const unsigned nproc = std::thread::hardware_concurrency();
  const bool loaded = load1 > 0.5 * static_cast<double>(nproc);
  std::printf(
      "provenance {\"source\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %u, \"load1\": %.2f, "
      "\"host_loaded\": %s}\n",
      args.source_id.c_str(), SCENARIO_BENCH_BUILD_TYPE, __VERSION__, nproc,
      load1, loaded ? "true" : "false");
  if (loaded) {
    std::fprintf(stderr, "scenario_bench: WARNING host load %.2f on %u cpus; "
                         "timings are suspect\n", load1, nproc);
  }

  const osnt::sim::WatchdogScope watchdog({0, kTrialWallBudgetMs});
  Checker check;
  std::string digest;

  const auto check_trial = [&](const sb::TrialResult& t) {
    if (digest.empty()) digest = t.sim_digest;
    if (t.sim_digest != digest) {
      check.fail("kSimOnly digest " + t.sim_digest + " differs from " +
                 digest);
    }
    if (t.report.tcp.bytes_acked > t.tcp_bytes_sent) {
      check.fail("tcp bytes acked exceed bytes sent");
    }
    for (const sb::SeamResult& s : t.seams) {
      if (!s.block.empty() && s.calls != s.block_frames_in) {
        check.fail(s.name + " span calls " + std::to_string(s.calls) +
                   " != block '" + s.block + "' frames_in " +
                   std::to_string(s.block_frames_in));
      }
    }
  };

  // Warm-up trial, compared field by field with run_topology_trial.
  check.attempt([&] {
    const osnt::graph::TopologyTrialReport ref =
        sb::reference_trial(topo_text, *w, args.seed);
    const sb::TrialResult t = sb::run_trial(topo_text, *w, args.seed, nullptr);
    const std::string diff = sb::compare_reports(t.report, ref);
    if (!diff.empty()) check.fail("sliced trial vs run_topology_trial: " + diff);
    check_trial(t);
  });
  // Peak RSS after exactly one reference and one sliced trial, so it does
  // not grow with however many trials the host speed lets fit in a run.
  const double rss = peak_rss_mib();

  std::vector<sb::TrialResult> untraced;
  std::vector<sb::TrialResult> traced;
  std::optional<sb::SpanRecorder> last_spans;
  const auto run_one = [&](bool with_spans) {
    check.attempt([&] {
      std::optional<sb::SpanRecorder> rec;
      if (with_spans) rec.emplace();
      const double probe_before = with_spans ? 0.0 : sb::host_speed_probe_s();
      sb::TrialResult t = sb::run_trial(topo_text, *w, args.seed,
                                        rec ? &*rec : nullptr);
      if (!with_spans) {
        t.host_probe_s = 0.5 * (probe_before + sb::host_speed_probe_s());
      }
      check_trial(t);
      (with_spans ? traced : untraced).push_back(std::move(t));
      if (rec) last_spans = std::move(rec);
    });
  };

  // Measure: untraced trials, interleaved with traced ones under --trace 1.
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  while (Clock::now() < deadline || untraced.size() < kMinTrials ||
         (args.trace == 1 && traced.size() < kMinTrials)) {
    run_one(false);
    if (args.trace == 1) run_one(true);
    if (check.failed() > 2 * kMinTrials) break;  // already a failed run
  }
  if (args.trace == 0) run_one(true);  // traced-vs-untraced digest check

  std::printf("sim_digest %s %s\n", w->name, digest.c_str());
  MetricList metrics;
  if (args.trace == 0) {
    end_to_end_metrics(*w, untraced, rss, check, metrics);
  } else if (!traced.empty() && !untraced.empty()) {
    per_layer_metrics(*w, untraced, traced, metrics);
    const std::string csv = args.out + "/" + w->name + ".spans.csv";
    if (last_spans && !last_spans->write_csv(csv)) {
      check.fail("cannot write " + csv);
    }
  }

  metrics.print(w->name);
  const bool correct = check.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(check.attempted()),
              static_cast<unsigned long long>(check.failed()),
              metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
