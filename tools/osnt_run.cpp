// osnt_run — the command-line driver (the paper's "software driver
// supporting command-line interfaces"). Each subcommand in main()'s table
// builds a simulated testbed and runs one measurement; `osnt_run <cmd>
// --help` lists its flags.
//
// Global flags (any subcommand): --log-level LEVEL, one of kLogLevels.
// latency, throughput, capture, tcp and topo take --trace PATH and
// --metrics-out PATH: --trace writes a Chrome trace_event JSON of the run
// in *sim* time (open in Perfetto / chrome://tracing); --metrics-out
// snapshots the process-wide telemetry registry as JSON at end of run.
// latency, tcp, and topo additionally take --series-out PATH
// [--series-interval-ms F] (default 1 ms; fractions give sub-millisecond
// intervals): a sim-time sampler stores per-interval counter deltas and
// RTT-histogram slices and writes one "osnt.series.v1" JSON,
// byte-identical at any --jobs value (per-trial series merge
// commutatively). A topology's traffic comes from its workload stanza
// (tcp or cbr through the device ports) and from burst_source blocks;
// `tcp` is a preset that generates a one-block topology from its flags,
// so tcp and topo trials run through the same graph::TopologyTrial.
// --faults loads a deterministic fault plan (see examples/faults/) and
// injects it into the testbed; fault activations show up as a "fault/*"
// trace track and in the fault.* metric family.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "osnt/common/cli.hpp"
#include "osnt/common/log.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/rfc2544.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/graph/dut_blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/mon/flow_stats.hpp"
#include "osnt/oflops/consistency.hpp"
#include "osnt/oflops/context.hpp"
#include "osnt/oflops/echo_rtt.hpp"
#include "osnt/oflops/flowmod_latency.hpp"
#include "osnt/oflops/packet_in_latency.hpp"
#include "osnt/oflops/interaction.hpp"
#include "osnt/oflops/queue_delay.hpp"
#include "osnt/oflops/stats_poll.hpp"
#include "osnt/tcp/workload.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/telemetry/series.hpp"
#include "osnt/telemetry/trace.hpp"
#include "osnt/topo/fabric.hpp"

using namespace osnt;

namespace {

/// Shared --trace/--metrics-out handling so every measurement subcommand
/// exposes the observability surface the same way: call add_to() before
/// parse, attach() on each single-threaded engine the run constructs, and
/// finish() once at exit to write whatever was requested.
struct ObservabilityFlags {
  std::string trace_path;
  std::string metrics_path;
  std::string series_path;
  double series_interval_ms = 0.0;
  telemetry::TraceRecorder rec;

  void add_to(CliParser& cli) {
    cli.add_flag("trace", &trace_path, "write Chrome trace_event JSON here");
    cli.add_flag("metrics-out", &metrics_path,
                 "write a telemetry registry JSON snapshot here");
  }

  /// Register --series-out on the subcommands that sample sim-time
  /// series (latency, tcp, topo).
  void add_series_to(CliParser& cli) {
    cli.add_flag("series-out", &series_path,
                 "write a sim-time telemetry series JSON here");
    cli.add_flag("series-interval-ms", &series_interval_ms,
                 "series sampling interval in ms, fractions allowed "
                 "(default 1)");
  }

  [[nodiscard]] bool trace_enabled() const { return !trace_path.empty(); }
  [[nodiscard]] bool series_enabled() const { return !series_path.empty(); }

  /// Resolved sampling interval; 0 when --series-out was not given.
  [[nodiscard]] Picos series_interval() const {
    if (series_path.empty()) return 0;
    const double ms = series_interval_ms > 0.0 ? series_interval_ms : 1.0;
    return from_micros(ms * 1000.0);
  }

  /// Post-parse checks: an interval without a destination is a mistake
  /// worth flagging, and sharded trials cannot share the trace recorder.
  [[nodiscard]] bool validate(std::int64_t trials, std::int64_t jobs) const {
    if (series_interval_ms > 0.0 && series_path.empty()) {
      std::fprintf(stderr, "--series-interval-ms requires --series-out\n");
      return false;
    }
    if (trace_enabled() && (trials != 1 || jobs != 1)) {
      std::fprintf(stderr, "--trace requires --trials 1 --jobs 1\n");
      return false;
    }
    return true;
  }

  /// Merge per-trial series in plan order and write them. Element-wise
  /// sums commute, so the bytes are identical at any --jobs value.
  [[nodiscard]] bool write_series(
      const std::vector<graph::TopologyTrialReport>& reports) {
    telemetry::SeriesData merged;
    for (const auto& rep : reports) merged.merge_from(rep.series);
    return write_series(merged);
  }

  /// Write the merged series (no-op when --series-out was not given).
  [[nodiscard]] bool write_series(const telemetry::SeriesData& s) {
    if (series_path.empty()) return true;
    if (!s.write_json(series_path)) {
      std::fprintf(stderr, "failed to write series to %s\n",
                   series_path.c_str());
      return false;
    }
    std::printf("wrote %zu-interval series (%zu channels) to %s\n",
                s.intervals(), s.channels.size(), series_path.c_str());
    return true;
  }

  /// Attach the recorder / handler timing to a trial engine. Only valid
  /// for engines driven from one thread (the recorder is not thread-safe);
  /// sharded sweeps must gate this on jobs == 1.
  void attach(sim::Engine& eng) {
    if (!trace_path.empty()) eng.set_trace(&rec);
    if (!metrics_path.empty()) eng.set_handler_timing(true);
  }

  /// Write the requested outputs; prints what was written. Returns false
  /// (after a stderr diagnostic) on I/O failure.
  [[nodiscard]] bool finish() {
    if (!trace_path.empty()) {
      if (!rec.write_chrome_json(trace_path)) {
        std::fprintf(stderr, "failed to write trace to %s\n",
                     trace_path.c_str());
        return false;
      }
      std::printf("wrote %zu trace events (%llu dropped) to %s\n", rec.size(),
                  static_cast<unsigned long long>(rec.dropped()),
                  trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      if (!telemetry::registry().write_json(metrics_path)) {
        std::fprintf(stderr, "failed to write metrics to %s\n",
                     metrics_path.c_str());
        return false;
      }
      std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
    }
    return true;
  }
};

/// Load --faults PATH into `plan` (left empty when no path was given)
/// and print its summary. False, after a stderr diagnostic, on a bad plan.
bool load_fault_plan(const std::string& path, fault::FaultPlan& plan) {
  if (path.empty()) return true;
  try {
    plan = fault::FaultPlan::load(path);
  } catch (const fault::PlanError& e) {
    std::fprintf(stderr, "bad fault plan %s: %s\n", path.c_str(), e.what());
    return false;
  }
  std::printf("fault plan: %s\n", plan.summary().c_str());
  return true;
}

/// Report a sharded trial that did not succeed (stderr); true when it did.
bool trial_ok(std::size_t i, const core::TrialResult& tr) {
  if (tr.ok()) return true;
  std::fprintf(stderr, "trial %zu %s after %u attempt(s): %s\n", i,
               core::trial_outcome_name(tr.outcome), tr.attempts,
               tr.error.c_str());
  return false;
}

/// The rate-limit detector's verdict, when the trial's flows saw one.
void print_rate_limit_detector(const tcp::TcpTrialReport& rep,
                               const char* indent) {
  if (rep.rld_detections == 0) return;
  std::printf("%srate-limit detector: %llu detections  rate %.3f Gb/s  "
              "time-to-detect %.1f us\n",
              indent, static_cast<unsigned long long>(rep.rld_detections),
              rep.rld_rate_bps / 1e9,
              static_cast<double>(rep.rld_detect_time) / kPicosPerMicro);
}

/// Names of a {name, ...} table's rows, in table order.
template <class Table>
std::vector<std::string> names_of(const Table& table) {
  std::vector<std::string> names;
  for (const auto& row : table) names.emplace_back(row.name);
  return names;
}

std::string join(const std::vector<std::string>& names, const char* sep) {
  std::string out;
  for (const auto& n : names) out += (out.empty() ? "" : sep) + n;
  return out;
}

/// False, after naming `flag` on stderr, when `v` is negative.
bool non_negative(const char* flag, double v) {
  if (v >= 0) return true;
  std::fprintf(stderr, "--%s must not be negative\n", flag);
  return false;
}

/// False, after naming `flag` on stderr, unless `v` is above zero.
bool positive(const char* flag, double v) {
  if (v > 0) return true;
  std::fprintf(stderr, "--%s must be positive\n", flag);
  return false;
}

/// False, after naming `flag` on stderr, when `v` is outside [lo, hi].
bool in_range(const char* flag, std::int64_t v, std::int64_t lo,
              std::int64_t hi) {
  if (v >= lo && v <= hi) return true;
  std::fprintf(stderr, "--%s must be in [%lld, %lld]\n", flag,
               static_cast<long long>(lo), static_cast<long long>(hi));
  return false;
}

/// A frame size flag's bounds: the cbr workload stanza's [64, 1518].
bool frame_size_ok(std::int64_t v) {
  return in_range("frame-size", v, net::kEthMinFrame, net::kEthMaxFrame);
}

/// Run one trial of `topo` per `reports` slot, at seeds base_seed + i,
/// sharded over the runner pool; reports land in plan order at any --jobs.
std::vector<core::TrialResult> run_topology(
    const graph::TopologyFile& topo, std::uint64_t base_seed, Picos duration,
    const fault::FaultPlan& fplan, std::int64_t jobs, ObservabilityFlags& obs,
    std::vector<graph::TopologyTrialReport>& reports) {
  core::TrialPlan plan;
  plan.points.resize(reports.size());
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    plan.points[i].seed = base_seed + i;
  }
  plan.run = [&](const core::TrialPoint& pt) {
    graph::TopologyTrial trial(topo, pt.seed, duration, &fplan,
                               obs.trace_enabled() ? &obs.rec : nullptr,
                               obs.series_interval());
    obs.attach(trial.engine());
    trial.run();
    reports[pt.index] = trial.report();
    return core::TrialStats{};  // the callers print from the reports
  };
  core::RunnerConfig rcfg;
  rcfg.jobs = static_cast<std::size_t>(jobs);
  return core::Runner{rcfg}.run_resilient(plan);
}

/// Wire OSNT port 0 → DUT → OSNT port 1 (or back-to-back for "none").
/// The DUT is a one-node scenario graph, so the driver exercises the
/// same seam the topology loader does. The graph (null for "none") must
/// outlive the run.
std::unique_ptr<graph::Graph> wire(sim::Engine& eng, core::OsntDevice& osnt,
                                   const std::string& dut) {
  if (dut == "none") {
    hw::connect(osnt.port(0), osnt.port(1));
    return nullptr;
  }
  dut::LegacySwitchConfig cfg;
  if (dut == "lossy") cfg.lookup_rate_mpps = 2.0;
  auto g = std::make_unique<graph::Graph>(eng);
  g->emplace<graph::LegacySwitchBlock>(eng, "dut", cfg);
  osnt.port(0).out_link().connect(g->input("dut", 0));
  osnt.port(1).out_link().connect(g->input("dut", 1));
  g->connect_output("dut", 0, osnt.port(0).rx());
  g->connect_output("dut", 1, osnt.port(1).rx());
  g->start();
  // Prime MAC learning for the monitor-side address.
  net::PacketBuilder b;
  (void)osnt.port(1).tx().transmit(
      b.eth(net::MacAddr::from_index(2), net::MacAddr::from_index(1))
          .ipv4(net::Ipv4Addr::of(10, 0, 1, 1), net::Ipv4Addr::of(10, 0, 0, 1),
                net::ipproto::kUdp)
          .udp(5001, 1024)
          .build());
  eng.run();
  return g;
}

int cmd_latency(int argc, const char* const* argv) {
  double rate_gbps = 1.0, duration_ms = 5.0;
  std::int64_t frame_size = 256;
  std::string dut = "legacy";
  bool poisson = false;
  std::string faults_path;
  std::int64_t retries = 0, event_budget = 0, wall_deadline_ms = 0;
  ObservabilityFlags obs;
  CliParser cli{"osnt_run latency — one-way latency/jitter through a DUT"};
  cli.add_flag("rate-gbps", &rate_gbps, "offered L1 rate");
  cli.add_flag("frame-size", &frame_size, "frame size incl. FCS, 64..1518");
  cli.add_flag("duration-ms", &duration_ms, "simulated test duration");
  cli.add_flag("dut", &dut, "device under test: none|legacy|lossy");
  cli.add_flag("poisson", &poisson, "Poisson arrivals instead of CBR");
  cli.add_flag("faults", &faults_path, "JSON fault plan to inject");
  cli.add_flag("retries", &retries,
               "deterministic retries after a failed trial");
  cli.add_flag("event-budget", &event_budget,
               "abort a trial after this many sim events (0 = unlimited)");
  cli.add_flag("wall-deadline-ms", &wall_deadline_ms,
               "abort a trial after this much wall time (0 = unlimited)");
  obs.add_to(cli);
  obs.add_series_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!frame_size_ok(frame_size) || !positive("rate-gbps", rate_gbps) ||
      !non_negative("duration-ms", duration_ms) ||
      !in_range("retries", retries, 0, UINT32_MAX - 1) ||
      !non_negative("event-budget", static_cast<double>(event_budget)) ||
      !non_negative("wall-deadline-ms",
                    static_cast<double>(wall_deadline_ms))) {
    return 1;
  }
  if (!obs.validate(1, 1)) return 1;

  fault::FaultPlan fplan;
  if (!load_fault_plan(faults_path, fplan)) return 1;

  core::RunResult r;
  telemetry::SeriesData sdata;

  // Phrased as a one-point trial plan: the testbed lives inside the trial
  // (so telemetry shards flush before the snapshot below) and the runner
  // contributes its own metric family to --metrics-out.
  core::TrialPlan plan;
  plan.points.resize(1);
  plan.run = [&](const core::TrialPoint& pt) {
    sim::Engine eng;
    obs.attach(eng);
    core::OsntDevice osnt{eng};
    const auto dut_graph = wire(eng, osnt, dut);

    std::unique_ptr<fault::Injector> inj;
    if (!fplan.events.empty()) {
      inj = std::make_unique<fault::Injector>(eng, fplan);
      inj->attach_device(osnt);
      inj->arm();
    }

    const Picos duration = from_micros(duration_ms * 1000.0);
    // Sim-time sampler over the monitor pipeline: the in-plane view of
    // the run as it unfolds, not just end-of-run totals.
    std::unique_ptr<telemetry::TimeSeries> series;
    if (const Picos ival = obs.series_interval(); ival > 0) {
      series = std::make_unique<telemetry::TimeSeries>(ival);
      const mon::RxPipeline& rx = osnt.rx(1);
      series->add_counter("mon.rx.frames_seen", [&rx] { return rx.seen(); });
      series->add_counter("mon.rx.captured", [&rx] { return rx.captured(); });
      series->add_counter("mon.rx.dma_drops",
                          [&rx] { return rx.dma_drops(); });
      series->add_histogram("mon.rx.rtt.ns",
                            [&rx] { return rx.rtt_probe().merged(); });
      series->attach(eng, duration);
    }

    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::gbps(rate_gbps);
    spec.frame_size = static_cast<std::size_t>(frame_size);
    spec.seed = pt.seed;
    if (poisson) spec.arrivals = core::TrafficSpec::Arrivals::kPoisson;
    r = core::run_capture_test(eng, osnt, 0, 1, spec, duration);
    if (series) {
      series->finish();
      sdata = series->take();
    }
    core::TrialStats s;
    s.tx_frames = r.tx_frames;
    s.rx_frames = r.rx_frames;
    s.offered_gbps = r.offered_gbps;
    return s;
  };

  core::RunnerConfig rcfg;
  rcfg.max_attempts = static_cast<std::uint32_t>(retries) + 1;
  rcfg.event_budget = static_cast<std::uint64_t>(event_budget);
  rcfg.wall_deadline_ms = static_cast<std::uint64_t>(wall_deadline_ms);
  const auto outcomes = core::Runner{rcfg}.run_resilient(plan);
  const auto& tr = outcomes.front();
  if (!tr.ok()) {
    std::fprintf(stderr, "trial %s after %u attempt(s): %s\n",
                 core::trial_outcome_name(tr.outcome), tr.attempts,
                 tr.error.c_str());
    return 1;
  }
  if (tr.outcome == core::TrialOutcome::kRetried) {
    std::printf("degraded: ok on attempt %u (rederived seed %llu)\n",
                tr.attempts,
                static_cast<unsigned long long>(tr.seed_used));
  }

  std::printf("tx %llu  rx %llu  loss %.4f%%  offered %.3f Gb/s\n",
              static_cast<unsigned long long>(r.tx_frames),
              static_cast<unsigned long long>(r.rx_frames),
              r.loss_fraction() * 100.0, r.offered_gbps);
  std::printf("latency ns: min %.1f p50 %.1f p99 %.1f max %.1f\n",
              r.latency_ns.min(), r.latency_ns.quantile(0.5),
              r.latency_ns.quantile(0.99), r.latency_ns.max());
  std::printf("jitter ns:  p50 %.2f p99 %.2f\n", r.jitter_ns.quantile(0.5),
              r.jitter_ns.quantile(0.99));
  if (!obs.write_series(sdata)) return 1;
  return obs.finish() ? 0 : 1;
}

int cmd_throughput(int argc, const char* const* argv) {
  std::int64_t frame_size = 0;  // 0 = full RFC 2544 sweep
  double resolution = 0.01;
  std::string dut = "legacy";
  std::int64_t jobs = 1;
  ObservabilityFlags obs;
  CliParser cli{"osnt_run throughput — RFC 2544 zero-loss search"};
  cli.add_flag("frame-size", &frame_size,
               "single size in 64..1518, or 0 for the sweep");
  cli.add_flag("resolution", &resolution, "search resolution (fraction)");
  cli.add_flag("dut", &dut, "device under test: none|legacy|lossy");
  cli.add_flag("jobs", &jobs,
               "worker threads for the sweep (0 = all hardware threads)");
  obs.add_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if ((frame_size != 0 && !frame_size_ok(frame_size)) ||
      !positive("resolution", resolution) ||
      !non_negative("jobs", static_cast<double>(jobs))) {
    return 1;
  }
  // The trace recorder is single-threaded; a sharded sweep cannot share
  // one. Metrics shards merge commutatively, so --metrics-out is fine at
  // any job count.
  if (obs.trace_enabled() && jobs != 1) {
    std::fprintf(stderr, "--trace requires --jobs 1\n");
    return 1;
  }

  // Each trial builds a pristine testbed, so the sweep can shard across
  // cores; output is identical for any --jobs value.
  const core::Trial trial = [&dut, &obs](const core::TrialPoint& pt) {
    sim::Engine eng;
    obs.attach(eng);
    core::OsntDevice osnt{eng};
    const auto dut_graph = wire(eng, osnt, dut);
    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::line_rate(pt.load_fraction);
    spec.frame_size = pt.frame_size;
    const auto r = core::run_capture_test(eng, osnt, 0, 1, spec, kPicosPerMilli);
    core::TrialStats s;
    s.tx_frames = r.tx_frames;
    s.rx_frames = r.rx_frames;
    s.offered_gbps = r.offered_gbps;
    s.latency_ns = r.latency_ns;
    return s;
  };

  core::ThroughputSearchConfig cfg;
  cfg.resolution = resolution;
  core::RunnerConfig runner;
  runner.jobs = static_cast<std::size_t>(jobs);
  std::printf("%7s %12s %10s %10s\n", "size", "zero-loss", "Gb/s", "Mpps");
  if (frame_size > 0) {
    const auto pt =
        core::find_throughput(trial, static_cast<std::size_t>(frame_size), cfg);
    std::printf("%6zuB %11.1f%% %10.3f %10.3f\n", pt.frame_size,
                pt.max_load_fraction * 100.0, pt.gbps, pt.mpps);
  } else {
    for (const auto& pt : core::throughput_sweep(
             trial, core::rfc2544_frame_sizes(), cfg, runner)) {
      std::printf("%6zuB %11.1f%% %10.3f %10.3f\n", pt.frame_size,
                  pt.max_load_fraction * 100.0, pt.gbps, pt.mpps);
    }
  }
  return obs.finish() ? 0 : 1;
}

int cmd_capture(int argc, const char* const* argv) {
  double rate_gbps = 4.0;
  std::int64_t snap = 0, flows = 16;
  std::string pcap_out;
  ObservabilityFlags obs;
  CliParser cli{"osnt_run capture — capture a traffic mix, report flows"};
  cli.add_flag("rate-gbps", &rate_gbps, "offered L1 rate");
  cli.add_flag("snap", &snap, "cutter snap length (0 = full frames)");
  cli.add_flag("flows", &flows, "concurrent flows");
  cli.add_flag("pcap-out", &pcap_out, "write the capture to this .pcap");
  obs.add_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!positive("rate-gbps", rate_gbps) ||
      !in_range("flows", flows, 1, UINT32_MAX) ||
      !non_negative("snap", static_cast<double>(snap))) {
    return 1;
  }

  sim::Engine eng;
  obs.attach(eng);
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));
  osnt.rx(1).cutter().set_snap_len(static_cast<std::size_t>(snap));

  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(rate_gbps);
  spec.sizes = core::TrafficSpec::Sizes::kImix;
  spec.flow_count = static_cast<std::uint32_t>(flows);
  const auto r =
      core::run_capture_test(eng, osnt, 0, 1, spec, 5 * kPicosPerMilli);

  std::printf("captured %llu records (DMA drops %llu)\n",
              static_cast<unsigned long long>(r.captured),
              static_cast<unsigned long long>(r.dma_drops));
  mon::FlowStatsCollector collector;
  collector.add_all(osnt.capture());
  std::printf("%zu flows; top talkers:\n", collector.flow_count());
  for (const auto& f : collector.top_by_bytes(5)) {
    std::printf("  %s:%u > %s:%u  %llu pkts  %llu bytes  %.2f Mb/s\n",
                f.key.src_ip.to_string().c_str(), f.key.src_port,
                f.key.dst_ip.to_string().c_str(), f.key.dst_port,
                static_cast<unsigned long long>(f.packets),
                static_cast<unsigned long long>(f.bytes),
                f.mean_rate_bps() / 1e6);
  }
  if (!pcap_out.empty()) {
    osnt.capture().write_pcap(pcap_out);
    std::printf("wrote %zu records to %s\n", osnt.capture().size(),
                pcap_out.c_str());
  }
  return obs.finish() ? 0 : 1;
}

/// The oflops --module choices: each row builds its module from the
/// --table-size and --rounds flags.
using ModulePtr = std::unique_ptr<oflops::MeasurementModule>;
struct OflopsModule {
  const char* name;
  ModulePtr (*make)(std::size_t table_size, std::size_t rounds);
};

template <class Module>
ModulePtr make_module(std::size_t, std::size_t) {
  return std::make_unique<Module>();
}

constexpr OflopsModule kOflopsModules[] = {
    {"echo", make_module<oflops::EchoRttModule>},
    {"packet_in", make_module<oflops::PacketInLatencyModule>},
    {"flowmod",
     [](std::size_t table_size, std::size_t rounds) -> ModulePtr {
       oflops::FlowModLatencyConfig cfg;
       cfg.table_size = table_size;
       cfg.rounds = rounds;
       return std::make_unique<oflops::FlowModLatencyModule>(cfg);
     }},
    {"consistency",
     [](std::size_t table_size, std::size_t) -> ModulePtr {
       oflops::ConsistencyConfig cfg;
       cfg.rule_count = table_size;
       return std::make_unique<oflops::ConsistencyModule>(cfg);
     }},
    {"stats_poll",
     [](std::size_t table_size, std::size_t) -> ModulePtr {
       oflops::StatsPollConfig cfg;
       cfg.table_size = table_size;
       return std::make_unique<oflops::StatsPollModule>(cfg);
     }},
    {"queue_delay", make_module<oflops::QueueDelayModule>},
    {"interaction", make_module<oflops::InteractionModule>},
};

int cmd_oflops(int argc, const char* const* argv) {
  std::string module = "flowmod";
  std::int64_t table_size = 128, rounds = 10;
  std::string faults_path;
  CliParser cli{
      "osnt_run oflops — OFLOPS-turbo module against an OpenFlow switch"};
  cli.add_flag("module", &module, join(names_of(kOflopsModules), "|"));
  cli.add_flag("table-size", &table_size, "flow table occupancy");
  cli.add_flag("rounds", &rounds, "measurement rounds (flowmod)");
  cli.add_flag("faults", &faults_path,
               "JSON fault plan (ctrl_disconnect targets the control channel)");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  // flowmod counts rounds after measuring one, so --rounds 0 would run 1.
  if (!non_negative("table-size", static_cast<double>(table_size)) ||
      !positive("rounds", static_cast<double>(rounds))) {
    return 1;
  }

  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 2 * kPicosPerMilli;
  sw_cfg.table.max_entries = 16384;
  oflops::Testbed tb{sw_cfg};

  fault::FaultPlan fplan;
  if (!load_fault_plan(faults_path, fplan)) return 1;
  std::unique_ptr<fault::Injector> inj;
  if (!faults_path.empty()) {
    try {
      inj = std::make_unique<fault::Injector>(tb.eng, std::move(fplan));
      inj->attach_device(tb.osnt).attach_channel(tb.chan);
      inj->arm();
    } catch (const fault::PlanError& e) {
      std::fprintf(stderr, "bad fault plan %s: %s\n", faults_path.c_str(),
                   e.what());
      return 1;
    }
  }

  for (const OflopsModule& m : kOflopsModules) {
    if (module != m.name) continue;
    const auto mod = m.make(static_cast<std::size_t>(table_size),
                            static_cast<std::size_t>(rounds));
    tb.ctx.run(*mod, 600 * kPicosPerSec).print();
    return 0;
  }
  std::fprintf(stderr, "unknown module '%s'%s\n", module.c_str(),
               did_you_mean(module, names_of(kOflopsModules)).c_str());
  return 1;
}

int cmd_tcp(int argc, const char* const* argv) {
  std::string cc = "newreno";
  std::int64_t flows = 1, trials = 1, jobs = 1, mss = 1448;
  std::int64_t queue_segments = 256, seed = 1, rwnd_kb = 1024;
  double duration_ms = 10.0, bottleneck_gbps = 5.0;
  bool rate_limit_detector = false;
  std::string faults_path;
  ObservabilityFlags obs;
  CliParser cli{
      "osnt_run tcp — closed-loop congestion-controlled flows over the "
      "simulated dataplane"};
  cli.add_flag("cc", &cc, "congestion control: newreno|cubic|bbr");
  cli.add_flag("flows", &flows, "concurrent flows sharing the bottleneck");
  cli.add_flag("duration-ms", &duration_ms, "simulated test duration");
  cli.add_flag("mss", &mss,
               "segment payload bytes, at most 1448 (= 1518 B frames)");
  cli.add_flag("bottleneck-gbps", &bottleneck_gbps,
               "bottleneck drain rate (0 = port line rate)");
  cli.add_flag("queue-segments", &queue_segments,
               "bottleneck buffer depth in frames");
  cli.add_flag("rwnd-kb", &rwnd_kb, "receiver window per flow, KiB");
  cli.add_flag("rate-limit-detector", &rate_limit_detector,
               "detect in-path policers/shapers and adapt the cc to them");
  cli.add_flag("seed", &seed, "base seed (trial i runs at seed+i)");
  cli.add_flag("faults", &faults_path, "JSON fault plan to inject");
  cli.add_flag("trials", &trials, "independent trials (distinct seeds)");
  cli.add_flag("jobs", &jobs,
               "worker threads for the trials (0 = all hardware threads)");
  obs.add_to(cli);
  obs.add_series_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (flows <= 0 || trials <= 0) {
    std::fprintf(stderr, "--flows/--trials must be positive\n");
    return 1;
  }
  if (!in_range("mss", mss, 1, tcp::kMaxMss)) return 1;
  if (!positive("rwnd-kb", static_cast<double>(rwnd_kb))) return 1;
  if (!non_negative("bottleneck-gbps", bottleneck_gbps) ||
      !non_negative("queue-segments", static_cast<double>(queue_segments)) ||
      !non_negative("seed", static_cast<double>(seed)) ||
      !non_negative("duration-ms", duration_ms) ||
      !non_negative("jobs", static_cast<double>(jobs))) {
    return 1;
  }
  if (!obs.validate(trials, jobs)) return 1;

  // The flags fill a tcp workload stanza; the preset puts it on one
  // pass-through monitor block and checks it like a topology file.
  graph::WorkloadSpec w;
  w.kind = graph::WorkloadSpec::Kind::kTcp;
  w.flows = static_cast<std::size_t>(flows);
  w.cc = cc;
  w.mss = static_cast<std::uint32_t>(mss);
  w.bottleneck_gbps = bottleneck_gbps;
  w.queue_segments = static_cast<std::size_t>(queue_segments);
  w.rwnd_kb = static_cast<std::uint64_t>(rwnd_kb);
  w.rate_limit_detector = rate_limit_detector;
  graph::TopologyFile topo;
  try {
    topo = graph::tcp_preset(std::move(w));
  } catch (const graph::TopologyError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  topo.duration = from_micros(duration_ms * 1000.0);

  fault::FaultPlan fplan;
  if (!load_fault_plan(faults_path, fplan)) return 1;

  std::vector<graph::TopologyTrialReport> reports(
      static_cast<std::size_t>(trials));
  const auto outcomes =
      run_topology(topo, static_cast<std::uint64_t>(seed), topo.duration,
                   fplan, jobs, obs, reports);

  std::printf("%5s %6s %10s %8s %8s %8s %8s %8s\n", "trial", "seed",
              "goodput", "segs", "retx", "rto", "fastrtx", "drops");
  int rc = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& tr = outcomes[i];
    if (!trial_ok(i, tr)) {
      rc = 1;
      continue;
    }
    const tcp::TcpTrialReport& rep = reports[i].tcp;
    std::printf("%5zu %6llu %7.3f Gb %8llu %8llu %8llu %8llu %8llu\n", i,
                static_cast<unsigned long long>(tr.seed_used),
                rep.goodput_bps / 1e9,
                static_cast<unsigned long long>(rep.segs_sent),
                static_cast<unsigned long long>(rep.retransmits),
                static_cast<unsigned long long>(rep.rto_fires),
                static_cast<unsigned long long>(rep.fast_retx),
                static_cast<unsigned long long>(rep.queue_drops));
  }
  if (trials == 1 && outcomes.front().ok()) {
    const tcp::TcpTrialReport& rep = reports.front().tcp;
    std::printf("cc %s  flows %lld  cwnd reductions %llu  acks %llu  "
                "flow rate min %.3f / max %.3f Gb/s\n",
                cc.c_str(), static_cast<long long>(flows),
                static_cast<unsigned long long>(rep.cwnd_reductions),
                static_cast<unsigned long long>(rep.acks_sent),
                rep.min_flow_rate_bps / 1e9, rep.max_flow_rate_bps / 1e9);
    print_rate_limit_detector(rep, "");
  }
  if (rc == 0 && !obs.write_series(reports)) rc = 1;
  if (!obs.finish()) rc = 1;
  return rc;
}

int cmd_topo(int argc, const char* const* argv) {
  std::int64_t trials = 1, jobs = 1, seed = 0;
  double duration_ms = 0.0;
  bool validate_only = false;
  std::string faults_path;
  ObservabilityFlags obs;
  CliParser cli{"osnt_run topo FILE.json — run a declarative scenario-graph "
                "topology\n(see examples/topologies/)\nblocks: " +
                join(graph::TopologyFile::known_types(), ", ")};
  cli.add_flag("seed", &seed, "base seed (0 = the file's; trial i adds i)");
  cli.add_flag("duration-ms", &duration_ms,
               "simulated duration (0 = the file's)");
  cli.add_flag("faults", &faults_path, "JSON fault plan to inject");
  cli.add_flag("validate-only", &validate_only,
               "set up one trial (graph, workload, fault plan) without "
               "running it, print the block table, and exit");
  cli.add_flag("trials", &trials, "independent trials (distinct seeds)");
  cli.add_flag("jobs", &jobs,
               "worker threads for the trials (0 = all hardware threads)");
  obs.add_to(cli);
  obs.add_series_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (cli.positional().size() != 1) {
    std::fprintf(stderr, "usage: osnt_run topo FILE.json [flags]\n");
    return 1;
  }
  if (trials <= 0) {
    std::fprintf(stderr, "--trials must be positive\n");
    return 1;
  }
  if (!non_negative("seed", static_cast<double>(seed)) ||
      !non_negative("duration-ms", duration_ms) ||
      !non_negative("jobs", static_cast<double>(jobs))) {
    return 1;
  }
  if (!obs.validate(trials, jobs)) return 1;

  graph::TopologyFile topo;
  try {
    topo = graph::TopologyFile::load(cli.positional()[0]);
  } catch (const graph::GraphError& e) {
    std::fprintf(stderr, "%s: %s\n", cli.positional()[0].c_str(), e.what());
    return 1;
  }
  const std::uint64_t base_seed =
      seed > 0 ? static_cast<std::uint64_t>(seed) : topo.seed;
  const Picos duration =
      duration_ms > 0 ? from_micros(duration_ms * 1000.0) : topo.duration;

  fault::FaultPlan fplan;
  if (!load_fault_plan(faults_path, fplan)) return 1;

  const auto kind = topo.workload.kind;
  std::printf("topology %s: %zu blocks, %zu edges, workload %s\n",
              topo.name.empty() ? cli.positional()[0].c_str()
                                : topo.name.c_str(),
              topo.blocks.size(), topo.edges.size(),
              kind == graph::WorkloadSpec::Kind::kTcp   ? "tcp"
              : kind == graph::WorkloadSpec::Kind::kCbr ? "cbr"
                                                        : "none");

  if (validate_only) {
    // Dry run: one trial's own set-up (graph, workload endpoints, tcp
    // workload, armed fault plan) on an engine that never runs, so it
    // rejects exactly what each run's trial would, with the same words.
    try {
      graph::TopologyTrial trial(topo, base_seed, duration, &fplan);
      std::printf("%-16s %-16s %7s %8s\n", "block", "type", "inputs",
                  "outputs");
      for (std::size_t i = 0; i < topo.blocks.size(); ++i) {
        const graph::Block& b = trial.graph().block(i);
        std::printf("%-16s %-16s %7zu %8zu\n", topo.blocks[i].name.c_str(),
                    topo.blocks[i].type.c_str(), b.num_inputs(),
                    b.num_outputs());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("ok: topology valid, workload valid%s\n",
                fplan.events.empty() ? "" : ", fault targets resolved");
    return 0;
  }

  std::vector<graph::TopologyTrialReport> reports(
      static_cast<std::size_t>(trials));
  const auto outcomes =
      run_topology(topo, base_seed, duration, fplan, jobs, obs, reports);

  int rc = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& tr = outcomes[i];
    if (!trial_ok(i, tr)) {
      rc = 1;
      continue;
    }
    const auto& rep = reports[i];
    if (kind == graph::WorkloadSpec::Kind::kTcp) {
      std::printf(
          "trial %zu seed %llu: goodput %.3f Gb/s  segs %llu  retx %llu  "
          "graph drops %llu\n",
          i, static_cast<unsigned long long>(tr.seed_used),
          rep.tcp.goodput_bps / 1e9,
          static_cast<unsigned long long>(rep.tcp.segs_sent),
          static_cast<unsigned long long>(rep.tcp.retransmits),
          static_cast<unsigned long long>(rep.graph_drops));
      if (rep.tcp.rtt_min_ns > 0.0) {
        std::printf("  source rtt: p99 %.0f ns (%.2fx min)\n",
                    rep.tcp.rtt_p99_ns,
                    rep.tcp.rtt_p99_ns / rep.tcp.rtt_min_ns);
      }
      print_rate_limit_detector(rep.tcp, "  ");
    } else if (kind == graph::WorkloadSpec::Kind::kCbr) {
      std::printf(
          "trial %zu seed %llu: tx %llu  rx %llu  loss %.4f%%  "
          "graph drops %llu\n",
          i, static_cast<unsigned long long>(tr.seed_used),
          static_cast<unsigned long long>(rep.cbr.tx_frames),
          static_cast<unsigned long long>(rep.cbr.rx_frames),
          rep.cbr.loss_fraction() * 100.0,
          static_cast<unsigned long long>(rep.graph_drops));
    } else {
      std::printf("trial %zu seed %llu: %llu frames through the graph\n", i,
                  static_cast<unsigned long long>(tr.seed_used),
                  static_cast<unsigned long long>(rep.graph_frames_in));
    }
  }
  if (rc == 0) {
    std::printf("%-16s %12s %12s %10s %9s %9s %9s\n", "block", "frames_in",
                "frames_out", "drops", "rtt_p50", "rtt_p90", "rtt_p99");
    for (const auto& b : reports.front().blocks) {
      std::printf("%-16s %12llu %12llu %10llu", b.name.c_str(),
                  static_cast<unsigned long long>(b.frames_in),
                  static_cast<unsigned long long>(b.frames_out),
                  static_cast<unsigned long long>(b.drops));
      if (b.rtt_samples > 0) {
        std::printf(" %8.0fns %8.0fns %8.0fns\n", b.rtt_p50_ns, b.rtt_p90_ns,
                    b.rtt_p99_ns);
      } else {
        std::printf(" %9s %9s %9s\n", "-", "-", "-");
      }
    }
    if (!obs.write_series(reports)) rc = 1;
  }
  if (!obs.finish()) rc = 1;
  return rc;
}

int cmd_fleet(int argc, const char* const* argv) {
  std::int64_t leaves = 2, spines = 2, per_leaf = 2, frames = 100;
  CliParser cli{"osnt_run fleet — latency matrix over a leaf-spine fabric"};
  cli.add_flag("leaves", &leaves, "leaf switches");
  cli.add_flag("spines", &spines, "spine switches");
  cli.add_flag("per-leaf", &per_leaf, "testers per leaf");
  cli.add_flag("frames", &frames, "probes per pair");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  // tester_ip() packs the tester index into two octets (10.200.x.y), so
  // leaves x per-leaf stays within 65536; the receiving tester captures
  // every probe of a pair.
  constexpr std::int64_t kMaxTesters = 65536, kMaxFrames = 100000;
  if (!in_range("leaves", leaves, 1, kMaxTesters) ||
      !in_range("spines", spines, 1, kMaxTesters) ||
      !in_range("per-leaf", per_leaf, 1, kMaxTesters / leaves) ||
      !in_range("frames", frames, 1, kMaxFrames)) {
    return 1;
  }

  sim::Engine eng;
  topo::FabricConfig cfg;
  cfg.leaves = static_cast<std::size_t>(leaves);
  cfg.spines = static_cast<std::size_t>(spines);
  cfg.testers_per_leaf = static_cast<std::size_t>(per_leaf);
  topo::LeafSpineFabric fabric{eng, cfg};
  const std::size_t n = fabric.tester_count();
  std::printf("p50 one-way latency (ns), %zu testers:\n      ", n);
  for (std::size_t j = 0; j < n; ++j) std::printf("   T%-3zu ", j);
  std::printf("\n");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("  T%-3zu", i);
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        std::printf("%8s", "-");
        continue;
      }
      std::printf("%8.0f", fabric
                               .measure_latency(i, j,
                                                static_cast<std::size_t>(frames))
                               .quantile(0.5));
    }
    std::printf("\n");
  }
  return 0;
}

/// The --log-level choices, in order of increasing severity.
constexpr struct {
  const char* name;
  LogLevel level;
} kLogLevels[] = {{"debug", LogLevel::kDebug},
                  {"info", LogLevel::kInfo},
                  {"warn", LogLevel::kWarn},
                  {"error", LogLevel::kError},
                  {"off", LogLevel::kOff}};

/// Global --log-level handling: accepted anywhere on the command line,
/// stripped before subcommand parsing. Returns false on a bad level name.
bool apply_log_level(const std::string& name) {
  for (const auto& l : kLogLevels) {
    if (name != l.name) continue;
    set_log_level(l.level);
    return true;
  }
  std::fprintf(stderr, "bad --log-level '%s' (%s)\n", name.c_str(),
               join(names_of(kLogLevels), "|").c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  args.push_back(argc > 0 ? argv[0] : "osnt_run");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--log-level") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--log-level needs a value\n");
        return 1;
      }
      if (!apply_log_level(argv[++i])) return 1;
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      if (!apply_log_level(argv[i] + 12)) return 1;
    } else {
      args.push_back(argv[i]);
    }
  }

  static constexpr struct {
    const char* name;
    int (*run)(int, const char* const*);
  } kCommands[] = {{"latency", cmd_latency}, {"throughput", cmd_throughput},
                   {"capture", cmd_capture}, {"tcp", cmd_tcp},
                   {"topo", cmd_topo},       {"oflops", cmd_oflops},
                   {"fleet", cmd_fleet}};
  if (args.size() < 2) {
    std::fprintf(stderr,
                 "usage: osnt_run <%s> [flags] [--log-level %s]\n"
                 "       osnt_run <cmd> --help\n",
                 join(names_of(kCommands), "|").c_str(),
                 join(names_of(kLogLevels), "|").c_str());
    return 1;
  }
  const std::string cmd = args[1];
  for (const auto& c : kCommands) {
    if (cmd == c.name) {
      return c.run(static_cast<int>(args.size()) - 1, args.data() + 1);
    }
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 1;
}
