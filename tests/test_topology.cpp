// Topology loader: strict-JSON error paths (unknown block types, dangling
// edges, port mismatches, duplicate names — each with a position and a
// did-you-mean hint), a round-trip of the schema into a live trial, and
// the headline determinism claim: a dumbbell of closed-loop TCP flows is
// byte-identical under kSimOnly telemetry at any --jobs value.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "osnt/common/json.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/telemetry/series.hpp"

namespace osnt {
namespace {

using graph::TopologyFile;

/// Parse `text` expecting a TopologyError; return its message for
/// substring checks.
std::string load_error(const std::string& text) {
  try {
    (void)TopologyFile::from_json(text);
  } catch (const graph::TopologyError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected TopologyError, topology loaded fine";
  return {};
}

void expect_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "expected \"" << needle << "\" in: " << msg;
}

constexpr const char* kMinimalCbr = R"({
  "name": "mini",
  "seed": 9,
  "duration_us": 1500,
  "blocks": [
    {"name": "q", "type": "fifo_queue", "rate_gbps": 10.0, "queue_frames": 32}
  ],
  "edges": [],
  "workload": {
    "kind": "cbr", "rate_gbps": 2.0, "frame_size": 512,
    "ingress": "q:0", "egress": "q:0"
  }
})";

TEST(Topology, ParsesMinimalFile) {
  const TopologyFile t = TopologyFile::from_json(kMinimalCbr);
  EXPECT_EQ(t.name, "mini");
  EXPECT_EQ(t.seed, 9u);
  EXPECT_EQ(t.duration, 1500 * kPicosPerMicro);
  ASSERT_EQ(t.blocks.size(), 1u);
  EXPECT_EQ(t.blocks[0].type, "fifo_queue");
  EXPECT_EQ(std::get<graph::FifoQueueConfig>(t.blocks[0].config).queue_frames,
            32u);
  EXPECT_EQ(t.workload.kind, graph::WorkloadSpec::Kind::kCbr);
  EXPECT_EQ(t.workload.frame_size, 512u);
  EXPECT_EQ(t.workload.ingress.block, "q");
  EXPECT_EQ(t.workload.egress.port, 0u);
}

TEST(Topology, KnownTypesCoverTheBlockLibrary) {
  // Every type the loader names parses from a minimal block and builds a
  // block whose ports match what validation checked against.
  for (const std::string& type : TopologyFile::known_types()) {
    SCOPED_TRACE(type);
    const std::string extra =
        type == "burst_source" ? R"(, "pattern": "on_off")" : "";
    const TopologyFile t = TopologyFile::from_json(
        R"({"blocks": [{"name": "b", "type": ")" + type + "\"" + extra +
        "}]}");
    ASSERT_EQ(t.blocks.size(), 1u);
    const graph::BlockSpec& spec = t.blocks[0];
    EXPECT_EQ(spec.type, type);
    sim::Engine eng;
    graph::Graph g{eng};
    t.build(eng, g, 1);
    ASSERT_EQ(g.num_blocks(), 1u);
    EXPECT_EQ(g.block(0).num_inputs(), spec.num_inputs);
    EXPECT_EQ(g.block(0).num_outputs(), spec.num_outputs);
  }
}

TEST(Topology, UnknownBlockTypeSuggestsNearest) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_quue"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "unknown block type 'fifo_quue'");
  expect_contains(msg, "did you mean 'fifo_queue'?");
  expect_contains(msg, "line");  // position of the offending value
}

TEST(Topology, UnknownKeySuggestsNearest) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue", "rate_gbsp": 10.0}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "unknown key 'rate_gbsp'");
  expect_contains(msg, "did you mean 'rate_gbps'?");
}

TEST(Topology, HostileNestingIsAPositionedError) {
  // 100 000 levels once overflowed the recursive reader's stack. The
  // reader stops at kMaxDepth: `{"blocks":` is 10 bytes and holds level
  // 1, so the first '[' past the limit sits at column 10 + kMaxDepth.
  const std::string msg =
      load_error("{\"blocks\":" + std::string(100000, '['));
  expect_contains(msg, "nesting deeper than " +
                           std::to_string(json::kMaxDepth) + " levels");
  expect_contains(msg, "(line 1 column " +
                           std::to_string(10 + json::kMaxDepth) + ")");

  // The limit itself is fine: the error is the schema's, not the depth's.
  const std::string at_limit = load_error(
      "{\"blocks\":" + std::string(json::kMaxDepth - 1, '[') +
      std::string(json::kMaxDepth - 1, ']') + "}");
  EXPECT_EQ(at_limit.find("nesting"), std::string::npos) << at_limit;
}

TEST(Topology, HostileEndpointPortIsAPositionedError) {
  // A port past 32 bits is a positioned load error, not a process abort.
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"}],
    "workload": {"kind": "cbr", "ingress": "q:99999999999999999999999",
                 "egress": "q:0"}
  })");
  expect_contains(msg, "workload.ingress: port in endpoint");
  expect_contains(msg, "exceeds 4294967295");
  expect_contains(msg, "(line 4 column 44)");

  const std::string edge = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"},
               {"name": "s", "type": "sink"}],
    "edges": [{"from": "q:4294967296", "to": "s"}]
  })");
  expect_contains(edge, "edges[0].from: port in endpoint");
  expect_contains(edge, "(line 5 column 24)");

  // Anything but plain digits after the colon is still a bad port.
  for (const char* port : {"q:", "q:-1", "q:+1", "q:1x"}) {
    const std::string bad = load_error(
        std::string(R"({"blocks": [{"name": "q", "type": "fifo_queue"}],
          "edges": [{"from": ")") +
        port + R"(", "to": "q"}]})");
    expect_contains(bad, "bad port in endpoint");
  }
}

TEST(Topology, WorkloadCountsDoNotNarrow) {
  // 2^32 + 1 must not wrap to 1 in the 32-bit fields.
  const std::string mss = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"}],
    "workload": {"kind": "tcp", "mss": 4294967297,
                 "ingress": "q:0", "egress": "q:0"}
  })");
  expect_contains(mss, "workload: 'mss' must be in [1, 1448]");
  expect_contains(mss, "(line 4 column 40)");

  const std::string flows = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"}],
    "workload": {"kind": "cbr", "flows": 4294967297,
                 "ingress": "q:0", "egress": "q:0"}
  })");
  expect_contains(flows, "workload: 'flows' must be in [1, 4294967295]");
  expect_contains(flows, "(line 4 column 42)");

  // Counts past 2^64 fail as counts, not as a float-to-int conversion.
  const std::string huge = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue", "queue_frames": 1e30}]
  })");
  expect_contains(huge, "'queue_frames' must be a non-negative integer");
}

TEST(Topology, LoadRejectsCbrWorkloadsTheRunCannotSend) {
  // Loading runs the workload checks, so a runt, a jumbo past the MAC's
  // limit or a zero rate fails before any trial starts.
  const auto cbr = [](const std::string& fields) {
    return load_error(R"({
      "blocks": [{"name": "q", "type": "fifo_queue"}],
      "workload": {"kind": "cbr", )" + fields + R"(,
                   "ingress": "q:0", "egress": "q:0"}
    })");
  };
  expect_contains(cbr(R"("frame_size": 20)"), "'frame_size'");
  expect_contains(cbr(R"("frame_size": 100000)"), "'frame_size'");
  expect_contains(cbr(R"("rate_gbps": 0)"), "'rate_gbps'");
}

TEST(Topology, MssMustFitOneEthernetFrame) {
  // The MAC drops a frame over 1518 B, so a larger MSS never delivers.
  const std::string over = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"}],
    "workload": {"kind": "tcp", "mss": 1449,
                 "ingress": "q:0", "egress": "q:0"}
  })");
  expect_contains(over, "'mss' must be in [1, 1448]");
  const std::string zero = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"}],
    "workload": {"kind": "tcp", "mss": 0, "ingress": "q:0", "egress": "q:0"}
  })");
  expect_contains(zero, "'mss' must be in [1, 1448]");

  const auto at_bound = graph::TopologyFile::from_json(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"}],
    "workload": {"kind": "tcp", "mss": 1448, "ingress": "q:0", "egress": "q:0"}
  })");
  EXPECT_EQ(at_bound.workload.mss, tcp::kMaxMss);
}

TEST(Topology, DanglingEdgeIsAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "queue0", "type": "fifo_queue"},
               {"name": "drain", "type": "sink"}],
    "edges": [{"from": "queue0:0", "to": "drain0:0"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "unknown block 'drain0'");
  expect_contains(msg, "did you mean 'drain'?");
}

TEST(Topology, PortCountMismatchIsAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "spray", "type": "ecmp", "fanout": 2},
               {"name": "drain", "type": "sink"}],
    "edges": [{"from": "spray:2", "to": "drain:0"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "block 'spray' has no output port 2");
  expect_contains(msg, "outputs: 2");
}

TEST(Topology, DuplicateBlockNameIsAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"},
               {"name": "q", "type": "sink"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "duplicate block name 'q'");
}

TEST(Topology, DoubleWiredOutputIsAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"},
               {"name": "a", "type": "sink"},
               {"name": "b", "type": "sink"}],
    "edges": [{"from": "q:0", "to": "a:0"}, {"from": "q:0", "to": "b:0"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "output 'q:0' is already wired");
}

TEST(Topology, ConflictingTimeUnitsAreAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "w", "type": "delay_ber",
                "delay_ns": 10, "delay_us": 1}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "'delay' given in more than one unit");
}

TEST(Topology, CbrTrialRunsThroughTheGraph) {
  const TopologyFile t = TopologyFile::from_json(kMinimalCbr);
  const graph::TopologyTrialReport r = graph::run_topology_trial(t, t.seed);
  EXPECT_GT(r.cbr.tx_frames, 0u);
  EXPECT_GT(r.cbr.rx_frames, 0u);
  EXPECT_LT(r.cbr.loss_fraction(), 0.01);
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_EQ(r.blocks[0].name, "q");
  EXPECT_EQ(r.blocks[0].frames_in, r.cbr.tx_frames);
  EXPECT_EQ(r.graph_frames_in, r.blocks[0].frames_in);
}

// A scaled-down dumbbell10: closed-loop TCP flows share a RED bottleneck
// with an in-plane monitor tap behind it, and a symmetric delay on the
// ACK path.
constexpr const char* kMiniDumbbell = R"({
  "name": "mini_dumbbell",
  "seed": 1,
  "duration_ms": 4,
  "blocks": [
    {"name": "access", "type": "delay_ber", "delay_us": 2},
    {"name": "bottleneck", "type": "red", "rate_gbps": 1.0,
     "queue_frames": 60, "min_th": 8, "max_th": 30, "max_p": 0.1},
    {"name": "tap", "type": "monitor", "rtt_probe": true},
    {"name": "ackpath", "type": "delay_ber", "delay_us": 2}
  ],
  "edges": [{"from": "access:0", "to": "bottleneck:0"},
            {"from": "bottleneck:0", "to": "tap:0"}],
  "workload": {
    "kind": "tcp", "flows": 4, "cc": "newreno",
    "ingress": "access:0", "egress": "tap:0",
    "ack_ingress": "ackpath:0", "ack_egress": "ackpath:0"
  }
})";

struct DumbbellOutcome {
  std::vector<graph::TopologyTrialReport> reports;
  std::string sim_metrics_json;
};

DumbbellOutcome run_dumbbell_trials(std::size_t jobs,
                                    Picos series_interval = 0) {
  telemetry::registry().reset();
  const TopologyFile topo = TopologyFile::from_json(kMiniDumbbell);
  DumbbellOutcome out;
  out.reports.resize(3);

  core::TrialPlan plan;
  for (std::size_t i = 0; i < out.reports.size(); ++i) {
    core::TrialPoint pt;
    pt.seed = topo.seed + i;
    plan.points.push_back(pt);
  }
  plan.run = [&](const core::TrialPoint& pt) {
    const auto r = graph::run_topology_trial(topo, pt.seed, /*duration=*/0,
                                             /*plan=*/nullptr,
                                             /*trace=*/nullptr,
                                             series_interval);
    core::TrialStats st;
    st.metric = static_cast<double>(r.tcp.bytes_acked);
    out.reports[pt.index] = r;  // slots are disjoint across workers
    return st;
  };

  core::RunnerConfig rcfg;
  rcfg.jobs = jobs;
  (void)core::Runner{rcfg}.run(plan);
  out.sim_metrics_json =
      telemetry::registry().to_json(telemetry::Snapshot::kSimOnly);
  return out;
}

/// Merge the per-trial series the way the CLI does: in plan (index)
/// order. merge_from is commutative, so this is just the canonical order.
telemetry::SeriesData merged_series(const DumbbellOutcome& out) {
  telemetry::SeriesData merged;
  for (const auto& r : out.reports) merged.merge_from(r.series);
  return merged;
}

TEST(Topology, DumbbellTcpMakesForwardProgress) {
  const TopologyFile topo = TopologyFile::from_json(kMiniDumbbell);
  const auto r = graph::run_topology_trial(topo, topo.seed);
  EXPECT_GT(r.tcp.bytes_acked, 0u);
  EXPECT_GT(r.tcp.segs_sent, 0u);
  // The 1 Gbps RED bottleneck is the constraint: goodput must be below
  // line rate but the loop must stay busy.
  EXPECT_LT(r.tcp.goodput_bps, 1.1e9);
  EXPECT_GT(r.tcp.goodput_bps, 1e8);
}

TEST(Topology, DumbbellIsByteIdenticalAcrossJobs) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);

  const DumbbellOutcome serial = run_dumbbell_trials(1);
  const DumbbellOutcome parallel = run_dumbbell_trials(4);

  // Per-trial reports agree slot for slot...
  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(serial.reports[i].tcp.bytes_acked,
              parallel.reports[i].tcp.bytes_acked)
        << "trial " << i;
    EXPECT_EQ(serial.reports[i].tcp.retransmits,
              parallel.reports[i].tcp.retransmits)
        << "trial " << i;
    EXPECT_EQ(serial.reports[i].graph_drops, parallel.reports[i].graph_drops)
        << "trial " << i;
  }
  EXPECT_GT(serial.reports[0].tcp.bytes_acked, 0u);

  // ...and so does the whole sim-only telemetry snapshot, byte for byte.
  EXPECT_EQ(serial.sim_metrics_json, parallel.sim_metrics_json);
  EXPECT_NE(serial.sim_metrics_json.find("graph.bottleneck.frames_in"),
            std::string::npos)
      << serial.sim_metrics_json;

  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

TEST(Topology, DumbbellMonitorReportsRttQuantiles) {
  const TopologyFile topo = TopologyFile::from_json(kMiniDumbbell);
  const auto r = graph::run_topology_trial(topo, topo.seed);

  const graph::BlockCounters* tap = nullptr;
  for (const auto& b : r.blocks) {
    if (b.name == "tap") tap = &b;
    // Only monitor blocks carry an RTT population.
    if (b.name != "tap") {
      EXPECT_EQ(b.rtt_samples, 0u) << b.name;
    }
  }
  ASSERT_NE(tap, nullptr);
  EXPECT_GT(tap->frames_in, 0u);
  // The tap sits behind the bottleneck: every data segment that survived
  // RED is in the histogram, and the quantiles are ordered.
  EXPECT_GT(tap->rtt_samples, 0u);
  EXPECT_GT(tap->rtt_p50_ns, 0.0);
  EXPECT_LE(tap->rtt_p50_ns, tap->rtt_p90_ns);
  EXPECT_LE(tap->rtt_p90_ns, tap->rtt_p99_ns);
  // frame_bytes makes series-derived throughput possible without a
  // separate tap: it must track frames_in (TCP segments are >= 64B).
  EXPECT_GE(tap->frame_bytes, 64 * tap->frames_in);
}

TEST(Topology, MonitorRttProbeCanBeDisabled) {
  std::string quiet = kMiniDumbbell;
  const std::string on = "\"rtt_probe\": true";
  quiet.replace(quiet.find(on), on.size(), "\"rtt_probe\": false");
  const TopologyFile topo = TopologyFile::from_json(quiet);
  const auto r = graph::run_topology_trial(topo, topo.seed);
  for (const auto& b : r.blocks) {
    if (b.name != "tap") continue;
    EXPECT_GT(b.frames_in, 0u);  // still forwards
    EXPECT_EQ(b.rtt_samples, 0u);
  }
}

TEST(Topology, DumbbellSeriesByteIdenticalAcrossJobs) {
  const DumbbellOutcome serial = run_dumbbell_trials(1, kPicosPerMilli);
  const DumbbellOutcome parallel = run_dumbbell_trials(4, kPicosPerMilli);

  const telemetry::SeriesData a = merged_series(serial);
  const telemetry::SeriesData b = merged_series(parallel);
  const std::string json = a.to_json();
  EXPECT_EQ(json, b.to_json());

  // The merged series carries the per-block channels, the monitor RTT
  // trajectory, and the aggregate tcp channels for all three trials.
  EXPECT_EQ(a.trials, 3u);
  EXPECT_EQ(a.interval, kPicosPerMilli);
  EXPECT_GE(a.intervals(), 4u);  // 4 ms sampled every 1 ms
  EXPECT_NE(json.find("graph.tap.rtt.ns"), std::string::npos);
  EXPECT_NE(json.find("graph.bottleneck.frames_in"), std::string::npos);
  EXPECT_NE(json.find("graph.tap.frame_bytes"), std::string::npos);
  EXPECT_NE(json.find("tcp.bytes_acked"), std::string::npos);
  EXPECT_NE(json.find("tcp.rtt.ns"), std::string::npos);

  // The trajectory is real, not a flat line: TCP moved bytes in at least
  // one sampled interval.
  std::uint64_t acked = 0;
  for (const std::uint64_t d : a.channels.at("tcp.bytes_acked").deltas)
    acked += d;
  EXPECT_GT(acked, 0u);
}

}  // namespace
}  // namespace osnt
