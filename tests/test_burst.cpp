// osnt::burst — schedule math for each pattern (period tiling, pulse
// sizing, Pareto seeding, volley shapes), batched emission reproducing
// its schedule on the wire, the workload/topology integration with its
// did-you-mean error paths, the BurstEnvelopeGap synth bridge, and the
// headline determinism claim: an amplification-DDoS topology is
// byte-identical under kSimOnly telemetry — including the --series-out
// trajectory — at any --jobs value.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "osnt/burst/pattern.hpp"
#include "osnt/burst/schedule.hpp"
#include "osnt/burst/source.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/gen/models.hpp"
#include "osnt/gen/source.hpp"
#include "osnt/gen/synth.hpp"
#include "osnt/gen/template_gen.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/telemetry/series.hpp"

namespace osnt {
namespace {

using burst::BurstError;
using burst::BurstSchedule;
using burst::Pattern;
using burst::PatternConfig;

// 64 B + 20 B preamble/IFG at 10G = 67.2 ns per slot; the tests below
// lean on this exact figure, so pin it once.
constexpr Picos kSlot64At10G = 67'200;

PatternConfig base_config(Pattern p) {
  PatternConfig cfg;
  cfg.pattern = p;
  cfg.rate_gbps = 10.0;
  cfg.frame_size = 64;
  return cfg;
}

// ------------------------------------------------------------ vocabulary

TEST(Burst, PatternNamesRoundTrip) {
  const auto& names = burst::known_patterns();
  ASSERT_EQ(names.size(), 4u);
  for (const auto& n : names) {
    EXPECT_EQ(burst::pattern_name(burst::pattern_from_name(n)), n);
  }
  EXPECT_THROW((void)burst::pattern_from_name("sawtooth"), BurstError);
}

TEST(Burst, ValidateNamesTheOffendingField) {
  auto expect_rejects = [](PatternConfig cfg, const std::string& field) {
    try {
      cfg.validate();
      ADD_FAILURE() << "expected BurstError about " << field;
    } catch (const BurstError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  PatternConfig cfg = base_config(Pattern::kOnOff);
  cfg.frame_size = 32;
  expect_rejects(cfg, "frame_size");

  cfg = base_config(Pattern::kOnOff);
  cfg.duty = 0.0;
  expect_rejects(cfg, "duty");

  cfg = base_config(Pattern::kHeavyTail);
  cfg.alpha = 1.0;  // Pareto mean diverges at alpha <= 1
  expect_rejects(cfg, "alpha");

  cfg = base_config(Pattern::kAmplification);
  cfg.amp_factor = 0.5;  // an "amplifier" that shrinks is a config error
  expect_rejects(cfg, "amp_factor");

  cfg = base_config(Pattern::kAmplification);
  cfg.attackers = 0;
  expect_rejects(cfg, "attackers");
}

// --------------------------------------------------------- schedule math

TEST(Burst, OnOffTilesThePeriodGrid) {
  PatternConfig cfg = base_config(Pattern::kOnOff);
  cfg.period = 100 * kPicosPerMicro;
  cfg.duty = 0.5;
  const BurstSchedule s{cfg, kPicosPerMilli};

  EXPECT_EQ(cfg.slot(), kSlot64At10G);
  // 50 us on-window / 67.2 ns slot = 744 whole frames per burst.
  constexpr std::size_t kPerBurst = 744;
  ASSERT_EQ(s.bursts().size(), 10u);  // 1 ms / 100 us
  for (std::size_t i = 0; i < s.bursts().size(); ++i) {
    EXPECT_EQ(s.bursts()[i].start, static_cast<Picos>(i) * cfg.period);
    EXPECT_EQ(s.bursts()[i].count, kPerBurst);
  }
  EXPECT_EQ(s.total_frames(), 10 * kPerBurst);
  EXPECT_EQ(s.total_wire_bytes(), 10u * kPerBurst * 64u);
  // Back-to-back departures: offset i is exactly i slots into the burst.
  for (std::size_t i = 0; i < kPerBurst; ++i) {
    EXPECT_EQ(s.offsets()[i], static_cast<Picos>(i) * kSlot64At10G);
  }
  EXPECT_TRUE(std::all_of(s.flow_ids().begin(), s.flow_ids().end(),
                          [&](std::uint32_t f) { return f < cfg.flows; }));
}

TEST(Burst, SliverDutyStillEmitsOneFramePerPeriod) {
  PatternConfig cfg = base_config(Pattern::kOnOff);
  cfg.period = 100 * kPicosPerMicro;
  cfg.duty = 1e-6;  // on-window shorter than one slot
  const BurstSchedule s{cfg, kPicosPerMilli};
  ASSERT_EQ(s.bursts().size(), 10u);
  for (const auto& b : s.bursts()) EXPECT_EQ(b.count, 1u);
}

TEST(Burst, StrobePulsesAndOverrunGuard) {
  PatternConfig cfg = base_config(Pattern::kStrobe);
  cfg.period = 10 * kPicosPerMicro;
  cfg.pulse_frames = 32;
  const BurstSchedule ok{cfg, 100 * kPicosPerMicro};
  ASSERT_EQ(ok.bursts().size(), 10u);
  for (const auto& b : ok.bursts()) EXPECT_EQ(b.count, 32u);

  // A 1 us period only fits ~14 back-to-back 64 B slots at 10G: a 32-frame
  // pulse overruns into the next period and must be rejected, not wrapped.
  cfg.period = kPicosPerMicro;
  try {
    const BurstSchedule bad{cfg, 100 * kPicosPerMicro};
    ADD_FAILURE() << "expected overrun BurstError";
  } catch (const BurstError& e) {
    EXPECT_NE(std::string(e.what()).find("overruns its period"),
              std::string::npos)
        << e.what();
  }
}

TEST(Burst, HeavyTailIsSeededAndBounded) {
  PatternConfig cfg = base_config(Pattern::kHeavyTail);
  cfg.seed = 42;
  const BurstSchedule a{cfg, kPicosPerMilli};
  const BurstSchedule b{cfg, kPicosPerMilli};
  ASSERT_GT(a.bursts().size(), 1u);
  EXPECT_EQ(a.total_frames(), b.total_frames());
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.flow_ids(), b.flow_ids());
  for (std::size_t i = 0; i < a.bursts().size(); ++i) {
    EXPECT_EQ(a.bursts()[i].start, b.bursts()[i].start);
    EXPECT_GE(a.bursts()[i].count, 1u);  // quantized up to a whole frame
  }

  cfg.seed = 43;
  const BurstSchedule c{cfg, kPicosPerMilli};
  const bool same_shape = a.bursts().size() == c.bursts().size() &&
                          a.total_frames() == c.total_frames();
  EXPECT_FALSE(same_shape) << "independent seeds drew identical schedules";
}

TEST(Burst, AmplificationVolleysShareOneReflector) {
  PatternConfig cfg = base_config(Pattern::kAmplification);
  cfg.period = 100 * kPicosPerMicro;
  cfg.duty = 0.5;
  cfg.attackers = 16;
  cfg.request_size = 64;
  cfg.amp_factor = 10.0;
  const BurstSchedule s{cfg, 200 * kPicosPerMicro};

  // One volley = ceil(10 x 64 / 64) = 10 response frames; 74 volleys of
  // 672 ns air tile each 50 us on-window, over two periods.
  ASSERT_EQ(s.bursts().size(), 148u);
  std::set<std::uint32_t> reflectors;
  for (const auto& v : s.bursts()) {
    EXPECT_EQ(v.count, 10u);
    const std::uint32_t flow = s.flow_ids()[v.first];
    EXPECT_LT(flow, cfg.attackers);
    for (std::size_t i = 0; i < v.count; ++i) {
      // The whole volley is one reflected response: a single spoofed
      // source, not per-frame 5-tuple churn.
      EXPECT_EQ(s.flow_ids()[v.first + i], flow);
    }
    reflectors.insert(flow);
  }
  EXPECT_GT(reflectors.size(), 4u) << "attack should spread across sources";
}

// ------------------------------------------------------------ the frames

TEST(Burst, MakeFrameShapesMatchThePattern) {
  PatternConfig amp = base_config(Pattern::kAmplification);
  const net::Packet resp = burst::BurstSourceBlock::make_frame(amp, 3, 468);
  EXPECT_EQ(resp.wire_len(), 468u);
  auto parsed = net::parse_packet(resp.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l4, net::L4Kind::kUdp);
  EXPECT_EQ(parsed->udp.src_port, 53);   // "DNS" reflector
  EXPECT_EQ(parsed->udp.dst_port, 443);  // one victim service

  PatternConfig syn = base_config(Pattern::kOnOff);
  syn.l4 = burst::L4::kTcpSyn;
  const net::Packet synf = burst::BurstSourceBlock::make_frame(syn, 7, 64);
  parsed = net::parse_packet(synf.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l4, net::L4Kind::kTcp);
  EXPECT_EQ(parsed->tcp.dst_port, 80);

  // Spoofed-source spread: distinct flows craft distinct frames,
  // deterministically.
  const net::Packet again = burst::BurstSourceBlock::make_frame(syn, 7, 64);
  EXPECT_EQ(synf.data, again.data);
  const net::Packet other = burst::BurstSourceBlock::make_frame(syn, 8, 64);
  EXPECT_NE(synf.data, other.data);
}

// ------------------------------------------------------ batched emission

TEST(Burst, BatchedEmissionReproducesItsSchedule) {
  sim::Engine eng;
  graph::Graph g{eng};
  burst::BurstSourceConfig cfg;
  cfg.pattern = base_config(Pattern::kStrobe);
  cfg.pattern.period = 10 * kPicosPerMicro;
  cfg.pattern.pulse_frames = 16;
  cfg.horizon = 200 * kPicosPerMicro;
  auto& src = g.emplace<burst::BurstSourceBlock>(eng, "src", cfg);
  auto& sink = g.emplace<graph::SinkBlock>(eng, "sink");
  g.connect("src", 0, "sink", 0);
  g.start();
  eng.run();

  const BurstSchedule& s = *src.schedule();
  EXPECT_EQ(s.total_frames(), 20u * 16u);
  EXPECT_EQ(sink.frames_in(), s.total_frames());
  EXPECT_EQ(src.frames_out(), s.total_frames());
  EXPECT_EQ(sink.bytes_in(), s.total_wire_bytes());
  EXPECT_EQ(src.wire_bytes(), s.total_wire_bytes());
  EXPECT_EQ(src.bursts_emitted(), s.bursts().size());
  // One event per burst must not move a single frame in time: the last
  // frame's last bit lands exactly where the schedule put it.
  const burst::Burst& last = s.bursts().back();
  const Picos last_bit = last.start +
                         s.offsets()[last.first + last.count - 1] +
                         cfg.pattern.slot();
  EXPECT_EQ(sink.last_arrival(), last_bit);
}

TEST(Burst, SourceRequiresAHorizon) {
  sim::Engine eng;
  graph::Graph g{eng};
  burst::BurstSourceConfig cfg;  // horizon defaults to 0
  g.emplace<burst::BurstSourceBlock>(eng, "src", cfg);
  g.emplace<graph::SinkBlock>(eng, "sink");
  g.connect("src", 0, "sink", 0);
  EXPECT_THROW(g.start(), BurstError);
}

// -------------------------------------------------- topology integration

std::string load_error(const std::string& text) {
  try {
    (void)graph::TopologyFile::from_json(text);
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

TEST(Burst, SourceBlockParses) {
  const auto topo = graph::TopologyFile::from_json(R"({
    "name": "t",
    "duration_us": 500,
    "blocks": [{"name": "src", "type": "burst_source", "pattern": "strobe",
                "rate_gbps": 4.0, "period_us": 10, "pulse_frames": 8,
                "l4": "tcp_syn"},
               {"name": "drain", "type": "sink"}],
    "edges": [{"from": "src:0", "to": "drain:0"}],
    "workload": {"kind": "none"}
  })");
  ASSERT_EQ(topo.blocks.size(), 2u);
  const graph::BlockSpec& src = topo.blocks[0];
  EXPECT_EQ(src.type, "burst_source");
  sim::Engine eng;
  graph::Graph g{eng};
  topo.build(eng, g, topo.seed);
  EXPECT_EQ(g.block(0).num_inputs(), 0u);
  const PatternConfig& pattern =
      std::get<burst::BurstSourceConfig>(src.config).pattern;
  EXPECT_EQ(pattern.pattern, Pattern::kStrobe);
  EXPECT_EQ(pattern.rate_gbps, 4.0);
  EXPECT_EQ(pattern.period, 10 * kPicosPerMicro);
  EXPECT_EQ(pattern.pulse_frames, 8u);
  EXPECT_EQ(pattern.l4, burst::L4::kTcpSyn);
}

TEST(Burst, BurstWorkloadKindIsUnknown) {
  // Bursts enter a topology as burst_source blocks only, so "burst" is
  // not a workload kind.
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"}],
    "workload": {"kind": "burst", "pattern": "on_off",
                 "ingress": "q:0", "egress": "q:0"}
  })");
  expect_contains(msg, "workload: unknown kind 'burst'");
  expect_contains(msg, "line 4 column 26");
}

TEST(Burst, UnknownPatternSuggestsNearest) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "src", "type": "burst_source",
                "pattern": "amplificaton"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "unknown burst pattern 'amplificaton'");
  expect_contains(msg, "did you mean 'amplification'?");
  expect_contains(msg, "line 4 column 28");
}

TEST(Burst, PatternKeysAreStrictPerPattern) {
  // pulse_frames belongs to strobe, not on_off: strict keys catch the
  // block mixing patterns up.
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "src", "type": "burst_source", "pattern": "on_off",
                "pulse_frames": 8}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "unknown key 'pulse_frames'");
  expect_contains(msg, "line 4 column 33");

  // "batched" once picked between emission modes; only batched emission
  // exists now, so the key is an unknown one.
  const std::string block_msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "a", "type": "burst_source", "pattern": "on_off",
                "batched": false}],
    "workload": {"kind": "none"}
  })");
  expect_contains(block_msg, "unknown key 'batched'");
  expect_contains(block_msg, "line 4 column 28");
}

TEST(Burst, ValidateWorkloadCatchesSemanticErrors) {
  // Parses fine (duty is a number), but loading also runs the workload
  // checks, which must reject it, naming the block.
  const std::string duty = load_error(R"({
    "name": "t",
    "blocks": [{"name": "src", "type": "burst_source", "pattern": "on_off",
                "duty": 2.0},
               {"name": "drain", "type": "sink"}],
    "edges": [{"from": "src:0", "to": "drain:0"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(duty, "block 'src'");
  expect_contains(duty, "duty");

  // The same pass spell-checks the tcp stanza's cc name.
  const std::string cc = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"}],
    "workload": {"kind": "tcp", "cc": "neweno",
                 "ingress": "q:0", "egress": "q:0"}
  })");
  expect_contains(cc, "unknown cc 'neweno'");
  expect_contains(cc, "did you mean 'newreno'?");
}

TEST(Burst, WorkloadRunsThroughTheGraph) {
  const auto topo = graph::TopologyFile::from_json(R"({
    "name": "t",
    "seed": 11,
    "duration_us": 500,
    "blocks": [{"name": "src", "type": "burst_source", "pattern": "on_off",
                "rate_gbps": 2.0, "period_us": 100, "duty": 0.5},
               {"name": "q", "type": "fifo_queue", "rate_gbps": 10.0,
                "queue_frames": 64},
               {"name": "drain", "type": "sink"}],
    "edges": [{"from": "src:0", "to": "q:0"},
              {"from": "q:0", "to": "drain:0"}],
    "workload": {"kind": "none"}
  })");
  telemetry::registry().reset();
  const auto r = graph::run_topology_trial(topo, topo.seed);
  ASSERT_EQ(r.blocks.size(), 3u);
  const graph::BlockCounters& src = r.blocks[0];
  const graph::BlockCounters& drain = r.blocks[2];
  ASSERT_EQ(src.name, "src");
  ASSERT_EQ(drain.name, "drain");
  EXPECT_GT(src.frames_out, 0u);
  // 2G bursts through a 10G queue: nothing drops, every frame reaches
  // the sink and the byte accounting closes.
  EXPECT_EQ(drain.frames_in, src.frames_out);
  EXPECT_EQ(drain.frame_bytes, src.frames_out * 64u);
  EXPECT_EQ(r.graph_drops, 0u);
  // The source's own counters, flushed when the graph was torn down.
  auto& reg = telemetry::registry();
  EXPECT_GT(reg.counter("graph.src.bursts").value(), 0u);
  EXPECT_EQ(reg.counter("graph.src.tx_bytes").value(), src.frames_out * 64u);
}

// ----------------------------------------- determinism across --jobs

// A scaled-down amplification_ddos.json: 16 spoofed reflectors volleying
// 50x-amplified responses into a 1 Gb/s bottleneck shared with 2
// closed-loop TCP flows, in 2 ms attack waves (duty 0.5).
constexpr const char* kMiniAmplification = R"({
  "name": "mini_amp",
  "seed": 3,
  "duration_ms": 4,
  "blocks": [
    {"name": "access", "type": "delay_ber", "delay_us": 2},
    {"name": "reflectors", "type": "burst_source",
     "pattern": "amplification", "rate_gbps": 2.0, "frame_size": 468,
     "attackers": 16, "request_size": 64, "amp_factor": 50,
     "period_ms": 2, "duty": 0.5},
    {"name": "bottleneck", "type": "fifo_queue", "rate_gbps": 1.0,
     "queue_frames": 60},
    {"name": "tap", "type": "monitor", "rtt_probe": true},
    {"name": "ackpath", "type": "delay_ber", "delay_us": 2}
  ],
  "edges": [{"from": "access:0", "to": "bottleneck:0"},
            {"from": "reflectors:0", "to": "bottleneck:0"},
            {"from": "bottleneck:0", "to": "tap:0"}],
  "workload": {
    "kind": "tcp", "flows": 2, "cc": "newreno",
    "ingress": "access:0", "egress": "tap:0",
    "ack_ingress": "ackpath:0", "ack_egress": "ackpath:0"
  }
})";

struct AmpOutcome {
  std::vector<graph::TopologyTrialReport> reports;
  std::string sim_metrics_json;
};

AmpOutcome run_amp_trials(std::size_t jobs, Picos series_interval = 0) {
  telemetry::registry().reset();
  const auto topo = graph::TopologyFile::from_json(kMiniAmplification);
  AmpOutcome out;
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

TEST(Burst, AmplificationTopologyByteIdenticalAcrossJobs) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);

  const AmpOutcome serial = run_amp_trials(1);
  const AmpOutcome parallel = run_amp_trials(4);

  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(serial.reports[i].tcp.bytes_acked,
              parallel.reports[i].tcp.bytes_acked)
        << "trial " << i;
    EXPECT_EQ(serial.reports[i].graph_drops, parallel.reports[i].graph_drops)
        << "trial " << i;
  }
  // The attack actually bites: frames flood in and the bottleneck sheds.
  EXPECT_GT(serial.reports[0].graph_drops, 0u);
  EXPECT_GT(serial.reports[0].tcp.bytes_acked, 0u);

  EXPECT_EQ(serial.sim_metrics_json, parallel.sim_metrics_json);
  EXPECT_NE(serial.sim_metrics_json.find("graph.reflectors.bursts"),
            std::string::npos)
      << serial.sim_metrics_json;

  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

TEST(Burst, AmplificationSeriesShowsCollapseAndRecovery) {
  const AmpOutcome serial = run_amp_trials(1, kPicosPerMilli);
  const AmpOutcome parallel = run_amp_trials(4, kPicosPerMilli);

  telemetry::SeriesData a;
  for (const auto& r : serial.reports) a.merge_from(r.series);
  telemetry::SeriesData b;
  for (const auto& r : parallel.reports) b.merge_from(r.series);
  EXPECT_EQ(a.to_json(), b.to_json());

  // 2 ms waves at duty 0.5 against a 1 ms interval: intervals 0 and 2
  // are attack-on, 1 and 3 are quiet.
  ASSERT_TRUE(a.channels.count("graph.reflectors.frames_out"));
  ASSERT_TRUE(a.channels.count("tcp.bytes_acked"));
  const auto& attack = a.channels.at("graph.reflectors.frames_out").deltas;
  const auto& acked = a.channels.at("tcp.bytes_acked").deltas;
  ASSERT_GE(attack.size(), 4u);
  ASSERT_EQ(attack.size(), acked.size());
  EXPECT_GT(attack[0], 0u);
  EXPECT_EQ(attack[1], 0u);
  EXPECT_GT(attack[2], 0u);
  EXPECT_EQ(attack[3], 0u);
  // Collateral damage: victim goodput collapses under each wave and
  // recovers in the quiet interval that follows.
  EXPECT_LT(acked[0], acked[1]) << "no collapse in wave 1";
  EXPECT_LT(acked[2], acked[3]) << "no collapse in wave 2";
  EXPECT_GT(acked[1], 0u);
  EXPECT_GT(acked[3], 0u);
}

// ------------------------------------------------------ synth bridge

TEST(Burst, EnvelopeGapReplaysTheSchedule) {
  PatternConfig cfg = base_config(Pattern::kOnOff);
  cfg.period = 10 * kPicosPerMicro;
  cfg.duty = 0.5;  // 5 us on-window -> 74 frames per burst
  gen::BurstEnvelopeGap gaps{cfg, 20 * kPicosPerMicro};

  Rng rng{1};
  // In-burst gaps are the serialization slot...
  for (int i = 0; i < 73; ++i) {
    EXPECT_EQ(gaps.sample(rng, 0, 0), kSlot64At10G) << "frame " << i;
  }
  // ...the burst boundary carries the idle remainder of the period...
  const Picos idle = 10 * kPicosPerMicro - 73 * kSlot64At10G;
  EXPECT_EQ(gaps.sample(rng, 0, 0), idle);
  for (int i = 0; i < 73; ++i) EXPECT_EQ(gaps.sample(rng, 0, 0), kSlot64At10G);
  // ...and past the horizon the envelope wraps as if it repeated.
  EXPECT_EQ(gaps.sample(rng, 0, 0), idle);
  EXPECT_EQ(gaps.sample(rng, 0, 0), kSlot64At10G);
  // min_gap still clamps, like every GapModel.
  EXPECT_EQ(gaps.sample(rng, 0, kPicosPerMicro), kPicosPerMicro);
}

TEST(Burst, EnvelopeGapDrivesSynthesizeTrace) {
  PatternConfig cfg = base_config(Pattern::kOnOff);
  cfg.period = 10 * kPicosPerMicro;
  cfg.duty = 0.5;
  gen::BurstEnvelopeGap gaps{cfg, 20 * kPicosPerMicro};

  gen::TemplateConfig tc;
  tc.count = 10;
  gen::TemplateSource src{tc, std::make_unique<gen::FixedSize>(64)};
  gen::SynthSpec spec;
  spec.frames = 10;
  const auto records = gen::synthesize_trace(src, gaps, spec);
  ASSERT_EQ(records.size(), 10u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    // 67.2 ns slots on the pcap timeline (ns resolution truncates to 67).
    EXPECT_EQ(records[i].ts_nanos - records[i - 1].ts_nanos, 67u);
  }
}

}  // namespace
}  // namespace osnt
