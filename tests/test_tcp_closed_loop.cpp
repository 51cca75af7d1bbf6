// Closed-loop acceptance tests: congestion-controlled flows run through
// the `osnt_run tcp` preset (graph::tcp_preset, one pass-through monitor
// block between the device ports) with ACKs returning through the
// reverse link, so injected faults (BER windows) perturb the control loop
// end to end. Also pins the determinism contract: kSimOnly telemetry
// snapshots of a sharded tcp trial plan are byte-identical at any --jobs.
#include <gtest/gtest.h>

#include <string>

#include "osnt/core/runner.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/tcp/workload.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::tcp {
namespace {

using graph::WorkloadSpec;

// Mirrors examples/faults/ber_tcp.json (tests cannot rely on the cwd):
// a bit-error window in the middle of the run, long and harsh enough at
// 5 Gb/s that multiple 1518 B frames are corrupted even after the ramp.
constexpr const char* kBerPlanJson = R"({
  "seed": 5,
  "events": [
    {"type": "ber_window", "at_ms": 2, "duration_ms": 6, "ber": 5e-6,
     "ramp_us": 500}
  ]
})";

WorkloadSpec base_spec(const std::string& cc, std::size_t flows) {
  WorkloadSpec w;
  w.kind = WorkloadSpec::Kind::kTcp;
  w.cc = cc;
  w.flows = flows;
  w.bottleneck_gbps = 5.0;
  w.queue_segments = 256;
  return w;
}

/// One trial of `w` on the tcp preset; `wheel` false routes the bulk
/// timers through the heap instead of the timing wheel.
TcpTrialReport run_trial(const WorkloadSpec& w, Picos duration,
                         const fault::FaultPlan* plan = nullptr,
                         std::uint64_t seed = 1, bool wheel = true) {
  graph::TopologyTrial trial(graph::tcp_preset(w), seed, duration, plan);
  trial.engine().set_wheel_enabled(wheel);
  trial.run();
  return trial.report().tcp;
}

/// The bottleneck rate is L1 (preamble + IFG included); application
/// goodput can at best be the TCP-payload share of a 1518 B frame's
/// 1538 B wire footprint.
double payload_share_of(double gbps) {
  return gbps * 1e9 * 1448.0 / 1538.0;
}

TEST(TcpClosedLoop, CleanLinkCompletesByteLimitedTransfers) {
  for (const char* cc : {"newreno", "cubic", "bbr"}) {
    WorkloadSpec cfg = base_spec(cc, 2);
    cfg.bytes_per_flow = std::uint64_t{120} * 1448;
    const auto r = run_trial(cfg, 20 * kPicosPerMilli);
    EXPECT_EQ(r.bytes_acked, 2 * cfg.bytes_per_flow) << cc;
    EXPECT_EQ(r.rto_fires, 0u) << cc;
  }
}

TEST(TcpClosedLoop, BbrDeliveryRateTracksBottleneckWithinTenPercent) {
  const WorkloadSpec cfg = base_spec("bbr", 1);
  const auto r = run_trial(cfg, 20 * kPicosPerMilli);
  const double expected = payload_share_of(cfg.bottleneck_gbps);
  EXPECT_GE(r.min_flow_rate_bps, 0.9 * expected);
  EXPECT_LE(r.max_flow_rate_bps, 1.1 * expected);
  // A clean link also means BBR should fill the pipe without loss.
  EXPECT_EQ(r.retransmits, 0u);
  EXPECT_GE(r.goodput_bps, 0.85 * expected);
}

TEST(TcpClosedLoop, FlowsShareTheBottleneck) {
  const WorkloadSpec cfg = base_spec("newreno", 4);
  const auto r = run_trial(cfg, 20 * kPicosPerMilli);
  // Aggregate goodput approaches the pipe; nobody is starved outright.
  EXPECT_GE(r.goodput_bps, 0.6 * payload_share_of(cfg.bottleneck_gbps));
  EXPECT_GT(r.min_flow_rate_bps, 0.0);
  EXPECT_GT(r.acks_sent, 0u);
}

TEST(TcpClosedLoop, BerWindowForcesRetransmissionAndCwndReduction) {
  // The PR's headline acceptance: osnt_run tcp --cc bbr --flows 8 with a
  // ber_window plan must produce at least one retransmission and a cwnd
  // reduction reacting to the error window — loss anywhere on the sim
  // path closes the loop.
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  const WorkloadSpec cfg = base_spec("bbr", 8);
  const auto faulted = run_trial(cfg, 20 * kPicosPerMilli, &plan);
  EXPECT_GE(faulted.retransmits, 1u);
  EXPECT_GE(faulted.cwnd_reductions, 1u);
  EXPECT_GT(faulted.bytes_acked, 0u);
}

TEST(TcpClosedLoop, BerWindowIsTheOnlyLossSourceAtLowFanIn) {
  // At 8 flows the startup burst alone overflows the shared 256-segment
  // queue, so the clean-vs-faulted contrast needs a fan-in the bottleneck
  // buffer can absorb: a single BBR flow is loss-free on a clean link,
  // and every loss signal under the plan is attributable to the window.
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  const WorkloadSpec cfg = base_spec("bbr", 1);
  const auto clean = run_trial(cfg, 20 * kPicosPerMilli);
  EXPECT_EQ(clean.retransmits + clean.rto_fires, 0u);
  EXPECT_EQ(clean.cwnd_reductions, 0u);

  const auto faulted = run_trial(cfg, 20 * kPicosPerMilli, &plan);
  EXPECT_GE(faulted.retransmits, 1u);
  EXPECT_GE(faulted.cwnd_reductions, 1u);
  EXPECT_LT(faulted.goodput_bps, clean.goodput_bps);
}

TEST(TcpClosedLoop, EveryControllerRecoversThroughTheBerWindow) {
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  for (const char* cc : {"newreno", "cubic", "bbr"}) {
    WorkloadSpec cfg = base_spec(cc, 4);
    // Bound the RTO backoff so a flow silenced inside the 6 ms window is
    // back within a couple of milliseconds of it closing.
    cfg.max_rto = 8 * kPicosPerMilli;
    const auto r = run_trial(cfg, 30 * kPicosPerMilli, &plan);
    EXPECT_GE(r.retransmits, 1u) << cc;
    EXPECT_GE(r.cwnd_reductions, 1u) << cc;
    // Recovery: goodput despite the window (the loop keeps turning).
    EXPECT_GT(r.goodput_bps, 0.2 * payload_share_of(cfg.bottleneck_gbps))
        << cc;
  }
}

TEST(TcpClosedLoop, ReceiverCountsOutOfOrderSegmentsUnderLoss) {
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  const WorkloadSpec cfg = base_spec("newreno", 2);
  const auto eng_report = run_trial(cfg, 20 * kPicosPerMilli, &plan);
  // A dropped data frame makes its successors arrive above rcv_nxt.
  EXPECT_GT(eng_report.retransmits, 0u);
}

TEST(TcpClosedLoop, LazyDelayedAckElidesTimerCancels) {
  // The delack timer is armed once and left armed across ACK sends; a
  // cumulative ACK riding on data just clears pending_ack_segs. Every
  // such elision is counted — under steady bidirectional load there must
  // be many, and the engine must see strictly fewer cancels than arms.
  const WorkloadSpec cfg = base_spec("bbr", 2);
  graph::TopologyTrial trial(graph::tcp_preset(cfg), /*trial_seed=*/1,
                             10 * kPicosPerMilli);
  trial.run();
  const ClosedLoopWorkload* w = trial.tcp_workload();
  ASSERT_NE(w, nullptr);
  EXPECT_GT(w->delack_cancels_saved(), 0u);
  EXPECT_GT(w->total_acks_sent(), 0u);
}

// ------------------------------------------------------- determinism

std::string tcp_sim_snapshot_for_jobs(std::size_t jobs, bool wheel = true) {
  auto& reg = telemetry::registry();
  reg.reset();
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  core::TrialPlan trial_plan;
  trial_plan.points.resize(4);
  for (std::size_t i = 0; i < trial_plan.points.size(); ++i) {
    trial_plan.points[i].seed = 100 + i;
  }
  trial_plan.run = [&plan, wheel](const core::TrialPoint& pt) {
    const WorkloadSpec cfg = base_spec(pt.index % 2 == 0 ? "bbr" : "cubic", 2);
    const auto r = run_trial(cfg, 5 * kPicosPerMilli, &plan, pt.seed, wheel);
    core::TrialStats s;
    s.tx_frames = r.segs_sent;
    s.rx_frames = r.acks_sent;
    s.metric = r.goodput_bps;
    return s;
  };
  core::RunnerConfig rcfg;
  rcfg.jobs = jobs;
  (void)core::Runner{rcfg}.run(trial_plan);
  return reg.to_json(telemetry::Snapshot::kSimOnly);
}

TEST(TcpClosedLoop, SimSnapshotsByteIdenticalAcrossJobs) {
  const std::string serial = tcp_sim_snapshot_for_jobs(1);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_NE(serial.find("tcp.segs_sent"), std::string::npos);
  EXPECT_NE(serial.find("tcp.cwnd_bytes"), std::string::npos);
  EXPECT_NE(serial.find("tcp.acks_sent"), std::string::npos);
  EXPECT_EQ(serial, tcp_sim_snapshot_for_jobs(4));
}

TEST(TcpClosedLoop, SimSnapshotsByteIdenticalWheelVsHeap) {
  // The tentpole determinism contract end to end: routing RTO/delack/
  // pacing timers through the timing wheel instead of the heap must not
  // change a single byte of kSimOnly telemetry — implementation-detail
  // gauges carry the "impl" token and are filtered out, and the wheel
  // drains entries into the heap with their exact arm-time keys.
  const std::string wheel = tcp_sim_snapshot_for_jobs(1, true);
  EXPECT_GT(wheel.size(), 0u);
  EXPECT_EQ(wheel, tcp_sim_snapshot_for_jobs(1, false));
}

TEST(TcpClosedLoop, TrialReportsIdenticalWheelVsHeap) {
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  for (const char* cc : {"newreno", "bbr"}) {
    const WorkloadSpec cfg = base_spec(cc, 4);
    const auto a = run_trial(cfg, 10 * kPicosPerMilli, &plan, /*seed=*/9);
    const auto b = run_trial(cfg, 10 * kPicosPerMilli, &plan, /*seed=*/9,
                             /*wheel=*/false);
    EXPECT_EQ(a.bytes_acked, b.bytes_acked) << cc;
    EXPECT_EQ(a.segs_sent, b.segs_sent) << cc;
    EXPECT_EQ(a.retransmits, b.retransmits) << cc;
    EXPECT_EQ(a.rto_fires, b.rto_fires) << cc;
    EXPECT_EQ(a.acks_sent, b.acks_sent) << cc;
    EXPECT_EQ(a.queue_drops, b.queue_drops) << cc;
    EXPECT_EQ(a.goodput_bps, b.goodput_bps) << cc;
  }
}

TEST(TcpClosedLoop, RerunsAreByteIdenticalForFixedSeed) {
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  const WorkloadSpec cfg = base_spec("bbr", 3);
  const auto a = run_trial(cfg, 10 * kPicosPerMilli, &plan, /*seed=*/77);
  const auto b = run_trial(cfg, 10 * kPicosPerMilli, &plan, /*seed=*/77);
  EXPECT_EQ(a.bytes_acked, b.bytes_acked);
  EXPECT_EQ(a.segs_sent, b.segs_sent);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.rto_fires, b.rto_fires);
  EXPECT_EQ(a.fast_retx, b.fast_retx);
  EXPECT_EQ(a.acks_sent, b.acks_sent);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.goodput_bps, b.goodput_bps);
}

TEST(TcpMss, MaxMssIsTheLargestSegmentThatDelivers) {
  // kMaxMss is derived from the headers every data segment carries. One
  // byte more builds a 1519 B frame that the MAC drops, so nothing is
  // ever acked; that is why the front-ends reject it.
  EXPECT_EQ(kMaxMss, 1448u);
  WorkloadSpec cfg = base_spec("newreno", 1);
  cfg.mss = kMaxMss;
  EXPECT_GT(run_trial(cfg, kPicosPerMilli).bytes_acked, 0u);
  cfg.mss = kMaxMss + 1;
  const auto over = run_trial(cfg, kPicosPerMilli);
  EXPECT_GT(over.segs_sent, 0u);
  EXPECT_EQ(over.bytes_acked, 0u);
}

}  // namespace
}  // namespace osnt::tcp
