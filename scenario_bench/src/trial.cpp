#include "trial.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "osnt/burst/source.hpp"
#include "osnt/common/json.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/workload.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/tstamp/embed.hpp"

namespace scenario_bench {

using osnt::Picos;
using osnt::kPicosPerMicro;
using osnt::kPicosPerMilli;
namespace graph = osnt::graph;
namespace net = osnt::net;
namespace sim = osnt::sim;
namespace telemetry = osnt::telemetry;
using Kind = graph::WorkloadSpec::Kind;
using Clock = std::chrono::steady_clock;

namespace {

/// run_capture_test's drain after the generator stops.
constexpr Picos kCaptureDrain = 10 * kPicosPerMilli;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times a set-up phase and, in a traced trial, records it as a span.
class Phase {
 public:
  Phase(SpanRecorder* spans, const char* name, double& acc)
      : spans_(spans), acc_(&acc), t0_(Clock::now()) {
    if (spans_) span_ = spans_->begin(spans_->intern(name));
  }
  ~Phase() {
    if (spans_) spans_->end(span_);
    *acc_ += seconds_since(t0_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  SpanRecorder* spans_;
  double* acc_;
  Clock::time_point t0_;
  std::int32_t span_ = -1;
};

/// FNV-1a over the kSimOnly snapshot, skipping zero-valued lines.
std::string sim_digest(const std::string& snapshot) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t pos = 0;
  while (pos < snapshot.size()) {
    std::size_t end = snapshot.find('\n', pos);
    if (end == std::string::npos) end = snapshot.size();
    const std::string line = snapshot.substr(pos, end - pos);
    pos = end + 1;
    const bool zero = line.ends_with(": 0") || line.ends_with(": 0,") ||
                      line.find("{\"count\": 0,") != std::string::npos;
    if (zero) continue;
    for (const char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= '\n';
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::map<std::string, double> telemetry_values(const std::string& snapshot) {
  std::map<std::string, double> out;
  const osnt::json::Value doc = osnt::json::parse(snapshot, "telemetry");
  for (const char* group : {"counters", "gauges"}) {
    const osnt::json::Value* g = doc.find(group);
    if (!g) continue;
    for (const auto& [name, v] : g->object) out[name] = v.number;
  }
  return out;
}

bool same(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

Shape classify(const net::Packet& pkt) {
  const auto p = net::parse_packet(pkt.bytes());
  if (!p) return Shape::kOther;
  if (p->l4 == net::L4Kind::kUdp) return Shape::kUdp;
  if (p->l4 != net::L4Kind::kTcp) return Shape::kOther;
  if (p->tcp.flags & net::TcpFlags::kSyn) return Shape::kTcpSyn;
  const std::size_t ip_end =
      p->l3_offset + static_cast<std::size_t>(p->ipv4.total_length);
  return ip_end > p->payload_offset ? Shape::kTcpData : Shape::kTcpAck;
}

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kUdp: return "udp";
    case Shape::kTcpData: return "tcp_data";
    case Shape::kTcpAck: return "tcp_ack";
    case Shape::kTcpSyn: return "tcp_syn";
    case Shape::kOther: break;
  }
  return "other";
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> kAll = {
      {"cbr_capture",
       "per-frame capture path (gen TX, graph, MAC, mon RX, cutter crc32, "
       "DMA, host capture) does most of the work; no TCP",
       40 * kPicosPerMilli, 500 * kPicosPerMicro, "path0", Shape::kUdp},
      {"tcp_dumbbell",
       "ACK-clocked transport (checksums, TCP option parsing, timer wheel) "
       "does most of the work; capture off",
       1000 * kPicosPerMilli, 10 * kPicosPerMilli, "bottleneck",
       Shape::kTcpData},
      {"syn_flood",
       "64 B SYN waves make per-frame cost dominate; graph drop-heavy, TCP "
       "RTO-heavy, burst schedule rendered at set-up",
       400 * kPicosPerMilli, 250 * kPicosPerMicro, "bottleneck",
       Shape::kTcpSyn},
  };
  return kAll;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

TrialResult run_trial(const std::string& topo_text, const WorkloadDef& w,
                      std::uint64_t seed, SpanRecorder* spans) {
  TrialResult r;
  telemetry::Registry& reg = telemetry::registry();
  reg.reset();
  {
    std::optional<graph::TopologyFile> topo;
    {
      Phase ph(spans, "setup.parse", r.parse_s);
      topo.emplace(graph::TopologyFile::from_json(topo_text));
      graph::validate_workload(*topo);
    }
    const graph::WorkloadSpec& ws = topo->workload;
    if (ws.kind != Kind::kTcp && ws.kind != Kind::kCbr) {
      throw std::runtime_error("workload kind must be tcp or cbr");
    }

    std::optional<Phase> build(std::in_place, spans, "setup.build", r.build_s);
    sim::Engine eng;
    eng.set_handler_timing(spans != nullptr);
    osnt::core::OsntDevice dev{eng};
    graph::Graph g{eng};
    topo->build(eng, g, seed, w.duration);

    std::deque<TimedSink> timed;
    std::vector<std::string> seam_blocks;
    const auto seam = [&](const char* name, const std::string& block,
                          sim::FrameSink& inner) -> sim::FrameSink& {
      if (!spans) return inner;
      seam_blocks.push_back(block);
      return timed.emplace_back(*spans, name, inner);
    };
    // The wiring of run_topology_trial: device TX port 0 → graph → device
    // RX port 1, and the ACK direction through its own blocks or a cable.
    dev.port(0).out_link().connect(
        seam("graph.ingress", ws.ingress.block,
             g.input(ws.ingress.block, ws.ingress.port)));
    g.connect_output(ws.egress.block, ws.egress.port,
                     seam("device.rx.port1", "", dev.port(1).rx()));
    const bool ack_path = ws.kind == Kind::kTcp && ws.ack_ingress.has_value();
    if (ack_path) {
      dev.port(1).out_link().connect(
          seam("graph.ack_ingress", ws.ack_ingress->block,
               g.input(ws.ack_ingress->block, ws.ack_ingress->port)));
      g.connect_output(ws.ack_egress->block, ws.ack_egress->port,
                       seam("device.rx.port0", "", dev.port(0).rx()));
    } else {
      dev.port(1).out_link().connect(
          seam("device.rx.port0", "", dev.port(0).rx()));
    }
    build.reset();

    std::optional<osnt::tcp::ClosedLoopWorkload> workload;
    osnt::gen::TxPipeline* tx = nullptr;
    osnt::mon::RxPipeline* rx = nullptr;
    if (ws.kind == Kind::kTcp) {
      {
        Phase ph(spans, "setup.workload", r.workload_s);
        osnt::tcp::WorkloadConfig cfg;
        cfg.flows = ws.flows;
        cfg.cc = ws.cc;
        cfg.mss = ws.mss;
        cfg.bottleneck_gbps = ws.bottleneck_gbps;
        cfg.queue_segments = ws.queue_segments;
        cfg.rwnd_bytes = ws.rwnd_kb * 1024;
        cfg.rate_limit_detector = ws.rate_limit_detector;
        cfg.seed = seed;
        workload.emplace(eng, dev, cfg);
      }
      {
        Phase ph(spans, "setup.build", r.build_s);
        g.start();  // renders burst_source schedules
      }
      Phase ph(spans, "setup.workload", r.workload_s);
      workload->start();
    } else {
      {
        Phase ph(spans, "setup.build", r.build_s);
        g.start();
      }
      // The device TX/RX calls of core::run_capture_test.
      Phase ph(spans, "setup.workload", r.workload_s);
      osnt::core::TrafficSpec spec;
      spec.rate = osnt::gen::RateSpec::gbps(ws.rate_gbps);
      spec.frame_size = ws.frame_size;
      spec.flow_count = ws.flow_count;
      spec.seed = seed;
      osnt::gen::TxConfig txc;
      txc.rate = spec.rate;
      txc.seed = spec.seed;
      tx = &dev.configure_tx(0, txc);
      tx->set_source(osnt::core::make_source(spec));
      tx->set_gap_model(osnt::core::make_gap_model(spec));
      rx = &dev.rx(1);
      osnt::mon::FilterRule probe_rule;
      probe_rule.protocol = net::ipproto::kUdp;
      probe_rule.dst_port = spec.dst_port;
      rx->filters().clear();
      rx->filters().add(probe_rule);
      rx->set_probe(probe_rule);
      dev.capture().clear();
      tx->start();
    }

    // Run phase: fixed simulated-time slices.
    const std::uint32_t slice_name = spans ? spans->intern("slice") : 0;
    const Picos t0 = eng.now();
    const auto run_to = [&](Picos until) {
      while (eng.now() < until) {
        const Picos next = std::min(until, eng.now() + w.slice);
        const std::int32_t span = spans ? spans->begin(slice_name) : -1;
        const auto ts = Clock::now();
        eng.run_until(next);
        r.slice_s.push_back(seconds_since(ts));
        if (spans) spans->end(span);
      }
    };
    const auto run_start = Clock::now();
    run_to(t0 + w.duration);
    if (tx) {
      tx->stop();
      run_to(eng.now() + kCaptureDrain);
    }
    r.run_s = seconds_since(run_start);
    r.sim_time = eng.now() - t0;

    // Collect what run_topology_trial reports.
    graph::TopologyTrialReport& rep = r.report;
    if (workload) {
      osnt::tcp::TcpTrialReport& t = rep.tcp;
      const auto& wl = *workload;
      t.bytes_acked = wl.total_bytes_acked();
      t.retransmits = wl.total_retransmits();
      t.rto_fires = wl.total_rto_fires();
      t.fast_retx = wl.total_fast_retx();
      t.cwnd_reductions = wl.total_cwnd_reductions();
      t.acks_sent = wl.total_acks_sent();
      t.queue_drops = wl.source().drops();
      t.goodput_bps = wl.goodput_bps(w.duration);
      t.rld_detections = wl.total_rld_detections();
      t.rld_rate_bps = wl.mean_rld_rate_bps();
      t.rld_detect_time = wl.mean_rld_detect_time();
      const telemetry::Log2Histogram rtt = wl.rtt_probe().merged();
      if (rtt.count() > 0) {
        t.rtt_p99_ns = rtt.quantile(0.99);
        t.rtt_min_ns = static_cast<double>(rtt.min());
      }
      for (std::size_t i = 0; i < wl.num_flows(); ++i) {
        const osnt::tcp::Flow& f = wl.flow(i);
        t.segs_sent += f.stats().segs_sent;
        t.emit_rejects += f.stats().emit_rejects;
        r.tcp_bytes_sent += f.stats().bytes_sent;
        const double rate = f.delivery_rate_bps();
        if (i == 0 || rate < t.min_flow_rate_bps) t.min_flow_rate_bps = rate;
        if (i == 0 || rate > t.max_flow_rate_bps) t.max_flow_rate_bps = rate;
      }
      workload.reset();  // run_topology_trial's scope ends it here too
    } else {
      osnt::core::RunResult& c = rep.cbr;
      c.tx_frames = tx->frames_sent();
      c.rx_frames = rx->probe_seen();
      c.captured = rx->captured();
      c.dma_drops = rx->dma_drops();
      c.offered_gbps = tx->achieved_gbps();
      c.delivered_gbps = rx->stats().mean_gbps();
      c.latency_ns =
          dev.capture().latency_ns(osnt::tstamp::kDefaultEmbedOffset, 1);
      const auto& lat = c.latency_ns.samples();
      for (std::size_t i = 1; i < lat.size(); ++i) {
        c.jitter_ns.add(std::abs(lat[i] - lat[i - 1]));
      }
    }
    for (std::size_t i = 0; i < g.num_blocks(); ++i) {
      graph::Block& b = g.block(i);
      graph::BlockCounters bc;
      bc.name = b.name();
      bc.frames_in = b.frames_in();
      bc.frames_out = b.frames_out();
      bc.drops = b.drops();
      bc.frame_bytes = b.bytes_in();
      if (const auto* mb = dynamic_cast<const graph::MonitorBlock*>(&b)) {
        const telemetry::Log2Histogram h = mb->rtt_probe().merged();
        bc.rtt_samples = h.count();
        if (h.count() > 0) {
          bc.rtt_p50_ns = h.quantile(0.5);
          bc.rtt_p90_ns = h.quantile(0.9);
          bc.rtt_p99_ns = h.quantile(0.99);
        }
      }
      using osnt::burst::BurstSourceBlock;
      if (const auto* bs = dynamic_cast<const BurstSourceBlock*>(&b)) {
        r.burst_frames += bs->frames_out();
        r.burst_bursts += bs->bursts_emitted();
      }
      rep.blocks.push_back(std::move(bc));
    }
    rep.graph_frames_in = g.total_frames_in();
    rep.graph_drops = g.total_drops();

    r.frames_entered = g.at(ws.ingress.block).frames_in() + r.burst_frames;
    if (ack_path) r.frames_entered += g.at(ws.ack_ingress->block).frames_in();
    r.events = eng.events_processed();
    r.events_cancelled = eng.events_cancelled();
    r.live_high_water = eng.live_high_water();
    for (std::size_t i = 0; i < timed.size(); ++i) {
      SeamResult s;
      s.span_name = timed[i].name();
      s.block = seam_blocks[i];
      s.calls = timed[i].calls();
      if (!s.block.empty()) s.block_frames_in = g.at(s.block).frames_in();
      s.shapes = timed[i].shapes();
      r.seams.push_back(std::move(s));
    }
  }  // every layer merges its counters into the registry here

  r.telemetry = telemetry_values(reg.to_json(telemetry::Snapshot::kAll));
  r.sim_digest = sim_digest(reg.to_json(telemetry::Snapshot::kSimOnly));
  if (spans) {
    const std::vector<double> self = spans->self_seconds();
    for (SeamResult& s : r.seams) {
      s.name = spans->names()[s.span_name];
      s.self_s = self[s.span_name];
    }
    for (const auto& [name, v] : r.telemetry) {
      if (name.starts_with("sim.engine.handler_ns.wall.")) {
        r.handler_s_total += v * 1e-9;
      }
    }
  }
  return r;
}

graph::TopologyTrialReport reference_trial(const std::string& topo_text,
                                           const WorkloadDef& w,
                                           std::uint64_t seed) {
  const graph::TopologyFile topo = graph::TopologyFile::from_json(topo_text);
  return graph::run_topology_trial(topo, seed, w.duration);
}

std::string compare_reports(const graph::TopologyTrialReport& a,
                            const graph::TopologyTrialReport& b) {
  const auto num = [](const char* what, auto x, auto y) -> std::string {
    if constexpr (std::is_floating_point_v<decltype(x)>) {
      if (same(x, y)) return "";
    } else if (x == y) {
      return "";
    }
    std::ostringstream os;
    os.precision(17);
    os << what << ": " << x << " vs " << y;
    return os.str();
  };
  for (const auto& d : {
           num("graph_frames_in", a.graph_frames_in, b.graph_frames_in),
           num("graph_drops", a.graph_drops, b.graph_drops),
           num("tcp.bytes_acked", a.tcp.bytes_acked, b.tcp.bytes_acked),
           num("tcp.segs_sent", a.tcp.segs_sent, b.tcp.segs_sent),
           num("tcp.retransmits", a.tcp.retransmits, b.tcp.retransmits),
           num("tcp.rto_fires", a.tcp.rto_fires, b.tcp.rto_fires),
           num("tcp.fast_retx", a.tcp.fast_retx, b.tcp.fast_retx),
           num("tcp.cwnd_reductions", a.tcp.cwnd_reductions,
               b.tcp.cwnd_reductions),
           num("tcp.acks_sent", a.tcp.acks_sent, b.tcp.acks_sent),
           num("tcp.queue_drops", a.tcp.queue_drops, b.tcp.queue_drops),
           num("tcp.emit_rejects", a.tcp.emit_rejects, b.tcp.emit_rejects),
           num("tcp.goodput_bps", a.tcp.goodput_bps, b.tcp.goodput_bps),
           num("tcp.min_flow_rate_bps", a.tcp.min_flow_rate_bps,
               b.tcp.min_flow_rate_bps),
           num("tcp.max_flow_rate_bps", a.tcp.max_flow_rate_bps,
               b.tcp.max_flow_rate_bps),
           num("tcp.rld_detections", a.tcp.rld_detections,
               b.tcp.rld_detections),
           num("tcp.rld_rate_bps", a.tcp.rld_rate_bps, b.tcp.rld_rate_bps),
           num("tcp.rld_detect_time", a.tcp.rld_detect_time,
               b.tcp.rld_detect_time),
           num("tcp.rtt_p99_ns", a.tcp.rtt_p99_ns, b.tcp.rtt_p99_ns),
           num("tcp.rtt_min_ns", a.tcp.rtt_min_ns, b.tcp.rtt_min_ns),
           num("cbr.tx_frames", a.cbr.tx_frames, b.cbr.tx_frames),
           num("cbr.rx_frames", a.cbr.rx_frames, b.cbr.rx_frames),
           num("cbr.captured", a.cbr.captured, b.cbr.captured),
           num("cbr.dma_drops", a.cbr.dma_drops, b.cbr.dma_drops),
           num("cbr.offered_gbps", a.cbr.offered_gbps, b.cbr.offered_gbps),
           num("cbr.delivered_gbps", a.cbr.delivered_gbps,
               b.cbr.delivered_gbps)}) {
    if (!d.empty()) return d;
  }
  if (a.cbr.latency_ns.samples() != b.cbr.latency_ns.samples()) {
    return "cbr.latency_ns samples differ";
  }
  if (a.cbr.jitter_ns.samples() != b.cbr.jitter_ns.samples()) {
    return "cbr.jitter_ns samples differ";
  }
  if (a.blocks.size() != b.blocks.size()) return "block count differs";
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const graph::BlockCounters& x = a.blocks[i];
    const graph::BlockCounters& y = b.blocks[i];
    const std::string at = "block " + x.name + " ";
    if (x.name != y.name) return at + "name vs " + y.name;
    for (const auto& d :
         {num("frames_in", x.frames_in, y.frames_in),
          num("frames_out", x.frames_out, y.frames_out),
          num("drops", x.drops, y.drops),
          num("frame_bytes", x.frame_bytes, y.frame_bytes),
          num("rtt_samples", x.rtt_samples, y.rtt_samples),
          num("rtt_p50_ns", x.rtt_p50_ns, y.rtt_p50_ns),
          num("rtt_p90_ns", x.rtt_p90_ns, y.rtt_p90_ns),
          num("rtt_p99_ns", x.rtt_p99_ns, y.rtt_p99_ns)}) {
      if (!d.empty()) return at + d;
    }
  }
  return "";
}

}  // namespace scenario_bench
