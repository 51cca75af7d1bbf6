#include "osnt/graph/topology.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "osnt/common/cli.hpp"
#include "osnt/common/json.hpp"
#include "osnt/common/random.hpp"
#include "osnt/core/device.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/hw/port.hpp"

namespace osnt::graph {
namespace {

using Json = json::Value;
using Reader = json::ObjectReader;

[[noreturn]] void fail(const std::string& why, const Json* at = nullptr) {
  std::string msg = "topology: " + why;
  if (at && at->line > 0) msg += " (" + at->where() + ")";
  throw TopologyError(msg);
}

/// A burst_source block's pattern fields. Each pattern reads only its
/// own keys, so a strobe block with an `alpha` key fails like any other
/// unknown key.
burst::PatternConfig parse_burst_pattern(Reader& r) {
  burst::PatternConfig cfg;
  const Json& pattern = r.required("pattern", Json::Type::kString);
  const auto& names = burst::known_patterns();
  if (std::find(names.begin(), names.end(), pattern.string) == names.end()) {
    r.fail("unknown burst pattern '" + pattern.string + "'" +
               did_you_mean(pattern.string, names),
           &pattern);
  }
  cfg.pattern = burst::pattern_from_name(pattern.string);

  cfg.rate_gbps = r.number("rate_gbps", cfg.rate_gbps);
  cfg.frame_size = r.count("frame_size", cfg.frame_size);
  cfg.flows = r.count("flows", cfg.flows);
  if (const Json* l4 = r.find("l4", Json::Type::kString)) {
    if (l4->string == "tcp_syn") {
      cfg.l4 = burst::L4::kTcpSyn;
    } else if (l4->string != "udp") {
      r.fail("unknown l4 '" + l4->string + "'" +
                 did_you_mean(l4->string, {"udp", "tcp_syn"}),
             l4);
    }
  }
  switch (cfg.pattern) {
    case burst::Pattern::kOnOff:
      cfg.period = r.time("period", cfg.period);
      cfg.duty = r.number("duty", cfg.duty);
      break;
    case burst::Pattern::kStrobe:
      cfg.period = r.time("period", cfg.period);
      cfg.pulse_frames = r.count("pulse_frames", cfg.pulse_frames);
      break;
    case burst::Pattern::kHeavyTail:
      cfg.alpha = r.number("alpha", cfg.alpha);
      cfg.mean_on = r.time("mean_on", cfg.mean_on);
      cfg.mean_off = r.time("mean_off", cfg.mean_off);
      break;
    case burst::Pattern::kAmplification:
      cfg.period = r.time("period", cfg.period);
      cfg.duty = r.number("duty", cfg.duty);
      cfg.attackers = r.count("attackers", cfg.attackers);
      cfg.request_size = r.count("request_size", cfg.request_size);
      cfg.amp_factor = r.number("amp_factor", cfg.amp_factor);
      break;
  }
  return cfg;
}

/// A "block" or "block:port" string value.
Endpoint parse_endpoint(const Json& v, const std::string& who) {
  Endpoint ep;
  const std::string& s = v.string;
  const auto colon = s.find(':');
  if (colon == std::string::npos) {
    ep.block = s;
    return ep;
  }
  ep.block = s.substr(0, colon);
  std::uint32_t port = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data() + colon + 1, end, port);
  if (ec == std::errc::result_out_of_range) {
    fail(who + ": port in endpoint '" + s + "' exceeds " +
             std::to_string(std::numeric_limits<std::uint32_t>::max()),
         &v);
  }
  if (ec != std::errc{} || ptr != end) {
    fail(who + ": bad port in endpoint '" + s + "'", &v);
  }
  ep.port = port;
  if (ep.block.empty()) fail(who + ": empty block name in endpoint", &v);
  return ep;
}

BlockSpec parse_block(const Json& b, std::size_t i) {
  const std::string who = "topology: blocks[" + std::to_string(i) + "]";
  Reader r(b, who);
  BlockSpec spec;
  spec.name = r.required_string("name");
  if (spec.name.empty()) r.fail("'name' must not be empty");
  const Json& type = r.required("type", Json::Type::kString);
  spec.type = type.string;
  r.set_prefix(who + " ('" + spec.name + "')");

  if (spec.type == "fifo_queue") {
    spec.fifo.rate_gbps = r.number("rate_gbps", spec.fifo.rate_gbps);
    spec.fifo.queue_frames = r.count("queue_frames", spec.fifo.queue_frames);
  } else if (spec.type == "red") {
    spec.red.rate_gbps = r.number("rate_gbps", spec.red.rate_gbps);
    spec.red.queue_frames = r.count("queue_frames", spec.red.queue_frames);
    spec.red.min_th = r.number("min_th", spec.red.min_th);
    spec.red.max_th = r.number("max_th", spec.red.max_th);
    spec.red.max_p = r.number("max_p", spec.red.max_p);
    spec.red.weight = r.number("weight", spec.red.weight);
  } else if (spec.type == "token_bucket") {
    auto& c = spec.token_bucket;
    c.rate_gbps = r.number("rate_gbps", c.rate_gbps);
    c.burst_bytes = r.count("burst_bytes", c.burst_bytes);
    c.shape = r.boolean("shape", c.shape);
    c.queue_frames = r.count("queue_frames", c.queue_frames);
  } else if (spec.type == "delay_ber") {
    spec.delay_ber.delay = r.time("delay", 0);
    spec.delay_ber.ber = r.number("ber", 0.0);
  } else if (spec.type == "ecmp") {
    spec.ecmp.fanout = r.count("fanout", spec.ecmp.fanout);
    spec.ecmp.salt = r.count("salt", spec.ecmp.salt);
    spec.num_outputs = spec.ecmp.fanout;
  } else if (spec.type == "sink") {
    spec.num_outputs = 0;
  } else if (spec.type == "monitor") {
    spec.monitor.rtt_probe = r.boolean("rtt_probe", spec.monitor.rtt_probe);
  } else if (spec.type == "burst_source") {
    spec.burst.pattern = parse_burst_pattern(r);
    spec.num_inputs = 0;
  } else if (spec.type == "legacy_switch") {
    auto& c = spec.legacy_switch;
    c.num_ports = r.count("num_ports", c.num_ports);
    c.queue_bytes = r.count("queue_bytes", c.queue_bytes);
    c.flood_unknown = r.boolean("flood_unknown", c.flood_unknown);
    c.lookup_rate_mpps = r.number("lookup_rate_mpps", c.lookup_rate_mpps);
    c.cut_through = r.boolean("cut_through", c.cut_through);
    c.pipeline_latency = r.time("pipeline_latency", c.pipeline_latency);
    if (c.num_ports == 0) r.fail("num_ports must be positive");
    spec.num_inputs = spec.num_outputs = c.num_ports;
  } else if (spec.type == "openflow_switch") {
    auto& c = spec.openflow_switch.sw;
    c.num_ports = r.count("num_ports", c.num_ports);
    c.table.max_entries = r.count("table_size", c.table.max_entries);
    if (c.num_ports == 0) r.fail("num_ports must be positive");
    spec.num_inputs = spec.num_outputs = c.num_ports;
  } else {
    r.fail("unknown block type '" + spec.type + "'" +
               did_you_mean(spec.type, TopologyFile::known_types()),
           &type);
  }
  r.finish();
  return spec;
}

WorkloadSpec parse_workload(const Json& w) {
  const std::string who = "workload";
  Reader r(w, "topology: " + who);
  WorkloadSpec spec;
  const Json& kind = r.required("kind", Json::Type::kString);
  if (kind.string == "none") {
    r.finish();
    return spec;
  }
  if (kind.string == "tcp") {
    spec.kind = WorkloadSpec::Kind::kTcp;
    spec.flows = r.count("flows", spec.flows);
    spec.cc = r.string("cc", spec.cc);
    spec.mss = r.count("mss", spec.mss, 1, tcp::kMaxMss);
    spec.bottleneck_gbps = r.number("bottleneck_gbps", spec.bottleneck_gbps);
    spec.queue_segments = r.count("queue_segments", spec.queue_segments);
    spec.rwnd_kb = r.count("rwnd_kb", spec.rwnd_kb);
    spec.rate_limit_detector =
        r.boolean("rate_limit_detector", spec.rate_limit_detector);
    if (spec.flows == 0) r.fail("'flows' must be positive");
    if (const Json* v = r.find("ack_ingress", Json::Type::kString)) {
      spec.ack_ingress = parse_endpoint(*v, who + ".ack_ingress");
    }
    if (const Json* v = r.find("ack_egress", Json::Type::kString)) {
      spec.ack_egress = parse_endpoint(*v, who + ".ack_egress");
    }
    if (spec.ack_ingress.has_value() != spec.ack_egress.has_value()) {
      r.fail("ack_ingress and ack_egress must be given together");
    }
  } else if (kind.string == "cbr") {
    spec.kind = WorkloadSpec::Kind::kCbr;
    spec.rate_gbps = r.number("rate_gbps", spec.rate_gbps);
    spec.frame_size = r.count("frame_size", spec.frame_size);
    spec.flow_count = r.count("flows", spec.flow_count, 1);
  } else {
    r.fail("unknown kind '" + kind.string + "'" +
               did_you_mean(kind.string, {"none", "tcp", "cbr"}),
           &kind);
  }
  spec.ingress = parse_endpoint(r.required("ingress", Json::Type::kString),
                                who + ".ingress");
  spec.egress = parse_endpoint(r.required("egress", Json::Type::kString),
                               who + ".egress");
  r.finish();
  return spec;
}

/// Structural validation: every referenced endpoint exists, input ports
/// are in range, and every output port is claimed at most once.
void validate(const TopologyFile& t) {
  std::unordered_map<std::string, const BlockSpec*> by_name;
  for (const auto& b : t.blocks) {
    if (!by_name.emplace(b.name, &b).second) {
      fail("duplicate block name '" + b.name + "'");
    }
  }
  const auto resolve = [&](const Endpoint& ep,
                           const std::string& who) -> const BlockSpec& {
    const auto it = by_name.find(ep.block);
    if (it == by_name.end()) {
      std::vector<std::string> names;
      names.reserve(t.blocks.size());
      for (const auto& b : t.blocks) names.push_back(b.name);
      fail(who + ": unknown block '" + ep.block + "'" +
           did_you_mean(ep.block, names));
    }
    return *it->second;
  };
  const auto check_out = [&](const Endpoint& ep, const std::string& who) {
    const BlockSpec& b = resolve(ep, who);
    if (ep.port >= b.num_outputs) {
      fail(who + ": block '" + b.name + "' has no output port " +
           std::to_string(ep.port) + " (outputs: " +
           std::to_string(b.num_outputs) + ")");
    }
  };
  const auto check_in = [&](const Endpoint& ep, const std::string& who) {
    const BlockSpec& b = resolve(ep, who);
    if (ep.port >= b.num_inputs) {
      fail(who + ": block '" + b.name + "' has no input port " +
           std::to_string(ep.port) + " (inputs: " +
           std::to_string(b.num_inputs) + ")");
    }
  };

  std::unordered_set<std::string> claimed;
  const auto claim = [&](const Endpoint& ep, const std::string& who) {
    check_out(ep, who);
    const std::string key = ep.block + ":" + std::to_string(ep.port);
    if (!claimed.insert(key).second) {
      fail(who + ": output '" + key + "' is already wired");
    }
  };

  for (std::size_t i = 0; i < t.edges.size(); ++i) {
    const std::string who = "edges[" + std::to_string(i) + "]";
    claim(t.edges[i].from, who);
    check_in(t.edges[i].to, who);
  }
  if (t.workload.kind != WorkloadSpec::Kind::kNone) {
    check_in(t.workload.ingress, "workload.ingress");
    claim(t.workload.egress, "workload.egress");
    if (t.workload.ack_ingress) {
      check_in(*t.workload.ack_ingress, "workload.ack_ingress");
      claim(*t.workload.ack_egress, "workload.ack_egress");
    }
  }
}

}  // namespace

const std::vector<std::string>& TopologyFile::known_types() {
  static const std::vector<std::string> kTypes = {
      "fifo_queue",    "red",  "token_bucket", "delay_ber", "ecmp",
      "sink",          "monitor", "legacy_switch", "openflow_switch",
      "burst_source"};
  return kTypes;
}

TopologyFile TopologyFile::from_json(const std::string& text) {
  TopologyFile t;
  try {
    const Json root = json::parse(text, "topology JSON");
    Reader r(root, "topology");
    t.name = r.string("name", "");
    t.seed = r.count("seed", t.seed);
    t.duration = r.time("duration", t.duration);

    const Json& blocks = r.required("blocks", Json::Type::kArray);
    if (blocks.array.empty()) r.fail("'blocks' must not be empty", &blocks);
    for (std::size_t i = 0; i < blocks.array.size(); ++i) {
      t.blocks.push_back(parse_block(blocks.array[i], i));
    }

    if (const Json* edges = r.find("edges", Json::Type::kArray)) {
      for (std::size_t i = 0; i < edges->array.size(); ++i) {
        const std::string who = "edges[" + std::to_string(i) + "]";
        Reader e(edges->array[i], "topology: " + who);
        EdgeSpec edge;
        edge.from = parse_endpoint(e.required("from", Json::Type::kString),
                                   who + ".from");
        edge.to = parse_endpoint(e.required("to", Json::Type::kString),
                                 who + ".to");
        edge.propagation = e.time("propagation", 0);
        e.finish();
        t.edges.push_back(edge);
      }
    }

    if (const Json* w = r.find("workload")) t.workload = parse_workload(*w);
    r.finish();
  } catch (const json::ParseError& e) {
    throw TopologyError(e.what());
  }
  validate(t);
  return t;
}

TopologyFile TopologyFile::load(const std::string& path) {
  try {
    return from_json(json::read_file(path, "topology"));
  } catch (const json::ParseError& e) {
    throw TopologyError(e.what());
  }
}

void TopologyFile::build(sim::Engine& eng, Graph& g, std::uint64_t trial_seed,
                         Picos horizon) const {
  if (horizon <= 0) horizon = duration;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockSpec& b = blocks[i];
    // Stream tag 0x109 ("toPO"-ish) + ordinal: decorrelated from the
    // workload's flow substreams, stable across runs of the same file.
    const std::uint64_t block_seed = derive_seed(trial_seed, 0x1090 + i);
    if (b.type == "fifo_queue") {
      g.emplace<FifoQueueBlock>(eng, b.name, b.fifo);
    } else if (b.type == "red") {
      RedConfig cfg = b.red;
      cfg.seed = block_seed;
      g.emplace<RedBlock>(eng, b.name, cfg);
    } else if (b.type == "token_bucket") {
      g.emplace<TokenBucketBlock>(eng, b.name, b.token_bucket);
    } else if (b.type == "delay_ber") {
      DelayBerConfig cfg = b.delay_ber;
      cfg.seed = block_seed;
      g.emplace<DelayBerBlock>(eng, b.name, cfg);
    } else if (b.type == "ecmp") {
      g.emplace<EcmpBlock>(eng, b.name, b.ecmp);
    } else if (b.type == "sink") {
      g.emplace<SinkBlock>(eng, b.name);
    } else if (b.type == "monitor") {
      g.emplace<MonitorBlock>(eng, b.name, b.monitor);
    } else if (b.type == "legacy_switch") {
      dut::LegacySwitchConfig cfg = b.legacy_switch;
      cfg.seed = block_seed;
      g.emplace<LegacySwitchBlock>(eng, b.name, cfg);
    } else if (b.type == "openflow_switch") {
      OpenFlowSwitchBlockConfig cfg = b.openflow_switch;
      cfg.sw.seed = block_seed;
      g.emplace<OpenFlowSwitchBlock>(eng, b.name, cfg);
    } else if (b.type == "burst_source") {
      burst::BurstSourceConfig cfg = b.burst;
      cfg.pattern.seed = block_seed;
      if (cfg.horizon <= 0) cfg.horizon = horizon;
      g.emplace<burst::BurstSourceBlock>(eng, b.name, cfg);
    } else {
      fail("unknown block type '" + b.type + "'");  // unreachable post-parse
    }
  }
  for (const auto& e : edges) {
    g.connect(e.from.block, e.from.port, e.to.block, e.to.port,
              e.propagation);
  }
}

void validate_fault_targets(const TopologyFile& topo,
                            const fault::FaultPlan& plan) {
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const fault::FaultEvent& ev = plan.events[i];
    if (ev.kind != fault::FaultKind::kRateLimit &&
        ev.kind != fault::FaultKind::kQueueCap) {
      continue;
    }
    const bool rate = ev.kind == fault::FaultKind::kRateLimit;
    const auto eligible = [rate](const BlockSpec& b) {
      if (b.type == "token_bucket") return true;
      return !rate && (b.type == "fifo_queue" || b.type == "red");
    };
    const BlockSpec* found = nullptr;
    std::vector<std::string> names;
    for (const auto& b : topo.blocks) {
      if (!eligible(b)) continue;
      names.push_back(b.name);
      if (b.name == ev.target) found = &b;
    }
    if (found) continue;
    const std::string who =
        std::string(fault_kind_name(ev.kind)) + " event " + std::to_string(i);
    // Distinguish "no such block" from "block of the wrong type" — the
    // second is the likelier authoring mistake and deserves a plain answer.
    for (const auto& b : topo.blocks) {
      if (b.name == ev.target) {
        fail("fault plan: " + who + " targets block '" + ev.target +
             "' of type '" + b.type + "', which " +
             (rate ? "is not a token_bucket"
                   : "has no queue to cap (need fifo_queue, red, or "
                     "token_bucket)"));
      }
    }
    fail("fault plan: " + who + " targets unknown block '" + ev.target + "'" +
         did_you_mean(ev.target, names));
  }
}

void validate_workload(const TopologyFile& topo) {
  const WorkloadSpec& w = topo.workload;
  if (w.kind == WorkloadSpec::Kind::kTcp) {
    static const std::vector<std::string> kCc = {"newreno", "cubic", "bbr"};
    if (std::find(kCc.begin(), kCc.end(), w.cc) == kCc.end()) {
      fail("workload: unknown cc '" + w.cc + "'" + did_you_mean(w.cc, kCc));
    }
    if (w.bottleneck_gbps < 0) {
      fail("workload: 'bottleneck_gbps' must not be negative");
    }
  } else if (w.kind == WorkloadSpec::Kind::kCbr) {
    if (w.rate_gbps <= 0) fail("workload: 'rate_gbps' must be positive");
    if (w.frame_size < net::kEthMinFrame ||
        w.frame_size > net::kEthMaxFrame) {
      fail("workload: 'frame_size' must be in [64, 1518]");
    }
  }
  for (const auto& b : topo.blocks) {
    if (b.type != "burst_source") continue;
    try {
      b.burst.pattern.validate();
    } catch (const burst::BurstError& e) {
      fail("block '" + b.name + "': " + std::string(e.what()));
    }
  }
}

TopologyTrialReport run_topology_trial(const TopologyFile& topo,
                                       std::uint64_t trial_seed,
                                       Picos duration,
                                       const fault::FaultPlan* plan,
                                       telemetry::TraceRecorder* trace,
                                       Picos series_interval) {
  if (duration == 0) duration = topo.duration;
  TopologyTrialReport report;

  sim::Engine eng;
  if (trace) eng.set_trace(trace);
  core::OsntDevice dev{eng};
  Graph g{eng};
  topo.build(eng, g, trial_seed, duration);

  const WorkloadSpec& w = topo.workload;

  // Sim-time sampler: per-block intrinsic channels plus each monitor's
  // in-plane RTT histogram. A tcp workload adds its channels below.
  std::optional<telemetry::TimeSeries> series;
  if (series_interval > 0) {
    series.emplace(series_interval);
    for (std::size_t i = 0; i < g.num_blocks(); ++i) {
      const Block* b = &g.block(i);
      const std::string prefix = "graph." + b->name() + ".";
      series->add_counter(prefix + "frames_in",
                          [b] { return b->frames_in(); });
      series->add_counter(prefix + "frames_out",
                          [b] { return b->frames_out(); });
      series->add_counter(prefix + "drops", [b] { return b->drops(); });
      series->add_counter(prefix + "frame_bytes",
                          [b] { return b->bytes_in(); });
      if (const auto* mb = dynamic_cast<const MonitorBlock*>(b)) {
        series->add_histogram(prefix + "rtt.ns",
                              [mb] { return mb->rtt_probe().merged(); });
      }
    }
    series->attach(eng, duration);
  }

  // Forward path: device TX port 0 → graph → device RX port 1. The
  // reverse direction runs through its own blocks (a tcp ACK path) or
  // an ideal cable.
  if (w.kind != WorkloadSpec::Kind::kNone) {
    dev.port(0).out_link().connect(g.input(w.ingress.block, w.ingress.port));
    g.connect_output(w.egress.block, w.egress.port, dev.port(1).rx());
    if (w.ack_ingress) {
      dev.port(1).out_link().connect(
          g.input(w.ack_ingress->block, w.ack_ingress->port));
      g.connect_output(w.ack_egress->block, w.ack_egress->port,
                       dev.port(0).rx());
    } else {
      dev.port(1).out_link().connect(dev.port(0).rx());
    }
  }

  std::optional<tcp::ClosedLoopWorkload> workload;
  if (w.kind == WorkloadSpec::Kind::kTcp) {
    tcp::WorkloadConfig cfg;
    cfg.flows = w.flows;
    cfg.cc = w.cc;
    cfg.mss = w.mss;
    cfg.bottleneck_gbps = w.bottleneck_gbps;
    cfg.queue_segments = w.queue_segments;
    cfg.rwnd_bytes = w.rwnd_kb * 1024;
    cfg.rate_limit_detector = w.rate_limit_detector;
    cfg.seed = trial_seed;
    workload.emplace(eng, dev, cfg);
    if (series) workload->add_series_channels(*series);
  }

  std::optional<fault::Injector> injector;
  if (plan && !plan->events.empty()) {
    injector.emplace(eng, *plan);
    injector->attach_device(dev);
    injector->attach_graph(g);
    injector->arm();
  }
  g.start();
  if (workload) workload->start();

  if (w.kind == WorkloadSpec::Kind::kCbr) {
    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::gbps(w.rate_gbps);
    spec.frame_size = w.frame_size;
    spec.flow_count = w.flow_count;
    spec.seed = trial_seed;
    report.cbr = core::run_capture_test(eng, dev, 0, 1, spec, duration);
  } else {
    eng.run_until(duration);
  }

  if (workload) report.tcp = workload->report(duration);
  if (series) {
    series->finish();
    report.series = series->take();
  }
  workload.reset();  // detaches its taps, flushes tcp.* telemetry

  report.blocks.reserve(g.num_blocks());
  for (std::size_t i = 0; i < g.num_blocks(); ++i) {
    const Block& b = g.block(i);
    BlockCounters bc;
    bc.name = b.name();
    bc.frames_in = b.frames_in();
    bc.frames_out = b.frames_out();
    bc.drops = b.drops();
    bc.frame_bytes = b.bytes_in();
    if (const auto* mb = dynamic_cast<const MonitorBlock*>(&b)) {
      const telemetry::Log2Histogram h = mb->rtt_probe().merged();
      bc.rtt_samples = h.count();
      if (h.count() > 0) {
        bc.rtt_p50_ns = h.quantile(0.5);
        bc.rtt_p90_ns = h.quantile(0.9);
        bc.rtt_p99_ns = h.quantile(0.99);
      }
    }
    report.blocks.push_back(std::move(bc));
  }
  report.graph_frames_in = g.total_frames_in();
  report.graph_drops = g.total_drops();
  return report;
}

}  // namespace osnt::graph
