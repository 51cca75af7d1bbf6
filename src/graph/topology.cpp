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

/// rwnd_kb is scaled to bytes; a larger value would wrap.
constexpr std::uint64_t kMaxRwndKb =
    std::numeric_limits<std::uint64_t>::max() / 1024;

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

/// Where build() puts a block: the graph, plus the two per-block inputs
/// a row may use — the block's own random stream and the run horizon.
struct BuildSite {
  sim::Engine& eng;
  Graph& g;
  std::uint64_t seed;
  Picos horizon;
};

/// Everything the loader knows about one block type. `parse` reads the
/// type's keys into spec.config (the keys read are the keys allowed) and
/// sets any port count that is not 1; `build` emplaces the block,
/// applying the type's seed rule. A new block type is one new row.
struct BlockType {
  const char* name;
  void (*parse)(Reader& r, BlockSpec& spec);
  void (*build)(const BlockSpec& b, const BuildSite& at);
};

constexpr BlockType kBlockTypes[] = {
    {"fifo_queue",
     [](Reader& r, BlockSpec& s) {
       auto& c = s.config.emplace<FifoQueueConfig>();
       c.rate_gbps = r.number("rate_gbps", c.rate_gbps);
       c.queue_frames = r.count("queue_frames", c.queue_frames);
     },
     [](const BlockSpec& b, const BuildSite& at) {
       at.g.emplace<FifoQueueBlock>(at.eng, b.name,
                                    std::get<FifoQueueConfig>(b.config));
     }},
    {"red",
     [](Reader& r, BlockSpec& s) {
       auto& c = s.config.emplace<RedConfig>();
       c.rate_gbps = r.number("rate_gbps", c.rate_gbps);
       c.queue_frames = r.count("queue_frames", c.queue_frames);
       c.min_th = r.number("min_th", c.min_th);
       c.max_th = r.number("max_th", c.max_th);
       c.max_p = r.number("max_p", c.max_p);
       c.weight = r.number("weight", c.weight);
     },
     [](const BlockSpec& b, const BuildSite& at) {
       auto c = std::get<RedConfig>(b.config);
       c.seed = at.seed;
       at.g.emplace<RedBlock>(at.eng, b.name, c);
     }},
    {"token_bucket",
     [](Reader& r, BlockSpec& s) {
       auto& c = s.config.emplace<TokenBucketConfig>();
       c.rate_gbps = r.number("rate_gbps", c.rate_gbps);
       c.burst_bytes = r.count("burst_bytes", c.burst_bytes);
       c.shape = r.boolean("shape", c.shape);
       c.queue_frames = r.count("queue_frames", c.queue_frames);
     },
     [](const BlockSpec& b, const BuildSite& at) {
       at.g.emplace<TokenBucketBlock>(at.eng, b.name,
                                      std::get<TokenBucketConfig>(b.config));
     }},
    {"delay_ber",
     [](Reader& r, BlockSpec& s) {
       auto& c = s.config.emplace<DelayBerConfig>();
       c.delay = r.time("delay", c.delay);
       c.ber = r.number("ber", c.ber);
     },
     [](const BlockSpec& b, const BuildSite& at) {
       auto c = std::get<DelayBerConfig>(b.config);
       c.seed = at.seed;
       at.g.emplace<DelayBerBlock>(at.eng, b.name, c);
     }},
    {"ecmp",
     [](Reader& r, BlockSpec& s) {
       auto& c = s.config.emplace<EcmpConfig>();
       c.fanout = r.count("fanout", c.fanout);
       c.salt = r.count("salt", c.salt);
       s.num_outputs = c.fanout;
     },
     [](const BlockSpec& b, const BuildSite& at) {
       at.g.emplace<EcmpBlock>(at.eng, b.name, std::get<EcmpConfig>(b.config));
     }},
    {"sink", [](Reader&, BlockSpec& s) { s.num_outputs = 0; },
     [](const BlockSpec& b, const BuildSite& at) {
       at.g.emplace<SinkBlock>(at.eng, b.name);
     }},
    {"monitor",
     [](Reader& r, BlockSpec& s) {
       auto& c = s.config.emplace<MonitorConfig>();
       c.rtt_probe = r.boolean("rtt_probe", c.rtt_probe);
     },
     [](const BlockSpec& b, const BuildSite& at) {
       at.g.emplace<MonitorBlock>(at.eng, b.name,
                                  std::get<MonitorConfig>(b.config));
     }},
    {"legacy_switch",
     [](Reader& r, BlockSpec& s) {
       auto& c = s.config.emplace<dut::LegacySwitchConfig>();
       c.num_ports = r.count("num_ports", c.num_ports);
       c.queue_bytes = r.count("queue_bytes", c.queue_bytes);
       c.flood_unknown = r.boolean("flood_unknown", c.flood_unknown);
       c.lookup_rate_mpps = r.number("lookup_rate_mpps", c.lookup_rate_mpps);
       c.cut_through = r.boolean("cut_through", c.cut_through);
       c.pipeline_latency = r.time("pipeline_latency", c.pipeline_latency);
       if (c.num_ports == 0) r.fail("num_ports must be positive");
       s.num_inputs = s.num_outputs = c.num_ports;
     },
     [](const BlockSpec& b, const BuildSite& at) {
       auto c = std::get<dut::LegacySwitchConfig>(b.config);
       c.seed = at.seed;
       at.g.emplace<LegacySwitchBlock>(at.eng, b.name, c);
     }},
    {"openflow_switch",
     [](Reader& r, BlockSpec& s) {
       auto& c = s.config.emplace<OpenFlowSwitchBlockConfig>().sw;
       c.num_ports = r.count("num_ports", c.num_ports);
       c.table.max_entries = r.count("table_size", c.table.max_entries);
       if (c.num_ports == 0) r.fail("num_ports must be positive");
       s.num_inputs = s.num_outputs = c.num_ports;
     },
     [](const BlockSpec& b, const BuildSite& at) {
       auto c = std::get<OpenFlowSwitchBlockConfig>(b.config);
       c.sw.seed = at.seed;
       at.g.emplace<OpenFlowSwitchBlock>(at.eng, b.name, c);
     }},
    {"burst_source",
     [](Reader& r, BlockSpec& s) {
       s.config.emplace<burst::BurstSourceConfig>().pattern =
           parse_burst_pattern(r);
       s.num_inputs = 0;
     },
     [](const BlockSpec& b, const BuildSite& at) {
       auto c = std::get<burst::BurstSourceConfig>(b.config);
       c.pattern.seed = at.seed;
       if (c.horizon <= 0) c.horizon = at.horizon;
       at.g.emplace<burst::BurstSourceBlock>(at.eng, b.name, c);
     }},
};

/// The row for `type`. An unknown name fails with a did-you-mean over the
/// table, positioned through `r` when the name came from a file.
const BlockType& block_type(const std::string& type, const Reader* r = nullptr,
                            const Json* at = nullptr) {
  for (const BlockType& t : kBlockTypes) {
    if (type == t.name) return t;
  }
  const std::string why = "unknown block type '" + type + "'" +
                          did_you_mean(type, TopologyFile::known_types());
  if (r) r->fail(why, at);
  fail(why);
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
  block_type(spec.type, &r, &type).parse(r, spec);
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
    spec.flows = r.count("flows", spec.flows, 1, tcp::kMaxFlows);
    spec.cc = r.string("cc", spec.cc);
    spec.mss = r.count("mss", spec.mss, 1, tcp::kMaxMss);
    spec.bottleneck_gbps = r.number("bottleneck_gbps", spec.bottleneck_gbps);
    spec.queue_segments = r.count("queue_segments", spec.queue_segments);
    spec.rwnd_kb = r.count("rwnd_kb", spec.rwnd_kb, 1, kMaxRwndKb);
    spec.bytes_per_flow = r.count("bytes_per_flow", spec.bytes_per_flow);
    spec.min_rto = r.time("min_rto", spec.min_rto);
    spec.max_rto = r.time("max_rto", spec.max_rto);
    spec.rate_limit_detector =
        r.boolean("rate_limit_detector", spec.rate_limit_detector);
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
  const auto check_port = [&](const Endpoint& ep, const std::string& who,
                              bool input) {
    const BlockSpec& b = resolve(ep, who);
    const std::size_t ports = input ? b.num_inputs : b.num_outputs;
    const std::string side = input ? "input" : "output";
    if (ep.port >= ports) {
      fail(who + ": block '" + b.name + "' has no " + side + " port " +
           std::to_string(ep.port) + " (" + side + "s: " +
           std::to_string(ports) + ")");
    }
  };

  std::unordered_set<std::string> claimed;
  const auto claim = [&](const Endpoint& ep, const std::string& who) {
    check_port(ep, who, /*input=*/false);
    const std::string key = ep.block + ":" + std::to_string(ep.port);
    if (!claimed.insert(key).second) {
      fail(who + ": output '" + key + "' is already wired");
    }
  };

  for (std::size_t i = 0; i < t.edges.size(); ++i) {
    const std::string who = "edges[" + std::to_string(i) + "]";
    claim(t.edges[i].from, who);
    check_port(t.edges[i].to, who, /*input=*/true);
  }
  if (t.workload.kind != WorkloadSpec::Kind::kNone) {
    check_port(t.workload.ingress, "workload.ingress", /*input=*/true);
    claim(t.workload.egress, "workload.egress");
    if (t.workload.ack_ingress) {
      check_port(*t.workload.ack_ingress, "workload.ack_ingress",
                 /*input=*/true);
      claim(*t.workload.ack_egress, "workload.ack_egress");
    }
  }
}

}  // namespace

const std::vector<std::string>& TopologyFile::known_types() {
  static const std::vector<std::string> kTypes = [] {
    std::vector<std::string> names;
    for (const BlockType& t : kBlockTypes) names.emplace_back(t.name);
    return names;
  }();
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
  validate_workload(t);
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
    // Stream tag 0x109 ("toPO"-ish) + ordinal: decorrelated from the
    // workload's flow substreams, stable across runs of the same file.
    const BuildSite at{eng, g, derive_seed(trial_seed, 0x1090 + i), horizon};
    block_type(blocks[i].type).build(blocks[i], at);
  }
  for (const auto& e : edges) {
    g.connect(e.from.block, e.from.port, e.to.block, e.to.port,
              e.propagation);
  }
}

void validate_workload(const TopologyFile& topo) {
  const WorkloadSpec& w = topo.workload;
  if (w.kind == WorkloadSpec::Kind::kTcp) {
    static const std::vector<std::string> kCc = {"newreno", "cubic", "bbr"};
    if (std::find(kCc.begin(), kCc.end(), w.cc) == kCc.end()) {
      fail("workload: unknown cc '" + w.cc + "'" + did_you_mean(w.cc, kCc));
    }
    if (w.flows == 0 || w.flows > tcp::kMaxFlows) {
      fail("workload: 'flows' must be in [1, " +
           std::to_string(tcp::kMaxFlows) + "]");
    }
    if (w.bottleneck_gbps < 0) {
      fail("workload: 'bottleneck_gbps' must not be negative");
    }
    if (w.min_rto <= 0) fail("workload: 'min_rto' must be positive");
    if (w.min_rto > w.max_rto) {
      fail("workload: 'min_rto' must not exceed 'max_rto'");
    }
  } else if (w.kind == WorkloadSpec::Kind::kCbr) {
    if (w.rate_gbps <= 0) fail("workload: 'rate_gbps' must be positive");
    if (w.frame_size < net::kEthMinFrame ||
        w.frame_size > net::kEthMaxFrame) {
      fail("workload: 'frame_size' must be in [64, 1518]");
    }
  }
  for (const auto& b : topo.blocks) {
    const auto* src = std::get_if<burst::BurstSourceConfig>(&b.config);
    if (!src) continue;
    try {
      src->pattern.validate();
    } catch (const burst::BurstError& e) {
      fail("block '" + b.name + "': " + std::string(e.what()));
    }
  }
}

TopologyFile tcp_preset(WorkloadSpec w) {
  TopologyFile t;
  t.name = "tcp";
  t.blocks.push_back({"cable", "monitor", 1, 1, MonitorConfig{}});
  w.ingress = w.egress = Endpoint{"cable", 0};
  t.workload = std::move(w);
  validate_workload(t);
  return t;
}

TopologyTrial::TopologyTrial(const TopologyFile& topo,
                             std::uint64_t trial_seed, Picos duration,
                             const fault::FaultPlan* plan,
                             telemetry::TraceRecorder* trace,
                             Picos series_interval)
    : spec_(topo.workload),
      seed_(trial_seed),
      duration_(duration == 0 ? topo.duration : duration) {
  if (trace) eng_.set_trace(trace);
  topo.build(eng_, g_, seed_, duration_);

  // Sim-time sampler: per-block intrinsic channels plus each monitor's
  // in-plane RTT histogram. A tcp workload adds its channels below.
  if (series_interval > 0) {
    series_.emplace(series_interval);
    for (std::size_t i = 0; i < g_.num_blocks(); ++i) {
      const Block* b = &g_.block(i);
      const std::string prefix = "graph." + b->name() + ".";
      series_->add_counter(prefix + "frames_in",
                           [b] { return b->frames_in(); });
      series_->add_counter(prefix + "frames_out",
                           [b] { return b->frames_out(); });
      series_->add_counter(prefix + "drops", [b] { return b->drops(); });
      series_->add_counter(prefix + "frame_bytes",
                           [b] { return b->bytes_in(); });
      if (const auto* mb = dynamic_cast<const MonitorBlock*>(b)) {
        series_->add_histogram(prefix + "rtt.ns",
                               [mb] { return mb->rtt_probe().merged(); });
      }
    }
    series_->attach(eng_, duration_);
  }

  // Forward path: device TX port 0 → graph → device RX port 1. The
  // reverse direction runs through its own blocks (a tcp ACK path) or
  // an ideal cable.
  const WorkloadSpec& w = topo.workload;
  if (w.kind != WorkloadSpec::Kind::kNone) {
    dev_.port(0).out_link().connect(g_.input(w.ingress.block, w.ingress.port));
    g_.connect_output(w.egress.block, w.egress.port, dev_.port(1).rx());
    if (w.ack_ingress) {
      dev_.port(1).out_link().connect(
          g_.input(w.ack_ingress->block, w.ack_ingress->port));
      g_.connect_output(w.ack_egress->block, w.ack_egress->port,
                        dev_.port(0).rx());
    } else {
      dev_.port(1).out_link().connect(dev_.port(0).rx());
    }
  }

  if (w.kind == WorkloadSpec::Kind::kTcp) {
    tcp::WorkloadConfig cfg;
    cfg.flows = w.flows;
    cfg.cc = w.cc;
    cfg.mss = w.mss;
    cfg.bottleneck_gbps = w.bottleneck_gbps;
    cfg.queue_segments = w.queue_segments;
    cfg.rwnd_bytes = w.rwnd_kb * 1024;
    cfg.bytes_per_flow = w.bytes_per_flow;
    cfg.min_rto = w.min_rto;
    cfg.max_rto = w.max_rto;
    cfg.rate_limit_detector = w.rate_limit_detector;
    cfg.seed = seed_;
    tcp_.emplace(eng_, dev_, cfg);
    if (series_) tcp_->add_series_channels(*series_);
  }

  if (plan && !plan->events.empty()) {
    injector_.emplace(eng_, *plan);
    injector_->attach_device(dev_);
    injector_->attach_graph(g_);
    injector_->arm();
  }
}

void TopologyTrial::run() {
  g_.start();
  if (tcp_) tcp_->start();
  if (spec_.kind == WorkloadSpec::Kind::kCbr) {
    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::gbps(spec_.rate_gbps);
    spec.frame_size = spec_.frame_size;
    spec.flow_count = spec_.flow_count;
    spec.seed = seed_;
    cbr_ = core::run_capture_test(eng_, dev_, 0, 1, spec, duration_);
  } else {
    eng_.run_until(duration_);
  }
}

TopologyTrialReport TopologyTrial::report() {
  TopologyTrialReport report;
  report.cbr = cbr_;
  if (tcp_) report.tcp = tcp_->report(duration_);
  if (series_) {
    series_->finish();
    report.series = series_->take();
  }
  report.blocks.reserve(g_.num_blocks());
  for (std::size_t i = 0; i < g_.num_blocks(); ++i) {
    const Block& b = g_.block(i);
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
  report.graph_frames_in = g_.total_frames_in();
  report.graph_drops = g_.total_drops();
  return report;
}

TopologyTrialReport run_topology_trial(const TopologyFile& topo,
                                       std::uint64_t trial_seed,
                                       Picos duration,
                                       const fault::FaultPlan* plan,
                                       telemetry::TraceRecorder* trace,
                                       Picos series_interval) {
  TopologyTrial trial(topo, trial_seed, duration, plan, trace,
                      series_interval);
  trial.run();
  return trial.report();
}

}  // namespace osnt::graph
