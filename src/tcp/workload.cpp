#include "osnt/tcp/workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "osnt/common/random.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/net/tcp_options.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::tcp {
namespace {

std::uint32_t tsval_now(Picos now) {
  return static_cast<std::uint32_t>(now / kPicosPerNano);
}

/// tsval/tsecr of the frame's timestamps option ({0,0} when absent).
std::pair<std::uint32_t, std::uint32_t> frame_timestamps(
    const net::ParsedPacket& p, const net::Packet& pkt) {
  const std::size_t hdr = p.tcp.header_len();
  if (hdr <= net::TcpHeader::kMinSize) return {0, 0};
  const std::size_t opt_off = p.l4_offset + net::TcpHeader::kMinSize;
  if (opt_off + (hdr - net::TcpHeader::kMinSize) > pkt.size()) return {0, 0};
  const auto opts = net::parse_tcp_options(
      pkt.bytes().subspan(opt_off, hdr - net::TcpHeader::kMinSize));
  if (!opts) return {0, 0};
  const auto ts = net::tcp_timestamps_of(*opts);
  return ts ? *ts : std::pair<std::uint32_t, std::uint32_t>{0, 0};
}

}  // namespace

ClosedLoopWorkload::ClosedLoopWorkload(sim::Engine& eng,
                                       core::OsntDevice& dev,
                                       WorkloadConfig cfg)
    : eng_(&eng), dev_(&dev), cfg_(std::move(cfg)) {
  if (cfg_.flows == 0) throw std::invalid_argument("tcp: flows must be > 0");
  if (cfg_.flows > kMaxFlows) {
    throw std::invalid_argument(
        "tcp: flows exceeds the addressing scheme's capacity (" +
        std::to_string(kMaxFlows) + ")");
  }
  if (cfg_.tx_port == cfg_.rx_port) {
    throw std::invalid_argument("tcp: tx_port and rx_port must differ");
  }
  eng_->set_wheel_enabled(cfg_.wheel_timers);

  gen::TxConfig txcfg;
  txcfg.rate = cfg_.bottleneck_gbps > 0.0
                   ? gen::RateSpec::gbps(cfg_.bottleneck_gbps)
                   : gen::RateSpec::line_rate(1.0);
  // Timestamp embedding would overwrite TCP header bytes at offset 42;
  // TCP RTTs come from the timestamps option instead.
  txcfg.embed_timestamp = false;
  txcfg.seed = derive_seed(cfg_.seed, 0xBEEF);
  gen::TxPipeline& txp = dev_->configure_tx(cfg_.tx_port, txcfg);
  auto src = std::make_unique<gen::ClosedLoopSource>(cfg_.queue_segments);
  source_ = src.get();
  src->set_kick([&txp] { txp.kick(); });
  txp.set_source(std::move(src));

  dev_->rx(cfg_.tx_port).set_capture_enabled(cfg_.capture);
  dev_->rx(cfg_.rx_port).set_capture_enabled(cfg_.capture);

  flow_handles_.reserve(cfg_.flows);
  recv_hot_.resize(cfg_.flows);
  recv_cold_.resize(cfg_.flows);
  for (std::size_t i = 0; i < cfg_.flows; ++i) {
    FlowConfig fc;
    fc.flow_id = static_cast<std::uint32_t>(i);
    fc.src_mac = net::MacAddr::from_index(0x0A000000u + i);
    fc.dst_mac = net::MacAddr::from_index(0x0B000000u + i);
    fc.src_ip = sender_ip_of(i);
    fc.dst_ip = receiver_ip_of(i);
    fc.src_port = sender_port_of(i);
    fc.dst_port = receiver_port_of(i);
    fc.mss = cfg_.mss;
    fc.bytes_to_send = cfg_.bytes_per_flow;
    fc.rwnd_bytes = cfg_.rwnd_bytes;
    fc.seed = derive_seed(cfg_.seed, i + 1);
    fc.cc = cfg_.cc;
    fc.min_rto = cfg_.min_rto;
    fc.max_rto = cfg_.max_rto;
    // Round-robin traffic classes across flows; every segment carries
    // the class in its DSCP bits so in-plane monitor probes can bin it,
    // and the flow's RTT samples land in the shared probe's class bin.
    fc.dscp = static_cast<std::uint8_t>(i & mon::LatencyProbe::kClassMask);
    fc.rtt_probe = &rtt_probe_;
    fc.rate_limit_detector = cfg_.rate_limit_detector;
    const auto h = flows_.emplace(*eng_, fc, [this](net::Packet&& pkt) {
      return source_->offer(std::move(pkt));
    });
    // Dense creation on a fresh slab: slot == flow index, which the O(1)
    // demux and the flow(i) accessor both rely on.
    if (h.slot != i) throw std::logic_error("tcp: flow slab not dense");
    // Drop-early admission probe: under congestion (the common case at
    // 10k+ flows sharing one bottleneck buffer) senders skip serializing
    // frames the queue would tail-drop anyway; the probe records the
    // drop so queue_drops telemetry is identical to built-then-dropped.
    flows_[h.slot].set_emit_preflight([this] {
      if (!source_->full()) return true;
      source_->note_tail_drop();
      return false;
    });
    flow_handles_.push_back(h);
    recv_hot_[i].isn = flows_[h.slot].isn();
  }

  dev_->rx(cfg_.rx_port).set_tap(
      [this](const net::ParsedPacket& p, const net::Packet& pkt,
             Picos first_bit) { on_data_frame(p, pkt, first_bit); });
  dev_->rx(cfg_.tx_port).set_tap(
      [this](const net::ParsedPacket& p, const net::Packet& pkt,
             Picos first_bit) { on_ack_frame(p, pkt, first_bit); });
}

ClosedLoopWorkload::~ClosedLoopWorkload() {
  for (ReceiverHot& st : recv_hot_) {
    if (st.delack_timer) {
      eng_->cancel(st.delack_timer);  // O(1) wheel unlink when routed there
      st.delack_timer = {};
    }
  }
  dev_->rx(cfg_.rx_port).set_tap(nullptr);
  dev_->rx(cfg_.tx_port).set_tap(nullptr);

  if (telemetry::enabled() && total_acks_sent() + source_->offered() > 0) {
    auto& reg = telemetry::registry();
    reg.counter("tcp.acks_sent").add(total_acks_sent());
    reg.counter("tcp.ooo_segs").add(total_ooo_segs());
    reg.counter("tcp.queue_drops").add(source_->drops());
    reg.counter("tcp.delack.cancels_saved").add(delack_cancels_saved_);
    rtt_probe_.flush("tcp.");
  }
}

void ClosedLoopWorkload::start() {
  dev_->tx(cfg_.tx_port).start();
  for (const auto& h : flow_handles_) flows_[h.slot].start();
}

void ClosedLoopWorkload::on_data_frame(const net::ParsedPacket& p,
                                       const net::Packet& pkt,
                                       Picos first_bit) {
  if (p.l4 != net::L4Kind::kTcp || p.l3 != net::L3Kind::kIpv4) return;
  const std::size_t idx = flow_index_of_data(p.ipv4.dst, p.tcp.dst_port);
  if (idx >= recv_hot_.size()) return;
  ReceiverHot& st = recv_hot_[idx];

  const std::size_t l3_len = p.ipv4.total_length;
  const std::size_t hdrs = p.ipv4.header_len() + p.tcp.header_len();
  if (l3_len <= hdrs) return;  // no payload (stray pure ACK)
  const std::uint64_t len = l3_len - hdrs;

  const auto [tsval, tsecr] = frame_timestamps(p, pkt);
  (void)tsecr;  // the data direction's echo is unused by the receiver

  // Unwrap the 32-bit wire sequence against the reassembly point.
  const auto diff = static_cast<std::int32_t>(
      p.tcp.seq - (st.isn + static_cast<std::uint32_t>(st.rcv_nxt)));
  const std::int64_t seq_abs = static_cast<std::int64_t>(st.rcv_nxt) + diff;
  if (seq_abs < 0) return;
  const auto seq = static_cast<std::uint64_t>(seq_abs);
  const std::uint64_t seq_end = seq + len;

  if (seq <= st.rcv_nxt && seq_end > st.rcv_nxt) {
    // In-order (or overlapping) advance; absorb any now-contiguous
    // out-of-order intervals. The ooo set lives in the cold half and is
    // only consulted while a loss episode is open.
    st.rcv_nxt = seq_end;
    st.bytes_in_order += len;
    if (tsval != 0) st.last_tsval = tsval;
    ReceiverCold& cold = recv_cold_[idx];
    if (!cold.ooo.empty()) {
      for (auto o = cold.ooo.begin();
           o != cold.ooo.end() && o->first <= st.rcv_nxt;) {
        st.rcv_nxt = std::max(st.rcv_nxt, o->second);
        o = cold.ooo.erase(o);
      }
    }
    ++st.pending_ack_segs;
    if (st.pending_ack_segs >= 2) {  // RFC 1122: ACK every 2nd segment
      send_ack(idx, first_bit);
    } else {
      schedule_delack(idx);
    }
    return;
  }

  ReceiverCold& cold = recv_cold_[idx];
  if (seq > st.rcv_nxt) {
    // Hole: stash the interval and send an immediate duplicate ACK so
    // the sender's dup-ACK counter can reach the fast-retransmit
    // threshold.
    ++cold.ooo_segs;
    auto [o, inserted] = cold.ooo.emplace(seq, seq_end);
    if (!inserted) o->second = std::max(o->second, seq_end);
    send_ack(idx, first_bit);
    return;
  }

  // Entirely below the window: a spurious (go-back-N) retransmit of data
  // already received. Re-ACK immediately so the sender advances. Per
  // RFC 7323 the retransmit's tsval becomes TS.Recent (SEG.SEQ ≤
  // Last.ACK.sent), so the echoed TSecr dates from this arrival — an
  // echo of the pre-outage tsval would inflate the sender's RTT sample
  // by the whole loss episode and blow SRTT/RTO toward max_rto.
  ++cold.below_window_segs;
  if (tsval != 0) st.last_tsval = tsval;
  send_ack(idx, first_bit);
}

void ClosedLoopWorkload::send_ack(std::size_t idx, Picos now) {
  ReceiverHot& st = recv_hot_[idx];
  st.pending_ack_segs = 0;
  // Lazy delayed-ACK discipline: an armed timer is left armed. It fires
  // with pending_ack_segs == 0 and re-arms nothing — one no-op event
  // instead of a cancel + re-arm pair per ACKed segment. (The timer can
  // also fire "early" relative to the newest segment; that only makes an
  // ACK less delayed, which RFC 1122 always allows.)
  if (st.delack_timer) ++delack_cancels_saved_;

  const FlowConfig& fc = flows_[static_cast<std::uint32_t>(idx)].config();
  net::PacketBuilder b;
  b.eth(fc.dst_mac, fc.src_mac)
      .ipv4(fc.dst_ip, fc.src_ip, net::ipproto::kTcp, /*ttl=*/64, fc.dscp)
      .tcp(fc.dst_port, fc.src_port, /*seq=*/0,
           st.isn + static_cast<std::uint32_t>(st.rcv_nxt),
           net::TcpFlags::kAck)
      .tcp_options(
          {net::tcp_option_timestamps(tsval_now(now), st.last_tsval)});
  net::Packet ack = b.build();

  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kTcp);
  (void)dev_->port(cfg_.rx_port).tx().transmit(std::move(ack));
  ++st.acks_sent;
}

void ClosedLoopWorkload::schedule_delack(std::size_t idx) {
  ReceiverHot& st = recv_hot_[idx];
  if (st.delack_timer) return;  // one armed timer per flow, ever
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kTcp);
  st.delack_timer =
      eng_->schedule_bulk_in(cfg_.delayed_ack_timeout, [this, idx] {
        ReceiverHot& s = recv_hot_[idx];
        s.delack_timer = {};
        if (s.pending_ack_segs > 0) send_ack(idx, eng_->now());
      });
}

void ClosedLoopWorkload::on_ack_frame(const net::ParsedPacket& p,
                                      const net::Packet& pkt,
                                      Picos first_bit) {
  if (p.l4 != net::L4Kind::kTcp || p.l3 != net::L3Kind::kIpv4) return;
  if ((p.tcp.flags & net::TcpFlags::kAck) == 0) return;
  const std::size_t idx = flow_index_of_ack(p.ipv4.dst, p.tcp.dst_port);
  if (idx >= flow_handles_.size()) return;
  const auto [tsval, tsecr] = frame_timestamps(p, pkt);
  flows_[static_cast<std::uint32_t>(idx)].on_ack(p.tcp, tsval, tsecr,
                                                 first_bit);
}

std::uint64_t ClosedLoopWorkload::total_bytes_acked() const {
  std::uint64_t v = 0;
  for (const auto& h : flow_handles_) v += flows_[h.slot].stats().bytes_acked;
  return v;
}
std::uint64_t ClosedLoopWorkload::total_retransmits() const {
  std::uint64_t v = 0;
  for (const auto& h : flow_handles_) v += flows_[h.slot].stats().retransmits;
  return v;
}
std::uint64_t ClosedLoopWorkload::total_rto_fires() const {
  std::uint64_t v = 0;
  for (const auto& h : flow_handles_) v += flows_[h.slot].stats().rto_fires;
  return v;
}
std::uint64_t ClosedLoopWorkload::total_fast_retx() const {
  std::uint64_t v = 0;
  for (const auto& h : flow_handles_) v += flows_[h.slot].stats().fast_retx;
  return v;
}
std::uint64_t ClosedLoopWorkload::total_cwnd_reductions() const {
  std::uint64_t v = 0;
  for (const auto& h : flow_handles_) {
    v += flows_[h.slot].stats().cwnd_reductions;
  }
  return v;
}
std::uint64_t ClosedLoopWorkload::total_acks_sent() const {
  std::uint64_t v = 0;
  for (const auto& r : recv_hot_) v += r.acks_sent;
  return v;
}
std::uint64_t ClosedLoopWorkload::total_ooo_segs() const {
  std::uint64_t v = 0;
  for (const auto& r : recv_cold_) v += r.ooo_segs;
  return v;
}

std::uint64_t ClosedLoopWorkload::total_rld_detections() const {
  std::uint64_t v = 0;
  for (const auto& h : flow_handles_) {
    if (const auto* d = flows_[h.slot].rate_limit_detector()) {
      v += d->detections();
    }
  }
  return v;
}

double ClosedLoopWorkload::mean_rld_rate_bps() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& h : flow_handles_) {
    const auto* d = flows_[h.slot].rate_limit_detector();
    if (d && d->detected()) {
      sum += d->detected_rate_bps();
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

Picos ClosedLoopWorkload::mean_rld_detect_time() const {
  Picos sum = 0;
  std::size_t n = 0;
  for (const auto& h : flow_handles_) {
    const auto* d = flows_[h.slot].rate_limit_detector();
    if (d && d->detections() > 0) {
      sum += d->detect_time();
      ++n;
    }
  }
  return n ? sum / static_cast<Picos>(n) : 0;
}

double ClosedLoopWorkload::goodput_bps(Picos window) const {
  if (window <= 0) return 0.0;
  return static_cast<double>(total_bytes_acked()) * 8.0 *
         static_cast<double>(kPicosPerSec) / static_cast<double>(window);
}

ClosedLoopTestbed::ClosedLoopTestbed(const WorkloadConfig& cfg,
                                     const fault::FaultPlan* plan,
                                     telemetry::TraceRecorder* trace)
    : dev_(eng_) {
  if (trace) eng_.set_trace(trace);
  hw::connect(dev_.port(cfg.tx_port), dev_.port(cfg.rx_port));
  workload_ = std::make_unique<ClosedLoopWorkload>(eng_, dev_, cfg);
  if (plan) {
    injector_.emplace(eng_, *plan);
    injector_->attach_device(dev_);
    injector_->arm();
  }
}

void ClosedLoopTestbed::run_until(Picos until) {
  if (!started_) {
    workload_->start();
    started_ = true;
  }
  eng_.run_until(until);
}

TcpTrialReport ClosedLoopWorkload::report(Picos window) const {
  TcpTrialReport r;
  r.bytes_acked = total_bytes_acked();
  r.retransmits = total_retransmits();
  r.rto_fires = total_rto_fires();
  r.fast_retx = total_fast_retx();
  r.cwnd_reductions = total_cwnd_reductions();
  r.acks_sent = total_acks_sent();
  r.queue_drops = source().drops();
  r.goodput_bps = goodput_bps(window);
  for (std::size_t i = 0; i < num_flows(); ++i) {
    const Flow& f = flow(i);
    r.segs_sent += f.stats().segs_sent;
    r.emit_rejects += f.stats().emit_rejects;
    const double rate = f.delivery_rate_bps();
    if (i == 0 || rate < r.min_flow_rate_bps) r.min_flow_rate_bps = rate;
    if (i == 0 || rate > r.max_flow_rate_bps) r.max_flow_rate_bps = rate;
  }
  r.rld_detections = total_rld_detections();
  r.rld_rate_bps = mean_rld_rate_bps();
  r.rld_detect_time = mean_rld_detect_time();
  const telemetry::Log2Histogram rtt = rtt_probe_.merged();
  if (rtt.count() > 0) {
    r.rtt_p99_ns = rtt.quantile(0.99);
    r.rtt_min_ns = static_cast<double>(rtt.min());
  }
  return r;
}

void ClosedLoopWorkload::add_series_channels(
    telemetry::TimeSeries& series) const {
  series.add_counter("tcp.bytes_acked", [this] { return total_bytes_acked(); });
  series.add_counter("tcp.acks_sent", [this] { return total_acks_sent(); });
  series.add_counter("tcp.retransmits", [this] { return total_retransmits(); });
  series.add_counter("tcp.queue_drops", [this] { return source().drops(); });
  series.add_histogram("tcp.rtt.ns", [this] { return rtt_probe().merged(); });
}

TcpTrialReport run_closed_loop_trial(const WorkloadConfig& cfg,
                                     Picos duration,
                                     const fault::FaultPlan* plan,
                                     telemetry::TraceRecorder* trace,
                                     Picos series_interval,
                                     telemetry::SeriesData* series_out) {
  ClosedLoopTestbed bed(cfg, plan, trace);
  std::optional<telemetry::TimeSeries> series;
  if (series_interval > 0 && series_out) {
    series.emplace(series_interval);
    const ClosedLoopWorkload& w = bed.workload();
    w.add_series_channels(*series);
    series->add_counter("tcp.segs_sent", [&w] {
      std::uint64_t n = 0;
      for (std::size_t i = 0; i < w.num_flows(); ++i) {
        n += w.flow(i).stats().segs_sent;
      }
      return n;
    });
    series->attach(bed.engine(), duration);
  }
  bed.run_until(duration);
  if (series) {
    series->finish();
    *series_out = series->take();
  }
  return bed.report(duration);
}

}  // namespace osnt::tcp
