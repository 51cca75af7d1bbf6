#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <queue>
#include <vector>

#include "osnt/common/crc.hpp"
#include "osnt/net/checksum.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/net/tcp_options.hpp"

namespace scenario_bench {

namespace net = osnt::net;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kBatches = 9;
constexpr double kBatchSeconds = 2e-3;

/// Results are folded into this so no call can be optimised away.
volatile std::uint64_t g_sink = 0;

/// Median over kBatches of ns per call, with the batch length grown until
/// one batch takes kBatchSeconds.
template <class F>
double ns_per_call(F&& fn) {
  std::uint64_t acc = 0;
  const auto batch = [&](std::size_t n) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) acc += fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::size_t n = 16;
  while (batch(n) < kBatchSeconds && n < (std::size_t{1} << 24)) n *= 2;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    per_call.push_back(batch(n) * 1e9 / static_cast<double>(n));
  }
  g_sink = g_sink + acc;
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

/// Hold-model size: kHoldKeys keys stay in the heap, and one probe is
/// kHoldOps pop/push pairs (about 10 ms with the fill on the reference
/// host).
constexpr int kHoldKeys = 20'000;
constexpr int kHoldOps = 100'000;

}  // namespace

double host_speed_probe_s() {
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> keys;
  keys.reserve(kHoldKeys);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap(std::greater<>{}, std::move(keys));
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < kHoldKeys; ++i) heap.push(next() % 1'000'000);
  for (int i = 0; i < kHoldOps; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    heap.push(t + 1 + next() % 1000);
  }
  g_sink = g_sink + heap.top();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

ProbeRow probe_frame(const net::Packet& pkt) {
  ProbeRow row;
  row.shape = classify(pkt);
  row.bytes = pkt.size();
  const osnt::ByteSpan frame = pkt.bytes();

  row.crc32_ns = ns_per_call([&] { return osnt::crc32(frame); });
  row.parse_packet_ns = ns_per_call([&] {
    const auto p = net::parse_packet(frame);
    return p ? p->payload_offset : 0;
  });

  const auto p = net::parse_packet(frame);
  osnt::ByteSpan options;
  if (p && p->l3 == net::L3Kind::kIpv4 && p->l4 != net::L4Kind::kNone &&
      p->l3_offset + p->ipv4.total_length >= p->l4_offset) {
    const std::size_t ip_end =
        std::min(frame.size(), p->l3_offset + p->ipv4.total_length);
    const osnt::ByteSpan l4 =
        frame.subspan(p->l4_offset, ip_end - p->l4_offset);
    const net::Ipv4Addr src = p->ipv4.src;
    const net::Ipv4Addr dst = p->ipv4.dst;
    const std::uint8_t proto = p->ipv4.protocol;
    row.l4_checksum_v4_ns =
        ns_per_call([&] { return net::l4_checksum_v4(src, dst, proto, l4); });
    const std::size_t hdr = p->tcp.header_len();
    if (p->l4 == net::L4Kind::kTcp && hdr >= net::TcpHeader::kMinSize &&
        p->l4_offset + hdr <= frame.size()) {
      options = frame.subspan(p->l4_offset + net::TcpHeader::kMinSize,
                              hdr - net::TcpHeader::kMinSize);
    }
  }
  row.parse_tcp_options_ns = ns_per_call([&] {
    const auto opts = net::parse_tcp_options(options);
    return opts ? opts->size() : 0;
  });
  return row;
}

}  // namespace scenario_bench
