// Trace splitting across ports.
#include <gtest/gtest.h>

#include <set>

#include "osnt/gen/splitter.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/flow.hpp"

namespace osnt {
namespace {

std::vector<net::PcapRecord> trace_with_flows(std::size_t flows,
                                              std::size_t per_flow) {
  std::vector<net::PcapRecord> recs;
  std::uint64_t t = 0;
  for (std::size_t p = 0; p < per_flow; ++p) {
    for (std::size_t f = 0; f < flows; ++f) {
      net::PacketBuilder b;
      const auto pkt =
          b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
              .ipv4(net::Ipv4Addr::of(10, 0, 0, 1),
                    net::Ipv4Addr::of(10, 0, 1, static_cast<std::uint8_t>(f + 1)),
                    net::ipproto::kUdp)
              .udp(static_cast<std::uint16_t>(1000 + f), 5001)
              .build();
      net::PcapRecord rec;
      rec.ts_nanos = t;
      t += 1000;
      rec.data = pkt.data;
      rec.orig_len = static_cast<std::uint32_t>(pkt.size());
      recs.push_back(std::move(rec));
    }
  }
  return recs;
}

TEST(Splitter, PartitionsAllRecords) {
  const auto trace = trace_with_flows(16, 10);
  const auto sources = gen::split_trace(trace, 4);
  ASSERT_EQ(sources.size(), 4u);
  std::size_t total = 0;
  for (const auto& src : sources)
    if (src) total += src->trace_size();
  EXPECT_EQ(total, trace.size());
}

TEST(Splitter, FlowsNeverStraddlePorts) {
  const auto trace = trace_with_flows(16, 10);
  auto sources = gen::split_trace(trace, 4);
  std::unordered_map<std::uint64_t, std::size_t> flow_to_port;
  for (std::size_t port = 0; port < sources.size(); ++port) {
    if (!sources[port]) continue;
    while (auto tp = sources[port]->next()) {
      const auto flow = net::extract_flow(tp->pkt.bytes());
      ASSERT_TRUE(flow);
      const auto [it, inserted] =
          flow_to_port.try_emplace(flow->hash(), port);
      EXPECT_EQ(it->second, port) << "flow split across ports";
    }
  }
  EXPECT_EQ(flow_to_port.size(), 16u);
}

TEST(Splitter, SinglePortIsIdentity) {
  const auto trace = trace_with_flows(4, 3);
  const auto sources = gen::split_trace(trace, 1);
  ASSERT_EQ(sources.size(), 1u);
  ASSERT_TRUE(sources[0]);
  EXPECT_EQ(sources[0]->trace_size(), trace.size());
}

TEST(Splitter, ZeroPortsThrows) {
  EXPECT_THROW((void)gen::split_trace({}, 0), std::invalid_argument);
}

TEST(Splitter, NonIpRoundRobins) {
  std::vector<net::PcapRecord> recs;
  for (int i = 0; i < 8; ++i) {
    net::PacketBuilder b;
    const auto arp =
        b.eth(net::MacAddr::from_index(1), net::MacAddr::broadcast())
            .arp(1, net::MacAddr::from_index(1), net::Ipv4Addr::of(1, 1, 1, 1),
                 net::MacAddr{}, net::Ipv4Addr::of(1, 1, 1, 2))
            .build();
    net::PcapRecord rec;
    rec.ts_nanos = static_cast<std::uint64_t>(i);
    rec.data = arp.data;
    recs.push_back(std::move(rec));
  }
  const auto sources = gen::split_trace(recs, 4);
  for (const auto& src : sources) {
    ASSERT_TRUE(src);
    EXPECT_EQ(src->trace_size(), 2u);
  }
}

}  // namespace
}  // namespace osnt
