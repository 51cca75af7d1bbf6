// RFC 1071 checksum properties and known vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "osnt/common/random.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/checksum.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/net/tcp_options.hpp"

namespace osnt::net {
namespace {

TEST(InternetChecksum, Rfc1071Example) {
  // The worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7
  // sum to ddf2 (before inversion).
  const std::uint8_t data[] = {0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7};
  EXPECT_EQ(internet_checksum(ByteSpan{data, 8}),
            static_cast<std::uint16_t>(~0xDDF2 & 0xFFFF));
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const std::uint8_t even[] = {0x12, 0x34, 0xAB, 0x00};
  const std::uint8_t odd[] = {0x12, 0x34, 0xAB};
  EXPECT_EQ(internet_checksum(ByteSpan{even, 4}),
            internet_checksum(ByteSpan{odd, 3}));
}

TEST(InternetChecksum, VerificationYieldsZero) {
  // Appending the computed checksum makes the whole sum validate to 0.
  Rng rng{1};
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data;
    const auto n = 2 * rng.uniform_int(4, 50);
    for (std::uint64_t i = 0; i < n; ++i)
      data.push_back(static_cast<std::uint8_t>(rng()));
    const std::uint16_t ck = internet_checksum(ByteSpan{data.data(), data.size()});
    data.push_back(static_cast<std::uint8_t>(ck >> 8));
    data.push_back(static_cast<std::uint8_t>(ck));
    EXPECT_EQ(internet_checksum(ByteSpan{data.data(), data.size()}), 0u);
  }
}

TEST(InternetChecksum, IncrementalAdditionsMatch) {
  const std::uint8_t part1[] = {0xDE, 0xAD};
  const std::uint8_t part2[] = {0xBE, 0xEF};
  InternetChecksum inc;
  inc.add(ByteSpan{part1, 2});
  inc.add(ByteSpan{part2, 2});
  const std::uint8_t all[] = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(inc.fold(), internet_checksum(ByteSpan{all, 4}));
}

TEST(L4Checksum, PseudoHeaderAffectsResult) {
  const std::uint8_t seg[] = {0x00, 0x35, 0x00, 0x35, 0x00, 0x08, 0x00, 0x00};
  const auto a = l4_checksum_v4(Ipv4Addr::of(1, 1, 1, 1),
                                Ipv4Addr::of(2, 2, 2, 2), 17, ByteSpan{seg, 8});
  const auto b = l4_checksum_v4(Ipv4Addr::of(1, 1, 1, 2),
                                Ipv4Addr::of(2, 2, 2, 2), 17, ByteSpan{seg, 8});
  EXPECT_NE(a, b);
}

TEST(L4Checksum, V6DiffersFromV4) {
  // Note: addresses are chosen so the ones-complement sums genuinely
  // differ (v6 ::1/::2 would alias v4 0.0.0.1/0.0.0.2 bit-for-bit).
  const std::uint8_t seg[] = {0x00, 0x35, 0x00, 0x35, 0x00, 0x08, 0x00, 0x00};
  Ipv6Addr s6, d6;
  s6.b[0] = 0x20;
  s6.b[15] = 1;
  d6.b[0] = 0xFE;
  d6.b[15] = 2;
  const auto v6 = l4_checksum_v6(s6, d6, 17, ByteSpan{seg, 8});
  const auto v4 = l4_checksum_v4(Ipv4Addr{1}, Ipv4Addr{2}, 17, ByteSpan{seg, 8});
  EXPECT_NE(v6, v4);
}

TEST(InternetChecksum, AddU32MatchesBytes) {
  InternetChecksum a;
  a.add_u32(0x0A000001);
  const std::uint8_t bytes[] = {0x0A, 0x00, 0x00, 0x01};
  InternetChecksum b;
  b.add(ByteSpan{bytes, 4});
  EXPECT_EQ(a.fold(), b.fold());
}

// ------------------------- word-wide kernel vs a 16-bit-serial reference

/// RFC 1071 as written: big-endian 16-bit words summed one at a time,
/// an odd trailing byte padded with zero on its right.
std::uint64_t serial_sum(ByteSpan data) {
  std::uint64_t s = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2)
    s += (std::uint64_t{data[i]} << 8) | data[i + 1];
  if (i < data.size()) s += std::uint64_t{data[i]} << 8;
  return s;
}

std::uint16_t serial_fold(std::uint64_t s) {
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xFFFF);
}

std::uint16_t serial_l4_v4(Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto,
                           ByteSpan l4) {
  return serial_fold((src.v >> 16) + (src.v & 0xFFFF) + (dst.v >> 16) +
                     (dst.v & 0xFFFF) + proto + l4.size() + serial_sum(l4));
}

std::uint16_t serial_l4_v6(const Ipv6Addr& src, const Ipv6Addr& dst,
                           std::uint8_t next, ByteSpan l4) {
  return serial_fold(serial_sum(ByteSpan{src.b.data(), src.b.size()}) +
                     serial_sum(ByteSpan{dst.b.data(), dst.b.size()}) +
                     (l4.size() >> 16) + (l4.size() & 0xFFFF) + next +
                     serial_sum(l4));
}

constexpr std::size_t kMaxKernelLen = 1600;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Every length 0..1600 of `content`, copied to each start offset 0..7 of
/// a larger buffer so the eight-byte loads run at every alignment.
void expect_all_lengths_and_offsets_match(const Bytes& content) {
  const Ipv4Addr s4 = Ipv4Addr::of(192, 168, 7, 1), d4 = Ipv4Addr::of(10, 255, 0, 9);
  Ipv6Addr s6, d6;
  for (std::size_t i = 0; i < 16; ++i) {
    s6.b[i] = static_cast<std::uint8_t>(0xF0 + i);
    d6.b[i] = static_cast<std::uint8_t>(i * 17);
  }
  Bytes buf(kMaxKernelLen + 8);
  for (std::size_t len = 0; len <= kMaxKernelLen; ++len) {
    const ByteSpan ref{content.data(), len};
    const std::uint16_t want = serial_fold(serial_sum(ref));
    const std::uint16_t want4 = serial_l4_v4(s4, d4, ipproto::kTcp, ref);
    const std::uint16_t want6 = serial_l4_v6(s6, d6, ipproto::kUdp, ref);
    for (std::size_t off = 0; off < 8; ++off) {
      std::copy_n(content.begin(), len, buf.begin() + static_cast<long>(off));
      const ByteSpan at{buf.data() + off, len};
      ASSERT_EQ(internet_checksum(at), want) << "len " << len << " off " << off;
      ASSERT_EQ(l4_checksum_v4(s4, d4, ipproto::kTcp, at), want4)
          << "len " << len << " off " << off;
      ASSERT_EQ(l4_checksum_v6(s6, d6, ipproto::kUdp, at), want6)
          << "len " << len << " off " << off;
    }
  }
}

TEST(InternetChecksum, EveryLengthAndOffsetMatchesSerial) {
  expect_all_lengths_and_offsets_match(random_bytes(kMaxKernelLen, 31));
}

TEST(InternetChecksum, AllZeroAndAllOnesMatchSerial) {
  // The fold edge: an all-0x00 run sums to 0 and an all-0xFF run to a
  // nonzero multiple of 0xFFFF; the two must stay distinct.
  expect_all_lengths_and_offsets_match(Bytes(kMaxKernelLen, 0x00));
  expect_all_lengths_and_offsets_match(Bytes(kMaxKernelLen, 0xFF));
  EXPECT_EQ(internet_checksum({}), 0xFFFF);
  const Bytes ones(64, 0xFF);
  EXPECT_EQ(internet_checksum(ByteSpan{ones.data(), ones.size()}), 0x0000);
}

TEST(InternetChecksum, RandomOddChunkSplitsMatchSerial) {
  // Each add() pads its own odd tail, so the reference sums chunk by
  // chunk. Constant buffers are split too, for the 0/0xFFFF edge.
  const std::vector<Bytes> sources = {random_bytes(kMaxKernelLen, 37),
                                      Bytes(kMaxKernelLen, 0x00),
                                      Bytes(kMaxKernelLen, 0xFF)};
  Rng rng{41};
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes& data = sources[static_cast<std::size_t>(trial) % sources.size()];
    const std::size_t len = rng.uniform_int(0, kMaxKernelLen);
    InternetChecksum inc;
    std::uint64_t want = 0;
    for (std::size_t at = 0; at < len;) {
      const std::size_t chunk = std::min<std::size_t>(
          2 * rng.uniform_int(0, 20) + 1, len - at);  // odd lengths
      const ByteSpan part{data.data() + at, chunk};
      inc.add(part);
      want += serial_sum(part);
      if (rng.uniform_int(0, 3) == 0) {
        const auto v = static_cast<std::uint16_t>(rng());
        inc.add_u16(v);
        want += v;
      }
      at += chunk;
    }
    ASSERT_EQ(inc.fold(), serial_fold(want)) << "trial " << trial;
  }
}

// ----------------------------------- TCP/IPv4 frames with header options

/// Build a TCP/IPv4 data frame carrying timestamps (+ optionally MSS)
/// options, as the tcp:: closed-loop workload emits them.
Packet tcp_frame_with_options(bool with_mss, std::size_t payload_len) {
  PacketBuilder b;
  b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
      .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 1, 1),
            ipproto::kTcp)
      .tcp(40000, 50000, 0x01020304, 0x0a0b0c0d, TcpFlags::kAck | TcpFlags::kPsh);
  std::vector<TcpOption> opts{tcp_option_timestamps(123456, 654321)};
  if (with_mss) opts.push_back(tcp_option_mss(1448));
  b.tcp_options(opts);
  Bytes payload(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  b.payload(payload);
  return b.build();
}

/// Fold the frame's TCP segment (header + options + payload, as bounded
/// by the IP total length) through the pseudo-header checksum; a frame
/// with a correct embedded checksum folds to zero.
std::uint16_t tcp_segment_residual(const Packet& pkt) {
  const auto parsed = parse_packet(pkt.bytes());
  EXPECT_TRUE(parsed);
  EXPECT_EQ(parsed->l4, L4Kind::kTcp);
  const std::size_t seg_len =
      parsed->ipv4.total_length - parsed->ipv4.header_len();
  return l4_checksum_v4(parsed->ipv4.src, parsed->ipv4.dst, ipproto::kTcp,
                        pkt.bytes().subspan(parsed->l4_offset, seg_len));
}

TEST(TcpChecksum, TimestampOptionFrameValidates) {
  const auto pkt = tcp_frame_with_options(/*with_mss=*/false, 64);
  EXPECT_EQ(tcp_segment_residual(pkt), 0u);
  const auto parsed = parse_packet(pkt.bytes());
  ASSERT_TRUE(parsed);
  // Timestamps pad 10 -> 12 bytes: a 32-byte header, offset 8 words.
  EXPECT_EQ(parsed->tcp.header_len(), 32u);
}

TEST(TcpChecksum, TimestampPlusMssFrameValidates) {
  const auto pkt = tcp_frame_with_options(/*with_mss=*/true, 1448);
  EXPECT_EQ(tcp_segment_residual(pkt), 0u);
  const auto parsed = parse_packet(pkt.bytes());
  ASSERT_TRUE(parsed);
  const auto opts = parse_tcp_options(pkt.bytes().subspan(
      parsed->l4_offset + TcpHeader::kMinSize,
      parsed->tcp.header_len() - TcpHeader::kMinSize));
  ASSERT_TRUE(opts);
  EXPECT_EQ(tcp_mss_of(*opts), 1448);
  const auto ts = tcp_timestamps_of(*opts);
  ASSERT_TRUE(ts);
  EXPECT_EQ(ts->first, 123456u);
  EXPECT_EQ(ts->second, 654321u);
}

TEST(TcpChecksum, CorruptedOptionByteFailsValidation) {
  // The options live between the fixed header and the payload — a bit
  // error there must be caught by the checksum like any payload error.
  auto pkt = tcp_frame_with_options(/*with_mss=*/true, 256);
  const auto parsed = parse_packet(pkt.bytes());
  ASSERT_TRUE(parsed);
  pkt.data[parsed->l4_offset + TcpHeader::kMinSize + 2] ^= 0x40;
  EXPECT_NE(tcp_segment_residual(pkt), 0u);
}

TEST(TcpChecksum, CorruptedPayloadByteFailsValidation) {
  auto pkt = tcp_frame_with_options(/*with_mss=*/false, 512);
  const auto parsed = parse_packet(pkt.bytes());
  ASSERT_TRUE(parsed);
  pkt.data[parsed->payload_offset + 100] ^= 0x01;
  EXPECT_NE(tcp_segment_residual(pkt), 0u);
}

TEST(TcpChecksum, MinFramePaddingStaysOutsideTheSegment) {
  // A short TCP frame is padded to the 64-byte Ethernet minimum; the pad
  // bytes sit beyond the IP total length and must not disturb the
  // checksum bound to the segment.
  const auto pkt = tcp_frame_with_options(/*with_mss=*/false, 1);
  EXPECT_GE(pkt.size(), 64u);
  EXPECT_EQ(tcp_segment_residual(pkt), 0u);
}

}  // namespace
}  // namespace osnt::net
