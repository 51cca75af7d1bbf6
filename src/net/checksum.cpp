#include "osnt/net/checksum.hpp"

#include <bit>
#include <cstring>

namespace osnt::net {

namespace {

/// Ones-complement fold of a wide sum to 16 bits (end-around carry).
constexpr std::uint64_t fold16(std::uint64_t s) noexcept {
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return s;
}

}  // namespace

void InternetChecksum::add(ByteSpan data) noexcept {
  // Sum native-order words (RFC 1071 §2(B)): the ones-complement sum is
  // byte-order independent up to one final swap, so the loop loads eight
  // bytes at a time and adds them as two 32-bit halves; carries pile up
  // in the high bits of the 64-bit accumulator and fold back at the end.
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t s = 0;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    s += (w & 0xFFFFFFFFu) + (w >> 32);
  }
  for (; n >= 2; p += 2, n -= 2) {
    std::uint16_t w;
    std::memcpy(&w, p, sizeof w);
    s += w;
  }
  if (n == 1) {  // odd trailing byte, zero-padded on its right
    const std::uint8_t pad[2] = {*p, 0};
    std::uint16_t w;
    std::memcpy(&w, pad, sizeof w);
    s += w;
  }
  s = fold16(s);
  if constexpr (std::endian::native == std::endian::little)
    s = ((s & 0xFF) << 8) | (s >> 8);
  sum_ += s;
}

std::uint16_t InternetChecksum::fold() const noexcept {
  return static_cast<std::uint16_t>(~fold16(sum_) & 0xFFFF);
}

std::uint16_t internet_checksum(ByteSpan data) noexcept {
  InternetChecksum c;
  c.add(data);
  return c.fold();
}

std::uint16_t l4_checksum_v4(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                             ByteSpan l4) noexcept {
  InternetChecksum c;
  c.add_u32(src.v);
  c.add_u32(dst.v);
  c.add_u16(protocol);
  c.add_u16(static_cast<std::uint16_t>(l4.size()));
  c.add(l4);
  return c.fold();
}

std::uint16_t l4_checksum_v6(const Ipv6Addr& src, const Ipv6Addr& dst,
                             std::uint8_t next_header, ByteSpan l4) noexcept {
  InternetChecksum c;
  c.add(ByteSpan{src.b.data(), src.b.size()});
  c.add(ByteSpan{dst.b.data(), dst.b.size()});
  c.add_u32(static_cast<std::uint32_t>(l4.size()));
  c.add_u16(next_header);
  c.add(l4);
  return c.fold();
}

}  // namespace osnt::net
