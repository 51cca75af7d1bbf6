// RFC 1071 internet checksum and the L4 pseudo-header variants.
#pragma once

#include <cstdint>

#include "osnt/common/types.hpp"
#include "osnt/net/headers.hpp"

namespace osnt::net {

/// Incremental ones-complement sum; fold() yields the 16-bit checksum.
class InternetChecksum {
 public:
  /// Add a run of big-endian 16-bit words; an odd trailing byte is
  /// zero-padded within this call, not joined to the next one.
  void add(ByteSpan data) noexcept;
  void add_u16(std::uint16_t v) noexcept { sum_ += v; }
  void add_u32(std::uint32_t v) noexcept {
    sum_ += (v >> 16) + (v & 0xFFFF);
  }
  [[nodiscard]] std::uint16_t fold() const noexcept;

 private:
  std::uint64_t sum_ = 0;
};

/// One-shot checksum over a buffer (checksum field must be zeroed first).
[[nodiscard]] std::uint16_t internet_checksum(ByteSpan data) noexcept;

/// TCP/UDP checksum over the IPv4 pseudo header + L4 segment. `l4` must
/// contain the full L4 header+payload with its checksum field zeroed.
[[nodiscard]] std::uint16_t l4_checksum_v4(Ipv4Addr src, Ipv4Addr dst,
                                           std::uint8_t protocol,
                                           ByteSpan l4) noexcept;

/// IPv6 variant.
[[nodiscard]] std::uint16_t l4_checksum_v6(const Ipv6Addr& src,
                                           const Ipv6Addr& dst,
                                           std::uint8_t next_header,
                                           ByteSpan l4) noexcept;

}  // namespace osnt::net
