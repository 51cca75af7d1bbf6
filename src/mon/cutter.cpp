#include "osnt/mon/cutter.hpp"

#include <algorithm>
#include <utility>

#include "osnt/common/crc.hpp"

namespace osnt::mon {

CutResult PacketCutter::process(ByteSpan frame) const {
  CutResult r;
  r.orig_len = static_cast<std::uint32_t>(frame.size());
  if (cfg_.hash_full_frame) r.hash = crc32(frame);
  const std::size_t keep =
      cfg_.snap_len == 0 ? frame.size() : std::min(cfg_.snap_len, frame.size());
  r.data.assign(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(keep));
  return r;
}

CutResult PacketCutter::process(Bytes&& frame) const {
  const ByteSpan span{frame.data(), frame.size()};
  if (cfg_.snap_len != 0 && cfg_.snap_len < frame.size()) return process(span);
  CutResult r;
  r.orig_len = static_cast<std::uint32_t>(frame.size());
  if (cfg_.hash_full_frame) r.hash = crc32(span);
  r.data = std::move(frame);
  return r;
}

}  // namespace osnt::mon
