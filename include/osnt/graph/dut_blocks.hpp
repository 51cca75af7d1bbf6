// The existing DUT models re-expressed as graph nodes. Each wrapper owns
// a real switch and bridges the two seams: graph input port i feeds the
// switch's RX MAC on port i, and the switch's TX link on port i relays
// into graph output port i. Everything the standalone models do — MAC
// learning, queueing knees, flow-table pipelines, agent/commit latency —
// composes with queues, shapers, and impairment blocks in a topology
// without a line of glue.
#pragma once

#include <deque>
#include <vector>

#include "osnt/dut/legacy_switch.hpp"
#include "osnt/dut/openflow_switch.hpp"
#include "osnt/graph/block.hpp"
#include "osnt/openflow/channel.hpp"

namespace osnt::graph {

/// What both switch wrappers share: graph input i feeds switch port i's
/// RX MAC and port i's TX link relays into graph output i.
class SwitchBlock : public Block {
 public:
  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override {
    ports_[in_port]->rx().on_frame(std::move(pkt), first_bit, last_bit);
  }

 protected:
  SwitchBlock(sim::Engine& eng, std::string name, std::size_t num_ports)
      : Block(eng, std::move(name), num_ports, num_ports) {}

  /// Relay every port of `sw`; once, from the wrapper's constructor.
  template <class Switch>
  void relay(Switch& sw) {
    for (std::size_t i = 0; i < sw.num_ports(); ++i) {
      ports_.push_back(&sw.port(i));
      egress_.emplace_back(*this, i);
      sw.port(i).out_link().connect(egress_.back());
    }
  }

 private:
  /// Relays one switch TX link into one graph output port.
  class Egress final : public sim::FrameSink {
   public:
    Egress(SwitchBlock& owner, std::size_t port) noexcept
        : owner_(&owner), port_(port) {}
    void on_frame(net::Packet pkt, Picos first_bit, Picos last_bit) override {
      owner_->emit(port_, std::move(pkt), first_bit, last_bit);
    }

   private:
    SwitchBlock* owner_;
    std::size_t port_;
  };

  std::vector<hw::EthPort*> ports_;
  std::deque<Egress> egress_;
};

/// dut::LegacySwitch as an N-in/N-out block (N = cfg.num_ports).
class LegacySwitchBlock : public SwitchBlock {
 public:
  LegacySwitchBlock(sim::Engine& eng, std::string name,
                    dut::LegacySwitchConfig cfg = {});

  /// The wrapped switch, for static MACs and counter assertions.
  [[nodiscard]] dut::LegacySwitch& dut() noexcept { return sw_; }

 private:
  dut::LegacySwitch sw_;
};

/// dut::OpenFlowSwitch as an N-in/N-out block. The block owns its
/// control channel; drive the switch through controller().
struct OpenFlowSwitchBlockConfig {
  dut::OpenFlowSwitchConfig sw{};
  openflow::ChannelConfig chan{};
};

class OpenFlowSwitchBlock : public SwitchBlock {
 public:
  OpenFlowSwitchBlock(sim::Engine& eng, std::string name,
                      OpenFlowSwitchBlockConfig cfg = {});

  [[nodiscard]] openflow::ControlChannel::Endpoint& controller() noexcept {
    return chan_.controller();
  }
  [[nodiscard]] dut::OpenFlowSwitch& dut() noexcept { return sw_; }

 private:
  openflow::ControlChannel chan_;
  dut::OpenFlowSwitch sw_;
};

}  // namespace osnt::graph
