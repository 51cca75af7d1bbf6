#include "osnt/graph/dut_blocks.hpp"

namespace osnt::graph {

LegacySwitchBlock::LegacySwitchBlock(sim::Engine& eng, std::string name,
                                     dut::LegacySwitchConfig cfg)
    : SwitchBlock(eng, std::move(name), cfg.num_ports), sw_(eng, cfg) {
  relay(sw_);
}

OpenFlowSwitchBlock::OpenFlowSwitchBlock(sim::Engine& eng, std::string name,
                                         OpenFlowSwitchBlockConfig cfg)
    : SwitchBlock(eng, std::move(name), cfg.sw.num_ports),
      chan_(eng, cfg.chan),
      sw_(eng, chan_, cfg.sw) {
  relay(sw_);
}

}  // namespace osnt::graph
