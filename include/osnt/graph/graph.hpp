// Graph: owns a set of named Blocks and the directed edges between their
// ports. Every edge is a sim::Link — the same seam MACs, DUT ports, and
// the fault injector already ride — so propagation delay, BER windows,
// and link flaps compose with any topology for free.
//
// The boundary to the rest of the testbed is the FrameSink seam in both
// directions: input(block, port) returns a sink an external Link (e.g. an
// OSNT port's out_link) can connect to, and connect_output(block, port,
// sink) wires a block's output into an external sink (e.g. an OSNT port's
// RX MAC). Wiring mistakes — unknown names, out-of-range ports, an output
// wired twice — are hard GraphErrors at wiring time, not silent no-ops.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "osnt/graph/block.hpp"
#include "osnt/sim/link.hpp"

namespace osnt::graph {

class Graph {
 public:
  explicit Graph(sim::Engine& eng) noexcept : eng_(&eng) {}

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Take ownership of a block. Throws GraphError on a duplicate name.
  Block& add(std::unique_ptr<Block> block);

  /// Construct a block in place: g.emplace<RedBlock>(eng, "aqm", cfg).
  template <class B, class... Args>
  B& emplace(Args&&... args) {
    auto b = std::make_unique<B>(std::forward<Args>(args)...);
    B& ref = *b;
    add(std::move(b));
    return ref;
  }

  /// Wire src's output port into dst's input port over a new Link with
  /// the given propagation delay (0 = a backplane trace, not 2 m fiber).
  sim::Link& connect(const std::string& src, std::size_t out_port,
                     const std::string& dst, std::size_t in_port,
                     Picos propagation = 0);

  /// External ingress: a FrameSink delivering into dst's input port.
  /// Stable for the Graph's lifetime; connect an external Link to it.
  [[nodiscard]] sim::FrameSink& input(const std::string& dst,
                                      std::size_t in_port = 0);

  /// External egress: wire src's output port into an external sink (an
  /// RX MAC, a capture tap) over a new Link. `sink` must outlive the run.
  sim::Link& connect_output(const std::string& src, std::size_t out_port,
                            sim::FrameSink& sink, Picos propagation = 0);

  /// Start every block, in insertion order.
  void start();

  [[nodiscard]] Block* find(const std::string& name) noexcept;
  /// Lookup that throws GraphError when the block does not exist.
  [[nodiscard]] Block& at(const std::string& name);
  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] Block& block(std::size_t i) { return *blocks_.at(i); }

  // --- aggregates across blocks (graph-level health in one read) ---
  [[nodiscard]] std::uint64_t total_frames_in() const noexcept;
  [[nodiscard]] std::uint64_t total_drops() const noexcept;

 private:
  /// Adapts the port-less FrameSink seam to a (block, in_port) pair.
  class InputAdapter final : public sim::FrameSink {
   public:
    InputAdapter(Block& b, std::size_t port) noexcept
        : block_(&b), port_(port) {}
    void on_frame(net::Packet pkt, Picos first_bit, Picos last_bit) override {
      block_->deliver(port_, std::move(pkt), first_bit, last_bit);
    }

   private:
    Block* block_;
    std::size_t port_;
  };

  /// find(), or a GraphError naming the nearest block name.
  Block& lookup(const std::string& name);
  void claim_output(Block& src, std::size_t out_port, sim::Link* link);

  sim::Engine* eng_;
  std::vector<std::unique_ptr<Block>> blocks_;
  /// Deques: adapters/links hand out stable addresses as edges accrete.
  std::deque<InputAdapter> adapters_;
  std::deque<sim::Link> links_;
};

}  // namespace osnt::graph
