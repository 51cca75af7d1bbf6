#include "osnt/graph/graph.hpp"

#include "osnt/common/cli.hpp"

namespace osnt::graph {

Block& Graph::add(std::unique_ptr<Block> block) {
  if (!block) throw GraphError("graph: cannot add a null block");
  if (find(block->name()) != nullptr) {
    throw GraphError("graph: duplicate block name '" + block->name() + "'");
  }
  blocks_.push_back(std::move(block));
  return *blocks_.back();
}

Block& Graph::lookup(const std::string& name) {
  if (Block* b = find(name)) return *b;
  std::vector<std::string> names;
  names.reserve(blocks_.size());
  for (const auto& b : blocks_) names.push_back(b->name());
  throw GraphError("graph: unknown block '" + name + "'" +
                   did_you_mean(name, names));
}

void Graph::claim_output(Block& src, std::size_t out_port, sim::Link* link) {
  if (out_port >= src.num_outputs()) {
    throw GraphError("graph: block '" + src.name() + "' has no output port " +
                     std::to_string(out_port) + " (outputs: " +
                     std::to_string(src.num_outputs()) + ")");
  }
  if (src.outs_[out_port] != nullptr) {
    throw GraphError("graph: output '" + src.name() + ":" +
                     std::to_string(out_port) + "' is already wired");
  }
  src.outs_[out_port] = link;
}

sim::Link& Graph::connect(const std::string& src, std::size_t out_port,
                          const std::string& dst, std::size_t in_port,
                          Picos propagation) {
  return connect_output(src, out_port, input(dst, in_port), propagation);
}

sim::FrameSink& Graph::input(const std::string& dst, std::size_t in_port) {
  Block& to = lookup(dst);
  if (in_port >= to.num_inputs()) {
    throw GraphError("graph: block '" + to.name() + "' has no input port " +
                     std::to_string(in_port) + " (inputs: " +
                     std::to_string(to.num_inputs()) + ")");
  }
  adapters_.emplace_back(to, in_port);
  return adapters_.back();
}

sim::Link& Graph::connect_output(const std::string& src, std::size_t out_port,
                                 sim::FrameSink& sink, Picos propagation) {
  Block& from = lookup(src);
  links_.emplace_back(*eng_, propagation);
  sim::Link& link = links_.back();
  link.connect(sink);
  claim_output(from, out_port, &link);
  return link;
}

void Graph::start() {
  for (auto& b : blocks_) b->start();
}

Block* Graph::find(const std::string& name) noexcept {
  for (auto& b : blocks_) {
    if (b->name() == name) return b.get();
  }
  return nullptr;
}

Block& Graph::at(const std::string& name) { return lookup(name); }

std::uint64_t Graph::total_frames_in() const noexcept {
  std::uint64_t v = 0;
  for (const auto& b : blocks_) v += b->frames_in();
  return v;
}

std::uint64_t Graph::total_drops() const noexcept {
  std::uint64_t v = 0;
  for (const auto& b : blocks_) v += b->drops();
  return v;
}

}  // namespace osnt::graph
