// A per-pass index of activity-diagram graphs.
//
// ActivityDiagram answers node(), outgoing() and incoming() by scanning
// every node or edge and comparing id strings: fine for a builder or a
// test, quadratic for a pass that asks once per node.  A DiagramIndex
// resolves the graph once, in O(nodes + edges): one id hash, every edge's
// endpoints, and each node's outgoing and incoming edges as contiguous
// ranges.  A pass builds the index when it starts and drops it when it
// ends; no index is ever stored in the model, so a model costs no more
// memory between passes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "prophet/uml/diagram.hpp"

namespace prophet::uml {

class Model;

/// Every query answers exactly what the matching ActivityDiagram query
/// answers — same nodes, same edges, same order — in O(1) per result.
/// Nodes are named by their position ("ordinal") in diagram().nodes().
/// When several nodes hold one id, the first of them (its "holder")
/// answers for the id, as ActivityDiagram::node() does, and every node
/// holding the id shares the holder's edge ranges, as
/// ActivityDiagram::outgoing(id) does.
class DiagramIndex {
 public:
  /// The ordinal of no node.
  static constexpr std::uint32_t npos =
      std::numeric_limits<std::uint32_t>::max();

  /// One control-flow edge with its endpoints resolved.
  struct Link {
    const ControlFlow* flow = nullptr;
    /// The holders of the edge's source and target ids; nullptr when no
    /// node holds the id (a dangling end).
    const Node* source = nullptr;
    const Node* target = nullptr;
    /// Ordinals of those holders; npos when dangling.
    std::uint32_t from = npos;
    std::uint32_t to = npos;
  };

  explicit DiagramIndex(const ActivityDiagram& diagram);

  // The edge ranges point into the index's own arrays: moving keeps them
  // valid, copying would not.
  DiagramIndex(const DiagramIndex&) = delete;
  DiagramIndex& operator=(const DiagramIndex&) = delete;
  DiagramIndex(DiagramIndex&&) = default;
  DiagramIndex& operator=(DiagramIndex&&) = default;

  [[nodiscard]] const ActivityDiagram& diagram() const { return *diagram_; }

  /// The first Initial node, or nullptr — ActivityDiagram::initial().
  [[nodiscard]] const Node* initial() const { return initial_; }

  /// Ordinal of the holder of `id` (ActivityDiagram::node(id)); npos
  /// when no node holds it.
  [[nodiscard]] std::uint32_t find(std::string_view id) const;

  /// Ordinal of the holder of the id of the node at `ordinal` (the
  /// ordinal itself unless an earlier node holds the same id).
  [[nodiscard]] std::uint32_t holder(std::uint32_t ordinal) const {
    return holder_[ordinal];
  }

  /// Every edge, in diagram().edges() order.
  [[nodiscard]] std::span<const Link> links() const { return links_; }

  /// Edges leaving / entering the node at `ordinal`, in diagram edge
  /// order — ActivityDiagram::outgoing/incoming(node id).
  [[nodiscard]] std::span<const Link* const> out_links(
      std::uint32_t ordinal) const;
  [[nodiscard]] std::span<const Link* const> in_links(
      std::uint32_t ordinal) const;

  /// The same by id; empty when no node holds `id`.
  [[nodiscard]] std::span<const Link* const> out_links(
      std::string_view id) const;

 private:
  /// The slot of `slots_` holding `id`, or the empty one it would take.
  [[nodiscard]] std::size_t slot(std::string_view id) const;

  const ActivityDiagram* diagram_;
  const Node* initial_ = nullptr;
  // Open addressing with linear probing: holder ordinal + 1 per used
  // slot, 0 for an empty one; the size is a power of two.
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint32_t> holder_;  // ordinal -> holder ordinal
  std::vector<Link> links_;
  // Counting-sorted by holder, stable in edge order: the holder at
  // ordinal h owns out_[out_begin_[h] .. out_begin_[h + 1]).
  std::vector<const Link*> out_;
  std::vector<const Link*> in_;
  std::vector<std::uint32_t> out_begin_;
  std::vector<std::uint32_t> in_begin_;
};

/// One DiagramIndex per diagram of a model, for a pass over all of them.
class ModelIndex {
 public:
  explicit ModelIndex(const Model& model);

  /// The index of `diagram`, which must be one of the model's diagrams
  /// (std::out_of_range otherwise).
  [[nodiscard]] const DiagramIndex& at(const ActivityDiagram& diagram) const;

 private:
  std::vector<DiagramIndex> diagrams_;  // model diagram order
  std::unordered_map<const ActivityDiagram*, std::size_t> position_;
};

}  // namespace prophet::uml
