#include "prophet/uml/index.hpp"

#include <bit>
#include <functional>
#include <stdexcept>

#include "prophet/uml/model.hpp"

namespace prophet::uml {
namespace {

/// Stable counting sort of the links by one resolved end: `begin` gets
/// one slot per node plus a sentinel, and the holder at ordinal h owns
/// sorted[begin[h] .. begin[h + 1]).  Links whose end dangles are left
/// out, as no node's query by id would list them.
void sort_by_end(const std::vector<DiagramIndex::Link>& links,
                 std::uint32_t DiagramIndex::Link::*end, std::size_t nodes,
                 std::vector<const DiagramIndex::Link*>* sorted,
                 std::vector<std::uint32_t>* begin) {
  // Counts land two slots up, so that after the prefix sum begin[h + 1]
  // is where h's range starts; placing the links advances it to where
  // h's range ends, which is begin[h + 1] of the result.
  begin->assign(nodes + 2, 0);
  for (const auto& link : links) {
    if (link.*end != DiagramIndex::npos) {
      ++(*begin)[link.*end + 2];
    }
  }
  for (std::size_t i = 2; i < nodes + 2; ++i) {
    (*begin)[i] += (*begin)[i - 1];
  }
  sorted->resize((*begin)[nodes + 1]);
  for (const auto& link : links) {
    if (link.*end != DiagramIndex::npos) {
      (*sorted)[(*begin)[link.*end + 1]++] = &link;
    }
  }
  begin->pop_back();
}

}  // namespace

DiagramIndex::DiagramIndex(const ActivityDiagram& diagram)
    : diagram_(&diagram) {
  const auto& nodes = diagram.nodes();
  const auto count = static_cast<std::uint32_t>(nodes.size());
  // At most half full, so every probe sequence ends at an empty slot.
  slots_.assign(std::bit_ceil(2 * std::size_t{count} + 1), 0);
  holder_.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t& entry = slots_[slot(nodes[i]->id())];
    if (entry == 0) {
      entry = i + 1;  // the first node holding an id wins
    }
    holder_[i] = entry - 1;
    if (initial_ == nullptr && nodes[i]->kind() == NodeKind::Initial) {
      initial_ = nodes[i].get();
    }
  }
  const auto& edges = diagram.edges();
  links_.resize(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    Link& link = links_[e];
    link.flow = edges[e].get();
    link.from = find(link.flow->source());
    link.to = find(link.flow->target());
    if (link.from != npos) {
      link.source = nodes[link.from].get();
    }
    if (link.to != npos) {
      link.target = nodes[link.to].get();
    }
  }
  sort_by_end(links_, &Link::from, count, &out_, &out_begin_);
  sort_by_end(links_, &Link::to, count, &in_, &in_begin_);
}

std::size_t DiagramIndex::slot(std::string_view id) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t at = std::hash<std::string_view>{}(id) & mask;
  while (slots_[at] != 0 && diagram_->nodes()[slots_[at] - 1]->id() != id) {
    at = (at + 1) & mask;
  }
  return at;
}

std::uint32_t DiagramIndex::find(std::string_view id) const {
  const std::uint32_t entry = slots_[slot(id)];
  return entry == 0 ? npos : entry - 1;
}

std::span<const DiagramIndex::Link* const> DiagramIndex::out_links(
    std::uint32_t ordinal) const {
  const std::uint32_t h = holder_[ordinal];
  return {out_.data() + out_begin_[h], out_begin_[h + 1] - out_begin_[h]};
}

std::span<const DiagramIndex::Link* const> DiagramIndex::in_links(
    std::uint32_t ordinal) const {
  const std::uint32_t h = holder_[ordinal];
  return {in_.data() + in_begin_[h], in_begin_[h + 1] - in_begin_[h]};
}

std::span<const DiagramIndex::Link* const> DiagramIndex::out_links(
    std::string_view id) const {
  const std::uint32_t ordinal = find(id);
  return ordinal == npos ? std::span<const Link* const>{} : out_links(ordinal);
}

ModelIndex::ModelIndex(const Model& model) {
  diagrams_.reserve(model.diagrams().size());
  position_.reserve(model.diagrams().size());
  for (const auto& diagram : model.diagrams()) {
    position_.emplace(diagram.get(), diagrams_.size());
    diagrams_.emplace_back(*diagram);
  }
}

const DiagramIndex& ModelIndex::at(const ActivityDiagram& diagram) const {
  const auto it = position_.find(&diagram);
  if (it == position_.end()) {
    throw std::out_of_range("diagram " + diagram.id() +
                            " is not part of the indexed model");
  }
  return diagrams_[it->second];
}

}  // namespace prophet::uml
