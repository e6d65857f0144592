// DiagramIndex: every query equals the scanning ActivityDiagram query it
// replaces — same pointers, same order — on the registry, on random
// models and on hand-built malformed graphs.
#include "prophet/uml/index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/uml/model.hpp"

namespace models = prophet::models;
namespace uml = prophet::uml;

namespace {

using Links = std::span<const uml::DiagramIndex::Link* const>;

std::vector<const uml::ControlFlow*> flows(Links links) {
  std::vector<const uml::ControlFlow*> result;
  for (const auto* link : links) {
    result.push_back(link->flow);
  }
  return result;
}

void expect_index_matches(const uml::ActivityDiagram& diagram,
                          const std::string& what) {
  SCOPED_TRACE(what + " / diagram " + diagram.id());
  const uml::DiagramIndex index(diagram);
  EXPECT_EQ(&index.diagram(), &diagram);
  EXPECT_EQ(index.initial(), diagram.initial());

  const auto& nodes = diagram.nodes();
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const std::string& id = nodes[i]->id();
    ASSERT_NE(index.find(id), uml::DiagramIndex::npos) << id;
    EXPECT_EQ(nodes[index.find(id)].get(), diagram.node(id)) << id;
    EXPECT_EQ(index.holder(i), index.find(id)) << id;
    const auto out = diagram.outgoing(id);
    const auto in = diagram.incoming(id);
    EXPECT_EQ(flows(index.out_links(i)), out) << id;
    EXPECT_EQ(flows(index.in_links(i)), in) << id;
    EXPECT_EQ(flows(index.out_links(std::string_view(id))), out) << id;
  }

  const auto& edges = diagram.edges();
  ASSERT_EQ(index.links().size(), edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto& link = index.links()[e];
    const uml::ControlFlow& flow = *edges[e];
    EXPECT_EQ(link.flow, &flow);
    EXPECT_EQ(link.source, diagram.node(flow.source())) << flow.id();
    EXPECT_EQ(link.target, diagram.node(flow.target())) << flow.id();
    EXPECT_EQ(link.from, index.find(flow.source())) << flow.id();
    EXPECT_EQ(link.to, index.find(flow.target())) << flow.id();
    // Each by-id query lists the very Link records of links().
    for (const auto* out : index.out_links(flow.source())) {
      EXPECT_GE(out, index.links().data());
      EXPECT_LT(out, index.links().data() + index.links().size());
    }
  }
}

void expect_model_matches(const uml::Model& model, const std::string& what) {
  for (const auto& diagram : model.diagrams()) {
    expect_index_matches(*diagram, what);
  }
  const uml::ModelIndex graphs(model);
  for (const auto& diagram : model.diagrams()) {
    EXPECT_EQ(&graphs.at(*diagram).diagram(), diagram.get());
  }
}

std::unique_ptr<uml::Node> node(const char* id, uml::NodeKind kind) {
  return std::make_unique<uml::Node>(id, "", kind);
}

std::unique_ptr<uml::ControlFlow> edge(const char* id, const char* source,
                                       const char* target) {
  return std::make_unique<uml::ControlFlow>(id, source, target);
}

}  // namespace

TEST(DiagramIndex, MatchesTheScanningQueriesOnEveryRegistryModel) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    expect_model_matches(entry.make(), entry.name);
  }
}

TEST(DiagramIndex, MatchesTheScanningQueriesOnRandomModels) {
  for (const std::uint64_t seed : {3u, 7u, 11u}) {
    for (const int size : {20, 400, 1600}) {
      expect_model_matches(models::random_model(seed, size),
                           "random seed " + std::to_string(seed) + " size " +
                               std::to_string(size));
    }
  }
}

TEST(DiagramIndex, MatchesTheScanningQueriesOnMalformedGraphs) {
  using K = uml::NodeKind;
  // Two nodes hold "a" (the second shares the first's edges) and two
  // initial nodes hold "i"; "lonely" has no edges.  e3 dangles at its
  // source, e4 at its target, e7 at both ends; e5 is a self-loop.
  uml::ActivityDiagram d("d", "malformed");
  d.add_node(node("i", K::Initial));
  d.add_node(node("a", K::Action));
  d.add_node(node("m", K::Merge));
  d.add_node(node("a", K::Final));
  d.add_node(node("lonely", K::Action));
  d.add_node(node("f", K::Final));
  d.add_node(node("i", K::Initial));
  d.add_edge(edge("e1", "i", "a"));
  d.add_edge(edge("e2", "a", "m"));
  d.add_edge(edge("e3", "ghost", "m"));
  d.add_edge(edge("e4", "m", "nowhere"));
  d.add_edge(edge("e5", "m", "m"));
  d.add_edge(edge("e6", "a", "f"));
  d.add_edge(edge("e7", "ghost", "ghost"));
  d.add_edge(edge("e8", "m", "a"));
  expect_index_matches(d, "malformed");

  const uml::DiagramIndex index(d);
  // The duplicate "a" answers with the first holder's ranges.
  EXPECT_EQ(index.holder(3), 1u);
  EXPECT_EQ(index.out_links(3).data(), index.out_links(1).data());
  ASSERT_EQ(index.out_links(1).size(), 2u);
  EXPECT_EQ(index.out_links(1)[1]->flow->id(), "e6");
  EXPECT_EQ(index.in_links(3).size(), 2u);  // e1 and e8
  EXPECT_TRUE(index.out_links(4).empty());
  EXPECT_TRUE(index.in_links(4).empty());
  EXPECT_EQ(index.links()[2].source, nullptr);
  EXPECT_EQ(index.links()[2].from, uml::DiagramIndex::npos);
  EXPECT_EQ(index.links()[3].target, nullptr);
  EXPECT_EQ(index.links()[4].from, index.links()[4].to);
  EXPECT_EQ(index.find("ghost"), uml::DiagramIndex::npos);
  EXPECT_TRUE(index.out_links(std::string_view("ghost")).empty());
  EXPECT_EQ(index.initial(), d.nodes()[0].get());
}

TEST(DiagramIndex, EmptyAndInitialLessDiagrams) {
  const uml::ActivityDiagram empty("d0", "empty");
  expect_index_matches(empty, "empty");
  const uml::DiagramIndex none(empty);
  EXPECT_EQ(none.initial(), nullptr);
  EXPECT_TRUE(none.links().empty());
  EXPECT_EQ(none.find(""), uml::DiagramIndex::npos);

  uml::ActivityDiagram headless("d1", "headless");
  headless.add_node(node("a", uml::NodeKind::Action));
  headless.add_node(node("f", uml::NodeKind::Final));
  headless.add_edge(edge("e1", "a", "f"));
  expect_index_matches(headless, "headless");
  EXPECT_EQ(uml::DiagramIndex(headless).initial(), nullptr);
}

TEST(ModelIndex, RejectsForeignDiagrams) {
  const uml::Model model = models::random_model(1, 20);
  const uml::ModelIndex graphs(model);
  const uml::ActivityDiagram stranger("x", "stranger");
  EXPECT_THROW((void)graphs.at(stranger), std::out_of_range);
}
