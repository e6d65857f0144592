// Model Checker: every standard rule has a positive (clean model) and a
// negative (violating model) test, plus MCF configuration behaviour.
#include <gtest/gtest.h>

#include "prophet/check/checker.hpp"
#include "prophet/prophet.hpp"
#include "prophet/xml/parser.hpp"

namespace check = prophet::check;
namespace uml = prophet::uml;

namespace {

check::Diagnostics run_check(const uml::Model& model) {
  const check::ModelChecker checker;
  return checker.check(model);
}

bool rule_fired(const check::Diagnostics& diagnostics,
                std::string_view rule) {
  return !diagnostics.from_rule(rule).empty();
}

/// A minimal clean model: initial -> action -> final.
uml::Model clean_model() {
  uml::ModelBuilder mb("Clean");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("0.001");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  return std::move(mb).build();
}

TEST(Checker, CleanModelHasNoFindings) {
  const auto diagnostics = run_check(clean_model());
  EXPECT_TRUE(diagnostics.ok()) << diagnostics.to_string();
  EXPECT_EQ(diagnostics.warning_count(), 0u) << diagnostics.to_string();
}

TEST(Checker, PaperSampleModelIsClean) {
  const auto diagnostics = run_check(prophet::models::sample_model());
  EXPECT_TRUE(diagnostics.ok()) << diagnostics.to_string();
}

TEST(Checker, EmptyModelFailsMainDiagramRule) {
  uml::Model model("Empty");
  const auto diagnostics = run_check(model);
  EXPECT_FALSE(diagnostics.ok());
  EXPECT_TRUE(rule_fired(diagnostics, "main-diagram"));
}

TEST(Checker, MissingMainDiagramReference) {
  uml::Model model = clean_model();
  model.set_main_diagram("nonexistent");
  EXPECT_TRUE(rule_fired(run_check(model), "main-diagram"));
}

TEST(Checker, DuplicateIdsDetected) {
  uml::Model model("Dup");
  auto diagram = std::make_unique<uml::ActivityDiagram>("d1", "main");
  diagram->add_node(
      std::make_unique<uml::Node>("x", "I", uml::NodeKind::Initial));
  diagram->add_node(
      std::make_unique<uml::Node>("x", "F", uml::NodeKind::Final));
  diagram->add_edge(std::make_unique<uml::ControlFlow>("e", "x", "x"));
  model.add_diagram(std::move(diagram));
  EXPECT_TRUE(rule_fired(run_check(model), "unique-ids"));
}

TEST(Checker, MissingInitialNode) {
  uml::Model model("NoInit");
  auto diagram = std::make_unique<uml::ActivityDiagram>("d1", "main");
  diagram->add_node(
      std::make_unique<uml::Node>("n1", "A", uml::NodeKind::Action));
  model.add_diagram(std::move(diagram));
  EXPECT_TRUE(rule_fired(run_check(model), "initial-node"));
}

TEST(Checker, TwoInitialNodes) {
  uml::Model model("TwoInit");
  auto diagram = std::make_unique<uml::ActivityDiagram>("d1", "main");
  diagram->add_node(
      std::make_unique<uml::Node>("n1", "I1", uml::NodeKind::Initial));
  diagram->add_node(
      std::make_unique<uml::Node>("n2", "I2", uml::NodeKind::Initial));
  model.add_diagram(std::move(diagram));
  EXPECT_TRUE(rule_fired(run_check(model), "initial-node"));
}

TEST(Checker, InitialWithIncomingEdge) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  d.flow(a, init);  // back edge into initial
  EXPECT_TRUE(
      rule_fired(run_check(std::move(mb).build()), "initial-final-edges"));
}

TEST(Checker, FinalWithOutgoingEdge) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  uml::NodeRef a = d.action("A");
  d.flow(init, fin);
  d.flow(fin, a);
  d.flow(a, fin);
  EXPECT_TRUE(
      rule_fired(run_check(std::move(mb).build()), "initial-final-edges"));
}

TEST(Checker, DanglingEdgeEndpoint) {
  uml::Model model("Dangling");
  auto diagram = std::make_unique<uml::ActivityDiagram>("d1", "main");
  diagram->add_node(
      std::make_unique<uml::Node>("n1", "I", uml::NodeKind::Initial));
  diagram->add_edge(
      std::make_unique<uml::ControlFlow>("f1", "n1", "ghost"));
  model.add_diagram(std::move(diagram));
  EXPECT_TRUE(rule_fired(run_check(model), "edge-endpoints"));
}

TEST(Checker, DisconnectedNodeWarned) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  d.action("Orphan");  // no edges
  const auto diagnostics = run_check(std::move(mb).build());
  EXPECT_TRUE(rule_fired(diagnostics, "connectivity"));
  EXPECT_TRUE(rule_fired(diagnostics, "node-reachable"));
  EXPECT_TRUE(diagnostics.ok());  // warnings only
}

TEST(Checker, DecisionWithUnguardedEdge) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A");
  uml::NodeRef b = d.action("B");
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a);  // missing guard
  d.flow(dec, b, "else");
  d.flow(a, fin);
  d.flow(b, fin);
  EXPECT_TRUE(
      rule_fired(run_check(std::move(mb).build()), "decision-guards"));
}

TEST(Checker, DecisionGuardMustParse) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A");
  uml::NodeRef b = d.action("B");
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "GV >");
  d.flow(dec, b, "else");
  d.flow(a, fin);
  d.flow(b, fin);
  EXPECT_TRUE(
      rule_fired(run_check(std::move(mb).build()), "decision-guards"));
}

TEST(Checker, DecisionWithoutElseWarned) {
  uml::ModelBuilder mb("M");
  mb.global("GV", uml::VariableType::Real);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A");
  uml::NodeRef b = d.action("B");
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "GV > 0");
  d.flow(dec, b, "GV <= 0");
  d.flow(a, fin);
  d.flow(b, fin);
  const auto diagnostics = run_check(std::move(mb).build());
  EXPECT_TRUE(rule_fired(diagnostics, "decision-guards"));
  EXPECT_TRUE(diagnostics.ok());  // warning only
}

TEST(Checker, GuardOnNonDecisionEdgeWarned) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A");
  uml::NodeRef fin = d.final_node();
  d.flow(init, a);
  d.flow(a, fin, "1 > 0");
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "guard-context"));
}

TEST(Checker, UnknownStereotype) {
  uml::Model model = clean_model();
  model.diagram("d1")->node("n2")->set_stereotype("mystery+");
  EXPECT_TRUE(rule_fired(run_check(model), "stereotype-known"));
}

TEST(Checker, TagTypeMismatch) {
  uml::Model model = clean_model();
  // `time` is declared Real; give it a string.
  model.diagram("d1")->node("n2")->set_tag(
      uml::tag::kTime, uml::TagValue(std::string("fast")));
  EXPECT_TRUE(rule_fired(run_check(model), "tag-conformance"));
}

TEST(Checker, UnknownTagWarned) {
  uml::Model model = clean_model();
  model.diagram("d1")->node("n2")->set_tag("color",
                                           uml::TagValue(std::string("red")));
  const auto diagnostics = run_check(model);
  EXPECT_TRUE(rule_fired(diagnostics, "tag-conformance"));
  EXPECT_TRUE(diagnostics.ok());  // warning only
}

TEST(Checker, MissingRequiredTag) {
  uml::Model model("M");
  model.set_profile(uml::standard_profile());
  auto diagram = std::make_unique<uml::ActivityDiagram>("d1", "main");
  diagram->add_node(
      std::make_unique<uml::Node>("n1", "I", uml::NodeKind::Initial));
  auto send = std::make_unique<uml::Node>("n2", "S", uml::NodeKind::Action);
  send->set_stereotype(std::string(uml::stereo::kSend));
  // dest/size required but absent.
  diagram->add_node(std::move(send));
  diagram->add_node(
      std::make_unique<uml::Node>("n3", "F", uml::NodeKind::Final));
  diagram->add_edge(std::make_unique<uml::ControlFlow>("f1", "n1", "n2"));
  diagram->add_edge(std::make_unique<uml::ControlFlow>("f2", "n2", "n3"));
  model.add_diagram(std::move(diagram));
  EXPECT_TRUE(rule_fired(run_check(model), "tag-conformance"));
}

TEST(Checker, MalformedCostExpression) {
  uml::Model model = clean_model();
  model.diagram("d1")->node("n2")->set_tag(
      uml::tag::kCost, uml::TagValue(std::string("0.001 +")));
  EXPECT_TRUE(rule_fired(run_check(model), "expression-tags"));
}

TEST(Checker, UnknownVariableInCost) {
  uml::Model model = clean_model();
  model.diagram("d1")->node("n2")->set_tag(
      uml::tag::kCost, uml::TagValue(std::string("mystery * 2")));
  EXPECT_TRUE(rule_fired(run_check(model), "expression-visibility"));
}

TEST(Checker, UndefinedCostFunctionCall) {
  uml::Model model = clean_model();
  model.diagram("d1")->node("n2")->set_tag(
      uml::tag::kCost, uml::TagValue(std::string("FMissing()")));
  EXPECT_TRUE(rule_fired(run_check(model), "expression-visibility"));
}

TEST(Checker, SystemParametersAreVisible) {
  uml::Model model = clean_model();
  model.diagram("d1")->node("n2")->set_tag(
      uml::tag::kCost, uml::TagValue(std::string("0.001 * np + pid")));
  EXPECT_TRUE(run_check(model).ok());
}

TEST(Checker, LoopVariableVisibleInsideBody) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder body = mb.diagram("body");
  uml::NodeRef binit = body.initial();
  uml::NodeRef w = body.action("W").cost("0.001 * (k + 1)");
  uml::NodeRef bfin = body.final_node();
  body.sequence({binit, w, bfin});
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef loop = main.loop("L", body, "10", "k");
  uml::NodeRef fin = main.final_node();
  main.sequence({init, loop, fin});
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(main.id());
  EXPECT_TRUE(run_check(model).ok()) << run_check(model).to_string();
}

TEST(Checker, LoopVariableNotVisibleOutsideBody) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef a = main.action("A").cost("k * 2");  // k undeclared here
  uml::NodeRef fin = main.final_node();
  main.sequence({init, a, fin});
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()),
                         "expression-visibility"));
}

TEST(Checker, CostFunctionBodyMustParse) {
  uml::ModelBuilder mb("M");
  mb.function("F", {}, "1 +");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "cost-functions"));
}

TEST(Checker, CostFunctionCannotUseLocals) {
  uml::ModelBuilder mb("M");
  mb.local("L", uml::VariableType::Real);
  mb.function("F", {}, "L * 2");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "cost-functions"));
}

TEST(Checker, CyclicCostFunctions) {
  uml::ModelBuilder mb("M");
  mb.function("F", {}, "G() + 1");
  mb.function("G", {}, "F() + 1");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "cost-functions"));
}

TEST(Checker, FunctionCompositionAllowed) {
  uml::ModelBuilder mb("M");
  mb.global("P", uml::VariableType::Real, "4");
  mb.function("FA1", {}, "0.001 * P");
  mb.function("FA2", {}, "0.5 * FA1()");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("FA2()");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  EXPECT_TRUE(run_check(std::move(mb).build()).ok());
}

TEST(Checker, UnknownSubdiagram) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef act = d.activity("X", "ghost-diagram");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, act, fin});
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "subdiagrams"));
}

TEST(Checker, CyclicDiagramNesting) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder a = mb.diagram("a");
  uml::DiagramBuilder b = mb.diagram("b");
  uml::NodeRef ainit = a.initial();
  uml::NodeRef to_b = a.activity("ToB", b);
  uml::NodeRef afin = a.final_node();
  a.sequence({ainit, to_b, afin});
  uml::NodeRef binit = b.initial();
  uml::NodeRef to_a = b.activity("ToA", a);
  uml::NodeRef bfin = b.final_node();
  b.sequence({binit, to_a, bfin});
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "subdiagrams"));
}

TEST(Checker, ForkNeedsTwoBranches) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fork = d.fork();
  uml::NodeRef a = d.action("A");
  uml::NodeRef fin = d.final_node();
  d.flow(init, fork);
  d.flow(fork, a);
  d.flow(a, fin);
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "fork-join"));
}

TEST(Checker, DuplicateVariableNames) {
  uml::ModelBuilder mb("M");
  mb.global("X", uml::VariableType::Real);
  mb.global("X", uml::VariableType::Real);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "variables"));
}

TEST(Checker, VariableShadowsSystemParameter) {
  uml::ModelBuilder mb("M");
  mb.global("pid", uml::VariableType::Real);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  EXPECT_TRUE(rule_fired(run_check(std::move(mb).build()), "variables"));
}

TEST(Checker, DuplicateElementNamesWarned) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("Same");
  uml::NodeRef b = d.action("Same");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, b, fin});
  const auto diagnostics = run_check(std::move(mb).build());
  EXPECT_TRUE(rule_fired(diagnostics, "element-names"));
  EXPECT_TRUE(diagnostics.ok());
}

// --- MCF configuration ---------------------------------------------------------

TEST(CheckerMcf, DisableRule) {
  uml::Model model = clean_model();
  model.diagram("d1")->node("n2")->set_stereotype("mystery+");
  check::ModelChecker checker;
  checker.configure(prophet::xml::parse(
      "<mcf><rule name=\"stereotype-known\" enabled=\"false\"/></mcf>"));
  EXPECT_FALSE(rule_fired(checker.check(model), "stereotype-known"));
}

TEST(CheckerMcf, OverrideSeverity) {
  uml::Model model = clean_model();
  model.diagram("d1")->node("n2")->set_stereotype("mystery+");
  check::ModelChecker checker;
  checker.configure(prophet::xml::parse(
      "<mcf><rule name=\"stereotype-known\" severity=\"warning\"/></mcf>"));
  const auto diagnostics = checker.check(model);
  EXPECT_TRUE(rule_fired(diagnostics, "stereotype-known"));
  EXPECT_TRUE(diagnostics.ok());  // demoted to warning
}

TEST(CheckerMcf, UnknownRuleReportedAsInfo) {
  check::ModelChecker checker;
  checker.configure(prophet::xml::parse(
      "<mcf><rule name=\"no-such-rule\" enabled=\"false\"/></mcf>"));
  const auto diagnostics = checker.check(clean_model());
  EXPECT_FALSE(diagnostics.from_rule("mcf").empty());
}

TEST(CheckerApi, RuleNamesAndEnabledState) {
  check::ModelChecker checker;
  EXPECT_GE(checker.rule_names().size(), 15u);
  EXPECT_TRUE(checker.is_enabled("unique-ids"));
  EXPECT_TRUE(checker.set_enabled("unique-ids", false));
  EXPECT_FALSE(checker.is_enabled("unique-ids"));
  EXPECT_FALSE(checker.set_enabled("nope", false));
}

TEST(CheckerApi, EmptyCheckerHasNoRules) {
  const check::ModelChecker checker = check::ModelChecker::empty();
  EXPECT_TRUE(checker.rule_names().empty());
  uml::Model model("AnythingGoes");
  EXPECT_TRUE(checker.check(model).ok());
}

TEST(CheckerApi, CustomRule) {
  class NameLengthRule final : public check::Rule {
   public:
    NameLengthRule()
        : check::Rule("name-length", "model names stay short",
                      check::Severity::Warning) {}
    void run(const uml::Model& model, check::RuleContext& ctx) const override {
      if (model.name().size() > 8) {
        ctx.report("model", "name longer than 8 characters");
      }
    }
  };
  check::ModelChecker checker = check::ModelChecker::empty();
  checker.add(std::make_unique<NameLengthRule>());
  uml::Model long_name("AVeryLongModelName");
  EXPECT_TRUE(rule_fired(checker.check(long_name), "name-length"));
}


// --- Exact output on a malformed graph ---------------------------------------

/// Three diagrams with every graph defect the edge-reading rules look for:
/// a node id shared by two nodes (so by-id edge queries merge them), an
/// edge id reused, dangling sources and targets, a self-loop, an edge-less
/// node, an unguarded and an unparseable decision branch, a guard on a
/// non-decision edge, a one-branch fork, a one-input join, a final node
/// with an outgoing edge, a node reached only through an id no node holds,
/// and diagrams without or with two initial nodes.
uml::Model malformed_graph_model() {
  uml::Model model("Malformed");
  const auto add_node = [](uml::ActivityDiagram& d, const char* id,
                           const char* name, uml::NodeKind kind) {
    d.add_node(std::make_unique<uml::Node>(id, name, kind));
  };
  const auto add_edge = [](uml::ActivityDiagram& d, const char* id,
                           const char* source, const char* target,
                           const char* guard = "") {
    d.add_edge(
        std::make_unique<uml::ControlFlow>(id, source, target, guard));
  };

  auto main = std::make_unique<uml::ActivityDiagram>("d1", "main");
  add_node(*main, "init", "Start", uml::NodeKind::Initial);
  add_node(*main, "a", "A", uml::NodeKind::Action);
  add_node(*main, "dec", "Choose", uml::NodeKind::Decision);
  add_node(*main, "b", "B", uml::NodeKind::Action);
  add_node(*main, "c", "C", uml::NodeKind::Action);
  add_node(*main, "merge", "", uml::NodeKind::Merge);
  add_node(*main, "fork", "", uml::NodeKind::Fork);
  add_node(*main, "join", "", uml::NodeKind::Join);
  add_node(*main, "fin", "", uml::NodeKind::Final);
  add_node(*main, "a", "Twin", uml::NodeKind::Merge);
  add_node(*main, "orphan", "Orphan", uml::NodeKind::Action);
  add_node(*main, "dec2", "Twice", uml::NodeKind::Decision);
  add_node(*main, "behind", "Behind", uml::NodeKind::Action);
  add_edge(*main, "e1", "init", "a");
  add_edge(*main, "e2", "a", "dec");
  add_edge(*main, "e3", "dec", "b", "x >");
  add_edge(*main, "e4", "dec", "c");
  add_edge(*main, "e5", "b", "merge", "1");
  add_edge(*main, "e6", "c", "merge");
  add_edge(*main, "e7", "merge", "fork");
  add_edge(*main, "e8", "fork", "join");
  add_edge(*main, "e9", "join", "fin");
  add_edge(*main, "e10", "fin", "a");
  add_edge(*main, "e11", "a", "ghost");
  add_edge(*main, "e12", "phantom", "fin");
  add_edge(*main, "e13", "c", "c");
  add_edge(*main, "e1", "dec2", "fin", "else");
  add_edge(*main, "e14", "dec2", "fin", "else");
  add_edge(*main, "e15", "ghost", "ghost", "1");
  add_edge(*main, "e16", "ghost", "behind");  // reached through "ghost"
  add_edge(*main, "e17", "behind", "fin");
  model.add_diagram(std::move(main));

  auto headless = std::make_unique<uml::ActivityDiagram>("d2", "headless");
  add_node(*headless, "h_a", "HA", uml::NodeKind::Action);
  add_node(*headless, "h_fork", "", uml::NodeKind::Fork);
  add_node(*headless, "h_b", "HB", uml::NodeKind::Action);
  add_node(*headless, "h_c", "HC", uml::NodeKind::Action);
  add_node(*headless, "h_fin", "", uml::NodeKind::Final);
  add_edge(*headless, "h1", "h_a", "h_fork");
  add_edge(*headless, "h2", "h_fork", "h_b");
  add_edge(*headless, "h3", "h_fork", "h_c");
  add_edge(*headless, "h4", "h_b", "h_fin");
  model.add_diagram(std::move(headless));

  auto twin_start = std::make_unique<uml::ActivityDiagram>("d3", "twins");
  add_node(*twin_start, "t_i1", "", uml::NodeKind::Initial);
  add_node(*twin_start, "t_i2", "", uml::NodeKind::Initial);
  add_node(*twin_start, "t_join", "", uml::NodeKind::Join);
  add_node(*twin_start, "t_fin", "", uml::NodeKind::Final);
  add_edge(*twin_start, "t1", "t_i1", "t_join");
  add_edge(*twin_start, "t2", "t_join", "t_i2");
  add_edge(*twin_start, "t3", "t_i2", "t_fin");
  add_edge(*twin_start, "t4", "t_i2", "t_fin");
  model.add_diagram(std::move(twin_start));
  model.set_main_diagram("d1");
  return model;
}

TEST(CheckerOutput, MalformedGraphDiagnosticsAreExact) {
  const auto diagnostics = run_check(malformed_graph_model());
  for (const char* rule :
       {"unique-ids", "initial-final-edges", "edge-endpoints", "connectivity",
        "node-reachable", "decision-guards", "guard-context", "fork-join"}) {
    EXPECT_TRUE(rule_fired(diagnostics, rule)) << rule;
  }
  EXPECT_EQ(diagnostics.to_string(),
            "error [unique-ids] diagram d1 (main) / node a (Twin): id 'a' "
            "already used at diagram d1 (main) / node a (A)\n"
            "error [unique-ids] diagram d1 (main) / edge e1: id 'e1' already "
            "used at diagram d1 (main) / edge e1\n"
            "error [initial-node] diagram d2 (headless): diagram has no "
            "initial node\n"
            "error [initial-node] diagram d3 (twins): diagram has 2 initial "
            "nodes; exactly one is required\n"
            "error [initial-final-edges] diagram d1 (main) / node fin: final "
            "node has outgoing edges\n"
            "error [initial-final-edges] diagram d3 (twins) / node t_i2: "
            "initial node has incoming edges\n"
            "error [initial-final-edges] diagram d3 (twins) / node t_i2: "
            "initial node must have exactly one outgoing edge, has 2\n"
            "error [edge-endpoints] diagram d1 (main) / edge e11: target "
            "'ghost' not in diagram\n"
            "error [edge-endpoints] diagram d1 (main) / edge e12: source "
            "'phantom' not in diagram\n"
            "warning [edge-endpoints] diagram d1 (main) / edge e13: self-loop "
            "edge\n"
            "error [edge-endpoints] diagram d1 (main) / edge e15: source "
            "'ghost' not in diagram\n"
            "error [edge-endpoints] diagram d1 (main) / edge e15: target "
            "'ghost' not in diagram\n"
            "warning [edge-endpoints] diagram d1 (main) / edge e15: self-loop "
            "edge\n"
            "error [edge-endpoints] diagram d1 (main) / edge e16: source "
            "'ghost' not in diagram\n"
            "warning [connectivity] diagram d1 (main) / node orphan (Orphan): "
            "node has no incoming edge\n"
            "warning [connectivity] diagram d1 (main) / node orphan (Orphan): "
            "node has no outgoing edge\n"
            "warning [connectivity] diagram d1 (main) / node dec2 (Twice): "
            "node has no incoming edge\n"
            "warning [connectivity] diagram d2 (headless) / node h_a (HA): "
            "node has no incoming edge\n"
            "warning [connectivity] diagram d2 (headless) / node h_c (HC): "
            "node has no outgoing edge\n"
            "warning [node-reachable] diagram d1 (main) / node orphan "
            "(Orphan): node unreachable from initial node\n"
            "warning [node-reachable] diagram d1 (main) / node dec2 (Twice): "
            "node unreachable from initial node\n"
            "error [decision-guards] diagram d1 (main) / edge e3: guard 'x >' "
            "does not parse\n"
            "error [decision-guards] diagram d1 (main) / edge e4: edge leaving "
            "a decision node lacks a guard\n"
            "warning [decision-guards] diagram d1 (main) / node dec (Choose): "
            "decision node has no 'else' edge; execution stalls when no guard "
            "holds\n"
            "error [decision-guards] diagram d1 (main) / node dec2 (Twice): "
            "decision node has multiple 'else' edges\n"
            "warning [guard-context] diagram d1 (main) / edge e5: guard on "
            "edge leaving a non-decision node is ignored\n"
            "error [fork-join] diagram d1 (main) / node fork: fork needs at "
            "least two outgoing edges, has 1\n"
            "error [fork-join] diagram d1 (main) / node join: join needs at "
            "least two incoming edges, has 1\n"
            "warning [fork-join] diagram d2 (headless): diagram has 1 fork(s) "
            "but 0 join(s)\n"
            "error [fork-join] diagram d3 (twins) / node t_join: join needs at "
            "least two incoming edges, has 1\n"
            "warning [fork-join] diagram d3 (twins): diagram has 0 fork(s) but "
            "1 join(s)\n");
}

}  // namespace
