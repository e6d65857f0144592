// Code generator: Fig. 4 mapping, Fig. 5 stages, structured control flow,
// identifier sanitization, error handling.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "prophet/codegen/transformer.hpp"
#include "prophet/prophet.hpp"

namespace codegen = prophet::codegen;
namespace uml = prophet::uml;

namespace {

const codegen::Transformer kTransformer;

TEST(Sanitize, Identifiers) {
  EXPECT_EQ(codegen::sanitize_identifier("Kernel6"), "Kernel6");
  EXPECT_EQ(codegen::sanitize_identifier("Kernel 6"), "Kernel_6");
  EXPECT_EQ(codegen::sanitize_identifier("a-b.c"), "a_b_c");
  EXPECT_EQ(codegen::sanitize_identifier("6pack"), "e_6pack");
  EXPECT_EQ(codegen::sanitize_identifier(""), "e_");
}

TEST(Fig4, Kernel6Mapping) {
  // Fig. 4: the element Kernel6 maps to an ActionPlus instance whose
  // execute() receives the cost function FK6.
  const uml::Model model = prophet::models::kernel6_model(100, 10, 1e-9);
  const std::string cpp = kTransformer.transform(model);
  EXPECT_NE(cpp.find("ActionPlus Kernel6(ctx, \"Kernel6\");"),
            std::string::npos)
      << cpp;
  EXPECT_NE(cpp.find("Kernel6.execute("), std::string::npos);
  EXPECT_NE(cpp.find("FK6());"), std::string::npos);
  EXPECT_NE(cpp.find("double FK6() { return"), std::string::npos);
}

TEST(Fig5, SelectionFindsAllStereotypedElements) {
  const uml::Model model = prophet::models::sample_model();
  const auto elements = kTransformer.select_performance_elements(model);
  // SA1, SA2, A1, SA (activity), A2, A4.
  EXPECT_EQ(elements.size(), 6u);
  for (const auto* element : elements) {
    EXPECT_TRUE(element->has_stereotype());
  }
}

TEST(Fig5, GlobalsStage) {
  const uml::Model model = prophet::models::sample_model();
  const std::string globals = kTransformer.emit_globals(model);
  EXPECT_NE(globals.find("double GV = 0;"), std::string::npos);
  EXPECT_NE(globals.find("double P = 0;"), std::string::npos);
}

TEST(Fig5, IntegerGlobalsBecomeLong) {
  const uml::Model model = prophet::models::kernel6_model(64, 4, 1e-9);
  const std::string globals = kTransformer.emit_globals(model);
  EXPECT_NE(globals.find("long N = 0;"), std::string::npos);
  EXPECT_NE(globals.find("long M = 0;"), std::string::npos);
  EXPECT_NE(globals.find("double c = 0;"), std::string::npos);
}

TEST(Fig5, CostFunctionStageOrdersDependencies) {
  uml::ModelBuilder mb("M");
  // Declared caller-first; emission must flip the order.
  mb.function("Caller", {}, "Callee() * 2");
  mb.function("Callee", {}, "0.5");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  const std::string functions =
      kTransformer.emit_cost_functions(std::move(mb).build());
  const auto callee_pos = functions.find("double Callee");
  const auto caller_pos = functions.find("double Caller");
  ASSERT_NE(callee_pos, std::string::npos);
  ASSERT_NE(caller_pos, std::string::npos);
  EXPECT_LT(callee_pos, caller_pos);
}

TEST(Fig5, CyclicCostFunctionsRejected) {
  uml::ModelBuilder mb("M");
  mb.function("F", {}, "G()");
  mb.function("G", {}, "F()");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  const uml::Model model = std::move(mb).build();
  EXPECT_THROW((void)kTransformer.emit_cost_functions(model),
               codegen::TransformError);
}

TEST(Fig5, ParameterizedFunctions) {
  uml::ModelBuilder mb("M");
  mb.function("F", {"pid", "x"}, "pid * x");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  const std::string functions =
      kTransformer.emit_cost_functions(std::move(mb).build());
  EXPECT_NE(functions.find("double F(double pid, double x)"),
            std::string::npos);
}

TEST(Fig5, LocalsStage) {
  uml::ModelBuilder mb("M");
  mb.local("L", uml::VariableType::Real, "2.5");
  mb.local("K", uml::VariableType::Integer);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  const std::string locals = kTransformer.emit_locals(std::move(mb).build());
  EXPECT_NE(locals.find("double L = 2.5;"), std::string::npos);
  EXPECT_NE(locals.find("long K = 0;"), std::string::npos);
}

TEST(Fig5, DeclarationStageUsesRuntimeClasses) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef s = d.send("S", "1", "8");
  uml::NodeRef r = d.recv("R", "0", "8");
  uml::NodeRef bar = d.barrier("Bar");
  uml::NodeRef red = d.reduce("Red", "0", "8");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, s, r, bar, red, fin});
  const std::string decls =
      kTransformer.emit_declarations(std::move(mb).build());
  EXPECT_NE(decls.find("ActionPlus A(ctx, \"A\");"), std::string::npos);
  EXPECT_NE(decls.find("SendElement S(ctx, \"S\");"), std::string::npos);
  EXPECT_NE(decls.find("RecvElement R(ctx, \"R\");"), std::string::npos);
  EXPECT_NE(decls.find("BarrierElement Bar(ctx, \"Bar\");"),
            std::string::npos);
  EXPECT_NE(decls.find("CollectiveElement Red(ctx, \"Red\", "
                       "prophet::workload::CollectiveKind::Reduce);"),
            std::string::npos);
}

TEST(Fig5, DuplicateNamesDisambiguated) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("X").cost("1");
  uml::NodeRef b = d.action("X").cost("2");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, b, fin});
  const std::string decls =
      kTransformer.emit_declarations(std::move(mb).build());
  EXPECT_NE(decls.find("ActionPlus X(ctx"), std::string::npos);
  EXPECT_NE(decls.find("ActionPlus X_n3(ctx"), std::string::npos) << decls;
}

TEST(Flow, LoopBecomesForStatement) {
  const uml::Model model =
      prophet::models::kernel6_detailed_model(10, 2, 1e-9);
  const std::string flow = kTransformer.emit_flow(model);
  EXPECT_NE(flow.find("for (double L = 0; L < (M); L += 1)"),
            std::string::npos)
      << flow;
}

TEST(Flow, TriangularLoopBound) {
  const uml::Model model =
      prophet::models::kernel6_detailed_model(10, 2, 1e-9);
  const std::string cpp = kTransformer.transform(model);
  EXPECT_NE(cpp.find("i2 + 1.0"), std::string::npos) << cpp;
}

TEST(Flow, ForkBecomesForkJoin) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fork = d.fork();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef join = d.join();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fork);
  d.flow(fork, a);
  d.flow(fork, b);
  d.flow(a, join);
  d.flow(b, join);
  d.flow(join, fin);
  const std::string flow = kTransformer.emit_flow(std::move(mb).build());
  EXPECT_NE(flow.find("fork_join(ctx, {"), std::string::npos);
  EXPECT_NE(flow.find("[&]() -> prophet::sim::Process {"),
            std::string::npos);
}

TEST(Flow, DecisionWithoutElseGetsRuntimeGuardError) {
  uml::ModelBuilder mb("M");
  mb.global("X", uml::VariableType::Real);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision("Choice");
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef merge = d.merge();
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "X > 0");
  d.flow(dec, b, "X < 0");
  d.flow(a, merge);
  d.flow(b, merge);
  d.flow(merge, fin);
  const std::string flow = kTransformer.emit_flow(std::move(mb).build());
  EXPECT_NE(flow.find("} else if (X < 0.0) {"), std::string::npos) << flow;
  EXPECT_NE(flow.find("throw std::runtime_error"), std::string::npos);
}

TEST(Flow, OmpParallelEmitsRegionLambda) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder body = mb.diagram("body");
  uml::NodeRef binit = body.initial();
  uml::NodeRef w = body.omp_for("W", "100", "0.001");
  uml::NodeRef bfin = body.final_node();
  body.sequence({binit, w, bfin});
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef region = main.omp_parallel("R", body, "nt");
  uml::NodeRef fin = main.final_node();
  main.sequence({init, region, fin});
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(main.id());
  const std::string cpp = kTransformer.transform(model);
  EXPECT_NE(cpp.find("parallel_region(ctx, static_cast<int>(nt)"),
            std::string::npos)
      << cpp;
  // The workshare element is declared inside the lambda (thread context),
  // not at function scope.
  const auto lambda_pos = cpp.find("[&](prophet::workload::ModelContext");
  const auto decl_pos = cpp.find("WorkshareElement W(ctx, \"W\");");
  ASSERT_NE(lambda_pos, std::string::npos);
  ASSERT_NE(decl_pos, std::string::npos);
  EXPECT_GT(decl_pos, lambda_pos);
}

TEST(Flow, UidVariableSubstitutedWithLiteral) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("uid * 0.001");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  const std::string flow = kTransformer.emit_flow(std::move(mb).build());
  // A's uid is 2 (initial gets 1).
  EXPECT_NE(flow.find("2.0 * 0.001"), std::string::npos) << flow;
}

TEST(Errors, UnstructuredBackEdgeRejected) {
  uml::ModelBuilder mb("M");
  mb.global("X", uml::VariableType::Real);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef dec = d.decision();
  uml::NodeRef fin = d.final_node();
  d.flow(init, a);
  d.flow(a, dec);
  d.flow(dec, a, "X > 0");  // back edge loop
  d.flow(dec, fin, "else");
  const uml::Model model = std::move(mb).build();
  EXPECT_THROW((void)kTransformer.emit_flow(model), codegen::TransformError);
}

TEST(Errors, MissingSubdiagram) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef act = d.activity("X", "ghost");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, act, fin});
  const uml::Model model = std::move(mb).build();
  EXPECT_THROW((void)kTransformer.emit_flow(model), codegen::TransformError);
}

TEST(Errors, UnparseableCostExpression) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1 +");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  const uml::Model model = std::move(mb).build();
  EXPECT_THROW((void)kTransformer.emit_flow(model), codegen::TransformError);
}

namespace {

/// One raw diagram "d" of control nodes (no stereotypes, so nothing but
/// the structure is emitted) plus the given edges, as the main diagram.
uml::Model control_graph(
    std::initializer_list<std::pair<const char*, uml::NodeKind>> nodes,
    std::initializer_list<std::array<const char*, 4>> edges) {
  uml::Model model("Graph");
  auto diagram = std::make_unique<uml::ActivityDiagram>("d", "main");
  for (const auto& [id, kind] : nodes) {
    diagram->add_node(std::make_unique<uml::Node>(id, "", kind));
  }
  for (const auto& [id, source, target, guard] : edges) {
    diagram->add_edge(
        std::make_unique<uml::ControlFlow>(id, source, target, guard));
  }
  model.add_diagram(std::move(diagram));
  model.set_main_diagram("d");
  return model;
}

std::string transform_error(const uml::Model& model) {
  try {
    (void)kTransformer.emit_flow(model);
  } catch (const codegen::TransformError& error) {
    return error.what();
  }
  return "no error";
}

}  // namespace

TEST(Errors, ExactControlFlowErrorTexts) {
  using K = uml::NodeKind;
  EXPECT_EQ(transform_error(control_graph(
                {{"i", K::Initial}, {"m", K::Merge}, {"f", K::Final},
                 {"g", K::Final}},
                {{"e1", "i", "m", ""}, {"e2", "m", "f", ""},
                 {"e3", "m", "g", ""}})),
            "node m has multiple outgoing edges but is neither a decision "
            "nor a fork");
  EXPECT_EQ(transform_error(control_graph(
                {{"i", K::Initial}, {"m", K::Merge}},
                {{"e1", "i", "m", ""}, {"e2", "m", "ghost", ""}})),
            "edge e2 has dangling target");
  EXPECT_EQ(transform_error(control_graph(
                {{"i", K::Initial}, {"dec", K::Decision}, {"f", K::Final}},
                {{"e1", "i", "dec", ""}, {"e2", "dec", "f", "1"},
                 {"e3", "dec", "ghost", "else"}})),
            "edge e3 has dangling target");
  EXPECT_EQ(transform_error(control_graph(
                {{"i", K::Initial}, {"fork", K::Fork}, {"j", K::Join},
                 {"f", K::Final}},
                {{"e1", "i", "fork", ""}, {"e2", "fork", "j", ""},
                 {"e3", "fork", "ghost", ""}, {"e4", "j", "f", ""}})),
            "edge e3 has dangling target");
  // A node sharing the merge's id shares its outgoing edges, exactly as
  // a by-id edge query does.
  EXPECT_EQ(transform_error(control_graph(
                {{"i", K::Initial}, {"m", K::Merge}, {"m", K::Merge},
                 {"f", K::Final}},
                {{"e1", "i", "m", ""}, {"e2", "m", "f", ""},
                 {"e3", "m", "f", ""}})),
            "node m has multiple outgoing edges but is neither a decision "
            "nor a fork");
  EXPECT_EQ(transform_error(control_graph({{"m", K::Merge}}, {})),
            "diagram d has no initial node");
}

TEST(Options, MainOnlyWhenRequested) {
  const uml::Model model = prophet::models::sample_model();
  EXPECT_EQ(kTransformer.transform(model).find("int main("),
            std::string::npos);
  codegen::TransformOptions options;
  options.emit_main = true;
  const codegen::Transformer with_main(options);
  EXPECT_NE(with_main.transform(model).find("int main("),
            std::string::npos);
}

TEST(Options, BannersToggle) {
  const uml::Model model = prophet::models::sample_model();
  codegen::TransformOptions options;
  options.banners = false;
  const codegen::Transformer no_banners(options);
  EXPECT_EQ(no_banners.transform(model).find("Fig. 5 lines"),
            std::string::npos);
}

TEST(Options, CustomFunctionName) {
  const uml::Model model = prophet::models::sample_model();
  codegen::TransformOptions options;
  options.model_function = "my_model";
  const codegen::Transformer custom(options);
  EXPECT_NE(custom.transform(model).find(
                "prophet::sim::Process my_model(prophet"),
            std::string::npos);
}

TEST(Emitter, IndentationAndBalance) {
  codegen::CppEmitter emitter;
  emitter.open("if (x) {");
  emitter.line("y();");
  emitter.close();
  EXPECT_EQ(emitter.text(), "if (x) {\n  y();\n}\n");
  EXPECT_THROW(emitter.dedent(), std::logic_error);
}

}  // namespace
