// lower::ModelProgram: the shared lowering layer behind every backend.
// Differential coverage: for every registry workload both backends must
// observe the *same* lowering (pointer-equal when shared, count-equal
// when lowered independently) and predict bit-identically whether
// prepared from a model or from a shared lowering.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/interp/interpreter.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/uml/builder.hpp"

namespace analytic = prophet::analytic;
namespace estimator = prophet::estimator;
namespace interp = prophet::interp;
namespace lower = prophet::lower;
namespace machine = prophet::machine;
namespace models = prophet::models;
namespace uml = prophet::uml;

namespace {

machine::SystemParameters params_np(int np, int nodes = 1, int ppn = 1) {
  machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  params.processors_per_node = ppn;
  return params;
}

// --- TagKind table -----------------------------------------------------------

TEST(TagKind, RoundTripsThroughNameAndBack) {
  for (std::size_t i = 0; i < lower::kTagKindCount; ++i) {
    const auto kind = static_cast<lower::TagKind>(i);
    const auto back = lower::tag_kind(lower::tag_name(kind));
    ASSERT_TRUE(back.has_value()) << lower::tag_name(kind);
    EXPECT_EQ(*back, kind);
  }
}

TEST(TagKind, UnknownTagNamesAreNotExpressionTags) {
  EXPECT_FALSE(lower::tag_kind("code").has_value());
  EXPECT_FALSE(lower::tag_kind("id").has_value());
  EXPECT_FALSE(lower::tag_kind("").has_value());
  EXPECT_FALSE(lower::tag_kind("costs").has_value());
}

TEST(TagKind, NamedAccessorsAliasTheTagArray) {
  const uml::Model model = models::sample_model();
  const auto program = lower::lower(model);
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      const lower::NodePrograms& programs = program->at(*node);
      EXPECT_EQ(&programs.cost(), &programs.tag(lower::TagKind::Cost));
      EXPECT_EQ(&programs.dest(), &programs.tag(lower::TagKind::Dest));
      EXPECT_EQ(&programs.source(), &programs.tag(lower::TagKind::Source));
      EXPECT_EQ(&programs.size(), &programs.tag(lower::TagKind::Size));
      EXPECT_EQ(&programs.root(), &programs.tag(lower::TagKind::Root));
      EXPECT_EQ(&programs.iterations(),
                &programs.tag(lower::TagKind::Iterations));
      EXPECT_EQ(&programs.itercost(), &programs.tag(lower::TagKind::IterCost));
      EXPECT_EQ(&programs.num_threads(),
                &programs.tag(lower::TagKind::NumThreads));
    }
  }
}

// --- ModelProgram structure --------------------------------------------------

TEST(ModelProgram, CoversEveryNodeOfEveryDiagram) {
  const uml::Model model = models::sample_model();
  const auto program = lower::lower(model);
  EXPECT_EQ(&program->model(), &model);
  std::size_t nodes = 0;
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      EXPECT_GT(program->at(*node).uid, 0);
      ++nodes;
    }
  }
  EXPECT_EQ(program->stats().nodes, nodes);
  // np/nt/nn/ppn occupy the first slots of every model's slot space.
  EXPECT_GE(program->slot_count(), 4u);
  EXPECT_EQ(program->stats().slots, program->slot_count());
}

TEST(ModelProgram, ForeignNodeIsRejected) {
  const auto program = lower::lower(models::sample_model());
  const uml::Model other = models::sample_model();
  const uml::Node& foreign = **other.main_diagram()->nodes().begin();
  EXPECT_THROW((void)program->at(foreign), std::out_of_range);
}

TEST(ModelProgram, UidOfMatchesInterpreterAndRejectsUnknownIds) {
  const uml::Model model = models::sample_model();
  const auto program = lower::lower(model);
  const interp::Interpreter interpreter(model);
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      EXPECT_EQ(program->uid_of(node->id()), interpreter.uid_of(node->id()));
    }
  }
  EXPECT_THROW((void)program->uid_of("zz"), lower::LowerError);
}

TEST(ModelProgram, OwningLowerKeepsTheModelAlive) {
  lower::ModelProgramPtr program = lower::lower(models::sample_model());
  // The temporary is gone; the program's model reference must not dangle.
  EXPECT_NE(program->model().main_diagram(), nullptr);
  EXPECT_GT(program->stats().nodes, 0u);
  EXPECT_GT(program->stats().expr_programs, 0u);
  EXPECT_GT(program->stats().bytecode_bytes, 0u);
}

TEST(ModelProgram, LoweringErrorsCarryTheBackendMessageText) {
  uml::ModelBuilder mb("bad");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1 +");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  const std::string node_id = a.id();
  const uml::Model model = std::move(mb).build();
  try {
    (void)lower::lower(model);
    FAIL() << "expected LowerError";
  } catch (const lower::LowerError& error) {
    // The same text InterpretError/AnalyticError carried before the
    // shared layer existed — wrapping preserves what() verbatim.
    EXPECT_NE(
        std::string(error.what()).find("tag 'cost' of node " + node_id),
        std::string::npos)
        << error.what();
  }
}

// --- Resolved control flow ----------------------------------------------------

/// Checks every resolved field of `program` against the AST queries the
/// walkers used to make at evaluation time.
void expect_control_flow_matches_ast(const uml::Model& model,
                                     const lower::ModelProgram& program,
                                     const std::string& label) {
  const auto& main = program.main_diagram();
  EXPECT_EQ(main.diagram, model.main_diagram()) << label;
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      const std::string where = label + " node " + node->id();
      const lower::NodePrograms& programs = program.at(*node);
      EXPECT_EQ(programs.node, node.get()) << where;
      EXPECT_EQ(programs.kind, node->kind()) << where;

      // Edges: the order, else flags, guards and targets outgoing()
      // and node() give.
      const auto outgoing = diagram->outgoing(node->id());
      ASSERT_EQ(programs.edges.size(), outgoing.size()) << where;
      bool any_prob = false;
      for (std::size_t i = 0; i < outgoing.size(); ++i) {
        const lower::ControlEdge& edge = programs.edges[i];
        EXPECT_EQ(edge.flow, outgoing[i]) << where << " edge " << i;
        EXPECT_EQ(edge.is_else, outgoing[i]->is_else()) << where;
        EXPECT_EQ(edge.guard, program.guard(*outgoing[i])) << where;
        const uml::Node* target = diagram->node(outgoing[i]->target());
        EXPECT_EQ(edge.target, target) << where;
        if (target == nullptr) {
          EXPECT_EQ(edge.to, nullptr) << where;
        } else {
          EXPECT_EQ(edge.to, &program.at(*target)) << where;
        }
        const auto prob = outgoing[i]->tag_number(uml::tag::kProb);
        EXPECT_EQ(edge.has_prob, prob.has_value()) << where;
        if (prob.has_value()) {
          EXPECT_EQ(edge.prob, *prob) << where;
          any_prob = true;
        }
      }
      EXPECT_EQ(programs.probabilistic, any_prob) << where;

      // Subdiagram and its entry node.
      if (node->kind() == uml::NodeKind::Activity ||
          node->kind() == uml::NodeKind::Loop) {
        const uml::ActivityDiagram* sub = model.diagram(node->subdiagram_id());
        ASSERT_NE(programs.subdiagram, nullptr) << where;
        EXPECT_EQ(programs.subdiagram->diagram, sub) << where;
        if (sub->initial() == nullptr) {
          EXPECT_EQ(programs.subdiagram->initial, nullptr) << where;
        } else {
          EXPECT_EQ(programs.subdiagram->initial, &program.at(*sub->initial()))
              << where;
        }
      } else {
        EXPECT_EQ(programs.subdiagram, nullptr) << where;
      }

      // Constant tags.
      EXPECT_EQ(programs.time, node->tag_number(uml::tag::kTime)) << where;
      EXPECT_EQ(programs.msg_tag,
                node->tag_number(uml::tag::kMsgTag).value_or(0))
          << where;
      EXPECT_EQ(programs.chunk, node->tag_number(uml::tag::kChunk).value_or(0))
          << where;
      const std::string schedule = node->tag_string(uml::tag::kSchedule);
      ASSERT_NE(programs.schedule, nullptr) << where;
      EXPECT_EQ(*programs.schedule, schedule.empty() ? "static" : schedule)
          << where;
      const std::string lock = node->tag_string(uml::tag::kCriticalName);
      ASSERT_NE(programs.critical_name, nullptr) << where;
      EXPECT_EQ(*programs.critical_name, lock.empty() ? "default" : lock)
          << where;
    }
  }
}

TEST(ResolvedControlFlow, MatchesTheAstOnEveryRegistryModel) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    const uml::Model model = entry.make();
    const auto program = lower::lower(model);
    expect_control_flow_matches_ast(model, *program, entry.name);
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const uml::Model model = models::random_model(seed, 60);
    const auto program = lower::lower(model);
    expect_control_flow_matches_ast(model, *program,
                                    "random " + std::to_string(seed));
  }
}

TEST(ResolvedControlFlow, MatchesTheAstOnMalformedGraphs) {
  // Tags of every pre-read kind, probabilities, a dangling edge, an edge
  // whose source is no node, an edge-less node and a shared node id —
  // the cases where resolution by id could go wrong.
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder body = mb.diagram("body");
  uml::NodeRef body_init = body.initial();
  uml::NodeRef work = body.omp_for("Work", "16", "1e-3", "dynamic", 4);
  uml::NodeRef body_fin = body.final_node();
  body.sequence({body_init, work, body_fin});
  uml::DiagramBuilder empty = mb.diagram("empty");
  empty.final_node();
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B");
  b.time(2.5);
  uml::NodeRef merge = d.merge();
  uml::NodeRef crit = d.omp_critical("Crit", body, "lock");
  uml::NodeRef act = d.activity("Empty", empty);
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "pid > 0").prob(0.25);
  d.flow(dec, b, "else");
  d.flow(a, merge);
  d.flow(b, merge);
  d.flow(merge, crit);
  d.flow(crit, act);
  d.flow(act, fin);
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(d.id());
  uml::ActivityDiagram& main = *model.diagram(d.id());
  main.add_edge(std::make_unique<uml::ControlFlow>("dangling", a.id(),
                                                   "nowhere"));
  main.add_edge(std::make_unique<uml::ControlFlow>("sourceless", "nowhere",
                                                   fin.id()));
  main.add_node(std::make_unique<uml::Node>(b.id(), "Twin",
                                            uml::NodeKind::Action));
  main.add_node(std::make_unique<uml::Node>("lonely", "Lonely",
                                            uml::NodeKind::Merge));
  const auto program = lower::lower(model);
  expect_control_flow_matches_ast(model, *program, "malformed");

  // Spot checks of what the generic comparison covers.
  const lower::NodePrograms& decision = program->at(dec.node());
  EXPECT_TRUE(decision.probabilistic);
  EXPECT_EQ(program->at(a.node()).edges.size(), 2u);
  EXPECT_EQ(program->at(a.node()).edges[1].to, nullptr);
  EXPECT_EQ(*program->at(work.node()).schedule, "dynamic");
  EXPECT_EQ(program->at(work.node()).chunk, 4.0);
  EXPECT_EQ(*program->at(crit.node()).critical_name, "lock");
  EXPECT_EQ(program->at(b.node()).time, 2.5);
  EXPECT_EQ(program->at(act.node()).subdiagram->initial, nullptr);
  // The twin shares b's id, so it shares b's outgoing edges.
  const uml::Node& twin = *main.nodes()[main.nodes().size() - 2];
  EXPECT_EQ(program->at(twin).edges.data(), program->at(b.node()).edges.data());
}

// --- One lowering behind every backend ---------------------------------------

TEST(SharedLowering, BothBackendsConsumeTheSameProgramInstance) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    const uml::Model model = entry.make();
    const lower::ModelProgramPtr program = lower::lower(model);
    const auto sim = analytic::SimulationBackend().prepare(program);
    const auto ana = analytic::AnalyticBackend().prepare(program);
    // The API contract of the redesign: backends do not lower, so a
    // future backend shares this exact instance too.
    EXPECT_EQ(sim->lowering().get(), program.get()) << entry.name;
    EXPECT_EQ(ana->lowering().get(), program.get()) << entry.name;
  }
}

TEST(SharedLowering, IndependentPreparesReportIdenticalCounts) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    const uml::Model model = entry.make();
    const auto sim = analytic::SimulationBackend().prepare(model);
    const auto ana = analytic::AnalyticBackend().prepare(model);
    const estimator::PrepareStats a = sim->prepare_stats();
    const estimator::PrepareStats b = ana->prepare_stats();
    EXPECT_EQ(a.expr_programs, b.expr_programs) << entry.name;
    EXPECT_EQ(a.nodes, b.nodes) << entry.name;
    EXPECT_EQ(a.slots, b.slots) << entry.name;
    EXPECT_EQ(a.bytecode_bytes, b.bytecode_bytes) << entry.name;
    // And both agree with a third, direct lowering.
    const auto direct = lower::lower(model);
    EXPECT_EQ(a.nodes, direct->stats().nodes) << entry.name;
    EXPECT_EQ(a.slots, direct->stats().slots) << entry.name;
    EXPECT_EQ(a.expr_programs, direct->stats().expr_programs) << entry.name;
    EXPECT_EQ(a.bytecode_bytes, direct->stats().bytecode_bytes) << entry.name;
  }
}

TEST(SharedLowering, PredictionsAreBitIdenticalToPerBackendLowering) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    const uml::Model model = entry.make();
    const lower::ModelProgramPtr program = lower::lower(model);
    const auto params = entry.default_params;
    for (const estimator::BackendKind kind :
         {estimator::BackendKind::Simulation,
          estimator::BackendKind::Analytic}) {
      const auto backend = analytic::make_backend(kind);
      const auto shared = backend->prepare(program);
      const auto own = backend->prepare(model);
      const auto from_shared = shared->estimate(params);
      const auto from_own = own->estimate(params);
      EXPECT_EQ(from_shared.predicted_time, from_own.predicted_time)
          << entry.name << " @ " << backend->name();
      EXPECT_EQ(from_shared.events, from_own.events) << entry.name;
      EXPECT_EQ(from_shared.per_process_finish, from_own.per_process_finish)
          << entry.name;
    }
  }
}

TEST(SharedLowering, EstimatorConstructedFromSharedLoweringMatchesDirect) {
  const uml::Model model = models::kernel6_model(64, 16, 1e-8);
  const auto program = lower::lower(model);
  const analytic::AnalyticEstimator from_program(program);
  const analytic::AnalyticEstimator from_model(model);
  EXPECT_EQ(from_program.lowering().get(), program.get());
  const auto params = params_np(4, 2, 2);
  EXPECT_EQ(from_program.evaluate(params).predicted_time,
            from_model.evaluate(params).predicted_time);
  EXPECT_EQ(from_program.expr_program_count(), from_model.expr_program_count());
}

TEST(SharedLowering, NullProgramsAreRejected) {
  EXPECT_THROW(analytic::AnalyticEstimator(lower::ModelProgramPtr()),
               analytic::AnalyticError);
  EXPECT_THROW((void)analytic::SimulationBackend().prepare(
                   lower::ModelProgramPtr()),
               interp::InterpretError);
}

}  // namespace
