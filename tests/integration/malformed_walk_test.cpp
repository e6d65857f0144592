// Walker behaviour on malformed control flow, run without the checker.
// The cases go through the two walkers that follow a model's
// control-flow edges at evaluation time: the simulator's interpreter and
// the analytic walker, at one lane and over a lane block (via
// estimate_batch, which re-runs each lane alone on any error).
// Each pins the exact error text, or that the walk ends quietly, so a
// change to how the walkers resolve edges cannot change a diagnostic.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "prophet/analytic/backend.hpp"
#include "prophet/uml/builder.hpp"
#include "prophet/uml/model.hpp"

namespace analytic = prophet::analytic;
namespace estimator = prophet::estimator;
namespace machine = prophet::machine;
namespace uml = prophet::uml;

using prophet::estimator::BackendKind;

namespace {

/// `np` processes, one per node, so predictions are contention-free.
machine::SystemParameters params_np(int np) {
  machine::SystemParameters params;
  params.processes = np;
  params.nodes = np;
  return params;
}

/// A prediction or the error text of the exception that replaced it.
struct Outcome {
  bool ok = false;
  double predicted = 0;
  std::string error;
};

estimator::EstimationOptions quiet() {
  estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  return options;
}

/// One estimate at `np` processes through `kind`'s backend.
Outcome run_one(BackendKind kind, const uml::Model& model, int np) {
  Outcome outcome;
  try {
    const auto prepared = analytic::make_backend(kind)->prepare(model);
    const auto report = prepared->estimate(params_np(np), quiet());
    outcome.predicted = report.predicted_time;
    outcome.ok = true;
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  return outcome;
}

/// Analytic estimate_batch over np = 1, 2, 4: the first lane's
/// prediction, or the first error.
Outcome run_batch(const uml::Model& model) {
  Outcome outcome;
  try {
    const auto backend = analytic::make_backend(BackendKind::Analytic);
    const auto prepared = backend->prepare(model);
    const std::vector<machine::SystemParameters> lanes = {
        params_np(1), params_np(2), params_np(4)};
    const auto reports = prepared->estimate_batch(lanes, quiet());
    outcome.predicted = reports.at(0).predicted_time;
    outcome.ok = true;
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  return outcome;
}

/// Every walker fails on `model` with exactly `message`.
void expect_all_fail(const uml::Model& model, const std::string& message) {
  const Outcome sim = run_one(BackendKind::Simulation, model, 2);
  EXPECT_FALSE(sim.ok);
  EXPECT_EQ(sim.error, message) << "sim";
  const Outcome scalar = run_one(BackendKind::Analytic, model, 2);
  EXPECT_FALSE(scalar.ok);
  EXPECT_EQ(scalar.error, message) << "analytic";
  const Outcome batch = run_batch(model);
  EXPECT_FALSE(batch.ok);
  EXPECT_EQ(batch.error, message) << "analytic estimate_batch";
}

/// Only the analytic walkers fail on `model`, with exactly `message`;
/// the simulator predicts `sim_predicted`.
void expect_analytic_fails(const uml::Model& model, double sim_predicted,
                           const std::string& message) {
  const Outcome sim = run_one(BackendKind::Simulation, model, 2);
  EXPECT_TRUE(sim.ok) << sim.error;
  EXPECT_EQ(sim.predicted, sim_predicted);
  const Outcome scalar = run_one(BackendKind::Analytic, model, 2);
  EXPECT_FALSE(scalar.ok);
  EXPECT_EQ(scalar.error, message) << "analytic";
  const Outcome batch = run_batch(model);
  EXPECT_FALSE(batch.ok);
  EXPECT_EQ(batch.error, message) << "analytic estimate_batch";
}

/// Every walker predicts `expected` for `model`.
void expect_all_predict(const uml::Model& model, double expected) {
  for (const auto kind : {BackendKind::Simulation, BackendKind::Analytic}) {
    const Outcome outcome = run_one(kind, model, 2);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.predicted, expected);
  }
  const Outcome batch = run_batch(model);
  ASSERT_TRUE(batch.ok) << batch.error;
  EXPECT_EQ(batch.predicted, expected);
}

/// Appends an edge from `source` to a node id no diagram node has (the
/// builder refuses such edges, so the model is built first).
uml::ControlFlow& add_dangling_edge(uml::Model& model,
                                    const uml::DiagramBuilder& diagram,
                                    const uml::NodeRef& source,
                                    std::string guard = {}) {
  auto edge = std::make_unique<uml::ControlFlow>("ghost_edge", source.id(),
                                                 "ghost", std::move(guard));
  return model.diagram(diagram.id())->add_edge(std::move(edge));
}

TEST(MalformedWalk, DecisionWithoutHoldingGuardOrElse) {
  uml::ModelBuilder mb("M");
  mb.global("X", uml::VariableType::Real, "0");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "X > 3");
  d.flow(dec, b, "X > 4");
  d.flow(a, fin);
  d.flow(b, fin);
  const uml::Model model = std::move(mb).build();
  const std::string expected =
      "decision " + dec.id() + ": no guard holds and no 'else' edge";
  expect_all_fail(model, expected);
}

TEST(MalformedWalk, ActionWithTwoUnguardedSuccessors) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef c = d.action("C").cost("3");
  uml::NodeRef fin = d.final_node();
  d.flow(init, a);
  d.flow(a, b);
  d.flow(a, c);
  d.flow(b, fin);
  d.flow(c, fin);
  const uml::Model model = std::move(mb).build();
  const std::string expected =
      "node " + a.id() + " has multiple unguarded outgoing edges";
  expect_all_fail(model, expected);
}

TEST(MalformedWalk, ForkBranchesReachDifferentJoins) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fork = d.fork();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef join1 = d.join();
  uml::NodeRef join2 = d.join();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fork);
  d.flow(fork, a);
  d.flow(fork, b);
  d.flow(a, join1);
  d.flow(b, join2);
  d.flow(join1, fin);
  d.flow(join2, fin);
  const uml::Model model = std::move(mb).build();
  const std::string joins = "('" + join1.id() + "' vs '" + join2.id() + "')";
  const std::string expected =
      "fork " + fork.id() + ": branches reach different joins " + joins;
  expect_all_fail(model, expected);
}

TEST(MalformedWalk, ForkBranchesReachNoJoin) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fork = d.fork();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef fin = d.final_node();
  d.flow(init, fork);
  d.flow(fork, a);
  d.flow(fork, b);
  d.flow(a, fin);
  d.flow(b, fin);
  const uml::Model model = std::move(mb).build();
  const std::string expected =
      "fork " + fork.id() + ": branches do not reach a join";
  expect_all_fail(model, expected);
}

TEST(MalformedWalk, ForkWithDanglingBranch) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fork = d.fork();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef join = d.join();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fork);
  d.flow(fork, a);
  d.flow(a, join);
  d.flow(join, fin);
  uml::Model model = std::move(mb).build();
  add_dangling_edge(model, d, fork);
  expect_all_fail(model, "fork " + fork.id() + ": dangling edge");
}

TEST(MalformedWalk, JoinWithTwoSuccessors) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fork = d.fork();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef join = d.join();
  uml::NodeRef c = d.action("C").cost("3");
  uml::NodeRef fin = d.final_node();
  d.flow(init, fork);
  d.flow(fork, a);
  d.flow(fork, b);
  d.flow(a, join);
  d.flow(b, join);
  d.flow(join, c);
  d.flow(join, fin);
  d.flow(c, fin);
  const uml::Model model = std::move(mb).build();
  expect_all_fail(model, "join " + join.id() + " has multiple outgoing edges");
}

TEST(MalformedWalk, ProbabilisticBranchesThatDoNotReconverge) {
  // The simulator resolves the guards concretely (both processes take
  // A, 1 s); the analytic walkers take the expectation over both
  // branches and need a merge to close it.
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef fin1 = d.final_node();
  uml::NodeRef fin2 = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "pid >= 0").prob(0.5);
  d.flow(dec, b, "else").prob(0.5);
  d.flow(a, fin1);
  d.flow(b, fin2);
  const uml::Model model = std::move(mb).build();
  const std::string expected =
      "decision " + dec.id() +
      ": probability-weighted branches must reconverge at a merge";
  expect_analytic_fails(model, 1.0, expected);
}

TEST(MalformedWalk, ProbabilisticBranchesReachDifferentMerges) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef merge1 = d.merge();
  uml::NodeRef merge2 = d.merge();
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "pid >= 0").prob(0.5);
  d.flow(dec, b, "else").prob(0.5);
  d.flow(a, merge1);
  d.flow(b, merge2);
  d.flow(merge1, fin);
  d.flow(merge2, fin);
  const uml::Model model = std::move(mb).build();
  const std::string merges =
      "('" + merge1.id() + "' vs '" + merge2.id() + "')";
  const std::string expected =
      "decision " + dec.id() + ": branches reach different merges " + merges;
  expect_analytic_fails(model, 1.0, expected);
}

TEST(MalformedWalk, ProbabilisticDecisionWithDanglingBranch) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef merge = d.merge();
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "pid >= 0").prob(0.5);
  d.flow(a, merge);
  d.flow(merge, fin);
  uml::Model model = std::move(mb).build();
  add_dangling_edge(model, d, dec, "else").set_tag(uml::tag::kProb, 0.5);
  expect_analytic_fails(model, 1.0, "decision " + dec.id() + ": dangling edge");
}

TEST(MalformedWalk, GuardEvaluationError) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef merge = d.merge();
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  const std::string guard_id = d.flow(dec, a, "Q > 0").edge().id();
  d.flow(dec, b, "else");
  d.flow(a, merge);
  d.flow(b, merge);
  d.flow(merge, fin);
  const uml::Model model = std::move(mb).build();
  // The simulator lets the evaluation error through unwrapped; the
  // analytic walkers name the edge.
  const std::string cause = "unknown variable 'Q'";
  const std::string wrapped = "guard of edge " + guard_id + ": " + cause;
  const Outcome sim = run_one(BackendKind::Simulation, model, 2);
  EXPECT_FALSE(sim.ok);
  EXPECT_EQ(sim.error, cause) << "sim";
  const Outcome scalar = run_one(BackendKind::Analytic, model, 2);
  EXPECT_FALSE(scalar.ok);
  EXPECT_EQ(scalar.error, wrapped) << "analytic";
  const Outcome batch = run_batch(model);
  EXPECT_FALSE(batch.ok);
  EXPECT_EQ(batch.error, wrapped) << "analytic estimate_batch";
}

TEST(MalformedWalk, DanglingSuccessorEndsTheWalkLikeADeadEnd) {
  // A -> (nothing) and A -> "ghost" both end the walk after A.
  const auto build = [](bool dangling) {
    uml::ModelBuilder mb("M");
    uml::DiagramBuilder d = mb.diagram("main");
    uml::NodeRef init = d.initial();
    uml::NodeRef a = d.action("A").cost("1.5");
    uml::NodeRef b = d.action("B").cost("2");
    uml::NodeRef fin = d.final_node();
    d.flow(init, a);
    d.flow(b, fin);
    uml::Model model = std::move(mb).build();
    if (dangling) {
      add_dangling_edge(model, d, a);
    }
    return model;
  };
  expect_all_predict(build(false), 1.5);
  expect_all_predict(build(true), 1.5);
}

TEST(MalformedWalk, DanglingDecisionTargetEndsTheWalk) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("0.5");
  uml::NodeRef dec = d.decision();
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef fin = d.final_node();
  d.flow(init, a);
  d.flow(a, dec);
  d.flow(dec, b, "pid < 0");
  d.flow(b, fin);
  uml::Model model = std::move(mb).build();
  add_dangling_edge(model, d, dec, "else");
  expect_all_predict(model, 0.5);
}

TEST(MalformedWalk, SubdiagramWithoutInitialNode) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder body = mb.diagram("body");
  body.final_node();
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef sub = d.activity("Sub", body);
  uml::NodeRef fin = d.final_node();
  d.sequence({init, sub, fin});
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(d.id());
  expect_all_fail(model, "diagram " + body.id() + " has no initial node");
}

TEST(MalformedWalk, UnstructuredCycleHitsTheStepLimit) {
  // The analytic walker only (one lane and a lane block): the
  // simulator's coroutine walk nests a native frame per node until
  // something suspends, and unoptimized builds do not turn that transfer
  // into a tail call, so a million-step walk overflows the stack there
  // before the limit trips.
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef m1 = d.merge();
  uml::NodeRef m2 = d.merge();
  d.flow(init, m1);
  d.flow(m1, m2);
  d.flow(m2, m1);
  const uml::Model model = std::move(mb).build();
  const std::string expected =
      "diagram " + d.id() +
      ": walk exceeded step limit (unstructured cycle without <<loop+>>?)";
  const Outcome scalar = run_one(BackendKind::Analytic, model, 2);
  EXPECT_FALSE(scalar.ok);
  EXPECT_EQ(scalar.error, expected) << "analytic";
  const Outcome batch = run_batch(model);
  EXPECT_FALSE(batch.ok);
  EXPECT_EQ(batch.error, expected) << "analytic estimate_batch";
}

}  // namespace
