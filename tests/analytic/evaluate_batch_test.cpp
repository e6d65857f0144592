// AnalyticEstimator::evaluate_batch and the estimate_batch backend
// contract: batched evaluation must be bit-identical to the scalar loop
// (reports, per-process finish times, replayed-element counts, error
// text), batch every construct the scalar walk covers, fall back only on
// models whose lanes' data diverge, and report the fallback.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/prophet.hpp"

namespace analytic = prophet::analytic;
namespace estimator = prophet::estimator;
namespace machine = prophet::machine;
namespace obs = prophet::obs;
namespace uml = prophet::uml;

namespace {

machine::SystemParameters params_np(int np, int nodes = 1, int ppn = 1) {
  machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  params.processors_per_node = ppn;
  return params;
}

std::vector<machine::SystemParameters> lane_grid() {
  std::vector<machine::SystemParameters> lanes;
  for (const int np : {1, 2, 4, 8}) {
    for (const int nodes : {1, 2}) {
      lanes.push_back(params_np(np, nodes, 2));
    }
  }
  return lanes;
}

void expect_reports_identical(const analytic::AnalyticReport& a,
                              const analytic::AnalyticReport& b) {
  // Bit-exact, not approximately equal.
  EXPECT_EQ(a.predicted_time, b.predicted_time);
  EXPECT_EQ(a.processes, b.processes);
  EXPECT_EQ(a.evaluated_elements, b.evaluated_elements);
  EXPECT_EQ(a.per_process_finish, b.per_process_finish);
  ASSERT_EQ(a.node_loads.size(), b.node_loads.size());
  for (std::size_t i = 0; i < a.node_loads.size(); ++i) {
    EXPECT_EQ(a.node_loads[i].utilization, b.node_loads[i].utilization) << i;
  }
}

TEST(AnalyticBatch, MatchesScalarLoopBitExactly) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const auto lanes = lane_grid();
  const auto batched = analyzer.evaluate_batch(lanes);
  ASSERT_EQ(batched.size(), lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    expect_reports_identical(batched[lane], analyzer.evaluate(lanes[lane]));
  }
}

TEST(AnalyticBatch, SpmdFastPathTakesOneBatchedWalk) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const auto lanes = lane_grid();
  obs::AnalyticCounters counters;
  std::size_t lanes_fallback = 0;
  const auto batched =
      analyzer.evaluate_batch(lanes, &counters, nullptr, &lanes_fallback);
  ASSERT_EQ(batched.size(), lanes.size());
  EXPECT_EQ(lanes_fallback, 0u);
  // Every lane finalized through the shared batched walk.
  EXPECT_EQ(counters.spmd_fast_path, lanes.size());
  EXPECT_GT(counters.expr.batch_evals, 0u);
}

/// Every lane of `lanes` batched: no fallback, each report bit-identical
/// to the scalar evaluate(), and the SPMD fast path taken for exactly as
/// many lanes as the scalar loop takes it.
void expect_batches_exactly(const uml::Model& model,
                            const std::vector<machine::SystemParameters>& lanes) {
  const analytic::AnalyticEstimator analyzer(model);
  obs::AnalyticCounters batch_counters;
  std::size_t lanes_fallback = 0;
  const auto batched = analyzer.evaluate_batch(lanes, &batch_counters, nullptr,
                                               &lanes_fallback);
  EXPECT_EQ(lanes_fallback, 0u);
  ASSERT_EQ(batched.size(), lanes.size());
  obs::AnalyticCounters scalar_counters;
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    SCOPED_TRACE(lane);
    expect_reports_identical(batched[lane],
                             analyzer.evaluate(lanes[lane], &scalar_counters));
  }
  EXPECT_EQ(batch_counters.spmd_fast_path, scalar_counters.spmd_fast_path);
  EXPECT_EQ(batch_counters.loop_collapses, scalar_counters.loop_collapses);
}

TEST(AnalyticBatch, ForkBranchesBatch) {
  uml::ModelBuilder mb("Fork");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef before = d.action("Before");
  before.cost("1e-3 * np");
  uml::NodeRef fork = d.fork();
  uml::NodeRef left = d.action("Left");
  left.cost("2e-3 * nn + 1e-4 * np");
  uml::NodeRef right = d.action("Right");
  right.cost("3e-3 * ppn");
  uml::NodeRef join = d.join();
  uml::NodeRef after = d.action("After");
  after.cost("1e-4");
  uml::NodeRef fin = d.final_node();
  d.flow(init, before);
  d.flow(before, fork);
  d.flow(fork, left);
  d.flow(fork, right);
  d.flow(left, join);
  d.flow(right, join);
  d.flow(join, after);
  d.flow(after, fin);
  expect_batches_exactly(std::move(mb).build(), lane_grid());
}

TEST(AnalyticBatch, ParallelRegionWithUniformThreadsBatches) {
  uml::ModelBuilder mb("Region");
  uml::StepBuilder(mb, "main")
      .compute("Serial", "1e-3 * np")
      .begin_spmd("Region", "nt")
      .omp_for("Loop", "100 * np", "1e-6 * nn", "dynamic", 7)
      .compute("PerThread", "1e-4 * tid + 1e-5 * ppn")
      .end_spmd()
      .done();
  std::vector<machine::SystemParameters> lanes = lane_grid();
  for (auto& lane : lanes) {
    lane.threads_per_process = 3;
  }
  expect_batches_exactly(std::move(mb).build(), lanes);
}

TEST(AnalyticBatch, CriticalSectionsBatch) {
  uml::ModelBuilder mb("Critical");
  uml::StepBuilder(mb, "main")
      .begin_loop("Outer", "4")
      .compute("Work", "1e-3 * np")
      .begin_critical("Update", "lock")
      .compute("Locked", "2e-4 * nn")
      .end_critical()
      .end_loop()
      .done();
  expect_batches_exactly(std::move(mb).build(), lane_grid());
}

TEST(AnalyticBatch, ProbabilisticDecisionsBatch) {
  // The guard reads np, but the analytic walk weights the arms by their
  // `prob` tags and never evaluates it, so the lanes cannot diverge.
  uml::ModelBuilder mb("Prob");
  uml::StepBuilder(mb, "main")
      .begin_branch()
      .when("np > 2", 0.3)
      .compute("Heavy", "4e-3 * np")
      .otherwise(0.7)
      .compute("Light", "1e-3 * nn")
      .end_branch()
      .done();
  expect_batches_exactly(std::move(mb).build(), lane_grid());
}

TEST(AnalyticBatch, CollapsedLoopsAbsorbLaneVaryingTripCounts) {
  // The body never reads its trip variable, so each lane's remaining
  // trips are its first trip times (its own count - 1).
  uml::ModelBuilder mb("Collapse");
  uml::StepBuilder(mb, "main")
      .begin_loop("Outer", "np + 1", "k")
      .compute("Body", "1e-4 * nn + 1e-5")
      .end_loop()
      .done();
  expect_batches_exactly(std::move(mb).build(), lane_grid());
}

TEST(AnalyticBatch, RankDependentSampleBatchesAcrossDifferentNp) {
  // @sample runs a code fragment and calls FSA2(pid): every pid has its
  // own walk.  Lanes of different np walk pids 0..np-1 together.
  std::vector<machine::SystemParameters> lanes;
  for (const int np : {3, 1, 8, 2, 8, 5}) {
    lanes.push_back(params_np(np, 1 + np % 3, 2));
  }
  expect_batches_exactly(prophet::models::sample_model(), lanes);
  // Every pid walks the same nodes, so a lane counts np walks' worth.
  const analytic::AnalyticEstimator analyzer(prophet::models::sample_model());
  const auto batched = analyzer.evaluate_batch(lanes);
  const std::uint64_t one_walk = analyzer.evaluate(params_np(1))
                                     .evaluated_elements;
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    EXPECT_EQ(batched[lane].evaluated_elements,
              one_walk * static_cast<std::uint64_t>(lanes[lane].processes))
        << lane;
  }
}

TEST(AnalyticBatch, RandomModelsBatch) {
  const prophet::models::Registry& registry =
      prophet::models::Registry::builtin();
  std::vector<machine::SystemParameters> lanes;
  for (const int np : {1, 2, 4, 8}) {
    lanes.push_back(params_np(np));
  }
  expect_batches_exactly(registry.make("@random"), lanes);
}

/// Batches `model` over `lanes`, expecting the whole block to fall back
/// to the one-lane walk and every report to match the scalar loop.
void expect_falls_back(const uml::Model& model,
                       const std::vector<machine::SystemParameters>& lanes) {
  const analytic::AnalyticEstimator analyzer(model);
  std::size_t lanes_fallback = 0;
  const auto batched =
      analyzer.evaluate_batch(lanes, nullptr, nullptr, &lanes_fallback);
  ASSERT_EQ(batched.size(), lanes.size());
  EXPECT_EQ(lanes_fallback, lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    expect_reports_identical(batched[lane], analyzer.evaluate(lanes[lane]));
  }
}

TEST(AnalyticBatch, DivergentModelsFallBackToScalarLanes) {
  // Lanes whose data take different paths cannot share one walk: the
  // block falls back, and the scalar loop produces the results
  // (bit-identical by construction; the fallback count reports it).
  std::vector<machine::SystemParameters> lanes;
  for (const int np : {1, 2, 4, 8}) {
    lanes.push_back(params_np(np));
  }
  {
    SCOPED_TRACE("guard on np");
    uml::ModelBuilder mb("Guard");
    uml::StepBuilder(mb, "main")
        .begin_branch()
        .when("np > 2")
        .compute("Wide", "2e-3")
        .otherwise()
        .compute("Narrow", "1e-3")
        .end_branch()
        .done();
    expect_falls_back(std::move(mb).build(), lanes);
  }
  {
    // The body reads its trip variable, so the loop cannot collapse,
    // and the lanes disagree on the trip count.
    SCOPED_TRACE("lane-varying trip count");
    uml::ModelBuilder mb("Trips");
    uml::StepBuilder(mb, "main")
        .begin_loop("Loop", "np + 1", "k")
        .compute("Trip", "1e-4 * (k + 1)")
        .end_loop()
        .done();
    expect_falls_back(std::move(mb).build(), lanes);
  }
}

TEST(AnalyticBatch, SingleLaneUsesTheScalarPath) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(8, 2, 1e-8));
  const std::vector<machine::SystemParameters> one = {params_np(4, 2, 2)};
  const auto batched = analyzer.evaluate_batch(one);
  ASSERT_EQ(batched.size(), 1u);
  expect_reports_identical(batched[0], analyzer.evaluate(one[0]));
}

TEST(AnalyticBatch, EmptySpanYieldsNoReports) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(8, 2, 1e-8));
  EXPECT_TRUE(analyzer.evaluate_batch({}).empty());
}

// --- PreparedModel::estimate_batch ------------------------------------------

TEST(AnalyticBatch, PreparedEstimateBatchMatchesScalarEstimates) {
  const prophet::uml::Model model = prophet::models::kernel6_model(64, 16, 1e-8);
  const analytic::AnalyticBackend backend;
  const auto prepared = backend.prepare(model);
  const auto lanes = lane_grid();
  const auto batched = prepared->estimate_batch(lanes);
  ASSERT_EQ(batched.size(), lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const auto scalar = prepared->estimate(lanes[lane]);
    EXPECT_EQ(batched[lane].predicted_time, scalar.predicted_time) << lane;
    EXPECT_EQ(batched[lane].processes, scalar.processes) << lane;
    EXPECT_EQ(batched[lane].per_process_finish, scalar.per_process_finish)
        << lane;
  }
}

TEST(AnalyticBatch, DefaultEstimateBatchIsTheScalarLoop) {
  // The simulation backend does not override estimate_batch: the base
  // implementation must loop estimate() and stay bit-identical to it.
  const prophet::uml::Model model = prophet::models::kernel6_model(8, 2, 1e-8);
  const analytic::SimulationBackend backend;
  const auto prepared = backend.prepare(model);
  const std::vector<machine::SystemParameters> lanes = {params_np(1),
                                                        params_np(2, 2, 1)};
  const auto batched = prepared->estimate_batch(lanes);
  ASSERT_EQ(batched.size(), lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const auto scalar = prepared->estimate(lanes[lane]);
    EXPECT_EQ(batched[lane].predicted_time, scalar.predicted_time) << lane;
    EXPECT_EQ(batched[lane].events, scalar.events) << lane;
  }
}

// --- Property: batched == scalar over random models --------------------------

/// `report` with every double as its bit pattern, so NaNs and signed
/// zeros compare exactly.
std::string fingerprint(const analytic::AnalyticReport& report) {
  const auto bits = [](double value) {
    return std::to_string(std::bit_cast<std::uint64_t>(value));
  };
  std::string text = bits(report.predicted_time) + " np" +
                     std::to_string(report.processes) + " el" +
                     std::to_string(report.evaluated_elements);
  for (const auto& [pid, finish] : report.per_process_finish) {
    text += " p" + std::to_string(pid) + "=" + bits(finish);
  }
  for (const auto& load : report.node_loads) {
    text += " n" + bits(load.compute_demand) + "/" + bits(load.utilization) +
            "/" + std::to_string(load.processes);
  }
  return text;
}

/// One lane's scalar outcome: the report's fingerprint, or the error
/// text that replaced it.
struct LaneOutcome {
  bool ok = false;
  std::string text;
};

TEST(AnalyticBatchProperty, RandomModelsMatchTheScalarLoopAtEveryWidth) {
  // Random models read pid, run code fragments and nest loops and
  // guard-resolved decisions, and their lanes never diverge.  Lanes vary
  // np, nt, nodes and ppn; in one seed of eight one lane is invalid, so
  // a chunk's error text is compared too, and only chunks holding it
  // fall back.  (Kept to a few seconds in Release: ASan builds run it
  // about 30x slower.)
  int compared = 0;
  for (const int size : {40, 400}) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      SCOPED_TRACE("size " + std::to_string(size) + " seed " +
                   std::to_string(seed));
      const analytic::AnalyticEstimator analyzer(
          prophet::models::random_model(seed, size));
      std::vector<machine::SystemParameters> lanes;
      for (std::uint64_t lane = 0; lane < 33; ++lane) {
        const auto pick = [&](std::uint64_t salt, std::uint64_t count) {
          return 1 + static_cast<int>((seed * 7919 + lane * 31 + salt * 17) %
                                      count);
        };
        machine::SystemParameters params =
            params_np(pick(1, 6), pick(2, 4), pick(3, 3));
        params.threads_per_process = pick(4, 3);
        lanes.push_back(params);
      }
      const std::size_t invalid = seed % 8 == 5 ? seed % lanes.size()
                                                : lanes.size();
      if (invalid < lanes.size()) {
        lanes[invalid].nodes = 0;
      }
      std::vector<LaneOutcome> scalar;
      for (const auto& params : lanes) {
        try {
          scalar.push_back({true, fingerprint(analyzer.evaluate(params))});
        } catch (const std::exception& error) {
          scalar.push_back({false, error.what()});
        }
      }
      for (const std::size_t width : {1, 2, 3, 8, 33}) {
        // The narrow widths chunk the first 16 lanes; 33 takes them all.
        const std::size_t span = width == 33 ? lanes.size() : 16;
        for (std::size_t first = 0; first < span; first += width) {
          const std::size_t count = std::min(width, span - first);
          // The scalar loop's outcome: every report, or the first error.
          std::vector<std::string> expected;
          for (std::size_t lane = first; lane < first + count; ++lane) {
            if (!scalar[lane].ok) {
              expected = {"error: " + scalar[lane].text};
              break;
            }
            expected.push_back(scalar[lane].text);
          }
          std::vector<std::string> batched;
          std::size_t lanes_fallback = 0;
          try {
            for (const auto& report : analyzer.evaluate_batch(
                     std::span(lanes).subspan(first, count), nullptr, nullptr,
                     &lanes_fallback)) {
              batched.push_back(fingerprint(report));
            }
          } catch (const std::exception& error) {
            batched = {std::string("error: ") + error.what()};
          }
          ASSERT_EQ(batched, expected)
              << "width " << width << ", lanes from " << first;
          const bool holds_invalid = invalid >= first && invalid < first + count;
          EXPECT_EQ(lanes_fallback, count > 1 && holds_invalid ? count : 0)
              << "width " << width << ", lanes from " << first;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 2 * 64 * (16 + 8 + 6 + 2 + 1));
}

}  // namespace
