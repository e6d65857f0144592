// Batched sweep evaluation (BatchOptions::batch_lanes): scalar and
// batched runs must be bit-identical on every deterministic CSV column,
// for every registered model, at several lane widths and thread counts;
// chunking must respect the eligibility rules (isolation, per-job
// limits, fault plans all fall back to singleton jobs); and the batch
// observability signals must fire.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "prophet/estimator/backend.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/pipeline/batch.hpp"

namespace {

using prophet::estimator::BackendKind;
using prophet::pipeline::BatchOptions;
using prophet::pipeline::BatchReport;
using prophet::pipeline::BatchRunner;
using prophet::pipeline::ScenarioGrid;

/// Runs every registered model over its suggested grid with the given
/// lane width and thread count.
BatchReport run_registry_sweep(int batch_lanes, int threads,
                               BackendKind backend = BackendKind::Analytic,
                               bool isolate = false) {
  BatchOptions options;
  options.threads = threads;
  options.batch_lanes = batch_lanes;
  options.backend = backend;
  options.run_codegen = false;
  options.isolate_jobs = isolate;
  BatchRunner runner(options);
  const auto& registry = prophet::models::Registry::builtin();
  for (const auto& name : registry.names()) {
    const int index = runner.add_model_reference("@" + name);
    const auto& info = registry.at(name);
    runner.add_sweep(index,
                     ScenarioGrid::parse(info.default_grid,
                                         info.default_params));
  }
  return runner.run();
}

/// The deterministic prefix of each CSV row: columns 1-17
/// (job..generated_bytes), everything before the host-time and
/// error-detail columns.
std::vector<std::string> deterministic_rows(const BatchReport& report) {
  std::vector<std::string> rows;
  std::istringstream csv(report.to_csv());
  std::string line;
  while (std::getline(csv, line)) {
    std::size_t at = 0;
    for (int field = 0; field < 17 && at != std::string::npos; ++field) {
      at = line.find(',', at + 1);
    }
    rows.push_back(line.substr(0, at == std::string::npos ? line.size() : at));
  }
  return rows;
}

TEST(BatchLanes, FullRegistryCsvIsBitIdenticalAcrossLaneWidthsAndThreads) {
  const auto reference = deterministic_rows(run_registry_sweep(1, 1));
  ASSERT_GT(reference.size(), 1u);
  for (const int threads : {1, 4}) {
    for (const int lanes : {1, 4, 8}) {
      const auto rows = deterministic_rows(run_registry_sweep(lanes, threads));
      ASSERT_EQ(rows.size(), reference.size())
          << "lanes " << lanes << " threads " << threads;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i], reference[i])
            << "row " << i << " lanes " << lanes << " threads " << threads;
      }
    }
  }
}

TEST(BatchLanes, CrossValidatingSweepsStayBitIdentical) {
  // Chunks run every selected engine through the batched stage; the
  // reference/candidate bookkeeping must match the singleton path.
  const auto reference =
      deterministic_rows(run_registry_sweep(1, 1, BackendKind::Both));
  const auto batched =
      deterministic_rows(run_registry_sweep(8, 2, BackendKind::Both));
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], reference[i]) << "row " << i;
  }
}

TEST(BatchLanes, IsolatedRunsIgnoreLaneWidth) {
  // --isolate re-runs the whole pipeline per job; batching would reuse
  // the compiled-model cache, so it must silently stand down.
  const auto reference = deterministic_rows(
      run_registry_sweep(1, 1, BackendKind::Analytic, true));
  const auto batched = deterministic_rows(
      run_registry_sweep(8, 1, BackendKind::Analytic, true));
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], reference[i]) << "row " << i;
  }
}

TEST(BatchLanes, MetricsReportBatchWidthAndBatchedEvals) {
  BatchOptions options;
  options.threads = 1;
  options.batch_lanes = 8;
  options.backend = BackendKind::Analytic;
  options.run_codegen = false;
  options.collect_metrics = true;
  BatchRunner runner(options);
  const int index = runner.add_model_reference("@kernel6");
  runner.add_sweep(index, ScenarioGrid::parse("np=1..16 nodes=1,2"));
  const BatchReport report = runner.run();
  for (const auto& result : report.results) {
    ASSERT_TRUE(result.ok) << result.error;
  }
  // The vectorized VM actually ran...
  EXPECT_GT(report.metrics.counter_value("expr.batch_evals"), 0u);
  // ...and the configured lane width is visible.
  EXPECT_EQ(report.metrics.gauge_value("expr.batch_width"), 8.0);
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(BatchLanes, OnlyAnalyticSweepsFormChunks) {
  // Only the analytic estimator has a vectorized estimate_batch; the
  // simulator's is the scalar loop, so a chunk would only split one
  // wall time over its jobs.  Sim-only sweeps estimate job by job.
  const auto traced_sweep = [](BackendKind backend) {
    BatchOptions options;
    options.threads = 1;
    options.backend = backend;
    options.run_codegen = false;
    options.collect_metrics = true;
    options.collect_trace = true;
    BatchRunner runner(options);
    const int index = runner.add_model_reference("@kernel6");
    runner.add_sweep(index, ScenarioGrid::parse("np=1..16"));
    return runner.run();
  };
  const std::string estimate_span = R"("cat":"host.estimate")";

  const BatchReport sim = traced_sweep(BackendKind::Simulation);
  ASSERT_EQ(sim.results.size(), 16u);
  for (const auto& result : sim.results) {
    ASSERT_TRUE(result.ok) << result.error;
  }
  EXPECT_EQ(count_of(sim.trace.to_chrome_json(), estimate_span), 16u);
  EXPECT_EQ(sim.metrics.to_json().find("expr.batch_width"),
            std::string::npos);

  // The analytic sweep of the same grid still chunks: 16 jobs in two
  // chunks of 8 lanes.
  const BatchReport analytic = traced_sweep(BackendKind::Analytic);
  for (const auto& result : analytic.results) {
    ASSERT_TRUE(result.ok) << result.error;
  }
  EXPECT_EQ(count_of(analytic.trace.to_chrome_json(), estimate_span), 2u);
  EXPECT_EQ(analytic.metrics.gauge_value("expr.batch_width"), 8.0);
}

TEST(BatchLanes, PerJobLimitsDisableChunking) {
  // Per-job guard budgets need per-job attribution (tripped_limit per
  // lane), so active limits force the singleton path — and results stay
  // identical to an unlimited run when nothing trips.
  BatchOptions base;
  base.threads = 1;
  base.backend = BackendKind::Analytic;
  base.run_codegen = false;

  BatchOptions limited = base;
  limited.batch_lanes = 8;
  limited.limits.max_vm_instructions = 100000000;  // generous: never trips

  auto make_runner = [](const BatchOptions& options) {
    BatchRunner runner(options);
    const int index = runner.add_model_reference("@kernel6");
    runner.add_sweep(index, ScenarioGrid::parse("np=1..8"));
    return runner;
  };
  const BatchReport plain = make_runner(base).run();
  const BatchReport guarded = make_runner(limited).run();
  ASSERT_EQ(plain.results.size(), guarded.results.size());
  for (std::size_t i = 0; i < plain.results.size(); ++i) {
    EXPECT_EQ(plain.results[i].ok, guarded.results[i].ok);
    EXPECT_EQ(plain.results[i].predicted_time,
              guarded.results[i].predicted_time);
    EXPECT_TRUE(guarded.results[i].tripped_limit.empty());
  }
}

}  // namespace
