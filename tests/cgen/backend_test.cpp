// The codegen backend behind the PreparedModel contract: bit-identical
// predictions against the simulator, shared non-null lowering, compile
// cache reuse across prepares, recompilation of corrupt cached objects,
// race-free concurrent estimates, the guard contract (structured limit
// trips), and the single-engine factory.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/uml/builder.hpp"

namespace cgen = prophet::cgen;
namespace estimator = prophet::estimator;
namespace guard = prophet::guard;

namespace {

prophet::machine::SystemParameters sp(int np, int nodes = 1, int ppn = 1) {
  prophet::machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  params.processors_per_node = ppn;
  return params;
}

estimator::EstimationOptions no_trace() {
  estimator::EstimationOptions options;
  options.collect_trace = false;
  return options;
}

/// EXPECT the two reports carry bit-for-bit identical numbers.
void expect_bit_identical(const estimator::PredictionReport& reference,
                          const estimator::PredictionReport& candidate) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.predicted_time),
            std::bit_cast<std::uint64_t>(candidate.predicted_time))
      << "sim " << reference.predicted_time << " vs codegen "
      << candidate.predicted_time;
  EXPECT_EQ(reference.events, candidate.events);
  EXPECT_EQ(reference.processes, candidate.processes);
  ASSERT_EQ(reference.per_process_finish.size(),
            candidate.per_process_finish.size());
  for (const auto& [pid, finish] : reference.per_process_finish) {
    const auto at = candidate.per_process_finish.find(pid);
    ASSERT_NE(at, candidate.per_process_finish.end()) << "pid " << pid;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(finish),
              std::bit_cast<std::uint64_t>(at->second))
        << "pid " << pid;
  }
}

TEST(CodegenBackend, BitIdenticalToTheSimulator) {
  const auto model = prophet::models::kernel6_detailed_model(32, 4, 1e-8);
  const auto program = prophet::lower::lower(model);
  const auto prepared = cgen::CodegenBackend().prepare(program);
  const auto sim = prophet::analytic::SimulationBackend().prepare(program);
  for (const int np : {1, 2, 4}) {
    expect_bit_identical(sim->estimate(sp(np), no_trace()),
                         prepared->estimate(sp(np), no_trace()));
  }
}

TEST(CodegenBackend, SharedNodeIdFollowsTheFirstHolderLikeTheSimulator) {
  // Two nodes hold B's id.  Every walker resolves an edge into that id
  // to the first of them (ActivityDiagram::node()), so the generated
  // evaluator must jump to B's action, not to the twin final node.
  prophet::uml::ModelBuilder mb("SharedId");
  prophet::uml::DiagramBuilder d = mb.diagram("main");
  prophet::uml::NodeRef init = d.initial();
  prophet::uml::NodeRef a = d.action("A");
  a.time(1.0);
  prophet::uml::NodeRef b = d.action("B");
  b.time(2.0);
  prophet::uml::NodeRef fin = d.final_node();
  d.sequence({init, a, b, fin});
  prophet::uml::Model model = std::move(mb).build();
  model.diagram(d.id())->add_node(std::make_unique<prophet::uml::Node>(
      b.id(), "Twin", prophet::uml::NodeKind::Final));
  const auto program = prophet::lower::lower(model);
  const auto sim = prophet::analytic::SimulationBackend().prepare(program);
  const auto prepared = cgen::CodegenBackend().prepare(program);
  const auto reference = sim->estimate(sp(1), no_trace());
  EXPECT_EQ(reference.predicted_time, 3.0);
  expect_bit_identical(reference, prepared->estimate(sp(1), no_trace()));
}

TEST(CodegenBackend, SharesTheLoweringItWasPreparedFrom) {
  const auto program = prophet::lower::lower(prophet::models::sample_model());
  const auto prepared = cgen::CodegenBackend().prepare(program);
  ASSERT_NE(prepared->lowering(), nullptr);
  EXPECT_EQ(prepared->lowering().get(), program.get());
  EXPECT_EQ(prepared->backend_name(), "codegen");
}

TEST(CodegenBackend, SecondPrepareHitsTheCompileCache) {
  cgen::CodegenOptions options;
  options.toolchain.cache_dir =
      ::testing::TempDir() + "/cgen-backend-cache-test";
  // TempDir() persists across runs; the first prepare must be cold.
  std::filesystem::remove_all(options.toolchain.cache_dir);
  const cgen::CodegenBackend backend(options);
  const auto program = prophet::lower::lower(prophet::models::sample_model());

  const auto first = backend.prepare(program);
  const auto* cold = dynamic_cast<const cgen::CodegenPrepared*>(first.get());
  ASSERT_NE(cold, nullptr);
  EXPECT_FALSE(cold->cache_hit());
  EXPECT_GT(cold->prepare_seconds(), 0.0);
  EXPECT_TRUE(std::ifstream(cold->object_path()).good())
      << cold->object_path();

  const auto second = backend.prepare(program);
  const auto* warm = dynamic_cast<const cgen::CodegenPrepared*>(second.get());
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->cache_hit());
  EXPECT_EQ(warm->object_path(), cold->object_path());
  // Both handles stay independently usable.
  expect_bit_identical(first->estimate(sp(2), no_trace()),
                       second->estimate(sp(2), no_trace()));
}

TEST(CodegenBackend, CorruptCachedObjectIsRecompiled) {
  // Learn the object's cache file name (content-addressed: the same in
  // every cache directory) and bytes from one cold compile.
  const auto program = prophet::lower::lower(prophet::models::sample_model());
  cgen::CodegenOptions options;
  options.toolchain.cache_dir =
      ::testing::TempDir() + "/cgen-backend-corrupt-reference";
  std::filesystem::remove_all(options.toolchain.cache_dir);
  std::string name;
  std::string bytes;
  {
    const auto reference = cgen::CodegenBackend(options).prepare(program);
    const auto& prepared =
        dynamic_cast<const cgen::CodegenPrepared&>(*reference);
    name = std::filesystem::path(prepared.object_path()).filename().string();
    std::ifstream in(prepared.object_path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 4096u);
  const auto sim = prophet::analytic::SimulationBackend().prepare(program);

  const std::pair<const char*, std::string> plants[] = {
      {"garbage", "not an ELF object\n"},
      {"truncated-header", bytes.substr(0, 64)},
      {"truncated-half", bytes.substr(0, bytes.size() / 2)},
  };
  for (const auto& [label, content] : plants) {
    SCOPED_TRACE(label);
    options.toolchain.cache_dir =
        ::testing::TempDir() + "/cgen-backend-corrupt-" + label;
    std::filesystem::remove_all(options.toolchain.cache_dir);
    std::filesystem::create_directories(options.toolchain.cache_dir);
    std::ofstream(options.toolchain.cache_dir + "/" + name,
                  std::ios::binary)
        << content;

    const cgen::CodegenBackend backend(options);
    const auto healed = backend.prepare(program);
    const auto& prepared = dynamic_cast<const cgen::CodegenPrepared&>(*healed);
    EXPECT_FALSE(prepared.cache_hit());
    EXPECT_EQ(std::filesystem::path(prepared.object_path()).filename(), name);
    for (const int np : {1, 2, 4}) {
      expect_bit_identical(sim->estimate(sp(np), no_trace()),
                           healed->estimate(sp(np), no_trace()));
    }
    // The recompiled object replaced the planted one.
    const auto again = backend.prepare(program);
    EXPECT_TRUE(
        dynamic_cast<const cgen::CodegenPrepared&>(*again).cache_hit());
  }
}

TEST(CodegenBackend, ConcurrentEstimatesAreRaceFree) {
  const auto program = prophet::lower::lower(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const auto prepared = cgen::CodegenBackend().prepare(program);
  const auto expected = prepared->estimate(sp(4, 2, 2), no_trace());

  std::vector<estimator::PredictionReport> reports(8);
  std::vector<std::thread> threads;
  threads.reserve(reports.size());
  for (auto& report : reports) {
    threads.emplace_back([&prepared, &report] {
      report = prepared->estimate(sp(4, 2, 2), no_trace());
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& report : reports) {
    expect_bit_identical(expected, report);
  }
}

TEST(CodegenBackend, LoopTripLimitTripsStructured) {
  const auto program =
      prophet::lower::lower(prophet::models::spin_model(1e6));
  const auto prepared = cgen::CodegenBackend().prepare(program);
  auto options = no_trace();
  options.limits.max_loop_trips = 100;
  try {
    (void)prepared->estimate(sp(1), options);
    FAIL() << "expected ResourceExhausted";
  } catch (const guard::ResourceExhausted& tripped) {
    EXPECT_EQ(tripped.limit(), guard::LimitKind::LoopTrips);
    EXPECT_EQ(tripped.stage(), "cgen-loop");
    EXPECT_GE(tripped.usage().loop_trips, 100u);
  }
}

TEST(CodegenBackend, SimEventLimitTripsStructured) {
  const auto program =
      prophet::lower::lower(prophet::models::spin_model(1e6));
  const auto prepared = cgen::CodegenBackend().prepare(program);
  auto options = no_trace();
  options.limits.max_sim_events = 50;
  EXPECT_THROW((void)prepared->estimate(sp(1), options),
               guard::ResourceExhausted);
}

TEST(CodegenBackend, UnlimitedEstimateMatchesLimitedBelowTheBound) {
  // The guard contract: enforcing generous limits must not perturb the
  // prediction by a single bit.
  const auto program = prophet::lower::lower(prophet::models::sample_model());
  const auto prepared = cgen::CodegenBackend().prepare(program);
  const auto plain = prepared->estimate(sp(2), no_trace());
  auto options = no_trace();
  options.limits.max_sim_events = 1000000;
  options.limits.max_loop_trips = 1000000;
  expect_bit_identical(plain, prepared->estimate(sp(2), options));
}

TEST(CodegenBackend, FactoryCoversEverySingleEngine) {
  EXPECT_EQ(cgen::make_backend(estimator::BackendKind::Simulation)->name(),
            "sim");
  EXPECT_EQ(cgen::make_backend(estimator::BackendKind::Analytic)->name(),
            "analytic");
  EXPECT_EQ(cgen::make_backend(estimator::BackendKind::Codegen)->name(),
            "codegen");
  // Cross-validating kinds select several engines — not a single
  // backend the factory could return.
  EXPECT_THROW((void)cgen::make_backend(estimator::BackendKind::Both),
               std::invalid_argument);
  EXPECT_THROW((void)cgen::make_backend(estimator::BackendKind::All),
               std::invalid_argument);
}

}  // namespace
