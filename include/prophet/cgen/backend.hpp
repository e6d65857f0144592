// The codegen estimation backend: estimator::BackendKind::Codegen.
//
// prepare() completes the paper's transformation loop in-process: the
// shared lowering is emitted as a specialized C++ evaluator
// (emitter.hpp), compiled by the host toolchain into a shared object
// (toolchain.hpp, content-addressed cache) and dlopen'd; estimate()
// marshals machine::SystemParameters and the guard contract across the
// C ABI (abi.hpp) and maps results — including tripped limits — back
// onto the exact types the in-process backends produce.
//
// Semantics: the generated evaluator replays the interpreter's walk, so
// predictions are bit-identical to the simulation backend (the three-way
// differential suite pins this).  Known divergences, documented in
// docs/codegen.md: no event trace, no sim.* metrics, per-estimate (not
// job-cumulative) budget ledgers inside the shared object, and
// max_vm_instructions does not bind (there is no VM to count).
#pragma once

#include <memory>
#include <string_view>

#include "prophet/cgen/toolchain.hpp"
#include "prophet/estimator/backend.hpp"

namespace prophet::cgen {

/// Codegen backend configuration: toolchain resolution, cache location
/// and fault-injection observation for prepare()-time compiles.
struct CodegenOptions {
  ToolchainOptions toolchain;
};

/// A dlopen'd generated evaluator behind the PreparedModel contract.
/// Immutable after prepare(); estimate() marshals everything per call
/// (the shared object keeps its mutable state thread_local), so
/// concurrent estimates are race-free.
class CodegenPrepared final : public estimator::PreparedModel {
 public:
  CodegenPrepared(lower::ModelProgramPtr program,
                  const CodegenOptions& options);
  ~CodegenPrepared() override;

  CodegenPrepared(const CodegenPrepared&) = delete;
  CodegenPrepared& operator=(const CodegenPrepared&) = delete;

  [[nodiscard]] std::string_view backend_name() const override {
    return "codegen";
  }

  [[nodiscard]] estimator::PredictionReport estimate(
      const machine::SystemParameters& params,
      const estimator::EstimationOptions& options) const override;

  [[nodiscard]] lower::ModelProgramPtr lowering() const override;

  /// Wall seconds prepare() spent emitting + compiling + loading (the
  /// pipeline folds this into the codegen.prepare_seconds metric).
  [[nodiscard]] double prepare_seconds() const;

  /// True when the compile cache already held a loadable evaluator (the
  /// codegen.cache_hits metric).  A cached object that fails to load is
  /// evicted and compiled again, which counts as a miss.
  [[nodiscard]] bool cache_hit() const;

  /// The cached shared object backing this handle (for tests/tools).
  [[nodiscard]] const std::string& object_path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The codegen backend.  prepare() throws CgenError when emission,
/// the toolchain (including "no usable compiler") or loading fails —
/// a structured, per-model error that leaves other models unaffected.
class CodegenBackend final : public estimator::Backend {
 public:
  using estimator::Backend::prepare;

  CodegenBackend() = default;
  explicit CodegenBackend(CodegenOptions options)
      : options_(std::move(options)) {}

  [[nodiscard]] std::string_view name() const override { return "codegen"; }

  [[nodiscard]] std::unique_ptr<estimator::PreparedModel> prepare(
      lower::ModelProgramPtr program) const override;

 private:
  CodegenOptions options_;
};

/// Factory over every single-engine kind: Simulation and Analytic
/// delegate to analytic::make_backend, Codegen constructs a
/// CodegenBackend with `options`.  Cross-validating kinds throw
/// std::invalid_argument (they select several backends, not one).
[[nodiscard]] std::unique_ptr<estimator::Backend> make_backend(
    estimator::BackendKind kind, CodegenOptions options = {});

}  // namespace prophet::cgen
