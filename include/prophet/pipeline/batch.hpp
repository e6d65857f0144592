// Batch scenario sweeps — the pipeline of Fig. 2, prepared once per
// model and evaluated many times over.
//
// The BatchRunner stores sweeps of (model, SystemParameters) scenarios
// and fans their jobs out over a worker-thread pool, which derives each
// job from its id as it claims it.  By default it runs the
// per-model half of the chain — XMI parse, model check, UML -> C++
// transformation, Backend::prepare — exactly once per registered model
// (the compiled-model cache), shares the immutable result read-only
// across the pool, and turns each job into a parameter-only evaluation.
// That is the source paper's own structure: the transformation is
// automatic and per-model, only the estimation depends on the system
// parameters.
//
// BatchOptions::isolate_jobs restores PR 1's fully isolated semantics:
// every job re-parses its own uml::Model from the registered XMI text
// and re-runs the whole chain.  Both modes produce bit-identical
// predictions at any thread count — cached mode evaluates the same
// parsed model through the same engines, just without re-deriving it per
// job — and in both modes one failing model cannot poison the batch.
// Each job also carries a seed derived from the batch base seed; the
// current evaluation path draws no random numbers, so the seed is
// recorded in the results as reserved job identity for future
// stochastic model workloads (sim::Rng).
//
//   pipeline::BatchRunner runner;
//   const int m = runner.add_model("sample", prophet::models::sample_model());
//   runner.add_sweep(m, pipeline::ScenarioGrid::parse("np=1..8:*2"));
//   const auto report = runner.run();
//   report.summary();  // per-scenario predictions + aggregate stats
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "prophet/estimator/backend.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/machine/machine.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/uml/model.hpp"

/// Batch scenario sweeps: grids, the worker pool and result aggregation.
namespace prophet::pipeline {

/// One unit of work: a registered model evaluated under one parameter
/// configuration with one RNG seed.
struct BatchJob {
  /// Dense id in assignment order; results keep this order.
  int id = 0;
  /// Index into the runner's registered models.
  int model_index = 0;
  /// Display name of the referenced model.
  std::string model_name;
  /// The scenario's system parameters.
  machine::SystemParameters params;
  /// Derived from BatchOptions::base_seed and id; reserved for stochastic
  /// workloads (the current evaluation path is deterministic).
  std::uint64_t seed = 0;
};

/// Outcome of one job.  `ok` is false when any pipeline stage failed; the
/// remaining fields are valid only when it is true.
struct ScenarioResult {
  /// Id of the job this result answers.
  int job_id = 0;
  /// Index of the evaluated model.
  int model_index = 0;
  /// Display name of the evaluated model.
  std::string model_name;
  /// The scenario's system parameters.
  machine::SystemParameters params;
  /// The job's derived RNG seed.
  std::uint64_t seed = 0;

  /// True when every pipeline stage succeeded.
  bool ok = false;
  /// Stage-prefixed failure message, e.g. "check: 2 error(s)".
  std::string error;
  /// Name of the guard bound that failed the job — "wall_clock",
  /// "sim_events", "vm_instructions", "replay_events", "loop_trips", or
  /// "cancelled" — empty for successes and non-guard failures.
  std::string tripped_limit;

  /// Which backend(s) evaluated the job.  Cross-validating kinds (Both,
  /// SimCodegen, AnalyticCodegen, All) put the reference engine's
  /// prediction in `predicted_time`, each candidate's in its own field,
  /// and the worst candidate-vs-reference deviation in `relative_error`.
  estimator::BackendKind backend = estimator::BackendKind::Simulation;
  /// Predicted seconds (makespan) of the reference engine.
  double predicted_time = 0;
  /// The analytic prediction; valid whenever the analytic engine ran.
  double analytic_predicted = 0;
  /// The generated-code prediction; valid whenever the codegen engine
  /// ran (bit-identical to the simulator's by contract).
  double codegen_predicted = 0;
  /// Worst |candidate - reference| / reference across the candidates;
  /// valid for cross-validating kinds.
  double relative_error = 0;
  /// Engine events processed (simulation and codegen engines).
  std::uint64_t events = 0;
  /// Number of modeled processes.
  int processes = 0;
  /// Checker findings (errors fail the job).
  std::size_t check_warnings = 0;
  /// Size of the generated C++ (when codegen is on).
  std::size_t generated_bytes = 0;
  /// Host time this job took.
  double wall_seconds = 0;

  /// \name Per-stage host times (seconds)
  /// In cached runs parse/check/transform happen once per model during
  /// the batch prepare phase (BatchReport::prepare_seconds), so those
  /// three stay 0 per job and estimate_seconds ~= wall_seconds (the
  /// batch.*_seconds timers count the one-time cost); in isolated runs
  /// every stage is paid — and visible — per job.
  ///@{
  double parse_seconds = 0;      ///< XMI parse time.
  double check_seconds = 0;      ///< Model-check time.
  double transform_seconds = 0;  ///< UML -> C++ transformation time.
  double estimate_seconds = 0;   ///< Backend evaluation time.
  ///@}
};

/// Aggregate statistics over the successful results of a batch.
struct BatchStats {
  std::size_t total = 0;         ///< Number of jobs in the batch.
  std::size_t ok = 0;            ///< Jobs whose every stage succeeded.
  std::size_t failed = 0;        ///< Jobs with a failed stage.
  std::size_t timed_out = 0;     ///< Failed jobs that tripped a wall clock.
  std::size_t cancelled = 0;     ///< Failed jobs that were cancelled.
  double min_predicted = 0;      ///< Smallest successful prediction.
  double max_predicted = 0;      ///< Largest successful prediction.
  double mean_predicted = 0;     ///< Mean successful prediction.
  std::uint64_t total_events = 0;  ///< Engine events across all jobs.
  double total_job_seconds = 0;  ///< Sum of per-job wall times.
  /// \name Cross-validation (jobs run with a cross-validating kind)
  ///@{
  std::size_t compared = 0;      ///< Jobs carrying a relative error.
  double max_rel_error = 0;      ///< Worst candidate-vs-reference deviation.
  double mean_rel_error = 0;     ///< Mean candidate-vs-reference deviation.
  ///@}
};

/// Receives streamed report text (BatchReport::write_summary/write_csv,
/// BatchOptions::csv_sink), one buffer's worth at a time, in order.
using TextSink = std::function<void(std::string_view)>;

/// The jobs of a batch — registered sweeps and scenarios, from which
/// each job's identity is derived on demand; defined in the
/// implementation.
struct JobList;

/// The per-job outcomes of a batch, stored by column: one array per
/// numeric field, the error and tripped-limit texts in a sparse side
/// table keyed by row, and each job's identity (id, model, parameters,
/// seed) derived from the sweep definition instead of stored per row.
/// Rows read back as ScenarioResult values, ordered by job id.
class ResultTable {
 public:
  /// Reads the rows in order.  Each dereference yields the current row,
  /// which stays valid until the iterator moves.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;  ///< Single pass.
    using value_type = ScenarioResult;                   ///< One row.
    using difference_type = std::ptrdiff_t;              ///< Row distance.
    using pointer = const ScenarioResult*;               ///< To the row.
    using reference = const ScenarioResult&;             ///< To the row.

    /// A singular iterator.
    const_iterator() = default;
    /// The current row.
    reference operator*() const { return row_; }
    /// The current row's members.
    pointer operator->() const { return &row_; }
    /// Moves to the next row.
    const_iterator& operator++();
    /// Moves to the next row.
    void operator++(int) { ++*this; }
    /// True when both stand at the same row.
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    friend class ResultTable;
    const_iterator(const ResultTable* table, std::size_t index);

    const ResultTable* table_ = nullptr;
    std::size_t index_ = 0;
    ScenarioResult row_;
  };

  /// Number of rows.
  [[nodiscard]] std::size_t size() const { return ok_.size(); }
  /// Row `row` as a value.
  [[nodiscard]] ScenarioResult operator[](std::size_t row) const;
  /// The first row.
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  /// Past the last row.
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  /// Appends one row (hand-built reports).
  void push_back(const ScenarioResult& result);
  /// Replaces the rows.
  ResultTable& operator=(std::initializer_list<ScenarioResult> rows);

 private:
  friend class BatchRunner;
  friend struct BatchReport;

  /// Failure texts of one row.
  struct Failure {
    std::size_t row = 0;
    std::string error;
    std::string tripped_limit;
  };

  /// Sizes every column for `rows` rows of `jobs`.
  void reset(std::shared_ptr<JobList> jobs, std::size_t rows);
  /// Writes the numeric fields of `result` into row `row`.
  void store(std::size_t row, const ScenarioResult& result);
  /// Reads row `row`; `failure` is the row's side-table entry or null.
  void read(std::size_t row, const Failure* failure,
            ScenarioResult* out) const;
  /// The side-table entry of `row`, or null.
  [[nodiscard]] const Failure* failure_of(std::size_t row) const;
  /// Streams every row's CSV (`csv`) or summary line into `sink`.
  void stream_rows(bool csv, const TextSink& sink) const;

  std::shared_ptr<JobList> jobs_;
  std::vector<std::uint8_t> ok_;
  std::vector<estimator::BackendKind> backend_;
  std::vector<int> processes_;
  /// events, check_warnings, generated_bytes.
  std::array<std::vector<std::uint64_t>, 3> counts_;
  /// The predictions, relative_error and the host times, in
  /// ScenarioResult order.
  std::array<std::vector<double>, 9> doubles_;
  /// Sorted by row.
  std::vector<Failure> failures_;
};

/// The collected outcome of one BatchRunner::run().
struct BatchReport {
  /// Per-scenario outcomes, ordered by job id.
  ResultTable results;
  /// Worker threads the batch actually used.
  int threads_used = 1;
  /// Host time from the start of the prepare phase to the last job's
  /// completion.
  double wall_seconds = 0;
  /// Compiled-model cache (cached runs only): how many models made it
  /// through the whole compile chain — parse, check, transform,
  /// Backend::prepare.  Zero in isolated runs.
  int models_prepared = 0;
  /// One-time prepare-phase host time; includes models whose compile
  /// failed.  Zero in isolated runs.
  double prepare_seconds = 0;
  /// The batch metric document: batch.* counts/timers derived from the
  /// results (always), lower.* lowering stats (cached runs) and engine
  /// counters — expr.*, sim.*, analytic.* — when the run had
  /// BatchOptions::collect_metrics on.  summary() formats its aggregate
  /// line from this registry, so the printed counts and the exported
  /// JSON (`--metrics`) can never disagree.
  obs::Registry metrics;
  /// Host worker spans (and one representative simulated timeline per
  /// model); populated when BatchOptions::collect_trace is on.
  obs::TraceLog trace;

  [[nodiscard]] BatchStats stats() const;

  /// Wall-clock throughput of the whole batch.
  [[nodiscard]] double jobs_per_second() const;

  /// The batch.* cells of `metrics`, re-derived from the results — what
  /// run() merges into `metrics`, exposed so hand-built reports (tests)
  /// can populate theirs the same way.
  [[nodiscard]] obs::Registry derived_metrics() const;

  /// Human-readable table: one line per scenario plus the aggregate
  /// (read from `metrics`).  Seconds print as `%.6f`.
  [[nodiscard]] std::string summary() const;

  /// Streams summary() into `sink`, so the whole document is never held
  /// in memory.
  void write_summary(const TextSink& sink) const;

  /// Machine-readable CSV (header + one row per scenario).  Doubles are
  /// written in shortest round-trip form: each parses back to the same
  /// bits, so diffs of the deterministic columns compare bits.
  [[nodiscard]] std::string to_csv() const;

  /// Streams to_csv() into `sink`, so the whole document is never held
  /// in memory.
  void write_csv(const TextSink& sink) const;
};

/// One progress heartbeat of a running batch (BatchOptions::on_progress).
struct BatchProgress {
  std::size_t done = 0;        ///< Jobs finished so far.
  std::size_t total = 0;       ///< Jobs in the batch.
  double elapsed_seconds = 0;  ///< Since run() started.
  double jobs_per_second = 0;  ///< done / elapsed.
  double eta_seconds = 0;      ///< (total - done) / jobs_per_second.
  /// Worst analytic-vs-sim deviation over the finished both-mode jobs
  /// (0 until one finishes).
  double worst_rel_error = 0;
  /// True for the one guaranteed callback after the last job.
  bool final = false;
};

/// Knobs for one batch run.
struct BatchOptions {
  /// Worker threads; <= 0 uses std::thread::hardware_concurrency().
  int threads = 0;
  /// Model-check each job; checker errors fail the job.
  bool run_checker = true;
  /// Run the UML -> C++ transformation per job.
  bool run_codegen = true;
  /// Evaluation engine(s) per job: any single engine (simulation — the
  /// paper's estimator —, analytic, codegen) or a cross-validating
  /// selection (both, sim+codegen, analytic+codegen, all) that runs
  /// several engines and records the worst candidate-vs-reference
  /// relative error per scenario (estimator::BackendSet).
  estimator::BackendKind backend = estimator::BackendKind::Simulation;
  /// Base of the per-job seed derivation (see derive_seed).
  std::uint64_t base_seed = 0x9e3779b97f4a7c15ULL;
  /// false (default): compile each referenced model once — XMI parse,
  /// check, transform, Backend::prepare — and share the immutable result
  /// read-only across the worker pool; jobs are parameter-only
  /// evaluations.  true: every job re-runs the whole chain on its own
  /// model copy (PR 1's isolation semantics — the escape hatch for
  /// workloads that want per-job fault containment of the pipeline
  /// stages themselves).  Predictions are bit-identical either way.
  bool isolate_jobs = false;
  /// Lane width for batched estimation (cached runs): workers claim
  /// chunks of up to this many consecutive same-model jobs and evaluate
  /// each through one PreparedModel::estimate_batch call — one batched
  /// analytic walk instead of N scalar ones.  0 picks the default width
  /// (8); 1 disables batching.  Batching engages only when the analytic
  /// estimator is selected (the other backends' estimate_batch is the
  /// scalar loop) and only on the unlimited fast path (cached mode, no
  /// per-job limits or timeout, no fault plan); otherwise jobs are
  /// claimed one at a time.  A chunk that fails or is cancelled falls
  /// back to per-job evaluation (counted in `batch.lanes_fallback`), so
  /// per-job error isolation, budgets and tripped_limit reporting are
  /// unchanged.  Predictions are bit-identical at any lane width.
  int batch_lanes = 0;
  /// When set, run() streams the CSV document — byte-identical to the
  /// report's to_csv() — into this sink while the jobs run: workers
  /// render their chunks' rows and one writer thread emits them in job
  /// order, holding at most a bounded window of chunks that finished
  /// ahead of an unfinished one.  Every job gets its row, also in a
  /// sweep cut short by its deadline or cancellation.  What the sink
  /// throws ends the stream and is rethrown by run() once the jobs are
  /// done.
  TextSink csv_sink = nullptr;
  /// Collect engine counters (expr.*, sim.*, analytic.*, lower.*) into
  /// BatchReport::metrics.  Each worker counts into its own registry and
  /// the registries are merged after the pool joins, so the hot path
  /// never synchronizes.  Predictions are bit-identical either way.
  bool collect_metrics = false;
  /// Record host spans — per-model compile stages and per-job estimates,
  /// one lane per worker thread — plus one representative simulated
  /// timeline per model (sim/both backends) into BatchReport::trace.
  /// Predictions are bit-identical either way.
  bool collect_trace = false;
  /// Progress heartbeat, called from a monitor thread roughly every
  /// `progress_interval_seconds` while jobs run, plus one guaranteed
  /// final call after the last job.  The callback must be thread-safe
  /// with respect to the caller; it never runs concurrently with itself.
  std::function<void(const BatchProgress&)> on_progress = nullptr;
  /// Heartbeat period in seconds (used only when on_progress is set).
  double progress_interval_seconds = 0.5;
  /// Per-job resource limits (guard::Limits).  A job that trips a bound
  /// is marked failed with ScenarioResult::tripped_limit naming it; the
  /// rest of the sweep completes.  Default bounds nothing and the
  /// evaluation path stays bit-identical.
  guard::Limits limits;
  /// Per-job wall-clock timeout in seconds (0: none).  Composed with
  /// `limits.wall_seconds` — the tighter bound wins.  Timed-out jobs
  /// count into the `batch.jobs_timed_out` metric.
  double job_timeout_seconds = 0;
  /// Whole-sweep deadline in seconds measured from run() (0: none).
  /// When it passes, running jobs are cancelled cooperatively, unclaimed
  /// jobs are marked failed, and the report — partial CSV, metrics, the
  /// guaranteed final progress callback — is still produced.
  double deadline_seconds = 0;
  /// Caller-owned sweep-wide cancellation token (nullable).  cancel() —
  /// e.g. from a SIGINT handler — drains the pool like a passed
  /// deadline: cooperative, partial results preserved.  Outlives run().
  guard::Budget* sweep_budget = nullptr;
  /// Deterministic fault plan (nullable, caller-owned, see
  /// guard::FaultPlan).  Sites visited: "parse", "check", "transform",
  /// "lower", "prepare" (once per compile chain — per model when cached,
  /// per job when isolated) and "estimate" (per job); a "cancel@E" rule
  /// arms a mid-simulation cancellation after E engine events.
  guard::FaultPlan* fault_plan = nullptr;
};

/// Expands sweeps into jobs and runs them on a worker pool.
class BatchRunner {
 public:
  /// Captures the batch options; models and scenarios are added next.
  explicit BatchRunner(BatchOptions options = {});

  /// The options this runner was constructed with.
  [[nodiscard]] const BatchOptions& options() const { return options_; }

  /// Registers a model (serialized to XMI text so every job can re-parse
  /// its own isolated copy).  Returns the model index.
  int add_model(std::string name, const uml::Model& model);

  /// Registers a model from XMI text; parse errors surface per job.
  int add_model_xml(std::string name, std::string xmi_text);

  /// Registers a model from an XMI file (read eagerly; throws on I/O
  /// errors, parse errors surface per job).  The name is the file path.
  int add_model_file(const std::string& path);

  /// Registers a built-in workload by registry reference ("@kernel6",
  /// "@stencil2d(n=256)").  Throws std::invalid_argument on unknown
  /// models or knobs, naming the valid ones.  The name is the reference.
  int add_model_reference(const std::string& reference);

  /// Number of registered models.
  [[nodiscard]] std::size_t model_count() const { return models_.size(); }

  /// Queues one scenario for a registered model.
  void add_scenario(int model_index, machine::SystemParameters params);

  /// Queues every scenario in `grid` for a registered model.  The grid
  /// is stored, not expanded: workers derive each job's parameters and
  /// seed from its id.  Throws std::invalid_argument on an axis value
  /// the parameter rejects and std::length_error past 2^31 - 1 jobs.
  void add_sweep(int model_index, const ScenarioGrid& grid);

  /// Queues every scenario in `grid` for every registered model, model
  /// by model.
  void add_sweep_all(const ScenarioGrid& grid);

  /// Number of queued jobs.
  [[nodiscard]] std::size_t job_count() const;
  /// Every queued job, in assignment order, derived from the sweeps
  /// that queued them (materialized: O(jobs)).
  [[nodiscard]] std::vector<BatchJob> jobs() const;

  /// Runs all queued jobs.  Results arrive in job order regardless of the
  /// thread count; jobs that fail are reported, never thrown.
  [[nodiscard]] BatchReport run() const;

 private:
  // One compiled model: the parsed uml::Model plus the PreparedModel
  // handle(s) for the selected backend(s); defined in the
  // implementation file.
  struct CompiledEntry;
  // The stateless Backend objects of the selected engine(s).
  struct Backends;

  /// The one job path: evaluates `lanes` — consecutive jobs of one
  /// model with their identity filled in, `params` their parameters —
  /// against `entry`, through one PreparedModel::estimate_batch call per
  /// engine when there are several lanes.  Any failure in a multi-lane
  /// chunk re-runs every lane alone, for exact per-job error
  /// attribution.  A null `entry` (isolated mode) compiles one for the
  /// job with `backends` and charges its stages to the job.  `metrics`
  /// and `sim_trace` are nullable.
  void run_chunk(const CompiledEntry* entry, const Backends& backends,
                 std::span<ScenarioResult> lanes,
                 std::span<const machine::SystemParameters> params,
                 obs::Registry* metrics, trace::Trace* sim_trace,
                 const guard::Budget* sweep) const;

  /// Compiles every model referenced by at least one job (parse -> check
  /// -> transform -> prepare) on up to `threads` workers; per-model
  /// failures land in the entry, not as exceptions.  `compiled` counts
  /// the models that compiled successfully.  `trace_log` (nullable)
  /// receives one "compile <model>" span per model on the compiling
  /// worker's lane.
  [[nodiscard]] std::vector<CompiledEntry> compile_models(
      const Backends& backends, int threads, int* compiled,
      obs::TraceLog* trace_log) const;

  /// One model's compile chain — parse, check, transform, lower,
  /// Backend::prepare — with its stage errors and times; writes the
  /// outcome into *out.
  void compile_one(std::size_t m, const Backends& backends,
                   CompiledEntry* out) const;

  BatchOptions options_;
  /// The registered models' XMI texts (names live in `jobs_`).
  std::vector<std::string> models_;
  /// Shared with the reports of earlier runs; copied before a change.
  std::shared_ptr<JobList> jobs_;
};

/// The per-job seed derivation (SplitMix64 over base_seed + job id);
/// exposed so tests and tools can predict job seeds.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed, int job_id);

}  // namespace prophet::pipeline
