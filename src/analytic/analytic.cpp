#include "prophet/analytic/analytic.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "prophet/expr/compile.hpp"
#include "prophet/expr/eval.hpp"
#include "prophet/workload/runtime.hpp"

namespace prophet::analytic {
namespace {

using uml::ActivityDiagram;
using uml::Node;
using uml::NodeKind;

/// Integer-typed model variables truncate on assignment, exactly like the
/// interpreter and the generated C++.
double coerce(uml::VariableType type, double value) {
  if (type == uml::VariableType::Integer) {
    return std::trunc(value);
  }
  return value;
}

/// What one step of the abstract process timeline does.  Compute demands
/// a node processor; Busy advances the clock without contending (send
/// overhead, synchronization latency); Send/Recv/Barrier synchronize
/// across processes during replay.
enum class EvKind { Compute, Busy, Send, Recv, Barrier };

struct Event {
  EvKind kind = EvKind::Compute;
  double elapsed = 0;  // wall seconds on this process's critical path
  double demand = 0;   // contended CPU seconds charged to the node
  double bytes = 0;    // Send: payload size handed to the receiver
  int peer = 0;        // Send: destination pid / Recv: source pid
  int tag = 0;         // message tag
};

/// The abstract timeline of one process plus its side demands.
struct WalkResult {
  std::vector<Event> events;
  // Serialized seconds per named critical section (lock-held time).
  std::map<std::string, double> critical_demand;
};

double sum_elapsed(const std::vector<Event>& events) {
  double total = 0;
  for (const auto& event : events) {
    total += event.elapsed;
  }
  return total;
}

double sum_demand(const std::vector<Event>& events) {
  double total = 0;
  for (const auto& event : events) {
    total += event.demand;
  }
  return total;
}

bool compute_only(const std::vector<Event>& events) {
  return std::all_of(events.begin(), events.end(), [](const Event& event) {
    return event.kind == EvKind::Compute || event.kind == EvKind::Busy;
  });
}

workload::CollectiveKind collective_kind(const std::string& stereotype) {
  if (stereotype == uml::stereo::kBroadcast) {
    return workload::CollectiveKind::Broadcast;
  }
  if (stereotype == uml::stereo::kReduce) {
    return workload::CollectiveKind::Reduce;
  }
  if (stereotype == uml::stereo::kAllReduce) {
    return workload::CollectiveKind::AllReduce;
  }
  if (stereotype == uml::stereo::kScatter) {
    return workload::CollectiveKind::Scatter;
  }
  return workload::CollectiveKind::Gather;
}

/// A loop variable binding on the walker's lexical stack.  `read` records
/// whether an evaluated program statically references the binding's slot
/// — the loop-collapsing fast path is valid only for bodies that never
/// look at their trip variable.  (The bytecode analogue of the tree
/// walker's resolution-time marking: a reference in a short-circuited
/// subexpression now counts as a read, which can only disable a collapse
/// — the fallback per-iteration walk is always exact.)
struct LoopBinding {
  expr::Slot slot = 0;
  bool read = false;
};

/// The id of the join or merge a branch walk stopped at, "" when it
/// reached none (the diagnostics compare and print ids).
const std::string& id_of(const lower::NodePrograms* node) {
  static const std::string kNone;
  return node != nullptr ? node->node->id() : kNone;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl: shared lowering handle + per-evaluation state
// ---------------------------------------------------------------------------

struct AnalyticEstimator::Impl {
  using CompiledAssignment = lower::CompiledAssignment;
  using NodePrograms = lower::NodePrograms;

  /// The shared lowering (slot space, bytecode, resolved fragments).
  /// Immutable, so any number of estimators — and the simulation backend —
  /// can consume the same program concurrently.
  lower::ModelProgramPtr program;

  /// Mutable state of one evaluation over one or more scenario lanes
  /// (evaluate is const + reentrant; everything per-run lives here).
  /// `run` holds the run-level bindings — structural parameters and
  /// globals — slot-major, one lane array per slot: with one lane it is
  /// the scalar frame, with several it is what expr::BatchEvalContext
  /// expects, and lane l's scalar view is every bound pointer offset by l.
  struct EvalState {
    EvalState(std::span<const machine::SystemParameters* const> lanes_in,
              std::size_t slot_count)
        : lanes(lanes_in), run(slot_count, lanes_in.size()) {}

    std::span<const machine::SystemParameters* const> lanes;  // walk order
    expr::SlotBlock run;
    std::uint64_t elements = 0;  // model elements walked, summed over walks
    std::uint64_t fragments_executed = 0;
    bool pid_queried = false;  // pid/tid reachable by an evaluated program
    int call_depth = 0;
    obs::AnalyticCounters* counters = nullptr;  // null: counting disabled
    guard::Budget* budget = nullptr;            // null: unguarded
  };

  /// Cost-function dispatch for both lane policies: bodies evaluate
  /// against the run frame (globals + structural parameters) and the
  /// call's arguments, with the tree walker's recursion guard — for one
  /// lane (call), across a block (call_batch), or for one lane of a
  /// block when the vectorized VM falls back lane by lane (call_lane).
  struct FunctionCaller final : expr::UserFunctions, expr::BatchUserFunctions {
    const Impl* impl = nullptr;
    EvalState* st = nullptr;

    [[nodiscard]] double call(int id,
                              std::span<const double> args) const override {
      return call_in(st->run.frame(), this, id, args);
    }

    void call_batch(int id, std::span<const double* const> args, double* out,
                    std::size_t width) const override {
      const Depth depth(st);
      expr::BatchEvalContext ctx;
      ctx.frame = st->run.frame();
      ctx.width = width;
      ctx.args = args;
      ctx.functions = this;
      ctx.counters = st->counters != nullptr ? &st->counters->expr : nullptr;
      ctx.budget = st->budget;
      impl->program->functions()[static_cast<std::size_t>(id)].eval_batch(
          ctx, out);
    }

    [[nodiscard]] double call_lane(int id, std::span<const double> args,
                                   std::size_t lane) const override {
      // Lane view of the run frame: every bound slot offset by `lane`, so
      // the scalar VM sees exactly that lane's bindings.
      const auto run = st->run.frame();
      std::vector<double*> frame(run.size());
      for (std::size_t slot = 0; slot < frame.size(); ++slot) {
        frame[slot] = run[slot] != nullptr ? run[slot] + lane : nullptr;
      }
      struct LaneFunctions final : expr::UserFunctions {
        const FunctionCaller* parent;
        std::size_t lane;
        LaneFunctions(const FunctionCaller* parent_in, std::size_t lane_in)
            : parent(parent_in), lane(lane_in) {}
        [[nodiscard]] double call(
            int inner_id, std::span<const double> inner_args) const override {
          return parent->call_lane(inner_id, inner_args, lane);
        }
      };
      const LaneFunctions lane_functions(this, lane);
      return call_in(frame, &lane_functions, id, args);
    }

   private:
    /// Holds one level of the cost-function recursion guard.
    struct Depth {
      explicit Depth(EvalState* st_in) : st(st_in) {
        if (st->call_depth > 64) {
          throw AnalyticError("cost-function call depth exceeded (cycle?)");
        }
        ++st->call_depth;
      }
      ~Depth() { --st->call_depth; }
      Depth(const Depth&) = delete;
      Depth& operator=(const Depth&) = delete;
      EvalState* st;
    };

    [[nodiscard]] double call_in(std::span<double* const> frame,
                                 const expr::UserFunctions* functions, int id,
                                 std::span<const double> args) const {
      const Depth depth(st);
      expr::EvalContext ctx;
      ctx.frame = frame;
      ctx.args = args;
      ctx.functions = functions;
      ctx.counters = st->counters != nullptr ? &st->counters->expr : nullptr;
      ctx.budget = st->budget;
      return impl->program->functions()[static_cast<std::size_t>(id)].eval(
          ctx);
    }
  };

  explicit Impl(lower::ModelProgramPtr p)
      : program(std::move(p)) {}

  AnalyticReport evaluate(const machine::SystemParameters& params,
                          obs::AnalyticCounters* counters,
                          guard::Budget* budget) const;

  std::vector<AnalyticReport> evaluate_batch(
      std::span<const machine::SystemParameters> lanes,
      obs::AnalyticCounters* counters, guard::Budget* budget,
      std::size_t* lanes_fallback) const;
};


namespace {

// ---------------------------------------------------------------------------
// Symbolic walk
// ---------------------------------------------------------------------------

/// Lane policies for Walker.  OneLane walks one scenario on plain doubles
/// through Compiled::eval; LaneBlock walks a chunk of scenarios in
/// lockstep, every transient a lane array, through Compiled::eval_batch
/// (whose width-one dispatch is slower than eval, so one scenario never
/// takes it).  Vec<T> is a per-lane temporary, held inline for one lane
/// and for blocks up to the pipeline's default chunk of eight, so those
/// walks allocate nothing per node.
struct OneLane {
  static constexpr bool kBatched = false;
  template <class T>
  struct Vec {
    explicit Vec(std::size_t /*width*/) {}
    T& operator[](std::size_t /*lane*/) { return value; }
    T* data() { return &value; }
    T value{};
  };
};

struct LaneBlock {
  static constexpr bool kBatched = true;
  template <class T>
  class Vec {
   public:
    explicit Vec(std::size_t width) : heap_(width > kInline ? width : 0) {}
    T& operator[](std::size_t lane) { return data()[lane]; }
    T* data() { return heap_.empty() ? inline_.data() : heap_.data(); }

   private:
    static constexpr std::size_t kInline = 8;
    std::array<T, kInline> inline_{};
    std::vector<T> heap_;
  };
};

/// Internal control-flow signal of a lane block: the lanes' data would
/// take them down different paths (a guard's truthiness, a message peer,
/// a trip-count mix the loop collapse cannot absorb, a region's thread
/// count).  evaluate_batch catches it, like any evaluation error, and
/// re-runs every lane through the one-lane walker, which is exact —
/// errors included.  Never escapes the analytic layer.
struct LaneDivergence {};

/// Walks one process's control flow, emitting Events, for every active
/// lane at once.  The lanes share one control path, so their event
/// sequences stay structurally identical (event i has the same kind in
/// every lane) and one coalescing decision covers all of them.
/// Sub-walkers (fork branches, parallel-region threads, critical bodies,
/// expectation branches, loop trips) share the lexical state — slot
/// frame, loop bindings — but write to their own WalkResults so the
/// parent can aggregate elapsed/demand.  The walk is strictly sequential,
/// so the shared frame needs no snapshotting (unlike the coroutine
/// interpreter's per-scope copies).
template <class Lanes>
struct Walker {
  using Impl = AnalyticEstimator::Impl;
  using EvalState = Impl::EvalState;
  using NodePrograms = Impl::NodePrograms;
  using DiagramProgram = lower::DiagramProgram;
  template <class T>
  using Vec = typename Lanes::template Vec<T>;

  Walker(const Impl& impl_in, EvalState& st_in, WalkResult* out_in,
         std::size_t lanes_in)
      : impl(impl_in), st(st_in), out(out_in), lanes(lanes_in) {}

  const Impl& impl;
  EvalState& st;
  WalkResult* out;    // one per active lane
  std::size_t lanes;  // active lanes: a prefix of st.lanes
  int pid = 0;
  int tid = 0;
  expr::SlotBlock* frame = nullptr;  // per-process bindings and locals
  std::vector<LoopBinding>* bindings = nullptr;
  const Impl::FunctionCaller* functions = nullptr;
  int region_threads = 0;  // > 0 inside an <<ompparallel>> region
  bool allow_comm = true;
  bool allow_fragments = true;
  std::uint64_t* steps = nullptr;
  std::uint64_t step_limit = 0;

  [[nodiscard]] std::size_t width() const {
    if constexpr (Lanes::kBatched) {
      return lanes;
    } else {
      return 1;
    }
  }

  [[nodiscard]] const machine::SystemParameters& params(
      std::size_t lane) const {
    return *st.lanes[lane];
  }

  /// A sub-walker for nested concurrent constructs: shares the lexical
  /// state, writes to its own results, and may not communicate.
  [[nodiscard]] Walker sub(WalkResult* sub_out) const {
    Walker walker = *this;
    walker.out = sub_out;
    walker.allow_comm = false;
    return walker;
  }

  // --- Expression evaluation ---------------------------------------------

  /// Marks the innermost active loop binding of every slot the program
  /// references — the static analogue of the tree walker's
  /// mark-on-resolution (shadowed outer bindings stay unmarked).
  void mark_loop_reads(const expr::Compiled& program) const {
    for (auto it = bindings->rbegin(); it != bindings->rend(); ++it) {
      bool shadowed = false;
      for (auto inner = bindings->rbegin(); inner != it; ++inner) {
        if (inner->slot == it->slot) {
          shadowed = true;
          break;
        }
      }
      if (!shadowed && program.references_slot(it->slot)) {
        it->read = true;
      }
    }
  }

  /// Evaluates `program` for every active lane into `values`.
  void eval_program(const expr::Compiled& program, int uid,
                    double* values) const {
    if (program.may_read_pid_tid()) {
      st.pid_queried = true;
    }
    mark_loop_reads(program);
    std::conditional_t<Lanes::kBatched, expr::BatchEvalContext,
                       expr::EvalContext>
        ctx;
    ctx.frame = frame->frame();
    ctx.functions = functions;
    ctx.pid = static_cast<double>(pid);
    ctx.tid = static_cast<double>(tid);
    ctx.uid = static_cast<double>(uid);
    ctx.counters = st.counters != nullptr ? &st.counters->expr : nullptr;
    ctx.budget = st.budget;
    if constexpr (Lanes::kBatched) {
      ctx.width = width();
      program.eval_batch(ctx, values);
    } else {
      *values = program.eval(ctx);
    }
  }

  /// Evaluates an optional tag program; absent tags are 0.0, evaluation
  /// errors carry the node/tag context (tree-walker message format).
  void eval_tag(const std::optional<expr::Compiled>& tag,
                std::string_view tag_name, const Node& node, int uid,
                double* values) const {
    if (!tag.has_value()) {
      std::fill_n(values, width(), 0.0);
      return;
    }
    try {
      eval_program(*tag, uid, values);
    } catch (const expr::EvalError& error) {
      throw AnalyticError("node " + node.id() + ", tag '" +
                          std::string(tag_name) + "': " + error.what());
    }
  }

  /// The lanes' common integer value (message peers and thread counts
  /// shape the event structure, so the lanes must agree on them).
  [[nodiscard]] int uniform_int(const double* values) const {
    const int value = static_cast<int>(values[0]);
    for (std::size_t lane = 1; lane < width(); ++lane) {
      if (static_cast<int>(values[lane]) != value) {
        throw LaneDivergence{};
      }
    }
    return value;
  }

  void run_fragment(const NodePrograms& programs, const Node& node) {
    if (programs.fragment.empty()) {
      return;
    }
    if (!allow_fragments) {
      throw AnalyticError("node " + node.id() +
                          ": code fragments are not supported inside "
                          "probability-weighted branches");
    }
    ++st.fragments_executed;
    Vec<double> value(width());
    for (const auto& assignment : programs.fragment) {
      try {
        eval_program(assignment.value, programs.uid, value.data());
      } catch (const expr::EvalError& error) {
        throw AnalyticError("code fragment at node " + node.id() + ": " +
                            error.what());
      }
      using Target = Impl::CompiledAssignment::Target;
      double* storage = nullptr;
      switch (assignment.target) {
        case Target::Local:
          storage = frame->lanes(assignment.slot);
          break;
        case Target::Global:
          storage = st.run.lanes(assignment.slot);
          break;
        case Target::Undeclared:
          throw AnalyticError("code fragment at node " + node.id() +
                              " assigns undeclared variable '" +
                              assignment.name + "'");
      }
      for (std::size_t lane = 0; lane < width(); ++lane) {
        storage[lane] =
            assignment.coerce_int ? std::trunc(value[lane]) : value[lane];
      }
    }
  }

  // --- Event emission -----------------------------------------------------

  void emit_compute(const double* elapsed, const double* demand) {
    for (std::size_t lane = 0; lane < width(); ++lane) {
      if (std::isnan(elapsed[lane]) || elapsed[lane] < 0) {
        throw AnalyticError("negative or NaN compute cost");
      }
    }
    if (!out[0].events.empty() && out[0].events.back().kind == EvKind::Compute) {
      for (std::size_t lane = 0; lane < width(); ++lane) {
        out[lane].events.back().elapsed += elapsed[lane];
        out[lane].events.back().demand += demand[lane];
      }
      return;
    }
    for (std::size_t lane = 0; lane < width(); ++lane) {
      out[lane].events.push_back(
          {EvKind::Compute, elapsed[lane], demand[lane], 0, 0, 0});
    }
  }

  void emit_busy(const double* elapsed) {
    if (!out[0].events.empty() && out[0].events.back().kind == EvKind::Busy) {
      for (std::size_t lane = 0; lane < width(); ++lane) {
        out[lane].events.back().elapsed += elapsed[lane];
      }
      return;
    }
    for (std::size_t lane = 0; lane < width(); ++lane) {
      out[lane].events.push_back({EvKind::Busy, elapsed[lane], 0, 0, 0, 0});
    }
  }

  void require_comm(const Node& node) const {
    if (!allow_comm) {
      throw AnalyticError(
          "node " + node.id() + " (<<" + node.stereotype() +
          ">>): cross-process communication inside fork branches, parallel "
          "regions, critical sections or probability-weighted branches is "
          "not supported by the analytic backend");
    }
  }

  // --- Control flow -------------------------------------------------------

  void run_diagram(const DiagramProgram& diagram) {
    if (diagram.initial == nullptr) {
      throw AnalyticError("diagram " + diagram.diagram->id() +
                          " has no initial node");
    }
    walk(*diagram.diagram, *diagram.initial, /*stop_kind=*/std::nullopt,
         nullptr);
  }

  /// Walks from `start` until a Final node (stop == nullptr) or until a
  /// node of `stop_kind` is reached (it is written to *stop and not
  /// executed).  When stopping at a Merge, merges that close a
  /// guard-resolved decision *inside* the walked stretch are passed
  /// through (`merge_debt`), so only the branch's own reconvergence point
  /// terminates it.
  void walk(const ActivityDiagram& diagram, const NodePrograms& start,
            std::optional<NodeKind> stop_kind, const NodePrograms** stop) {
    const NodePrograms* node = &start;
    int merge_debt = 0;
    while (node != nullptr) {
      if (++*steps > step_limit) {
        throw AnalyticError("diagram " + diagram.id() +
                            ": walk exceeded step limit (unstructured "
                            "cycle without <<loop+>>?)");
      }
      // Piggyback the cooperative deadline/cancel check on the existing
      // step counter so a long symbolic walk stays interruptible.
      if (st.budget != nullptr && (*steps & 1023U) == 0) {
        st.budget->checkpoint("analytic-walk");
      }
      if (stop != nullptr && stop_kind.has_value() &&
          node->kind == *stop_kind) {
        if (*stop_kind == NodeKind::Merge && merge_debt > 0) {
          --merge_debt;  // closes a nested decision, keep walking
        } else {
          *stop = node;
          return;
        }
      }
      if (node->kind == NodeKind::Fork) {
        const NodePrograms* join = execute_fork(diagram, *node);
        const auto after = join->edges;
        if (after.empty()) {
          return;
        }
        if (after.size() > 1) {
          throw AnalyticError("join " + join->node->id() +
                              " has multiple outgoing edges");
        }
        node = after[0].to;
        continue;
      }
      if (node->kind == NodeKind::Decision) {
        if (node->probabilistic) {
          // Consumes the decision's merge inline and resumes after it.
          node = execute_expected_decision(diagram, *node);
          continue;
        }
        if (stop_kind == NodeKind::Merge) {
          ++merge_debt;  // this decision's own merge is not ours
        }
      }
      execute_node(*node);
      if (node->kind == NodeKind::Final) {
        return;
      }
      node = next_node(*node);
    }
  }

  [[nodiscard]] const NodePrograms* next_node(const NodePrograms& node) const {
    const auto outgoing = node.edges;
    if (node.kind == NodeKind::Decision) {
      const lower::ControlEdge* chosen = nullptr;
      const lower::ControlEdge* fallback = nullptr;
      Vec<double> value(width());
      for (const auto& edge : outgoing) {
        if (edge.is_else) {
          if (fallback == nullptr) {
            fallback = &edge;
          }
          continue;
        }
        if (edge.guard == nullptr) {
          continue;  // unguarded edge out of a decision: never taken
        }
        try {
          eval_program(*edge.guard, node.uid, value.data());
        } catch (const expr::EvalError& error) {
          throw AnalyticError("guard of edge " + edge.flow->id() + ": " +
                              error.what());
        }
        const bool taken = expr::truthy(value[0]);
        for (std::size_t lane = 1; lane < width(); ++lane) {
          if (expr::truthy(value[lane]) != taken) {
            throw LaneDivergence{};
          }
        }
        if (taken) {
          chosen = &edge;
          break;
        }
      }
      if (chosen == nullptr) {
        chosen = fallback;
      }
      if (chosen == nullptr) {
        throw AnalyticError("decision " + node.node->id() +
                            ": no guard holds and no 'else' edge");
      }
      return chosen->to;
    }
    if (outgoing.empty()) {
      return nullptr;  // dead end; the checker's connectivity rule warns
    }
    if (outgoing.size() > 1) {
      throw AnalyticError("node " + node.node->id() +
                          " has multiple unguarded outgoing edges");
    }
    return outgoing[0].to;
  }

  void execute_node(const NodePrograms& node) {
    ++st.elements;
    switch (node.kind) {
      case NodeKind::Initial:
      case NodeKind::Final:
      case NodeKind::Merge:
      case NodeKind::Join:
      case NodeKind::Decision:
      case NodeKind::Fork:  // handled inline by walk()
        return;
      case NodeKind::Action:
        execute_action(node);
        return;
      case NodeKind::Activity:
        execute_activity(node);
        return;
      case NodeKind::Loop:
        execute_loop(node);
        return;
    }
  }

  /// Walks every branch of `fork` to its join; returns the common join.
  const NodePrograms* execute_fork(const ActivityDiagram& diagram,
                                   const NodePrograms& fork) {
    const std::string& id = fork.node->id();
    const auto outgoing = fork.edges;
    std::vector<const NodePrograms*> joins(outgoing.size(), nullptr);
    Vec<double> max_elapsed(width());
    Vec<double> total_demand(width());
    for (std::size_t i = 0; i < outgoing.size(); ++i) {
      const NodePrograms* target = outgoing[i].to;
      if (target == nullptr) {
        throw AnalyticError("fork " + id + ": dangling edge");
      }
      Vec<WalkResult> branch(width());
      Walker walker = sub(branch.data());
      walker.walk(diagram, *target, NodeKind::Join, &joins[i]);
      join_concurrent(branch.data(), max_elapsed.data(), total_demand.data());
    }
    // Joins compare by id, so the diagnostics read exactly as before.
    for (std::size_t i = 1; i < joins.size(); ++i) {
      if (id_of(joins[i]) != id_of(joins[0])) {
        throw AnalyticError("fork " + id +
                            ": branches reach different joins ('" +
                            id_of(joins[0]) + "' vs '" + id_of(joins[i]) +
                            "')");
      }
    }
    if (joins.empty() || id_of(joins[0]).empty()) {
      throw AnalyticError("fork " + id + ": branches do not reach a join");
    }
    emit_compute(max_elapsed.data(), total_demand.data());
    return joins[0];
  }

  /// Expectation over the branches of a `prob`-annotated decision: every
  /// branch is walked to the common merge, weighted by its probability,
  /// and the expected elapsed/demand is emitted as one Compute step.
  /// Returns the node after the merge to continue from (the merge itself
  /// is consumed here, so an enclosing branch walk never mistakes it for
  /// its own reconvergence point).
  const NodePrograms* execute_expected_decision(const ActivityDiagram& diagram,
                                                const NodePrograms& node) {
    ++st.elements;
    const std::string& id = node.node->id();
    const auto outgoing = node.edges;
    if (outgoing.empty()) {
      throw AnalyticError("decision " + id + " has no outgoing edges");
    }
    std::vector<double> weights(outgoing.size(), -1);
    double tagged_sum = 0;
    std::size_t untagged = 0;
    for (std::size_t i = 0; i < outgoing.size(); ++i) {
      if (outgoing[i].has_prob) {
        const double prob = outgoing[i].prob;
        if (prob < 0 || prob > 1 || std::isnan(prob)) {
          throw AnalyticError("decision " + id + ": edge " +
                              outgoing[i].flow->id() +
                              " has prob outside [0, 1]");
        }
        weights[i] = prob;
        tagged_sum += prob;
      } else {
        ++untagged;
      }
    }
    if (tagged_sum > 1 + 1e-9) {
      throw AnalyticError("decision " + id +
                          ": branch probabilities sum to more than 1");
    }
    const double rest =
        untagged > 0
            ? std::max(0.0, 1.0 - tagged_sum) / static_cast<double>(untagged)
            : 0;
    double norm = 0;
    for (auto& weight : weights) {
      if (weight < 0) {
        weight = rest;
      }
      norm += weight;
    }
    if (norm <= 0) {
      throw AnalyticError("decision " + id +
                          ": branch probabilities sum to zero");
    }

    const NodePrograms* merge = nullptr;
    Vec<double> expected_elapsed(width());
    Vec<double> expected_demand(width());
    for (std::size_t i = 0; i < outgoing.size(); ++i) {
      const NodePrograms* target = outgoing[i].to;
      if (target == nullptr) {
        throw AnalyticError("decision " + id + ": dangling edge");
      }
      const double weight = weights[i] / norm;
      const NodePrograms* branch_merge = nullptr;
      Vec<WalkResult> branch(width());
      Walker walker = sub(branch.data());
      walker.allow_fragments = false;
      walker.walk(diagram, *target, NodeKind::Merge, &branch_merge);
      if (id_of(branch_merge).empty()) {
        throw AnalyticError("decision " + id +
                            ": probability-weighted branches must "
                            "reconverge at a merge");
      }
      if (merge == nullptr) {
        merge = branch_merge;
      } else if (id_of(merge) != id_of(branch_merge)) {
        throw AnalyticError("decision " + id +
                            ": branches reach different merges ('" +
                            id_of(merge) + "' vs '" + id_of(branch_merge) +
                            "')");
      }
      for (std::size_t lane = 0; lane < width(); ++lane) {
        expected_elapsed[lane] += weight * sum_elapsed(branch[lane].events);
        expected_demand[lane] += weight * sum_demand(branch[lane].events);
        merge_criticals(lane, branch[lane], weight);
      }
    }
    emit_compute(expected_elapsed.data(), expected_demand.data());
    ++st.elements;  // the consumed merge
    return next_node(*merge);
  }

  void execute_action(const NodePrograms& programs) {
    const Node& node = *programs.node;
    run_fragment(programs, node);
    const int uid = programs.uid;
    const std::string& stereotype = node.stereotype();
    const std::size_t w = width();
    Vec<double> value(w);
    if (stereotype == uml::stereo::kActionPlus || stereotype.empty()) {
      if (programs.cost().has_value()) {
        eval_tag(programs.cost(), uml::tag::kCost, node, uid, value.data());
      } else if (programs.time.has_value()) {
        std::fill_n(value.data(), w, *programs.time);
      }
      for (std::size_t lane = 0; lane < w; ++lane) {
        value[lane] = machine::compute_time(params(lane), value[lane]);
      }
      emit_compute(value.data(), value.data());
    } else if (stereotype == uml::stereo::kSend) {
      require_comm(node);
      eval_tag(programs.dest(), uml::tag::kDest, node, uid, value.data());
      const int dest = uniform_int(value.data());
      eval_tag(programs.size(), uml::tag::kSize, node, uid, value.data());
      const int tag = static_cast<int>(programs.msg_tag);
      Vec<double> overhead(w);
      for (std::size_t lane = 0; lane < w; ++lane) {
        overhead[lane] = params(lane).network_overhead;
      }
      emit_busy(overhead.data());
      for (std::size_t lane = 0; lane < w; ++lane) {
        out[lane].events.push_back(
            {EvKind::Send, 0, 0, value[lane], dest, tag});
      }
    } else if (stereotype == uml::stereo::kRecv) {
      require_comm(node);
      eval_tag(programs.source(), uml::tag::kSource, node, uid, value.data());
      const int source = uniform_int(value.data());
      const int tag = static_cast<int>(programs.msg_tag);
      for (std::size_t lane = 0; lane < w; ++lane) {
        out[lane].events.push_back({EvKind::Recv, 0, 0, 0, source, tag});
      }
    } else if (stereotype == uml::stereo::kBarrier) {
      require_comm(node);
      for (std::size_t lane = 0; lane < w; ++lane) {
        out[lane].events.push_back(
            {EvKind::Barrier, machine::barrier_time(params(lane)), 0, 0, 0,
             0});
      }
    } else if (stereotype == uml::stereo::kBroadcast ||
               stereotype == uml::stereo::kReduce ||
               stereotype == uml::stereo::kAllReduce ||
               stereotype == uml::stereo::kScatter ||
               stereotype == uml::stereo::kGather) {
      require_comm(node);
      eval_tag(programs.size(), uml::tag::kSize, node, uid, value.data());
      for (std::size_t lane = 0; lane < w; ++lane) {
        const double hold = workload::CollectiveElement::model_time(
            params(lane), collective_kind(stereotype), params(lane).processes,
            value[lane]);
        out[lane].events.push_back({EvKind::Barrier, hold, 0, 0, 0, 0});
      }
    } else if (stereotype == uml::stereo::kOmpFor) {
      Vec<double> itercost(w);
      eval_tag(programs.iterations(), uml::tag::kIterations, node, uid,
               value.data());
      eval_tag(programs.itercost(), uml::tag::kIterCost, node, uid,
               itercost.data());
      const auto chunk = static_cast<std::int64_t>(programs.chunk);
      const int threads = region_threads > 0 ? region_threads : 1;
      for (std::size_t lane = 0; lane < w; ++lane) {
        const double compute = workload::WorkshareElement::model_compute(
            value[lane], itercost[lane], *programs.schedule, chunk, threads,
            tid);
        value[lane] = machine::compute_time(params(lane), compute);
      }
      emit_compute(value.data(), value.data());
    } else if (stereotype == uml::stereo::kOmpBarrier) {
      // Region threads are modeled as aligned (the region advances at the
      // pace of its slowest thread), so an intra-region barrier costs
      // nothing extra here — exactly what the simulator charges.
    } else {
      throw AnalyticError("node " + node.id() +
                          ": unsupported stereotype <<" + stereotype +
                          ">> on an action node");
    }
  }

  void execute_activity(const NodePrograms& programs) {
    const Node& node = *programs.node;
    run_fragment(programs, node);
    const DiagramProgram* sub_diagram = programs.subdiagram;
    const std::string& stereotype = node.stereotype();
    const std::size_t w = width();
    if (stereotype == uml::stereo::kOmpParallel) {
      Vec<double> value(w);
      if (programs.num_threads().has_value()) {
        eval_tag(programs.num_threads(), uml::tag::kNumThreads, node,
                 programs.uid, value.data());
      } else {
        for (std::size_t lane = 0; lane < w; ++lane) {
          value[lane] = params(lane).threads_per_process;
        }
      }
      const int threads = uniform_int(value.data());
      if (threads < 1) {
        throw AnalyticError("parallel region at node " + node.id() +
                            ": num_threads must be >= 1");
      }
      Vec<double> max_elapsed(w);
      Vec<double> total_demand(w);
      for (int thread = 0; thread < threads; ++thread) {
        Vec<WalkResult> thread_result(w);
        Walker walker = sub(thread_result.data());
        walker.tid = thread;
        walker.region_threads = threads;
        walker.run_diagram(*sub_diagram);
        join_concurrent(thread_result.data(), max_elapsed.data(),
                        total_demand.data());
      }
      emit_compute(max_elapsed.data(), total_demand.data());
    } else if (stereotype == uml::stereo::kOmpCritical) {
      const std::string& lock = *programs.critical_name;
      Vec<WalkResult> body(w);
      Walker walker = sub(body.data());
      walker.run_diagram(*sub_diagram);
      // The body runs on this process's critical path; the lock-held time
      // additionally serializes against every other holder of `lock`.
      for (std::size_t lane = 0; lane < w; ++lane) {
        out[lane].critical_demand[lock] += sum_elapsed(body[lane].events);
        merge_criticals(lane, body[lane], 1.0);
      }
      append_events(body.data());
    } else {
      // <<activity+>> (or unstereotyped composite): inline content.
      run_diagram(*sub_diagram);
    }
  }

  void execute_loop(const NodePrograms& programs) {
    const Node& node = *programs.node;
    run_fragment(programs, node);
    const DiagramProgram* body = programs.subdiagram;
    const std::size_t w = width();
    Vec<double> raw(w);
    eval_tag(programs.iterations(), uml::tag::kIterations, node, programs.uid,
             raw.data());
    Vec<std::int64_t> iterations(w);
    bool uniform = true;
    for (std::size_t lane = 0; lane < w; ++lane) {
      if (std::isnan(raw[lane]) || raw[lane] < 0) {
        throw AnalyticError("loop " + node.id() +
                            ": iteration count is negative or NaN");
      }
      iterations[lane] = static_cast<std::int64_t>(raw[lane]);
      uniform = uniform && iterations[lane] == iterations[0];
    }
    if (uniform && iterations[0] == 0) {
      return;
    }
    for (std::size_t lane = 0; lane < w && !uniform; ++lane) {
      if (iterations[lane] == 0) {
        throw LaneDivergence{};  // zero/nonzero mix: no shared first trip
      }
    }
    bindings->push_back({programs.loop_var_slot, false});
    Vec<double> loop_value(w);
    double* const saved = frame->frame()[programs.loop_var_slot];
    frame->bind(programs.loop_var_slot, loop_value.data());

    // First iteration into a capture buffer: when the body provably does
    // not depend on the trip variable and has no side effects, the
    // remaining iterations are the first one times (n - 1) — the symbolic
    // trip-count resolution that keeps deep loop nests O(body), not
    // O(body * n), and the one place lanes may differ in trip count.
    const std::uint64_t fragments_before = st.fragments_executed;
    Vec<WalkResult> first(w);
    {
      Walker walker = sub(first.data());
      walker.allow_comm = allow_comm;
      walker.run_diagram(*body);
    }
    const bool collapsible = !bindings->back().read &&
                             st.fragments_executed == fragments_before &&
                             compute_only(first[0].events);
    if (!uniform && !collapsible) {
      throw LaneDivergence{};  // per-trip replay needs one shared count
    }
    if (collapsible && st.counters != nullptr) {
      st.counters->loop_collapses += w;
    }
    append_events(first.data());
    for (std::size_t lane = 0; lane < w; ++lane) {
      merge_criticals(lane, first[lane], 1.0);
    }
    if (collapsible) {
      Vec<double> elapsed(w);
      Vec<double> demand(w);
      for (std::size_t lane = 0; lane < w; ++lane) {
        const auto rest = static_cast<double>(iterations[lane] - 1);
        elapsed[lane] = rest * sum_elapsed(first[lane].events);
        demand[lane] = rest * sum_demand(first[lane].events);
      }
      emit_compute(elapsed.data(), demand.data());
      for (std::size_t lane = 0; lane < w; ++lane) {
        merge_criticals(lane, first[lane],
                        static_cast<double>(iterations[lane] - 1));
      }
    } else {
      for (std::int64_t k = 1; k < iterations[0]; ++k) {
        // Collapsed loops are O(1) and exempt; a non-collapsible body
        // replays per trip, so each trip is charged — this is where a
        // runaway trip count trips max_loop_trips (or the deadline).
        if (st.budget != nullptr) {
          st.budget->charge_loop_trips(1, "analytic-loop");
        }
        std::fill_n(loop_value.data(), w, static_cast<double>(k));
        run_diagram(*body);
      }
    }
    frame->bind(programs.loop_var_slot, saved);
    bindings->pop_back();
  }

  /// Splices sub-results, re-coalescing adjacent Compute/Busy runs.
  void append_events(WalkResult* from) {
    Vec<double> elapsed(width());
    Vec<double> demand(width());
    for (std::size_t i = 0; i < from[0].events.size(); ++i) {
      const EvKind kind = from[0].events[i].kind;
      for (std::size_t lane = 0; lane < width(); ++lane) {
        elapsed[lane] = from[lane].events[i].elapsed;
        demand[lane] = from[lane].events[i].demand;
      }
      if (kind == EvKind::Compute) {
        emit_compute(elapsed.data(), demand.data());
      } else if (kind == EvKind::Busy) {
        emit_busy(elapsed.data());
      } else {
        for (std::size_t lane = 0; lane < width(); ++lane) {
          out[lane].events.push_back(from[lane].events[i]);
        }
      }
    }
  }

  /// Folds a concurrent branch (fork branch, region thread) into the
  /// lanes' running maximum elapsed time and total demand: the branches
  /// run side by side, so the slowest sets the pace.
  void join_concurrent(WalkResult* branch, double* max_elapsed,
                       double* total_demand) {
    for (std::size_t lane = 0; lane < width(); ++lane) {
      max_elapsed[lane] =
          std::max(max_elapsed[lane], sum_elapsed(branch[lane].events));
      total_demand[lane] += sum_demand(branch[lane].events);
      merge_criticals(lane, branch[lane], 1.0);
    }
  }

  void merge_criticals(std::size_t lane, const WalkResult& from,
                       double weight) {
    for (const auto& [name, demand] : from.critical_demand) {
      out[lane].critical_demand[name] += weight * demand;
    }
  }

  /// Initializes the variables of `scope` in declaration order, binding
  /// each into the frame as it goes (a forward reference falls through
  /// to globals/system parameters, like the tree walker's growing map).
  void bind_variables(uml::VariableScope scope) {
    Vec<double> value(width());
    for (const auto& variable : impl.program->variables()) {
      if (variable.scope != scope) {
        continue;
      }
      std::fill_n(value.data(), width(), 0.0);
      if (variable.initializer.has_value()) {
        try {
          eval_program(*variable.initializer, 0, value.data());
        } catch (const expr::EvalError& error) {
          throw AnalyticError("initializer of variable " + variable.name +
                              ": " + error.what());
        }
      }
      double* const storage = frame->lanes(variable.slot);
      for (std::size_t lane = 0; lane < width(); ++lane) {
        storage[lane] = coerce(variable.type, value[lane]);
      }
      frame->bind(variable.slot, storage);
    }
  }

  void walk_process() {
    bind_variables(uml::VariableScope::Local);
    run_diagram(impl.program->main_diagram());
  }
};

// ---------------------------------------------------------------------------
// Replay: dependency resolution across processes
// ---------------------------------------------------------------------------

struct ReplayOutcome {
  std::vector<double> finish;       // per-process clock
  std::vector<double> node_demand;  // contended CPU seconds per node
  std::uint64_t events = 0;         // events consumed across all cursors
};

struct ReplayProc {
  std::size_t cursor = 0;
  double clock = 0;
  bool at_barrier = false;
  bool finished = false;
};

/// Reusable replay state.  One evaluation needs a handful of scratch
/// vectors whose sizes repeat from lane to lane; threading one scratch
/// through the batched per-lane finalize turns those per-lane heap
/// round-trips into capacity reuse.  Holds no results across calls —
/// replay() fully re-initializes every member it reads.
struct ReplayScratch {
  std::vector<ReplayProc> procs;
  std::vector<int> node;
  std::map<std::tuple<int, int, int>, std::deque<std::pair<double, double>>>
      ledger;
  ReplayOutcome outcome;
};

const ReplayOutcome& replay(const machine::SystemParameters& params,
                            const std::vector<const WalkResult*>& per_pid,
                            guard::Budget* budget, ReplayScratch& scratch) {
  const int np = params.processes;
  using Proc = ReplayProc;
  std::vector<Proc>& procs = scratch.procs;
  procs.assign(static_cast<std::size_t>(np), Proc{});
  std::vector<int>& node = scratch.node;
  node.resize(static_cast<std::size_t>(np));
  for (int pid = 0; pid < np; ++pid) {
    node[static_cast<std::size_t>(pid)] = machine::node_of(params, pid);
  }
  ReplayOutcome& outcome = scratch.outcome;
  outcome.finish.clear();
  outcome.events = 0;
  outcome.node_demand.assign(static_cast<std::size_t>(params.nodes), 0.0);

  // FIFO per (dst, src, tag) — the simulator's mailbox matching rule.
  // Keys recur from lane to lane, so the previous call's (emptied)
  // queues are kept and only their contents dropped.
  auto& ledger = scratch.ledger;
  for (auto& [key, queue] : ledger) {
    queue.clear();
  }

  // Uniform fast path: the SPMD walks hand every process the same
  // timeline.  When that shared timeline is also communication-free
  // (compute and busy only — no sends, receives, or barriers), the
  // cursor loop below degenerates to np independent replays of the same
  // list: every clock is the same in-order sum of elapsed times, and
  // node demands accumulate pid-major, event-minor.  Doing exactly
  // those additions in exactly that order as two tight loops is
  // bit-identical to the general machinery at a fraction of its cost.
  if (np > 0) {
    bool uniform = true;
    for (int pid = 1; pid < np && uniform; ++pid) {
      uniform = per_pid[static_cast<std::size_t>(pid)] == per_pid[0];
    }
    if (uniform) {
      const auto& events = per_pid[0]->events;
      bool comm_free = true;
      for (const Event& event : events) {
        if (event.kind != EvKind::Compute && event.kind != EvKind::Busy) {
          comm_free = false;
          break;
        }
      }
      if (comm_free) {
        const std::uint64_t total =
            static_cast<std::uint64_t>(np) * events.size();
        if (budget != nullptr) {
          // Same total as the per-event charges below; a trip raises the
          // same GuardError from the same site.
          budget->charge_replay_events(total, "analytic-replay");
        }
        double clock = 0;
        for (const Event& event : events) {
          clock += event.elapsed;
        }
        outcome.finish.assign(static_cast<std::size_t>(np), clock);
        for (int pid = 0; pid < np; ++pid) {
          double& cell = outcome.node_demand[static_cast<std::size_t>(
              node[static_cast<std::size_t>(pid)])];
          for (const Event& event : events) {
            if (event.kind == EvKind::Compute) {
              cell += event.demand;
            }
          }
        }
        outcome.events = total;
        return outcome;
      }
    }
  }

  int waiting = 0;
  int finished = 0;
  bool progressed = true;
  while (finished < np && progressed) {
    progressed = false;
    for (int pid = 0; pid < np; ++pid) {
      Proc& proc = procs[static_cast<std::size_t>(pid)];
      if (proc.finished || proc.at_barrier) {
        continue;
      }
      const auto& events = per_pid[static_cast<std::size_t>(pid)]->events;
      while (proc.cursor < events.size()) {
        const Event& event = events[proc.cursor];
        if (event.kind == EvKind::Compute) {
          proc.clock += event.elapsed;
          outcome.node_demand[static_cast<std::size_t>(
              node[static_cast<std::size_t>(pid)])] += event.demand;
        } else if (event.kind == EvKind::Busy) {
          proc.clock += event.elapsed;
        } else if (event.kind == EvKind::Send) {
          ledger[{event.peer, pid, event.tag}].emplace_back(proc.clock,
                                                            event.bytes);
        } else if (event.kind == EvKind::Recv) {
          auto it = ledger.find({pid, event.peer, event.tag});
          if (it == ledger.end() || it->second.empty()) {
            break;  // blocked until the matching send is replayed
          }
          const auto [sent_at, bytes] = it->second.front();
          it->second.pop_front();
          const double arrival =
              sent_at + machine::message_time(params, event.peer, pid, bytes);
          proc.clock = std::max(proc.clock, arrival);
        } else {  // Barrier
          proc.at_barrier = true;
          ++waiting;
          progressed = true;
          if (waiting == np) {
            double release = 0;
            for (const auto& other : procs) {
              release = std::max(release, other.clock);
            }
            for (int other = 0; other < np; ++other) {
              Proc& peer = procs[static_cast<std::size_t>(other)];
              const auto& peer_events =
                  per_pid[static_cast<std::size_t>(other)]->events;
              peer.clock = release + peer_events[peer.cursor].elapsed;
              ++peer.cursor;
              ++outcome.events;
              peer.at_barrier = false;
            }
            waiting = 0;
            // This process's cursor advanced with everyone else's;
            // continue draining it.
            continue;
          }
          break;  // parked until the last participant arrives
        }
        ++proc.cursor;
        ++outcome.events;
        progressed = true;
        // One charge per delivered event keeps a huge (but deadlock-free)
        // replay bounded by max_replay_events and the deadline.
        if (budget != nullptr) {
          budget->charge_replay_events(1, "analytic-replay");
        }
      }
      if (!proc.at_barrier && proc.cursor >= events.size() &&
          !proc.finished) {
        proc.finished = true;
        ++finished;
      }
    }
  }

  if (finished < np) {
    std::ostringstream why;
    why << "communication deadlock during analytic replay:";
    for (int pid = 0; pid < np; ++pid) {
      const Proc& proc = procs[static_cast<std::size_t>(pid)];
      if (proc.finished) {
        continue;
      }
      const auto& events = per_pid[static_cast<std::size_t>(pid)]->events;
      why << " p" << pid;
      if (proc.at_barrier) {
        why << " waits at a barrier;";
      } else if (proc.cursor < events.size() &&
                 events[proc.cursor].kind == EvKind::Recv) {
        why << " waits for a message from p" << events[proc.cursor].peer
            << ";";
      } else {
        why << " is blocked;";
      }
    }
    throw AnalyticError(why.str());
  }

  outcome.finish.reserve(static_cast<std::size_t>(np));
  for (const auto& proc : procs) {
    outcome.finish.push_back(proc.clock);
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Report assembly: replay + bounds
// ---------------------------------------------------------------------------

/// Everything downstream of the symbolic walks: dependency replay, the
/// capacity/critical contention bounds, and the report itself.  Shared
/// verbatim by the scalar evaluate() and the batched per-lane finalize,
/// which is what makes batched predictions bit-identical to scalar ones
/// by construction.
AnalyticReport assemble_report(const machine::SystemParameters& params,
                               const std::vector<const WalkResult*>& per_pid,
                               std::uint64_t elements,
                               obs::AnalyticCounters* counters,
                               guard::Budget* budget, ReplayScratch& scratch) {
  const int np = params.processes;
  const ReplayOutcome& outcome = replay(params, per_pid, budget, scratch);

  AnalyticReport report;
  report.processes = np;
  report.evaluated_elements = elements;
  double schedule_bound = 0;
  for (int pid = 0; pid < np; ++pid) {
    const double finish = outcome.finish[static_cast<std::size_t>(pid)];
    // Pids arrive in ascending order: the end hint makes each insert O(1).
    report.per_process_finish.emplace_hint(report.per_process_finish.end(),
                                           pid, finish);
    schedule_bound = std::max(schedule_bound, finish);
  }

  // Contention correction: a node's processors can serve at most
  // `processors_per_node` compute-seconds per second, so its total demand
  // divided by the server count lower-bounds the makespan (deterministic
  // M/M/k heavy-traffic limit).  Named critical sections serialize their
  // total lock-held demand the same way.
  const auto servers = static_cast<double>(params.processors_per_node);
  double capacity_bound = 0;
  for (const double demand : outcome.node_demand) {
    capacity_bound = std::max(capacity_bound, demand / servers);
  }
  std::map<std::string, double> critical_totals;
  for (const auto* result : per_pid) {
    for (const auto& [name, demand] : result->critical_demand) {
      critical_totals[name] += demand;
    }
  }
  double critical_bound = 0;
  for (const auto& [name, demand] : critical_totals) {
    critical_bound = std::max(critical_bound, demand);
  }
  const double makespan =
      std::max(schedule_bound, std::max(capacity_bound, critical_bound));
  report.predicted_time = makespan;

  if (counters != nullptr) {
    counters->events_replayed += outcome.events;
    // Which bound set the prediction; ties resolve toward the replayed
    // schedule (the capacity/critical corrections only "win" when they
    // exceed it).
    if (makespan <= schedule_bound) {
      ++counters->schedule_wins;
    } else if (capacity_bound >= critical_bound) {
      ++counters->capacity_wins;
    } else {
      ++counters->critical_wins;
    }
  }

  report.node_loads.reserve(outcome.node_demand.size());
  for (std::size_t n = 0; n < outcome.node_demand.size(); ++n) {
    NodeLoad load;
    load.compute_demand = outcome.node_demand[n];
    load.utilization = makespan > 0
                           ? outcome.node_demand[n] / (servers * makespan)
                           : 0;
    load.processes = 0;
    report.node_loads.push_back(load);
  }
  for (int pid = 0; pid < np; ++pid) {
    ++report
          .node_loads[static_cast<std::size_t>(machine::node_of(params, pid))]
          .processes;
  }
  return report;
}

// ---------------------------------------------------------------------------
// Evaluation: globals, per-process walks, per-lane replay and bounds
// ---------------------------------------------------------------------------

/// Evaluates the model under every scenario of `lanes` into `reports`
/// (same order), walking all lanes in lockstep under `Lanes`.  `lanes`
/// must be in walk order — processes descending — so that when the walk
/// is rank-dependent, pid p's walk covers exactly the prefix of lanes
/// with more than p processes, as each lane's own walks would.
template <class Lanes>
void evaluate_lanes(const AnalyticEstimator::Impl& impl,
                    std::span<const machine::SystemParameters* const> lanes,
                    obs::AnalyticCounters* counters, guard::Budget* budget,
                    AnalyticReport* reports) {
  using Impl = AnalyticEstimator::Impl;
  for (const auto* params : lanes) {
    params->validate();
  }
  const lower::ModelProgram& program = *impl.program;
  const std::size_t slots = program.slot_count();
  const std::size_t width = lanes.size();
  Impl::EvalState st(lanes, slots);
  st.counters = counters;
  st.budget = budget;
  Impl::FunctionCaller functions;
  functions.impl = &impl;
  functions.st = &st;

  // The run frame binds the structural parameters, then the globals in
  // declaration order (interpreter start_run semantics); every other
  // slot stays unbound.
  for (std::size_t slot = 0; slot < slots; ++slot) {
    st.run.unbind(static_cast<expr::Slot>(slot));
  }
  const auto bind_structural = [&](expr::Slot slot, auto field) {
    double* const values = st.run.lanes(slot);
    for (std::size_t lane = 0; lane < width; ++lane) {
      values[lane] = static_cast<double>(lanes[lane]->*field);
    }
    st.run.bind(slot, values);
  };
  bind_structural(program.np_slot(), &machine::SystemParameters::processes);
  bind_structural(program.nt_slot(),
                  &machine::SystemParameters::threads_per_process);
  bind_structural(program.nn_slot(), &machine::SystemParameters::nodes);
  bind_structural(program.ppn_slot(),
                  &machine::SystemParameters::processors_per_node);

  std::vector<WalkResult> results;  // walk-major: walk p's lanes, then p+1's
  results.reserve(width);
  struct WalkSpan {
    std::size_t first;        // the walk's lane-0 result
    std::uint64_t elements;   // st.elements after the walk
  };
  std::vector<WalkSpan> walks;
  std::vector<LoopBinding> bindings;  // empty between walks
  const auto make_walker = [&](auto policy, int pid, WalkResult* out,
                               std::size_t active, expr::SlotBlock& frame,
                               std::uint64_t& steps) {
    Walker<decltype(policy)> walker(impl, st, out, active);
    walker.pid = pid;
    walker.frame = &frame;
    walker.bindings = &bindings;
    walker.functions = &functions;
    walker.steps = &steps;
    walker.step_limit = 1000000ULL + 1000ULL * program.stats().nodes;
    return walker;
  };
  // One per-process frame (bindings + locals) serves every walk: each
  // starts from the run frame with zeroed locals.
  expr::SlotBlock frame(slots, width);
  const auto walk = [&](int pid, std::size_t active) {
    const auto run = st.run.frame();
    for (std::size_t slot = 0; slot < slots; ++slot) {
      std::fill_n(frame.lanes(static_cast<expr::Slot>(slot)), width, 0.0);
      frame.bind(static_cast<expr::Slot>(slot), run[slot]);
    }
    const std::size_t first = results.size();
    results.resize(first + active);
    std::uint64_t steps = 0;
    if (active == 1) {
      // A walk left with one lane runs on plain doubles: width-one
      // eval_batch is slower than eval.
      make_walker(OneLane{}, pid, &results[first], 1, frame, steps)
          .walk_process();
    } else {
      make_walker(Lanes{}, pid, &results[first], active, frame, steps)
          .walk_process();
    }
    walks.push_back({first, st.elements});
  };
  {
    std::uint64_t steps = 0;
    make_walker(Lanes{}, 0, nullptr, width, st.run, steps)
        .bind_variables(uml::VariableScope::Global);
  }

  st.pid_queried = false;
  walk(0, width);
  // A walk that reads no pid/tid and mutates no state is
  // process-independent: every process repeats the same timeline, so one
  // walk serves all of them — the SPMD fast path that makes grid sweeps
  // cheap.  Otherwise every pid gets its own walk.
  const bool spmd = !st.pid_queried && st.fragments_executed == 0;
  if (!spmd) {
    std::size_t walked = 0;
    for (const auto* params : lanes) {
      walked += static_cast<std::size_t>(params->processes);
    }
    results.reserve(walked);
    walks.reserve(static_cast<std::size_t>(lanes[0]->processes));
    std::size_t active = width;
    for (int pid = 1; pid < lanes[0]->processes; ++pid) {
      while (lanes[active - 1]->processes <= pid) {
        --active;
      }
      walk(pid, active);
    }
  }

  // One scratch (and one per-pid pointer table) serves every lane's
  // replay — its working set recurs, so after the first lane the per-lane
  // heap traffic is just the report itself.
  ReplayScratch scratch;
  std::vector<const WalkResult*> per_pid;
  for (std::size_t lane = 0; lane < width; ++lane) {
    const machine::SystemParameters& params = *lanes[lane];
    const auto np = static_cast<std::size_t>(params.processes);
    per_pid.resize(np);
    for (std::size_t p = 0; p < np; ++p) {
      per_pid[p] = &results[walks[spmd ? 0 : p].first + lane];
    }
    if (spmd && counters != nullptr) {
      ++counters->spmd_fast_path;
    }
    reports[lane] = assemble_report(params, per_pid,
                                    walks[spmd ? 0 : np - 1].elements, counters,
                                    budget, scratch);
  }
}

}  // namespace

AnalyticReport AnalyticEstimator::Impl::evaluate(
    const machine::SystemParameters& params, obs::AnalyticCounters* counters,
    guard::Budget* budget) const {
  const machine::SystemParameters* const lane = &params;
  AnalyticReport report;
  evaluate_lanes<OneLane>(*this, {&lane, 1}, counters, budget, &report);
  return report;
}

std::vector<AnalyticReport> AnalyticEstimator::Impl::evaluate_batch(
    std::span<const machine::SystemParameters> lanes,
    obs::AnalyticCounters* counters, guard::Budget* budget,
    std::size_t* lanes_fallback) const {
  std::vector<AnalyticReport> reports(lanes.size());
  if (lanes.size() > 1) {
    // Walk order: processes descending, so a rank-dependent model's pid
    // walks each cover a prefix of the block.
    std::vector<std::size_t> order(lanes.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return lanes[a].processes > lanes[b].processes;
                     });
    std::vector<const machine::SystemParameters*> walk_order(lanes.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      walk_order[i] = &lanes[order[i]];
    }
    std::vector<AnalyticReport> walked(lanes.size());
    try {
      evaluate_lanes<LaneBlock>(*this, walk_order, counters, budget,
                                walked.data());
      for (std::size_t i = 0; i < order.size(); ++i) {
        reports[order[i]] = std::move(walked[i]);
      }
      return reports;
    } catch (const guard::GuardError&) {
      throw;  // tripped budgets propagate — retrying would double-charge
    } catch (...) {
      // Divergence or a lane error: every lane re-runs alone, exactly,
      // raising any error with its one-lane message.
      if (lanes_fallback != nullptr) {
        *lanes_fallback += lanes.size();
      }
    }
  }
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    reports[lane] = evaluate(lanes[lane], counters, budget);
  }
  return reports;
}

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

std::string AnalyticReport::machine_report() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  for (std::size_t n = 0; n < node_loads.size(); ++n) {
    out << "node" << n << ": utilization " << node_loads[n].utilization
        << ", demand " << node_loads[n].compute_demand << " s, processes "
        << node_loads[n].processes << '\n';
  }
  return out.str();
}

std::string AnalyticReport::summary() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(12);
  out << "predicted time: " << predicted_time << " s (analytic)\n";
  out << "processes:      " << processes << '\n';
  out << "elements:       " << evaluated_elements << '\n';
  for (const auto& [pid, finish] : per_process_finish) {
    out << "  p" << pid << " finished at " << finish << " s\n";
  }
  const std::string machine = machine_report();
  if (!machine.empty()) {
    out << "-- machine --\n" << machine;
  }
  return out.str();
}

AnalyticEstimator::AnalyticEstimator(const uml::Model& model) {
  try {
    impl_ = std::make_unique<Impl>(lower::lower(model));
  } catch (const lower::LowerError& error) {
    throw AnalyticError(error.what());
  }
}

AnalyticEstimator::AnalyticEstimator(uml::Model&& model) {
  try {
    impl_ = std::make_unique<Impl>(lower::lower(std::move(model)));
  } catch (const lower::LowerError& error) {
    throw AnalyticError(error.what());
  }
}

AnalyticEstimator::AnalyticEstimator(lower::ModelProgramPtr program) {
  if (program == nullptr) {
    throw AnalyticError("null model program");
  }
  impl_ = std::make_unique<Impl>(std::move(program));
}

AnalyticEstimator::~AnalyticEstimator() = default;

AnalyticReport AnalyticEstimator::evaluate(
    const machine::SystemParameters& params) const {
  return impl_->evaluate(params, nullptr, nullptr);
}

AnalyticReport AnalyticEstimator::evaluate(
    const machine::SystemParameters& params,
    obs::AnalyticCounters* counters) const {
  return impl_->evaluate(params, counters, nullptr);
}

AnalyticReport AnalyticEstimator::evaluate(
    const machine::SystemParameters& params, obs::AnalyticCounters* counters,
    guard::Budget* budget) const {
  return impl_->evaluate(params, counters, budget);
}

std::vector<AnalyticReport> AnalyticEstimator::evaluate_batch(
    std::span<const machine::SystemParameters> params,
    obs::AnalyticCounters* counters, guard::Budget* budget,
    std::size_t* lanes_fallback) const {
  return impl_->evaluate_batch(params, counters, budget, lanes_fallback);
}

lower::ModelProgramPtr AnalyticEstimator::lowering() const {
  return impl_->program;
}

double AnalyticEstimator::expr_compile_seconds() const {
  return impl_->program->stats().expr_compile_seconds;
}

std::size_t AnalyticEstimator::expr_program_count() const {
  return impl_->program->stats().expr_programs;
}

}  // namespace prophet::analytic
