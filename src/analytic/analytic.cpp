#include "prophet/analytic/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <sstream>
#include <tuple>
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

  /// Mutable state of one evaluate() call (evaluate is const + reentrant;
  /// everything per-run lives here, including the run-level slot frame).
  struct EvalState {
    machine::SystemParameters params;
    std::vector<double> global_values;  // slot-indexed, shared by walks
    std::vector<double*> run_frame;     // globals + structural template
    double np = 1, nt = 1, nn = 1, ppn = 1;
    std::uint64_t elements = 0;  // model elements walked
    std::uint64_t fragments_executed = 0;
    bool pid_queried = false;  // pid/tid reachable by an evaluated program
    int call_depth = 0;
    obs::AnalyticCounters* counters = nullptr;  // null: counting disabled
    guard::Budget* budget = nullptr;            // null: unguarded
  };

  /// expr::UserFunctions adapter: cost-function bodies evaluate against
  /// the run frame (globals + structural parameters) and the call's
  /// argument span, with the tree walker's recursion guard.
  struct FunctionCaller final : expr::UserFunctions {
    const Impl* impl = nullptr;
    EvalState* st = nullptr;
    [[nodiscard]] double call(int id,
                              std::span<const double> args) const override {
      if (st->call_depth > 64) {
        throw AnalyticError("cost-function call depth exceeded (cycle?)");
      }
      ++st->call_depth;
      expr::EvalContext ctx;
      ctx.frame = st->run_frame;
      ctx.args = args;
      ctx.functions = this;
      ctx.counters = st->counters != nullptr ? &st->counters->expr : nullptr;
      ctx.budget = st->budget;
      const double result =
          impl->program->functions()[static_cast<std::size_t>(id)].eval(ctx);
      --st->call_depth;
      return result;
    }
  };

  /// Mutable state of one evaluate_batch() call: the lane-structured
  /// analogue of EvalState.  Slot storage is slot-major (one lane array
  /// of `width` doubles per slot), so the run frame is exactly what
  /// expr::BatchEvalContext expects — and lane l's scalar view is every
  /// bound pointer offset by l.
  struct BatchState {
    std::span<const machine::SystemParameters> lanes;
    std::size_t width = 0;
    // Structural parameters as lane arrays (np/nt/nn/ppn per scenario).
    std::vector<double> np_lanes, nt_lanes, nn_lanes, ppn_lanes;
    std::vector<double> global_values;  // [slot * width + lane]
    std::vector<double*> run_frame;     // slot -> lane array
    std::uint64_t elements = 0;  // model elements walked (lane-uniform)
    int call_depth = 0;
    obs::AnalyticCounters* counters = nullptr;
    guard::Budget* budget = nullptr;
  };

  /// expr::BatchUserFunctions adapter: cost-function bodies evaluate
  /// against the batch run frame, batched when the vectorized VM can
  /// (call_batch) and against a single lane's scalar view when it falls
  /// back (call_lane).  Same recursion guard as FunctionCaller.
  struct BatchFunctionCaller final : expr::BatchUserFunctions {
    const Impl* impl = nullptr;
    BatchState* st = nullptr;

    void call_batch(int id, std::span<const double* const> args, double* out,
                    std::size_t width) const override {
      if (st->call_depth > 64) {
        throw AnalyticError("cost-function call depth exceeded (cycle?)");
      }
      ++st->call_depth;
      expr::BatchEvalContext ctx;
      ctx.frame = st->run_frame;
      ctx.width = width;
      ctx.args = args;
      ctx.functions = this;
      ctx.counters = st->counters != nullptr ? &st->counters->expr : nullptr;
      ctx.budget = st->budget;
      impl->program->functions()[static_cast<std::size_t>(id)].eval_batch(
          ctx, out);
      --st->call_depth;
    }

    [[nodiscard]] double call_lane(int id, std::span<const double> args,
                                   std::size_t lane) const override {
      if (st->call_depth > 64) {
        throw AnalyticError("cost-function call depth exceeded (cycle?)");
      }
      ++st->call_depth;
      // Lane view of the batch run frame: every bound slot offset by
      // `lane`, so the scalar VM sees exactly that lane's bindings.
      std::vector<double*> frame(st->run_frame.size());
      for (std::size_t slot = 0; slot < frame.size(); ++slot) {
        frame[slot] = st->run_frame[slot] != nullptr
                          ? st->run_frame[slot] + lane
                          : nullptr;
      }
      struct LaneFunctions final : expr::UserFunctions {
        const BatchFunctionCaller* parent;
        std::size_t lane;
        LaneFunctions(const BatchFunctionCaller* parent_in,
                      std::size_t lane_in)
            : parent(parent_in), lane(lane_in) {}
        [[nodiscard]] double call(
            int inner_id, std::span<const double> inner_args) const override {
          return parent->call_lane(inner_id, inner_args, lane);
        }
      };
      const LaneFunctions lane_functions(this, lane);
      expr::EvalContext ctx;
      ctx.frame = frame;
      ctx.args = args;
      ctx.functions = &lane_functions;
      ctx.counters = st->counters != nullptr ? &st->counters->expr : nullptr;
      ctx.budget = st->budget;
      const double result =
          impl->program->functions()[static_cast<std::size_t>(id)].eval(ctx);
      --st->call_depth;
      return result;
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

  /// The all-lanes-at-once attempt: one batched SPMD walk, per-lane
  /// replay/bounds.  Throws BatchDivergence (or any evaluation error)
  /// when the batch cannot proceed; evaluate_batch catches and falls
  /// back to the scalar loop.
  std::vector<AnalyticReport> evaluate_batch_fast(
      std::span<const machine::SystemParameters> lanes,
      obs::AnalyticCounters* counters, guard::Budget* budget) const;
};


namespace {

// ---------------------------------------------------------------------------
// Symbolic walk
// ---------------------------------------------------------------------------

/// Walks one process's control flow, emitting Events.  Sub-walkers (fork
/// branches, parallel-region threads, critical bodies, expectation
/// branches) share the lexical state — slot frame, locals storage, loop
/// bindings — but write to their own WalkResult so the parent can
/// aggregate elapsed/demand.  The walk is strictly sequential, so the
/// shared frame needs no snapshotting (unlike the coroutine
/// interpreter's per-scope copies).
struct Walker {
  using Impl = AnalyticEstimator::Impl;
  using EvalState = Impl::EvalState;
  using NodePrograms = Impl::NodePrograms;
  using DiagramProgram = lower::DiagramProgram;

  Walker(const Impl& impl_in, EvalState& st_in, WalkResult& out_in)
      : impl(impl_in), st(st_in), out(out_in) {}

  const Impl& impl;
  EvalState& st;
  WalkResult& out;
  int pid = 0;
  int tid = 0;
  std::vector<double*>* frame = nullptr;   // shared per-process slot frame
  double* locals = nullptr;                // slot-indexed local storage
  std::vector<LoopBinding>* bindings = nullptr;
  const Impl::FunctionCaller* functions = nullptr;
  int region_threads = 0;  // > 0 inside an <<ompparallel>> region
  bool allow_comm = true;
  bool allow_fragments = true;
  std::uint64_t* steps = nullptr;
  std::uint64_t step_limit = 0;

  /// A sub-walker for nested concurrent constructs: shares the lexical
  /// state, writes to its own result, and may not communicate.
  [[nodiscard]] Walker sub(WalkResult& sub_out) const {
    Walker walker(impl, st, sub_out);
    walker.pid = pid;
    walker.tid = tid;
    walker.frame = frame;
    walker.locals = locals;
    walker.bindings = bindings;
    walker.functions = functions;
    walker.region_threads = region_threads;
    walker.allow_comm = false;
    walker.allow_fragments = allow_fragments;
    walker.steps = steps;
    walker.step_limit = step_limit;
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

  [[nodiscard]] double eval_program(const expr::Compiled& program,
                                    int uid) const {
    if (program.may_read_pid_tid()) {
      st.pid_queried = true;
    }
    mark_loop_reads(program);
    expr::EvalContext ctx;
    ctx.frame = *frame;
    ctx.functions = functions;
    ctx.pid = static_cast<double>(pid);
    ctx.tid = static_cast<double>(tid);
    ctx.uid = static_cast<double>(uid);
    ctx.counters = st.counters != nullptr ? &st.counters->expr : nullptr;
    ctx.budget = st.budget;
    return program.eval(ctx);
  }

  /// Evaluates an optional tag program; absent tags are 0.0, evaluation
  /// errors carry the node/tag context (tree-walker message format).
  [[nodiscard]] double eval_tag(const std::optional<expr::Compiled>& tag,
                                std::string_view tag_name, const Node& node,
                                int uid) const {
    if (!tag.has_value()) {
      return 0.0;
    }
    try {
      return eval_program(*tag, uid);
    } catch (const expr::EvalError& error) {
      throw AnalyticError("node " + node.id() + ", tag '" +
                          std::string(tag_name) + "': " + error.what());
    }
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
    for (const auto& assignment : programs.fragment) {
      double value = 0;
      try {
        value = eval_program(assignment.value, programs.uid);
      } catch (const expr::EvalError& error) {
        throw AnalyticError("code fragment at node " + node.id() + ": " +
                            error.what());
      }
      if (assignment.coerce_int) {
        value = std::trunc(value);
      }
      using Target = Impl::CompiledAssignment::Target;
      switch (assignment.target) {
        case Target::Local:
          if (locals != nullptr) {
            locals[assignment.slot] = value;
            continue;
          }
          break;
        case Target::Global:
          st.global_values[assignment.slot] = value;
          continue;
        case Target::Undeclared:
          break;
      }
      throw AnalyticError("code fragment at node " + node.id() +
                          " assigns undeclared variable '" +
                          assignment.name + "'");
    }
  }

  // --- Event emission -----------------------------------------------------

  void emit_compute(double elapsed, double demand) {
    if (std::isnan(elapsed) || elapsed < 0) {
      throw AnalyticError("negative or NaN compute cost");
    }
    if (!out.events.empty() && out.events.back().kind == EvKind::Compute) {
      out.events.back().elapsed += elapsed;
      out.events.back().demand += demand;
      return;
    }
    out.events.push_back({EvKind::Compute, elapsed, demand, 0, 0, 0});
  }

  void emit_busy(double elapsed) {
    if (!out.events.empty() && out.events.back().kind == EvKind::Busy) {
      out.events.back().elapsed += elapsed;
      return;
    }
    out.events.push_back({EvKind::Busy, elapsed, 0, 0, 0, 0});
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
        double value = 0;
        try {
          value = eval_program(*edge.guard, node.uid);
        } catch (const expr::EvalError& error) {
          throw AnalyticError("guard of edge " + edge.flow->id() + ": " +
                              error.what());
        }
        if (expr::truthy(value)) {
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
    double max_elapsed = 0;
    double total_demand = 0;
    for (std::size_t i = 0; i < outgoing.size(); ++i) {
      const NodePrograms* target = outgoing[i].to;
      if (target == nullptr) {
        throw AnalyticError("fork " + id + ": dangling edge");
      }
      WalkResult branch;
      Walker walker = sub(branch);
      walker.walk(diagram, *target, NodeKind::Join, &joins[i]);
      max_elapsed = std::max(max_elapsed, sum_elapsed(branch.events));
      total_demand += sum_demand(branch.events);
      merge_criticals(branch, 1.0);
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
    emit_compute(max_elapsed, total_demand);
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
    double expected_elapsed = 0;
    double expected_demand = 0;
    for (std::size_t i = 0; i < outgoing.size(); ++i) {
      const NodePrograms* target = outgoing[i].to;
      if (target == nullptr) {
        throw AnalyticError("decision " + id + ": dangling edge");
      }
      const double weight = weights[i] / norm;
      const NodePrograms* branch_merge = nullptr;
      WalkResult branch;
      Walker walker = sub(branch);
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
      expected_elapsed += weight * sum_elapsed(branch.events);
      expected_demand += weight * sum_demand(branch.events);
      merge_criticals(branch, weight);
    }
    emit_compute(expected_elapsed, expected_demand);
    ++st.elements;  // the consumed merge
    return next_node(*merge);
  }

  void execute_action(const NodePrograms& programs) {
    const Node& node = *programs.node;
    run_fragment(programs, node);
    const int uid = programs.uid;
    const std::string& stereotype = node.stereotype();
    const auto& params = st.params;
    if (stereotype == uml::stereo::kActionPlus || stereotype.empty()) {
      double cost = 0;
      if (programs.cost().has_value()) {
        cost = eval_tag(programs.cost(), uml::tag::kCost, node, uid);
      } else if (programs.time.has_value()) {
        cost = *programs.time;
      }
      const double seconds = machine::compute_time(params, cost);
      emit_compute(seconds, seconds);
    } else if (stereotype == uml::stereo::kSend) {
      require_comm(node);
      const int dest = static_cast<int>(
          eval_tag(programs.dest(), uml::tag::kDest, node, uid));
      const double bytes = eval_tag(programs.size(), uml::tag::kSize, node,
                                    uid);
      const int tag = static_cast<int>(programs.msg_tag);
      emit_busy(params.network_overhead);
      out.events.push_back({EvKind::Send, 0, 0, bytes, dest, tag});
    } else if (stereotype == uml::stereo::kRecv) {
      require_comm(node);
      const int source = static_cast<int>(
          eval_tag(programs.source(), uml::tag::kSource, node, uid));
      const int tag = static_cast<int>(programs.msg_tag);
      out.events.push_back({EvKind::Recv, 0, 0, 0, source, tag});
    } else if (stereotype == uml::stereo::kBarrier) {
      require_comm(node);
      out.events.push_back(
          {EvKind::Barrier, machine::barrier_time(params), 0, 0, 0, 0});
    } else if (stereotype == uml::stereo::kBroadcast ||
               stereotype == uml::stereo::kReduce ||
               stereotype == uml::stereo::kAllReduce ||
               stereotype == uml::stereo::kScatter ||
               stereotype == uml::stereo::kGather) {
      require_comm(node);
      const double bytes = eval_tag(programs.size(), uml::tag::kSize, node,
                                    uid);
      const double hold = workload::CollectiveElement::model_time(
          params, collective_kind(stereotype), params.processes, bytes);
      out.events.push_back({EvKind::Barrier, hold, 0, 0, 0, 0});
    } else if (stereotype == uml::stereo::kOmpFor) {
      const double iterations =
          eval_tag(programs.iterations(), uml::tag::kIterations, node, uid);
      const double itercost =
          eval_tag(programs.itercost(), uml::tag::kIterCost, node, uid);
      const auto chunk = static_cast<std::int64_t>(programs.chunk);
      const int threads = region_threads > 0 ? region_threads : 1;
      const double compute = workload::WorkshareElement::model_compute(
          iterations, itercost, *programs.schedule, chunk, threads, tid);
      const double seconds = machine::compute_time(params, compute);
      emit_compute(seconds, seconds);
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
    if (stereotype == uml::stereo::kOmpParallel) {
      int threads = st.params.threads_per_process;
      if (programs.num_threads().has_value()) {
        threads = static_cast<int>(eval_tag(
            programs.num_threads(), uml::tag::kNumThreads, node,
            programs.uid));
      }
      if (threads < 1) {
        throw AnalyticError("parallel region at node " + node.id() +
                            ": num_threads must be >= 1");
      }
      double max_elapsed = 0;
      double total_demand = 0;
      for (int thread = 0; thread < threads; ++thread) {
        WalkResult thread_result;
        Walker walker = sub(thread_result);
        walker.tid = thread;
        walker.region_threads = threads;
        walker.run_diagram(*sub_diagram);
        max_elapsed = std::max(max_elapsed, sum_elapsed(thread_result.events));
        total_demand += sum_demand(thread_result.events);
        merge_criticals(thread_result, 1.0);
      }
      emit_compute(max_elapsed, total_demand);
    } else if (stereotype == uml::stereo::kOmpCritical) {
      const std::string& lock = *programs.critical_name;
      WalkResult body;
      Walker walker = sub(body);
      walker.run_diagram(*sub_diagram);
      // The body runs on this process's critical path; the lock-held time
      // additionally serializes against every other holder of `lock`.
      out.critical_demand[lock] += sum_elapsed(body.events);
      merge_criticals(body, 1.0);
      for (const auto& event : body.events) {
        append_event(event);
      }
    } else {
      // <<activity+>> (or unstereotyped composite): inline content.
      run_diagram(*sub_diagram);
    }
  }

  void execute_loop(const NodePrograms& programs) {
    const Node& node = *programs.node;
    run_fragment(programs, node);
    const DiagramProgram* body = programs.subdiagram;
    const double raw =
        eval_tag(programs.iterations(), uml::tag::kIterations, node,
                 programs.uid);
    if (std::isnan(raw) || raw < 0) {
      throw AnalyticError("loop " + node.id() +
                          ": iteration count is negative or NaN");
    }
    const auto iterations = static_cast<std::int64_t>(raw);
    if (iterations == 0) {
      return;
    }
    bindings->push_back({programs.loop_var_slot, false});
    double loop_value = 0;
    double* const saved = (*frame)[programs.loop_var_slot];
    (*frame)[programs.loop_var_slot] = &loop_value;

    // First iteration into a capture buffer: when the body provably does
    // not depend on the trip variable and has no side effects, the
    // remaining iterations are the first one times (n - 1) — the symbolic
    // trip-count resolution that keeps deep loop nests O(body), not
    // O(body * n).
    const std::uint64_t fragments_before = st.fragments_executed;
    WalkResult first;
    {
      Walker walker = sub(first);
      walker.allow_comm = allow_comm;
      walker.run_diagram(*body);
    }
    const bool collapsible = !bindings->back().read &&
                             st.fragments_executed == fragments_before &&
                             compute_only(first.events);
    if (collapsible && st.counters != nullptr) {
      ++st.counters->loop_collapses;
    }
    for (const auto& event : first.events) {
      append_event(event);
    }
    merge_criticals(first, 1.0);
    if (collapsible) {
      const auto rest = static_cast<double>(iterations - 1);
      emit_compute(rest * sum_elapsed(first.events),
                   rest * sum_demand(first.events));
      merge_criticals(first, rest);
    } else {
      for (std::int64_t k = 1; k < iterations; ++k) {
        // Collapsed loops are O(1) and exempt; a non-collapsible body
        // replays per trip, so each trip is charged — this is where a
        // runaway trip count trips max_loop_trips (or the deadline).
        if (st.budget != nullptr) {
          st.budget->charge_loop_trips(1, "analytic-loop");
        }
        loop_value = static_cast<double>(k);
        run_diagram(*body);
      }
    }
    (*frame)[programs.loop_var_slot] = saved;
    bindings->pop_back();
  }

  void append_event(const Event& event) {
    // Re-coalesce adjacent Compute/Busy runs when splicing sub-results.
    if (event.kind == EvKind::Compute) {
      emit_compute(event.elapsed, event.demand);
    } else if (event.kind == EvKind::Busy) {
      emit_busy(event.elapsed);
    } else {
      out.events.push_back(event);
    }
  }

  void merge_criticals(const WalkResult& from, double weight) {
    for (const auto& [name, demand] : from.critical_demand) {
      out.critical_demand[name] += weight * demand;
    }
  }

  void walk_process() {
    // Per-process locals, initialized in declaration order and bound
    // into the frame one by one (a forward reference falls through to
    // globals/system parameters, like the tree walker's growing map).
    for (const auto& variable : impl.program->variables()) {
      if (variable.scope != uml::VariableScope::Local) {
        continue;
      }
      double value = 0;
      if (variable.initializer.has_value()) {
        try {
          value = eval_program(*variable.initializer, 0);
        } catch (const expr::EvalError& error) {
          throw AnalyticError("initializer of variable " + variable.name +
                              ": " + error.what());
        }
      }
      locals[variable.slot] = coerce(variable.type, value);
      (*frame)[variable.slot] = &locals[variable.slot];
    }
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
// Batched symbolic walk
// ---------------------------------------------------------------------------

/// Internal control-flow signal: the batched walk hit lane-divergent
/// control, a construct outside the batched subset, or a condition the
/// scalar walker would diagnose with an error.  evaluate_batch catches
/// it (along with any evaluation error) and re-runs every lane through
/// the scalar path, which is always exact — errors included.  Never
/// escapes the analytic layer.
struct BatchDivergence {};

/// Walks one process's control flow across all scenario lanes at once,
/// emitting one structurally identical Event per lane per step — the
/// batched analogue of Walker, restricted to the rank-independent SPMD
/// shared walk (pid 0, every rank identical).  Transient values are lane
/// arrays; cost expressions evaluate through the vectorized expr VM
/// against the slot-major batch frame.
///
/// Supported: plain/<<action+>> compute, send/recv/barrier/collectives
/// with lane-uniform peers, <<ompfor>>/<<ompbarrier>>, guard-resolved
/// decisions with lane-uniform truthiness, <<loop+>> (lane-uniform trip
/// counts; lane-varying counts allowed when the body collapses and every
/// lane iterates at least once), and inlined <<activity+>> composites.
/// Everything else — forks, parallel regions, critical sections,
/// probabilistic decisions, code fragments, pid/tid-reading expressions
/// — raises BatchDivergence.
struct BatchWalker {
  using Impl = AnalyticEstimator::Impl;
  using BatchState = Impl::BatchState;
  using NodePrograms = Impl::NodePrograms;
  using DiagramProgram = lower::DiagramProgram;

  BatchWalker(const Impl& impl_in, BatchState& st_in,
              std::vector<WalkResult>& out_in)
      : impl(impl_in), st(st_in), out(out_in) {}

  const Impl& impl;
  BatchState& st;
  std::vector<WalkResult>& out;  // one per lane, lockstep structure
  std::vector<double*>* frame = nullptr;  // slot -> lane array
  double* locals = nullptr;               // slot-major local storage
  std::vector<LoopBinding>* bindings = nullptr;
  const Impl::BatchFunctionCaller* functions = nullptr;
  bool allow_comm = true;
  std::uint64_t* steps = nullptr;
  std::uint64_t step_limit = 0;

  [[nodiscard]] std::size_t width() const { return st.width; }

  /// A sub-walker for loop bodies: shares the lexical state, writes to
  /// its own lane results, and may not communicate (mirrors Walker::sub).
  [[nodiscard]] BatchWalker sub(std::vector<WalkResult>& sub_out) const {
    BatchWalker walker(impl, st, sub_out);
    walker.frame = frame;
    walker.locals = locals;
    walker.bindings = bindings;
    walker.functions = functions;
    walker.allow_comm = false;
    walker.steps = steps;
    walker.step_limit = step_limit;
    return walker;
  }

  // --- Expression evaluation ---------------------------------------------

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

  /// Evaluates `program` across all lanes into `out_lanes` (width
  /// doubles).  pid/tid-reading programs diverge: the batch only covers
  /// the rank-independent SPMD walk.
  void eval_program(const expr::Compiled& program, int uid,
                    double* out_lanes) const {
    if (program.may_read_pid_tid()) {
      throw BatchDivergence{};
    }
    mark_loop_reads(program);
    expr::BatchEvalContext ctx;
    ctx.frame = *frame;
    ctx.width = st.width;
    ctx.functions = functions;
    ctx.uid = static_cast<double>(uid);
    ctx.counters = st.counters != nullptr ? &st.counters->expr : nullptr;
    ctx.budget = st.budget;
    program.eval_batch(ctx, out_lanes);
  }

  /// Optional tag program across lanes; absent tags are 0.0 in every
  /// lane.  Evaluation errors propagate raw — the fallback re-runs the
  /// lanes through the scalar walker, which re-raises them with their
  /// exact node/tag context.
  void eval_tag(const std::optional<expr::Compiled>& tag, int uid,
                double* out_lanes) const {
    if (!tag.has_value()) {
      std::fill_n(out_lanes, width(), 0.0);
      return;
    }
    eval_program(*tag, uid, out_lanes);
  }

  void require_fragment_free(const NodePrograms& programs) const {
    if (!programs.fragment.empty()) {
      throw BatchDivergence{};  // fragments mutate run state per walk
    }
  }

  /// A lane-uniform integer tag (message peers must match across lanes
  /// for the lockstep event structure to hold).
  [[nodiscard]] int uniform_int(const double* lanes) const {
    const int value = static_cast<int>(lanes[0]);
    for (std::size_t lane = 1; lane < width(); ++lane) {
      if (static_cast<int>(lanes[lane]) != value) {
        throw BatchDivergence{};
      }
    }
    return value;
  }

  // --- Event emission: lockstep across lanes ------------------------------

  void emit_compute(const double* elapsed, const double* demand) {
    for (std::size_t lane = 0; lane < width(); ++lane) {
      if (std::isnan(elapsed[lane]) || elapsed[lane] < 0) {
        throw BatchDivergence{};  // scalar path raises the exact error
      }
    }
    // Every lane shares one event structure, so one coalescing decision
    // covers all of them (mirrors Walker::emit_compute per lane).
    if (!out[0].events.empty() &&
        out[0].events.back().kind == EvKind::Compute) {
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

  /// Splices per-lane sub-results, re-coalescing Compute/Busy runs like
  /// Walker::append_event (sub-results are lockstep, so event i has the
  /// same kind in every lane).
  void append_events(const std::vector<WalkResult>& from) {
    std::vector<double> elapsed(width());
    std::vector<double> demand(width());
    for (std::size_t i = 0; i < from[0].events.size(); ++i) {
      const EvKind kind = from[0].events[i].kind;
      if (kind == EvKind::Compute) {
        for (std::size_t lane = 0; lane < width(); ++lane) {
          elapsed[lane] = from[lane].events[i].elapsed;
          demand[lane] = from[lane].events[i].demand;
        }
        emit_compute(elapsed.data(), demand.data());
      } else if (kind == EvKind::Busy) {
        for (std::size_t lane = 0; lane < width(); ++lane) {
          elapsed[lane] = from[lane].events[i].elapsed;
        }
        emit_busy(elapsed.data());
      } else {
        for (std::size_t lane = 0; lane < width(); ++lane) {
          out[lane].events.push_back(from[lane].events[i]);
        }
      }
    }
  }

  // --- Control flow -------------------------------------------------------

  void run_diagram(const DiagramProgram& diagram) {
    if (diagram.initial == nullptr) {
      throw BatchDivergence{};  // scalar reports the missing initial node
    }
    walk(*diagram.initial);
  }

  /// Walks from `start` to a Final node.  Forks and probabilistic
  /// decisions diverge, so no stop-kind machinery is needed here.
  void walk(const NodePrograms& start) {
    const NodePrograms* node = &start;
    while (node != nullptr) {
      if (++*steps > step_limit) {
        throw BatchDivergence{};  // scalar raises the step-limit error
      }
      if (st.budget != nullptr && (*steps & 1023U) == 0) {
        st.budget->checkpoint("analytic-walk");
      }
      if (node->kind == NodeKind::Fork) {
        throw BatchDivergence{};
      }
      if (node->kind == NodeKind::Decision && node->probabilistic) {
        throw BatchDivergence{};
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
      std::vector<double> value(width());
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
        eval_program(*edge.guard, node.uid, value.data());
        const bool taken = expr::truthy(value[0]);
        for (std::size_t lane = 1; lane < width(); ++lane) {
          if (expr::truthy(value[lane]) != taken) {
            throw BatchDivergence{};  // lanes branch apart
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
        throw BatchDivergence{};  // scalar raises the no-guard error
      }
      return chosen->to;
    }
    if (outgoing.empty()) {
      return nullptr;
    }
    if (outgoing.size() > 1) {
      throw BatchDivergence{};
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
        return;
      case NodeKind::Fork:  // diverged by walk() before reaching here
        throw BatchDivergence{};
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

  void execute_action(const NodePrograms& programs) {
    const Node& node = *programs.node;
    require_fragment_free(programs);
    const int uid = programs.uid;
    const std::string& stereotype = node.stereotype();
    const std::size_t w = width();
    std::vector<double> value(w);
    std::vector<double> seconds(w);
    if (stereotype == uml::stereo::kActionPlus || stereotype.empty()) {
      if (programs.cost().has_value()) {
        eval_tag(programs.cost(), uid, value.data());
      } else if (programs.time.has_value()) {
        std::fill(value.begin(), value.end(), *programs.time);
      } else {
        std::fill(value.begin(), value.end(), 0.0);
      }
      for (std::size_t lane = 0; lane < w; ++lane) {
        seconds[lane] = machine::compute_time(st.lanes[lane], value[lane]);
      }
      emit_compute(seconds.data(), seconds.data());
    } else if (stereotype == uml::stereo::kSend) {
      if (!allow_comm) {
        throw BatchDivergence{};
      }
      eval_tag(programs.dest(), uid, value.data());
      const int dest = uniform_int(value.data());
      eval_tag(programs.size(), uid, value.data());  // bytes may vary
      const int tag = static_cast<int>(programs.msg_tag);
      for (std::size_t lane = 0; lane < w; ++lane) {
        seconds[lane] = st.lanes[lane].network_overhead;
      }
      emit_busy(seconds.data());
      for (std::size_t lane = 0; lane < w; ++lane) {
        out[lane].events.push_back(
            {EvKind::Send, 0, 0, value[lane], dest, tag});
      }
    } else if (stereotype == uml::stereo::kRecv) {
      if (!allow_comm) {
        throw BatchDivergence{};
      }
      eval_tag(programs.source(), uid, value.data());
      const int source = uniform_int(value.data());
      const int tag = static_cast<int>(programs.msg_tag);
      for (std::size_t lane = 0; lane < w; ++lane) {
        out[lane].events.push_back({EvKind::Recv, 0, 0, 0, source, tag});
      }
    } else if (stereotype == uml::stereo::kBarrier) {
      if (!allow_comm) {
        throw BatchDivergence{};
      }
      for (std::size_t lane = 0; lane < w; ++lane) {
        out[lane].events.push_back(
            {EvKind::Barrier, machine::barrier_time(st.lanes[lane]), 0, 0, 0,
             0});
      }
    } else if (stereotype == uml::stereo::kBroadcast ||
               stereotype == uml::stereo::kReduce ||
               stereotype == uml::stereo::kAllReduce ||
               stereotype == uml::stereo::kScatter ||
               stereotype == uml::stereo::kGather) {
      if (!allow_comm) {
        throw BatchDivergence{};
      }
      eval_tag(programs.size(), uid, value.data());
      for (std::size_t lane = 0; lane < w; ++lane) {
        const double hold = workload::CollectiveElement::model_time(
            st.lanes[lane], collective_kind(stereotype),
            st.lanes[lane].processes, value[lane]);
        out[lane].events.push_back({EvKind::Barrier, hold, 0, 0, 0, 0});
      }
    } else if (stereotype == uml::stereo::kOmpFor) {
      std::vector<double> itercost(w);
      eval_tag(programs.iterations(), uid, value.data());
      eval_tag(programs.itercost(), uid, itercost.data());
      const std::string& schedule = *programs.schedule;
      const auto chunk = static_cast<std::int64_t>(programs.chunk);
      // Parallel regions diverge, so a batched <<ompfor>> is always
      // outside one: threads = 1, tid = 0 — the scalar walker's values.
      for (std::size_t lane = 0; lane < w; ++lane) {
        const double compute = workload::WorkshareElement::model_compute(
            value[lane], itercost[lane], schedule, chunk, /*threads=*/1,
            /*tid=*/0);
        seconds[lane] = machine::compute_time(st.lanes[lane], compute);
      }
      emit_compute(seconds.data(), seconds.data());
    } else if (stereotype == uml::stereo::kOmpBarrier) {
      // No cost, exactly like the scalar walker.
    } else {
      throw BatchDivergence{};  // scalar raises the unsupported-stereotype error
    }
  }

  void execute_activity(const NodePrograms& programs) {
    require_fragment_free(programs);
    const std::string& stereotype = programs.node->stereotype();
    if (stereotype == uml::stereo::kOmpParallel ||
        stereotype == uml::stereo::kOmpCritical) {
      throw BatchDivergence{};
    }
    // <<activity+>> (or unstereotyped composite): inline content.
    run_diagram(*programs.subdiagram);
  }

  void execute_loop(const NodePrograms& programs) {
    require_fragment_free(programs);
    const DiagramProgram& body = *programs.subdiagram;
    const std::size_t w = width();
    std::vector<double> raw(w);
    eval_tag(programs.iterations(), programs.uid, raw.data());
    std::vector<std::int64_t> iterations(w);
    bool uniform = true;
    for (std::size_t lane = 0; lane < w; ++lane) {
      if (std::isnan(raw[lane]) || raw[lane] < 0) {
        throw BatchDivergence{};  // scalar raises the exact loop error
      }
      iterations[lane] = static_cast<std::int64_t>(raw[lane]);
      uniform = uniform && iterations[lane] == iterations[0];
    }
    if (uniform && iterations[0] == 0) {
      return;
    }
    if (!uniform) {
      for (const auto trips : iterations) {
        if (trips == 0) {
          throw BatchDivergence{};  // zero/nonzero mix: structure diverges
        }
      }
    }
    bindings->push_back({programs.loop_var_slot, false});
    std::vector<double> loop_lanes(w, 0.0);
    double* const saved = (*frame)[programs.loop_var_slot];
    (*frame)[programs.loop_var_slot] = loop_lanes.data();

    // First iteration into capture buffers, exactly like the scalar
    // walker: when the body never reads the trip variable and is pure
    // compute, the remaining per-lane iterations are the first one times
    // (n_lane - 1) — which also covers lane-varying trip counts, the one
    // place batched control flow may differ per lane.
    std::vector<WalkResult> first(w);
    {
      BatchWalker walker = sub(first);
      walker.allow_comm = allow_comm;
      walker.run_diagram(body);
    }
    const bool collapsible =
        !bindings->back().read && compute_only(first[0].events);
    if (!uniform && !collapsible) {
      throw BatchDivergence{};  // per-trip replay needs one shared count
    }
    if (collapsible && st.counters != nullptr) {
      ++st.counters->loop_collapses;
    }
    append_events(first);
    if (collapsible) {
      std::vector<double> elapsed(w);
      std::vector<double> demand(w);
      for (std::size_t lane = 0; lane < w; ++lane) {
        const auto rest = static_cast<double>(iterations[lane] - 1);
        elapsed[lane] = rest * sum_elapsed(first[lane].events);
        demand[lane] = rest * sum_demand(first[lane].events);
      }
      emit_compute(elapsed.data(), demand.data());
    } else {
      for (std::int64_t k = 1; k < iterations[0]; ++k) {
        if (st.budget != nullptr) {
          st.budget->charge_loop_trips(1, "analytic-loop");
        }
        std::fill(loop_lanes.begin(), loop_lanes.end(),
                  static_cast<double>(k));
        run_diagram(body);
      }
    }
    (*frame)[programs.loop_var_slot] = saved;
    bindings->pop_back();
  }

  void walk_process() {
    // Per-process locals, initialized in declaration order across lanes
    // and bound into the frame one by one (scalar walk_process order).
    std::vector<double> value(width());
    for (const auto& variable : impl.program->variables()) {
      if (variable.scope != uml::VariableScope::Local) {
        continue;
      }
      if (variable.initializer.has_value()) {
        eval_program(*variable.initializer, 0, value.data());
      } else {
        std::fill(value.begin(), value.end(), 0.0);
      }
      for (std::size_t lane = 0; lane < width(); ++lane) {
        locals[variable.slot * width() + lane] =
            coerce(variable.type, value[lane]);
      }
      (*frame)[variable.slot] = &locals[variable.slot * width()];
    }
    run_diagram(impl.program->main_diagram());
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Impl::evaluate — walk, replay, bound
// ---------------------------------------------------------------------------

AnalyticReport AnalyticEstimator::Impl::evaluate(
    const machine::SystemParameters& params, obs::AnalyticCounters* counters,
    guard::Budget* budget) const {
  params.validate();
  EvalState st;
  st.counters = counters;
  st.budget = budget;
  st.params = params;
  st.np = static_cast<double>(params.processes);
  st.nt = static_cast<double>(params.threads_per_process);
  st.nn = static_cast<double>(params.nodes);
  st.ppn = static_cast<double>(params.processors_per_node);
  st.global_values.assign(program->slot_count(), 0.0);
  st.run_frame.assign(program->slot_count(), nullptr);
  st.run_frame[program->np_slot()] = &st.np;
  st.run_frame[program->nt_slot()] = &st.nt;
  st.run_frame[program->nn_slot()] = &st.nn;
  st.run_frame[program->ppn_slot()] = &st.ppn;
  FunctionCaller functions;
  functions.impl = this;
  functions.st = &st;

  // Global variables, initialized in declaration order and bound into
  // the run frame one by one (interpreter start_run semantics).
  for (const auto& variable : program->variables()) {
    if (variable.scope != uml::VariableScope::Global) {
      continue;
    }
    double value = 0;
    if (variable.initializer.has_value()) {
      expr::EvalContext ctx;
      ctx.frame = st.run_frame;
      ctx.functions = &functions;
      ctx.counters = counters != nullptr ? &counters->expr : nullptr;
      ctx.budget = budget;
      try {
        value = variable.initializer->eval(ctx);
      } catch (const expr::EvalError& error) {
        throw AnalyticError("initializer of variable " + variable.name +
                            ": " + error.what());
      }
    }
    st.global_values[variable.slot] = coerce(variable.type, value);
    st.run_frame[variable.slot] = &st.global_values[variable.slot];
  }

  const int np = params.processes;
  std::vector<WalkResult> storage;
  storage.reserve(static_cast<std::size_t>(np));
  std::vector<const WalkResult*> per_pid(static_cast<std::size_t>(np));

  const auto walk_one = [&](int pid) -> WalkResult {
    WalkResult result;
    std::vector<double> locals(program->slot_count(), 0.0);
    std::vector<double*> frame = st.run_frame;  // per-process frame
    std::vector<LoopBinding> bindings;
    std::uint64_t steps = 0;
    Walker walker(*this, st, result);
    walker.pid = pid;
    walker.frame = &frame;
    walker.locals = locals.data();
    walker.bindings = &bindings;
    walker.functions = &functions;
    walker.steps = &steps;
    walker.step_limit = 1000000ULL + 1000ULL * program->stats().nodes;
    walker.walk_process();
    return result;
  };

  st.pid_queried = false;
  const std::uint64_t fragments_before = st.fragments_executed;
  storage.push_back(walk_one(0));
  if (!st.pid_queried && st.fragments_executed == fragments_before) {
    // The walk is process-independent (no pid/tid reads, no state
    // mutation): every process repeats the same timeline, so one walk
    // serves all np — the SPMD fast path that makes grid sweeps cheap.
    if (counters != nullptr) {
      ++counters->spmd_fast_path;
    }
    for (int pid = 0; pid < np; ++pid) {
      per_pid[static_cast<std::size_t>(pid)] = &storage[0];
    }
  } else {
    for (int pid = 1; pid < np; ++pid) {
      storage.push_back(walk_one(pid));
    }
    for (int pid = 0; pid < np; ++pid) {
      per_pid[static_cast<std::size_t>(pid)] =
          &storage[static_cast<std::size_t>(pid)];
    }
  }

  ReplayScratch scratch;
  return assemble_report(params, per_pid, st.elements, counters, budget,
                         scratch);
}

// ---------------------------------------------------------------------------
// Impl::evaluate_batch — one batched walk, per-lane finalize
// ---------------------------------------------------------------------------

std::vector<AnalyticReport> AnalyticEstimator::Impl::evaluate_batch(
    std::span<const machine::SystemParameters> lanes,
    obs::AnalyticCounters* counters, guard::Budget* budget,
    std::size_t* lanes_fallback) const {
  if (lanes.size() > 1) {
    try {
      return evaluate_batch_fast(lanes, counters, budget);
    } catch (const guard::GuardError&) {
      throw;  // tripped budgets propagate — retrying would double-charge
    } catch (...) {
      // Divergence or a lane error: the scalar loop below re-evaluates
      // every lane exactly, raising any error with its scalar message.
      if (lanes_fallback != nullptr) {
        *lanes_fallback += lanes.size();
      }
    }
  }
  std::vector<AnalyticReport> reports;
  reports.reserve(lanes.size());
  for (const auto& params : lanes) {
    reports.push_back(evaluate(params, counters, budget));
  }
  return reports;
}

std::vector<AnalyticReport> AnalyticEstimator::Impl::evaluate_batch_fast(
    std::span<const machine::SystemParameters> lanes,
    obs::AnalyticCounters* counters, guard::Budget* budget) const {
  const std::size_t width = lanes.size();
  for (const auto& params : lanes) {
    params.validate();
  }
  BatchState st;
  st.lanes = lanes;
  st.width = width;
  st.counters = counters;
  st.budget = budget;
  st.np_lanes.resize(width);
  st.nt_lanes.resize(width);
  st.nn_lanes.resize(width);
  st.ppn_lanes.resize(width);
  for (std::size_t lane = 0; lane < width; ++lane) {
    st.np_lanes[lane] = static_cast<double>(lanes[lane].processes);
    st.nt_lanes[lane] =
        static_cast<double>(lanes[lane].threads_per_process);
    st.nn_lanes[lane] = static_cast<double>(lanes[lane].nodes);
    st.ppn_lanes[lane] =
        static_cast<double>(lanes[lane].processors_per_node);
  }
  st.global_values.assign(program->slot_count() * width, 0.0);
  st.run_frame.assign(program->slot_count(), nullptr);
  st.run_frame[program->np_slot()] = st.np_lanes.data();
  st.run_frame[program->nt_slot()] = st.nt_lanes.data();
  st.run_frame[program->nn_slot()] = st.nn_lanes.data();
  st.run_frame[program->ppn_slot()] = st.ppn_lanes.data();
  BatchFunctionCaller functions;
  functions.impl = this;
  functions.st = &st;

  // Global variables across lanes, initialized in declaration order and
  // bound one by one (identical semantics to the scalar init loop; the
  // scalar path evaluates them with pid = tid = 0 too).
  std::vector<double> value(width);
  for (const auto& variable : program->variables()) {
    if (variable.scope != uml::VariableScope::Global) {
      continue;
    }
    if (variable.initializer.has_value()) {
      expr::BatchEvalContext ctx;
      ctx.frame = st.run_frame;
      ctx.width = width;
      ctx.functions = &functions;
      ctx.counters = counters != nullptr ? &counters->expr : nullptr;
      ctx.budget = budget;
      variable.initializer->eval_batch(ctx, value.data());
    } else {
      std::fill(value.begin(), value.end(), 0.0);
    }
    for (std::size_t lane = 0; lane < width; ++lane) {
      st.global_values[variable.slot * width + lane] =
          coerce(variable.type, value[lane]);
    }
    st.run_frame[variable.slot] = &st.global_values[variable.slot * width];
  }

  // One batched walk covers every lane AND every rank: pid/tid reads and
  // fragments diverge inside, so a walk that completes is exactly the
  // walk the scalar SPMD fast path would share across all processes.
  std::vector<WalkResult> lane_results(width);
  std::vector<double> locals(program->slot_count() * width, 0.0);
  std::vector<double*> frame = st.run_frame;
  std::vector<LoopBinding> bindings;
  std::uint64_t steps = 0;
  BatchWalker walker(*this, st, lane_results);
  walker.frame = &frame;
  walker.locals = locals.data();
  walker.bindings = &bindings;
  walker.functions = &functions;
  walker.steps = &steps;
  walker.step_limit = 1000000ULL + 1000ULL * program->stats().nodes;
  walker.walk_process();

  std::vector<AnalyticReport> reports;
  reports.reserve(width);
  // One scratch (and one per-pid pointer table) serves every lane's
  // finalize — the replay working set recurs, so after the first lane
  // the per-lane heap traffic is just the report itself.
  ReplayScratch scratch;
  std::vector<const WalkResult*> per_pid;
  for (std::size_t lane = 0; lane < width; ++lane) {
    if (counters != nullptr) {
      ++counters->spmd_fast_path;  // one shared walk per lane, as scalar
    }
    per_pid.assign(static_cast<std::size_t>(lanes[lane].processes),
                   &lane_results[lane]);
    reports.push_back(assemble_report(lanes[lane], per_pid, st.elements,
                                      counters, budget, scratch));
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
