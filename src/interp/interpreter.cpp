#include "prophet/interp/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "prophet/expr/compile.hpp"
#include "prophet/expr/eval.hpp"

namespace prophet::interp {
namespace {

using uml::ActivityDiagram;
using uml::Node;
using uml::NodeKind;
using workload::ModelContext;

/// Integer-typed model variables truncate on assignment, exactly like the
/// `long` variables the code generator emits.
double coerce(uml::VariableType type, double value) {
  if (type == uml::VariableType::Integer) {
    return std::trunc(value);
  }
  return value;
}

/// Lexical scope of a model walker: the slot frame (copied by value so
/// fork branches and loop bodies snapshot their bindings) plus the base
/// of the per-process local storage for code-fragment writes, which
/// bypass loop shadowing exactly like the tree walker's locals map did.
struct Scope {
  std::vector<double*> frame;
  double* locals = nullptr;  // slot-indexed per-process storage, may be null
};

}  // namespace

/// Per-run state + the walking machinery over a shared immutable
/// lower::ModelProgram.  All lowering (slot space, bytecode, resolved
/// fragments) lives in the shared program; only run-level bindings and
/// the coroutine walkers live here.
struct Interpreter::Impl final : expr::UserFunctions {
  using NodePrograms = lower::NodePrograms;
  using DiagramProgram = lower::DiagramProgram;
  using CompiledAssignment = lower::CompiledAssignment;

  std::shared_ptr<const Program> program;

  // Per-run state.  Globals live in a slot-indexed array shared by all
  // modeled processes of the run; the run frame binds global and
  // structural slots for cost-function bodies and as the template every
  // process frame starts from.
  std::vector<double> global_values;
  std::vector<double*> run_frame;
  double np = 1, nt = 1, nn = 1, ppn = 1;
  mutable int call_depth = 0;
  obs::ExprCounters* expr_counters = nullptr;  // null: counting disabled
  guard::Budget* budget = nullptr;             // null: unguarded

  explicit Impl(std::shared_ptr<const Program> p) : program(std::move(p)) {
    // Pre-run frame: structural parameters at their defaults, globals
    // unbound (cost functions called before a run see exactly what the
    // tree walker's empty globals map gave them).
    global_values.assign(program->slot_count(), 0.0);
    run_frame.assign(program->slot_count(), nullptr);
    run_frame[program->np_slot()] = &np;
    run_frame[program->nt_slot()] = &nt;
    run_frame[program->nn_slot()] = &nn;
    run_frame[program->ppn_slot()] = &ppn;
  }

  // ---------------------------------------------------------------------
  // Expression evaluation
  // ---------------------------------------------------------------------

  [[nodiscard]] expr::EvalContext make_context(
      std::span<double* const> frame, int pid, int tid, int uid) const {
    expr::EvalContext ctx;
    ctx.frame = frame;
    ctx.functions = this;
    ctx.pid = static_cast<double>(pid);
    ctx.tid = static_cast<double>(tid);
    ctx.uid = static_cast<double>(uid);
    ctx.counters = expr_counters;
    ctx.budget = budget;
    return ctx;
  }

  /// expr::UserFunctions: invoked by the VM for cost-function calls.
  /// Function bodies evaluate against the run frame (globals +
  /// structural parameters) plus the call's argument span.
  [[nodiscard]] double call(int id,
                            std::span<const double> args) const override {
    if (call_depth > 64) {
      throw InterpretError("cost-function call depth exceeded (cycle?)");
    }
    ++call_depth;
    expr::EvalContext ctx;
    ctx.frame = run_frame;
    ctx.args = args;
    ctx.functions = this;
    ctx.counters = expr_counters;
    ctx.budget = budget;
    const double result = program->functions()[static_cast<std::size_t>(id)]
                              .eval(ctx);
    --call_depth;
    return result;
  }

  /// Evaluates an optional tag program; absent tags are 0.0, evaluation
  /// errors carry the node/tag context (tree-walker message format).
  [[nodiscard]] double eval_tag(const std::optional<expr::Compiled>& tag,
                                std::string_view tag_name, const Node& node,
                                int uid, const Scope& scope,
                                const ModelContext& ctx) const {
    if (!tag.has_value()) {
      return 0.0;
    }
    try {
      return tag->eval(make_context(scope.frame, ctx.pid, ctx.tid, uid));
    } catch (const expr::EvalError& error) {
      throw InterpretError("node " + node.id() + ", tag '" +
                           std::string(tag_name) + "': " + error.what());
    }
  }

  void run_fragment(const NodePrograms& programs, const Node& node,
                    Scope& scope, const ModelContext& ctx) {
    for (const auto& assignment : programs.fragment) {
      double value = 0;
      try {
        value = assignment.value.eval(
            make_context(scope.frame, ctx.pid, ctx.tid, programs.uid));
      } catch (const expr::EvalError& error) {
        throw InterpretError("code fragment at node " + node.id() + ": " +
                             error.what());
      }
      if (assignment.coerce_int) {
        value = std::trunc(value);
      }
      using Target = CompiledAssignment::Target;
      switch (assignment.target) {
        case Target::Local:
          if (scope.locals != nullptr) {
            scope.locals[assignment.slot] = value;
            continue;
          }
          break;  // no locals in scope: undeclared here
        case Target::Global:
          global_values[assignment.slot] = value;
          continue;
        case Target::Undeclared:
          break;
      }
      throw InterpretError("code fragment at node " + node.id() +
                           " assigns undeclared variable '" +
                           assignment.name + "'");
    }
  }

  // ---------------------------------------------------------------------
  // Run-time walking
  // ---------------------------------------------------------------------

  void start_run(const machine::SystemParameters& params) {
    np = params.processes;
    nt = params.threads_per_process;
    nn = params.nodes;
    ppn = params.processors_per_node;
    global_values.assign(program->slot_count(), 0.0);
    run_frame.assign(program->slot_count(), nullptr);
    run_frame[program->np_slot()] = &np;
    run_frame[program->nt_slot()] = &nt;
    run_frame[program->nn_slot()] = &nn;
    run_frame[program->ppn_slot()] = &ppn;
    // Globals initialize in declaration order and become visible one by
    // one — a forward reference falls through to the system parameters
    // or errors, exactly like the tree walker's growing globals map.
    for (const auto& variable : program->variables()) {
      if (variable.scope != uml::VariableScope::Global) {
        continue;
      }
      double value = 0;
      if (variable.initializer.has_value()) {
        value = variable.initializer->eval(make_context(run_frame, 0, 0, 0));
      }
      global_values[variable.slot] = coerce(variable.type, value);
      run_frame[variable.slot] = &global_values[variable.slot];
    }
  }

  sim::Process run_process(ModelContext ctx) {
    // Per-process locals, initialized in declaration order; the storage
    // lives in this coroutine frame for the process's whole lifetime.
    std::vector<double> local_values(program->slot_count(), 0.0);
    Scope scope;
    scope.frame = run_frame;
    scope.locals = local_values.data();
    for (const auto& variable : program->variables()) {
      if (variable.scope != uml::VariableScope::Local) {
        continue;
      }
      double value = 0;
      if (variable.initializer.has_value()) {
        value = variable.initializer->eval(
            make_context(scope.frame, ctx.pid, ctx.tid, 0));
      }
      local_values[variable.slot] = coerce(variable.type, value);
      scope.frame[variable.slot] = &local_values[variable.slot];
    }
    co_await run_diagram(ctx, program->main_diagram(), scope);
  }

  /// Walks a diagram from its initial node to a final node (or a dead
  /// end).  `scope` is taken by value: the slot frame is snapshot,
  /// locals stay shared through the storage pointers.
  sim::Process run_diagram(ModelContext ctx, const DiagramProgram& diagram,
                           Scope scope) {
    if (diagram.initial == nullptr) {
      throw InterpretError("diagram " + diagram.diagram->id() +
                           " has no initial node");
    }
    co_await walk(ctx, *diagram.diagram, *diagram.initial, scope, nullptr);
  }

  /// Walks from `start` until a Final node (stop == nullptr) or until a
  /// Join node is reached (it is written to *stop and not executed).
  /// Used both for whole diagrams and fork branches.
  sim::Process walk(ModelContext ctx, const ActivityDiagram& diagram,
                    const NodePrograms& start, Scope scope,
                    const NodePrograms** stop) {
    const NodePrograms* node = &start;
    // Guard against unstructured cycles (the checker warns; the
    // interpreter must not hang).
    std::uint64_t steps = 0;
    const std::uint64_t limit =
        1000000ULL + 1000ULL * diagram.node_count();
    while (node != nullptr) {
      if (++steps > limit) {
        throw InterpretError("diagram " + diagram.id() +
                             ": walk exceeded step limit (unstructured "
                             "cycle without <<loop+>>?)");
      }
      if (stop != nullptr && node->kind == NodeKind::Join) {
        *stop = node;
        co_return;
      }
      if (node->kind == NodeKind::Fork) {
        // Run the branches to their common join, then continue from the
        // join's successor.
        const NodePrograms* join = nullptr;
        co_await execute_fork(ctx, diagram, *node, scope, &join);
        const auto after = join->edges;
        if (after.empty()) {
          co_return;
        }
        if (after.size() > 1) {
          throw InterpretError("join " + join->node->id() +
                               " has multiple outgoing edges");
        }
        node = after[0].to;
        continue;
      }
      co_await execute_node(ctx, *node, scope);
      if (node->kind == NodeKind::Final) {
        co_return;
      }
      node = next_node(ctx, *node, scope);
    }
  }

  const NodePrograms* next_node(const ModelContext& ctx,
                                const NodePrograms& node,
                                const Scope& scope) {
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
        if (expr::truthy(edge.guard->eval(
                make_context(scope.frame, ctx.pid, ctx.tid, node.uid)))) {
          chosen = &edge;
          break;
        }
      }
      if (chosen == nullptr) {
        chosen = fallback;
      }
      if (chosen == nullptr) {
        throw InterpretError("decision " + node.node->id() +
                             ": no guard holds and no 'else' edge");
      }
      return chosen->to;
    }
    if (outgoing.empty()) {
      return nullptr;  // dead end; connectivity rule warns about this
    }
    if (outgoing.size() > 1) {
      throw InterpretError("node " + node.node->id() +
                           " has multiple unguarded outgoing edges");
    }
    return outgoing[0].to;
  }

  sim::Process execute_node(ModelContext ctx, const NodePrograms& node,
                            Scope& scope) {
    switch (node.kind) {
      case NodeKind::Initial:
      case NodeKind::Final:
      case NodeKind::Merge:
      case NodeKind::Join:
      case NodeKind::Decision:
        co_return;
      case NodeKind::Fork:
        co_return;  // handled inline by walk()
      case NodeKind::Action:
        co_await execute_action(ctx, node, scope);
        co_return;
      case NodeKind::Activity:
        co_await execute_activity(ctx, node, scope);
        co_return;
      case NodeKind::Loop:
        co_await execute_loop(ctx, node, scope);
        co_return;
    }
  }

  /// The id of a reached join, "" when a branch reached none.
  static const std::string& join_id(const NodePrograms* join) {
    static const std::string kNone;
    return join != nullptr ? join->node->id() : kNone;
  }

  sim::Process execute_fork(ModelContext ctx, const ActivityDiagram& diagram,
                            const NodePrograms& fork, Scope& scope,
                            const NodePrograms** join_out) {
    const std::string& id = fork.node->id();
    const auto outgoing = fork.edges;
    std::vector<const NodePrograms*> joins(outgoing.size(), nullptr);
    std::vector<sim::ProcessRef> branches;
    branches.reserve(outgoing.size());
    for (std::size_t i = 0; i < outgoing.size(); ++i) {
      const NodePrograms* target = outgoing[i].to;
      if (target == nullptr) {
        throw InterpretError("fork " + id + ": dangling edge");
      }
      // Branches share locals (generated code captures them by
      // reference) and snapshot the slot frame.
      branches.push_back(ctx.engine->spawn(
          walk(ctx, diagram, *target, scope, &joins[i])));
    }
    for (const auto& branch : branches) {
      co_await branch;
    }
    // Joins compare by id, so the diagnostics read exactly as before.
    for (std::size_t i = 1; i < joins.size(); ++i) {
      if (join_id(joins[i]) != join_id(joins[0])) {
        throw InterpretError("fork " + id +
                             ": branches reach different joins ('" +
                             join_id(joins[0]) + "' vs '" +
                             join_id(joins[i]) + "')");
      }
    }
    if (joins.empty() || join_id(joins[0]).empty()) {
      throw InterpretError("fork " + id + ": branches do not reach a join");
    }
    *join_out = joins[0];
  }

  sim::Process execute_action(ModelContext ctx, const NodePrograms& programs,
                              Scope& scope) {
    const Node& node = *programs.node;
    run_fragment(programs, node, scope, ctx);
    const int uid = programs.uid;
    const std::string& stereotype = node.stereotype();
    if (stereotype == uml::stereo::kActionPlus || stereotype.empty()) {
      double cost = 0;
      if (programs.cost().has_value()) {
        cost = eval_tag(programs.cost(), uml::tag::kCost, node, uid, scope,
                        ctx);
      } else if (programs.time.has_value()) {
        cost = *programs.time;
      }
      workload::ActionPlus element(ctx, node.name());
      co_await element.execute(uid, ctx.pid, ctx.tid, cost);
    } else if (stereotype == uml::stereo::kSend) {
      const int dest = static_cast<int>(eval_tag(
          programs.dest(), uml::tag::kDest, node, uid, scope, ctx));
      const double bytes = eval_tag(programs.size(), uml::tag::kSize, node,
                                    uid, scope, ctx);
      const int tag = static_cast<int>(programs.msg_tag);
      workload::SendElement element(ctx, node.name());
      co_await element.execute(uid, ctx.pid, ctx.tid, dest, bytes, tag);
    } else if (stereotype == uml::stereo::kRecv) {
      const int source = static_cast<int>(eval_tag(
          programs.source(), uml::tag::kSource, node, uid, scope, ctx));
      const double bytes = eval_tag(programs.size(), uml::tag::kSize, node,
                                    uid, scope, ctx);
      const int tag = static_cast<int>(programs.msg_tag);
      workload::RecvElement element(ctx, node.name());
      co_await element.execute(uid, ctx.pid, ctx.tid, source, bytes, tag);
    } else if (stereotype == uml::stereo::kBarrier) {
      workload::BarrierElement element(ctx, node.name());
      co_await element.execute(uid, ctx.pid, ctx.tid);
    } else if (stereotype == uml::stereo::kBroadcast ||
               stereotype == uml::stereo::kReduce ||
               stereotype == uml::stereo::kAllReduce ||
               stereotype == uml::stereo::kScatter ||
               stereotype == uml::stereo::kGather) {
      const double bytes = eval_tag(programs.size(), uml::tag::kSize, node,
                                    uid, scope, ctx);
      // An absent or empty `root` evaluates to rank 0.
      const int root = static_cast<int>(
          eval_tag(programs.root(), uml::tag::kRoot, node, uid, scope, ctx));
      workload::CollectiveElement element(ctx, node.name(),
                                          collective_kind(stereotype));
      co_await element.execute(uid, ctx.pid, ctx.tid, bytes, root);
    } else if (stereotype == uml::stereo::kOmpFor) {
      const double iterations = eval_tag(
          programs.iterations(), uml::tag::kIterations, node, uid, scope, ctx);
      const double itercost = eval_tag(
          programs.itercost(), uml::tag::kIterCost, node, uid, scope, ctx);
      const auto chunk = static_cast<std::int64_t>(programs.chunk);
      workload::WorkshareElement element(ctx, node.name());
      co_await element.execute(uid, ctx.pid, ctx.tid, iterations, itercost,
                               *programs.schedule, chunk);
    } else if (stereotype == uml::stereo::kOmpBarrier) {
      workload::OmpBarrierElement element(ctx, node.name());
      co_await element.execute(uid, ctx.pid, ctx.tid);
    } else {
      throw InterpretError("node " + node.id() + ": unsupported stereotype <<" +
                           stereotype + ">> on an action node");
    }
  }

  static workload::CollectiveKind collective_kind(
      const std::string& stereotype) {
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

  sim::Process execute_activity(ModelContext ctx,
                                const NodePrograms& programs, Scope& scope) {
    const Node& node = *programs.node;
    run_fragment(programs, node, scope, ctx);
    const int uid = programs.uid;
    const DiagramProgram* sub = programs.subdiagram;
    const std::string& stereotype = node.stereotype();
    if (stereotype == uml::stereo::kOmpParallel) {
      const int threads =
          programs.num_threads().has_value()
              ? static_cast<int>(eval_tag(programs.num_threads(),
                                          uml::tag::kNumThreads, node, uid,
                                          scope, ctx))
              : static_cast<int>(nt);
      Scope body_scope = scope;  // frame snapshot; shared locals storage
      co_await workload::parallel_region(
          ctx, threads, uid, node.name(),
          [this, sub, body_scope](ModelContext tctx) -> sim::Process {
            return run_diagram(tctx, *sub, body_scope);
          });
    } else if (stereotype == uml::stereo::kOmpCritical) {
      workload::CriticalElement element(ctx, node.name(),
                                        *programs.critical_name);
      Scope body_scope = scope;
      ModelContext body_ctx = ctx;
      co_await element.execute(uid, ctx.pid, ctx.tid,
                               [this, sub, body_scope,
                                body_ctx]() -> sim::Process {
                                 return run_diagram(body_ctx, *sub,
                                                    body_scope);
                               });
    } else {
      // <<activity+>> (or unstereotyped composite): run content inline,
      // recording a region span (ActivityPlus).
      workload::ActivityPlus element(ctx, node.name());
      const double started = element.begin(uid);
      co_await run_diagram(ctx, *sub, scope);
      element.end(uid, started);
    }
  }

  sim::Process execute_loop(ModelContext ctx, const NodePrograms& programs,
                            Scope& scope) {
    const Node& node = *programs.node;
    run_fragment(programs, node, scope, ctx);
    const DiagramProgram& body = *programs.subdiagram;
    const double raw = eval_tag(programs.iterations(), uml::tag::kIterations,
                                node, programs.uid, scope, ctx);
    if (std::isnan(raw) || raw < 0) {
      throw InterpretError("loop " + node.id() +
                           ": iteration count is negative or NaN");
    }
    const auto iterations = static_cast<std::int64_t>(raw);
    // The loop variable's storage lives in this coroutine frame; the
    // body scope's slot rebinding shadows any outer binding of the same
    // name and is dropped with the snapshot when the loop exits.
    double loop_value = 0;
    Scope iteration_scope = scope;
    iteration_scope.frame[programs.loop_var_slot] = &loop_value;
    for (std::int64_t k = 0; k < iterations; ++k) {
      // Charge every trip: a zero-cost body never yields to the engine
      // (hold(0) is ready immediately), so without this charge a spin
      // loop would be invisible to the event budget and the deadline.
      if (budget != nullptr) {
        budget->charge_loop_trips(1, "interp-loop");
      }
      loop_value = static_cast<double>(k);
      co_await run_diagram(ctx, body, iteration_scope);
    }
  }
};

std::shared_ptr<const Interpreter::Program> Interpreter::compile(
    const uml::Model& model) {
  try {
    return lower::lower(model);
  } catch (const lower::LowerError& error) {
    throw InterpretError(error.what());
  }
}

std::shared_ptr<const Interpreter::Program> Interpreter::compile(
    uml::Model&& model) {
  try {
    return lower::lower(std::move(model));
  } catch (const lower::LowerError& error) {
    throw InterpretError(error.what());
  }
}

Interpreter::Interpreter(const uml::Model& model)
    : impl_(std::make_unique<Impl>(compile(model))) {}

Interpreter::Interpreter(uml::Model&& model)
    : impl_(std::make_unique<Impl>(compile(std::move(model)))) {}

Interpreter::Interpreter(std::shared_ptr<const Program> program) {
  if (program == nullptr) {
    throw InterpretError("null program");
  }
  impl_ = std::make_unique<Impl>(std::move(program));
}

Interpreter::~Interpreter() = default;

void Interpreter::on_run_start(const machine::SystemParameters& params) {
  impl_->start_run(params);
}

sim::Process Interpreter::process_main(workload::ModelContext ctx) {
  return impl_->run_process(std::move(ctx));
}

void Interpreter::set_expr_counters(obs::ExprCounters* counters) {
  impl_->expr_counters = counters;
}

void Interpreter::set_budget(guard::Budget* budget) {
  impl_->budget = budget;
}

double Interpreter::global(const std::string& name) const {
  for (const auto& variable : impl_->program->variables()) {
    if (variable.scope == uml::VariableScope::Global &&
        variable.name == name &&
        impl_->run_frame[variable.slot] ==
            &impl_->global_values[variable.slot]) {
      // Bound == initialized by a run, matching the tree walker's
      // populate-on-start_run globals map.
      return impl_->global_values[variable.slot];
    }
  }
  throw InterpretError("unknown global '" + name + "'");
}

double Interpreter::call_cost_function(const std::string& name,
                                       const std::vector<double>& args,
                                       int pid, int tid, int uid) const {
  (void)pid;
  (void)tid;
  (void)uid;
  const auto id = impl_->program->function_id(name);
  if (!id.has_value()) {
    throw InterpretError("unknown cost function '" + name + "'");
  }
  return impl_->call(*id, args);
}

int Interpreter::uid_of(const std::string& node_id) const {
  try {
    return impl_->program->uid_of(node_id);
  } catch (const lower::LowerError& error) {
    throw InterpretError(error.what());
  }
}

}  // namespace prophet::interp
