#include "prophet/codegen/transformer.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "prophet/expr/analysis.hpp"
#include "prophet/expr/cppgen.hpp"
#include "prophet/expr/parser.hpp"
#include "prophet/uml/index.hpp"
#include "prophet/uml/sysparams.hpp"

namespace prophet::codegen {
namespace {

using uml::ActivityDiagram;
using uml::ControlFlow;
using uml::DiagramIndex;
using uml::Model;
using uml::Node;
using uml::NodeKind;

/// Parses a tag expression; wraps syntax errors in TransformError.
expr::ExprPtr parse_expr(const std::string& text, const std::string& where) {
  try {
    return expr::parse(text);
  } catch (const expr::SyntaxError& error) {
    throw TransformError(where + ": " + error.what());
  }
}

/// Replaces references to the variable `uid` with the element's numeric
/// uid — the generated code passes uids as literals.
expr::ExprPtr substitute_uid(const expr::Expr& expression, int uid) {
  switch (expression.kind()) {
    case expr::ExprKind::Variable: {
      const auto& variable =
          static_cast<const expr::VariableExpr&>(expression);
      if (variable.name() == uml::sysparam::kElementUid) {
        return std::make_unique<expr::NumberExpr>(static_cast<double>(uid));
      }
      return expression.clone();
    }
    case expr::ExprKind::Number:
      return expression.clone();
    case expr::ExprKind::Unary: {
      const auto& unary = static_cast<const expr::UnaryExpr&>(expression);
      return std::make_unique<expr::UnaryExpr>(
          unary.op(), substitute_uid(unary.operand(), uid));
    }
    case expr::ExprKind::Binary: {
      const auto& binary = static_cast<const expr::BinaryExpr&>(expression);
      return std::make_unique<expr::BinaryExpr>(
          binary.op(), substitute_uid(binary.lhs(), uid),
          substitute_uid(binary.rhs(), uid));
    }
    case expr::ExprKind::Call: {
      const auto& call = static_cast<const expr::CallExpr&>(expression);
      std::vector<expr::ExprPtr> args;
      args.reserve(call.args().size());
      for (const auto& arg : call.args()) {
        args.push_back(substitute_uid(*arg, uid));
      }
      return std::make_unique<expr::CallExpr>(call.callee(), std::move(args));
    }
    case expr::ExprKind::Conditional: {
      const auto& cond =
          static_cast<const expr::ConditionalExpr&>(expression);
      return std::make_unique<expr::ConditionalExpr>(
          substitute_uid(cond.cond(), uid),
          substitute_uid(cond.then_branch(), uid),
          substitute_uid(cond.else_branch(), uid));
    }
  }
  return expression.clone();
}

/// Runtime class for a stereotype's declaration (Fig. 5 line 26:
/// "identify the type of element").  Empty for structural stereotypes
/// (activity+, loop+, ompparallel) that map to control flow, not objects.
std::string runtime_class(const Node& node) {
  const std::string& stereotype = node.stereotype();
  if (stereotype == uml::stereo::kActionPlus) {
    return "ActionPlus";
  }
  if (stereotype == uml::stereo::kSend) {
    return "SendElement";
  }
  if (stereotype == uml::stereo::kRecv) {
    return "RecvElement";
  }
  if (stereotype == uml::stereo::kBarrier) {
    return "BarrierElement";
  }
  if (stereotype == uml::stereo::kBroadcast ||
      stereotype == uml::stereo::kReduce ||
      stereotype == uml::stereo::kAllReduce ||
      stereotype == uml::stereo::kScatter ||
      stereotype == uml::stereo::kGather) {
    return "CollectiveElement";
  }
  if (stereotype == uml::stereo::kOmpFor) {
    return "WorkshareElement";
  }
  if (stereotype == uml::stereo::kOmpBarrier) {
    return "OmpBarrierElement";
  }
  if (stereotype == uml::stereo::kOmpCritical) {
    return "CriticalElement";
  }
  return {};
}

std::string collective_kind_cpp(const std::string& stereotype) {
  if (stereotype == uml::stereo::kBroadcast) {
    return "prophet::workload::CollectiveKind::Broadcast";
  }
  if (stereotype == uml::stereo::kReduce) {
    return "prophet::workload::CollectiveKind::Reduce";
  }
  if (stereotype == uml::stereo::kAllReduce) {
    return "prophet::workload::CollectiveKind::AllReduce";
  }
  if (stereotype == uml::stereo::kScatter) {
    return "prophet::workload::CollectiveKind::Scatter";
  }
  return "prophet::workload::CollectiveKind::Gather";
}

std::string variable_cpp_type(uml::VariableType type) {
  return type == uml::VariableType::Integer ? "long" : "double";
}

std::string initializer_cpp(const uml::Variable& variable) {
  if (variable.initializer.empty()) {
    return variable.type == uml::VariableType::Integer ? "0" : "0.0";
  }
  const auto parsed = parse_expr(variable.initializer,
                                 "initializer of variable " + variable.name);
  std::string value = expr::to_cpp(*parsed);
  if (variable.type == uml::VariableType::Integer) {
    return "static_cast<long>(" + value + ")";
  }
  return value;
}

/// Per-transformation context: uid assignment (identical algorithm to the
/// interpreter's, so differential tests see the same uids) and the
/// declared C++ identifier of each element.
struct Context {
  const Model* model = nullptr;
  std::map<std::string, int> uids;           // node id -> numeric uid
  std::map<std::string, std::string> names;  // node id -> C++ identifier
  uml::ModelIndex graphs;                    // one per transformation

  explicit Context(const Model& m) : model(&m), graphs(m) {
    std::set<int> claimed;
    for (const auto& diagram : m.diagrams()) {
      for (const auto& node : diagram->nodes()) {
        if (auto id = node->tag(uml::tag::kId)) {
          if (const auto* value = std::get_if<std::int64_t>(&*id)) {
            uids[node->id()] = static_cast<int>(*value);
            claimed.insert(static_cast<int>(*value));
          }
        }
      }
    }
    int next = 1;
    std::set<std::string> used_names;
    for (const auto& diagram : m.diagrams()) {
      for (const auto& node : diagram->nodes()) {
        if (uids.find(node->id()) == uids.end()) {
          while (claimed.find(next) != claimed.end()) {
            ++next;
          }
          uids[node->id()] = next;
          claimed.insert(next);
        }
        if (!node->has_stereotype()) {
          continue;
        }
        std::string name = sanitize_identifier(node->name());
        if (!used_names.insert(name).second) {
          // Disambiguate duplicates with the element id (Fig. 4's mapping
          // assumes distinct names; the element-names rule warns).
          name += "_" + node->id();
          used_names.insert(name);
        }
        names[node->id()] = std::move(name);
      }
    }
  }

  [[nodiscard]] int uid(const Node& node) const { return uids.at(node.id()); }
  [[nodiscard]] const std::string& name(const Node& node) const {
    return names.at(node.id());
  }

  /// Tag expression rendered as C++ (with uid substituted).
  [[nodiscard]] std::string tag_cpp(const Node& node,
                                    std::string_view tag) const {
    const std::string text = node.tag_string(tag);
    if (text.empty()) {
      throw TransformError("node " + node.id() + " lacks expression tag '" +
                           std::string(tag) + "'");
    }
    const auto parsed = parse_expr(text, "node " + node.id() + " tag '" +
                                             std::string(tag) + "'");
    return expr::to_cpp(*substitute_uid(*parsed, uid(node)));
  }

  /// Declaration line for a performance element (Fig. 5 lines 24-28).
  [[nodiscard]] std::string declaration(const Node& node) const {
    const std::string type = runtime_class(node);
    if (type.empty()) {
      return {};
    }
    if (type == "CollectiveElement") {
      return type + " " + name(node) + "(ctx, \"" + node.name() + "\", " +
             collective_kind_cpp(node.stereotype()) + ");";
    }
    if (type == "CriticalElement") {
      std::string lock = node.tag_string(uml::tag::kCriticalName);
      if (lock.empty()) {
        lock = "default";
      }
      return type + " " + name(node) + "(ctx, \"" + node.name() + "\", \"" +
             lock + "\");";
    }
    return type + " " + name(node) + "(ctx, \"" + node.name() + "\");";
  }
};

/// Diagrams executed in one context domain: start at `root`, follow
/// composite references (activity+, loop+, ompcritical) but stop at
/// ompparallel bodies — they run with a thread context and form their own
/// domain whose declarations live inside the region lambda.
std::set<std::string> domain_diagrams(const Model& model,
                                      const std::string& root) {
  std::set<std::string> domain;
  std::vector<std::string> frontier{root};
  while (!frontier.empty()) {
    const std::string id = std::move(frontier.back());
    frontier.pop_back();
    if (!domain.insert(id).second) {
      continue;
    }
    const ActivityDiagram* diagram = model.diagram(id);
    if (diagram == nullptr) {
      continue;
    }
    for (const auto& node : diagram->nodes()) {
      const std::string sub = node->subdiagram_id();
      if (sub.empty() || node->stereotype() == uml::stereo::kOmpParallel) {
        continue;
      }
      frontier.push_back(sub);
    }
  }
  return domain;
}

/// The target of an edge the flow must follow.
const Node* follow(const DiagramIndex::Link& link) {
  if (link.target == nullptr) {
    throw TransformError("edge " + link.flow->id() + " has dangling target");
  }
  return link.target;
}

/// The structural successor of a node through its single unguarded edge.
const Node* successor(const DiagramIndex& graph, const Node& node) {
  const auto outgoing = graph.out_links(node.id());
  if (outgoing.empty()) {
    return nullptr;
  }
  if (outgoing.size() > 1) {
    throw TransformError("node " + node.id() +
                         " has multiple outgoing edges but is neither a "
                         "decision nor a fork");
  }
  return follow(*outgoing[0]);
}

const Node* find_merge(const DiagramIndex& graph, const Node& decision,
                       int depth = 0);
const Node* find_join(const DiagramIndex& graph, const Node& fork,
                      int depth = 0);

constexpr int kMaxStructureDepth = 256;

[[noreturn]] void fail_cyclic(const DiagramIndex& graph) {
  throw TransformError(
      "diagram " + graph.diagram().id() +
      ": cyclic or unboundedly nested control flow; model loops with "
      "<<loop+>> instead of back edges");
}

/// Follows a branch structurally (skipping nested structured regions) and
/// returns the first Merge encountered, or nullptr when the branch
/// terminates at a Final / dead end.
const Node* branch_merge(const DiagramIndex& graph, const Node* node,
                         int depth) {
  int guard_budget = 100000;
  while (node != nullptr) {
    if (--guard_budget < 0) {
      fail_cyclic(graph);
    }
    switch (node->kind()) {
      case NodeKind::Merge:
        return node;
      case NodeKind::Final:
        return nullptr;
      case NodeKind::Decision: {
        const Node* merge = find_merge(graph, *node, depth + 1);
        if (merge == nullptr) {
          return nullptr;  // all inner branches terminate
        }
        node = successor(graph, *merge);
        break;
      }
      case NodeKind::Fork: {
        const Node* join = find_join(graph, *node, depth + 1);
        node = successor(graph, *join);
        break;
      }
      default:
        node = successor(graph, *node);
        break;
    }
  }
  return nullptr;
}

const Node* find_merge(const DiagramIndex& graph, const Node& decision,
                       int depth) {
  if (depth > kMaxStructureDepth) {
    fail_cyclic(graph);
  }
  const Node* merge = nullptr;
  bool first = true;
  for (const auto* link : graph.out_links(decision.id())) {
    const Node* branch = branch_merge(graph, follow(*link), depth);
    if (first) {
      merge = branch;
      first = false;
    } else if (branch != nullptr && merge != nullptr && branch != merge) {
      throw TransformError("decision " + decision.id() +
                           ": branches converge on different merge nodes");
    } else if (merge == nullptr) {
      merge = branch;
    }
  }
  return merge;
}

/// Follows a fork branch to the first Join.
const Node* branch_join(const DiagramIndex& graph, const Node* node,
                        int depth) {
  int guard_budget = 100000;
  while (node != nullptr) {
    if (--guard_budget < 0) {
      fail_cyclic(graph);
    }
    switch (node->kind()) {
      case NodeKind::Join:
        return node;
      case NodeKind::Final:
        return nullptr;
      case NodeKind::Decision: {
        const Node* merge = find_merge(graph, *node, depth + 1);
        if (merge == nullptr) {
          return nullptr;
        }
        node = successor(graph, *merge);
        break;
      }
      case NodeKind::Fork: {
        const Node* join = find_join(graph, *node, depth + 1);
        node = successor(graph, *join);
        break;
      }
      default:
        node = successor(graph, *node);
        break;
    }
  }
  return nullptr;
}

const Node* find_join(const DiagramIndex& graph, const Node& fork, int depth) {
  if (depth > kMaxStructureDepth) {
    fail_cyclic(graph);
  }
  const Node* join = nullptr;
  bool first = true;
  for (const auto* link : graph.out_links(fork.id())) {
    const Node* branch = branch_join(graph, follow(*link), depth);
    if (branch == nullptr) {
      throw TransformError("fork " + fork.id() +
                           ": a branch does not reach a join");
    }
    if (first) {
      join = branch;
      first = false;
    } else if (branch != join) {
      throw TransformError("fork " + fork.id() +
                           ": branches reach different join nodes");
    }
  }
  if (join == nullptr) {
    throw TransformError("fork " + fork.id() + " has no outgoing edges");
  }
  return join;
}

/// Emits the execution flow of one diagram (Fig. 5 lines 29-35).
class FlowEmitter {
 public:
  FlowEmitter(const Context& ctx, CppEmitter& out) : ctx_(&ctx), out_(&out) {}

  void emit_diagram(const ActivityDiagram& diagram) {
    const DiagramIndex& graph = ctx_->graphs.at(diagram);
    const Node* initial = graph.initial();
    if (initial == nullptr) {
      throw TransformError("diagram " + diagram.id() +
                           " has no initial node");
    }
    emit_until(graph, successor(graph, *initial), nullptr);
  }

 private:
  /// Emits nodes from `node` until reaching `stop` (exclusive), a Final
  /// node, or a dead end.
  void emit_until(const DiagramIndex& graph, const Node* node,
                  const Node* stop) {
    while (node != nullptr && node != stop &&
           node->kind() != NodeKind::Final) {
      node = emit_node(graph, *node, stop);
    }
  }

  /// Emits one construct; returns the node where emission continues.
  const Node* emit_node(const DiagramIndex& graph, const Node& node,
                        const Node* stop) {
    switch (node.kind()) {
      case NodeKind::Initial:
      case NodeKind::Final:
        return nullptr;
      case NodeKind::Merge:
      case NodeKind::Join:
        return successor(graph, node);
      case NodeKind::Action:
        emit_fragment(node);
        emit_action(node);
        return successor(graph, node);
      case NodeKind::Activity:
        emit_fragment(node);
        emit_activity(node);
        return successor(graph, node);
      case NodeKind::Loop:
        emit_fragment(node);
        emit_loop(node);
        return successor(graph, node);
      case NodeKind::Decision:
        return emit_decision(graph, node, stop);
      case NodeKind::Fork:
        return emit_fork(graph, node);
    }
    return nullptr;
  }

  void emit_fragment(const Node& node) {
    if (!node.has_tag(uml::tag::kCode)) {
      return;
    }
    const std::string code = node.tag_string(uml::tag::kCode);
    if (code.empty()) {
      return;
    }
    out_->line("// code associated with " + node.name());
    // Re-emit the fragment's assignments through the expression C++
    // emitter so cost-language operators (e.g. %) keep their semantics.
    std::size_t start = 0;
    while (start < code.size()) {
      auto end = code.find(';', start);
      if (end == std::string::npos) {
        end = code.size();
      }
      std::string statement = code.substr(start, end - start);
      start = end + 1;
      const auto first = statement.find_first_not_of(" \t\r\n");
      if (first == std::string::npos) {
        continue;
      }
      const auto last = statement.find_last_not_of(" \t\r\n");
      statement = statement.substr(first, last - first + 1);
      const auto equals = statement.find('=');
      if (equals == std::string::npos || equals + 1 >= statement.size() ||
          statement[equals + 1] == '=') {
        throw TransformError("code fragment at node " + node.id() +
                             ": statement '" + statement +
                             "' is not an assignment");
      }
      std::string target = statement.substr(0, equals);
      target = target.substr(0, target.find_last_not_of(" \t\r\n") + 1);
      const auto value = parse_expr(statement.substr(equals + 1),
                                    "code fragment at node " + node.id());
      out_->line(target + " = " +
                 expr::to_cpp(*substitute_uid(*value, ctx_->uid(node))) +
                 ";");
    }
  }

  void emit_action(const Node& node) {
    const std::string& name = ctx_->name(node);
    const std::string uid = std::to_string(ctx_->uid(node));
    const std::string& stereotype = node.stereotype();
    if (stereotype == uml::stereo::kActionPlus) {
      std::string cost = "0.0";
      if (node.has_tag(uml::tag::kCost) &&
          !node.tag_string(uml::tag::kCost).empty()) {
        cost = ctx_->tag_cpp(node, uml::tag::kCost);
      } else if (auto time = node.tag_number(uml::tag::kTime)) {
        std::ostringstream formatted;
        formatted.precision(17);
        formatted << *time;
        cost = formatted.str();
      }
      out_->line("co_await " + name + ".execute(" + uid + ", pid, tid, " +
                 cost + ");");
    } else if (stereotype == uml::stereo::kSend) {
      out_->line("co_await " + name + ".execute(" + uid +
                 ", pid, tid, static_cast<int>(" +
                 ctx_->tag_cpp(node, uml::tag::kDest) + "), " +
                 ctx_->tag_cpp(node, uml::tag::kSize) + ", " +
                 std::to_string(static_cast<int>(
                     node.tag_number(uml::tag::kMsgTag).value_or(0))) +
                 ");");
    } else if (stereotype == uml::stereo::kRecv) {
      out_->line("co_await " + name + ".execute(" + uid +
                 ", pid, tid, static_cast<int>(" +
                 ctx_->tag_cpp(node, uml::tag::kSource) + "), " +
                 ctx_->tag_cpp(node, uml::tag::kSize) + ", " +
                 std::to_string(static_cast<int>(
                     node.tag_number(uml::tag::kMsgTag).value_or(0))) +
                 ");");
    } else if (stereotype == uml::stereo::kBarrier ||
               stereotype == uml::stereo::kOmpBarrier) {
      out_->line("co_await " + name + ".execute(" + uid + ", pid, tid);");
    } else if (stereotype == uml::stereo::kBroadcast ||
               stereotype == uml::stereo::kReduce ||
               stereotype == uml::stereo::kAllReduce ||
               stereotype == uml::stereo::kScatter ||
               stereotype == uml::stereo::kGather) {
      const std::string root =
          node.has_tag(uml::tag::kRoot) &&
                  !node.tag_string(uml::tag::kRoot).empty()
              ? "static_cast<int>(" + ctx_->tag_cpp(node, uml::tag::kRoot) +
                    ")"
              : "0";
      out_->line("co_await " + name + ".execute(" + uid + ", pid, tid, " +
                 ctx_->tag_cpp(node, uml::tag::kSize) + ", " + root + ");");
    } else if (stereotype == uml::stereo::kOmpFor) {
      std::string schedule = node.tag_string(uml::tag::kSchedule);
      if (schedule.empty()) {
        schedule = "static";
      }
      out_->line("co_await " + name + ".execute(" + uid + ", pid, tid, " +
                 ctx_->tag_cpp(node, uml::tag::kIterations) + ", " +
                 ctx_->tag_cpp(node, uml::tag::kIterCost) + ", \"" +
                 schedule + "\", " +
                 std::to_string(static_cast<long>(
                     node.tag_number(uml::tag::kChunk).value_or(0))) +
                 ");");
    } else {
      throw TransformError("node " + node.id() +
                           ": unsupported stereotype <<" + stereotype +
                           ">> on an action node");
    }
  }

  void emit_activity(const Node& node) {
    const ActivityDiagram* sub = ctx_->model->diagram(node.subdiagram_id());
    if (sub == nullptr) {
      throw TransformError("node " + node.id() +
                           " references unknown diagram '" +
                           node.subdiagram_id() + "'");
    }
    const std::string& stereotype = node.stereotype();
    if (stereotype == uml::stereo::kOmpParallel) {
      std::string threads = "static_cast<int>(nt)";
      if (node.has_tag(uml::tag::kNumThreads) &&
          !node.tag_string(uml::tag::kNumThreads).empty()) {
        threads = "static_cast<int>(" +
                  ctx_->tag_cpp(node, uml::tag::kNumThreads) + ")";
      }
      out_->open("co_await prophet::workload::parallel_region(ctx, " +
                 threads + ", " + std::to_string(ctx_->uid(node)) + ", \"" +
                 node.name() + "\",");
      out_->open(
          "[&](prophet::workload::ModelContext ctx) -> prophet::sim::Process "
          "{");
      out_->line("const int tid = ctx.tid;  // thread-private id");
      // Elements of the region's domain execute with the thread context,
      // so their declarations live here, not at function scope.
      emit_domain_declarations(*sub);
      emit_diagram(*sub);
      out_->line("co_return;");
      out_->close(");");
      out_->dedent();  // balance the call-expression open()
    } else if (stereotype == uml::stereo::kOmpCritical) {
      out_->open("co_await " + ctx_->name(node) + ".execute(" +
                 std::to_string(ctx_->uid(node)) + ", pid, tid,");
      out_->open("[&]() -> prophet::sim::Process {");
      emit_diagram(*sub);
      out_->line("co_return;");
      out_->close(");");
      out_->dedent();
    } else {
      // <<activity+>>: the content nests within the enclosing flow as a
      // block (Fig. 8b lines 79-82).
      out_->line("{  // activity " + node.name());
      out_->indent();
      emit_diagram(*sub);
      out_->close();
    }
  }

  void emit_domain_declarations(const ActivityDiagram& root) {
    for (const auto& id : domain_diagrams(*ctx_->model, root.id())) {
      const ActivityDiagram* diagram = ctx_->model->diagram(id);
      if (diagram == nullptr) {
        continue;
      }
      for (const auto& node : diagram->nodes()) {
        if (!node->has_stereotype()) {
          continue;
        }
        const std::string declaration = ctx_->declaration(*node);
        if (!declaration.empty()) {
          out_->line(declaration);
        }
      }
    }
  }

  void emit_loop(const Node& node) {
    const ActivityDiagram* sub = ctx_->model->diagram(node.subdiagram_id());
    if (sub == nullptr) {
      throw TransformError("node " + node.id() +
                           " references unknown diagram '" +
                           node.subdiagram_id() + "'");
    }
    std::string var = node.tag_string(uml::tag::kLoopVar);
    if (var.empty()) {
      var = "i";
    }
    out_->open("for (double " + var + " = 0; " + var + " < (" +
               ctx_->tag_cpp(node, uml::tag::kIterations) + "); " + var +
               " += 1) {  // loop " + node.name());
    emit_diagram(*sub);
    out_->close();
  }

  const Node* emit_decision(const DiagramIndex& graph, const Node& node,
                            const Node* stop) {
    const Node* merge = find_merge(graph, node);
    const Node* branch_stop = merge != nullptr ? merge : stop;
    std::vector<const DiagramIndex::Link*> guarded;
    const DiagramIndex::Link* else_edge = nullptr;
    for (const auto* link : graph.out_links(node.id())) {
      if (link->flow->is_else()) {
        else_edge = link;
      } else {
        guarded.push_back(link);
      }
    }
    if (guarded.empty()) {
      throw TransformError("decision " + node.id() +
                           " has no guarded outgoing edges");
    }
    for (std::size_t i = 0; i < guarded.size(); ++i) {
      const ControlFlow& edge = *guarded[i]->flow;
      const auto guard = parse_expr(edge.guard(), "guard of edge " + edge.id());
      const std::string condition =
          expr::to_cpp(*substitute_uid(*guard, ctx_->uid(node)));
      if (i == 0) {
        out_->open("if (" + condition + ") {");
      } else {
        out_->dedent();
        out_->open("} else if (" + condition + ") {");
      }
      emit_until(graph, guarded[i]->target, branch_stop);
    }
    out_->dedent();
    out_->open("} else {");
    if (else_edge != nullptr) {
      emit_until(graph, else_edge->target, branch_stop);
    } else {
      // Mirror the interpreter: a decision where no guard holds and no
      // else edge exists is a modeling error at run time.
      out_->line("throw std::runtime_error(\"decision '" + node.name() +
                 "': no guard holds and no else edge\");");
    }
    out_->close();
    return merge != nullptr ? successor(graph, *merge) : nullptr;
  }

  const Node* emit_fork(const DiagramIndex& graph, const Node& node) {
    const Node* join = find_join(graph, node);
    out_->open("co_await prophet::workload::fork_join(ctx, {");
    const auto outgoing = graph.out_links(node.id());
    for (std::size_t i = 0; i < outgoing.size(); ++i) {
      out_->open("[&]() -> prophet::sim::Process {");
      emit_until(graph, outgoing[i]->target, join);
      out_->line("co_return;");
      out_->close(i + 1 < outgoing.size() ? "," : "");
    }
    out_->close(");");
    return successor(graph, *join);
  }

  const Context* ctx_;
  CppEmitter* out_;
};

}  // namespace

void CppEmitter::line(std::string_view text) {
  for (int i = 0; i < depth_ * indent_width_; ++i) {
    text_ += ' ';
  }
  text_ += text;
  text_ += '\n';
}

void CppEmitter::blank() { text_ += '\n'; }

void CppEmitter::open(std::string_view header) {
  line(header);
  ++depth_;
}

void CppEmitter::close(std::string_view suffix) {
  dedent();
  line("}" + std::string(suffix));
}

void CppEmitter::dedent() {
  if (depth_ == 0) {
    throw std::logic_error("CppEmitter: unbalanced dedent");
  }
  --depth_;
}

std::string sanitize_identifier(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front()))) {
    out = "e_" + out;
  }
  return out;
}

Transformer::Transformer(TransformOptions options)
    : options_(std::move(options)) {}

std::vector<const Node*> Transformer::select_performance_elements(
    const Model& model) const {
  // Fig. 5 lines 1-8: FORALL diagrams, FORALL elements, select those whose
  // stereotype marks them as performance modeling elements.
  std::vector<const Node*> elements;
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (node->has_stereotype()) {
        elements.push_back(node.get());
      }
    }
  }
  return elements;
}

std::string Transformer::emit_globals(const Model& model) const {
  CppEmitter out;
  for (const auto* variable : model.globals()) {
    out.line(variable_cpp_type(variable->type) + " " + variable->name +
             " = 0;");
  }
  return out.text();
}

std::string Transformer::emit_cost_functions(const Model& model) const {
  // Dependency-order the functions so callees precede callers (the bodies
  // are plain C++ function definitions, Fig. 8a lines 31-54).
  std::map<std::string, std::set<std::string>> calls;
  for (const auto& fn : model.cost_functions()) {
    const auto body = parse_expr(fn.body, "cost function " + fn.name);
    for (const auto& callee : expr::called_user_functions(*body)) {
      if (model.cost_function(callee) != nullptr) {
        calls[fn.name].insert(callee);
      }
    }
  }
  std::vector<const uml::CostFunction*> ordered;
  std::set<std::string> emitted;
  const auto& functions = model.cost_functions();
  // Stable topological order: repeatedly take the first (model-order)
  // function whose callees are all emitted.
  while (ordered.size() < functions.size()) {
    bool progressed = false;
    for (const auto& fn : functions) {
      if (emitted.find(fn.name) != emitted.end()) {
        continue;
      }
      const auto& callees = calls[fn.name];
      const bool ready = std::all_of(
          callees.begin(), callees.end(), [&](const std::string& callee) {
            return emitted.find(callee) != emitted.end();
          });
      if (ready) {
        ordered.push_back(&fn);
        emitted.insert(fn.name);
        progressed = true;
      }
    }
    if (!progressed) {
      throw TransformError("cyclic cost-function dependencies");
    }
  }
  CppEmitter out;
  for (const auto* fn : ordered) {
    std::string params;
    for (const auto& parameter : fn->parameters) {
      if (!params.empty()) {
        params += ", ";
      }
      params += "double " + parameter;
    }
    const auto body = parse_expr(fn->body, "cost function " + fn->name);
    out.line("double " + fn->name + "(" + params + ") { return " +
             expr::to_cpp(*body) + "; }");
  }
  return out.text();
}

std::string Transformer::emit_locals(const Model& model) const {
  CppEmitter out;
  for (const auto* variable : model.locals()) {
    out.line("[[maybe_unused]] " + variable_cpp_type(variable->type) + " " +
             variable->name + " = " + initializer_cpp(*variable) + ";");
  }
  return out.text();
}

std::string Transformer::emit_declarations(const Model& model) const {
  const Context ctx(model);
  CppEmitter out;
  for (const auto* node : select_performance_elements(model)) {
    const std::string declaration = ctx.declaration(*node);
    if (!declaration.empty()) {
      out.line(declaration);
    }
  }
  return out.text();
}

std::string Transformer::emit_flow(const Model& model) const {
  const Context ctx(model);
  const ActivityDiagram* main = model.main_diagram();
  if (main == nullptr) {
    throw TransformError("model has no resolvable main diagram");
  }
  CppEmitter out;
  FlowEmitter flow(ctx, out);
  flow.emit_diagram(*main);
  return out.text();
}

std::string Transformer::transform(const Model& model) const {
  const Context ctx(model);
  const ActivityDiagram* main = model.main_diagram();
  if (main == nullptr) {
    throw TransformError("model has no resolvable main diagram");
  }

  // Diagrams whose elements are declared at function scope: everything
  // except ompparallel domains (declared inside the region lambdas).
  std::set<std::string> region_domains;
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (node->stereotype() == uml::stereo::kOmpParallel) {
        const auto domain = domain_diagrams(model, node->subdiagram_id());
        region_domains.insert(domain.begin(), domain.end());
      }
    }
  }

  CppEmitter out;
  out.line("// Generated by Performance Prophet — C++ representation of "
           "performance model '" +
           model.name() + "'.");
  out.line("// Regenerate from the UML model; do not edit.");
  out.line("#include <cmath>");
  out.line("#include <stdexcept>");
  out.line("#include <utility>");
  if (options_.emit_main) {
    out.line("#include <cstdio>");
    out.line("#include <cstdlib>");
  }
  out.blank();
  out.line("#include \"prophet/estimator/estimator.hpp\"");
  out.line("#include \"prophet/workload/runtime.hpp\"");
  out.blank();
  out.line("using prophet::workload::ActionPlus;");
  out.line("using prophet::workload::BarrierElement;");
  out.line("using prophet::workload::CollectiveElement;");
  out.line("using prophet::workload::CriticalElement;");
  out.line("using prophet::workload::OmpBarrierElement;");
  out.line("using prophet::workload::RecvElement;");
  out.line("using prophet::workload::SendElement;");
  out.line("using prophet::workload::WorkshareElement;");
  out.blank();
  if (options_.banners) {
    out.line("// -- System parameters (bound per estimation run) --");
  }
  out.line("namespace {");
  out.line("double np = 1;");
  out.line("double nt = 1;");
  out.line("double nn = 1;");
  out.line("double ppn = 1;");
  out.line("}  // namespace");
  out.blank();
  if (options_.banners) {
    out.line("// -- Global variables (Fig. 5 lines 9-12) --");
  }
  out.raw(emit_globals(model));
  out.blank();
  if (options_.banners) {
    out.line("// -- Cost functions (Fig. 5 lines 13-18) --");
  }
  out.raw(emit_cost_functions(model));
  out.blank();
  out.open("void prophet_init_globals() {");
  for (const auto* variable : model.globals()) {
    out.line(variable->name + " = " + initializer_cpp(*variable) + ";");
  }
  out.close();
  out.blank();
  out.open(
      "void prophet_bind_system(const prophet::machine::SystemParameters& "
      "sp) {");
  out.line("np = sp.processes;");
  out.line("nt = sp.threads_per_process;");
  out.line("nn = sp.nodes;");
  out.line("ppn = sp.processors_per_node;");
  out.close();
  out.blank();
  if (options_.banners) {
    out.line("// -- Program (Fig. 5 lines 19-35) --");
  }
  out.open("prophet::sim::Process " + options_.model_function +
           "(prophet::workload::ModelContext ctx) {");
  out.line("[[maybe_unused]] const int pid = ctx.pid;");
  out.line("[[maybe_unused]] const int tid = ctx.tid;");
  if (options_.banners) {
    out.line("// -- Local variables (lines 20-23) --");
  }
  {
    std::istringstream stream(emit_locals(model));
    std::string text_line;
    while (std::getline(stream, text_line)) {
      out.line(text_line);
    }
  }
  if (options_.banners) {
    out.line("// -- Performance modeling elements (lines 24-28) --");
  }
  for (const auto& diagram : model.diagrams()) {
    if (region_domains.find(diagram->id()) != region_domains.end()) {
      continue;  // declared inside the region lambda
    }
    for (const auto& node : diagram->nodes()) {
      if (!node->has_stereotype()) {
        continue;
      }
      const std::string declaration = ctx.declaration(*node);
      if (!declaration.empty()) {
        out.line(declaration);
      }
    }
  }
  if (options_.banners) {
    out.line("// -- Execution flow (lines 29-35) --");
  }
  {
    FlowEmitter flow(ctx, out);
    flow.emit_diagram(*main);
  }
  out.line("co_return;");
  out.close();
  out.blank();
  out.open("prophet::estimator::FunctionModel prophet_program() {");
  out.line("return prophet::estimator::FunctionModel(");
  out.line("    [](const prophet::machine::SystemParameters& sp) {");
  out.line("      prophet_bind_system(sp);");
  out.line("      prophet_init_globals();");
  out.line("    },");
  out.line("    [](prophet::workload::ModelContext ctx) {");
  out.line("      return " + options_.model_function + "(std::move(ctx));");
  out.line("    });");
  out.close();
  if (options_.emit_main) {
    out.blank();
    out.open("int main(int argc, char** argv) {");
    out.line("prophet::machine::SystemParameters sp;");
    out.line("if (argc > 1) sp.processes = std::atoi(argv[1]);");
    out.line("if (argc > 2) sp.nodes = std::atoi(argv[2]);");
    out.line("if (argc > 3) sp.processors_per_node = std::atoi(argv[3]);");
    out.line("if (argc > 4) sp.threads_per_process = std::atoi(argv[4]);");
    out.line("prophet::estimator::SimulationManager manager(sp);");
    out.line("auto program = prophet_program();");
    out.line("const auto report = manager.run(program);");
    out.line("std::printf(\"%s\", report.summary().c_str());");
    out.line("return 0;");
    out.close();
  }
  return out.text();
}

}  // namespace prophet::codegen
