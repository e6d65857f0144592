#include "prophet/lower/lower.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "prophet/expr/eval.hpp"
#include "prophet/expr/parser.hpp"
#include "prophet/uml/index.hpp"
#include "prophet/uml/sysparams.hpp"

namespace prophet::lower {
namespace {

using uml::Model;
using uml::Node;
using uml::NodeKind;

/// One `name = expression;` assignment of an associated code fragment
/// (parse-time form; lowered to a CompiledAssignment).
struct Assignment {
  std::string target;
  expr::ExprPtr value;
};

/// The tag-name -> TagKind dispatch table.  Adding an expression tag is
/// one row here (plus its TagKind value) — both backends pick it up
/// through the shared NodePrograms array, no per-backend edits.
struct TagRow {
  std::string_view name;
  TagKind kind;
};

constexpr TagRow kTagTable[] = {
    {uml::tag::kCost, TagKind::Cost},
    {uml::tag::kDest, TagKind::Dest},
    {uml::tag::kSource, TagKind::Source},
    {uml::tag::kSize, TagKind::Size},
    {uml::tag::kRoot, TagKind::Root},
    {uml::tag::kIterations, TagKind::Iterations},
    {uml::tag::kIterCost, TagKind::IterCost},
    {uml::tag::kNumThreads, TagKind::NumThreads},
};
static_assert(std::size(kTagTable) == kTagKindCount,
              "every TagKind needs exactly one table row");

/// Splits a code fragment into `name = expr` assignments.
std::vector<Assignment> parse_code_fragment(const std::string& text,
                                            const std::string& where) {
  std::vector<Assignment> assignments;
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find(';', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string statement = text.substr(start, end - start);
    start = end + 1;
    // Trim whitespace.
    const auto first = statement.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) {
      continue;
    }
    const auto last = statement.find_last_not_of(" \t\r\n");
    statement = statement.substr(first, last - first + 1);
    const auto equals = statement.find('=');
    // Reject '==' and missing '='.
    if (equals == std::string::npos || equals + 1 >= statement.size() ||
        statement[equals + 1] == '=') {
      throw LowerError("code fragment at " + where + ": statement '" +
                       statement + "' is not an assignment");
    }
    std::string target = statement.substr(0, equals);
    const auto target_end = target.find_last_not_of(" \t\r\n");
    target = target.substr(0, target_end + 1);
    try {
      assignments.push_back(
          {target, expr::parse(statement.substr(equals + 1))});
    } catch (const expr::SyntaxError& error) {
      throw LowerError("code fragment at " + where + ": " + error.what());
    }
  }
  return assignments;
}

/// The loop-variable name bound by a <<loop+>> node ("i" by default).
std::string loop_var_name(const Node& node) {
  std::string var = node.tag_string(uml::tag::kLoopVar);
  if (var.empty()) {
    var = "i";
  }
  return var;
}

expr::ExprPtr parse_checked(const std::string& text,
                            const std::string& where) {
  try {
    return expr::parse(text);
  } catch (const expr::SyntaxError& error) {
    throw LowerError(where + ": " + error.what());
  }
}

/// The value of the tag `name` on `element`, or null (Element::tag
/// without the copy).
const uml::TagValue* find_tag(const uml::Element& element,
                              std::string_view name) {
  for (const auto& tagged : element.tags()) {
    if (tagged.name == name) {
      return &tagged.value;
    }
  }
  return nullptr;
}

/// A tag value read as a number, like Element::tag_number().
std::optional<double> number_of(const uml::TagValue* value) {
  if (value == nullptr) {
    return std::nullopt;
  }
  if (const auto* real = std::get_if<double>(value)) {
    return *real;
  }
  if (const auto* integer = std::get_if<std::int64_t>(value)) {
    return static_cast<double>(*integer);
  }
  return std::nullopt;
}

/// Orders (pointer, value) index entries by pointer.
constexpr auto by_key = [](const auto& a, const auto& b) {
  return std::less<>{}(a.first, b.first);
};

/// The entry of a by_key-sorted index for `key`, or null.
template <typename Index, typename Key>
auto lookup(const Index& index, const Key* key)
    -> decltype(index.front().second) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), key, [](const auto& entry, const Key* k) {
        return std::less<>{}(entry.first, k);
      });
  if (it == index.end() || it->first != key) {
    return nullptr;
  }
  return it->second;
}

}  // namespace

std::optional<TagKind> tag_kind(std::string_view name) {
  for (const auto& row : kTagTable) {
    if (row.name == name) {
      return row.kind;
    }
  }
  return std::nullopt;  // no evaluation site reads other expression tags
}

std::string_view tag_name(TagKind kind) {
  for (const auto& row : kTagTable) {
    if (row.kind == kind) {
      return row.name;
    }
  }
  return {};  // unreachable: the static_assert pins full coverage
}

ModelProgram::ModelProgram(const uml::Model& model) : model_(&model) {
  const Model& m = model;

  // Times one expr::compile call and folds it into the stats.
  const auto compile_timed = [this](const expr::Expr& ast,
                                    const expr::SymbolTable& table) {
    const auto start = std::chrono::steady_clock::now();
    expr::Compiled program = expr::compile(ast, table);
    stats_.expr_compile_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    ++stats_.expr_programs;
    stats_.bytecode_bytes += program.size() * sizeof(expr::Instr);
    return program;
  };

  // Diagram lookup by id, first match winning like Model::diagram().
  std::unordered_map<std::string_view, std::size_t> diagram_ids;
  diagram_ids.reserve(m.diagrams().size());
  std::size_t node_total = 0;
  std::size_t edge_total = 0;
  for (std::size_t d = 0; d < m.diagrams().size(); ++d) {
    const auto& diagram = *m.diagrams()[d];
    diagram_ids.emplace(diagram.id(), d);
    node_total += diagram.node_count();
    edge_total += diagram.edge_count();
  }
  const auto find_diagram =
      [&diagram_ids](std::string_view id) -> std::optional<std::size_t> {
    const auto it = diagram_ids.find(id);
    if (it == diagram_ids.end()) {
      return std::nullopt;
    }
    return it->second;
  };

  // ---- Phase 1: parse (error order matches the historical builds).
  struct ParsedVariable {
    const uml::Variable* decl = nullptr;
    expr::ExprPtr initializer;
  };
  std::vector<ParsedVariable> parsed_variables;
  for (const auto& variable : m.variables()) {
    ParsedVariable parsed;
    parsed.decl = &variable;
    if (!variable.initializer.empty()) {
      parsed.initializer = parse_checked(
          variable.initializer, "initializer of variable " + variable.name);
    }
    parsed_variables.push_back(std::move(parsed));
  }
  struct ParsedFunction {
    const uml::CostFunction* decl = nullptr;
    expr::ExprPtr body;
  };
  std::vector<ParsedFunction> parsed_functions;
  for (const auto& fn : m.cost_functions()) {
    parsed_functions.push_back(
        {&fn, parse_checked(fn.body, "cost function " + fn.name)});
  }
  // uid assignment: explicit `id` tags win; the rest get sequential
  // numbers skipping claimed values.
  std::set<int> claimed;
  for (const auto& diagram : m.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (auto id = node->tag(uml::tag::kId)) {
        if (const auto* value = std::get_if<std::int64_t>(&*id)) {
          uids_[node->id()] = static_cast<int>(*value);
          claimed.insert(static_cast<int>(*value));
        }
      }
    }
  }
  int next = 1;
  // Guards in diagram edge order (the order Phase 4 resolves them in).
  std::vector<expr::ExprPtr> parsed_guards;
  for (const auto& diagram : m.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (uids_.find(node->id()) == uids_.end()) {
        while (claimed.find(next) != claimed.end()) {
          ++next;
        }
        uids_[node->id()] = next;
        claimed.insert(next);
      }
    }
    for (const auto& edge : diagram->edges()) {
      if (edge->has_guard() && !edge->is_else()) {
        parsed_guards.push_back(
            parse_checked(edge->guard(), "guard of edge " + edge->id()));
      }
    }
  }
  struct ParsedTag {
    TagKind kind = TagKind::Cost;
    expr::ExprPtr value;
  };
  // Per node, in diagram order then node order (the nodes_ order).
  struct ParsedNode {
    std::vector<ParsedTag> tags;
    std::vector<Assignment> fragment;
  };
  std::vector<ParsedNode> parsed_nodes(node_total);
  std::size_t tag_total = 0;
  std::size_t position = 0;
  for (const auto& diagram : m.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      ParsedNode& parsed = parsed_nodes[position++];
      for (const auto name : uml::expression_tags(node->stereotype())) {
        if (!node->has_tag(name)) {
          continue;
        }
        const std::string text = node->tag_string(name);
        if (text.empty()) {
          continue;
        }
        expr::ExprPtr value =
            parse_checked(text, "tag '" + std::string(name) + "' of node " +
                                    node->id());
        if (const auto kind = tag_kind(name)) {
          parsed.tags.push_back({*kind, std::move(value)});
          ++tag_total;
        }
      }
      if (node->has_tag(uml::tag::kCode)) {
        const std::string code = node->tag_string(uml::tag::kCode);
        if (!code.empty()) {
          parsed.fragment = parse_code_fragment(code, "node " + node->id());
        }
      }
      // Composite nodes must reference existing diagrams.
      if ((node->kind() == NodeKind::Activity ||
           node->kind() == NodeKind::Loop) &&
          !find_diagram(node->subdiagram_id()).has_value()) {
        throw LowerError("node " + node->id() +
                         " references unknown diagram '" +
                         node->subdiagram_id() + "'");
      }
    }
  }
  const auto main_index = find_diagram(m.main_diagram_id());
  if (!main_index.has_value()) {
    throw LowerError("model has no resolvable main diagram");
  }

  // ---- Phase 2: build the slot space.  Every name that any dynamic
  // scope could bind gets exactly one slot; resolution precedence is
  // realized by which storage a frame entry points at.
  expr::SymbolTable base;
  slot_np_ = base.add_variable(std::string(uml::sysparam::kProcesses));
  slot_nt_ = base.add_variable(std::string(uml::sysparam::kThreads));
  slot_nn_ = base.add_variable(std::string(uml::sysparam::kNodes));
  slot_ppn_ =
      base.add_variable(std::string(uml::sysparam::kProcessorsPerNode));
  for (const auto& variable : m.variables()) {
    base.add_variable(variable.name);
  }
  for (const auto& diagram : m.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (node->kind() == NodeKind::Loop) {
        base.add_variable(loop_var_name(*node));
      }
    }
  }
  for (const auto& fn : m.cost_functions()) {
    function_ids_[fn.name] = base.add_function(fn.name);
  }
  nslots_ = base.slot_count();

  node_table_ = base;
  node_table_.bind_ambient(std::string(uml::sysparam::kProcessId),
                           expr::Ambient::Pid);
  node_table_.bind_ambient(std::string(uml::sysparam::kThreadId),
                           expr::Ambient::Tid);
  node_table_.bind_ambient(std::string(uml::sysparam::kElementUid),
                           expr::Ambient::Uid);

  // ---- Phase 3: lower everything to bytecode.
  for (auto& parsed : parsed_variables) {
    CompiledVariable compiled;
    compiled.name = parsed.decl->name;
    compiled.slot = *base.slot_of(parsed.decl->name);
    compiled.scope = parsed.decl->scope;
    compiled.type = parsed.decl->type;
    if (parsed.initializer != nullptr) {
      compiled.initializer = compile_timed(*parsed.initializer, node_table_);
    }
    variables_.push_back(std::move(compiled));
  }
  functions_.reserve(parsed_functions.size());
  for (auto& parsed : parsed_functions) {
    // Function bodies see their parameters, globals and the structural
    // system parameters — never pid/tid/uid or locals, mirroring the
    // file-scope C++ functions of Fig. 8a.
    expr::SymbolTable fn_table = base;
    for (const auto& parameter : parsed.decl->parameters) {
      fn_table.add_parameter(parameter);
    }
    functions_.push_back(compile_timed(*parsed.body, fn_table));
  }
  guard_programs_.reserve(parsed_guards.size());
  for (const auto& guard : parsed_guards) {
    guard_programs_.push_back(compile_timed(*guard, node_table_));
  }
  // Exact reservations: NodePrograms::tags and the resolved control flow
  // point into these vectors, so they must never reallocate.
  nodes_.reserve(node_total);
  tag_programs_.reserve(tag_total);
  position = 0;
  for (const auto& diagram : m.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      ParsedNode& parsed = parsed_nodes[position++];
      NodePrograms programs;
      programs.node = node.get();
      programs.kind = node->kind();
      programs.uid = uids_.at(node->id());
      if (node->kind() == NodeKind::Loop) {
        programs.loop_var_slot = *base.slot_of(loop_var_name(*node));
      }
      for (auto& [kind, value] : parsed.tags) {
        tag_programs_.emplace_back(compile_timed(*value, node_table_));
        programs.tags[static_cast<std::size_t>(kind)] = &tag_programs_.back();
      }
      for (auto& assignment : parsed.fragment) {
        CompiledAssignment compiled;
        compiled.name = assignment.target;
        compiled.value = compile_timed(*assignment.value, node_table_);
        // Static write-target resolution: the tree walker consulted
        // the per-process locals map first, then the globals map —
        // both hold exactly the declared variables of that scope.
        bool local = false;
        bool global = false;
        for (const auto& variable : m.variables()) {
          if (variable.name != assignment.target) {
            continue;
          }
          local = local || variable.scope == uml::VariableScope::Local;
          global = global || variable.scope == uml::VariableScope::Global;
        }
        if (local || global) {
          compiled.target = local ? CompiledAssignment::Target::Local
                                  : CompiledAssignment::Target::Global;
          compiled.slot = *base.slot_of(assignment.target);
        }
        if (const uml::Variable* declared = m.variable(assignment.target)) {
          compiled.coerce_int = declared->type == uml::VariableType::Integer;
        }
        ++stats_.fragment_assignments;
        programs.fragment.push_back(std::move(compiled));
      }
      nodes_.push_back(std::move(programs));
    }
  }
  node_index_.reserve(nodes_.size());
  for (const auto& programs : nodes_) {
    node_index_.emplace_back(programs.node, &programs);
  }
  std::sort(node_index_.begin(), node_index_.end(), by_key);

  // ---- Phase 4: resolve control flow.  Every lookup a walker would
  // otherwise make by id string happens here, once, through one
  // uml::DiagramIndex per diagram: O(nodes + edges) per diagram.
  const std::string* const default_schedule =
      &*names_.emplace("static").first;
  const std::string* const default_lock = &*names_.emplace("default").first;
  const auto intern = [this](const uml::Node& node, std::string_view name,
                             const std::string* fallback) {
    const auto* text = std::get_if<std::string>(find_tag(node, name));
    if (text == nullptr || text->empty()) {
      return fallback;
    }
    auto it = names_.find(*text);
    if (it == names_.end()) {
      it = names_.insert(*text).first;
    }
    return &*it;
  };
  diagrams_.resize(m.diagrams().size());
  main_ = &diagrams_[*main_index];
  edges_.reserve(edge_total);
  guard_index_.reserve(guard_programs_.size());
  std::size_t guard_cursor = 0;
  std::vector<const expr::Compiled*> guards;  // edge -> compiled guard
  NodePrograms* local = nodes_.data();
  for (std::size_t d = 0; d < m.diagrams().size(); ++d) {
    const uml::ActivityDiagram& diagram = *m.diagrams()[d];
    const uml::DiagramIndex graph(diagram);
    const auto& nodes = diagram.nodes();
    const auto count = static_cast<std::uint32_t>(nodes.size());
    DiagramProgram& resolved = diagrams_[d];
    resolved.diagram = &diagram;
    // Guards were compiled in edge order, across the diagrams.
    const auto links = graph.links();
    guards.assign(links.size(), nullptr);
    for (std::size_t e = 0; e < links.size(); ++e) {
      const uml::ControlFlow& flow = *links[e].flow;
      if (flow.has_guard() && !flow.is_else()) {
        guards[e] = &guard_programs_[guard_cursor++];
        guard_index_.emplace_back(&flow, guards[e]);
      }
    }
    // A node's outgoing edges are one contiguous range of edges_, in the
    // order the index lists them; a node sharing an earlier node's id
    // shares that holder's range.
    for (std::uint32_t i = 0; i < count; ++i) {
      const Node& node = *nodes[i];
      NodePrograms& programs = local[i];
      if (resolved.initial == nullptr && node.kind() == NodeKind::Initial) {
        resolved.initial = &programs;
      }
      const std::uint32_t h = graph.holder(i);
      if (h == i) {
        const std::size_t first = edges_.size();
        for (const auto* link : graph.out_links(i)) {
          ControlEdge& out = edges_.emplace_back();
          out.flow = link->flow;
          out.target = link->target;
          if (link->to != uml::DiagramIndex::npos) {
            out.to = &local[link->to];
          }
          out.guard = guards[static_cast<std::size_t>(link - links.data())];
          out.is_else = link->flow->is_else();
          if (const auto prob =
                  number_of(find_tag(*link->flow, uml::tag::kProb))) {
            out.prob = *prob;
            out.has_prob = true;
          }
        }
        programs.edges = std::span<const ControlEdge>(
            edges_.data() + first, edges_.size() - first);
      } else {
        programs.edges = local[h].edges;
      }
      programs.probabilistic =
          std::any_of(programs.edges.begin(), programs.edges.end(),
                      [](const ControlEdge& edge) { return edge.has_prob; });
      if (node.kind() == NodeKind::Activity || node.kind() == NodeKind::Loop) {
        programs.subdiagram = &diagrams_[*find_diagram(node.subdiagram_id())];
      }
      programs.time = number_of(find_tag(node, uml::tag::kTime));
      programs.msg_tag =
          number_of(find_tag(node, uml::tag::kMsgTag)).value_or(0);
      programs.chunk = number_of(find_tag(node, uml::tag::kChunk)).value_or(0);
      programs.schedule = intern(node, uml::tag::kSchedule, default_schedule);
      programs.critical_name =
          intern(node, uml::tag::kCriticalName, default_lock);
    }
    local += count;
  }
  std::sort(guard_index_.begin(), guard_index_.end(), by_key);

  stats_.nodes = nodes_.size();
  stats_.slots = nslots_;
  stats_.guards = guard_programs_.size();
  stats_.functions = functions_.size();
  stats_.variables = variables_.size();
}

std::optional<int> ModelProgram::function_id(std::string_view name) const {
  const auto it = function_ids_.find(name);
  if (it == function_ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const NodePrograms& ModelProgram::at(const uml::Node& node) const {
  const NodePrograms* programs = lookup(node_index_, &node);
  if (programs == nullptr) {
    throw std::out_of_range("node " + node.id() +
                            " is not part of the lowered model");
  }
  return *programs;
}

const expr::Compiled* ModelProgram::guard(
    const uml::ControlFlow& edge) const {
  return lookup(guard_index_, &edge);
}

int ModelProgram::uid_of(const std::string& node_id) const {
  const auto it = uids_.find(node_id);
  if (it == uids_.end()) {
    throw LowerError("unknown node id '" + node_id + "'");
  }
  return it->second;
}

ModelProgramPtr lower(const uml::Model& model) {
  return std::make_shared<const ModelProgram>(model);
}

ModelProgramPtr lower(uml::Model&& model) {
  // Lower first (borrowing), then move the model in.  The lowered state
  // points at nodes, edges and diagrams; all are heap-allocated and
  // owned through the model's diagram list, so they are stable across
  // the move, and re-pointing the model itself after the move is safe.
  auto program = std::make_shared<ModelProgram>(model);
  program->owned_.emplace(std::move(model));
  program->model_ = &*program->owned_;
  return program;
}

}  // namespace prophet::lower
