// Shared model lowering — one UML -> executable-form transformation
// behind every evaluation backend.
//
// The paper's thesis is that *transforming* the UML model into an
// executable C++ form is what makes evaluation fast.  This module owns
// that transformation for the in-process backends: `lower()` turns a
// checked `uml::Model` into an immutable `ModelProgram` — the model-wide
// slot space, every expression tag/guard/initializer/function body
// compiled to slot-resolved bytecode (expr::compile), code fragments
// with statically resolved write targets, control flow resolved to
// pointers (outgoing edges, subdiagrams, constant tags), and the static
// metadata the analytic backend's loop-collapse/SPMD legality checks
// read.
//
// Backends do not lower; they consume a `ModelProgram`
// (`shared_ptr<const>` — any number of backends and threads share one
// lowering without synchronization) and keep only their per-run state.
// The interpreter (simulation backend), the analytic estimator, and any
// future backend (native codegen) are consumers of this one module, so
// their lowering semantics cannot drift apart.  docs/lowering.md
// documents the phases, the slot-binding rules and the metadata
// contract.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "prophet/expr/compile.hpp"
#include "prophet/uml/model.hpp"

namespace prophet::lower {

/// Error thrown when a model cannot be lowered: unparseable expressions,
/// malformed code fragments, missing referenced diagrams, no resolvable
/// main diagram.  Backends wrap it in their own error type
/// (interp::InterpretError, analytic::AnalyticError) with the message
/// preserved verbatim, so diagnostics are identical across consumers.
class LowerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The expression-valued tags an evaluation site reads, as a dense enum.
/// One table row in `lower.cpp` maps each tag name to its kind — adding
/// a tag is one row there plus one accessor here, not an edit in every
/// backend.
enum class TagKind : std::uint8_t {
  Cost,        ///< `cost` on <<action+>>
  Dest,        ///< `dest` on <<send>>
  Source,      ///< `source` on <<recv>>
  Size,        ///< `size` on sends/recvs/collectives
  Root,        ///< `root` on rooted collectives
  Iterations,  ///< `iterations` on <<loop+>> / <<ompfor>>
  IterCost,    ///< `itercost` on <<ompfor>>
  NumThreads,  ///< `num_threads` on <<ompparallel>>
};

/// Number of TagKind values (size of the per-node program array).
inline constexpr std::size_t kTagKindCount = 8;

/// The TagKind for a tag name (uml::tag spelling), or nullopt for tags
/// no evaluation site reads as an expression.
[[nodiscard]] std::optional<TagKind> tag_kind(std::string_view name);

/// The uml::tag spelling of a kind (inverse of tag_kind()).
[[nodiscard]] std::string_view tag_name(TagKind kind);

/// A code-fragment assignment with its write target resolved at lowering
/// time: `Local` writes per-process storage, `Global` writes run-shared
/// storage, `Undeclared` raises the walker's "assigns undeclared
/// variable" error if (and only if) the fragment executes.
struct CompiledAssignment {
  /// Statically resolved storage class of the assignment target.
  enum class Target : std::uint8_t {
    Local,       ///< a declared per-process variable
    Global,      ///< a declared run-shared variable
    Undeclared,  ///< no declaration — executing it is an error
  };
  /// Assignment target name (diagnostics only; the slot is resolved).
  std::string name;
  /// Resolved storage class.
  Target target = Target::Undeclared;
  /// Slot of the target variable (valid unless Undeclared).
  expr::Slot slot = 0;
  /// True when the declared variable is Integer-typed: assigned values
  /// truncate, exactly like the generated C++'s `long` variables.
  bool coerce_int = false;
  /// The right-hand side, compiled against the model's node table.
  expr::Compiled value;
};

struct NodePrograms;

/// A diagram with its entry node resolved: what a walker enters for the
/// main diagram and for every loop body or activity content.
struct DiagramProgram {
  /// The diagram (its id and node count feed walk diagnostics and the
  /// step limit).
  const uml::ActivityDiagram* diagram = nullptr;
  /// The diagram's initial node (ActivityDiagram::initial()); null when
  /// it has none, which is an error only when a walk enters the diagram.
  const NodePrograms* initial = nullptr;
};

/// One outgoing control-flow edge with everything a walker reads from
/// it resolved at lowering time.
struct ControlEdge {
  /// The edge itself (its id appears in diagnostics).
  const uml::ControlFlow* flow = nullptr;
  /// The target node (ActivityDiagram::node(flow->target())); null when
  /// the edge dangles, which ends a walk like a dead end.
  const uml::Node* target = nullptr;
  /// The target's programs; null exactly when `target` is.
  const NodePrograms* to = nullptr;
  /// The compiled guard (== ModelProgram::guard(*flow)): null for
  /// unguarded and `else` edges.
  const expr::Compiled* guard = nullptr;
  /// The `prob` tag (tag_number), valid when `has_prob`.
  double prob = 0;
  /// True when the edge carries a numeric `prob` tag.
  bool has_prob = false;
  /// True for the distinguished `else` edge.
  bool is_else = false;
};

/// An absent tag program (what NodePrograms::tag returns for a tag the
/// node lacks).
inline const std::optional<expr::Compiled> kAbsentProgram;

/// Everything an evaluation site needs at one node, pre-resolved: the
/// node's uid, the compiled programs of its expression tags, its code
/// fragment, (for <<loop+>> nodes) the loop-variable slot, and its
/// control flow — outgoing edges, subdiagram and constant tags — so a
/// walker never looks up an identifier string.
struct NodePrograms {
  /// The node (name and stereotype for dispatch, id for diagnostics).
  const uml::Node* node = nullptr;
  /// node->kind(), read on every walk step.
  uml::NodeKind kind = uml::NodeKind::Action;
  /// True when some outgoing edge carries a `prob` tag (the analytic
  /// walkers take the expectation over such a decision's branches).
  bool probabilistic = false;
  /// Numeric element uid (explicit `id` tag, else a stable 1-based
  /// index skipping claimed values).
  int uid = 0;
  /// Slot of the loop variable bound by this node (Loop nodes only).
  expr::Slot loop_var_slot = 0;
  /// Outgoing edges in diagram edge order (ActivityDiagram::outgoing),
  /// a range of the program's one flat edge array.
  std::span<const ControlEdge> edges;
  /// The content diagram of Activity and Loop nodes (never null for
  /// them: lowering rejects unknown references); null otherwise.
  const DiagramProgram* subdiagram = nullptr;
  /// The `time` tag (tag_number).
  std::optional<double> time;
  /// The message tag of sends and receives (`tag`; tag_number, 0 when
  /// absent).
  double msg_tag = 0;
  /// The `chunk` tag (tag_number, 0 when absent).
  double chunk = 0;
  /// The `schedule` tag (tag_string), "static" when absent or empty.
  const std::string* schedule = nullptr;
  /// The lock name of <<ompcritical>> (`name`; tag_string), "default"
  /// when absent or empty.
  const std::string* critical_name = nullptr;
  /// Compiled expression tags, indexed by TagKind; null entries mean the
  /// tag is missing or empty on this node.
  std::array<const std::optional<expr::Compiled>*, kTagKindCount> tags{};
  /// The node's code fragment as resolved assignments (execution order).
  std::vector<CompiledAssignment> fragment;

  /// The compiled program of `kind`, absent when the node lacks the tag.
  [[nodiscard]] const std::optional<expr::Compiled>& tag(
      TagKind kind) const {
    const auto* program = tags[static_cast<std::size_t>(kind)];
    return program != nullptr ? *program : kAbsentProgram;
  }
  /// `cost` program (TagKind::Cost).
  [[nodiscard]] const std::optional<expr::Compiled>& cost() const {
    return tag(TagKind::Cost);
  }
  /// `dest` program (TagKind::Dest).
  [[nodiscard]] const std::optional<expr::Compiled>& dest() const {
    return tag(TagKind::Dest);
  }
  /// `source` program (TagKind::Source).
  [[nodiscard]] const std::optional<expr::Compiled>& source() const {
    return tag(TagKind::Source);
  }
  /// `size` program (TagKind::Size).
  [[nodiscard]] const std::optional<expr::Compiled>& size() const {
    return tag(TagKind::Size);
  }
  /// `root` program (TagKind::Root).
  [[nodiscard]] const std::optional<expr::Compiled>& root() const {
    return tag(TagKind::Root);
  }
  /// `iterations` program (TagKind::Iterations).
  [[nodiscard]] const std::optional<expr::Compiled>& iterations() const {
    return tag(TagKind::Iterations);
  }
  /// `itercost` program (TagKind::IterCost).
  [[nodiscard]] const std::optional<expr::Compiled>& itercost() const {
    return tag(TagKind::IterCost);
  }
  /// `num_threads` program (TagKind::NumThreads).
  [[nodiscard]] const std::optional<expr::Compiled>& num_threads() const {
    return tag(TagKind::NumThreads);
  }
};

/// A model variable, pre-resolved (declaration order preserved — the
/// run/process initialization order backends must follow).
struct CompiledVariable {
  /// Declared name (diagnostics and introspection).
  std::string name;
  /// The variable's slot in the model-wide slot space.
  expr::Slot slot = 0;
  /// Global (run-shared) or Local (per-process) storage.
  uml::VariableScope scope = uml::VariableScope::Global;
  /// Integer-typed variables truncate on every assignment.
  uml::VariableType type = uml::VariableType::Real;
  /// Compiled initializer; absent means zero-initialize.
  std::optional<expr::Compiled> initializer;
};

/// What lowering produced, from the single source of truth — surfaced
/// through estimator::PrepareStats and `prophetc estimate --timings`.
struct LoweringStats {
  /// Seconds spent in expr::compile (a subset of the lower() wall time).
  double expr_compile_seconds = 0;
  /// Bytecode programs produced (tags, guards, initializers,
  /// cost-function bodies, fragment assignments).
  std::size_t expr_programs = 0;
  /// Nodes lowered (every node of every diagram gets a NodePrograms).
  std::size_t nodes = 0;
  /// Slots in the model-wide slot space.
  std::size_t slots = 0;
  /// Compiled guards (guarded, non-else control-flow edges).
  std::size_t guards = 0;
  /// Compiled cost-function bodies.
  std::size_t functions = 0;
  /// Declared model variables.
  std::size_t variables = 0;
  /// Code-fragment assignments across all nodes.
  std::size_t fragment_assignments = 0;
  /// Total bytecode size across all programs, in bytes.
  std::size_t bytecode_bytes = 0;
};

/// The immutable executable form of a model — everything every backend
/// shares, produced once by lower().
///
/// A ModelProgram is written only by its constructor and read-only
/// afterwards: any number of backends on any number of threads consume
/// one program concurrently without synchronization (the
/// `shared_ptr<const ModelProgram>` handle estimator::PreparedModel
/// exposes).  Per-run state — bound system parameters, global/local
/// storage, clocks — lives in the consuming backend, never here.
///
/// Node programs are keyed by `const uml::Node*` and guards by
/// `const uml::ControlFlow*`; both are heap-allocated and owned through
/// the model's diagram list, so the keys are stable for the model's
/// lifetime (including across a move of the Model object itself).
/// Control flow is resolved too: walkers start at main_diagram() and
/// follow NodePrograms::edges / subdiagram pointers, which point into
/// this program's own storage — hence no copies or moves.
class ModelProgram {
 public:
  /// Lowers `model`, borrowing it (see lower() for the owning form).
  /// Throws LowerError on unparseable expressions, malformed fragments,
  /// unresolvable diagram references or a missing main diagram.
  explicit ModelProgram(const uml::Model& model);

  /// \name Non-copyable (the resolved control flow points into it)
  ///@{
  ModelProgram(const ModelProgram&) = delete;
  ModelProgram& operator=(const ModelProgram&) = delete;
  ///@}

  /// The lowered model (borrowed or owned; never null).
  [[nodiscard]] const uml::Model& model() const { return *model_; }

  /// The model-wide symbol table node-scope programs were compiled
  /// against: one slot per bindable name (declared variables, loop
  /// variables, np/nt/nn/ppn) plus the pid/tid/uid ambients with
  /// slot-shadowing fallbacks.
  [[nodiscard]] const expr::SymbolTable& symbols() const {
    return node_table_;
  }

  /// Slots in the model-wide slot space (the frame size every consumer
  /// must allocate).
  [[nodiscard]] std::size_t slot_count() const { return nslots_; }

  /// Slot of the `np` (process count) structural parameter.
  [[nodiscard]] expr::Slot np_slot() const { return slot_np_; }
  /// Slot of the `nt` (threads per process) structural parameter.
  [[nodiscard]] expr::Slot nt_slot() const { return slot_nt_; }
  /// Slot of the `nn` (node count) structural parameter.
  [[nodiscard]] expr::Slot nn_slot() const { return slot_nn_; }
  /// Slot of the `ppn` (processors per node) structural parameter.
  [[nodiscard]] expr::Slot ppn_slot() const { return slot_ppn_; }

  /// Declared model variables in declaration order (the initialization
  /// order run/process start-up must follow).
  [[nodiscard]] std::span<const CompiledVariable> variables() const {
    return variables_;
  }

  /// Compiled cost-function bodies, indexed by function id (the id
  /// expr::Op::CallUser carries and function_id() returns).
  [[nodiscard]] std::span<const expr::Compiled> functions() const {
    return functions_;
  }

  /// Function id of a cost function by name, if declared.
  [[nodiscard]] std::optional<int> function_id(std::string_view name) const;

  /// The lowered programs of `node`.  Every node of every diagram of the
  /// model has an entry; passing a foreign node throws std::out_of_range.
  [[nodiscard]] const NodePrograms& at(const uml::Node& node) const;

  /// The main diagram, resolved (where every process's walk starts).
  [[nodiscard]] const DiagramProgram& main_diagram() const { return *main_; }

  /// The compiled guard of `edge`, or nullptr when the edge is
  /// unguarded or an `else` edge.
  [[nodiscard]] const expr::Compiled* guard(
      const uml::ControlFlow& edge) const;

  /// The uid assigned to the node with element id `node_id`.  Throws
  /// LowerError for unknown ids.
  [[nodiscard]] int uid_of(const std::string& node_id) const;

  /// What lowering produced (see LoweringStats).
  [[nodiscard]] const LoweringStats& stats() const { return stats_; }

 private:
  friend std::shared_ptr<const ModelProgram> lower(uml::Model&& model);

  std::optional<uml::Model> owned_;  // set by the owning lower() overload
  const uml::Model* model_ = nullptr;

  expr::SymbolTable node_table_;  // slots + pid/tid/uid ambients
  std::size_t nslots_ = 0;
  expr::Slot slot_np_ = 0, slot_nt_ = 0, slot_nn_ = 0, slot_ppn_ = 0;

  std::vector<CompiledVariable> variables_;
  std::vector<expr::Compiled> functions_;    // indexed by function id
  std::map<std::string, int, std::less<>> function_ids_;
  // Node programs in diagram order, then node order; the index is
  // sorted by node pointer for at().
  std::vector<NodePrograms> nodes_;
  std::vector<std::pair<const uml::Node*, const NodePrograms*>> node_index_;
  // Expression-tag programs, pointed to by NodePrograms::tags.
  std::vector<std::optional<expr::Compiled>> tag_programs_;
  // Guards in diagram edge order; the index is sorted by edge pointer.
  std::vector<expr::Compiled> guard_programs_;
  std::vector<std::pair<const uml::ControlFlow*, const expr::Compiled*>>
      guard_index_;
  // Every NodePrograms::edges range lies in this one array.
  std::vector<ControlEdge> edges_;
  std::vector<DiagramProgram> diagrams_;  // model diagram order
  const DiagramProgram* main_ = nullptr;
  // Pre-read schedule and lock names (set nodes never move).
  std::set<std::string, std::less<>> names_;
  std::map<std::string, int> uids_;          // node element id -> uid

  LoweringStats stats_;
};

/// Shared handle to an immutable lowering — the unit every backend's
/// prepare() consumes and estimator::PreparedModel::lowering() exposes.
using ModelProgramPtr = std::shared_ptr<const ModelProgram>;

/// Lowers `model` into a shareable ModelProgram.  Borrows `model`; it
/// must outlive every consumer of the program.  Throws LowerError (see
/// ModelProgram constructor).
[[nodiscard]] ModelProgramPtr lower(const uml::Model& model);

/// Owning overload (safe with temporaries): the program keeps the model
/// alive for its own lifetime.
[[nodiscard]] ModelProgramPtr lower(uml::Model&& model);

}  // namespace prophet::lower
