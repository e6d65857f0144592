// The Model Checker — Teuta's conformance component.
//
// "The Model Checker is used to verify whether the model conforms to the
// UML specification" (Sec. 2.2).  The checker runs a configurable set of
// well-formedness rules over a model and produces diagnostics; the MCF
// ("Model Checking File", an XML document in Fig. 2) enables/disables
// rules and overrides their severities.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "prophet/uml/index.hpp"
#include "prophet/uml/model.hpp"
#include "prophet/xml/dom.hpp"

namespace prophet::check {

enum class Severity {
  Error,    // model cannot be transformed / evaluated
  Warning,  // suspicious but transformable
  Info,
};

[[nodiscard]] std::string_view to_string(Severity severity);
[[nodiscard]] std::optional<Severity> severity_from_string(
    std::string_view text);

/// One finding produced by a rule.
struct Diagnostic {
  Severity severity = Severity::Error;
  std::string rule;      // rule name, e.g. "decision-guards"
  std::string location;  // element path, e.g. "diagram d1 / node n3 (A1)"
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

/// The collected findings of one checker run.
class Diagnostics {
 public:
  void add(Diagnostic diagnostic);

  [[nodiscard]] const std::vector<Diagnostic>& all() const { return items_; }
  [[nodiscard]] std::size_t error_count() const;
  [[nodiscard]] std::size_t warning_count() const;

  /// True when the model has no errors (warnings allowed).
  [[nodiscard]] bool ok() const { return error_count() == 0; }

  /// All findings from a given rule.
  [[nodiscard]] std::vector<const Diagnostic*> from_rule(
      std::string_view rule) const;

  /// One line per finding.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Diagnostic> items_;
};

/// Reporting context handed to a rule; carries the rule's (possibly
/// MCF-overridden) severity and the graph index of the checked model.
class RuleContext {
 public:
  RuleContext(Diagnostics& sink, std::string rule, Severity severity,
              const uml::ModelIndex* graphs = nullptr)
      : sink_(&sink),
        rule_(std::move(rule)),
        severity_(severity),
        graphs_(graphs) {}

  /// Reports a finding at the rule's configured severity.
  void report(std::string location, std::string message);

  /// Reports a finding at an explicit severity (for rules that mix
  /// must-fix and advisory findings).
  void report(Severity severity, std::string location, std::string message);

  /// The graph index of one of the checked model's diagrams, built once
  /// per ModelChecker::check() call and shared by every rule (edge and
  /// node queries in O(1) instead of a scan per query).  Throws
  /// std::logic_error on a context constructed without an index.
  [[nodiscard]] const uml::DiagramIndex& graph(
      const uml::ActivityDiagram& diagram) const;

 private:
  Diagnostics* sink_;
  std::string rule_;
  Severity severity_;
  const uml::ModelIndex* graphs_;
};

/// A well-formedness rule.
class Rule {
 public:
  Rule(std::string name, std::string description, Severity default_severity)
      : name_(std::move(name)),
        description_(std::move(description)),
        default_severity_(default_severity) {}
  virtual ~Rule() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const { return description_; }
  [[nodiscard]] Severity default_severity() const { return default_severity_; }

  virtual void run(const uml::Model& model, RuleContext& ctx) const = 0;

 private:
  std::string name_;
  std::string description_;
  Severity default_severity_;
};

/// The checker: a rule registry plus per-rule enablement/severity.
class ModelChecker {
 public:
  /// A checker pre-loaded with the standard rule set.
  ModelChecker();

  /// A checker with no rules (extend with add()).
  static ModelChecker empty();

  /// Registers a rule; replaces any rule with the same name.
  void add(std::unique_ptr<Rule> rule);

  /// Enables/disables a rule; false when the rule is unknown.
  bool set_enabled(std::string_view rule, bool enabled);
  /// Overrides a rule's severity; false when the rule is unknown.
  bool set_severity(std::string_view rule, Severity severity);

  [[nodiscard]] bool is_enabled(std::string_view rule) const;
  [[nodiscard]] std::vector<std::string> rule_names() const;

  /// Applies an MCF document:
  ///   <mcf><rule name="node-reachable" enabled="false"/>
  ///        <rule name="fork-join-balance" severity="error"/></mcf>
  /// Unknown rule names are reported as Info diagnostics on the next run.
  void configure(const xml::Document& mcf);

  /// Runs all enabled rules.
  [[nodiscard]] Diagnostics check(const uml::Model& model) const;

 private:
  struct Entry {
    std::unique_ptr<Rule> rule;
    bool enabled = true;
    std::optional<Severity> severity_override;
  };
  explicit ModelChecker(bool load_standard_rules);

  std::vector<Entry> entries_;
  std::vector<std::string> configuration_notes_;
};

/// Registers the standard rule set on a checker (exposed for tests that
/// want to build custom checkers rule by rule).
void register_standard_rules(ModelChecker& checker);

}  // namespace prophet::check
