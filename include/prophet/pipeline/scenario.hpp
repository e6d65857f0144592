// Scenario grids — the parameter-sweep vocabulary of the batch pipeline.
//
// The paper evaluates the transformation by predicting one program under
// many system configurations (Sec. 5 varies processor counts and problem
// sizes); a ScenarioGrid captures that as a base machine::SystemParameters
// plus sweep axes whose cross-product expands into one SystemParameters
// per scenario.  Axes address SP fields by their sysparam names (np, nn,
// ppn, nt) or the synthetic-hardware field names (cpu_speed, ...).
//
//   auto grid = pipeline::ScenarioGrid::parse("np=1..8:*2 nodes=1,2");
//   grid.size();    // 8 scenarios
//   grid.expand();  // row-major: first axis varies slowest
//   grid.at(5);     // the sixth scenario alone
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "prophet/machine/machine.hpp"

namespace prophet::pipeline {

/// One sweep dimension: a named SystemParameters field and its values.
struct Axis {
  /// Sweepable parameter name ("np", "nodes", "cpu_speed", ...).
  std::string name;
  /// The values this axis takes, in sweep order.
  std::vector<double> values;
};

/// Cross-product of parameter axes over a base configuration.
class ScenarioGrid {
 public:
  /// An axis-less grid over default system parameters (one scenario).
  ScenarioGrid() = default;
  /// An axis-less grid over `base` (one scenario until axes are added).
  explicit ScenarioGrid(machine::SystemParameters base) : base_(base) {}

  /// Adds a sweep axis.  Throws std::invalid_argument when `name` is not
  /// a sweepable parameter or `values` is empty.
  ScenarioGrid& axis(std::string name, std::vector<double> values);

  /// Parses a grid spec: whitespace- or ';'-separated axes, each either a
  /// comma list or a range —
  ///   "np=1,2,4"        explicit values
  ///   "np=1..8"         inclusive linear range, step 1
  ///   "np=2..16:+2"     linear range with step
  ///   "np=1..64:*4"     geometric range with factor
  /// Throws std::invalid_argument on malformed specs.
  [[nodiscard]] static ScenarioGrid parse(std::string_view spec,
                                          machine::SystemParameters base = {});

  /// The base configuration every scenario starts from.
  [[nodiscard]] const machine::SystemParameters& base() const { return base_; }
  /// The sweep axes, in the order they were added.
  [[nodiscard]] const std::vector<Axis>& axes() const { return axes_; }

  /// Number of scenarios the grid expands to (1 for an axis-less grid).
  [[nodiscard]] std::size_t size() const;

  /// The cross-product, row-major: the first axis varies slowest, the
  /// last fastest — "np=1,2 nn=1,2" yields (1,1) (1,2) (2,1) (2,2).
  [[nodiscard]] std::vector<machine::SystemParameters> expand() const;

  /// Scenario `ordinal` of expand(), computed alone (ordinal < size()).
  [[nodiscard]] machine::SystemParameters at(std::size_t ordinal) const;

  /// Sets one named parameter on `params`.  Integer SP fields are
  /// rounded; throws std::invalid_argument for unknown names.
  static void apply(machine::SystemParameters& params, std::string_view name,
                    double value);

  /// True when `name` is sweepable via apply().
  [[nodiscard]] static bool is_parameter(std::string_view name);

  /// A sweepable field; defined in the implementation.
  struct Field;

 private:
  machine::SystemParameters base_;
  std::vector<Axis> axes_;
  /// The field each axis sets, resolved once when the axis is added.
  std::vector<const Field*> fields_;
};

}  // namespace prophet::pipeline
