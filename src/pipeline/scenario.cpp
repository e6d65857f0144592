#include "prophet/pipeline/scenario.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace prophet::pipeline {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("bad grid spec '" + std::string(spec) +
                              "': " + why);
}

/// Hard cap on one axis's expanded value count.  Generous for real
/// sweeps (full grids multiply axes, so even 10^6 on one axis is
/// enormous) and small enough that a runaway range cannot exhaust
/// memory before the error fires.
constexpr std::size_t kMaxAxisValues = 1000000;

int to_count(std::string_view name, double value) {
  // All range checks in the double domain: llround / static_cast on an
  // out-of-range double is undefined behavior.
  const double rounded = std::floor(value + 0.5);
  if (!(rounded >= 1) || rounded > 2147483647.0) {
    throw std::invalid_argument("parameter '" + std::string(name) +
                                "' must be an integer in [1, 2^31)");
  }
  return static_cast<int>(rounded);
}

double parse_number(std::string_view spec, std::string_view token) {
  const std::string text(token);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    bad_spec(spec, "'" + text + "' is not a number");
  }
  return value;
}

}  // namespace

/// One sweepable SystemParameters field, by all of its names: an integer
/// count (rounded, range-checked) or a real.
struct ScenarioGrid::Field {
  std::string_view names[3];
  int machine::SystemParameters::*count;
  double machine::SystemParameters::*real;

  void set(machine::SystemParameters& params, std::string_view name,
           double value) const {
    if (count != nullptr) {
      params.*count = to_count(name, value);
    } else {
      params.*real = value;
    }
  }
};

namespace {

using SP = machine::SystemParameters;
constexpr ScenarioGrid::Field kFields[] = {
    {{"np", "processes"}, &SP::processes, nullptr},
    {{"nn", "nodes"}, &SP::nodes, nullptr},
    {{"ppn", "processors_per_node"}, &SP::processors_per_node, nullptr},
    {{"nt", "threads", "threads_per_process"}, &SP::threads_per_process,
     nullptr},
    {{"cpu_speed"}, nullptr, &SP::cpu_speed},
    {{"network_latency"}, nullptr, &SP::network_latency},
    {{"network_bandwidth"}, nullptr, &SP::network_bandwidth},
    {{"network_overhead"}, nullptr, &SP::network_overhead},
    {{"memory_latency"}, nullptr, &SP::memory_latency},
    {{"memory_bandwidth"}, nullptr, &SP::memory_bandwidth},
    {{"barrier_latency"}, nullptr, &SP::barrier_latency},
};

/// The field `name` sets (aliases such as "np" and "processes" share
/// one), or null.
const ScenarioGrid::Field* field_of(std::string_view name) {
  for (const auto& field : kFields) {
    for (const std::string_view alias : field.names) {
      if (!alias.empty() && alias == name) {
        return &field;
      }
    }
  }
  return nullptr;
}

}  // namespace

void ScenarioGrid::apply(machine::SystemParameters& params,
                         std::string_view name, double value) {
  const Field* field = field_of(name);
  if (field == nullptr) {
    throw std::invalid_argument("unknown sweep parameter '" +
                                std::string(name) + "'");
  }
  field->set(params, name, value);
}

bool ScenarioGrid::is_parameter(std::string_view name) {
  return field_of(name) != nullptr;
}

ScenarioGrid& ScenarioGrid::axis(std::string name,
                                 std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("axis '" + name + "' has no values");
  }
  const Field* field = field_of(name);
  if (field == nullptr) {
    throw std::invalid_argument("unknown sweep parameter '" + name + "'");
  }
  for (const auto& existing : axes_) {
    if (field_of(existing.name) == field) {
      throw std::invalid_argument("duplicate sweep axis '" + name +
                                  "' (already swept as '" + existing.name +
                                  "')");
    }
  }
  axes_.push_back(Axis{std::move(name), std::move(values)});
  fields_.push_back(field);
  return *this;
}

ScenarioGrid ScenarioGrid::parse(std::string_view spec,
                                 machine::SystemParameters base) {
  ScenarioGrid grid(base);
  std::size_t pos = 0;
  while (pos < spec.size()) {
    // Axes are separated by whitespace or ';'.
    if (spec[pos] == ' ' || spec[pos] == '\t' || spec[pos] == ';') {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < spec.size() && spec[end] != ' ' && spec[end] != '\t' &&
           spec[end] != ';') {
      ++end;
    }
    const std::string_view token = spec.substr(pos, end - pos);
    pos = end;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      bad_spec(spec, "expected name=values in '" + std::string(token) + "'");
    }
    const std::string name(token.substr(0, eq));
    const std::string_view values_text = token.substr(eq + 1);
    if (values_text.empty()) {
      bad_spec(spec, "axis '" + name + "' has no values");
    }

    std::vector<double> values;
    const std::size_t dots = values_text.find("..");
    if (dots != std::string_view::npos) {
      // Range form: lo..hi, optionally ":+step" (linear) or ":*factor"
      // (geometric).
      const double lo = parse_number(spec, values_text.substr(0, dots));
      std::string_view rest = values_text.substr(dots + 2);
      double step = 1;
      bool geometric = false;
      const std::size_t colon = rest.find(':');
      if (colon != std::string_view::npos) {
        std::string_view step_text = rest.substr(colon + 1);
        rest = rest.substr(0, colon);
        if (step_text.empty()) {
          bad_spec(spec, "axis '" + name + "' has an empty step");
        }
        if (step_text.front() == '*') {
          geometric = true;
          step_text.remove_prefix(1);
        } else if (step_text.front() == '+') {
          step_text.remove_prefix(1);
        }
        step = parse_number(spec, step_text);
      }
      const double hi = parse_number(spec, rest);
      if (lo > hi) {
        bad_spec(spec, "axis '" + name + "' range is descending");
      }
      if ((geometric && (step <= 1 || lo <= 0)) || (!geometric && step <= 0)) {
        bad_spec(spec, "axis '" + name + "' has a non-advancing step");
      }
      for (double v = lo; v <= hi + 1e-9;) {
        values.push_back(v);
        // An overflowing range ("np=1..9e18:+1") must become a parse
        // error, not an absurd job count or an infinite loop: bound the
        // expansion, and catch the iteration stalling when the step
        // underflows the value's ulp (v + step == v at large magnitudes).
        if (values.size() > kMaxAxisValues) {
          bad_spec(spec, "axis '" + name + "' expands to more than " +
                             std::to_string(kMaxAxisValues) + " values");
        }
        const double next = geometric ? v * step : v + step;
        if (!(next > v) || !std::isfinite(next)) {
          bad_spec(spec, "axis '" + name +
                             "' step stops advancing (overflowing range?)");
        }
        v = next;
      }
    } else {
      // Comma-list form.
      std::size_t item = 0;
      while (item <= values_text.size()) {
        std::size_t comma = values_text.find(',', item);
        if (comma == std::string_view::npos) {
          comma = values_text.size();
        }
        if (comma == item) {
          bad_spec(spec, "axis '" + name + "' has an empty value");
        }
        values.push_back(
            parse_number(spec, values_text.substr(item, comma - item)));
        item = comma + 1;
      }
    }
    // Count fields (process/node/thread counts) get their values
    // range-checked here, so an overflowing spec fails as one structured
    // parse error instead of per-job failures.
    if (const Field* field = field_of(name);
        field != nullptr && field->count != nullptr) {
      for (const double v : values) {
        const double rounded = std::floor(v + 0.5);
        if (!(rounded >= 1) || rounded > 2147483647.0) {
          bad_spec(spec, "axis '" + name + "' value " + std::to_string(v) +
                             " overflows the parameter (must be an integer "
                             "in [1, 2^31))");
        }
      }
    }
    grid.axis(name, std::move(values));
  }
  return grid;
}

std::size_t ScenarioGrid::size() const {
  std::size_t count = 1;
  for (const auto& axis : axes_) {
    count *= axis.values.size();
  }
  return count;
}

std::vector<machine::SystemParameters> ScenarioGrid::expand() const {
  const std::size_t count = size();
  std::vector<machine::SystemParameters> scenarios;
  scenarios.reserve(count);
  for (std::size_t ordinal = 0; ordinal < count; ++ordinal) {
    scenarios.push_back(at(ordinal));
  }
  return scenarios;
}

machine::SystemParameters ScenarioGrid::at(std::size_t ordinal) const {
  // Mixed-radix digits of the ordinal, the last axis turning fastest.
  machine::SystemParameters params = base_;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const std::vector<double>& values = axes_[a].values;
    fields_[a]->set(params, axes_[a].name, values[ordinal % values.size()]);
    ordinal /= values.size();
  }
  return params;
}

}  // namespace prophet::pipeline
