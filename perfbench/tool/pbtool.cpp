// pbtool — the in-process half of the repository benchmark.
//
//   pbtool ingest --seed S --count N --size K --out DIR
//       Writes N seeded @random(size=K) models as XMI files
//       DIR/model_000.xmi ...; the same seed gives byte-identical files.
//   pbtool check --csv FILE --mode analytic|sim|codegen [--sample FILE]
//                [--expected FILE] [--write-expected FILE]
//       Checks a `prophetc sweep --csv` result: counts failed rows and
//       re-evaluates the sampled job ids through the public Backend API.
//       analytic: each sampled row against a scalar PreparedModel::estimate
//       of the same scenario, and the rows named in the expected-value
//       file against their committed values.  sim / codegen: the simulator
//       and the generated evaluator must agree bit for bit on each sampled
//       scenario, and the row must match that value.  CSV values are
//       compared at the precision the CSV was written with, not as bytes.
//       Prints one JSON object.
//   pbtool trace --backend B --grid SPEC --threads T --seed S --out FILE
//                [--analytic-sample N] [--sim-sample N] [--cgen-models N]
//                [--cgen-sample N] [--pipeline-jobs N] MODEL...
//       The traced in-process run: times calls into each module's public
//       functions with one span per call and writes the spans as Chrome
//       trace JSON (see spans.hpp).  Prints one JSON object with the
//       correctness tallies.
//
// MODEL is a registry reference ("@kernel6(n=256)") or an XMI file path,
// exactly as `prophetc sweep` takes it.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/check/checker.hpp"
#include "prophet/codegen/transformer.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/pipeline/batch.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/xmi/xmi.hpp"
#include "prophet/xml/parser.hpp"
#include "spans.hpp"

namespace {

namespace fs = std::filesystem;
using prophet::estimator::BackendKind;
using prophet::estimator::PreparedModel;
using prophet::machine::SystemParameters;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// `count` distinct indices of [0, n) drawn from `seed`, ascending.
std::vector<std::size_t> seeded_subset(std::size_t n, std::size_t count,
                                       std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) {
    all[i] = i;
  }
  count = std::min(count, n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < count; ++i) {
    state = splitmix64(state);
    std::swap(all[i], all[i + state % (n - i)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

double elapsed_s(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

/// Command-line flags: "--name value" pairs plus positional arguments.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  static Args parse(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        if (i + 1 >= argc) {
          throw std::invalid_argument(arg + " requires a value");
        }
        args.flags[arg.substr(2)] = argv[++i];
      } else {
        args.positional.push_back(arg);
      }
    }
    return args;
  }
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const {
    const auto it = flags.find(name);
    if (it != flags.end()) {
      return it->second;
    }
    if (fallback.empty()) {
      throw std::invalid_argument("missing --" + name);
    }
    return fallback;
  }
  [[nodiscard]] std::uint64_t number(const std::string& name,
                                     const std::string& fallback = "") const {
    const std::string text = get(name, fallback);
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument("--" + name + ": not a number: " + text);
    }
    return value;
  }
};

// ---------------------------------------------------------------------------
// Models, scenarios and backends, resolved the way `prophetc sweep` does
// ---------------------------------------------------------------------------

/// The model's XMI text: what BatchRunner registers and re-parses.
std::string model_xmi(const std::string& input) {
  if (prophet::models::is_reference(input)) {
    return prophet::xmi::to_xml(
        prophet::models::Registry::builtin().make(input));
  }
  return read_file(input);
}

/// The sweep's base parameters for `input` (prophetc without --sp).
SystemParameters base_params(const std::string& input) {
  if (prophet::models::is_reference(input)) {
    const auto reference = prophet::models::parse_reference(input);
    return prophet::models::Registry::builtin()
        .at(reference.name)
        .default_params;
  }
  return {};
}

BackendKind backend_kind(const std::string& name) {
  const auto kind = prophet::estimator::backend_from_string(name);
  if (!kind || (*kind != BackendKind::Simulation &&
                *kind != BackendKind::Analytic &&
                *kind != BackendKind::Codegen)) {
    throw std::invalid_argument("backend must be sim, analytic or codegen: " +
                                name);
  }
  return *kind;
}

std::unique_ptr<PreparedModel> prepare(BackendKind kind,
                                       prophet::lower::ModelProgramPtr program,
                                       const std::string& cgen_cache = "") {
  if (kind == BackendKind::Codegen) {
    prophet::cgen::CodegenOptions options;
    options.toolchain.cache_dir = cgen_cache;
    return prophet::cgen::CodegenBackend(options).prepare(std::move(program));
  }
  if (kind == BackendKind::Analytic) {
    return prophet::analytic::AnalyticBackend().prepare(std::move(program));
  }
  return prophet::analytic::SimulationBackend().prepare(std::move(program));
}

/// What the sweep pipeline asks of every estimate.
prophet::estimator::EstimationOptions plain_estimation() {
  prophet::estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  return options;
}

/// A count of failed checks, keeping the first failure's description.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;

  void fail(const std::string& what) {
    if (failed++ == 0) {
      first_failure = what;
    }
  }
};

/// One model of a workload: its parsed UML model and shared lowering.
struct Compiled {
  std::unique_ptr<prophet::uml::Model> model;
  prophet::lower::ModelProgramPtr program;
};

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

int cmd_ingest(const Args& args) {
  const std::uint64_t seed = args.number("seed");
  const std::uint64_t count = args.number("count");
  const std::uint64_t size = args.number("size");
  const fs::path out = args.get("out");
  fs::create_directories(out);
  for (std::uint64_t i = 0; i < count; ++i) {
    // Knob values are doubles: keep model seeds exactly representable.
    const std::uint64_t model_seed =
        splitmix64(seed * 0x100000001b3ULL + i) % 1000000007ULL;
    const std::string reference = "@random(seed=" +
                                  std::to_string(model_seed) +
                                  ",size=" + std::to_string(size) + ")";
    char name[32];
    std::snprintf(name, sizeof name, "model_%03llu.xmi",
                  static_cast<unsigned long long>(i));
    prophet::xmi::save(prophet::models::Registry::builtin().make(reference),
                       (out / name).string());
  }
  std::printf("{\"models\":%llu}\n", static_cast<unsigned long long>(count));
  return 0;
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

/// RFC 4180 CSV, as BatchReport::to_csv writes it.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  if (!field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Significant digits a decimal rendering carries ("0.00032256" -> 5).
int significant_digits(const std::string& text) {
  int digits = 0;
  bool leading = true;
  for (const char c : text) {
    if (c == 'e' || c == 'E') {
      break;
    }
    if (c < '0' || c > '9') {
      continue;
    }
    if (leading && c == '0') {
      continue;
    }
    leading = false;
    ++digits;
  }
  return digits;
}

/// True when `reference`, rendered at `precision` significant digits,
/// reads back as the same number the CSV field holds.
bool matches_at(const std::string& field, double reference, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, reference);
  return std::strtod(field.c_str(), nullptr) == std::strtod(buf, nullptr);
}

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t column(const std::string& name) const {
    const auto it = std::find(header.begin(), header.end(), name);
    if (it == header.end()) {
      throw std::runtime_error("csv has no column " + name);
    }
    return static_cast<std::size_t>(it - header.begin());
  }
};

SystemParameters row_params(const CsvTable& table,
                            const std::vector<std::string>& row) {
  SystemParameters params = base_params(row[table.column("model")]);
  params.processes = std::stoi(row[table.column("np")]);
  params.nodes = std::stoi(row[table.column("nn")]);
  params.processors_per_node = std::stoi(row[table.column("ppn")]);
  params.threads_per_process = std::stoi(row[table.column("nt")]);
  params.cpu_speed = std::stod(row[table.column("cpu_speed")]);
  return params;
}

std::string row_key(const CsvTable& table,
                    const std::vector<std::string>& row) {
  std::string key = row[table.column("model")];
  for (const char* name : {"np", "nn", "ppn", "nt"}) {
    key += '|';
    key += row[table.column(name)];
  }
  return key;
}

int cmd_check(const Args& args) {
  const BackendKind mode = backend_kind(args.get("mode"));
  const auto parsed = parse_csv(read_file(args.get("csv")));
  if (parsed.empty()) {
    throw std::runtime_error("empty csv");
  }
  CsvTable table{parsed[0], {parsed.begin() + 1, parsed.end()}};
  const std::size_t ok_col = table.column("ok");
  const std::size_t pred_col = table.column("predicted_s");
  const std::size_t model_col = table.column("model");

  // The precision the writer used: the most digits any value carries,
  // and no fewer than the 12 BatchReport::to_csv writes today — a column
  // of short decimals must not lower the bar for its sampled rows.
  int precision = 12;
  std::size_t failed_rows = 0;
  std::map<std::int64_t, std::size_t> by_job;
  std::map<std::string, std::size_t> by_key;
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    if (row.size() != table.header.size()) {
      throw std::runtime_error("csv row " + std::to_string(i) +
                               " has the wrong field count");
    }
    if (row[ok_col] != "1") {
      ++failed_rows;
      continue;
    }
    precision = std::max(precision, significant_digits(row[pred_col]));
    by_job[std::stoll(row[table.column("job")])] = i;
    by_key[row_key(table, row)] = i;
  }

  std::vector<std::size_t> sample;
  std::vector<std::int64_t> missing;  // sampled jobs absent or failed
  if (args.flags.count("sample") != 0) {
    std::istringstream ids(read_file(args.get("sample")));
    std::int64_t id = 0;
    while (ids >> id) {
      const auto it = by_job.find(id);
      if (it == by_job.end()) {
        missing.push_back(id);
      } else {
        sample.push_back(it->second);
      }
    }
  }

  // Prepare each sampled model once, for every engine the mode needs, in
  // parallel: codegen prepares are host compiles.
  std::vector<std::string> inputs;
  for (const std::size_t i : sample) {
    const std::string& input = table.rows[i][model_col];
    if (std::find(inputs.begin(), inputs.end(), input) == inputs.end()) {
      inputs.push_back(input);
    }
  }
  const bool bitwise = mode != BackendKind::Analytic;
  struct Engines {
    Compiled compiled;
    std::unique_ptr<PreparedModel> primary;  // analytic, or sim
    std::unique_ptr<PreparedModel> codegen;
    std::string error;
  };
  std::vector<Engines> engines(inputs.size());
  {
    std::vector<std::thread> workers;
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      workers.emplace_back([&, m] {
        Engines& e = engines[m];
        try {
          e.compiled.model = std::make_unique<prophet::uml::Model>(
              prophet::xmi::from_xml(model_xmi(inputs[m])));
          e.compiled.program = prophet::lower::lower(*e.compiled.model);
          e.primary = prepare(
              bitwise ? BackendKind::Simulation : BackendKind::Analytic,
              e.compiled.program);
          if (bitwise) {
            e.codegen = prepare(BackendKind::Codegen, e.compiled.program);
          }
        } catch (const std::exception& error) {
          e.error = error.what();
        }
      });
    }
    for (auto& worker : workers) {
      worker.join();
    }
  }
  for (const auto& e : engines) {
    if (!e.error.empty()) {
      throw std::runtime_error("reference prepare failed: " + e.error);
    }
  }
  const auto engine_of = [&](const std::string& input) -> const Engines& {
    return engines[static_cast<std::size_t>(
        std::find(inputs.begin(), inputs.end(), input) - inputs.begin())];
  };

  Tally sampled;
  for (const std::int64_t id : missing) {
    sampled.fail("sampled job " + std::to_string(id) + " missing or failed");
  }
  const auto options = plain_estimation();
  std::vector<std::string> expected_lines;
  for (const std::size_t i : sample) {
    const auto& row = table.rows[i];
    const Engines& e = engine_of(row[model_col]);
    const SystemParameters params = row_params(table, row);
    const double reference =
        e.primary->estimate(params, options).predicted_time;
    if (bitwise) {
      const double generated =
          e.codegen->estimate(params, options).predicted_time;
      if (bits(reference) != bits(generated)) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "sim %.17g != codegen %.17g at ",
                      reference, generated);
        sampled.fail(buf + row_key(table, row));
        continue;
      }
    }
    if (!matches_at(row[pred_col], reference, precision)) {
      sampled.fail("csv " + row[pred_col] + " != reference " +
               std::to_string(reference) + " at " + row_key(table, row));
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", reference);
    expected_lines.push_back(row_key(table, row) + "|" + buf);
  }

  if (args.flags.count("write-expected") != 0) {
    std::string text =
        "# model|np|nn|ppn|nt|predicted_s (scalar PreparedModel::estimate)\n";
    for (const auto& line : expected_lines) {
      text += line + "\n";
    }
    write_file(args.get("write-expected"), text);
  }

  Tally expected;
  if (args.flags.count("expected") != 0) {
    std::istringstream lines(read_file(args.get("expected")));
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      const auto cut = line.rfind('|');
      const auto it = by_key.find(line.substr(0, cut));
      ++expected.attempted;
      if (it == by_key.end() ||
          !matches_at(table.rows[it->second][pred_col],
                      std::strtod(line.c_str() + cut + 1, nullptr),
                      precision)) {
        expected.fail("expected " + line);
      }
    }
  }

  std::printf(
      "{\"rows\":%zu,\"failed_rows\":%zu,\"precision\":%d,\"checked\":%zu,"
      "\"mismatches\":%zu,\"expected_checked\":%zu,"
      "\"expected_mismatches\":%zu,\"first_mismatch\":\"%s\"}\n",
      table.rows.size(), failed_rows, precision,
      sample.size() + missing.size(), sampled.failed, expected.attempted,
      expected.failed,
      json_escape(sampled.failed != 0 ? sampled.first_failure
                                      : expected.first_failure)
          .c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

struct Job {
  std::size_t model = 0;
  SystemParameters params;
};

/// Groups `picks` (ascending job indices) into runs of at most `lanes`
/// consecutive same-model jobs — the chunks BatchRunner hands to
/// PreparedModel::estimate_batch.
std::vector<std::vector<std::size_t>> chunks_of(
    const std::vector<Job>& jobs, const std::vector<std::size_t>& picks,
    std::size_t lanes) {
  std::vector<std::vector<std::size_t>> chunks;
  for (const std::size_t j : picks) {
    if (chunks.empty() || chunks.back().size() == lanes ||
        jobs[chunks.back().front()].model != jobs[j].model) {
      chunks.emplace_back();
    }
    chunks.back().push_back(j);
  }
  return chunks;
}

int cmd_trace(const Args& args) {
  using perfbench::Scope;
  const BackendKind backend = backend_kind(args.get("backend"));
  const std::string grid_spec = args.get("grid");
  const int threads = static_cast<int>(args.number("threads"));
  const std::uint64_t seed = args.number("seed");
  const std::size_t analytic_sample = args.number("analytic-sample", "4096");
  const std::size_t sim_sample = args.number("sim-sample", "256");
  const std::size_t cgen_models = args.number("cgen-models", "4");
  const std::size_t cgen_sample = args.number("cgen-sample", "64");
  const std::size_t pipeline_jobs = args.number("pipeline-jobs", "1000000");
  const fs::path cache_root = args.get("cache");
  const std::vector<std::string>& inputs = args.positional;
  if (inputs.empty()) {
    throw std::invalid_argument("trace: no models");
  }
  constexpr std::size_t kLanes = 8;  // BatchOptions::batch_lanes default

  perfbench::SpanLog log;
  Tally tally;
  const auto options = plain_estimation();
  const int root = log.begin("traced_run");

  // Per-model chain: the stages BatchRunner's compile phase runs, each
  // timed around the module's own public function.
  std::vector<Compiled> models(inputs.size());
  std::vector<std::unique_ptr<PreparedModel>> analytic(inputs.size());
  std::vector<std::unique_ptr<PreparedModel>> sim(inputs.size());
  for (std::size_t m = 0; m < inputs.size(); ++m) {
    const int id = static_cast<int>(m);
    Scope model_span(log, "model", id);
    std::string text;
    {
      Scope s(log, "models.load", id);
      text = model_xmi(inputs[m]);
    }
    prophet::xml::Document doc;
    {
      Scope s(log, "xml.parse", id);
      doc = prophet::xml::parse(text);
      s.count("bytes", static_cast<double>(text.size()));
    }
    {
      Scope s(log, "xmi.from_document", id);
      models[m].model = std::make_unique<prophet::uml::Model>(
          prophet::xmi::from_document(doc));
    }
    {
      Scope s(log, "check", id);
      const prophet::check::ModelChecker checker;
      const auto diagnostics = checker.check(*models[m].model);
      s.count("errors", static_cast<double>(diagnostics.error_count()));
      if (!diagnostics.ok()) {
        tally.fail("check errors in " + inputs[m]);
      }
    }
    {
      Scope s(log, "codegen.transform", id);
      const prophet::codegen::Transformer transformer;
      const std::string code = transformer.transform(*models[m].model);
      s.count("bytes", static_cast<double>(code.size()));
    }
    {
      Scope s(log, "lower", id);
      models[m].program = prophet::lower::lower(*models[m].model);
      s.count("bytecode_bytes",
              static_cast<double>(models[m].program->stats().bytecode_bytes));
    }
    {
      Scope s(log, "analytic.prepare", id);
      analytic[m] = prepare(BackendKind::Analytic, models[m].program);
    }
    {
      Scope s(log, "sim.prepare", id);
      sim[m] = prepare(BackendKind::Simulation, models[m].program);
    }
  }

  // The workload's jobs in `prophetc sweep` order: models outer, grid
  // inner, each model's grid over its own base parameters.
  std::vector<Job> jobs;
  for (std::size_t m = 0; m < inputs.size(); ++m) {
    for (const auto& params :
         prophet::pipeline::ScenarioGrid::parse(grid_spec,
                                                base_params(inputs[m]))
             .expand()) {
      jobs.push_back({m, params});
    }
  }
  const auto pick = [&](std::size_t count, std::uint64_t salt) {
    return seeded_subset(jobs.size(), count, splitmix64(seed ^ salt));
  };

  // Scalar analytic estimates; run untraced and traced, alternating, so
  // the traced/untraced wall ratio gives the recorder's overhead.
  const auto analytic_picks = pick(analytic_sample, 1);
  std::vector<double> analytic_scalar(jobs.size());
  double traced_s = 0;
  double untraced_s = 0;
  // Round 0 warms caches and is not counted.
  for (int round = 0; round < 5; ++round) {
    const bool traced = round % 2 == 1;
    log.set_enabled(traced);
    const auto start = std::chrono::steady_clock::now();
    for (const std::size_t j : analytic_picks) {
      Scope s(log, "analytic.estimate", static_cast<int>(jobs[j].model),
              static_cast<std::int64_t>(j));
      analytic_scalar[j] =
          analytic[jobs[j].model]->estimate(jobs[j].params, options)
              .predicted_time;
    }
    if (round > 0) {
      (traced ? traced_s : untraced_s) += elapsed_s(start);
    }
  }
  log.set_enabled(true);
  log.count(root, "trace_traced_s", traced_s);
  log.count(root, "trace_untraced_s", untraced_s);
  tally.attempted += analytic_picks.size();

  // Batched analytic estimates at the default lane width, bit-compared
  // with the scalar ones.
  for (const auto& chunk : chunks_of(jobs, analytic_picks, kLanes)) {
    std::vector<SystemParameters> params;
    for (const std::size_t j : chunk) {
      params.push_back(jobs[j].params);
    }
    const std::size_t m = jobs[chunk.front()].model;
    std::vector<prophet::estimator::PredictionReport> reports;
    {
      Scope s(log, "analytic.estimate_batch", static_cast<int>(m),
              static_cast<std::int64_t>(chunk.front()));
      reports = analytic[m]->estimate_batch(params, options);
      s.count("lanes", static_cast<double>(chunk.size()));
    }
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (bits(reports[i].predicted_time) !=
          bits(analytic_scalar[chunk[i]])) {
        tally.fail("analytic batch != scalar at job " +
                   std::to_string(chunk[i]));
      }
    }
  }

  // Simulator estimates over the workload's jobs.
  const auto sim_picks = pick(sim_sample, 2);
  for (const std::size_t j : sim_picks) {
    Scope s(log, "sim.estimate", static_cast<int>(jobs[j].model),
            static_cast<std::int64_t>(j));
    const auto report = sim[jobs[j].model]->estimate(jobs[j].params, options);
    s.count("events", static_cast<double>(report.events));
  }
  tally.attempted += sim_picks.size();

  // Generated evaluators of the first `cgen_models` models: cold prepare
  // (empty cache), warm prepare, then jobs of those models through both
  // the simulator and the generated code, which must agree bit for bit.
  const std::size_t ncgen = std::min(cgen_models, inputs.size());
  const std::string cgen_cache = (cache_root / "cgen").string();
  std::vector<std::unique_ptr<PreparedModel>> generated(inputs.size());
  for (const bool cold : {true, false}) {
    for (std::size_t m = 0; m < ncgen; ++m) {
      Scope s(log, "cgen.prepare", static_cast<int>(m));
      generated[m] =
          prepare(BackendKind::Codegen, models[m].program, cgen_cache);
      const auto& handle =
          static_cast<const prophet::cgen::CodegenPrepared&>(*generated[m]);
      s.count("cold", cold ? 1 : 0);
      if (cold == handle.cache_hit()) {
        tally.fail("cgen cache state unexpected for " + inputs[m]);
      }
      fs::path object = handle.object_path();
      s.count("so_bytes", static_cast<double>(fs::file_size(object)));
      object.replace_extension(".cpp");
      s.count("source_bytes", static_cast<double>(fs::file_size(object)));
    }
  }
  std::vector<std::size_t> cgen_jobs;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].model < ncgen) {
      cgen_jobs.push_back(j);
    }
  }
  for (const std::size_t i :
       seeded_subset(cgen_jobs.size(), cgen_sample, splitmix64(seed ^ 4))) {
    const std::size_t j = cgen_jobs[i];
    const int m = static_cast<int>(jobs[j].model);
    double reference = 0;
    double value = 0;
    {
      Scope s(log, "cgen.sim_reference", m, static_cast<std::int64_t>(j));
      reference = sim[jobs[j].model]->estimate(jobs[j].params, options)
                      .predicted_time;
    }
    {
      Scope s(log, "cgen.estimate", m, static_cast<std::int64_t>(j));
      value = generated[jobs[j].model]
                  ->estimate(jobs[j].params, options)
                  .predicted_time;
    }
    ++tally.attempted;
    if (bits(value) != bits(reference)) {
      tally.fail("codegen != sim at job " + std::to_string(j));
    }
  }

  // The sweep pipeline over a seeded subset of the workload's jobs, on
  // the workload's backend: at 1 thread, then at the workload's threads.
  setenv("PROPHET_CGEN_CACHE", cgen_cache.c_str(), 1);  // warm by now
  const auto pipeline_picks = pick(pipeline_jobs, 3);
  prophet::guard::Budget sweep_budget;  // prophetc always passes one
  const auto make_runner = [&](int runner_threads, bool metrics,
                               const std::vector<std::size_t>& picks) {
    prophet::pipeline::BatchOptions batch;
    batch.threads = runner_threads;
    batch.backend = backend;
    batch.collect_metrics = metrics;
    batch.sweep_budget = &sweep_budget;
    auto runner = std::make_unique<prophet::pipeline::BatchRunner>(batch);
    for (const auto& input : inputs) {
      if (prophet::models::is_reference(input)) {
        runner->add_model_reference(input);
      } else {
        runner->add_model_file(input);
      }
    }
    for (const std::size_t j : picks) {
      runner->add_scenario(static_cast<int>(jobs[j].model), jobs[j].params);
    }
    return runner;
  };
  const auto run_pipeline = [&](int runner_threads, bool metrics,
                                const std::vector<std::size_t>& picks,
                                const char* name) {
    const auto runner = make_runner(runner_threads, metrics, picks);
    prophet::pipeline::BatchReport report;
    {
      Scope s(log, name);
      report = runner->run();
      s.count("threads", report.threads_used);
      s.count("jobs", static_cast<double>(picks.size()));
      s.count("prepare_s", report.prepare_seconds);
      if (metrics) {
        s.count("lanes_fallback",
                static_cast<double>(
                    report.metrics.counter_value("batch.lanes_fallback")));
      }
    }
    const auto stats = report.stats();
    tally.attempted += stats.total;
    if (stats.failed != 0) {
      tally.fail(std::to_string(stats.failed) + " failed pipeline job(s): " +
                 report.results[0].error);
    }
    return report;
  };
  std::vector<double> pipeline_value;
  {
    const auto report =
        run_pipeline(1, false, pipeline_picks, "pipeline.run_1");
    for (const auto& result : report.results) {
      pipeline_value.push_back(result.predicted_time);
    }
  }
  // The direct loop: the same jobs and lane chunks straight into the
  // prepared models, with the pipeline's per-job machinery left out.
  const auto& engine = backend == BackendKind::Analytic ? analytic
                       : backend == BackendKind::Codegen ? generated
                                                         : sim;
  {
    std::vector<std::size_t> position(jobs.size());
    for (std::size_t i = 0; i < pipeline_picks.size(); ++i) {
      position[pipeline_picks[i]] = i;
    }
    // Keep only the predictions: a PredictionReport per job would make
    // this loop an allocation benchmark.
    std::vector<double> direct_value(pipeline_picks.size());
    {
      Scope s(log, "pipeline.direct");
      for (const auto& chunk : chunks_of(jobs, pipeline_picks, kLanes)) {
        std::vector<SystemParameters> params;
        for (const std::size_t j : chunk) {
          params.push_back(jobs[j].params);
        }
        const std::size_t m = jobs[chunk.front()].model;
        if (engine[m] == nullptr) {
          throw std::runtime_error("no prepared engine for " + inputs[m]);
        }
        const auto reports = engine[m]->estimate_batch(params, options);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
          direct_value[position[chunk[i]]] = reports[i].predicted_time;
        }
      }
      s.count("jobs", static_cast<double>(pipeline_picks.size()));
    }
    for (std::size_t i = 0; i < pipeline_picks.size(); ++i) {
      if (bits(direct_value[i]) != bits(pipeline_value[i])) {
        tally.fail("pipeline != direct estimate at job " +
                   std::to_string(pipeline_picks[i]));
      }
    }
  }
  {
    const auto report =
        run_pipeline(threads, false, pipeline_picks, "pipeline.run_n");
    std::string csv;
    {
      Scope s(log, "pipeline.to_csv");
      csv = report.to_csv();
      s.count("rows", static_cast<double>(report.results.size()));
      s.count("bytes", static_cast<double>(csv.size()));
    }
    {
      Scope s(log, "pipeline.summary");
      const std::string summary = report.summary();
      s.count("rows", static_cast<double>(report.results.size()));
      s.count("bytes", static_cast<double>(summary.size()));
    }
  }
  (void)run_pipeline(threads, true, pipeline_picks, "pipeline.run_metrics");

  // Compile phase alone: one scenario per model, from an empty cgen cache.
  const std::string compile_cache = (cache_root / "compile").string();
  setenv("PROPHET_CGEN_CACHE", compile_cache.c_str(), 1);
  {
    std::vector<std::size_t> firsts;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (j == 0 || jobs[j].model != jobs[j - 1].model) {
        firsts.push_back(j);
      }
    }
    (void)run_pipeline(threads, false, firsts, "pipeline.compile");
  }
  log.end(root);

  write_file(args.get("out"), log.to_chrome_json());
  std::printf(
      "{\"spans\":%zu,\"attempted\":%zu,\"failed\":%zu,"
      "\"first_failure\":\"%s\"}\n",
      log.spans().size(), tally.attempted, tally.failed,
      json_escape(tally.first_failure).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbtool ingest|check|trace [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args = Args::parse(argc, argv, 2);
    if (command == "ingest") {
      return cmd_ingest(args);
    }
    if (command == "check") {
      return cmd_check(args);
    }
    if (command == "trace") {
      return cmd_trace(args);
    }
    std::fprintf(stderr, "pbtool: unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pbtool %s: %s\n", command.c_str(), error.what());
    return 1;
  }
}
