// prophetc <-> registry parity: the CLI's help text, `models` listing and
// "@" resolution must all come from models::Registry::builtin() — one
// source of truth, asserted out-of-process against the real binary.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "prophet/models/registry.hpp"

namespace {

struct CommandResult {
  int status = -1;
  std::string output;  // stdout + stderr interleaved
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[512];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) {
    result.output += buffer;
  }
  result.status = pclose(pipe);
  return result;
}

/// The command's exit code, from pclose's wait status.
int exit_code(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string prophetc() { return std::string(PROPHET_BINARY_DIR) + "/prophetc"; }

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(ProphetcCli, ModelsNamesMatchesRegistry) {
  const auto result = run_command(prophetc() + " models --names");
  ASSERT_EQ(result.status, 0) << result.output;
  EXPECT_EQ(lines_of(result.output),
            prophet::models::Registry::builtin().names());
}

TEST(ProphetcCli, ModelsListingCoversEveryEntry) {
  const auto result = run_command(prophetc() + " models");
  ASSERT_EQ(result.status, 0) << result.output;
  for (const auto& entry : prophet::models::Registry::builtin().entries()) {
    if (entry.hidden) {
      // Hidden diagnostics (e.g. the runaway @spin) resolve by exact
      // reference but stay out of the catalogue.
      EXPECT_EQ(result.output.find("@" + entry.name), std::string::npos)
          << "listing leaks hidden @" << entry.name;
      continue;
    }
    EXPECT_NE(result.output.find("@" + entry.name), std::string::npos)
        << "listing misses @" << entry.name;
    EXPECT_NE(result.output.find(entry.default_grid), std::string::npos)
        << "listing misses the grid of @" << entry.name;
  }
}

TEST(ProphetcCli, UsageEnumeratesRegistryModels) {
  // No arguments -> usage on stderr, which must carry the registry's own
  // available() list (never a hardcoded copy).
  const auto result = run_command(prophetc());
  EXPECT_NE(result.status, 0);
  EXPECT_NE(
      result.output.find(prophet::models::Registry::builtin().available()),
      std::string::npos)
      << result.output;
}

TEST(ProphetcCli, UnknownModelErrorEnumeratesRegistryModels) {
  const auto result = run_command(prophetc() + " sweep @doesnotexist");
  EXPECT_NE(result.status, 0);
  EXPECT_NE(
      result.output.find(prophet::models::Registry::builtin().available()),
      std::string::npos)
      << result.output;
}

TEST(ProphetcCli, ModelsGridPrintsTheDefaultGrid) {
  for (const auto& entry : prophet::models::Registry::builtin().entries()) {
    const auto result =
        run_command(prophetc() + " models --grid '@" + entry.name + "'");
    ASSERT_EQ(result.status, 0) << result.output;
    EXPECT_EQ(result.output, entry.default_grid + "\n") << entry.name;
  }
}

TEST(ProphetcCli, KnobReferenceSweeps) {
  const auto result = run_command(
      prophetc() +
      " sweep '@kernel6(n=8, m=1)' --grid np=1,2 --backend analytic");
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("ok 2 / failed 0"), std::string::npos)
      << result.output;
}

TEST(ProphetcCli, SweepExpandsGridsOverRegistryDefaults) {
  // Without --sp, a reference's grid uses the entry's default params:
  // @pingpong needs np = 2, and "nodes=1,2" does not set it.
  const auto result = run_command(
      prophetc() + " sweep @pingpong --grid nodes=1,2 --backend analytic");
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("ok 2 / failed 0"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("np=2"), std::string::npos) << result.output;
}

TEST(ProphetcCli, EstimateResolvesRegistryDefaults) {
  // @pingpong needs np = 2; the registry's default params supply it.
  const auto result = run_command(prophetc() + " estimate @pingpong");
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("processes:      2"), std::string::npos)
      << result.output;
}

TEST(ProphetcCli, EstimateTimingsReportsExpressionCompileSplit) {
  // Every backend reports the prepare/evaluate split with the
  // expression-compile share of prepare, plus a lowering-counts line
  // derived from the shared lower::ModelProgram.  Because the counts
  // come from one lowering layer, every backend mode must report the
  // same "lowering ..." suffix for the same model.
  std::set<std::string> lowering_counts;
  for (const char* backend : {"sim", "analytic", "both"}) {
    const auto result = run_command(prophetc() + " estimate @kernel6 " +
                                    "--backend " + backend + " --timings");
    ASSERT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("-- timings --"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("expr compile"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("programs)"), std::string::npos)
        << result.output;
    if (std::string(backend) != "sim") {
      EXPECT_NE(result.output.find("analytic: prepare"), std::string::npos)
          << result.output;
      EXPECT_NE(result.output.find("analytic: lowering"), std::string::npos)
          << result.output;
    }
    if (std::string(backend) != "analytic") {
      EXPECT_NE(result.output.find("sim: prepare"), std::string::npos)
          << result.output;
      EXPECT_NE(result.output.find("sim: lowering"), std::string::npos)
          << result.output;
    }
    for (const auto& line : lines_of(result.output)) {
      const auto at = line.find(": lowering ");
      if (at != std::string::npos) {
        lowering_counts.insert(line.substr(at));
      }
    }
  }
  // sim, analytic and both produced four lowering lines between them;
  // all must carry identical counts (nodes, slots, bytecode bytes).
  EXPECT_EQ(lowering_counts.size(), 1u)
      << "backends disagree on lowering counts";
  // The timed sim path must stay bit-identical to the default path.
  const auto timed = run_command(prophetc() + " estimate @kernel6 --timings");
  const auto plain = run_command(prophetc() + " estimate @kernel6");
  ASSERT_EQ(timed.status, 0) << timed.output;
  const auto timed_lines = lines_of(timed.output);
  ASSERT_FALSE(timed_lines.empty());
  EXPECT_NE(timed.output.find(lines_of(plain.output)[0]), std::string::npos)
      << "predicted time differs between --timings and default paths:\n"
      << timed.output << "\nvs\n"
      << plain.output;
}

TEST(ProphetcCli, SweepCsvWriteErrorExitsOne) {
  // /dev/full accepts the open and fails every write: the error shows
  // at the last flush, and must not be reported as a written CSV.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full";
  }
  const auto result = run_command(
      prophetc() +
      " sweep @sample --grid 'np=1..8' --backend analytic --csv /dev/full");
  EXPECT_EQ(exit_code(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("cannot write /dev/full"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("csv written"), std::string::npos)
      << result.output;
}

TEST(ProphetcCli, SweepCsvUnwritablePathFailsBeforeAnyJobRuns) {
  // A directory cannot be opened as the CSV.  The runaway @spin job
  // would hold the sweep for the whole --job-timeout if it ran; the
  // open fails first, so no job starts, no progress heartbeat and no
  // summary are printed.
  const std::string dir = ::testing::TempDir();
  const auto result = run_command(
      prophetc() +
      " sweep '@spin(trips=1000000000000)' --grid np=1 --job-timeout 20 "
      "--progress --csv " +
      dir);
  EXPECT_EQ(exit_code(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("cannot write " + dir), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("job(s)"), std::string::npos)
      << result.output;
}

TEST(ProphetcCli, InterruptedSweepCsvHasEveryRowInJobOrder) {
  // SIGINT mid-sweep: the two running @spin jobs are cancelled, the
  // other six never start, and the CSV streamed to the file still holds
  // one row per job, in job order.
  const std::string csv = ::testing::TempDir() + "/interrupted-sweep.csv";
  std::filesystem::remove(csv);
  const auto result = run_command(
      "timeout --preserve-status -s INT 1 " + prophetc() +
      " sweep '@spin(trips=1000000000000)' --grid 'np=1..8' --threads 2 "
      "--csv " +
      csv);
  EXPECT_EQ(exit_code(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("interrupted"), std::string::npos)
      << result.output;
  std::ifstream in(csv);
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) {
    rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), 9u) << result.output;
  for (std::size_t job = 0; job < 8; ++job) {
    const std::string& row = rows[job + 1];
    EXPECT_EQ(row.substr(0, row.find(',')), std::to_string(job)) << row;
    EXPECT_NE(row.find(",cancelled,"), std::string::npos) << row;
  }
}

}  // namespace
