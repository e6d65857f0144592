// The streamed report writer behind BatchReport::to_csv and summary():
// CSV doubles read back to the same bits, summary seconds match printf's
// "%.6f" at any magnitude, and RFC 4180 fields and whole documents come
// out intact across the writer's buffer flushes.  The CSV a run streams
// while its jobs execute (BatchOptions::csv_sink) is byte-identical to
// the report's to_csv() of the same run, whatever the thread count, lane
// width, isolation, faults or deadline.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "prophet/estimator/backend.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/pipeline/batch.hpp"
#include "prophet/pipeline/scenario.hpp"

namespace {

using prophet::estimator::BackendKind;
using prophet::pipeline::BatchOptions;
using prophet::pipeline::BatchReport;
using prophet::pipeline::BatchRunner;
using prophet::pipeline::ScenarioGrid;
using prophet::pipeline::ScenarioResult;

using Row = std::vector<std::string>;

/// RFC 4180 reader: quoted fields, doubled quotes, embedded line breaks.
std::vector<Row> parse_csv(const std::string& text) {
  std::vector<Row> rows;
  Row row;
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
    } else {
      field += c;
    }
  }
  EXPECT_TRUE(field.empty() && row.empty()) << "csv ends mid-row";
  return rows;
}

std::uint64_t bits_of(const std::string& text) {
  double value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  EXPECT_EQ(ec, std::errc()) << text;
  EXPECT_EQ(end, text.data() + text.size()) << text;
  return std::bit_cast<std::uint64_t>(value);
}

std::string printf_fixed6(double value) {
  std::vector<char> buffer(400);
  std::snprintf(buffer.data(), buffer.size(), "%.6f", value);
  return buffer.data();
}

ScenarioResult ok_result(int id, double predicted) {
  ScenarioResult result;
  result.job_id = id;
  result.model_name = "m";
  result.ok = true;
  result.backend = BackendKind::Analytic;
  result.predicted_time = predicted;
  result.analytic_predicted = predicted;
  return result;
}

// CSV columns (1-based in the header; 0-based here) that hold doubles.
constexpr int kCpuSpeed = 6;
constexpr int kPredicted = 10;
constexpr int kDoubleColumns[] = {6, 10, 11, 12, 13, 17, 18, 19, 20, 21};

TEST(ReportWriter, CsvDoublesReadBackBitExact) {
  const double values[] = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),  // 5e-324
      1e300,
      0.1 + 0.2,
      1.0 / 3.0,
      std::nextafter(1.0, 2.0),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::min(),
      0.00032256,
      123456789012345680.0,
  };
  BatchReport report;
  int id = 0;
  for (const double v : values) {
    ScenarioResult result = ok_result(id++, v);
    result.backend = BackendKind::All;
    result.params.cpu_speed = v;
    result.codegen_predicted = v;
    result.wall_seconds = v;
    result.parse_seconds = v;
    result.check_seconds = v;
    result.transform_seconds = v;
    result.estimate_seconds = v;
    // A nonzero candidate against a zero reference is total
    // disagreement: the relative error is legitimately infinite.
    result.relative_error = v == 0 ? std::numeric_limits<double>::infinity()
                                   : v;
    report.results.push_back(result);
  }
  const auto rows = parse_csv(report.to_csv());
  ASSERT_EQ(rows.size(), 1 + std::size(values));
  for (std::size_t r = 0; r < std::size(values); ++r) {
    const Row& row = rows[r + 1];
    ASSERT_EQ(row.size(), rows[0].size());
    const ScenarioResult& result = report.results[r];
    for (const int column : kDoubleColumns) {
      const double expected = column == 13 ? result.relative_error
                                           : values[r];
      EXPECT_EQ(bits_of(row[static_cast<std::size_t>(column)]),
                std::bit_cast<std::uint64_t>(expected))
          << rows[0][static_cast<std::size_t>(column)] << " = "
          << row[static_cast<std::size_t>(column)];
    }
  }
  EXPECT_EQ(rows[1][kPredicted], "-0");
  EXPECT_EQ(rows[1][13], "inf");
  EXPECT_EQ(rows[2][kPredicted], "5e-324");
  EXPECT_EQ(rows[3][kPredicted], "1e+300");
  EXPECT_EQ(rows[4][kCpuSpeed], "0.30000000000000004");
}

TEST(ReportWriter, ResultsOneUlpApartGiveDifferentRows) {
  const double value = 0.1 + 0.2;
  BatchReport report;
  report.results.push_back(ok_result(0, value));
  report.results.push_back(ok_result(0, std::nextafter(value, 1.0)));
  const auto rows = parse_csv(report.to_csv());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_NE(rows[1], rows[2]);
  EXPECT_NE(rows[1][kPredicted], rows[2][kPredicted]);
}

TEST(ReportWriter, SummarySecondsMatchPrintfFixed6) {
  const double values[] = {1e300,
                           -1e300,
                           std::numeric_limits<double>::max(),
                           0.1 + 0.2,
                           std::numeric_limits<double>::denorm_min(),
                           -0.0,
                           2.5e-7,
                           0.0000005,
                           1234.5678905,
                           std::numeric_limits<double>::infinity()};
  BatchReport report;
  int id = 0;
  for (const double v : values) {
    report.results.push_back(ok_result(id++, v));
  }
  const std::string summary = report.summary();
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const std::string row = "  [" + std::to_string(i) +
                            "] m np=1 nn=1 ppn=1 nt=1 -> " +
                            printf_fixed6(values[i]) + " s (analytic)\n";
    EXPECT_NE(summary.find(row), std::string::npos) << row;
  }
  // The fixed form of 1e300 is ~300 characters and is never truncated.
  EXPECT_GT(printf_fixed6(1e300).size(), 300u);
}

TEST(ReportWriter, SummaryCrossValidationRowMatchesPrintf) {
  ScenarioResult result = ok_result(7, 0.125);
  result.backend = BackendKind::All;
  result.analytic_predicted = 1.0 / 3.0;
  result.codegen_predicted = 0.125;
  result.relative_error = std::numeric_limits<double>::infinity();
  result.check_warnings = 2;
  BatchReport report;
  report.results.push_back(result);
  EXPECT_NE(report.summary().find(
                "  [7] m np=1 nn=1 ppn=1 nt=1 -> 0.125000 s (analytic " +
                printf_fixed6(1.0 / 3.0) +
                " s, codegen 0.125000 s, rel err inf) [2 warning(s)]\n"),
            std::string::npos)
      << report.summary();
}

TEST(ReportWriter, LongQuotedErrorSurvivesBufferFlushes) {
  // ~100 KB of free text with every character RFC 4180 must escape,
  // longer than the writer's buffer.
  std::string error;
  while (error.size() < 100 * 1024) {
    error += "check: node \"a,b\"\r\nfailed, ";
  }
  BatchReport report;
  report.results.push_back(ok_result(0, 1.0));
  ScenarioResult failed;
  failed.job_id = 1;
  failed.model_name = "dir/v2,\"final\".xml";
  failed.error = error;
  report.results.push_back(failed);
  report.results.push_back(ok_result(2, 2.0));

  const auto rows = parse_csv(report.to_csv());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[2][1], failed.model_name);
  EXPECT_EQ(rows[2].back(), error);
  EXPECT_EQ(rows[3][0], "2");
  EXPECT_NE(report.summary().find(" -> FAILED: " + error + "\n"),
            std::string::npos);
}

TEST(ReportWriter, StreamsLargeReportsInBufferSizedChunks) {
  BatchReport report;
  for (int i = 0; i < 20000; ++i) {
    report.results.push_back(ok_result(i, 1e-3 * (i + 1) / 7.0));
  }
  const auto streamed = [](auto write) {
    std::vector<std::string> chunks;
    write([&chunks](std::string_view chunk) { chunks.emplace_back(chunk); });
    return chunks;
  };
  const auto concat = [](const std::vector<std::string>& chunks) {
    std::string text;
    for (const auto& chunk : chunks) {
      text += chunk;
    }
    return text;
  };

  const auto csv_chunks = streamed(
      [&](const auto& sink) { report.write_csv(sink); });
  EXPECT_GT(csv_chunks.size(), 1u);
  for (const auto& chunk : csv_chunks) {
    EXPECT_LE(chunk.size(), 64u * 1024u);
    EXPECT_FALSE(chunk.empty());
  }
  const std::string csv = report.to_csv();
  EXPECT_EQ(concat(csv_chunks), csv);
  const auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), report.results.size() + 1);
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(bits_of(rows[i + 1][kPredicted]),
              std::bit_cast<std::uint64_t>(report.results[i].predicted_time));
  }

  const auto summary_chunks = streamed(
      [&](const auto& sink) { report.write_summary(sink); });
  EXPECT_GT(summary_chunks.size(), 1u);
  EXPECT_EQ(concat(summary_chunks), report.summary());
  EXPECT_NE(report.summary().find("ok 20000 / failed 0;"), std::string::npos);
}

/// One sweep of `models` over `grid`: the CSV it streamed while running
/// and the report it returned.
struct StreamedRun {
  std::string streamed;
  BatchReport report;
};

StreamedRun streamed_run(BatchOptions options,
                         const std::vector<std::string>& models,
                         const std::string& grid) {
  StreamedRun run;
  options.csv_sink = [&run](std::string_view chunk) {
    run.streamed.append(chunk);
  };
  BatchRunner runner(options);
  for (const auto& model : models) {
    runner.add_model_reference(model);
  }
  runner.add_sweep_all(ScenarioGrid::parse(grid));
  run.report = runner.run();
  return run;
}

/// Columns 1-17 (the deterministic ones) of every row.
std::vector<Row> stable_columns(const std::string& csv) {
  std::vector<Row> rows = parse_csv(csv);
  for (Row& row : rows) {
    row.resize(17);
  }
  return rows;
}

/// Asserts one row per job, job ids 0..n-1 in order.
void expect_rows_in_job_order(const std::string& csv, std::size_t jobs) {
  const auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), jobs + 1);
  for (std::size_t i = 0; i < jobs; ++i) {
    EXPECT_EQ(rows[i + 1][0], std::to_string(i));
  }
}

TEST(StreamedCsv, MatchesToCsvAtAnyThreadCountAndLaneWidth) {
  const std::vector<std::string> models = {"@kernel6", "@sample"};
  const std::string grid = "np=1..16 nodes=1..4";
  std::vector<Row> reference;
  for (const int threads : {1, 3, 4}) {
    for (const int lanes : {1, 8}) {
      BatchOptions options;
      options.threads = threads;
      options.batch_lanes = lanes;
      options.backend = BackendKind::Analytic;
      const StreamedRun run = streamed_run(options, models, grid);
      EXPECT_EQ(run.streamed, run.report.to_csv())
          << threads << " threads, " << lanes << " lanes";
      expect_rows_in_job_order(run.streamed, 128);
      if (reference.empty()) {
        reference = stable_columns(run.streamed);
      }
      EXPECT_EQ(stable_columns(run.streamed), reference)
          << threads << " threads, " << lanes << " lanes";
      // Rows derived from the stored grid read like rows listed one by
      // one.
      BatchReport rendered = run.report;
      rendered.results = {};
      for (const ScenarioResult& result : run.report.results) {
        rendered.results.push_back(result);
      }
      EXPECT_EQ(run.report.summary(), rendered.summary());
    }
  }
}

TEST(StreamedCsv, EmptyBatchStreamsTheHeaderOnly) {
  BatchOptions options;
  options.threads = 4;
  const StreamedRun run = streamed_run(options, {}, "np=1..4");
  EXPECT_EQ(run.streamed, run.report.to_csv());
  EXPECT_EQ(parse_csv(run.streamed).size(), 1u);
  EXPECT_NE(run.report.summary().find("0 job(s)"), std::string::npos);
}

TEST(StreamedCsv, MatchesToCsvForIsolatedAndCrossValidatingSweeps) {
  for (const bool isolate : {false, true}) {
    BatchOptions options;
    options.threads = 3;
    options.isolate_jobs = isolate;
    options.backend = BackendKind::Both;
    const StreamedRun run =
        streamed_run(options, {"@kernel6", "@sample"}, "np=2,4 nodes=1,2");
    EXPECT_EQ(run.streamed, run.report.to_csv()) << "isolate " << isolate;
    expect_rows_in_job_order(run.streamed, 8);
    EXPECT_EQ(run.report.stats().failed, 0u) << run.streamed;
  }
}

TEST(StreamedCsv, MatchesToCsvUnderInjectedFaults) {
  prophet::guard::FaultPlan plan =
      prophet::guard::FaultPlan::parse("estimate%0.3", 11);
  BatchOptions options;
  options.threads = 3;
  options.fault_plan = &plan;
  const StreamedRun run =
      streamed_run(options, {"@sample", "@kernel6"}, "np=1..8 nodes=1,2");
  EXPECT_EQ(run.streamed, run.report.to_csv());
  expect_rows_in_job_order(run.streamed, 32);
  EXPECT_GT(run.report.stats().failed, 0u);
  EXPECT_NE(run.streamed.find("injected fault"), std::string::npos);
}

TEST(StreamedCsv, DeadlineCutSweepStreamsEveryRowInJobOrder) {
  // @sample's jobs finish at once; @spin's never would.  The deadline
  // cancels the running ones and fails the rest unstarted, and every
  // job still gets its row.
  BatchOptions options;
  options.threads = 2;
  options.deadline_seconds = 0.2;
  const StreamedRun run = streamed_run(
      options, {"@sample", "@spin(trips=1000000000000)"}, "np=1..8");
  EXPECT_EQ(run.streamed, run.report.to_csv());
  expect_rows_in_job_order(run.streamed, 16);
  const auto stats = run.report.stats();
  EXPECT_EQ(stats.ok, 8u);
  EXPECT_EQ(stats.timed_out, 8u);
  EXPECT_NE(run.streamed.find("deadline exceeded before the job started"),
            std::string::npos);
}

TEST(StreamedCsv, CancelledSweepStreamsEveryRowInJobOrder) {
  // What SIGINT does to `prophetc sweep`: the sweep budget is cancelled
  // mid-run.
  prophet::guard::Budget interrupt;
  BatchOptions options;
  options.threads = 2;
  options.sweep_budget = &interrupt;
  options.on_progress = [&interrupt](
                            const prophet::pipeline::BatchProgress& progress) {
    if (progress.done >= 8) {
      interrupt.cancel();
    }
  };
  options.progress_interval_seconds = 0.01;
  const StreamedRun run = streamed_run(
      options, {"@sample", "@spin(trips=1000000000000)"}, "np=1..8");
  EXPECT_EQ(run.streamed, run.report.to_csv());
  expect_rows_in_job_order(run.streamed, 16);
  EXPECT_EQ(run.report.stats().cancelled, 8u);
}

TEST(StreamedCsv, UntracedSweepBuildsNoSpanNames) {
  using Span = prophet::obs::TraceLog::HostSpan;
  for (const bool isolate : {false, true}) {
    BatchOptions options;
    options.threads = 2;
    options.isolate_jobs = isolate;
    options.backend = BackendKind::Analytic;
    const auto before = Span::names_built();
    (void)streamed_run(options, {"@sample"}, "np=1..16");
    EXPECT_EQ(Span::names_built(), before) << "isolate " << isolate;
    options.collect_trace = true;
    (void)streamed_run(options, {"@sample"}, "np=1..16");
    EXPECT_GT(Span::names_built(), before) << "isolate " << isolate;
  }
}

TEST(StreamedCsv, ThrowingSinkReachesTheCaller) {
  // What the sink throws reaches the caller, also when the sink is
  // called from the run's writer thread.
  const auto throwing = [](std::string_view) {
    throw std::runtime_error("sink full");
  };
  BatchReport report;
  for (int i = 0; i < 10000; ++i) {
    report.results.push_back(ok_result(i, 1.0));
  }
  report.threads_used = 4;
  EXPECT_THROW(report.write_csv(throwing), std::runtime_error);
  EXPECT_THROW(report.write_summary(throwing), std::runtime_error);

  BatchOptions options;
  options.threads = 2;
  options.csv_sink = throwing;
  BatchRunner runner(options);
  runner.add_model_reference("@sample");
  runner.add_sweep_all(ScenarioGrid::parse("np=1..4"));
  EXPECT_THROW((void)runner.run(), std::runtime_error);
}

}  // namespace
