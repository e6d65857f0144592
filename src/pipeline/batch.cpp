#include "prophet/pipeline/batch.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "prophet/cgen/backend.hpp"
#include "prophet/check/checker.hpp"
#include "prophet/codegen/transformer.hpp"
#include "prophet/estimator/estimator.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/xmi/xmi.hpp"

namespace prophet::pipeline {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Simulated lanes get pid `base + rank` per model; 1000 keeps models'
// rank groups apart and clear of the host lane (pid 0) for any
// realistic process count.
constexpr int kSimPidStride = 1000;

int sim_pid_base(int model_index) {
  return kSimPidStride * (model_index + 1);
}

/// Folds a prepared model's lowering statistics under "lower.".
void fold_lowering(obs::Registry* metrics, const lower::LoweringStats& stats) {
  metrics->counter("lower.expr_programs").add(stats.expr_programs);
  metrics->counter("lower.nodes").add(stats.nodes);
  metrics->counter("lower.slots").add(stats.slots);
  metrics->counter("lower.guards").add(stats.guards);
  metrics->counter("lower.functions").add(stats.functions);
  metrics->counter("lower.variables").add(stats.variables);
  metrics->counter("lower.fragment_assignments")
      .add(stats.fragment_assignments);
  metrics->counter("lower.bytecode_bytes").add(stats.bytecode_bytes);
  metrics->timer("lower.expr_compile_seconds")
      .add_seconds(stats.expr_compile_seconds);
}

/// Folds a codegen handle's prepare cost (emit + compile + dlopen) and
/// compile-cache hit under "codegen.".  No-op for other backends.
void fold_codegen(obs::Registry* metrics,
                  const estimator::PreparedModel* prepared) {
  const auto* handle = dynamic_cast<const cgen::CodegenPrepared*>(prepared);
  if (handle == nullptr) {
    return;
  }
  metrics->timer("codegen.prepare_seconds")
      .add_seconds(handle->prepare_seconds());
  if (handle->cache_hit()) {
    metrics->counter("codegen.cache_hits").add(1);
  }
}

/// Streamed documents reach their sink in pieces of at most this size,
/// flushed once a row may no longer fit.
constexpr std::size_t kFlushBytes = 64 * 1024;
constexpr std::size_t kFlushAt = kFlushBytes - 2048;

/// The one text formatter behind the summary and the CSV: text is
/// appended into a growable buffer, numbers go through std::to_chars,
/// and nothing allocates per field once the buffer has grown.
class TextWriter {
 public:
  /// How doubles print: shortest round-trip (CSV) or `%.6f` (summary).
  enum class Doubles { kShortest, kFixed6 };

  /// An RFC 4180 field: a value containing a comma, quote or line break
  /// is wrapped in quotes with embedded quotes doubled; clean values
  /// pass through byte-identical.
  struct CsvField {
    std::string_view text;
  };

  explicit TextWriter(Doubles doubles) : doubles_(doubles) {}

  TextWriter& operator<<(std::string_view text) {
    reserve(text.size());
    std::memcpy(cursor(), text.data(), text.size());
    used_ += text.size();
    return *this;
  }

  TextWriter& operator<<(char c) {
    reserve(1);
    buffer_[used_++] = c;
    return *this;
  }

  template <std::integral T>
  TextWriter& operator<<(T value) {
    reserve(kMaxNumberChars);
    used_ = static_cast<std::size_t>(
        std::to_chars(cursor(), buffer_end(), value).ptr - buffer_.data());
    return *this;
  }

  TextWriter& operator<<(double value) {
    reserve(kMaxNumberChars);
    const auto result =
        doubles_ == Doubles::kShortest
            ? std::to_chars(cursor(), buffer_end(), value)
            : std::to_chars(cursor(), buffer_end(), value,
                            std::chars_format::fixed, 6);
    used_ = static_cast<std::size_t>(result.ptr - buffer_.data());
    return *this;
  }

  TextWriter& operator<<(CsvField field) {
    std::string_view text = field.text;
    if (text.find_first_of(",\"\r\n") == std::string_view::npos) {
      return *this << text;
    }
    *this << '"';
    for (std::size_t quote = text.find('"');
         quote != std::string_view::npos; quote = text.find('"')) {
      *this << text.substr(0, quote + 1) << '"';
      text.remove_prefix(quote + 1);
    }
    return *this << text << '"';
  }

  /// The text written since the last clear().
  [[nodiscard]] std::string_view text() const {
    return {buffer_.data(), used_};
  }
  void clear() { used_ = 0; }

  /// Hands the text to `sink`, in pieces of at most kFlushBytes, once it
  /// holds `threshold` bytes or more.
  void flush_to(const TextSink& sink, std::size_t threshold = 0) {
    if (used_ == 0 || used_ < threshold) {
      return;
    }
    for (std::size_t at = 0; at < used_; at += kFlushBytes) {
      sink(text().substr(at, kFlushBytes));
    }
    clear();
  }

 private:
  // The longest number: `%.6f` of -DBL_MAX is a sign, 309 integer
  // digits, the point and 6 decimals.
  static constexpr std::size_t kMaxNumberChars = 320;

  void reserve(std::size_t chars) {
    if (buffer_.size() - used_ < chars) {
      buffer_.resize(std::max(2 * buffer_.size(), used_ + chars + 4096));
    }
  }
  char* cursor() { return buffer_.data() + used_; }
  char* buffer_end() { return buffer_.data() + buffer_.size(); }

  Doubles doubles_;
  std::vector<char> buffer_;
  std::size_t used_ = 0;
};


constexpr std::string_view kCsvHeader =
    "job,model,np,nn,ppn,nt,cpu_speed,seed,backend,ok,predicted_s,"
    "analytic_s,codegen_s,rel_error,events,warnings,generated_bytes,"
    "wall_s,parse_s,check_s,transform_s,estimate_s,tripped_limit,error\n";

/// One CSV row.  Columns 1-17 are deterministic (CI diffs them across
/// thread counts and cache modes); wall_s and the per-stage timings are
/// host times, error is free text and stays last.  Free-text fields (the
/// model name may be a file path; error messages quote model content)
/// are escaped per RFC 4180.
void csv_row(TextWriter& out, const ScenarioResult& result) {
  using Field = TextWriter::CsvField;
  out << result.job_id << ',' << Field{result.model_name} << ','
      << result.params.processes << ',' << result.params.nodes << ','
      << result.params.processors_per_node << ','
      << result.params.threads_per_process << ','
      << result.params.cpu_speed << ',' << result.seed << ','
      << estimator::to_string(result.backend) << ','
      << (result.ok ? 1 : 0) << ',' << result.predicted_time << ','
      << result.analytic_predicted << ',' << result.codegen_predicted << ','
      << result.relative_error << ',' << result.events << ','
      << result.check_warnings << ',' << result.generated_bytes << ','
      << result.wall_seconds << ',' << result.parse_seconds << ','
      << result.check_seconds << ',' << result.transform_seconds << ','
      << result.estimate_seconds << ',' << result.tripped_limit << ','
      << Field{result.error} << '\n';
}

/// One summary line.
void summary_row(TextWriter& out, const ScenarioResult& result) {
  out << "  [" << result.job_id << "] " << result.model_name
      << " np=" << result.params.processes << " nn=" << result.params.nodes
      << " ppn=" << result.params.processors_per_node
      << " nt=" << result.params.threads_per_process;
  if (!result.ok) {
    out << " -> FAILED: " << result.error << '\n';
    return;
  }
  out << " -> " << result.predicted_time << " s";
  const estimator::BackendSet set = estimator::backends_of(result.backend);
  if (set.cross_validates()) {
    // Candidates (every selected non-reference engine) then the worst
    // deviation, e.g. "(analytic 1.5 s, rel err 0.02)".
    const estimator::BackendKind reference = set.reference();
    out << " (";
    if (set.analytic && reference != estimator::BackendKind::Analytic) {
      out << "analytic " << result.analytic_predicted << " s, ";
    }
    if (set.codegen && reference != estimator::BackendKind::Codegen) {
      out << "codegen " << result.codegen_predicted << " s, ";
    }
    out << "rel err " << result.relative_error << ")";
  } else if (result.backend == estimator::BackendKind::Analytic) {
    out << " (analytic)";
  } else if (result.backend == estimator::BackendKind::Codegen) {
    out << " (codegen, " << result.events << " events)";
  } else {
    out << " (" << result.events << " events)";
  }
  if (result.check_warnings > 0) {
    out << " [" << result.check_warnings << " warning(s)]";
  }
  out << '\n';
}

/// The one writer of a streamed document.  Producers render numbered
/// chunks into slots; a dedicated thread hands them to the sink in chunk
/// order.  A producer waits while its chunk is a whole window ahead of
/// the next chunk to write, which bounds the text held back, and the
/// writer wakes for batches of chunks rather than for each one.
class OrderedWriter {
 public:
  OrderedWriter(const TextSink& sink, std::size_t chunks)
      : sink_(sink),
        chunks_(chunks),
        slots_(std::max<std::size_t>(1, std::min(chunks, kWindow))),
        ready_(slots_.size(), 0),
        thread_([this] { drain(); }) {}
  OrderedWriter(const OrderedWriter&) = delete;
  OrderedWriter& operator=(const OrderedWriter&) = delete;
  ~OrderedWriter() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  /// The slot to render chunk `chunk` into.
  std::string& slot(std::size_t chunk) {
    std::unique_lock<std::mutex> lock(mutex_);
    space_.wait(lock, [&] { return chunk < written_ + slots_.size(); });
    return slots_[chunk % slots_.size()];
  }

  /// Marks chunk `chunk`'s slot as rendered.
  void publish(std::size_t chunk) {
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ready_[chunk % slots_.size()] = 1;
      ++published_;
      wake = writer_waiting_ && batch_ready();
    }
    if (wake) {
      filled_.notify_one();
    }
  }

  /// Waits until every chunk has reached the sink; rethrows what the
  /// sink threw, after which the remaining chunks were dropped.
  void finish() {
    if (thread_.joinable()) {
      thread_.join();
    }
    if (error_) {
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

 private:
  static constexpr std::size_t kWindow = 1024;
  static constexpr std::size_t kBatch = 64;

  // The next chunk is rendered and a batch of chunks (or the last ones)
  // waits behind it.
  bool batch_ready() const {
    return ready_[written_ % slots_.size()] != 0 &&
           (published_ - written_ >= kBatch || published_ == chunks_);
  }

  // Gathers the chunks into sink-sized pieces.
  void drain() {
    TextWriter out(TextWriter::Doubles::kShortest);
    std::unique_lock<std::mutex> lock(mutex_);
    while (written_ < chunks_) {
      writer_waiting_ = true;
      filled_.wait(lock, [this] { return batch_ready(); });
      writer_waiting_ = false;
      while (written_ < chunks_ && ready_[written_ % slots_.size()] != 0) {
        std::string& text = slots_[written_ % slots_.size()];
        lock.unlock();
        write(out << text, kFlushAt);
        text.clear();
        lock.lock();
        ready_[written_ % slots_.size()] = 0;
        ++written_;
        space_.notify_all();
      }
    }
    lock.unlock();
    write(out, 0);
  }

  // Hands `out` to the sink once it holds `threshold` bytes; a throwing
  // sink is not called again.
  void write(TextWriter& out, std::size_t threshold) {
    try {
      if (!error_) {
        out.flush_to(sink_, threshold);
      }
    } catch (...) {
      error_ = std::current_exception();
    }
    if (error_) {
      out.clear();
    }
  }

  const TextSink& sink_;
  const std::size_t chunks_;
  std::vector<std::string> slots_;
  std::vector<char> ready_;
  std::mutex mutex_;
  std::condition_variable filled_;
  std::condition_variable space_;
  std::size_t written_ = 0;
  std::size_t published_ = 0;
  bool writer_waiting_ = false;
  std::exception_ptr error_;  // written by the writer thread only
  std::thread thread_;
};

/// A sink that collects the whole document (summary(), to_csv()) into
/// `text`, reserved up front for `rows` rows of about `row_bytes` each:
/// that spares the copies of repeated growth, and reserved pages that
/// are never written cost no memory.
TextSink append_to(std::string* text, std::size_t rows,
                   std::size_t row_bytes) {
  text->reserve(rows * row_bytes);
  return [text](std::string_view chunk) { text->append(chunk); };
}

/// Runs `body(worker)` on `threads` threads, the caller's included.
template <typename Body>
void run_pool(int threads, const Body& body) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    pool.emplace_back(body, t);
  }
  body(0);
  for (auto& thread : pool) {
    thread.join();
  }
}

}  // namespace

// --- Jobs --------------------------------------------------------------------

// The jobs of a batch, in id order: runs of consecutive jobs of one model
// (segments), each either a stored grid — a job's parameters and seed
// are derived from its id — or a list of explicitly queued scenarios.
struct JobList {
  struct Segment {
    std::size_t first = 0;  // row of the segment's first job
    std::size_t count = 0;
    int model_index = 0;
    int name = 0;            // index into `names`
    int grid = -1;           // index into `grids`; -1: jobs in `listed`
    std::size_t listed = 0;  // the first job's entry in `listed`
  };
  struct Listed {
    machine::SystemParameters params;
    std::uint64_t seed = 0;
    int id = 0;
  };

  std::uint64_t base_seed = 0;
  std::vector<std::string> names;
  std::vector<ScenarioGrid> grids;
  std::vector<Segment> segments;
  std::vector<Listed> listed;

  [[nodiscard]] std::size_t size() const {
    return segments.empty() ? 0
                            : segments.back().first + segments.back().count;
  }

  [[nodiscard]] const Segment& segment_of(std::size_t row) const {
    return *(std::upper_bound(segments.begin(), segments.end(), row,
                              [](std::size_t r, const Segment& segment) {
                                return r < segment.first;
                              }) -
             1);
  }

  /// Writes the identity of job `row` of `segment` into `out`.
  void fill(const Segment& segment, std::size_t row,
            ScenarioResult* out) const {
    out->model_index = segment.model_index;
    out->model_name = names[static_cast<std::size_t>(segment.name)];
    if (segment.grid < 0) {
      const Listed& job = listed[segment.listed + (row - segment.first)];
      out->job_id = job.id;
      out->params = job.params;
      out->seed = job.seed;
      return;
    }
    out->job_id = static_cast<int>(row);
    out->params = grids[static_cast<std::size_t>(segment.grid)].at(
        row - segment.first);
    out->seed = derive_seed(base_seed, out->job_id);
  }

  /// Queues one listed job, extending the last segment when it matches.
  void append(int model_index, int name, const Listed& job) {
    if (segments.empty() || segments.back().grid >= 0 ||
        segments.back().model_index != model_index ||
        segments.back().name != name) {
      segments.push_back(
          Segment{size(), 0, model_index, name, -1, listed.size()});
    }
    ++segments.back().count;
    listed.push_back(job);
  }
};

namespace {

/// The list to change: created on first use, copied while a report or
/// another runner still shares it.
JobList& detach(std::shared_ptr<JobList>& jobs) {
  if (jobs == nullptr) {
    jobs = std::make_shared<JobList>();
  } else if (jobs.use_count() > 1) {
    jobs = std::make_shared<JobList>(*jobs);
  }
  return *jobs;
}

/// The id the next of `count` new jobs gets after `queued` ones; ids are
/// ints, so a batch holds at most INT_MAX jobs.
int next_job_id(std::size_t queued, std::size_t count) {
  constexpr auto kMax =
      static_cast<std::size_t>(std::numeric_limits<int>::max());
  if (count > kMax || queued > kMax - count) {
    throw std::length_error("batch exceeds 2^31 - 1 jobs");
  }
  return static_cast<int>(queued);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base_seed, int job_id) {
  // SplitMix64: uncorrelated per-job streams from one base seed.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL *
                                    static_cast<std::uint64_t>(job_id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- ResultTable -------------------------------------------------------------

namespace {

// The numeric ScenarioResult fields behind ResultTable::counts_ and
// ResultTable::doubles_, in column order.
constexpr std::uint64_t ScenarioResult::*kCountFields[] = {
    &ScenarioResult::events, &ScenarioResult::check_warnings,
    &ScenarioResult::generated_bytes};
constexpr double ScenarioResult::*kDoubleFields[] = {
    &ScenarioResult::predicted_time,    &ScenarioResult::analytic_predicted,
    &ScenarioResult::codegen_predicted, &ScenarioResult::relative_error,
    &ScenarioResult::wall_seconds,      &ScenarioResult::parse_seconds,
    &ScenarioResult::check_seconds,     &ScenarioResult::transform_seconds,
    &ScenarioResult::estimate_seconds};
enum DoubleColumn { kPredicted, kRelError = 3, kWall, kParse, kCheck,
                    kTransform, kEstimate };

}  // namespace

void ResultTable::reset(std::shared_ptr<JobList> jobs, std::size_t rows) {
  *this = ResultTable();
  jobs_ = std::move(jobs);
  ok_.resize(rows);
  backend_.resize(rows);
  processes_.resize(rows);
  for (auto& column : counts_) {
    column.resize(rows);
  }
  for (auto& column : doubles_) {
    column.resize(rows);
  }
}

void ResultTable::store(std::size_t row, const ScenarioResult& result) {
  ok_[row] = result.ok ? 1 : 0;
  backend_[row] = result.backend;
  processes_[row] = result.processes;
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    counts_[c][row] = result.*kCountFields[c];
  }
  for (std::size_t c = 0; c < doubles_.size(); ++c) {
    doubles_[c][row] = result.*kDoubleFields[c];
  }
}

void ResultTable::read(std::size_t row, const Failure* failure,
                       ScenarioResult* out) const {
  jobs_->fill(jobs_->segment_of(row), row, out);
  out->ok = ok_[row] != 0;
  out->error = failure != nullptr ? failure->error : std::string();
  out->tripped_limit =
      failure != nullptr ? failure->tripped_limit : std::string();
  out->backend = backend_[row];
  out->processes = processes_[row];
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    out->*kCountFields[c] = counts_[c][row];
  }
  for (std::size_t c = 0; c < doubles_.size(); ++c) {
    out->*kDoubleFields[c] = doubles_[c][row];
  }
}

const ResultTable::Failure* ResultTable::failure_of(std::size_t row) const {
  const auto it = std::lower_bound(
      failures_.begin(), failures_.end(), row,
      [](const Failure& failure, std::size_t r) { return failure.row < r; });
  return it != failures_.end() && it->row == row ? &*it : nullptr;
}

ScenarioResult ResultTable::operator[](std::size_t row) const {
  ScenarioResult result;
  read(row, failure_of(row), &result);
  return result;
}

ResultTable::const_iterator::const_iterator(const ResultTable* table,
                                            std::size_t index)
    : table_(table), index_(index) {
  if (index_ < table_->size()) {
    table_->read(index_, table_->failure_of(index_), &row_);
  }
}

ResultTable::const_iterator& ResultTable::const_iterator::operator++() {
  if (++index_ < table_->size()) {
    table_->read(index_, table_->failure_of(index_), &row_);
  }
  return *this;
}

void ResultTable::push_back(const ScenarioResult& result) {
  JobList& jobs = detach(jobs_);
  const auto name = static_cast<int>(
      std::find(jobs.names.begin(), jobs.names.end(), result.model_name) -
      jobs.names.begin());
  if (static_cast<std::size_t>(name) == jobs.names.size()) {
    jobs.names.push_back(result.model_name);
  }
  jobs.append(result.model_index, name,
              JobList::Listed{result.params, result.seed, result.job_id});
  const std::size_t row = size();
  ok_.emplace_back();
  backend_.emplace_back();
  processes_.emplace_back();
  for (auto& column : counts_) {
    column.emplace_back();
  }
  for (auto& column : doubles_) {
    column.emplace_back();
  }
  store(row, result);
  if (!result.error.empty() || !result.tripped_limit.empty()) {
    failures_.push_back(Failure{row, result.error, result.tripped_limit});
  }
}

ResultTable& ResultTable::operator=(
    std::initializer_list<ScenarioResult> rows) {
  *this = ResultTable();
  for (const ScenarioResult& row : rows) {
    push_back(row);
  }
  return *this;
}

void ResultTable::stream_rows(bool csv, const TextSink& sink) const {
  TextWriter out(csv ? TextWriter::Doubles::kShortest
                     : TextWriter::Doubles::kFixed6);
  ScenarioResult row;
  auto failure = failures_.begin();
  for (std::size_t r = 0; r < size(); ++r) {
    const bool failed = failure != failures_.end() && failure->row == r;
    read(r, failed ? &*failure++ : nullptr, &row);
    (csv ? csv_row : summary_row)(out, row);
    out.flush_to(sink, kFlushAt);
  }
  out.flush_to(sink);
}

// --- BatchReport -------------------------------------------------------------

BatchStats BatchReport::stats() const {
  const ResultTable& table = results;
  BatchStats stats;
  stats.total = table.size();
  for (std::size_t row = 0; row < table.size(); ++row) {
    stats.total_job_seconds += table.doubles_[kWall][row];
    if (table.ok_[row] == 0) {
      ++stats.failed;
      continue;
    }
    const double predicted = table.doubles_[kPredicted][row];
    if (stats.ok == 0) {
      stats.min_predicted = predicted;
      stats.max_predicted = predicted;
    } else {
      stats.min_predicted = std::min(stats.min_predicted, predicted);
      stats.max_predicted = std::max(stats.max_predicted, predicted);
    }
    stats.mean_predicted += predicted;
    stats.total_events += table.counts_[0][row];
    if (estimator::backends_of(table.backend_[row]).cross_validates()) {
      ++stats.compared;
      const double rel_error = table.doubles_[kRelError][row];
      stats.max_rel_error = std::max(stats.max_rel_error, rel_error);
      stats.mean_rel_error += rel_error;
    }
    ++stats.ok;
  }
  for (const auto& failure : table.failures_) {
    if (table.ok_[failure.row] != 0) {
      continue;
    }
    if (failure.tripped_limit == "wall_clock") {
      ++stats.timed_out;
    } else if (failure.tripped_limit == "cancelled") {
      ++stats.cancelled;
    }
  }
  if (stats.ok > 0) {
    stats.mean_predicted /= static_cast<double>(stats.ok);
  }
  if (stats.compared > 0) {
    stats.mean_rel_error /= static_cast<double>(stats.compared);
  }
  return stats;
}

double BatchReport::jobs_per_second() const {
  if (wall_seconds <= 0) {
    return 0;
  }
  return static_cast<double>(results.size()) / wall_seconds;
}

obs::Registry BatchReport::derived_metrics() const {
  obs::Registry reg;
  const BatchStats stats = this->stats();
  reg.counter("batch.jobs").add(stats.total);
  reg.counter("batch.jobs_ok").add(stats.ok);
  reg.counter("batch.jobs_failed").add(stats.failed);
  reg.counter("batch.jobs_timed_out").add(stats.timed_out);
  reg.counter("batch.jobs_cancelled").add(stats.cancelled);
  reg.counter("batch.compared").add(stats.compared);
  reg.counter("batch.events").add(stats.total_events);
  reg.counter("batch.models_prepared")
      .add(static_cast<std::uint64_t>(std::max(models_prepared, 0)));
  reg.gauge("batch.threads").set(threads_used);
  reg.gauge("batch.jobs_per_second").set(jobs_per_second());
  reg.gauge("batch.predicted_min_s").set(stats.min_predicted);
  reg.gauge("batch.predicted_mean_s").set(stats.mean_predicted);
  reg.gauge("batch.predicted_max_s").set(stats.max_predicted);
  reg.gauge("batch.rel_error_mean").set(stats.mean_rel_error);
  reg.gauge("batch.rel_error_max").set(stats.max_rel_error);
  reg.timer("batch.wall_seconds").add_seconds(wall_seconds);
  reg.timer("batch.prepare_seconds").add_seconds(prepare_seconds);
  reg.timer("batch.job_seconds").add_seconds(stats.total_job_seconds);
  const auto sum = [](const std::vector<double>& column) {
    return std::accumulate(column.begin(), column.end(), 0.0);
  };
  reg.timer("batch.parse_seconds").add_seconds(sum(results.doubles_[kParse]));
  reg.timer("batch.check_seconds").add_seconds(sum(results.doubles_[kCheck]));
  reg.timer("batch.transform_seconds")
      .add_seconds(sum(results.doubles_[kTransform]));
  reg.timer("batch.estimate_seconds")
      .add_seconds(sum(results.doubles_[kEstimate]));
  return reg;
}

std::string BatchReport::summary() const {
  std::string text;
  write_summary(append_to(&text, results.size() + 2, 96));
  return text;
}

void BatchReport::write_summary(const TextSink& sink) const {
  // The aggregate lines read from the metric registry — the same cells
  // `--metrics` exports — so the printed counts and the JSON document
  // cannot drift apart.  Hand-built reports (tests) that never ran run()
  // get the registry re-derived on the fly.
  obs::Registry local;
  const obs::Registry* m = &metrics;
  if (metrics.empty()) {
    local = derived_metrics();
    m = &local;
  }
  TextWriter out(TextWriter::Doubles::kFixed6);
  out << "scenario sweep: " << m->counter_value("batch.jobs") << " job(s), "
      << static_cast<int>(m->gauge_value("batch.threads")) << " thread(s), "
      << m->timer_seconds("batch.wall_seconds") << " s wall ("
      << m->gauge_value("batch.jobs_per_second") << " jobs/s)\n";
  // prepare_seconds > 0 identifies a cached run even when every model
  // failed to compile (models_prepared == 0).
  if (m->counter_value("batch.models_prepared") > 0 ||
      m->timer_seconds("batch.prepare_seconds") > 0) {
    out << "compiled-model cache: prepared "
        << m->counter_value("batch.models_prepared") << " model(s) in "
        << m->timer_seconds("batch.prepare_seconds") << " s\n";
  }
  out.flush_to(sink);
  results.stream_rows(false, sink);
  out << "ok " << m->counter_value("batch.jobs_ok") << " / failed "
      << m->counter_value("batch.jobs_failed");
  if (m->counter_value("batch.jobs_timed_out") > 0) {
    out << " (" << m->counter_value("batch.jobs_timed_out") << " timed out)";
  }
  if (m->counter_value("batch.jobs_cancelled") > 0) {
    out << " (" << m->counter_value("batch.jobs_cancelled") << " cancelled)";
  }
  if (m->counter_value("batch.jobs_ok") > 0) {
    out << "; predicted min " << m->gauge_value("batch.predicted_min_s")
        << " s, mean " << m->gauge_value("batch.predicted_mean_s")
        << " s, max " << m->gauge_value("batch.predicted_max_s") << " s; "
        << m->counter_value("batch.events") << " events";
  }
  if (m->counter_value("batch.compared") > 0) {
    out << "; cross-validation rel err mean "
        << m->gauge_value("batch.rel_error_mean") << ", max "
        << m->gauge_value("batch.rel_error_max");
  }
  out << '\n';
  out.flush_to(sink);
}

std::string BatchReport::to_csv() const {
  std::string text;
  write_csv(append_to(&text, results.size() + 1, 160));
  return text;
}

void BatchReport::write_csv(const TextSink& sink) const {
  sink(kCsvHeader);
  results.stream_rows(true, sink);
}

// --- BatchRunner -------------------------------------------------------------

BatchRunner::BatchRunner(BatchOptions options)
    : options_(std::move(options)), jobs_(std::make_shared<JobList>()) {
  jobs_->base_seed = options_.base_seed;
}

int BatchRunner::add_model(std::string name, const uml::Model& model) {
  return add_model_xml(std::move(name), xmi::to_xml(model));
}

int BatchRunner::add_model_xml(std::string name, std::string xmi_text) {
  detach(jobs_).names.push_back(std::move(name));
  models_.push_back(std::move(xmi_text));
  return static_cast<int>(models_.size()) - 1;
}

int BatchRunner::add_model_reference(const std::string& reference) {
  return add_model(reference, models::Registry::builtin().make(reference));
}

int BatchRunner::add_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read model file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return add_model_xml(path, text.str());
}

void BatchRunner::add_scenario(int model_index,
                               machine::SystemParameters params) {
  if (model_index < 0 ||
      model_index >= static_cast<int>(models_.size())) {
    throw std::out_of_range("model index out of range");
  }
  JobList& jobs = detach(jobs_);
  const int id = next_job_id(jobs.size(), 1);
  jobs.append(model_index, model_index,
              JobList::Listed{params, derive_seed(options_.base_seed, id),
                              id});
}

void BatchRunner::add_sweep(int model_index, const ScenarioGrid& grid) {
  if (model_index < 0 ||
      model_index >= static_cast<int>(models_.size())) {
    throw std::out_of_range("model index out of range");
  }
  // Every value must apply (as expanding the grid would), and the count
  // must not overflow.
  std::size_t count = 1;
  for (const Axis& axis : grid.axes()) {
    machine::SystemParameters probe = grid.base();
    for (const double value : axis.values) {
      ScenarioGrid::apply(probe, axis.name, value);
    }
    if (count > std::numeric_limits<std::size_t>::max() / axis.values.size()) {
      throw std::length_error("batch exceeds 2^31 - 1 jobs");
    }
    count *= axis.values.size();
  }
  JobList& jobs = detach(jobs_);
  const int first = next_job_id(jobs.size(), count);
  jobs.grids.push_back(grid);
  jobs.segments.push_back(JobList::Segment{
      static_cast<std::size_t>(first), count, model_index, model_index,
      static_cast<int>(jobs.grids.size()) - 1, 0});
}

void BatchRunner::add_sweep_all(const ScenarioGrid& grid) {
  for (int m = 0; m < static_cast<int>(models_.size()); ++m) {
    add_sweep(m, grid);
  }
}

std::size_t BatchRunner::job_count() const { return jobs_->size(); }

std::vector<BatchJob> BatchRunner::jobs() const {
  std::vector<BatchJob> all;
  all.reserve(job_count());
  ScenarioResult job;
  for (std::size_t id = 0; id < job_count(); ++id) {
    jobs_->fill(jobs_->segment_of(id), id, &job);
    all.push_back(BatchJob{job.job_id, job.model_index, job.model_name,
                           job.params, job.seed});
  }
  return all;
}

// One compiled model.  Built once during the prepare phase (per job in
// isolated mode), then shared read-only by every worker: the parsed
// model is immutable and the PreparedModel handles guarantee concurrent
// estimate() safety, so no locking is needed on the hot path.
struct BatchRunner::CompiledEntry {
  bool ok = false;
  std::string error;  // stage-prefixed, e.g. "check: 2 error(s): ..."
  std::size_t check_warnings = 0;
  std::size_t generated_bytes = 0;
  // Host time of the model's parse, check, transform and
  // Backend::prepare (cached runs show none of it per job).
  double parse_seconds = 0;
  double check_seconds = 0;
  double transform_seconds = 0;
  double prepare_seconds = 0;
  // The prepared handles borrow `model`; member order keeps the model
  // alive past their destruction.
  std::unique_ptr<uml::Model> model;
  std::unique_ptr<estimator::PreparedModel> sim;
  std::unique_ptr<estimator::PreparedModel> analytic;
  std::unique_ptr<estimator::PreparedModel> codegen;

  /// Folds a compiled entry's lowering statistics and codegen prepare
  /// cost into `metrics`.
  void fold(obs::Registry* metrics) const {
    if (ok) {
      const auto& prepared = sim ? sim : analytic ? analytic : codegen;
      fold_lowering(metrics, prepared->lowering()->stats());
      fold_codegen(metrics, codegen.get());
    }
  }
};

struct BatchRunner::Backends {
  std::unique_ptr<estimator::Backend> sim;
  std::unique_ptr<estimator::Backend> analytic;
  std::unique_ptr<estimator::Backend> codegen;
};

std::vector<BatchRunner::CompiledEntry> BatchRunner::compile_models(
    const Backends& backends, int threads, int* compiled,
    obs::TraceLog* trace_log) const {
  std::vector<CompiledEntry> entries(models_.size());
  std::vector<char> referenced(models_.size(), 0);
  for (const auto& segment : jobs_->segments) {
    referenced[static_cast<std::size_t>(segment.model_index)] = 1;
  }
  std::vector<std::size_t> to_compile;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    if (referenced[m] != 0) {
      to_compile.push_back(m);
    }
    // Unreferenced entries stay empty; no job ever reads them.
  }

  threads = std::max(
      1, std::min<int>(threads, static_cast<int>(to_compile.size())));

  // TraceLog is not thread-safe: each compile worker records into its own
  // log (sharing the parent's epoch) and the logs merge after the join.
  std::vector<obs::TraceLog> worker_logs;
  if (trace_log != nullptr) {
    worker_logs.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      worker_logs.emplace_back(trace_log->epoch());
    }
  }

  // Models compile independently (each entry is written by exactly one
  // worker), so the prepare phase parallelizes like the jobs do — a
  // many-model sweep is not serialized behind one compiling thread.
  std::atomic<std::size_t> next{0};
  run_pool(threads, [&](int worker_id) {
    obs::TraceLog* log =
        worker_logs.empty()
            ? nullptr
            : &worker_logs[static_cast<std::size_t>(worker_id)];
    for (std::size_t ticket = next.fetch_add(1); ticket < to_compile.size();
         ticket = next.fetch_add(1)) {
      const std::size_t m = to_compile[ticket];
      const obs::TraceLog::HostSpan span(
          log, 0, worker_id,
          [&] { return "compile " + jobs_->names[m]; }, "host.compile");
      compile_one(m, backends, &entries[m]);
    }
  });
  if (trace_log != nullptr) {
    for (auto& log : worker_logs) {
      trace_log->merge(std::move(log));
    }
  }
  *compiled = static_cast<int>(
      std::count_if(to_compile.begin(), to_compile.end(),
                    [&entries](std::size_t m) { return entries[m].ok; }));
  return entries;
}

namespace {

/// Stable stage prefix of each engine, used by prepare and estimate
/// failures alike so a model defect reports the same stage wherever it
/// surfaces.
const char* engine_stage(estimator::BackendKind kind) {
  switch (kind) {
    case estimator::BackendKind::Simulation:
      return "simulate: ";
    case estimator::BackendKind::Codegen:
      return "cgen: ";
    default:
      return "analytic: ";
  }
}

/// CSV/metrics name of the bound a guard error tripped.
std::string limit_name(const guard::GuardError& error) {
  if (dynamic_cast<const guard::Cancelled*>(&error) != nullptr) {
    return "cancelled";
  }
  return std::string(guard::to_string(error.limit()));
}

/// Stage 4: run the selected backend(s) over `params` and fill each
/// lane's prediction fields — through PreparedModel::estimate for one
/// lane, estimate_batch for several.  The reference engine
/// (BackendSet::reference) runs first and fills `predicted_time`; every
/// other selected engine is a candidate filling its own field plus the
/// worst-case `relative_error`.  Returns a stage-prefixed error ("" on
/// success).  `metrics` (nullable) receives the engines' activity
/// counters; `sim_trace` (nullable) the one lane's simulated timeline.
/// Neither feeds back into the prediction.
std::string estimate_lanes(const estimator::PreparedModel* sim,
                           const estimator::PreparedModel* analytic,
                           const estimator::PreparedModel* codegen,
                           estimator::BackendKind kind,
                           std::span<const machine::SystemParameters> params,
                           obs::Registry* metrics, trace::Trace* sim_trace,
                           guard::Budget* budget, guard::FaultPlan* fault_plan,
                           std::span<ScenarioResult> lanes) {
  const estimator::BackendKind reference =
      estimator::backends_of(kind).reference();
  estimator::EstimationOptions estimation;
  estimation.collect_trace = false;
  estimation.collect_machine_report = false;
  estimation.metrics = metrics;
  estimation.budget = budget;

  struct Engine {
    const estimator::PreparedModel* prepared;
    estimator::BackendKind kind;
    double ScenarioResult::*candidate;  // per-engine field (null for sim)
  };
  // Reference first: candidates compare against its prediction.
  Engine engines[3];
  std::size_t count = 0;
  const auto add = [&](const estimator::PreparedModel* prepared,
                       estimator::BackendKind engine_kind,
                       double ScenarioResult::*candidate) {
    if (prepared == nullptr) {
      return;
    }
    engines[count++] = Engine{prepared, engine_kind, candidate};
    if (engine_kind == reference && count > 1) {
      std::swap(engines[0], engines[count - 1]);
    }
  };
  add(sim, estimator::BackendKind::Simulation, nullptr);
  add(analytic, estimator::BackendKind::Analytic,
      &ScenarioResult::analytic_predicted);
  add(codegen, estimator::BackendKind::Codegen,
      &ScenarioResult::codegen_predicted);
  if (count == 0) {
    return "";
  }

  if (fault_plan != nullptr) {
    try {
      fault_plan->visit("estimate");
    } catch (const std::exception& error) {
      return std::string(engine_stage(engines[0].kind)) + error.what();
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Engine& engine = engines[i];
    const auto take = [&](ScenarioResult& result,
                          const estimator::PredictionReport& report) {
      if (engine.candidate != nullptr) {
        result.*engine.candidate = report.predicted_time;
      }
      if (engine.kind == reference) {
        result.predicted_time = report.predicted_time;
        result.processes = report.processes;
        if (engine.kind != estimator::BackendKind::Analytic) {
          result.events = report.events;
        }
      } else if (result.predicted_time > 0) {
        result.relative_error = std::max(
            result.relative_error,
            std::abs(report.predicted_time - result.predicted_time) /
                result.predicted_time);
      } else if (report.predicted_time > 0) {
        result.relative_error = std::numeric_limits<double>::infinity();
      }
    };
    const char* stage = engine_stage(engine.kind);
    try {
      if (lanes.size() == 1) {
        estimator::EstimationOptions options = estimation;
        options.collect_trace =
            engine.kind == estimator::BackendKind::Simulation &&
            sim_trace != nullptr;
        estimator::PredictionReport report =
            engine.prepared->estimate(params[0], options);
        take(lanes[0], report);
        if (options.collect_trace) {
          *sim_trace = std::move(report.trace);
        }
        continue;
      }
      const std::vector<estimator::PredictionReport> reports =
          engine.prepared->estimate_batch(params, estimation);
      if (reports.size() != lanes.size()) {
        return std::string(stage) +
               "estimate_batch returned a wrong lane count";
      }
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        take(lanes[lane], reports[lane]);
      }
    } catch (const guard::GuardError& error) {
      lanes[0].tripped_limit = limit_name(error);
      return std::string(stage) + error.what();
    } catch (const std::exception& error) {
      return std::string(stage) + error.what();
    }
  }
  return "";
}

/// The per-job limit set: options.limits with `--job-timeout` folded
/// into the wall clock (the tighter bound wins).
guard::Limits job_limits(const BatchOptions& options) {
  guard::Limits limits = options.limits;
  if (options.job_timeout_seconds > 0 &&
      (limits.wall_seconds <= 0 ||
       options.job_timeout_seconds < limits.wall_seconds)) {
    limits.wall_seconds = options.job_timeout_seconds;
  }
  return limits;
}

/// Resets every outcome field of `result`, keeping the job's identity.
void clear_outcome(ScenarioResult* result, estimator::BackendKind backend) {
  ScenarioResult cleared;
  cleared.job_id = result->job_id;
  cleared.model_index = result->model_index;
  cleared.model_name.swap(result->model_name);
  cleared.params = result->params;
  cleared.seed = result->seed;
  cleared.backend = backend;
  *result = std::move(cleared);
}

}  // namespace

void BatchRunner::compile_one(std::size_t m, const Backends& backends,
                              CompiledEntry* out) const {
  CompiledEntry& entry = *out;
  entry.model = std::make_unique<uml::Model>("empty");
  // Runs one stage: visits its fault site, then `body`, which returns a
  // stage error or "".  The stage is timed whether it succeeds or
  // throws, so the stage columns account for a failing job too.
  const auto stage = [this, &entry](const char* site, const char* prefix,
                                    double* seconds, const auto& body) {
    const auto start = std::chrono::steady_clock::now();
    try {
      if (options_.fault_plan != nullptr && site != nullptr) {
        options_.fault_plan->visit(site);
      }
      entry.error = body();
    } catch (const std::exception& error) {
      entry.error = std::string(prefix) + error.what();
    }
    *seconds += seconds_since(start);
    return entry.error.empty();
  };
  const bool modeled =
      stage("parse", "parse: ", &entry.parse_seconds,
            [&] {
              *entry.model = xmi::from_xml(models_[m]);
              return std::string();
            }) &&
      (!options_.run_checker ||
       stage("check", "check: ", &entry.check_seconds,
             [&] {
               const check::Diagnostics diagnostics =
                   check::ModelChecker().check(*entry.model);
               entry.check_warnings = diagnostics.warning_count();
               return diagnostics.ok()
                          ? std::string()
                          : "check: " +
                                std::to_string(diagnostics.error_count()) +
                                " error(s): " + diagnostics.to_string();
             })) &&
      // The UML -> C++ transformation (the paper's PMP element).
      (!options_.run_codegen ||
       stage("transform", "transform: ", &entry.transform_seconds, [&] {
         entry.generated_bytes =
             codegen::Transformer().transform(*entry.model).size();
         return std::string();
       }));
  if (!modeled) {
    return;
  }
  // Backend::prepare per selected engine, in reference-priority order.
  // The model is lowered once and the program fans out to every engine.
  // Failures carry the stage names estimate failures use — a lowering
  // failure the first engine's — so a model defect reports the same
  // stage whether it surfaces at prepare or at evaluate, cached or
  // isolated.
  const struct {
    const estimator::Backend* backend;
    std::unique_ptr<estimator::PreparedModel>* prepared;
    estimator::BackendKind kind;
  } engines[] = {
      {backends.sim.get(), &entry.sim, estimator::BackendKind::Simulation},
      {backends.codegen.get(), &entry.codegen,
       estimator::BackendKind::Codegen},
      {backends.analytic.get(), &entry.analytic,
       estimator::BackendKind::Analytic},
  };
  lower::ModelProgramPtr program;
  for (const auto& engine : engines) {
    if (engine.backend == nullptr) {
      continue;
    }
    // One "lower" and one "prepare" fault visit per compile chain.
    const char* prefix = engine_stage(engine.kind);
    const bool first = program == nullptr;
    if ((first && !stage("lower", prefix, &entry.prepare_seconds,
                         [&] {
                           program = lower::lower(*entry.model);
                           return std::string();
                         })) ||
        !stage(first ? "prepare" : nullptr, prefix, &entry.prepare_seconds,
               [&] {
                 *engine.prepared = engine.backend->prepare(program);
                 return std::string();
               })) {
      return;
    }
  }
  entry.ok = true;
}

void BatchRunner::run_chunk(const CompiledEntry* entry,
                            const Backends& backends,
                            std::span<ScenarioResult> lanes,
                            std::span<const machine::SystemParameters> params,
                            obs::Registry* metrics, trace::Trace* sim_trace,
                            const guard::Budget* sweep) const {
  const auto start = std::chrono::steady_clock::now();
  // The jobs' budget: its deadline starts here, so `--job-timeout`
  // covers an isolated job's whole chain; chaining to the sweep budget
  // makes a sweep deadline / SIGINT cancel the jobs at their next check
  // site.  It is passed down only when something bounds the run, so
  // unguarded sweeps keep the engines' zero-check fast path.  Chunks of
  // several lanes exist only without limits and fault plans, where the
  // budget carries nothing but the sweep's.
  const guard::Limits limits = job_limits(options_);
  guard::Budget budget(limits, sweep);
  bool armed = false;
  if (options_.fault_plan != nullptr) {
    if (const auto event = options_.fault_plan->cancel_at_event()) {
      budget.cancel_at_sim_event(*event);
      armed = true;
    }
  }
  guard::Budget* job_budget =
      limits.any() || sweep != nullptr || armed ? &budget : nullptr;

  // Isolated mode: the same path against an entry compiled for this job
  // alone, whose stage times and prepare cost are the job's own.
  CompiledEntry fresh;
  const bool job_stages = entry == nullptr;
  if (job_stages) {
    compile_one(static_cast<std::size_t>(lanes[0].model_index), backends,
                &fresh);
    if (metrics != nullptr) {
      fresh.fold(metrics);
    }
    entry = &fresh;
  }
  // Per-model facts are shared verbatim — also for failed entries, where
  // the stages before the failing one produced them — so cached and
  // isolated rows match column for column.
  for (ScenarioResult& lane : lanes) {
    clear_outcome(&lane, options_.backend);
    lane.check_warnings = entry->check_warnings;
    lane.generated_bytes = entry->generated_bytes;
    if (job_stages) {
      lane.parse_seconds = entry->parse_seconds;
      lane.check_seconds = entry->check_seconds;
      lane.transform_seconds = entry->transform_seconds;
    }
  }

  // A failed compile fails every job of the model with its
  // stage-prefixed error; other models are unaffected.
  std::string error = entry->error;
  const auto estimate_start = std::chrono::steady_clock::now();
  if (entry->ok) {
    error = estimate_lanes(entry->sim.get(), entry->analytic.get(),
                           entry->codegen.get(), options_.backend, params,
                           metrics, sim_trace, job_budget,
                           options_.fault_plan, lanes);
    if (!error.empty() && lanes.size() > 1) {
      // Any lane failure (or a sweep cancellation) abandons the chunk:
      // every lane re-runs alone, which reports errors, budgets and
      // tripped_limit for exactly the right job.
      if (metrics != nullptr) {
        metrics->counter("batch.lanes_fallback").add(lanes.size());
      }
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        run_chunk(entry, backends, lanes.subspan(lane, 1),
                  params.subspan(lane, 1), metrics, nullptr, sweep);
      }
      return;
    }
  }
  // A cached job is its estimate stage; an isolated one counts its
  // prepare into that stage too.  A chunk's lanes were evaluated
  // together, so its host times split evenly — no finer attribution
  // exists (these are the non-deterministic CSV columns; predictions are
  // per lane).
  const auto width = static_cast<double>(lanes.size());
  const double wall = seconds_since(start) / width;
  const double estimate =
      !entry->ok ? (job_stages ? entry->prepare_seconds : 0)
      : job_stages ? entry->prepare_seconds + seconds_since(estimate_start)
                   : wall;
  for (ScenarioResult& lane : lanes) {
    lane.ok = error.empty();
    lane.error = error;
    lane.estimate_seconds = estimate;
    lane.wall_seconds = wall;
  }
}

BatchReport BatchRunner::run() const {
  const JobList& jobs = *jobs_;
  BatchReport report;
  report.results.reset(jobs_, jobs.size());

  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(1, std::min<int>(threads, static_cast<int>(jobs.size())));
  report.threads_used = threads;

  const bool collect_metrics = options_.collect_metrics;
  const bool collect_trace = options_.collect_trace;
  if (collect_trace) {
    report.trace.name_process(0, "batch host");
    for (int t = 0; t < threads; ++t) {
      report.trace.name_thread(0, t, "worker " + std::to_string(t));
    }
  }

  const auto start = std::chrono::steady_clock::now();

  // Sweep-wide guard: a `--deadline` becomes a run-local budget chained
  // to the caller's sweep_budget (the SIGINT token), so either signal
  // drains the pool — running jobs are cancelled at their next check
  // site, jobs claimed afterwards are marked failed without running, and
  // the report is still assembled in full.
  guard::Limits sweep_limits;
  sweep_limits.wall_seconds = options_.deadline_seconds;
  const guard::Budget deadline_budget(sweep_limits, options_.sweep_budget);
  const guard::Budget* sweep =
      options_.deadline_seconds > 0
          ? &deadline_budget
          : static_cast<const guard::Budget*>(options_.sweep_budget);

  // The stateless backends, shared by every compile chain of the run.
  const estimator::BackendSet set = estimator::backends_of(options_.backend);
  const auto backend = [this](bool selected, estimator::BackendKind kind) {
    cgen::CodegenOptions cgen_options;
    cgen_options.toolchain.fault_plan = options_.fault_plan;
    return selected ? cgen::make_backend(kind, std::move(cgen_options))
                    : nullptr;
  };
  const Backends backends{
      backend(set.sim, estimator::BackendKind::Simulation),
      backend(set.analytic, estimator::BackendKind::Analytic),
      backend(set.codegen, estimator::BackendKind::Codegen)};

  // Prepare phase (cached mode): compile every referenced model once —
  // parse, check, transform, Backend::prepare — before the pool starts.
  // The entries are immutable from here on; workers only read them.
  std::vector<CompiledEntry> cache;
  if (!options_.isolate_jobs) {
    cache = compile_models(backends, threads, &report.models_prepared,
                           collect_trace ? &report.trace : nullptr);
    report.prepare_seconds = seconds_since(start);
    // The batch stage timers count each model's one-time stages here;
    // derived_metrics() adds the per-job columns, which are 0 in this
    // mode.
    for (const auto& entry : cache) {
      report.metrics.timer("batch.parse_seconds")
          .add_seconds(entry.parse_seconds);
      report.metrics.timer("batch.check_seconds")
          .add_seconds(entry.check_seconds);
      report.metrics.timer("batch.transform_seconds")
          .add_seconds(entry.transform_seconds);
      if (collect_metrics) {
        // Cached mode pays the lowering (and any codegen compile) once
        // per model; count it here rather than per job.
        entry.fold(&report.metrics);
      }
    }
  }

  // Chunk layout, per segment: runs of `width` consecutive jobs of one
  // model.  Lanes form only when the analytic estimator runs — the one
  // backend whose estimate_batch is vectorized; for the others a chunk
  // would only smear one wall time over its jobs, and claiming them one
  // at a time keeps jobs whose cost grows with np balanced — and only on
  // the unlimited fast path: per-job limits, timeouts and fault plans
  // need per-job budgets.  A model's first job stands alone when it
  // doubles as the model's representative simulated timeline (one per
  // model keeps the trace readable).
  const int lanes = options_.batch_lanes == 0 ? 8 : options_.batch_lanes;
  const bool batching = !options_.isolate_jobs && lanes >= 2 && set.analytic &&
                        !job_limits(options_).any() &&
                        options_.fault_plan == nullptr;
  const std::size_t width = batching ? static_cast<std::size_t>(lanes) : 1;
  std::vector<std::size_t> first_chunk(jobs.segments.size() + 1, 0);
  std::vector<char> leads(jobs.segments.size(), 0);
  {
    std::vector<char> seen(models_.size(), 0);
    for (std::size_t s = 0; s < jobs.segments.size(); ++s) {
      const auto m = static_cast<std::size_t>(jobs.segments[s].model_index);
      leads[s] = collect_trace && set.sim && seen[m] == 0 ? 1 : 0;
      seen[m] = 1;
      first_chunk[s + 1] = first_chunk[s] + leads[s] +
                           (jobs.segments[s].count - leads[s] + width - 1) /
                               width;
    }
  }
  const std::size_t chunk_count = first_chunk.back();
  struct Chunk {
    const JobList::Segment* segment;
    std::size_t begin;
    std::size_t size;
    bool traced;
  };
  const auto chunk_at = [&](std::size_t ticket) {
    const auto s = static_cast<std::size_t>(
        std::upper_bound(first_chunk.begin(), first_chunk.end(), ticket) -
        first_chunk.begin() - 1);
    const JobList::Segment& segment = jobs.segments[s];
    const std::size_t k = ticket - first_chunk[s];
    if (leads[s] != 0 && k == 0) {
      return Chunk{&segment, segment.first, 1, true};
    }
    const std::size_t begin =
        segment.first + leads[s] + (k - leads[s]) * width;
    return Chunk{&segment, begin,
                 std::min(width, segment.first + segment.count - begin),
                 false};
  };

  // The CSV streams through one ordered writer while the jobs run.
  std::optional<OrderedWriter> csv;
  if (options_.csv_sink) {
    options_.csv_sink(kCsvHeader);
    csv.emplace(options_.csv_sink, chunk_count);
  }

  // Neither Registry nor TraceLog is thread-safe: each worker owns one
  // of each (trace logs share the report's epoch) and they merge after
  // the join — the hot path never synchronizes on instrumentation.  The
  // same holds for the failure texts of the side table.
  std::vector<obs::Registry> worker_metrics(
      collect_metrics ? static_cast<std::size_t>(threads) : 0);
  std::vector<obs::TraceLog> worker_traces;
  if (collect_trace) {
    worker_traces.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      worker_traces.emplace_back(report.trace.epoch());
    }
  }
  std::vector<std::vector<ResultTable::Failure>> worker_failures(
      static_cast<std::size_t>(threads));

  // Progress state: plain atomics the workers bump and a monitor thread
  // samples — heartbeats never block the pool.  The worst relative
  // error maxes via CAS on the double's bit pattern (rel errors are
  // non-negative, so the integer order matches the double order).
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> worst_rel_bits{0};

  // Work-stealing by atomic ticket: every chunk is claimed exactly once
  // and its rows land at their jobs' rows, so the report order is job
  // order no matter which worker ran what.
  std::atomic<std::size_t> next{0};
  const auto worker = [&](int worker_id) {
    const auto index = static_cast<std::size_t>(worker_id);
    obs::Registry* metrics =
        worker_metrics.empty() ? nullptr : &worker_metrics[index];
    obs::TraceLog* log =
        worker_traces.empty() ? nullptr : &worker_traces[index];
    std::vector<ResultTable::Failure>& failures = worker_failures[index];
    std::vector<ScenarioResult> lane_results(width);
    std::vector<machine::SystemParameters> params(width);
    TextWriter csv_text(TextWriter::Doubles::kShortest);
    for (std::size_t ticket = next.fetch_add(1); ticket < chunk_count;
         ticket = next.fetch_add(1)) {
      const Chunk chunk = chunk_at(ticket);
      const std::span<ScenarioResult> rows(lane_results.data(), chunk.size);
      for (std::size_t k = 0; k < chunk.size; ++k) {
        jobs.fill(*chunk.segment, chunk.begin + k, &rows[k]);
        params[k] = rows[k].params;
      }
      const auto m = static_cast<std::size_t>(chunk.segment->model_index);
      if (sweep != nullptr && sweep->exhausted()) {
        // Past the deadline or cancelled: the jobs never start, but
        // still get a structured row each.
        const bool cancelled = sweep->cancel_requested();
        for (ScenarioResult& row : rows) {
          clear_outcome(&row, options_.backend);
          row.error = cancelled
                          ? "sweep: cancelled before the job started"
                          : "sweep: deadline exceeded before the job started";
          row.tripped_limit = cancelled ? "cancelled" : "wall_clock";
        }
      } else {
        trace::Trace sim_trace;
        trace::Trace* sim_trace_out =
            log != nullptr && chunk.traced ? &sim_trace : nullptr;
        {
          const obs::TraceLog::HostSpan span(
              log, 0, worker_id,
              [&] {
                std::string name = "estimate " + rows[0].model_name + " #" +
                                   std::to_string(rows[0].job_id);
                if (chunk.size > 1) {
                  name += "-#" + std::to_string(rows.back().job_id);
                }
                return name;
              },
              "host.estimate");
          run_chunk(options_.isolate_jobs ? nullptr : &cache[m], backends,
                    rows, std::span(params.data(), chunk.size), metrics,
                    sim_trace_out, sweep);
        }
        if (sim_trace_out != nullptr) {
          log->append_simulated(sim_trace,
                                sim_pid_base(chunk.segment->model_index),
                                rows[0].model_name);
        }
      }
      csv_text.clear();
      for (std::size_t k = 0; k < chunk.size; ++k) {
        const ScenarioResult& row = rows[k];
        report.results.store(chunk.begin + k, row);
        if (!row.error.empty() || !row.tripped_limit.empty()) {
          failures.push_back(ResultTable::Failure{chunk.begin + k, row.error,
                                                  row.tripped_limit});
        }
        if (row.ok && estimator::backends_of(row.backend).cross_validates()) {
          std::uint64_t seen = worst_rel_bits.load(std::memory_order_relaxed);
          while (std::bit_cast<double>(seen) < row.relative_error &&
                 !worst_rel_bits.compare_exchange_weak(
                     seen, std::bit_cast<std::uint64_t>(row.relative_error),
                     std::memory_order_relaxed)) {
          }
        }
        if (csv) {
          csv_row(csv_text, row);
        }
      }
      if (csv) {
        csv->slot(ticket).assign(csv_text.text());
        csv->publish(ticket);
      }
      done.fetch_add(chunk.size, std::memory_order_release);
    }
  };

  const auto make_progress = [this, &done, &worst_rel_bits, &jobs,
                              start](bool final) {
    BatchProgress progress;
    progress.done = done.load(std::memory_order_acquire);
    progress.total = jobs.size();
    progress.elapsed_seconds = seconds_since(start);
    progress.jobs_per_second =
        progress.elapsed_seconds > 0
            ? static_cast<double>(progress.done) / progress.elapsed_seconds
            : 0;
    progress.eta_seconds =
        progress.jobs_per_second > 0
            ? static_cast<double>(progress.total - progress.done) /
                  progress.jobs_per_second
            : 0;
    progress.worst_rel_error =
        std::bit_cast<double>(worst_rel_bits.load(std::memory_order_relaxed));
    progress.final = final;
    return progress;
  };

  // Heartbeat monitor: wakes every interval until the pool finishes, then
  // stops so the guaranteed final callback never overlaps a periodic one.
  std::thread monitor;
  std::mutex monitor_mutex;
  std::condition_variable monitor_cv;
  bool monitor_stop = false;
  if (options_.on_progress) {
    const auto interval = std::chrono::duration<double>(
        std::max(options_.progress_interval_seconds, 0.01));
    monitor = std::thread([this, &monitor_mutex, &monitor_cv, &monitor_stop,
                           &make_progress, interval] {
      std::unique_lock<std::mutex> lock(monitor_mutex);
      while (!monitor_cv.wait_for(lock, interval,
                                  [&monitor_stop] { return monitor_stop; })) {
        options_.on_progress(make_progress(false));
      }
    });
  }

  run_pool(threads, worker);
  // The wall ends with the last job; the writer may still be emitting
  // the CSV's last chunks.
  report.wall_seconds = seconds_since(start);
  if (monitor.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(monitor_mutex);
      monitor_stop = true;
    }
    monitor_cv.notify_all();
    monitor.join();
  }

  for (auto& failures : worker_failures) {
    report.results.failures_.insert(report.results.failures_.end(),
                                    std::make_move_iterator(failures.begin()),
                                    std::make_move_iterator(failures.end()));
  }
  std::sort(report.results.failures_.begin(), report.results.failures_.end(),
            [](const ResultTable::Failure& a, const ResultTable::Failure& b) {
              return a.row < b.row;
            });
  for (const auto& registry : worker_metrics) {
    report.metrics.merge(registry);
  }
  if (collect_metrics && batching) {
    // The configured lane width; `expr.batch_evals` (folded from the
    // engine counters above) tells whether the vectorized VM actually
    // ran, `batch.lanes_fallback` how many lanes dropped to scalar.
    report.metrics.gauge("expr.batch_width").set(static_cast<double>(lanes));
  }
  for (auto& log : worker_traces) {
    report.trace.merge(std::move(log));
  }
  if (!options_.isolate_jobs) {
    // A cache hit is a job answered from a successfully compiled shared
    // entry (its model's one-time compile served it).
    std::uint64_t hits = 0;
    for (const auto& segment : jobs.segments) {
      if (cache[static_cast<std::size_t>(segment.model_index)].ok) {
        hits += segment.count;
      }
    }
    report.metrics.counter("batch.cache_hits").add(hits);
  }
  report.metrics.merge(report.derived_metrics());
  if (csv) {
    csv->finish();
  }

  if (options_.on_progress) {
    options_.on_progress(make_progress(true));
  }
  return report;
}

}  // namespace prophet::pipeline
