#include "prophet/cgen/backend.hpp"

#include <dlfcn.h>
#include <link.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/abi.hpp"
#include "prophet/cgen/emitter.hpp"
#include "prophet/guard/guard.hpp"

namespace prophet::cgen {

namespace {

/// RAII dlopen handle.  RTLD_LOCAL keeps each evaluator's symbols
/// private (two loaded models must not resolve into each other);
/// RTLD_NOW surfaces unresolved symbols at prepare() time as a
/// structured error instead of a mid-estimate abort.
class SharedObject {
 public:
  explicit SharedObject(const std::string& path)
      : handle_(dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL)) {
    if (handle_ == nullptr) {
      const char* reason = dlerror();
      throw CgenError("cannot load generated evaluator " + path + ": " +
                      (reason != nullptr ? reason : "unknown dlopen error"));
    }
  }

  ~SharedObject() {
    if (handle_ != nullptr) {
      dlclose(handle_);
    }
  }

  SharedObject(const SharedObject&) = delete;
  SharedObject& operator=(const SharedObject&) = delete;

  template <typename Fn>
  [[nodiscard]] Fn symbol(const char* name) const {
    void* address = dlsym(handle_, name);
    if (address == nullptr) {
      throw CgenError(std::string("generated evaluator lacks symbol '") +
                      name + "' (not a prophet cgen object?)");
    }
    return reinterpret_cast<Fn>(address);
  }

 private:
  void* handle_ = nullptr;
};

/// A loaded evaluator whose ABI version matched, with its entry points.
struct LoadedEvaluator {
  std::unique_ptr<SharedObject> object;
  CgenRunFn run = nullptr;
  CgenFreeFn free = nullptr;
};

/// Checks that `path` is an ELF object holding every extent its headers
/// declare.  dlopen maps segments without comparing them to the file
/// size, so a truncated object faults (SIGBUS) while it is relocated
/// instead of failing to load.
void check_object_extents(const std::string& path) {
  const auto fail = [&path](const char* reason) {
    throw CgenError("cannot load generated evaluator " + path + ": " +
                    reason);
  };
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    fail("cannot open the file");
  }
  const auto size = static_cast<std::uint64_t>(in.tellg());
  const auto fits = [size](std::uint64_t offset, std::uint64_t length) {
    return offset <= size && length <= size - offset;
  };
  ElfW(Ehdr) header{};
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(&header), sizeof header) ||
      std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0) {
    fail("not an ELF object");
  }
  if (header.e_phentsize != sizeof(ElfW(Phdr)) ||
      !fits(header.e_phoff,
            std::uint64_t{header.e_phnum} * header.e_phentsize) ||
      !fits(header.e_shoff,
            std::uint64_t{header.e_shnum} * header.e_shentsize)) {
    fail("truncated ELF object");
  }
  in.seekg(static_cast<std::streamoff>(header.e_phoff));
  for (unsigned i = 0; i < header.e_phnum; ++i) {
    ElfW(Phdr) segment{};
    if (!in.read(reinterpret_cast<char*>(&segment), sizeof segment) ||
        !fits(segment.p_offset, segment.p_filesz)) {
      fail("truncated ELF object");
    }
  }
}

/// dlopens `path` and checks it is a cgen evaluator of this ABI; throws
/// CgenError otherwise.
LoadedEvaluator load_evaluator(const std::string& path) {
  check_object_extents(path);
  LoadedEvaluator loaded;
  loaded.object = std::make_unique<SharedObject>(path);
  const auto version =
      loaded.object->symbol<CgenAbiVersionFn>(kCgenAbiVersionSymbol);
  if (version() != kCgenAbiVersion) {
    throw CgenError("generated evaluator ABI mismatch (object " +
                    std::to_string(version()) + ", host " +
                    std::to_string(kCgenAbiVersion) + ")");
  }
  loaded.run = loaded.object->symbol<CgenRunFn>(kCgenRunSymbol);
  loaded.free = loaded.object->symbol<CgenFreeFn>(kCgenFreeSymbol);
  return loaded;
}

/// C-compatible poll over the host budget, bound into the shared
/// object's budget via guard::Budget::bind_external_cancel.
int poll_host_budget(void* context) {
  return static_cast<const guard::Budget*>(context)->cancel_requested() ? 1
                                                                        : 0;
}

/// Remaining headroom of one numeric limit: an untouched limit passes
/// through, a partially consumed one shrinks (the shared object's
/// ledger starts at zero), an exhausted one clamps to 1 so the very
/// first charge trips.
std::uint64_t remaining_limit(std::uint64_t limit, std::uint64_t used) {
  if (limit == 0) {
    return 0;
  }
  return used < limit ? limit - used : 1;
}

}  // namespace

struct CodegenPrepared::Impl {
  lower::ModelProgramPtr program;
  std::unique_ptr<SharedObject> object;
  CgenRunFn run = nullptr;
  CgenFreeFn free = nullptr;
  std::string object_path;
  double prepare_seconds = 0;
  bool cache_hit = false;
};

CodegenPrepared::CodegenPrepared(lower::ModelProgramPtr program,
                                 const CodegenOptions& options)
    : impl_(std::make_unique<Impl>()) {
  if (program == nullptr) {
    throw CgenError("null model program");
  }
  const auto started = std::chrono::steady_clock::now();
  impl_->program = std::move(program);
  const std::string source = emit_evaluator(*impl_->program);
  CompileOutcome compiled = compile_shared_object(source, options.toolchain);
  LoadedEvaluator loaded;
  try {
    loaded = load_evaluator(compiled.object_path);
  } catch (const CgenError&) {
    // A cached object that does not load (truncated, garbage, foreign)
    // is evicted and compiled once more; a fresh object that does not
    // load is a real failure.
    if (!compiled.cache_hit) {
      throw;
    }
    std::error_code ec;
    std::filesystem::remove(compiled.object_path, ec);
    compiled = compile_shared_object(source, options.toolchain);
    loaded = load_evaluator(compiled.object_path);
  }
  impl_->object_path = compiled.object_path;
  impl_->cache_hit = compiled.cache_hit;
  impl_->object = std::move(loaded.object);
  impl_->run = loaded.run;
  impl_->free = loaded.free;
  impl_->prepare_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
}

CodegenPrepared::~CodegenPrepared() = default;

estimator::PredictionReport CodegenPrepared::estimate(
    const machine::SystemParameters& params,
    const estimator::EstimationOptions& options) const {
  CgenParams request;
  request.nodes = params.nodes;
  request.processors_per_node = params.processors_per_node;
  request.processes = params.processes;
  request.threads_per_process = params.threads_per_process;
  request.cpu_speed = params.cpu_speed;
  request.network_latency = params.network_latency;
  request.network_bandwidth = params.network_bandwidth;
  request.network_overhead = params.network_overhead;
  request.memory_latency = params.memory_latency;
  request.memory_bandwidth = params.memory_bandwidth;
  request.barrier_latency = params.barrier_latency;
  request.collect_machine_report = options.collect_machine_report ? 1 : 0;

  // Guard transfer: a caller-owned budget is projected onto the ABI —
  // numeric limits shrink by what the host ledger already consumed, the
  // wall deadline becomes the remaining seconds (so a parent sweep's
  // deadline binds too), cancellation is bridged by a poll, and an armed
  // mid-run cancel re-arms on the far side.  Bare limits pass through.
  if (options.budget != nullptr) {
    const guard::Budget& budget = *options.budget;
    const guard::Limits& limits = budget.limits();
    const guard::Usage used = budget.usage();
    request.max_sim_events =
        remaining_limit(limits.max_sim_events, used.sim_events);
    request.max_vm_instructions =
        remaining_limit(limits.max_vm_instructions, used.vm_instructions);
    request.max_replay_events =
        remaining_limit(limits.max_replay_events, used.replay_events);
    request.max_loop_trips =
        remaining_limit(limits.max_loop_trips, used.loop_trips);
    if (const auto remaining = budget.remaining_wall_seconds()) {
      request.wall_seconds = *remaining > 1e-9 ? *remaining : 1e-9;
    }
    request.cancel_at_sim_event = budget.armed_cancel_at_sim_event();
    request.cancel_poll = &poll_host_budget;
    request.cancel_context =
        const_cast<void*>(static_cast<const void*>(options.budget));
  } else {
    request.wall_seconds = options.limits.wall_seconds;
    request.max_sim_events = options.limits.max_sim_events;
    request.max_vm_instructions = options.limits.max_vm_instructions;
    request.max_replay_events = options.limits.max_replay_events;
    request.max_loop_trips = options.limits.max_loop_trips;
  }

  CgenResult result;
  impl_->run(&request, &result);

  // Copy out before freeing the object-owned storage.
  estimator::PredictionReport report;
  guard::Usage usage;
  usage.sim_events = result.usage_sim_events;
  usage.vm_instructions = result.usage_vm_instructions;
  usage.replay_events = result.usage_replay_events;
  usage.loop_trips = result.usage_loop_trips;
  usage.elapsed_seconds = result.usage_elapsed_seconds;
  const std::string message =
      result.message != nullptr ? result.message : "";
  const std::string stage = result.stage != nullptr ? result.stage : "";
  const auto limit = static_cast<guard::LimitKind>(result.limit);
  const std::int32_t status = result.status;
  if (status == kCgenOk) {
    report.predicted_time = result.predicted_time;
    report.events = result.events;
    report.processes = result.processes;
    for (std::size_t i = 0; i < result.finish_count; ++i) {
      report.per_process_finish[result.finish_pids[i]] =
          result.finish_times[i];
    }
    if (result.machine_report != nullptr) {
      report.machine_report = result.machine_report;
    }
  }
  impl_->free(&result);

  switch (status) {
    case kCgenOk:
      return report;
    case kCgenResourceExhausted:
      throw guard::ResourceExhausted(message, limit, stage, usage);
    case kCgenCancelled:
      throw guard::Cancelled(message, limit, stage, usage);
    default:
      throw CgenError(message.empty() ? "generated evaluator failed"
                                      : message);
  }
}

lower::ModelProgramPtr CodegenPrepared::lowering() const {
  return impl_->program;
}

double CodegenPrepared::prepare_seconds() const {
  return impl_->prepare_seconds;
}

bool CodegenPrepared::cache_hit() const { return impl_->cache_hit; }

const std::string& CodegenPrepared::object_path() const {
  return impl_->object_path;
}

std::unique_ptr<estimator::PreparedModel> CodegenBackend::prepare(
    lower::ModelProgramPtr program) const {
  return std::make_unique<CodegenPrepared>(std::move(program), options_);
}

std::unique_ptr<estimator::Backend> make_backend(estimator::BackendKind kind,
                                                 CodegenOptions options) {
  if (kind == estimator::BackendKind::Codegen) {
    return std::make_unique<CodegenBackend>(std::move(options));
  }
  return analytic::make_backend(kind);
}

}  // namespace prophet::cgen
