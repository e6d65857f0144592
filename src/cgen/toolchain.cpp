#include "prophet/cgen/toolchain.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <system_error>

#include "prophet/cgen/abi.hpp"
#include "prophet/guard/guard.hpp"

// Configure-time defaults (CMake defines these for prophet_cgen); the
// empty fallbacks keep the TU compilable standalone.
#ifndef PROPHET_SOURCE_DIR
#define PROPHET_SOURCE_DIR ""
#endif
#ifndef PROPHET_BINARY_DIR
#define PROPHET_BINARY_DIR ""
#endif
#ifndef PROPHET_EXTRA_CXX_FLAGS
#define PROPHET_EXTRA_CXX_FLAGS ""
#endif
// The evaluator flags have no fallback: CMake defines them once, for
// this TU and for the precompiled runtime header alike.
#ifndef PROPHET_CGEN_CXX_FLAGS
#error "PROPHET_CGEN_CXX_FLAGS must be defined by the build"
#endif

namespace prophet::cgen {

namespace fs = std::filesystem;

std::string compiler_command() {
  const char* cxx = std::getenv("CXX");
  if (cxx != nullptr && cxx[0] != '\0') {
    return cxx;
  }
  return "g++";
}

std::string_view evaluator_cxx_flags() { return PROPHET_CGEN_CXX_FLAGS; }

std::string extra_cxx_flags(std::string_view fallback) {
  const char* flags = std::getenv("PROPHET_EXTRA_CXX_FLAGS");
  if (flags != nullptr) {
    return flags;
  }
  return std::string(fallback);
}

std::vector<std::string> runtime_archives(std::string_view binary_dir) {
  // Link order matters for single-pass archive resolution: dependents
  // before dependencies.
  static constexpr std::string_view kModules[] = {
      "estimator", "workload", "machine", "obs",
      "trace",     "sim",      "guard",   "xml",
  };
  std::vector<std::string> archives;
  archives.reserve(std::size(kModules));
  for (const auto module : kModules) {
    archives.push_back(std::string(binary_dir) + "/src/" +
                       std::string(module) + "/libprophet_" +
                       std::string(module) + ".a");
  }
  return archives;
}

std::string compile_command(const CompileSpec& spec) {
  std::ostringstream command;
  command << compiler_command();
  if (spec.shared_object) {
    command << " " << evaluator_cxx_flags() << " -shared";
  } else {
    command << " -std=c++20 " << spec.optimization;
  }
  const std::string extra = extra_cxx_flags(spec.extra_flags_fallback);
  if (!extra.empty()) {
    command << " " << extra;
  }
  if (!spec.pch_dir.empty()) {
    command << " -I" << spec.pch_dir;
  }
  command << " -I" << spec.include_dir << " " << spec.source_path;
  for (const auto& archive : spec.archives) {
    command << " " << archive;
  }
  command << " -o " << spec.output_path;
  if (spec.shared_object) {
    command << " -ldl";
  }
  command << " 2>&1";
  return command.str();
}

int run_command(const std::string& command, std::string* output) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    if (output != nullptr) {
      *output = "popen failed";
    }
    return -1;
  }
  char buffer[512];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
    if (output != nullptr) {
      *output += buffer;
    }
  }
  return pclose(pipe);
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

std::string default_cache_dir() {
  const char* env = std::getenv("PROPHET_CGEN_CACHE");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
  std::error_code ec;
  const fs::path temp = fs::temp_directory_path(ec);
  if (ec) {
    return "prophet-cgen-cache";
  }
  return (temp / "prophet-cgen-cache").string();
}

std::string hex64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Trims toolchain output for error messages: enough to diagnose, not
/// the compiler's whole template backtrace.
std::string head_of(const std::string& text, std::size_t max_bytes = 4096) {
  if (text.size() <= max_bytes) {
    return text;
  }
  return text.substr(0, max_bytes) + "\n... (toolchain output truncated)";
}

/// Compiles `source` into `object_path` under the cache's temporary
/// naming; fills the outcome's timing and toolchain output.
void compile_object(const std::string& source,
                    const ToolchainOptions& options, CompileSpec spec,
                    const fs::path& base, const fs::path& source_path,
                    const fs::path& object_path, CompileOutcome* result) {
  CompileOutcome& outcome = *result;
  std::error_code ec;
  if (options.fault_plan != nullptr) {
    options.fault_plan->visit("cgen-compile");
  }

  // Names unique to this call: the pid keeps processes apart, the serial
  // keeps apart compiles of different keys in one process.
  static std::atomic<unsigned long> serial{0};
  const std::string temp = base.string() + ".tmp" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(serial.fetch_add(1));
  const fs::path temp_source = temp + ".cpp";
  const fs::path temp_object = temp + ".so";
  {
    std::ofstream out(temp_source, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      throw CgenError("cannot write generated source " +
                      temp_source.string());
    }
    out << source;
  }
  // Install the source before compiling it, so the object records the
  // stable file name.  A concurrent producer of the same key renames an
  // identical file over it; a compiler that already opened the old one
  // keeps reading a complete copy.  The object is compiled to its
  // temporary name and renamed into place the same way.
  fs::rename(temp_source, source_path, ec);
  if (ec) {
    fs::remove(temp_source, ec);
    throw CgenError("cannot install generated source " +
                    source_path.string());
  }
  spec.source_path = source_path.string();
  spec.output_path = temp_object.string();
  const std::string command = compile_command(spec);

  const auto started = std::chrono::steady_clock::now();
  std::string output;
  const int status = run_command(command, &output);
  outcome.compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  if (status != 0) {
    fs::remove(temp_object, ec);
    // The shell exits 127 when it cannot find the command; any other
    // failure is the compiler's or the linker's, whatever its text says.
    if (WIFEXITED(status) && WEXITSTATUS(status) == 127) {
      throw CgenError("no usable C++ toolchain ('" + compiler_command() +
                      "'): " + head_of(output));
    }
    throw CgenError("generated evaluator failed to compile (status " +
                    std::to_string(status) + "):\n" + head_of(output));
  }
  outcome.toolchain_output = std::move(output);
  fs::rename(temp_object, object_path, ec);
  if (ec) {
    fs::remove(temp_object, ec);
    // A concurrent producer may have won the rename; the object is
    // valid either way as long as it exists now.
    if (!fs::exists(object_path, ec)) {
      throw CgenError("cannot install compiled evaluator " +
                      object_path.string());
    }
  }
}

/// One compile in flight in this process.
struct Flight {
  bool landed = false;
  std::exception_ptr error;
};

/// Compiles in flight, by object path.
std::mutex g_flights_mutex;
std::condition_variable g_flight_landed;
std::map<std::string, std::shared_ptr<Flight>> g_flights;

}  // namespace

CompileOutcome compile_shared_object(const std::string& source,
                                     const ToolchainOptions& options) {
  const std::string include_dir =
      options.include_dir.empty() ? std::string(PROPHET_SOURCE_DIR) + "/include"
                                  : options.include_dir;
  const std::string binary_dir =
      options.binary_dir.empty() ? std::string(PROPHET_BINARY_DIR)
                                 : options.binary_dir;
  const std::string fallback = options.extra_flags_fallback.empty()
                                   ? std::string(PROPHET_EXTRA_CXX_FLAGS)
                                   : options.extra_flags_fallback;
  const std::string cache_dir =
      options.cache_dir.empty() ? default_cache_dir() : options.cache_dir;

  CompileSpec spec;
  spec.include_dir = include_dir;
  spec.pch_dir = binary_dir + "/cgen_pch";
  spec.archives = runtime_archives(binary_dir);
  spec.shared_object = true;
  spec.extra_flags_fallback = fallback;

  // Cache key: the source, the command that would build it (with the
  // real paths substituted out so the key depends on the command shape,
  // not the yet-unknown hashed file names), and the ABI version.
  spec.source_path = "<source>";
  spec.output_path = "<object>";
  const std::string shape = compile_command(spec);
  std::ostringstream key;
  key << "abi=" << kCgenAbiVersion << "\n"
      << shape << "\n"
      << source;
  const std::string hash = hex64(fnv1a64(key.str()));

  std::error_code ec;
  fs::create_directories(cache_dir, ec);
  const fs::path base = fs::path(cache_dir) / ("prophet_cgen_" + hash);
  const fs::path source_path = base.string() + ".cpp";
  const fs::path object_path = base.string() + ".so";

  CompileOutcome outcome;
  outcome.object_path = object_path.string();
  if (fs::exists(object_path, ec)) {
    outcome.cache_hit = true;
    return outcome;
  }

  // One compile per key at a time in this process: later callers wait
  // for the first and share its outcome — its object, as a cache hit,
  // or its error.
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(g_flights_mutex);
    auto [it, first] = g_flights.try_emplace(outcome.object_path);
    if (!first) {
      flight = it->second;
      g_flight_landed.wait(lock, [&flight] { return flight->landed; });
      if (flight->error) {
        std::rethrow_exception(flight->error);
      }
      outcome.cache_hit = true;
      return outcome;
    }
    // A leader that landed since the check above installed the object
    // before it left the map.
    if (fs::exists(object_path, ec)) {
      g_flights.erase(it);
      outcome.cache_hit = true;
      return outcome;
    }
    it->second = flight = std::make_shared<Flight>();
  }
  try {
    compile_object(source, options, spec, base, source_path, object_path,
                   &outcome);
  } catch (...) {
    flight->error = std::current_exception();
  }
  {
    const std::lock_guard<std::mutex> lock(g_flights_mutex);
    flight->landed = true;
    g_flights.erase(outcome.object_path);
  }
  g_flight_landed.notify_all();
  if (flight->error) {
    std::rethrow_exception(flight->error);
  }
  return outcome;
}

}  // namespace prophet::cgen
