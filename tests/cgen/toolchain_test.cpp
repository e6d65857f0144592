// The host-toolchain driver: command construction (the one builder the
// cgen backend and the out-of-process integration tests share), the
// $CXX / $PROPHET_EXTRA_CXX_FLAGS environment contract, the FNV-1a
// cache key function, the content-addressed compile cache (including
// concurrent same-source compiles in one process), and the structured
// failure paths (compile errors, injected faults).
#include <gtest/gtest.h>

#include <dlfcn.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "prophet/cgen/toolchain.hpp"
#include "prophet/guard/guard.hpp"

namespace cgen = prophet::cgen;

namespace {

/// Scoped environment override: sets (or, with nullptr, unsets) a
/// variable for the test body and restores the previous state after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      saved_ = old;
      had_value_ = true;
    }
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

/// A guaranteed-cold cache directory: gtest's TempDir() persists across
/// runs, so a fixed name would stay warm from the previous invocation.
std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Toolchain, CompilerCommandHonorsCxx) {
  {
    const ScopedEnv cxx("CXX", "my-custom-c++");
    EXPECT_EQ(cgen::compiler_command(), "my-custom-c++");
  }
  {
    const ScopedEnv cxx("CXX", nullptr);
    EXPECT_EQ(cgen::compiler_command(), "g++");
  }
  {
    // Set-but-empty must not produce an empty command.
    const ScopedEnv cxx("CXX", "");
    EXPECT_EQ(cgen::compiler_command(), "g++");
  }
}

TEST(Toolchain, ExtraFlagsPreferTheEnvironment) {
  {
    const ScopedEnv flags("PROPHET_EXTRA_CXX_FLAGS", "-g -Wall");
    EXPECT_EQ(cgen::extra_cxx_flags("-fsanitize=address"), "-g -Wall");
  }
  {
    // Set-but-empty deliberately clears the configure-time fallback —
    // how an unsanitized toolchain builds against a sanitized tree.
    const ScopedEnv flags("PROPHET_EXTRA_CXX_FLAGS", "");
    EXPECT_EQ(cgen::extra_cxx_flags("-fsanitize=address"), "");
  }
  {
    const ScopedEnv flags("PROPHET_EXTRA_CXX_FLAGS", nullptr);
    EXPECT_EQ(cgen::extra_cxx_flags("-fsanitize=address"),
              "-fsanitize=address");
  }
}

TEST(Toolchain, RuntimeArchivesAreInLinkOrder) {
  const auto archives = cgen::runtime_archives("/build");
  ASSERT_EQ(archives.size(), 8u);
  // Dependents precede dependencies: the estimator umbrella first, the
  // leaf modules (guard, xml) last.
  EXPECT_EQ(archives.front(), "/build/src/estimator/libprophet_estimator.a");
  EXPECT_EQ(archives.back(), "/build/src/xml/libprophet_xml.a");
  for (const auto& archive : archives) {
    EXPECT_EQ(archive.rfind("/build/src/", 0), 0u) << archive;
  }
}

TEST(Toolchain, CompileCommandShapes) {
  const ScopedEnv cxx("CXX", nullptr);
  const ScopedEnv flags("PROPHET_EXTRA_CXX_FLAGS", nullptr);
  cgen::CompileSpec spec;
  spec.source_path = "/tmp/in.cpp";
  spec.output_path = "/tmp/out";
  spec.include_dir = "/repo/include";
  spec.archives = {"/build/a.a", "/build/b.a"};
  spec.extra_flags_fallback = "-fno-omit-frame-pointer";

  const std::string executable = cgen::compile_command(spec);
  EXPECT_NE(executable.find("g++ -std=c++20 -O2"), std::string::npos)
      << executable;
  EXPECT_NE(executable.find("-fno-omit-frame-pointer"), std::string::npos);
  EXPECT_NE(executable.find("-I/repo/include"), std::string::npos);
  EXPECT_NE(executable.find("/build/a.a /build/b.a"), std::string::npos);
  EXPECT_EQ(executable.find("-shared"), std::string::npos);
  // stderr folds into stdout so failures carry the compiler's message.
  EXPECT_EQ(executable.rfind("2>&1"), executable.size() - 4);

  // Executables take the requested optimization level.
  spec.optimization = "-O1";
  EXPECT_NE(cgen::compile_command(spec).find("g++ -std=c++20 -O1"),
            std::string::npos);

  spec.shared_object = true;
  spec.pch_dir = "/build/cgen_pch";
  const std::string shared = cgen::compile_command(spec);
  // Shared objects always compile with the evaluator flags, the ones the
  // runtime header is precompiled with: the bit-identity contract of
  // position-independent code, no FMA contraction, and only the
  // explicit entry points in the dynamic symbol table.
  EXPECT_EQ(cgen::evaluator_cxx_flags(),
            "-std=c++20 -O2 -fPIC -ffp-contract=off -fvisibility=hidden");
  EXPECT_EQ(shared.rfind("g++ " + std::string(cgen::evaluator_cxx_flags()) +
                             " -shared -fno-omit-frame-pointer ",
                         0),
            0u)
      << shared;
  EXPECT_EQ(shared.find("-O1"), std::string::npos) << shared;
  // The precompiled-header directory is searched before the real one.
  EXPECT_NE(shared.find("-I/build/cgen_pch -I/repo/include "),
            std::string::npos)
      << shared;
}

TEST(Toolchain, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a test vectors: the offset basis for "", and "a".
  EXPECT_EQ(cgen::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(cgen::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  // Content-addressing needs distinct keys for distinct sources.
  EXPECT_NE(cgen::fnv1a64("int x;"), cgen::fnv1a64("int y;"));
}

TEST(Toolchain, CompileCacheHitsOnTheSecondBuild) {
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-hit-test");
  const std::string source =
      "extern \"C\" int prophet_cgen_cache_probe() { return 7; }\n";

  const auto first = cgen::compile_shared_object(source, options);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.compile_seconds, 0.0);
  EXPECT_TRUE(std::ifstream(first.object_path).good()) << first.object_path;

  const auto second = cgen::compile_shared_object(source, options);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.object_path, first.object_path);
  EXPECT_EQ(second.compile_seconds, 0.0);

  // A different source must land on a different cached object.
  const auto other = cgen::compile_shared_object(source + "// v2\n", options);
  EXPECT_FALSE(other.cache_hit);
  EXPECT_NE(other.object_path, first.object_path);
}

TEST(Toolchain, SameSourceCompilesInOneProcessDoNotRace) {
  // Threads share the pid: each compile must still write its own
  // temporary source and object, or one thread installs another's
  // half-written object.
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  const std::string source =
      "extern \"C\" __attribute__((visibility(\"default\"))) int "
      "prophet_cgen_race_probe() { return 42; }\n";
  for (int round = 0; round < kRounds; ++round) {
    cgen::ToolchainOptions options;
    options.cache_dir =
        fresh_cache_dir("cgen-cache-race-test-" + std::to_string(round));
    std::vector<std::string> paths(kThreads);
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        try {
          paths[t] = cgen::compile_shared_object(source, options).object_path;
        } catch (const std::exception& error) {
          errors[t] = error.what();
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(errors[t], "") << "round " << round << " thread " << t;
      EXPECT_EQ(paths[t], paths[0]);
    }
    void* handle = dlopen(paths[0].c_str(), RTLD_NOW | RTLD_LOCAL);
    ASSERT_NE(handle, nullptr) << dlerror();
    using ProbeFn = int (*)();
    const auto probe =
        reinterpret_cast<ProbeFn>(dlsym(handle, "prophet_cgen_race_probe"));
    ASSERT_NE(probe, nullptr);
    EXPECT_EQ(probe(), 42);
    dlclose(handle);
    // Only the installed source and object remain: no temporary leaks.
    std::size_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(options.cache_dir)) {
      EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
          << entry.path();
      ++files;
    }
    EXPECT_EQ(files, 2u);
  }
}

TEST(Toolchain, CompileFailureThrowsWithToolchainOutput) {
  cgen::ToolchainOptions options;
  options.cache_dir = ::testing::TempDir() + "/cgen-cache-fail-test";
  try {
    (void)cgen::compile_shared_object("int broken(\n", options);
    FAIL() << "expected CgenError";
  } catch (const cgen::CgenError& error) {
    // The compiler's diagnostics ride along for the job-error column.
    EXPECT_NE(std::string(error.what()).find("error"), std::string::npos)
        << error.what();
  }
}

TEST(Toolchain, MissingCompilerDegradesToStructuredError) {
  const ScopedEnv cxx("CXX", "prophet-no-such-compiler-xyzzy");
  cgen::ToolchainOptions options;
  options.cache_dir = ::testing::TempDir() + "/cgen-cache-nocc-test";
  try {
    (void)cgen::compile_shared_object("int ok = 1;\n", options);
    FAIL() << "expected CgenError";
  } catch (const cgen::CgenError& error) {
    EXPECT_NE(std::string(error.what()).find("no usable C++ toolchain"),
              std::string::npos)
        << error.what();
  }
}

TEST(Toolchain, NonexistentCompilerPathIsAMissingToolchain) {
  // The shell cannot run the command at all (exit status 127).
  const ScopedEnv cxx("CXX", "/nonexistent/prophet/bin/c++");
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-nocc-path-test");
  try {
    (void)cgen::compile_shared_object("int ok = 2;\n", options);
    FAIL() << "expected CgenError";
  } catch (const cgen::CgenError& error) {
    EXPECT_NE(std::string(error.what()).find("no usable C++ toolchain"),
              std::string::npos)
        << error.what();
  }
}

TEST(Toolchain, MissingArchiveIsACompileFailureNotAMissingToolchain) {
  // A build tree without the runtime archives: the compiler runs and the
  // link fails with "No such file or directory", which must not read as
  // a missing toolchain.
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-no-archive-test");
  options.binary_dir = fresh_cache_dir("cgen-tree-without-archives");
  try {
    (void)cgen::compile_shared_object("int ok = 3;\n", options);
    FAIL() << "expected CgenError";
  } catch (const cgen::CgenError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("generated evaluator failed to compile"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("libprophet_"), std::string::npos) << message;
    EXPECT_EQ(message.find("no usable C++ toolchain"), std::string::npos)
        << message;
  }
}

TEST(Toolchain, SameKeyCompilesInOneProcessRunTheToolchainOnce) {
  // Concurrent compiles of one source share one toolchain run; a second
  // run would reach the second visit of the compile site and fail.
  prophet::guard::FaultPlan plan =
      prophet::guard::FaultPlan::parse("cgen-compile@2");
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-single-flight-test");
  options.fault_plan = &plan;
  const std::string source =
      "extern \"C\" int prophet_cgen_flight_probe() { return 5; }\n";
  constexpr int kThreads = 4;
  std::vector<cgen::CompileOutcome> outcomes(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        outcomes[t] = cgen::compile_shared_object(source, options);
      } catch (const std::exception& error) {
        errors[t] = error.what();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  int compiled = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(errors[t], "") << "thread " << t;
    EXPECT_EQ(outcomes[t].object_path, outcomes[0].object_path);
    compiled += outcomes[t].cache_hit ? 0 : 1;
  }
  EXPECT_EQ(compiled, 1);
}

TEST(Toolchain, FaultSiteFiresBeforeTheCompile) {
  prophet::guard::FaultPlan plan =
      prophet::guard::FaultPlan::parse("cgen-compile");
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-fault-test");
  options.fault_plan = &plan;
  try {
    (void)cgen::compile_shared_object("int faulted = 1;\n", options);
    FAIL() << "expected FaultInjected";
  } catch (const prophet::guard::FaultInjected& fault) {
    EXPECT_EQ(fault.site(), "cgen-compile");
  }
}

TEST(Toolchain, CacheHitSkipsTheFaultSite) {
  // Warm the cache without a plan, then inject: a hit never invokes the
  // toolchain, so the fault site must not be visited.
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-fault-skip-test");
  const std::string source = "extern \"C\" int prophet_cgen_warm() "
                             "{ return 1; }\n";
  const auto warm = cgen::compile_shared_object(source, options);
  ASSERT_FALSE(warm.cache_hit);

  prophet::guard::FaultPlan plan =
      prophet::guard::FaultPlan::parse("cgen-compile");
  options.fault_plan = &plan;
  const auto hit = cgen::compile_shared_object(source, options);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.object_path, warm.object_path);
}

}  // namespace
