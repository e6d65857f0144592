// The precompiled runtime header: a cold compile of a real generated
// evaluator loads <build>/cgen_pch/prophet/cgen/runtime.hpp.gch, and a
// build tree without a usable one still compiles, through the real
// header, to an evaluator whose predictions match bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "prophet/cgen/backend.hpp"
#include "prophet/cgen/emitter.hpp"
#include "prophet/cgen/toolchain.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/registry.hpp"

namespace cgen = prophet::cgen;
namespace fs = std::filesystem;

namespace {

const std::string kPch =
    std::string(PROPHET_BINARY_DIR) + "/cgen_pch/prophet/cgen/runtime.hpp.gch";

/// Sets $PROPHET_EXTRA_CXX_FLAGS for the test body, restoring it after.
class ScopedExtraFlags {
 public:
  explicit ScopedExtraFlags(const std::string& value) {
    if (const char* old = std::getenv(kName)) {
      saved_ = old;
    }
    ::setenv(kName, value.c_str(), 1);
  }
  ~ScopedExtraFlags() {
    if (saved_) {
      ::setenv(kName, saved_->c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }
  ScopedExtraFlags(const ScopedExtraFlags&) = delete;
  ScopedExtraFlags& operator=(const ScopedExtraFlags&) = delete;

 private:
  static constexpr const char* kName = "PROPHET_EXTRA_CXX_FLAGS";
  std::optional<std::string> saved_;
};

/// A guaranteed-cold directory under gtest's (persistent) TempDir().
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

prophet::lower::ModelProgramPtr stencil2d() {
  return prophet::lower::lower(
      prophet::models::Registry::builtin().make("@stencil2d"));
}

prophet::machine::SystemParameters sp(int np, int nodes) {
  prophet::machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  return params;
}

/// Prepares `program` into a cold cache, optionally against another
/// build tree, and returns predictions over a small grid as bit patterns.
std::vector<std::uint64_t> predictions(
    const prophet::lower::ModelProgramPtr& program, const std::string& cache,
    const std::string& binary_dir = "") {
  cgen::CodegenOptions options;
  options.toolchain.cache_dir = fresh_dir(cache);
  options.toolchain.binary_dir = binary_dir;
  const auto prepared = cgen::CodegenBackend(options).prepare(program);
  EXPECT_FALSE(
      dynamic_cast<const cgen::CodegenPrepared&>(*prepared).cache_hit());
  prophet::estimator::EstimationOptions estimate;
  estimate.collect_trace = false;
  std::vector<std::uint64_t> bits;
  for (const int np : {1, 2, 4, 8}) {
    for (const int nodes : {1, 2}) {
      bits.push_back(std::bit_cast<std::uint64_t>(
          prepared->estimate(sp(np, nodes), estimate).predicted_time));
    }
  }
  return bits;
}

TEST(PrecompiledHeader, ColdCompileLoadsIt) {
  if (!fs::exists(kPch)) {
    GTEST_SKIP() << "the build made no " << kPch;
  }
  if (cgen::compiler_command() != "g++") {
    GTEST_SKIP() << "the .gch is GCC's; $CXX is " << cgen::compiler_command();
  }
  // -H prints every header the compile opens; a loaded precompiled
  // header is the line "! <path>", an unusable one "x <path>".
  const ScopedExtraFlags flags(
      cgen::extra_cxx_flags(PROPHET_EXTRA_CXX_FLAGS) + " -H");
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_dir("cgen-pch-used");
  const cgen::CompileOutcome outcome =
      cgen::compile_shared_object(cgen::emit_evaluator(*stencil2d()), options);
  ASSERT_FALSE(outcome.cache_hit);
  EXPECT_NE(outcome.toolchain_output.find("! " + kPch + "\n"),
            std::string::npos)
      << outcome.toolchain_output.substr(0, 2048);
  EXPECT_EQ(outcome.toolchain_output.find("x " + kPch), std::string::npos);
}

TEST(PrecompiledHeader, BuildTreeWithoutOneFallsBackBitIdentically) {
  // A build tree holding the module archives but no cgen_pch/.
  const std::string tree = fresh_dir("cgen-pch-absent-tree");
  const auto real = cgen::runtime_archives(PROPHET_BINARY_DIR);
  const auto linked = cgen::runtime_archives(tree);
  for (std::size_t i = 0; i < real.size(); ++i) {
    fs::create_directories(fs::path(linked[i]).parent_path());
    fs::create_symlink(real[i], linked[i]);
  }
  const auto program = stencil2d();
  const auto with_pch = predictions(program, "cgen-pch-reference");
  EXPECT_EQ(predictions(program, "cgen-pch-absent", tree), with_pch);

  // An unusable one (here: garbage) is ignored the same way.
  const fs::path planted = fs::path(tree) / "cgen_pch/prophet/cgen";
  fs::create_directories(planted);
  std::ofstream(planted / "runtime.hpp.gch", std::ios::binary)
      << "not a precompiled header\n";
  EXPECT_EQ(predictions(program, "cgen-pch-garbage", tree), with_pch);
}

}  // namespace
