// The evaluator emitter: generated translation units are deterministic
// (the compile cache keys on the source bytes), self-describing (the
// three C ABI entry points, visibility-exported), and carry the guard
// contract (generated loops charge the budget), the bit-identity
// contract (float constants as hexfloat literals), and start with the
// runtime header so its precompiled copy applies.
#include <gtest/gtest.h>

#include <string>

#include "prophet/cgen/abi.hpp"
#include "prophet/cgen/emitter.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/builtins.hpp"

namespace cgen = prophet::cgen;

namespace {

std::string emit(const prophet::uml::Model& model) {
  return cgen::emit_evaluator(*prophet::lower::lower(model));
}

TEST(Emitter, EmissionIsDeterministic) {
  // Byte-identical source for repeated lowerings of the same model —
  // the property the content-addressed compile cache stands on.
  const std::string first = emit(prophet::models::sample_model());
  const std::string second = emit(prophet::models::sample_model());
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Emitter, ExportsTheCAbiEntryPoints) {
  const std::string source = emit(prophet::models::sample_model());
  // The unit compiles under -fvisibility=hidden: each entry point must
  // explicitly opt back into the dynamic symbol table.
  EXPECT_NE(source.find("prophet_cgen_abi_version"), std::string::npos);
  EXPECT_NE(source.find("prophet_cgen_run"), std::string::npos);
  EXPECT_NE(source.find("prophet_cgen_free"), std::string::npos);
  EXPECT_NE(source.find("visibility(\"default\")"), std::string::npos);
  // And the version it reports is this build's.
  EXPECT_NE(source.find(std::to_string(cgen::kCgenAbiVersion)),
            std::string::npos);
}

TEST(Emitter, RuntimeHeaderIsTheFirstLineOfCode) {
  // GCC applies the build's precompiled runtime header only to the first
  // include of a unit, so only comments may come before it, and it is
  // the unit's only include.
  const std::string source = emit(prophet::models::sample_model());
  std::size_t line = 0;
  while (source.compare(line, 2, "//") == 0) {
    line = source.find('\n', line) + 1;
  }
  const std::string include = "#include \"prophet/cgen/runtime.hpp\"\n";
  EXPECT_EQ(source.substr(line, include.size()), include)
      << source.substr(0, 512);
  EXPECT_EQ(source.find("#include", line + 1), std::string::npos);
}

TEST(Emitter, FloatConstantsAreHexfloat) {
  // 1e-8 has no exact decimal representation: round-tripping it through
  // %g would break bit-identity with the VM, so constants are emitted
  // as hexfloat literals.
  const std::string source =
      emit(prophet::models::kernel6_model(64, 16, 1e-8));
  EXPECT_NE(source.find("0x1."), std::string::npos);
}

TEST(Emitter, GeneratedLoopsChargeTheBudget) {
  // The spin model is one big loop; its evaluator must carry the
  // cgen-loop charge site so runaway models trip limits, not hang.
  const std::string source = emit(prophet::models::spin_model(100));
  EXPECT_NE(source.find("cgen-loop"), std::string::npos);
  EXPECT_NE(source.find("charge_loop_trips"), std::string::npos);
}

TEST(Emitter, DistinctModelsEmitDistinctEvaluators) {
  EXPECT_NE(emit(prophet::models::kernel6_model(64, 16, 1e-8)),
            emit(prophet::models::kernel6_model(128, 16, 1e-8)));
}

}  // namespace
