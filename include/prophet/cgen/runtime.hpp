// Everything a generated evaluator compiles against, in one header.
//
// emit_evaluator() writes `#include "prophet/cgen/runtime.hpp"` as the
// first line of code of every evaluator it emits, and nothing else
// before it but comments.  That makes this header eligible for GCC's
// precompiled-header lookup: the build precompiles it once, with the
// exact flags cgen compiles evaluators with, into
// <build>/cgen_pch/prophet/cgen/runtime.hpp.gch, and the cgen toolchain
// searches that directory first.  When the precompiled copy does not
// match (another compiler, other flags, or no copy at all), GCC ignores
// it and parses this file instead.  A mismatch costs speed, never
// correctness.
//
// Include guards rather than `#pragma once`: GCC warns about the pragma
// in the main file, which this header is when it is precompiled.
#ifndef PROPHET_CGEN_RUNTIME_HPP
#define PROPHET_CGEN_RUNTIME_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "prophet/cgen/abi.hpp"
#include "prophet/estimator/estimator.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/machine/machine.hpp"
#include "prophet/sim/engine.hpp"
#include "prophet/workload/runtime.hpp"

#endif  // PROPHET_CGEN_RUNTIME_HPP
