// The batched expression VM: Compiled::eval_batch and its lane-by-lane
// fallback.  See compile.hpp for the bit-identity contract and
// batch_kernels.hpp for the SIMD kernel selection.
#include <cmath>
#include <cstring>
#include <vector>

#include "batch_kernels.hpp"
#include "prophet/expr/compile.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/obs/obs.hpp"

namespace prophet::expr {

namespace {

/// Scalar view of one lane of a batched call: forwards
/// UserFunctions::call to the batched table's call_lane so the fallback
/// reproduces the scalar VM exactly (same values, same exceptions, same
/// lane order).
class LaneFunctions final : public UserFunctions {
 public:
  LaneFunctions(const BatchUserFunctions* batch, std::size_t lane)
      : batch_(batch), lane_(lane) {}

  [[nodiscard]] double call(int id,
                            std::span<const double> args) const override {
    return batch_->call_lane(id, args, lane_);
  }

 private:
  const BatchUserFunctions* batch_;
  std::size_t lane_;
};

}  // namespace

// The fallback: evaluate every lane through the scalar VM against that
// lane's view of the frame (each bound slot's lane array offset by the
// lane index).  Errors therefore surface from the lowest erroring lane
// with the scalar VM's exact message — the reference semantics the
// batched fast path must (and does) match by re-running through here
// whenever any lane raises.
void Compiled::eval_batch_lanes(const BatchEvalContext& ctx,
                                double* out) const {
  std::vector<double*> frame(ctx.frame.size());
  std::vector<double> args(ctx.args.size());
  for (std::size_t lane = 0; lane < ctx.width; ++lane) {
    for (std::size_t slot = 0; slot < frame.size(); ++slot) {
      frame[slot] =
          ctx.frame[slot] != nullptr ? ctx.frame[slot] + lane : nullptr;
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      args[i] = ctx.args[i][lane];
    }
    const LaneFunctions lane_functions(ctx.functions, lane);
    EvalContext scalar;
    scalar.frame = frame;
    scalar.args = args;
    scalar.functions =
        ctx.functions != nullptr ? &lane_functions : nullptr;
    scalar.pid = ctx.pid;
    scalar.tid = ctx.tid;
    scalar.uid = ctx.uid;
    scalar.counters = ctx.counters;
    scalar.budget = ctx.budget;
    out[lane] = eval(scalar);
  }
}

void Compiled::eval_batch(const BatchEvalContext& ctx, double* out) const {
  const std::size_t width = ctx.width;
  if (width == 0) {
    return;
  }
  // Jumps make lanes diverge (short circuits, conditionals): the whole
  // program runs lane-by-lane.  One lane is a scalar eval either way.
  if (width == 1 || !branchless_) {
    eval_batch_lanes(ctx, out);
    return;
  }
  try {
    // Structure-of-arrays operand stack: stack value i occupies `width`
    // contiguous lanes at stack + i * width.  The compiler's max_stack_
    // bounds the footprint; typical programs fit the inline buffer.  A
    // program with calls gets one value more, past the deepest operand,
    // for the callee's result lanes (which must not alias its arguments).
    const std::size_t values = max_stack_ + (calls_user_ ? 1 : 0);
    constexpr std::size_t kInlineLanes = 256;
    double inline_stack[kInlineLanes];
    std::vector<double> heap_stack;
    double* stack = inline_stack;
    if (values * width > kInlineLanes) {
      heap_stack.resize(values * width);
      stack = heap_stack.data();
    }
    double* const call_out = stack + max_stack_ * width;
    // CallUser argument pointers: inline for the usual arities.
    constexpr std::size_t kInlineArgs = 8;
    const double* inline_args[kInlineArgs];
    std::vector<const double*> heap_args;
    const detail::BatchKernels& k = detail::batch_kernels();
    std::size_t sp = 0;
    const Instr* code = code_.data();
    const std::size_t n = code_.size();
    // Same counter discipline as the scalar VM, batched: instructions
    // count once per batched dispatch, evals advances by the lane count,
    // and the flush fires on throwing paths too.
    std::uint64_t dispatched = 0;
    struct FlushCounters {
      obs::ExprCounters* counters;
      const std::uint64_t* dispatched;
      std::size_t width;
      ~FlushCounters() {
        if (counters != nullptr) {
          counters->instructions += *dispatched;
          counters->evals += static_cast<std::uint64_t>(width);
          ++counters->batch_evals;
        }
      }
    } flush{ctx.counters, &dispatched, width};
    constexpr std::uint64_t kBudgetStride = 1024;
    for (std::size_t ip = 0; ip < n; ++ip) {
      ++dispatched;
      if (ctx.budget != nullptr &&
          (dispatched & (kBudgetStride - 1)) == 0) {
        ctx.budget->charge_vm_instructions(kBudgetStride, "expr-vm");
      }
      const Instr& in = code[ip];
      switch (in.op) {
        case Op::PushConst:
          k.fill(stack + sp * width, in.value, width);
          ++sp;
          break;
        case Op::LoadSlot: {
          const double* lanes = ctx.frame[static_cast<std::size_t>(in.a)];
          if (lanes == nullptr) {
            // Unbound is lane-uniform; the catch below re-runs
            // lane-by-lane so lane 0 raises with the scalar VM's
            // counter accounting.
            throw EvalError(strings_[in.b]);
          }
          std::memcpy(stack + sp * width, lanes, width * sizeof(double));
          ++sp;
          break;
        }
        case Op::LoadSlotOrPid: {
          const double* lanes = ctx.frame[static_cast<std::size_t>(in.a)];
          if (lanes != nullptr) {
            std::memcpy(stack + sp * width, lanes, width * sizeof(double));
          } else {
            k.fill(stack + sp * width, ctx.pid, width);
          }
          ++sp;
          break;
        }
        case Op::LoadSlotOrTid: {
          const double* lanes = ctx.frame[static_cast<std::size_t>(in.a)];
          if (lanes != nullptr) {
            std::memcpy(stack + sp * width, lanes, width * sizeof(double));
          } else {
            k.fill(stack + sp * width, ctx.tid, width);
          }
          ++sp;
          break;
        }
        case Op::LoadSlotOrUid: {
          const double* lanes = ctx.frame[static_cast<std::size_t>(in.a)];
          if (lanes != nullptr) {
            std::memcpy(stack + sp * width, lanes, width * sizeof(double));
          } else {
            k.fill(stack + sp * width, ctx.uid, width);
          }
          ++sp;
          break;
        }
        case Op::LoadArg: {
          const auto index = static_cast<std::size_t>(in.a);
          if (index < ctx.args.size()) {
            std::memcpy(stack + sp * width, ctx.args[index],
                        width * sizeof(double));
          } else {
            k.fill(stack + sp * width, 0.0, width);
          }
          ++sp;
          break;
        }
        case Op::LoadPid:
          k.fill(stack + sp * width, ctx.pid, width);
          ++sp;
          break;
        case Op::LoadTid:
          k.fill(stack + sp * width, ctx.tid, width);
          ++sp;
          break;
        case Op::LoadUid:
          k.fill(stack + sp * width, ctx.uid, width);
          ++sp;
          break;
        case Op::Neg:
          k.neg(stack + (sp - 1) * width, width);
          break;
        case Op::Not:
          k.logical_not(stack + (sp - 1) * width, width);
          break;
        case Op::Add:
          --sp;
          k.add(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Sub:
          --sp;
          k.sub(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Mul:
          --sp;
          k.mul(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Div:
          --sp;
          k.div(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Mod: {
          // fmod has no exact packed form — same std:: call per lane.
          --sp;
          double* a = stack + (sp - 1) * width;
          const double* b = stack + sp * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::fmod(a[l], b[l]);
          }
          break;
        }
        case Op::Lt:
          --sp;
          k.lt(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Le:
          --sp;
          k.le(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Gt:
          --sp;
          k.gt(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Ge:
          --sp;
          k.ge(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Eq:
          --sp;
          k.eq(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::Ne:
          --sp;
          k.ne(stack + (sp - 1) * width, stack + sp * width, width);
          break;
        case Op::ToBool:
          k.to_bool(stack + (sp - 1) * width, width);
          break;
        case Op::Jump:
        case Op::JumpIfFalse:
        case Op::JumpIfTrue:
          // branchless_ excluded jumps above.
          break;
        case Op::CallUser: {
          if (ctx.functions == nullptr) {
            throw EvalError("unknown function (no user-function table bound)");
          }
          const std::size_t argc = in.b;
          const double** call_args = inline_args;
          if (argc > kInlineArgs) {
            heap_args.resize(argc);
            call_args = heap_args.data();
          }
          sp -= argc;
          for (std::size_t i = 0; i < argc; ++i) {
            call_args[i] = stack + (sp + i) * width;
          }
          ctx.functions->call_batch(in.a, {call_args, argc}, call_out, width);
          std::memcpy(stack + sp * width, call_out, width * sizeof(double));
          ++sp;
          break;
        }
        case Op::Throw:
          // Lane-uniform by construction; re-run via the catch below for
          // scalar-exact lazy-error accounting.
          throw EvalError(strings_[static_cast<std::size_t>(in.a)]);
        case Op::Abs: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::fabs(a[l]);
          }
          break;
        }
        case Op::Ceil: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::ceil(a[l]);
          }
          break;
        }
        case Op::Cos: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::cos(a[l]);
          }
          break;
        }
        case Op::Exp: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::exp(a[l]);
          }
          break;
        }
        case Op::Floor: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::floor(a[l]);
          }
          break;
        }
        case Op::Log: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::log(a[l]);
          }
          break;
        }
        case Op::Log10: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::log10(a[l]);
          }
          break;
        }
        case Op::Log2: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::log2(a[l]);
          }
          break;
        }
        case Op::Max: {
          // _mm256_max_pd's NaN semantics differ from std::fmax: stay
          // on the scalar call per lane.
          --sp;
          double* a = stack + (sp - 1) * width;
          const double* b = stack + sp * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::fmax(a[l], b[l]);
          }
          break;
        }
        case Op::Min: {
          --sp;
          double* a = stack + (sp - 1) * width;
          const double* b = stack + sp * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::fmin(a[l], b[l]);
          }
          break;
        }
        case Op::Pow: {
          --sp;
          double* a = stack + (sp - 1) * width;
          const double* b = stack + sp * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::pow(a[l], b[l]);
          }
          break;
        }
        case Op::Round: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::round(a[l]);
          }
          break;
        }
        case Op::Sin: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::sin(a[l]);
          }
          break;
        }
        case Op::Sqrt: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::sqrt(a[l]);
          }
          break;
        }
        case Op::Tan: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::tan(a[l]);
          }
          break;
        }
        case Op::Tanh: {
          double* a = stack + (sp - 1) * width;
          for (std::size_t l = 0; l < width; ++l) {
            a[l] = std::tanh(a[l]);
          }
          break;
        }
      }
    }
    if (ctx.budget != nullptr && (dispatched & (kBudgetStride - 1)) != 0) {
      ctx.budget->charge_vm_instructions(dispatched & (kBudgetStride - 1),
                                         "expr-vm");
    }
    std::memcpy(out, stack + (sp - 1) * width, width * sizeof(double));
    return;
  } catch (const EvalError&) {
    // Some lane raised mid-program (lazy error, user-function failure).
    // Programs are pure, so re-running lane-by-lane reproduces every
    // completed lane's value and surfaces the scalar loop's error: the
    // lowest erroring lane, exact message, scalar counter accounting.
    // Budget exceptions (guard::GuardError) are not caught — a tripped
    // budget must propagate, not retry.
  }
  eval_batch_lanes(ctx, out);
}

}  // namespace prophet::expr
