#include "vgpu/interp.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "vgpu/bytecode.hpp"
#include "vgpu/fpu.hpp"
#include "vmath/core/kernels.hpp"

namespace gpudiff::vgpu {

namespace {

using ir::Arena;
using ir::Expr;
using ir::ExprId;
using ir::ExprKind;
using ir::Program;
using ir::Stmt;
using ir::StmtId;
using ir::StmtKind;

template <typename T>
class Interp {
 public:
  Interp(const opt::Executable& exe, const KernelArgs& args, RunResult& out,
         const StmtObserver* observer = nullptr)
      : exe_(exe), arena_(exe.program.arena()), args_(args), out_(out),
        observer_(observer), fpu_(exe.env, out.flags),
        cycles_(cycle_model(exe.program.precision(), exe.env, exe.mathlib)) {
    const auto& params = exe_.program.params();
    if (args_.fp.size() != params.size() || args_.ints.size() != params.size())
      throw std::runtime_error("run_kernel: argument/parameter count mismatch");
    temps_.assign(static_cast<std::size_t>(exe_.program.max_temp_id()) + 1, T(0));
    arrays_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      if (params[i].kind == ir::ParamKind::Array)
        arrays_[i].assign(ir::kArrayExtent, static_cast<T>(args_.fp[i]));
    loop_vars_.assign(kMaxLoopDepth, 0);
  }

  void run() {
    comp_ = static_cast<T>(args_.fp.at(0));
    exec_body(std::span<const StmtId>(exe_.program.body()));
    out_.value = static_cast<double>(comp_);
    out_.value_bits = static_cast<std::uint64_t>(fp::to_bits(comp_));
  }

 private:
  void exec_body(std::span<const StmtId> body) {
    for (StmtId id : body) exec(id);
  }

  void exec(StmtId sid) {
    const Stmt& s = arena_[sid];
    switch (s.kind) {
      case StmtKind::DeclTemp: {
        const T v = eval(s.a);
        if (observer_) (*observer_)(sid, static_cast<double>(v));
        temps_.at(static_cast<std::size_t>(s.index)) = v;
        break;
      }
      case StmtKind::AssignComp: {
        const T v = eval(s.a);
        if (observer_) (*observer_)(sid, static_cast<double>(v));
        switch (s.assign_op) {
          case ir::AssignOp::Set: comp_ = v; break;
          case ir::AssignOp::Add: comp_ = fpu_.add(comp_, v); break;
          case ir::AssignOp::Sub: comp_ = fpu_.sub(comp_, v); break;
          case ir::AssignOp::Mul: comp_ = fpu_.mul(comp_, v); break;
          case ir::AssignOp::Div: comp_ = fpu_.div(comp_, v); break;
        }
        ++out_.op_count;
        out_.cycle_count +=
            s.assign_op == ir::AssignOp::Div ? cycles_.divide : 1;
        break;
      }
      case StmtKind::StoreArray: {
        auto& arr = arrays_.at(static_cast<std::size_t>(s.index));
        if (arr.empty())
          throw std::runtime_error("run_kernel: store to non-array parameter");
        const int idx = eval_index(s.a);
        const T v = eval(s.b);
        if (observer_) (*observer_)(sid, static_cast<double>(v));
        arr[static_cast<std::size_t>(idx)] = v;
        break;
      }
      case StmtKind::For: {
        if (s.index < 0 || s.index >= kMaxLoopDepth)
          throw std::runtime_error("run_kernel: loop nest too deep");
        int bound = args_.ints.at(static_cast<std::size_t>(s.bound_param));
        if (bound > kMaxTripCount) bound = kMaxTripCount;
        for (int i = 0; i < bound; ++i) {
          loop_vars_[static_cast<std::size_t>(s.index)] = i;
          exec_body(arena_.body(s));
        }
        break;
      }
      case StmtKind::If:
        if (eval_bool(s.a)) exec_body(arena_.body(s));
        break;
    }
  }

  T eval(ExprId id) {
    const Expr& e = arena_[id];
    switch (e.kind) {
      case ExprKind::Literal:
        return static_cast<T>(e.lit_value);
      case ExprKind::ParamRef: {
        // Parameter 0 is `comp`: Varity kernels use it as the mutable
        // accumulator, so reads observe the current value, not the argument.
        const auto& prm = exe_.program.params().at(static_cast<std::size_t>(e.index));
        if (prm.kind == ir::ParamKind::Comp) return comp_;
        return static_cast<T>(args_.fp.at(static_cast<std::size_t>(e.index)));
      }
      case ExprKind::IntParamRef:
        return static_cast<T>(args_.ints.at(static_cast<std::size_t>(e.index)));
      case ExprKind::ArrayRef: {
        const auto& arr = arrays_.at(static_cast<std::size_t>(e.index));
        if (arr.empty())
          throw std::runtime_error("run_kernel: load from non-array parameter");
        return arr[static_cast<std::size_t>(eval_index(e.kid[0]))];
      }
      case ExprKind::LoopVarRef:
        return static_cast<T>(loop_vars_.at(static_cast<std::size_t>(e.index)));
      case ExprKind::TempRef:
        return temps_.at(static_cast<std::size_t>(e.index));
      case ExprKind::Neg:
        return fpu_.neg(eval(e.kid[0]));
      case ExprKind::Bin: {
        const T a = eval(e.kid[0]);
        const T b = eval(e.kid[1]);
        ++out_.op_count;
        out_.cycle_count +=
            e.bin_op == ir::BinOp::Div ? cycles_.divide : 1;
        switch (e.bin_op) {
          case ir::BinOp::Add: return fpu_.add(a, b);
          case ir::BinOp::Sub: return fpu_.sub(a, b);
          case ir::BinOp::Mul: return fpu_.mul(a, b);
          case ir::BinOp::Div: return fpu_.div(a, b);
        }
        return T(0);
      }
      case ExprKind::Fma: {
        const T a = eval(e.kid[0]);
        const T b = eval(e.kid[1]);
        const T c = eval(e.kid[2]);
        ++out_.op_count;
        ++out_.cycle_count;
        return fpu_.fma_op(a, b, c);
      }
      case ExprKind::Call:
        return eval_call(e);
      case ExprKind::BoolToFp:
        return eval_bool(e.kid[0]) ? T(1) : T(0);
      case ExprKind::Cmp:
      case ExprKind::BoolBin:
      case ExprKind::BoolNot:
        // Boolean expression in value position: C semantics (0/1).
        return eval_bool(id) ? T(1) : T(0);
    }
    throw std::runtime_error("run_kernel: bad expression kind");
  }

  T eval_call(const Expr& e) {
    const T a = eval(e.kid[0]);
    const T b = e.n_kids > 1 ? eval(e.kid[1]) : T(0);
    ++out_.op_count;
    out_.cycle_count += cycles_.call;
    // -ffinite-math-only simplification: fmin/fmax lower to a bare compare-
    // select, losing IEEE NaN semantics (hipcc-sim fast math).
    if (exe_.env.naive_minmax &&
        (e.fn == ir::MathFn::Fmin || e.fn == ir::MathFn::Fmax)) {
      if (e.fn == ir::MathFn::Fmin) return a < b ? a : b;
      return a > b ? a : b;
    }
    T r;
    if constexpr (sizeof(T) == 4) {
      r = exe_.mathlib->call32(e.fn, a, b);
    } else {
      r = exe_.mathlib->call64(e.fn, a, b);
    }
    const bool non_nan = !fp::is_nan_bits(a) && !fp::is_nan_bits(b);
    const bool finite = fp::is_finite_bits(a) && fp::is_finite_bits(b);
    fpu_.note_call_result(r, non_nan, finite);
    return fp::apply_ftz(r, exe_.env, &out_.flags);
  }

  bool eval_bool(ExprId id) {
    const Expr& e = arena_[id];
    switch (e.kind) {
      case ExprKind::Cmp: {
        const T a = eval(e.kid[0]);
        const T b = eval(e.kid[1]);
        ++out_.op_count;
        ++out_.cycle_count;
        // IEEE comparison semantics: any NaN operand makes all ordered
        // comparisons false and != true.
        switch (e.cmp_op) {
          case ir::CmpOp::Eq: return a == b;
          case ir::CmpOp::Ne: return a != b;
          case ir::CmpOp::Lt: return a < b;
          case ir::CmpOp::Le: return a <= b;
          case ir::CmpOp::Gt: return a > b;
          case ir::CmpOp::Ge: return a >= b;
        }
        return false;
      }
      case ExprKind::BoolBin:
        if (e.bool_op == ir::BoolOp::And)
          return eval_bool(e.kid[0]) && eval_bool(e.kid[1]);
        return eval_bool(e.kid[0]) || eval_bool(e.kid[1]);
      case ExprKind::BoolNot:
        return !eval_bool(e.kid[0]);
      default:
        // FP expression in boolean position (C truthiness).
        return eval(id) != T(0);
    }
  }

  /// Array subscripts: evaluated as integers, clamped into the extent
  /// (generated programs index with in-range loop variables; the clamp
  /// protects against hand-written IR).
  int eval_index(ExprId id) {
    const Expr& e = arena_[id];
    long long idx;
    if (e.kind == ExprKind::LoopVarRef) {
      idx = loop_vars_.at(static_cast<std::size_t>(e.index));
    } else if (e.kind == ExprKind::Literal) {
      idx = fp_to_subscript(e.lit_value);
    } else if (e.kind == ExprKind::IntParamRef) {
      idx = args_.ints.at(static_cast<std::size_t>(e.index));
    } else {
      // Casting NaN or an out-of-range value straight to integer is UB;
      // fp_to_subscript resolves those cases at the bit level first.
      idx = fp_to_subscript(static_cast<double>(eval(id)));
    }
    return clamp_subscript(idx);
  }

  const opt::Executable& exe_;
  const Arena& arena_;
  const KernelArgs& args_;
  RunResult& out_;
  const StmtObserver* observer_;
  Fpu<T> fpu_;
  const CycleModel cycles_;
  T comp_{};
  std::vector<T> temps_;
  std::vector<std::vector<T>> arrays_;
  std::vector<int> loop_vars_;
};

RunResult run_tree(const opt::Executable& exe, const KernelArgs& args,
                   const StmtObserver* observer) {
  RunResult out;
  if (exe.program.precision() == ir::Precision::FP32)
    Interp<float>(exe, args, out, observer).run();
  else
    Interp<double>(exe, args, out, observer).run();
  return out;
}

std::atomic<ExecBackend> g_backend{[] {
  const char* env = std::getenv("GPUDIFF_EXEC");
  return env && std::strcmp(env, "tree") == 0 ? ExecBackend::TreeWalk
                                              : ExecBackend::Bytecode;
}()};

}  // namespace

CycleModel cycle_model(ir::Precision precision, const fp::FpEnv& env,
                       const vmath::MathLib* mathlib) noexcept {
  CycleModel model;
  if (precision == ir::Precision::FP32) {
    model.divide = env.div32 == fp::Div32Mode::IEEE ? 8 : 2;
    if (mathlib != nullptr) model.call = mathlib->fp32_call_cycles();
  }
  return model;
}

ExecBackend exec_backend() noexcept {
  return g_backend.load(std::memory_order_relaxed);
}

void set_exec_backend(ExecBackend backend) noexcept {
  g_backend.store(backend, std::memory_order_relaxed);
}

RunResult run_kernel_tree(const opt::Executable& exe, const KernelArgs& args) {
  return run_tree(exe, args, nullptr);
}

RunResult run_kernel_tree(const opt::Executable& exe, const KernelArgs& args,
                          const StmtObserver& observer) {
  return run_tree(exe, args, &observer);
}

RunResult run_kernel(const opt::Executable& exe, const KernelArgs& args) {
  if (exec_backend() == ExecBackend::TreeWalk) return run_kernel_tree(exe, args);
  thread_local ExecContext ctx;
  RunResult out;
  exe.bytecode().run_batch({&args, 1}, ctx, &out);
  return out;
}

void run_kernel_batch(const opt::Executable& exe,
                      std::span<const KernelArgs> inputs, RunResult* out,
                      ExecContext& ctx) {
  // The tree-walk oracle always executes: it is what the VM is checked
  // against, so it neither reads nor feeds the reuse table.
  if (exec_backend() == ExecBackend::TreeWalk) {
    for (std::size_t i = 0; i < inputs.size(); ++i)
      out[i] = run_kernel_tree(exe, inputs[i]);
    return;
  }
  const BytecodeProgram& program = exe.bytecode();
  if (ctx.reuse.lookup(program, inputs, out)) return;
  program.run_batch(inputs, ctx, out);
  ctx.reuse.record(exe.bytecode_cache, out);
}

void run_kernel_batch(const opt::Executable& exe,
                      std::span<const KernelArgs> inputs, RunResult* out) {
  thread_local ExecContext ctx;
  run_kernel_batch(exe, inputs, out, ctx);
}

}  // namespace gpudiff::vgpu
