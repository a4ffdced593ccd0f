#include "vgpu/bytecode.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "vgpu/fpu.hpp"

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

}  // namespace

/// Lowers one Program into a BytecodeProgram.  Registers [0, n_temps) are
/// pinned to IR temporaries; expression scratch is stack-allocated above
/// them with a high-water mark that sizes the register file.
class BytecodeCompiler {
 public:
  BytecodeCompiler(const Program& program, BytecodeProgram& out)
      : program_(program), arena_(program.arena()), out_(out) {
    scratch_base_ = program.max_temp_id() + 1;
    out_.num_temps_ = scratch_base_;
    out_.num_regs_ = scratch_base_;
    const auto& params = program.params();
    out_.num_params_ = static_cast<int>(params.size());
    array_slot_.assign(params.size(), -1);
    // Arrays the program stores to get backing storage; read-only arrays
    // keep their broadcast argument value, so loads lower to scalar loads.
    mark_stores(std::span<const StmtId>(program.body()));
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (params[i].kind == ir::ParamKind::Array && stored_[i]) {
        array_slot_[i] = static_cast<int>(out_.array_params_.size());
        out_.array_params_.push_back(static_cast<int>(i));
      }
    }
  }

  void compile() {
    compile_body(std::span<const StmtId>(program_.body()));
    emit({BcOp::Halt});
  }

 private:
  // --- emission helpers -------------------------------------------------
  int emit(BcInsn insn) {
    out_.code_.push_back(insn);
    return static_cast<int>(out_.code_.size()) - 1;
  }
  int here() const noexcept { return static_cast<int>(out_.code_.size()); }
  void patch(int insn_index, int target) {
    out_.code_[static_cast<std::size_t>(insn_index)].dst = target;
  }

  int alloc(int& next) {
    const int r = next++;
    out_.num_regs_ = std::max(out_.num_regs_, next);
    return r;
  }

  void trap(TrapKind kind) {
    BcInsn insn{BcOp::Trap};
    insn.aux = static_cast<std::uint8_t>(kind);
    emit(insn);
  }
  /// Expression-position trap: the dummy register is never read because
  /// the trap throws before any consumer executes.
  int trap_expr(TrapKind kind, int& next) {
    trap(kind);
    return alloc(next);
  }

  int const_index(double v) {
    // The pool is tiny; linear probing beats a map at this size.  Constants
    // are matched by bits so -0.0 and 0.0 stay distinct.
    const auto bits = fp::to_bits(v);
    for (std::size_t i = 0; i < out_.consts64_.size(); ++i)
      if (fp::to_bits(out_.consts64_[i]) == bits) return static_cast<int>(i);
    out_.consts64_.push_back(v);
    out_.consts32_.push_back(static_cast<float>(v));
    return static_cast<int>(out_.consts64_.size()) - 1;
  }

  void mark_stores(std::span<const StmtId> body) {
    if (stored_.empty()) stored_.assign(program_.params().size(), false);
    for (StmtId id : body) {
      const Stmt& s = arena_[id];
      if (s.kind == StmtKind::StoreArray && s.index >= 0 &&
          static_cast<std::size_t>(s.index) < stored_.size())
        stored_[static_cast<std::size_t>(s.index)] = true;
      if (s.kind == StmtKind::For || s.kind == StmtKind::If)
        mark_stores(arena_.body(s));
    }
  }

  // --- statements -------------------------------------------------------
  void compile_body(std::span<const StmtId> body) {
    for (StmtId id : body) compile_stmt(arena_[id]);
  }

  void compile_stmt(const Stmt& s) {
    int next = scratch_base_;
    switch (s.kind) {
      case StmtKind::DeclTemp: {
        const int temp_reg = s.index;
        if (temp_reg < 0 || temp_reg >= scratch_base_) {
          trap(TrapKind::IndexOutOfRange);
          break;
        }
        const int r = compile_expr(s.a, next);
        if (r != temp_reg)
          emit({BcOp::Mov, 0, 0, 0, temp_reg, r});
        break;
      }
      case StmtKind::AssignComp: {
        const int r = compile_expr(s.a, next);
        BcInsn insn{BcOp::AssignComp};
        insn.aux = static_cast<std::uint8_t>(s.assign_op);
        insn.a = r;
        emit(insn);
        break;
      }
      case StmtKind::StoreArray: {
        const auto& params = program_.params();
        if (s.index < 0 || static_cast<std::size_t>(s.index) >= params.size()) {
          trap(TrapKind::IndexOutOfRange);
          break;
        }
        if (params[static_cast<std::size_t>(s.index)].kind != ir::ParamKind::Array) {
          trap(TrapKind::NonArrayStore);
          break;
        }
        IndexMode mode;
        int sub = 0;
        compile_subscript(s.a, next, mode, sub);
        const int rv = compile_expr(s.b, next);
        BcInsn insn{BcOp::StoreArr};
        insn.aux = static_cast<std::uint8_t>(mode);
        insn.u16 = static_cast<std::uint16_t>(array_slot_[static_cast<std::size_t>(s.index)]);
        insn.a = sub;
        insn.b = rv;
        emit(insn);
        break;
      }
      case StmtKind::For: {
        if (s.index < 0 || s.index >= kMaxLoopDepth) {
          trap(TrapKind::LoopTooDeep);
          break;
        }
        if (s.bound_param < 0 ||
            static_cast<std::size_t>(s.bound_param) >= program_.params().size()) {
          trap(TrapKind::IndexOutOfRange);
          break;
        }
        BcInsn init{BcOp::ForInit};
        init.u16 = static_cast<std::uint16_t>(s.index);
        init.a = s.bound_param;
        const int init_idx = emit(init);
        const int body_start = here();
        compile_body(arena_.body(s));
        BcInsn step{BcOp::ForNext};
        step.u16 = static_cast<std::uint16_t>(s.index);
        step.dst = body_start;
        emit(step);
        patch(init_idx, here());
        break;
      }
      case StmtKind::If: {
        std::vector<int> to_end;
        compile_cond(s.a, next, /*sense=*/false, to_end);
        compile_body(arena_.body(s));
        for (int idx : to_end) patch(idx, here());
        break;
      }
    }
  }

  // --- expressions ------------------------------------------------------
  /// Compile `e`, returning the register holding its value.  Leaves that
  /// already live in a register (temporaries) are returned in place.
  int compile_expr(ExprId id, int& next) {
    const Expr& e = arena_[id];
    switch (e.kind) {
      case ExprKind::Literal: {
        const int dst = alloc(next);
        emit({BcOp::LoadConst, 0, 0, 0, dst, const_index(e.lit_value)});
        return dst;
      }
      case ExprKind::ParamRef: {
        const auto& params = program_.params();
        if (e.index < 0 || static_cast<std::size_t>(e.index) >= params.size())
          return trap_expr(TrapKind::IndexOutOfRange, next);
        const int dst = alloc(next);
        // Parameter 0 is `comp`: Varity kernels use it as the mutable
        // accumulator, so reads observe the current value, not the argument.
        if (params[static_cast<std::size_t>(e.index)].kind == ir::ParamKind::Comp)
          emit({BcOp::LoadComp, 0, 0, 0, dst});
        else
          emit({BcOp::LoadParam, 0, 0, 0, dst, e.index});
        return dst;
      }
      case ExprKind::IntParamRef: {
        if (bad_param(e.index)) return trap_expr(TrapKind::IndexOutOfRange, next);
        const int dst = alloc(next);
        emit({BcOp::LoadIntParam, 0, 0, 0, dst, e.index});
        return dst;
      }
      case ExprKind::ArrayRef: {
        const auto& params = program_.params();
        if (e.index < 0 || static_cast<std::size_t>(e.index) >= params.size())
          return trap_expr(TrapKind::IndexOutOfRange, next);
        if (params[static_cast<std::size_t>(e.index)].kind != ir::ParamKind::Array)
          return trap_expr(TrapKind::NonArrayLoad, next);
        const int mark = next;
        IndexMode mode;
        int sub = 0;
        compile_subscript(e.kid[0], next, mode, sub);
        next = mark;
        const int dst = alloc(next);
        const int slot = array_slot_[static_cast<std::size_t>(e.index)];
        if (slot < 0) {
          // Never stored to: every element equals the broadcast argument.
          // The subscript (already compiled, for its op/flag effects) is
          // irrelevant to the loaded value.
          emit({BcOp::LoadParam, 0, 0, 0, dst, e.index});
        } else {
          BcInsn insn{BcOp::LoadArr};
          insn.aux = static_cast<std::uint8_t>(mode);
          insn.u16 = static_cast<std::uint16_t>(slot);
          insn.dst = dst;
          insn.a = sub;
          emit(insn);
        }
        return dst;
      }
      case ExprKind::LoopVarRef: {
        if (e.index < 0 || e.index >= kMaxLoopDepth)
          return trap_expr(TrapKind::IndexOutOfRange, next);
        const int dst = alloc(next);
        emit({BcOp::LoadLoopVar, 0, 0, 0, dst, e.index});
        return dst;
      }
      case ExprKind::TempRef: {
        if (e.index < 0 || e.index >= scratch_base_)
          return trap_expr(TrapKind::IndexOutOfRange, next);
        return e.index;
      }
      case ExprKind::Neg: {
        const int mark = next;
        const int r = compile_expr(e.kid[0], next);
        next = mark;
        const int dst = alloc(next);
        emit({BcOp::Neg, 0, 0, 0, dst, r});
        return dst;
      }
      case ExprKind::Bin: {
        const int mark = next;
        const int ra = compile_expr(e.kid[0], next);
        const int rb = compile_expr(e.kid[1], next);
        next = mark;
        const int dst = alloc(next);
        BcOp op = BcOp::Add;
        switch (e.bin_op) {
          case ir::BinOp::Add: op = BcOp::Add; break;
          case ir::BinOp::Sub: op = BcOp::Sub; break;
          case ir::BinOp::Mul: op = BcOp::Mul; break;
          case ir::BinOp::Div: op = BcOp::Div; break;
        }
        emit({op, 0, 0, 0, dst, ra, rb});
        return dst;
      }
      case ExprKind::Fma: {
        const int mark = next;
        const int ra = compile_expr(e.kid[0], next);
        const int rb = compile_expr(e.kid[1], next);
        const int rc = compile_expr(e.kid[2], next);
        next = mark;
        const int dst = alloc(next);
        emit({BcOp::Fma, 0, 0, 0, dst, ra, rb, rc});
        return dst;
      }
      case ExprKind::Call: {
        const int mark = next;
        const int ra = compile_expr(e.kid[0], next);
        const int rb = e.n_kids > 1 ? compile_expr(e.kid[1], next) : -1;
        next = mark;
        const int dst = alloc(next);
        // -ffinite-math-only fmin/fmax lower to a bare compare-select at
        // bytecode-compile time (hipcc-sim fast math).
        if (env_ && env_->naive_minmax &&
            (e.fn == ir::MathFn::Fmin || e.fn == ir::MathFn::Fmax)) {
          const BcOp op = e.fn == ir::MathFn::Fmin ? BcOp::MinNaive : BcOp::MaxNaive;
          emit({op, 0, 0, 0, dst, ra, rb});
          return dst;
        }
        BcInsn insn{rb >= 0 ? BcOp::Call2 : BcOp::Call1};
        insn.u16 = static_cast<std::uint16_t>(e.fn);
        insn.dst = dst;
        insn.a = ra;
        insn.b = rb;
        emit(insn);
        return dst;
      }
      case ExprKind::Cmp:
      case ExprKind::BoolBin:
      case ExprKind::BoolNot: {
        // Boolean expression in value position: C semantics (0/1).
        return compile_bool_value(id, next);
      }
      case ExprKind::BoolToFp:
        return compile_bool_value(e.kid[0], next);
    }
    throw std::runtime_error("run_kernel: bad expression kind");
  }

  /// Materialize a boolean expression as 1.0/0.0 in a register.
  int compile_bool_value(ExprId id, int& next) {
    const int mark = next;
    std::vector<int> to_false;
    compile_cond(id, next, /*sense=*/false, to_false);
    next = mark;
    const int dst = alloc(next);
    emit({BcOp::LoadConst, 0, 0, 0, dst, const_index(1.0)});
    const int skip = emit({BcOp::Jump});
    for (int idx : to_false) patch(idx, here());
    emit({BcOp::LoadConst, 0, 0, 0, dst, const_index(0.0)});
    patch(skip, here());
    return dst;
  }

  /// Emit code that jumps (to targets returned in `fixups`, patched by the
  /// caller) when the boolean value of `e` equals `sense`, and falls
  /// through otherwise.  &&/|| short-circuit exactly as the tree-walk
  /// interpreter does, so skipped operands contribute no ops or flags.
  void compile_cond(ExprId id, int& next, bool sense, std::vector<int>& fixups) {
    const Expr& e = arena_[id];
    switch (e.kind) {
      case ExprKind::Cmp: {
        const int mark = next;
        const int ra = compile_expr(e.kid[0], next);
        const int rb = compile_expr(e.kid[1], next);
        next = mark;
        BcInsn insn{BcOp::CmpJump};
        insn.aux = static_cast<std::uint8_t>(e.cmp_op);
        insn.sense = sense ? 1 : 0;
        insn.a = ra;
        insn.b = rb;
        fixups.push_back(emit(insn));
        return;
      }
      case ExprKind::BoolBin: {
        const bool is_and = e.bool_op == ir::BoolOp::And;
        // De Morgan symmetry: AND jumping-on-false and OR jumping-on-true
        // both propagate directly to the kids; the mixed cases route the
        // first kid to the fall-through point past the second.
        if (is_and != sense) {  // (AND, jump-if-false) or (OR, jump-if-true)
          compile_cond(e.kid[0], next, sense, fixups);
          compile_cond(e.kid[1], next, sense, fixups);
        } else {
          std::vector<int> past;
          compile_cond(e.kid[0], next, !sense, past);
          compile_cond(e.kid[1], next, sense, fixups);
          for (int idx : past) patch(idx, here());
        }
        return;
      }
      case ExprKind::BoolNot:
        compile_cond(e.kid[0], next, !sense, fixups);
        return;
      default: {
        // FP expression in boolean position (C truthiness, not counted).
        const int mark = next;
        const int r = compile_expr(id, next);
        next = mark;
        BcInsn insn{BcOp::TruthJump};
        insn.sense = sense ? 1 : 0;
        insn.a = r;
        fixups.push_back(emit(insn));
        return;
      }
    }
  }

  /// Array subscripts keep the tree-walk fast paths: loop variables,
  /// literals and integer parameters resolve without touching the register
  /// file; anything else evaluates as a floating expression (with its op
  /// accounting) and converts via fp_to_subscript.
  void compile_subscript(ExprId id, int& next, IndexMode& mode, int& operand) {
    const Expr& e = arena_[id];
    if (e.kind == ExprKind::LoopVarRef) {
      if (e.index < 0 || e.index >= kMaxLoopDepth) {
        mode = IndexMode::Reg;
        operand = trap_expr(TrapKind::IndexOutOfRange, next);
        return;
      }
      mode = IndexMode::LoopVar;
      operand = e.index;
    } else if (e.kind == ExprKind::Literal) {
      mode = IndexMode::Const;
      operand = clamp_subscript(fp_to_subscript(e.lit_value));
    } else if (e.kind == ExprKind::IntParamRef) {
      if (bad_param(e.index)) {
        mode = IndexMode::Reg;
        operand = trap_expr(TrapKind::IndexOutOfRange, next);
        return;
      }
      mode = IndexMode::IntParam;
      operand = e.index;
    } else {
      mode = IndexMode::Reg;
      operand = compile_expr(id, next);
    }
  }

  bool bad_param(int index) const {
    return index < 0 ||
           static_cast<std::size_t>(index) >= program_.params().size();
  }

 public:
  void set_env(const fp::FpEnv* env) noexcept { env_ = env; }

 private:
  const Program& program_;
  const Arena& arena_;
  BytecodeProgram& out_;
  const fp::FpEnv* env_ = nullptr;
  std::vector<bool> stored_;
  std::vector<int> array_slot_;
  int scratch_base_ = 0;
};

BytecodeProgram compile_bytecode(const ir::Program& program, const fp::FpEnv& env,
                                 const vmath::MathLib* mathlib) {
  BytecodeProgram out;
  out.precision_ = program.precision();
  out.env_ = env;
  out.mathlib_ = mathlib;

  // Issue-cycle model, mirroring the tree-walk interpreter's CycleModel.
  const bool fp32 = program.precision() == ir::Precision::FP32;
  out.cyc_div_ = fp32 ? 8 : 16;
  if (fp32 && env.div32 != fp::Div32Mode::IEEE) out.cyc_div_ = 2;
  out.cyc_call_ = 24;
  if (mathlib) {
    const std::string& lib = mathlib->name();
    if (lib == "nv-fastmath-sim" || lib == "amd-ocml-native-sim" ||
        lib == "hip-cuda-compat-native-sim")
      out.cyc_call_ = fp32 ? 6 : 24;  // fast paths are FP32-only
  }

  BytecodeCompiler compiler(program, out);
  compiler.set_env(&env);
  compiler.compile();

  out.digest_ = out.compute_digest();
  return out;
}

namespace {

/// Three-words-per-step hash.  The multiplies are independent of the
/// chain, which carries only a rotate and an add, so a step costs a few
/// cycles.  Multiplying by an odd constant and adding to the rotated state
/// are both bijections, so sequences that differ in one word never
/// collide.  It only filters same_kernel() calls: cheap, not strong.
class WordDigest {
 public:
  void add(std::uint64_t w0, std::uint64_t w1 = 0, std::uint64_t w2 = 0) noexcept {
    h_ = std::rotl(h_, 23) + ((w0 * 0x9e3779b97f4a7c15ull) ^
                              (w1 * 0xc2b2ae3d27d4eb4full) ^
                              (w2 * 0x165667b19e3779f9ull));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t u32(std::int32_t v) noexcept {
  return static_cast<std::uint32_t>(v);
}

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) noexcept {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

}  // namespace

std::uint64_t BytecodeProgram::compute_digest() const noexcept {
  WordDigest d;
  // Field by field: BcInsn has padding bytes, so its raw bytes are not a
  // function of its value.
  for (const BcInsn& in : code_)
    d.add(static_cast<std::uint64_t>(in.op) | std::uint64_t{in.aux} << 8 |
              std::uint64_t{in.sense} << 16 | std::uint64_t{in.u16} << 24,
          u32(in.dst) | u32(in.a) << 32, u32(in.b) | u32(in.c) << 32);
  for (std::size_t i = 0; i < consts64_.size(); ++i)
    d.add(fp::to_bits(consts64_[i]), fp::to_bits(consts32_[i]));
  for (const int p : array_params_) d.add(u32(p));
  d.add(static_cast<std::uint64_t>(precision_) |
            std::uint64_t{env_.ftz32} << 8 | std::uint64_t{env_.daz32} << 9 |
            std::uint64_t{env_.ftz64} << 10 | std::uint64_t{env_.daz64} << 11 |
            std::uint64_t{env_.naive_minmax} << 12 |
            static_cast<std::uint64_t>(env_.div32) << 16,
        reinterpret_cast<std::uintptr_t>(mathlib_));
  d.add(u32(num_params_), u32(num_regs_), u32(num_temps_));
  d.add(cyc_div_, cyc_call_);
  return d.value();
}

bool BytecodeProgram::same_kernel(const BytecodeProgram& other) const noexcept {
  return digest_ == other.digest_ && code_ == other.code_ &&
         same_bits(consts64_, other.consts64_) &&
         same_bits(consts32_, other.consts32_) &&
         array_params_ == other.array_params_ &&
         precision_ == other.precision_ && env_ == other.env_ &&
         mathlib_ == other.mathlib_ && num_params_ == other.num_params_ &&
         num_regs_ == other.num_regs_ && num_temps_ == other.num_temps_ &&
         cyc_div_ == other.cyc_div_ && cyc_call_ == other.cyc_call_;
}

bool BatchReuse::lookup(const BytecodeProgram& program,
                        std::span<const KernelArgs> inputs, RunResult* out) {
  if (same_inputs(inputs)) {
    const std::size_t n = inputs.size();
    for (std::size_t k = 0; k < entries_.size(); ++k) {
      const BytecodeProgram& seen = *entries_[k];
      if (seen.digest() != program.digest() ||
          (&seen != &program && !seen.same_kernel(program)))
        continue;
      std::copy_n(results_.data() + k * n, n, out);
      ++batches_reused;
      return true;
    }
  } else {
    remember(inputs);
  }
  ++batches_run;
  return false;
}

void BatchReuse::record(std::shared_ptr<const BytecodeProgram> program,
                        const RunResult* out) {
  if (entries_.size() >= kMaxKernels) return;
  entries_.push_back(std::move(program));
  results_.insert(results_.end(), out, out + input_count_);
}

bool BatchReuse::same_inputs(std::span<const KernelArgs> inputs) const {
  if (inputs.size() != input_count_) return false;
  // Bit patterns, not values: +0.0 and -0.0 differ, NaN payloads count.
  // The counts are checked before the values they cover, so the walk
  // stays inside the buffer.  Each input's values are compared without
  // branches (the loops vectorize), with an exit after every input.
  const std::uint64_t* word = input_words_.data();
  for (const KernelArgs& args : inputs) {
    const std::size_t n_fp = args.fp.size();
    const std::size_t n_int = args.ints.size();
    if (word[0] != n_fp || word[1] != n_int) return false;
    word += 2;
    std::uint64_t diff = 0;
    for (std::size_t j = 0; j < n_fp; ++j) diff |= word[j] ^ fp::to_bits(args.fp[j]);
    word += n_fp;
    for (std::size_t j = 0; j < n_int; ++j)
      diff |= word[j] ^ static_cast<std::uint32_t>(args.ints[j]);
    word += n_int;
    if (diff != 0) return false;
  }
  return true;
}

void BatchReuse::remember(std::span<const KernelArgs> inputs) {
  entries_.clear();
  results_.clear();
  std::size_t words = 0;
  for (const KernelArgs& args : inputs) words += 2 + args.fp.size() + args.ints.size();
  input_words_.resize(words);  // capacity is kept across input sets
  std::uint64_t* word = input_words_.data();
  for (const KernelArgs& args : inputs) {
    *word++ = args.fp.size();
    *word++ = args.ints.size();
    for (const double v : args.fp) *word++ = fp::to_bits(v);
    for (const int v : args.ints) *word++ = static_cast<std::uint32_t>(v);
  }
  input_count_ = inputs.size();
}

template <typename T>
void BytecodeProgram::prepare(ExecContext& ctx) const {
  constexpr bool kFp32 = sizeof(T) == 4;
  auto& regs_vec = [&]() -> auto& {
    if constexpr (kFp32) return ctx.regs32; else return ctx.regs64;
  }();
  auto& arr_vec = [&]() -> auto& {
    if constexpr (kFp32) return ctx.arrays32; else return ctx.arrays64;
  }();
  auto& base_vec = [&]() -> auto& {
    if constexpr (kFp32) return ctx.base32; else return ctx.base64;
  }();
  auto& epoch_vec = [&]() -> auto& {
    if constexpr (kFp32) return ctx.slot_epoch32; else return ctx.slot_epoch64;
  }();
  if (regs_vec.size() < static_cast<std::size_t>(num_regs_))
    regs_vec.resize(static_cast<std::size_t>(num_regs_));
  const std::size_t arr_elems = array_params_.size() * ir::kArrayExtent;
  if (arr_vec.size() < arr_elems) arr_vec.resize(arr_elems);
  if (base_vec.size() < array_params_.size())
    base_vec.resize(array_params_.size());
  // New entries are value-initialized to 0, which can never equal the
  // current epoch (the reset bumps it before any slot is consulted), so a
  // freshly grown slot starts unmaterialized.
  if (epoch_vec.size() < array_params_.size())
    epoch_vec.resize(array_params_.size());
}

template <typename T>
void BytecodeProgram::run_impl(const KernelArgs& args, ExecContext& ctx,
                               RunResult& out) const {
  prepare<T>(ctx);
  run_one<T>(args, ctx, out);
}

template <typename T>
void BytecodeProgram::run_one(const KernelArgs& args, ExecContext& ctx,
                              RunResult& out) const {
  constexpr bool kFp32 = sizeof(T) == 4;
  auto& regs_vec = [&]() -> auto& {
    if constexpr (kFp32) return ctx.regs32; else return ctx.regs64;
  }();
  auto& arr_vec = [&]() -> auto& {
    if constexpr (kFp32) return ctx.arrays32; else return ctx.arrays64;
  }();
  const auto& consts = [&]() -> const auto& {
    if constexpr (kFp32) return consts32_; else return consts64_;
  }();

  auto& base_vec = [&]() -> auto& {
    if constexpr (kFp32) return ctx.base32; else return ctx.base64;
  }();
  auto& epoch_vec = [&]() -> auto& {
    if constexpr (kFp32) return ctx.slot_epoch32; else return ctx.slot_epoch64;
  }();

  T* const regs = regs_vec.data();
  T* const arrays = arr_vec.data();
  T* const base = base_vec.data();
  std::uint64_t* const slot_epoch = epoch_vec.data();
  // Temporaries read-before-declare observe 0, as in the tree-walk
  // interpreter; loop variables likewise start at 0 every run.
  std::fill(regs, regs + num_temps_, T(0));
  std::fill(ctx.loop_vars, ctx.loop_vars + kMaxLoopDepth, 0);
  // Array broadcast is hoisted out of the reset: record the broadcast
  // value per slot and invalidate all materializations by bumping the
  // epoch.  The extent-wide fill happens only if a store executes.
  const std::uint64_t epoch = ++ctx.epoch;
  for (std::size_t s = 0; s < array_params_.size(); ++s)
    base[s] = static_cast<T>(args.fp[static_cast<std::size_t>(array_params_[s])]);

  // Accumulate counters and flags in locals so the dispatch loop keeps
  // them in registers (writes through `out` would alias-block that);
  // everything is stored back exactly once at Halt.
  fp::ExceptionFlags flags;
  std::uint64_t ops = 0;
  std::uint64_t cycles = 0;
  Fpu<T> fpu(env_, flags);
  T comp = static_cast<T>(args.fp.at(0));
  const double* const fp_args = args.fp.data();
  const int* const int_args = args.ints.data();
  const BcInsn* const code = code_.data();

  const auto subscript = [&](const BcInsn& in) -> std::size_t {
    switch (static_cast<IndexMode>(in.aux)) {
      case IndexMode::Const:
        return static_cast<std::size_t>(in.a);
      case IndexMode::LoopVar:
        return static_cast<std::size_t>(clamp_subscript(ctx.loop_vars[in.a]));
      case IndexMode::IntParam:
        return static_cast<std::size_t>(clamp_subscript(int_args[in.a]));
      case IndexMode::Reg:
        return static_cast<std::size_t>(clamp_subscript(
            fp_to_subscript(static_cast<double>(regs[in.a]))));
    }
    return 0;
  };

  std::int32_t pc = 0;
  for (;;) {
    const BcInsn& in = code[pc];
    switch (in.op) {
      case BcOp::LoadConst: regs[in.dst] = consts[static_cast<std::size_t>(in.a)]; break;
      case BcOp::LoadParam: regs[in.dst] = static_cast<T>(fp_args[in.a]); break;
      case BcOp::LoadIntParam: regs[in.dst] = static_cast<T>(int_args[in.a]); break;
      case BcOp::LoadLoopVar: regs[in.dst] = static_cast<T>(ctx.loop_vars[in.a]); break;
      case BcOp::LoadComp: regs[in.dst] = comp; break;
      case BcOp::Mov: regs[in.dst] = regs[in.a]; break;
      case BcOp::Neg: regs[in.dst] = fp::negate_bits(regs[in.a]); break;
      case BcOp::Add:
        ++ops; cycles += 1;
        regs[in.dst] = fpu.add(regs[in.a], regs[in.b]);
        break;
      case BcOp::Sub:
        ++ops; cycles += 1;
        regs[in.dst] = fpu.sub(regs[in.a], regs[in.b]);
        break;
      case BcOp::Mul:
        ++ops; cycles += 1;
        regs[in.dst] = fpu.mul(regs[in.a], regs[in.b]);
        break;
      case BcOp::Div:
        ++ops; cycles += cyc_div_;
        regs[in.dst] = fpu.div(regs[in.a], regs[in.b]);
        break;
      case BcOp::Fma:
        ++ops; cycles += 1;
        regs[in.dst] = fpu.fma_op(regs[in.a], regs[in.b], regs[in.c]);
        break;
      case BcOp::Call1:
      case BcOp::Call2: {
        const T a = regs[in.a];
        const T b = in.op == BcOp::Call2 ? regs[in.b] : T(0);
        ++ops;
        cycles += cyc_call_;
        T r;
        if constexpr (kFp32) {
          r = mathlib_->call32(static_cast<ir::MathFn>(in.u16), a, b);
        } else {
          r = mathlib_->call64(static_cast<ir::MathFn>(in.u16), a, b);
        }
        const bool non_nan = !fp::is_nan_bits(a) && !fp::is_nan_bits(b);
        const bool finite = fp::is_finite_bits(a) && fp::is_finite_bits(b);
        fpu.note_call_result(r, non_nan, finite);
        regs[in.dst] = fp::apply_ftz(r, env_, &flags);
        break;
      }
      case BcOp::MinNaive: {
        ++ops;
        cycles += cyc_call_;
        const T a = regs[in.a], b = regs[in.b];
        regs[in.dst] = a < b ? a : b;
        break;
      }
      case BcOp::MaxNaive: {
        ++ops;
        cycles += cyc_call_;
        const T a = regs[in.a], b = regs[in.b];
        regs[in.dst] = a > b ? a : b;
        break;
      }
      case BcOp::LoadArr: {
        const std::size_t s = in.u16;
        // An unmaterialized slot holds the broadcast value everywhere, so
        // the subscript (pure arithmetic, no flags) does not matter.
        regs[in.dst] = slot_epoch[s] == epoch
                           ? arrays[s * ir::kArrayExtent + subscript(in)]
                           : base[s];
        break;
      }
      case BcOp::StoreArr: {
        const std::size_t s = in.u16;
        if (slot_epoch[s] != epoch) {
          std::fill(arrays + s * ir::kArrayExtent,
                    arrays + (s + 1) * ir::kArrayExtent, base[s]);
          slot_epoch[s] = epoch;
        }
        arrays[s * ir::kArrayExtent + subscript(in)] = regs[in.b];
        break;
      }
      case BcOp::AssignComp: {
        const T v = regs[in.a];
        switch (static_cast<ir::AssignOp>(in.aux)) {
          case ir::AssignOp::Set: comp = v; break;
          case ir::AssignOp::Add: comp = fpu.add(comp, v); break;
          case ir::AssignOp::Sub: comp = fpu.sub(comp, v); break;
          case ir::AssignOp::Mul: comp = fpu.mul(comp, v); break;
          case ir::AssignOp::Div: comp = fpu.div(comp, v); break;
        }
        ++ops;
        cycles += static_cast<ir::AssignOp>(in.aux) == ir::AssignOp::Div ? cyc_div_ : 1;
        break;
      }
      case BcOp::CmpJump: {
        const T a = regs[in.a], b = regs[in.b];
        ++ops;
        cycles += 1;
        // IEEE comparison semantics: any NaN operand makes all ordered
        // comparisons false and != true.
        bool taken = false;
        switch (static_cast<ir::CmpOp>(in.aux)) {
          case ir::CmpOp::Eq: taken = a == b; break;
          case ir::CmpOp::Ne: taken = a != b; break;
          case ir::CmpOp::Lt: taken = a < b; break;
          case ir::CmpOp::Le: taken = a <= b; break;
          case ir::CmpOp::Gt: taken = a > b; break;
          case ir::CmpOp::Ge: taken = a >= b; break;
        }
        if (taken == (in.sense != 0)) { pc = in.dst; continue; }
        break;
      }
      case BcOp::TruthJump:
        if ((regs[in.a] != T(0)) == (in.sense != 0)) { pc = in.dst; continue; }
        break;
      case BcOp::Jump:
        pc = in.dst;
        continue;
      case BcOp::Trap:
        // The tree-walk oracle's exact faults, raised only when reached.
        switch (static_cast<TrapKind>(in.aux)) {
          case TrapKind::NonArrayStore:
            throw std::runtime_error("run_kernel: store to non-array parameter");
          case TrapKind::NonArrayLoad:
            throw std::runtime_error("run_kernel: load from non-array parameter");
          case TrapKind::LoopTooDeep:
            throw std::runtime_error("run_kernel: loop nest too deep");
          case TrapKind::IndexOutOfRange:
            throw std::out_of_range("run_kernel: index out of range");
        }
        break;
      case BcOp::ForInit: {
        // Mirrors the tree-walk loop exactly: a zero-trip loop leaves the
        // depth's variable untouched, and after the last iteration the
        // variable keeps its final value (bound - 1), not the bound.
        int bound = int_args[in.a];
        if (bound > kMaxTripCount) bound = kMaxTripCount;
        if (bound <= 0) { pc = in.dst; continue; }
        ctx.loop_bounds[in.u16] = bound;
        ctx.loop_vars[in.u16] = 0;
        break;
      }
      case BcOp::ForNext: {
        const int v = ctx.loop_vars[in.u16] + 1;
        if (v < ctx.loop_bounds[in.u16]) {
          ctx.loop_vars[in.u16] = v;
          pc = in.dst;
          continue;
        }
        break;
      }
      case BcOp::Halt:
        out.value = static_cast<double>(comp);
        out.value_bits = static_cast<std::uint64_t>(fp::to_bits(comp));
        out.flags = flags;
        out.op_count = ops;
        out.cycle_count = cycles;
        return;
    }
    ++pc;
  }
}

RunResult BytecodeProgram::run(const KernelArgs& args, ExecContext& ctx) const {
  if (args.fp.size() != static_cast<std::size_t>(num_params_) ||
      args.ints.size() != static_cast<std::size_t>(num_params_))
    throw std::runtime_error("run_kernel: argument/parameter count mismatch");
  RunResult out;
  if (precision_ == ir::Precision::FP32)
    run_impl<float>(args, ctx, out);
  else
    run_impl<double>(args, ctx, out);
  return out;
}

void BytecodeProgram::run_batch(std::span<const KernelArgs> inputs,
                                ExecContext& ctx, RunResult* out) const {
  // Give every output a defined value before validation or execution: a
  // throw anywhere below (argument mismatch, trap) must leave completed
  // results for the inputs that ran and RunResult{} for the rest, never
  // stale memory.
  for (std::size_t i = 0; i < inputs.size(); ++i) out[i] = RunResult{};
  // Validate the whole batch up front so the execution loop is check-free.
  for (const KernelArgs& args : inputs)
    if (args.fp.size() != static_cast<std::size_t>(num_params_) ||
        args.ints.size() != static_cast<std::size_t>(num_params_))
      throw std::runtime_error("run_kernel: argument/parameter count mismatch");
  if (precision_ == ir::Precision::FP32)
    run_batch_impl<float>(inputs, ctx, out);
  else
    run_batch_impl<double>(inputs, ctx, out);
}

template <typename T>
void BytecodeProgram::run_batch_impl(std::span<const KernelArgs> inputs,
                                     ExecContext& ctx, RunResult* out) const {
  prepare<T>(ctx);
  for (std::size_t i = 0; i < inputs.size(); ++i) run_one<T>(inputs[i], ctx, out[i]);
}

}  // namespace gpudiff::vgpu
