#pragma once
// Bytecode compilation + register-VM execution for the virtual GPU.
//
// The tree-walk interpreter (interp.cpp) re-walks a pointer-linked Expr
// tree with recursive dispatch on every run and reallocates its temporary
// state per run.  A campaign executes the same compiled kernel across many
// inputs (paper §IV: 652,600 runs), so that per-run overhead is pure waste.
// This module lowers an optimized ir::Program *once* into a flat,
// fixed-width instruction array and executes it with a tight
// switch-dispatch loop:
//
//   * one virtual register file (plain array of float/double), with IR
//     temporaries pinned to registers [0, n_temps) and expression scratch
//     stack-allocated above them;
//   * a constant pool materialized in both precisions at compile time;
//   * structured control flow (`for`, `if`, `&&`/`||` short-circuit)
//     lowered to precomputed absolute jump offsets — no recursion;
//   * array parameters flattened into one contiguous buffer; arrays the
//     program never stores to are compiled down to scalar loads (their
//     elements always equal the broadcast argument value);
//   * all per-run mutable state lives in a caller-provided ExecContext
//     that is allocated once (per thread) and reset between runs.
//
// Execution semantics are bit-identical to the tree-walk interpreter —
// same Fpu, same FpEnv application, same op_count/cycle_count accounting,
// same exception flags — which tests/bytecode_test.cpp proves
// differentially over generated programs at every optimization level.
// The tree-walk interpreter remains available as the reference oracle
// (vgpu::run_kernel_tree, or globally via vgpu::set_exec_backend).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fp/bits.hpp"
#include "fp/env.hpp"
#include "ir/program.hpp"
#include "opt/platform.hpp"
#include "vgpu/args.hpp"
#include "vgpu/interp.hpp"
#include "vmath/mathlib.hpp"

namespace gpudiff::vgpu {

/// Upper bound on loop trip counts: protects the harness from hostile
/// metadata (generated inputs stay far below this).
inline constexpr int kMaxTripCount = 1 << 20;
inline constexpr int kMaxLoopDepth = 8;

/// Convert a floating subscript to an integer without UB: NaN indexes
/// element 0, values beyond what a long long can hold saturate (negative
/// values and -inf clamp to 0 downstream; +inf and huge positives land on
/// the last element).  In-range values keep the historical cast semantics.
inline long long fp_to_subscript(double v) noexcept {
  if (fp::is_nan_bits(v)) return 0;
  if (v <= -9223372036854775808.0) return 0;
  if (v >= 9223372036854775808.0) return ir::kArrayExtent - 1;
  return static_cast<long long>(v);
}

/// The subscript clamp shared with the tree-walk interpreter: negatives to
/// 0, overlarge indices wrapped into the extent.
inline int clamp_subscript(long long idx) noexcept {
  if (idx < 0) return 0;
  if (idx >= ir::kArrayExtent) return static_cast<int>(idx % ir::kArrayExtent);
  return static_cast<int>(idx);
}

enum class BcOp : std::uint8_t {
  LoadConst,     // regs[dst] = consts[a]
  LoadParam,     // regs[dst] = (T)args.fp[a]
  LoadIntParam,  // regs[dst] = (T)args.ints[a]
  LoadLoopVar,   // regs[dst] = (T)loop_vars[a]
  LoadComp,      // regs[dst] = comp
  Mov,           // regs[dst] = regs[a]
  Neg,           // regs[dst] = -regs[a] (sign-bit flip)
  Add, Sub, Mul, Div,  // regs[dst] = fpu(regs[a], regs[b])        [counted]
  Fma,           // regs[dst] = fpu.fma(regs[a], regs[b], regs[c]) [counted]
  Call1, Call2,  // regs[dst] = mathlib.fn(regs[a][, regs[b]])     [counted]
  MinNaive, MaxNaive,  // finite-math-only compare-select           [counted]
  LoadArr,       // regs[dst] = array[u16][subscript(aux, a)]
  StoreArr,      // array[u16][subscript(aux, a)] = regs[b]
  AssignComp,    // comp <aux:AssignOp>= regs[a]                    [counted]
  CmpJump,       // if ((regs[a] <aux:CmpOp> regs[b]) == sense) pc = dst [counted]
  TruthJump,     // if ((regs[a] != 0) == sense) pc = dst
  Jump,          // pc = dst
  ForInit,       // loop_vars[u16] = 0; bound = clamp(args.ints[a]); if empty pc = dst
  ForNext,       // if (++loop_vars[u16] < bound) pc = dst
  Trap,          // structurally malformed statement reached: throw (aux: TrapKind)
  Halt,
};

/// What a Trap reports.  Malformed IR is detected while lowering but must
/// fault only if control flow actually reaches it — exactly when and what
/// the tree-walk oracle would throw (runtime_error for shape errors,
/// out_of_range for .at()-style index errors).
enum class TrapKind : std::uint8_t {
  NonArrayStore,    // StoreArray to a non-array parameter
  NonArrayLoad,     // ArrayRef load from a non-array parameter
  LoopTooDeep,      // For nesting beyond kMaxLoopDepth
  IndexOutOfRange,  // parameter/temp/loop-var index outside the program
};

/// How LoadArr/StoreArr resolve their subscript operand `a`.
enum class IndexMode : std::uint8_t {
  Const,     // a = precomputed element index
  LoopVar,   // a = loop depth
  IntParam,  // a = integer parameter index
  Reg,       // a = register holding a floating subscript
};

struct BcInsn {
  BcOp op{};
  std::uint8_t aux = 0;    ///< CmpOp / AssignOp / IndexMode payload
  std::uint8_t sense = 0;  ///< conditional jumps: jump when condition == sense
  std::uint16_t u16 = 0;   ///< MathFn / array slot / loop depth
  std::int32_t dst = 0;    ///< destination register, or jump target pc
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;

  /// Field by field: the struct has padding, so never compare raw bytes.
  friend bool operator==(const BcInsn&, const BcInsn&) = default;
};

class BytecodeProgram;

/// The batches already run on one input set, so that a later batch of an
/// identical kernel on the same inputs copies their results instead of
/// executing (vgpu::run_kernel_batch).  A campaign sweep compiles every
/// program at five levels, and O1, O2 and O3 usually lower to the same
/// kernel.
///
/// The key is the kernel's content (BytecodeProgram::same_kernel, with the
/// digest as a filter) and the input set: the table keeps the bit patterns
/// of the last input set it saw and forgets every entry when a batch
/// brings a different one.  Inputs compare bit for bit, so +0.0 and -0.0
/// are different inputs.  Only completed batches are recorded, at most
/// kMaxKernels per input set (one sweep: every level on every platform);
/// past that, batches just run.
/// Entries hold their program through the Executable's shared lowering,
/// so a later program can never alias a remembered one by address.
class BatchReuse {
 public:
  static constexpr std::size_t kMaxKernels =
      std::size(opt::kAllOptLevels) * opt::kMaxPlatforms;

  /// Copy the results of `program` on `inputs` into `out` and return true
  /// if that batch was recorded.  Otherwise return false, first forgetting
  /// every entry if `inputs` is not the remembered set.
  bool lookup(const BytecodeProgram& program, std::span<const KernelArgs> inputs,
              RunResult* out);

  /// Record the results of the batch whose lookup() just missed and which
  /// completed.  A no-op once the table holds kMaxKernels entries.
  void record(std::shared_ptr<const BytecodeProgram> program, const RunResult* out);

  /// Diagnostics only (tests): never part of a report.
  std::uint64_t batches_run = 0;     ///< lookups that missed
  std::uint64_t batches_reused = 0;  ///< lookups that copied results

 private:
  bool same_inputs(std::span<const KernelArgs> inputs) const;
  void remember(std::span<const KernelArgs> inputs);

  std::vector<std::shared_ptr<const BytecodeProgram>> entries_;
  std::vector<RunResult> results_;  ///< entry-major, one per input
  /// The remembered input set as one flat buffer of bit patterns: per
  /// input, its fp count and int count, then its fp values, then its ints.
  std::vector<std::uint64_t> input_words_;
  std::size_t input_count_ = 0;
};

/// Reusable per-thread execution state.  run_bytecode grows the buffers to
/// the program's requirements on first use and reuses the capacity for
/// every subsequent run (no per-run allocation on the steady state).
///
/// Stored-to array parameters are materialized lazily: the per-run reset
/// records only the broadcast argument value (`base*`) and bumps `epoch`;
/// the kArrayExtent-element backing buffer is filled with the broadcast
/// value the first time a store to the slot actually executes that run
/// (`slot_epoch* == epoch` marks a materialized slot).  Loads from an
/// unmaterialized slot return the broadcast value directly, so a run whose
/// stores never execute — the array behaves read-only at runtime — pays
/// one scalar write instead of a 256-element broadcast.
struct ExecContext {
  std::vector<double> regs64;
  std::vector<float> regs32;
  std::vector<double> arrays64;  ///< stored-to array params, slot-major
  std::vector<float> arrays32;
  std::vector<double> base64;    ///< per-slot broadcast value, this run
  std::vector<float> base32;
  std::vector<std::uint64_t> slot_epoch64;  ///< slot materialized at epoch
  std::vector<std::uint64_t> slot_epoch32;
  std::uint64_t epoch = 0;       ///< bumped once per run; never reused
  int loop_vars[kMaxLoopDepth] = {};
  int loop_bounds[kMaxLoopDepth] = {};

  /// Results vgpu::run_kernel_batch may copy instead of executing; the
  /// bare BytecodeProgram::run_batch never reads or writes it.
  BatchReuse reuse;
};

/// A compiled kernel: flat instructions plus everything execution needs.
/// Immutable after compile_bytecode; safe to share across threads (each
/// thread supplies its own ExecContext).
class BytecodeProgram {
 public:
  ir::Precision precision() const noexcept { return precision_; }
  std::size_t insn_count() const noexcept { return code_.size(); }

  /// 64-bit digest of every field execution reads, computed once by
  /// compile_bytecode.  Identical kernels have equal digests; the converse
  /// only usually holds, so a match is confirmed with same_kernel().
  std::uint64_t digest() const noexcept { return digest_; }

  /// Whether `other` executes exactly as this program does on every input:
  /// the same instructions, constants (by bit pattern), array slots,
  /// precision, FP environment, math library, register layout and cycle
  /// model.
  bool same_kernel(const BytecodeProgram& other) const noexcept;

  /// Execute once.  Throws std::runtime_error on argument/parameter count
  /// mismatch; numerical misbehaviour never throws.
  RunResult run(const KernelArgs& args, ExecContext& ctx) const;

  /// Execute the kernel over a batch of inputs, in input order, writing one
  /// RunResult per input.  Semantically identical to calling run() per
  /// input, but the argument validation and buffer sizing are performed
  /// once for the whole batch (the campaign sweep shape: one compiled
  /// variant x many inputs).
  ///
  /// Every entry of `out` is zeroed before validation or execution, so on
  /// a throw (argument mismatch, trap mid-batch) the span holds only
  /// defined values: completed results for inputs that ran, RunResult{}
  /// for the rest — never stale memory.
  ///
  /// This is the raw entry: it always executes.  Campaign code goes through
  /// vgpu::run_kernel_batch, which skips batches already run.
  void run_batch(std::span<const KernelArgs> inputs, ExecContext& ctx,
                 RunResult* out) const;

 private:
  friend class BytecodeCompiler;
  friend BytecodeProgram compile_bytecode(const ir::Program&, const fp::FpEnv&,
                                          const vmath::MathLib* mathlib);
  template <typename T>
  void run_impl(const KernelArgs& args, ExecContext& ctx, RunResult& out) const;
  /// run_impl minus buffer sizing: requires prepare<T> was called on `ctx`.
  template <typename T>
  void run_one(const KernelArgs& args, ExecContext& ctx, RunResult& out) const;
  template <typename T>
  void run_batch_impl(std::span<const KernelArgs> inputs, ExecContext& ctx,
                      RunResult* out) const;
  template <typename T>
  void prepare(ExecContext& ctx) const;
  std::uint64_t compute_digest() const noexcept;

  std::vector<BcInsn> code_;
  std::vector<double> consts64_;
  std::vector<float> consts32_;
  std::vector<int> array_params_;  ///< param index per array slot
  ir::Precision precision_ = ir::Precision::FP64;
  fp::FpEnv env_;
  const vmath::MathLib* mathlib_ = nullptr;
  int num_params_ = 0;
  int num_regs_ = 0;
  int num_temps_ = 0;
  std::uint64_t cyc_div_ = 16;   ///< issue cycles per divide (CycleModel)
  std::uint64_t cyc_call_ = 24;  ///< issue cycles per library call
  std::uint64_t digest_ = 0;     ///< see digest()
};

/// Lower an optimized program once.  Never throws for malformed IR:
/// structurally bad statements (array access to a non-array parameter,
/// loop nest too deep, out-of-range indices) lower to Trap instructions
/// that raise the tree-walk interpreter's exception if — and only if —
/// execution actually reaches them, keeping the two backends equivalent
/// even for unreachable malformed statements.
BytecodeProgram compile_bytecode(const ir::Program& program, const fp::FpEnv& env,
                                 const vmath::MathLib* mathlib);

/// The engine name on perfbench's `# host` line.  run_batch has one engine,
/// the scalar loop; these stay only because perfbench calls them.
enum class SimdEngine : std::uint8_t { Off };
inline SimdEngine simd_engine() noexcept { return SimdEngine::Off; }
inline const char* to_string(SimdEngine) noexcept { return "off"; }

}  // namespace gpudiff::vgpu
