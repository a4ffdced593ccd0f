#pragma once
// Kernel execution on the virtual GPU.
//
// run_kernel() executes a compiled Executable with one thread — Varity
// kernels are launched <<<1,1>>> and compute a single `comp` value which
// the kernel prints with printf("%.17g\n", comp).  Two backends implement
// identical semantics:
//
//   * the bytecode register VM (vgpu/bytecode.hpp) — the default: the
//     Executable caches a flat BytecodeProgram built once at compile time,
//     and run_kernel executes it with a per-thread reusable ExecContext
//     (no recursion, no pointer chasing, no per-run allocation);
//   * the tree-walk interpreter (interp.cpp) — the reference oracle,
//     selected with set_exec_backend(ExecBackend::TreeWalk), the
//     GPUDIFF_EXEC=tree environment variable, or directly via
//     run_kernel_tree().
//
// The result captures the raw IEEE bits of comp, the accumulated exception
// flags (Table II) and deterministic op/cycle counts (Table I).  The
// %.17g string the differential tester compares is NOT materialized per
// run: RunResult::printed() formats it on demand from `value` (lossless —
// device printf promotes float to double, so the string is a pure function
// of the widened value).  Callers on the hot path compare `value_bits`
// first and only format when recording a discrepancy.

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "fp/exceptions.hpp"
#include "fp/hexfloat.hpp"
#include "opt/pipeline.hpp"
#include "vgpu/args.hpp"

namespace gpudiff::vgpu {

struct RunResult {
  double value = 0.0;         ///< comp widened to double (exact for FP32)
  std::uint64_t value_bits = 0;  ///< IEEE bits of comp in its own precision
  fp::ExceptionFlags flags;   ///< accumulated FP exceptions
  std::uint64_t op_count = 0; ///< FP operations executed (deterministic cost)
  /// Deterministic cost under a simple device timing model (issue cycles:
  /// add/mul/fma = 1, divide and library call per vgpu::cycle_model).
  /// Drives the runtime column of the Table I reproduction.
  std::uint64_t cycle_count = 0;

  /// printf("%.17g\n", comp) payload (no \n), formatted on demand.
  std::string printed() const { return fp::print_g17(value); }
};

/// Issue cycles of a divide and of a library call; every other counted
/// operation costs 1.  cycle_model() decides them once for both backends:
/// an IEEE divide costs 16 (FP64) or 8 (FP32), an approximate FP32 divide
/// 2; an FP64 call 24, an FP32 call what the library states (24 if null).
struct CycleModel {
  std::uint64_t divide = 16;
  std::uint64_t call = 24;

  friend bool operator==(const CycleModel&, const CycleModel&) = default;
};
CycleModel cycle_model(ir::Precision precision, const fp::FpEnv& env,
                       const vmath::MathLib* mathlib) noexcept;

/// Which interpreter run_kernel dispatches to (process-wide).
enum class ExecBackend : std::uint8_t { Bytecode, TreeWalk };
ExecBackend exec_backend() noexcept;
void set_exec_backend(ExecBackend backend) noexcept;

/// Execute the kernel once.  Throws std::runtime_error on malformed IR
/// (e.g. argument/parameter mismatch); numerical misbehaviour never throws.
RunResult run_kernel(const opt::Executable& exe, const KernelArgs& args);

/// The tree-walk reference oracle, always available regardless of the
/// process-wide backend selection (used by the differential self-tests).
RunResult run_kernel_tree(const opt::Executable& exe, const KernelArgs& args);

/// Per-statement value observer for the tree-walk oracle: called once per
/// *executed* value-producing statement (DeclTemp init, AssignComp RHS
/// before the compound op, StoreArray stored value) with the value widened
/// to double.  Statements inside loops report once per trip.  The reducer's
/// constant-folding pass records these to replace live subexpressions with
/// their observed constants.
using StmtObserver = std::function<void(ir::StmtId, double)>;

/// Tree-walk execution with statement observation (reducer support; the
/// plain overloads stay observer-free on the hot path).
RunResult run_kernel_tree(const opt::Executable& exe, const KernelArgs& args,
                          const StmtObserver& observer);

/// Execute the kernel over a batch of inputs (one RunResult per input).
/// Bit-identical to per-input run_kernel calls; the bytecode backend
/// validates arguments and sizes its ExecContext once per batch instead of
/// once per run, which is the campaign sweep shape (ROADMAP "batched input
/// sweeps").
///
/// Each distinct kernel runs once per input set: the context remembers the
/// last input set and the results of every kernel run on it
/// (vgpu::BatchReuse), and a batch of an identical kernel
/// (by content) on bit-identical inputs copies those results instead of
/// executing.  A copy is bit-identical to a fresh run.  This overload uses
/// a per-thread context.
void run_kernel_batch(const opt::Executable& exe,
                      std::span<const KernelArgs> inputs, RunResult* out);

struct ExecContext;  // vgpu/bytecode.hpp

/// Batch execution with a caller-owned ExecContext, for callers that sweep
/// many (program, level) batches on one thread and want the VM scratch and
/// the reuse table shared by all of them (the campaign driver's
/// SweepContext).  The tree-walk backend ignores the context.
void run_kernel_batch(const opt::Executable& exe,
                      std::span<const KernelArgs> inputs, RunResult* out,
                      ExecContext& ctx);

}  // namespace gpudiff::vgpu
