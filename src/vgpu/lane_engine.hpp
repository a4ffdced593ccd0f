#pragma once
// The lane-parallel bytecode interpreter: one dispatched instruction
// executes L::width inputs at once.
//
// Internal header — included only by the engine translation units
// (bytecode_simd.cpp, bytecode_simd_avx2.cpp), each of which instantiates
// Engine over a `lanes` backend from vgpu/simd.hpp.  The template is the
// single source of truth for lane semantics; the backends only supply the
// vector primitives, so the portable W=1/W=4/W=8 builds and the AVX2
// build run the identical algorithm.
//
// ## Execution model
//
// Inputs are packed structure-of-arrays (lane-minor): register r of lane l
// lives at regs[r*W + l].  Execution starts in *uniform* mode — one shared
// pc, no masking, shared op/cycle counters — and stays there until a
// branch's per-lane decisions disagree.  On divergence every lane gets its
// own pc and the engine switches to *masked* mode: each step executes the
// instruction at the minimum pc among non-halted lanes, with exactly the
// lanes sitting at that pc active.  Because no architectural state is
// shared between lanes (registers, comp, flags, counters, loop variables
// and array slots are all per-lane), any deterministic schedule yields the
// per-lane sequential results; min-pc scheduling is chosen because it
// reconverges naturally at if/else joins and loop exits, and the engine
// returns to uniform mode whenever all lanes meet at one pc.
//
// ## Bit-identity with the scalar VM (bytecode.cpp run_one)
//
// * Vector add/sub/mul/div/fma are single correctly-rounded IEEE ops under
//   the default rounding mode — bit-identical per lane to the scalar `a+b`
//   / std::fma and to the fp/softfloat.hpp soft paths (those exist to
//   avoid microcode assists, not to change results).
// * NaN propagation, DAZ/FTZ and every exception flag are applied
//   explicitly with the same bit-level rules as vgpu::Fpu, expressed as
//   per-lane mask formulas.  The scalar Fpu skips its error-free inexact
//   probes once kInexact is set — a pure perf shortcut; the vector path
//   always computes them, which is OR-identical.
// * Math-library calls, approximate FP32 division, array subscripts and
//   loop bookkeeping run per-lane scalar code — for calls and approx
//   division literally through Fpu — so they cannot diverge from run_one.
//   The Fpu paths are reached through the out-of-line fpu_* functions
//   below, never instantiated here (see "VEX confinement").
// * Per-lane op/cycle counts: uniform mode accumulates shared counters,
//   masked mode per-lane extras; a lane's final count is the sum.
//
// ## Traps
//
// When any active lane reaches a Trap (or the program has zero
// parameters, where the scalar path throws std::out_of_range), run()
// returns false without writing outputs; the caller re-runs the group
// through the scalar interpreter in input order so the exception and the
// partially-written outputs match sequential run_batch semantics exactly.
//
// ## VEX confinement
//
// bytecode_simd_avx2.cpp compiles this header with -mavx2 -mfma.  An
// inline function that TU uses but does not inline is emitted there as a
// VEX-encoded weak copy, and the linker may keep that copy for baseline
// callers too, which then fault on a host without AVX2.  The scalar
// Fpu<T> methods and std::vector growth are such functions, so the engine
// never calls them directly: per-lane fallbacks go through the fpu_*
// functions and scratch sizing through size_lane_scratch, all defined in
// bytecode_simd.cpp at the baseline ISA.  tools/check_vex.py (a CI step)
// checks the built objects.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fp/bits.hpp"
#include "fp/env.hpp"
#include "fp/exceptions.hpp"
#include "ir/program.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/simd.hpp"
#include "vmath/mathlib.hpp"

namespace gpudiff::vgpu {

namespace detail {

/// The lane engine's window into BytecodeProgram internals (friend of the
/// class; keeps the program's members private to everyone else).
struct VmAccess {
  static const std::vector<BcInsn>& code(const BytecodeProgram& p) noexcept {
    return p.code_;
  }
  template <typename T>
  static const std::vector<T>& consts(const BytecodeProgram& p) noexcept {
    if constexpr (sizeof(T) == 4) {
      return p.consts32_;
    } else {
      return p.consts64_;
    }
  }
  static const std::vector<int>& array_params(const BytecodeProgram& p) noexcept {
    return p.array_params_;
  }
  static const fp::FpEnv& env(const BytecodeProgram& p) noexcept { return p.env_; }
  static const vmath::MathLib* mathlib(const BytecodeProgram& p) noexcept {
    return p.mathlib_;
  }
  static int num_params(const BytecodeProgram& p) noexcept { return p.num_params_; }
  static int num_regs(const BytecodeProgram& p) noexcept { return p.num_regs_; }
  static int num_temps(const BytecodeProgram& p) noexcept { return p.num_temps_; }
  static std::uint64_t cyc_div(const BytecodeProgram& p) noexcept { return p.cyc_div_; }
  static std::uint64_t cyc_call(const BytecodeProgram& p) noexcept {
    return p.cyc_call_;
  }
};

}  // namespace detail

namespace lane {

// Per-lane scalar fallbacks: exactly the scalar VM's Fpu operations,
// compiled once in bytecode_simd.cpp (see "VEX confinement" above).
double fpu_mul(const fp::FpEnv& env, double a, double b, fp::ExceptionFlags& ef) noexcept;
float fpu_mul(const fp::FpEnv& env, float a, float b, fp::ExceptionFlags& ef) noexcept;
double fpu_div(const fp::FpEnv& env, double a, double b, fp::ExceptionFlags& ef) noexcept;
float fpu_div(const fp::FpEnv& env, float a, float b, fp::ExceptionFlags& ef) noexcept;
/// Library call, Fpu::note_call_result and FTZ: the scalar VM's Call path.
double fpu_call(const vmath::MathLib& lib, ir::MathFn fn, const fp::FpEnv& env,
                double a, double b, fp::ExceptionFlags& ef);
float fpu_call(const vmath::MathLib& lib, ir::MathFn fn, const fp::FpEnv& env,
               float a, float b, fp::ExceptionFlags& ef);
/// Grow `ls` (never shrink) to hold one `width`-wide group of `bp`.
void size_lane_scratch(const BytecodeProgram& bp, int width,
                       ExecContext::LaneScratch& ls);

template <class L>
class Engine {
 public:
  using T = typename L::value_type;
  using vec = typename L::vec;
  using Tr = fp::FloatTraits<T>;
  using Bits = typename Tr::Bits;
  static constexpr int W = L::width;
  static constexpr unsigned kFullMask = (1u << W) - 1u;
  static constexpr std::int32_t kLaneHalted = INT32_MAX;

  Engine(const BytecodeProgram& bp, ExecContext& ctx, RunResult* out) noexcept
      : bp_(bp),
        ctx_(ctx),
        out_(out),
        env_(detail::VmAccess::env(bp)),
        code_(detail::VmAccess::code(bp).data()),
        consts_(detail::VmAccess::consts<T>(bp).data()),
        mathlib_(detail::VmAccess::mathlib(bp)),
        num_params_(detail::VmAccess::num_params(bp)),
        cyc_div_(detail::VmAccess::cyc_div(bp)),
        cyc_call_(detail::VmAccess::cyc_call(bp)) {
    sign_ = bcast(Tr::sign_mask);
    inf_ = bcast(Tr::exponent_mask);
    min_normal_ = bcast(static_cast<Bits>(Bits(1) << Tr::mantissa_bits));
    quiet_ = bcast(Tr::quiet_bit);
    ones_ = bcast(static_cast<Bits>(~Bits(0)));
    zero_ = L::zero();
    inv_ = bcast(static_cast<Bits>(fp::kInvalid));
    dbz_ = bcast(static_cast<Bits>(fp::kDivideByZero));
    inx_ = bcast(static_cast<Bits>(fp::kInexact));
    ovf_inx_ = bcast(static_cast<Bits>(fp::kOverflow | fp::kInexact));
    unf_ = bcast(static_cast<Bits>(fp::kUnderflow));
    unf_inx_ = bcast(static_cast<Bits>(fp::kUnderflow | fp::kInexact));
    // 2^(min_normal_exponent + 4): see suspect_lanes().
    fix_thresh_ = bcast(static_cast<Bits>(Bits(5) << Tr::mantissa_bits));
    daz_on_ = sizeof(T) == 4 ? env_.daz32 : env_.daz64;
    ftz_on_ = sizeof(T) == 4 ? env_.ftz32 : env_.ftz64;
    approx_div32_ = sizeof(T) == 4 && env_.div32 != fp::Div32Mode::IEEE;
  }

  /// Execute one W-sized group.  Returns false when the group must be
  /// re-run scalar (trap reached, or a program shape only the scalar path
  /// can fault on); no outputs are considered written in that case.
  bool run(const KernelArgs* inputs) {
    // run_one faults on args.fp.at(0) for parameterless programs; let the
    // scalar re-run raise that exactly.
    if (num_params_ == 0) return false;
    bind(inputs);
    return exec();
  }

 private:
  enum class St : std::uint8_t { Ok, Diverged, Halted, Trap };

  static vec bcast(Bits b) noexcept { return L::broadcast(fp::from_bits<T>(b)); }

  // ---- per-lane classification as mask vectors ----

  vec vabs(vec x) const noexcept { return L::andnot_bits(sign_, x); }
  vec is_nan(vec x) const noexcept { return L::cmp_unord(x, x); }
  vec is_inf(vec x) const noexcept { return L::cmp_eq(vabs(x), inf_); }
  vec is_finite(vec x) const noexcept { return L::cmp_lt(vabs(x), inf_); }
  vec is_zero(vec x) const noexcept { return L::cmp_eq(x, zero_); }
  vec is_subnormal(vec x) const noexcept {
    const vec a = vabs(x);
    return L::and_bits(L::cmp_lt(a, min_normal_), L::cmp_gt(a, zero_));
  }
  vec vnot(vec m) const noexcept { return L::andnot_bits(m, ones_); }

  // ---- the vector FPU: Fpu<T> semantics as lane-mask formulas ----

  vec vdaz(vec x) const noexcept {
    if (!daz_on_) return x;
    return L::blend(is_subnormal(x), L::and_bits(x, sign_), x);
  }
  vec vftz(vec x, vec& fl) const noexcept {
    if (!ftz_on_) return x;
    const vec s = is_subnormal(x);
    fl = L::or_bits(fl, L::and_bits(s, unf_inx_));
    return L::blend(s, L::and_bits(x, sign_), x);
  }
  /// quiet(na ? a : b): the scalar FPU's deterministic first-NaN-operand
  /// propagation (payload and sign preserved, quiet bit forced).
  vec nan_result(vec na, vec a, vec b) const noexcept {
    return L::or_bits(L::blend(na, a, b), quiet_);
  }

  vec vadd(vec a0, vec b0, vec& fl) const noexcept {
    const vec a = vdaz(a0), b = vdaz(b0);
    const vec na = is_nan(a);
    const vec nm = L::or_bits(na, is_nan(b));
    const vec r = L::add(a, b);
    const vec fin = L::and_bits(is_finite(a), is_finite(b));
    const vec rna = is_nan(r);
    const vec rin = is_inf(r);
    // Error-free exactness probe: r-a != b || r-b != a (NEQ_UQ so special
    // lanes read true; they are masked out below).
    const vec probe = L::or_bits(L::cmp_neq_uq(L::sub(r, a), b),
                                 L::cmp_neq_uq(L::sub(r, b), a));
    vec f = L::and_bits(rna, inv_);  // inf + (-inf)
    f = L::or_bits(f, L::and_bits(L::and_bits(fin, rin), ovf_inx_));
    f = L::or_bits(
        f, L::and_bits(inx_, L::and_bits(fin, L::andnot_bits(L::or_bits(rna, rin),
                                                             probe))));
    fl = L::or_bits(fl, L::andnot_bits(nm, f));
    return vftz(L::blend(nm, nan_result(na, a, b), r), fl);
  }

  /// Lanes where the hardware fma exactness probe can differ from the
  /// truth: a tiny nonzero residual can underflow inside the probe's own
  /// fma and read "exact".  The scalar Fpu never mis-answers because it
  /// routes the assist-prone range to the integer softfloat checks, so
  /// those lanes are re-run through the scalar Fpu itself (bit-identical
  /// by definition); everywhere else the scalar path uses the same
  /// hardware probe this engine does.  The probe's verdict only matters
  /// when it is consulted AND no other term already raised kInexact,
  /// which prunes the suspect set to:
  ///  * a subnormal (nonzero, post-DAZ) operand — an exact zero operand
  ///    makes the hardware probe exact-and-right, and
  ///  * a NORMAL result below 2^(min_normal_exponent + 4) — the bound the
  ///    assist predicates' exponent clauses imply, with margin; subnormal
  ///    or underflowed-to-zero results raise kUnderflow|kInexact
  ///    unconditionally in both paths, so their probe verdict is moot.
  unsigned suspect_lanes(vec a, vec b, vec r, unsigned active) const noexcept {
    const vec ra = vabs(r);
    const vec tiny_normal =
        L::and_bits(L::cmp_ge(ra, min_normal_), L::cmp_lt(ra, fix_thresh_));
    const vec s = L::or_bits(L::or_bits(is_subnormal(a), is_subnormal(b)),
                             tiny_normal);
    return L::movemask(s) & active;
  }

  /// Re-run lanes in `fix` through the scalar Fpu operation `op`,
  /// overwriting their result lanes and OR-ing their exact flags (the
  /// vector formulas' flags are a subset, so OR lands on the scalar set).
  using FpuOp = T (*)(const fp::FpEnv&, T, T, fp::ExceptionFlags&) noexcept;
  void lane_fix(vec a0, vec b0, vec& res, vec& fl, unsigned fix, FpuOp op) const {
    alignas(32) T ab[W], bb[W], rb[W], fb[W];
    L::storeu(ab, a0);
    L::storeu(bb, b0);
    L::storeu(rb, res);
    L::storeu(fb, fl);
    for (int l = 0; l < W; ++l) {
      if (!(fix >> l & 1u)) continue;
      fp::ExceptionFlags ef;
      rb[l] = op(env_, ab[l], bb[l], ef);
      fb[l] = fp::from_bits<T>(
          static_cast<Bits>(fp::to_bits(fb[l]) | ef.raw()));
    }
    res = L::loadu(rb);
    fl = L::loadu(fb);
  }

  vec vmul(vec a0, vec b0, vec& fl, unsigned active) const noexcept {
    const vec a = vdaz(a0), b = vdaz(b0);
    const vec na = is_nan(a);
    const vec nm = L::or_bits(na, is_nan(b));
    const vec r = L::mul(a, b);
    const vec fin = L::and_bits(is_finite(a), is_finite(b));
    const vec rna = is_nan(r);
    const vec rin = is_inf(r);
    // fma(a, b, -r) != 0 exactness probe.
    const vec probe = L::cmp_neq_uq(L::fma(a, b, L::xor_bits(r, sign_)), zero_);
    const vec unf = L::or_bits(
        is_subnormal(r),
        L::and_bits(is_zero(r), vnot(L::or_bits(is_zero(a), is_zero(b)))));
    vec f = L::and_bits(L::and_bits(fin, rin), ovf_inx_);
    f = L::or_bits(f,
                   L::and_bits(inx_, L::and_bits(fin, L::andnot_bits(rin, probe))));
    f = L::or_bits(f, L::and_bits(L::and_bits(fin, unf), unf_inx_));
    f = L::or_bits(f, L::and_bits(L::andnot_bits(fin, rna), inv_));  // 0 * inf
    fl = L::or_bits(fl, L::andnot_bits(nm, f));
    vec res = vftz(L::blend(nm, nan_result(na, a, b), r), fl);
    const unsigned fix = suspect_lanes(a, b, r, active);
    if (fix != 0)
      lane_fix(a0, b0, res, fl, fix, fpu_mul);
    return res;
  }

  vec vdiv(vec a0, vec b0, vec& fl, unsigned active) const noexcept {
    const vec a = vdaz(a0), b = vdaz(b0);
    const vec na = is_nan(a);
    const vec nm = L::or_bits(na, is_nan(b));
    const vec r = L::div(a, b);
    const vec fina = is_finite(a);
    const vec fin = L::and_bits(fina, is_finite(b));
    const vec dbz =
        L::and_bits(L::and_bits(is_zero(b), fina), vnot(is_zero(a)));
    const vec finb = L::andnot_bits(dbz, fin);  // the scalar else-if chain
    const vec rna = is_nan(r);
    const vec rin = is_inf(r);
    const vec probe = L::cmp_neq_uq(L::fma(r, b, L::xor_bits(a, sign_)), zero_);
    const vec unf = L::or_bits(is_subnormal(r),
                               L::and_bits(is_zero(r), vnot(is_zero(a))));
    vec f = L::and_bits(dbz, dbz_);
    f = L::or_bits(f, L::and_bits(L::and_bits(finb, rna), inv_));  // 0 / 0
    f = L::or_bits(f,
                   L::and_bits(ovf_inx_, L::and_bits(finb, L::andnot_bits(rna, rin))));
    f = L::or_bits(
        f, L::and_bits(inx_, L::and_bits(finb, L::andnot_bits(L::or_bits(rna, rin),
                                                              probe))));
    f = L::or_bits(f, L::and_bits(L::and_bits(finb, unf), unf_inx_));
    f = L::or_bits(f, L::and_bits(L::andnot_bits(fin, rna), inv_));  // inf / inf
    fl = L::or_bits(fl, L::andnot_bits(nm, f));
    vec res = vftz(L::blend(nm, nan_result(na, a, b), r), fl);
    const unsigned fix = suspect_lanes(a, b, r, active);
    if (fix != 0)
      lane_fix(a0, b0, res, fl, fix, fpu_div);
    return res;
  }

  vec vfma(vec a0, vec b0, vec c0, vec& fl) const noexcept {
    const vec a = vdaz(a0), b = vdaz(b0), c = vdaz(c0);
    const vec na = is_nan(a), nb = is_nan(b);
    const vec nm = L::or_bits(na, L::or_bits(nb, is_nan(c)));
    const vec r = L::fma(a, b, c);
    const vec fin =
        L::and_bits(is_finite(a), L::and_bits(is_finite(b), is_finite(c)));
    const vec rna = is_nan(r);
    const vec rin = is_inf(r);
    vec f = L::and_bits(L::and_bits(fin, rna), inv_);
    f = L::or_bits(f,
                   L::and_bits(ovf_inx_, L::and_bits(fin, L::andnot_bits(rna, rin))));
    // Conservatively inexact whenever finite in, finite out.
    f = L::or_bits(f, L::and_bits(inx_, L::andnot_bits(L::or_bits(rna, rin), fin)));
    f = L::or_bits(f, L::and_bits(L::and_bits(fin, is_subnormal(r)), unf_));
    f = L::or_bits(f, L::and_bits(L::andnot_bits(fin, rna), inv_));
    fl = L::or_bits(fl, L::andnot_bits(nm, f));
    const vec nanres = L::or_bits(L::blend(na, a, L::blend(nb, b, c)), quiet_);
    return vftz(L::blend(nm, nanres, r), fl);
  }

  // ---- lane state plumbing ----

  void bind(const KernelArgs* inputs) {
    auto& ls = ctx_.lane;
    size_lane_scratch(bp_, W, ls);
    const std::vector<int>& ap = detail::VmAccess::array_params(bp_);
    const std::size_t slots = ap.size();
    const std::size_t np = static_cast<std::size_t>(num_params_);
    if constexpr (sizeof(T) == 4) {
      regs_ = ls.regs32.data();
      args_ = ls.args32.data();
      ints_fp_ = ls.ints_fp32.data();
      base_ = ls.base32.data();
      arrays_ = ls.arrays32.data();
      slot_epoch_ = ls.slot_epoch32.data();
    } else {
      regs_ = ls.regs64.data();
      args_ = ls.args64.data();
      ints_fp_ = ls.ints_fp64.data();
      base_ = ls.base64.data();
      arrays_ = ls.arrays64.data();
      slot_epoch_ = ls.slot_epoch64.data();
    }
    ints_ = ls.ints.data();

    // Pack the group structure-of-arrays, lane-minor, with the scalar
    // path's exact conversions.
    for (std::size_t p = 0; p < np; ++p) {
      for (int l = 0; l < W; ++l) {
        args_[p * W + l] = static_cast<T>(inputs[l].fp[p]);
        const int iv = inputs[l].ints[p];
        ints_[p * W + l] = iv;
        ints_fp_[p * W + l] = static_cast<T>(iv);
      }
    }
    epoch_ = ++ctx_.epoch;
    for (std::size_t s = 0; s < slots; ++s)
      for (int l = 0; l < W; ++l)
        base_[s * W + l] =
            static_cast<T>(inputs[l].fp[static_cast<std::size_t>(ap[s])]);

    const int ntemps = detail::VmAccess::num_temps(bp_);
    for (int r = 0; r < ntemps; ++r)
      L::storeu(regs_ + static_cast<std::size_t>(r) * W, zero_);
    std::memset(loop_vars_, 0, sizeof(loop_vars_));
    std::memset(loop_bounds_, 0, sizeof(loop_bounds_));
    std::memset(m_ops_, 0, sizeof(m_ops_));
    std::memset(m_cycles_, 0, sizeof(m_cycles_));
    u_ops_ = 0;
    u_cycles_ = 0;
    comp_ = L::loadu(args_);  // comp starts as fp parameter 0
    flags_ = zero_;
  }

  vec reg(std::int32_t r) const noexcept {
    return L::loadu(regs_ + static_cast<std::size_t>(r) * W);
  }

  void spill_flags(Bits* fb) const noexcept {
    alignas(32) T buf[W];
    L::storeu(buf, flags_);
    for (int l = 0; l < W; ++l) fb[l] = fp::to_bits(buf[l]);
  }
  void load_flags(const Bits* fb) noexcept {
    alignas(32) T buf[W];
    for (int l = 0; l < W; ++l) buf[l] = fp::from_bits<T>(fb[l]);
    flags_ = L::loadu(buf);
  }

  std::size_t subscript_lane(const BcInsn& in, int l) const noexcept {
    switch (static_cast<IndexMode>(in.aux)) {
      case IndexMode::Const:
        return static_cast<std::size_t>(in.a);
      case IndexMode::LoopVar:
        return static_cast<std::size_t>(clamp_subscript(loop_vars_[in.a][l]));
      case IndexMode::IntParam:
        return static_cast<std::size_t>(
            clamp_subscript(ints_[static_cast<std::size_t>(in.a) * W + l]));
      case IndexMode::Reg:
        return static_cast<std::size_t>(clamp_subscript(fp_to_subscript(
            static_cast<double>(regs_[static_cast<std::size_t>(in.a) * W + l]))));
    }
    return 0;
  }

  void write_out(unsigned bits) noexcept {
    alignas(32) T cb[W];
    alignas(32) T fb[W];
    L::storeu(cb, comp_);
    L::storeu(fb, flags_);
    for (int l = 0; l < W; ++l) {
      if (!(bits >> l & 1u)) continue;
      RunResult r;
      r.value = static_cast<double>(cb[l]);
      r.value_bits = static_cast<std::uint64_t>(fp::to_bits(cb[l]));
      r.flags.raise(static_cast<std::uint8_t>(fp::to_bits(fb[l])));
      r.op_count = u_ops_ + m_ops_[l];
      r.cycle_count = u_cycles_ + m_cycles_[l];
      out_[l] = r;
    }
  }

  // ---- dispatch ----

  /// Resolve a branch for the active lanes.  `taken` is the raw per-lane
  /// condition movemask; jumping lanes go to `target`, the rest fall
  /// through.  Uniform mode stays uniform when the decision is unanimous.
  template <bool U>
  St branch(std::int32_t pc, unsigned bits, std::int32_t target, unsigned taken,
            bool sense) noexcept {
    const unsigned jump = (sense ? taken : ~taken) & bits;
    if constexpr (U) {
      if (jump == 0) {
        ++pc_;
        return St::Ok;
      }
      if (jump == kFullMask) {
        pc_ = target;
        return St::Ok;
      }
      for (int l = 0; l < W; ++l)
        pcs_[l] = (jump >> l & 1u) ? target : pc + 1;
      return St::Diverged;
    } else {
      for (int l = 0; l < W; ++l)
        if (bits >> l & 1u) pcs_[l] = (jump >> l & 1u) ? target : pc + 1;
      return St::Ok;
    }
  }

  /// Execute the instruction at `pc` for the lanes in `bits` (mask vector
  /// `m` is its vector form).  U=true is the unmasked uniform fast path.
  template <bool U>
  St step(const std::int32_t pc, const unsigned bits, const vec m) {
    const BcInsn& in = code_[pc];

    const auto setreg = [&](std::int32_t r, vec v) {
      T* p = regs_ + static_cast<std::size_t>(r) * W;
      if constexpr (U) {
        L::storeu(p, v);
      } else {
        L::storeu(p, L::blend(m, v, L::loadu(p)));
      }
    };
    const auto count = [&](std::uint64_t cyc) {
      if constexpr (U) {
        ++u_ops_;
        u_cycles_ += cyc;
      } else {
        for (int l = 0; l < W; ++l)
          if (bits >> l & 1u) {
            ++m_ops_[l];
            m_cycles_[l] += cyc;
          }
      }
    };
    const auto raise = [&](vec f) {
      if constexpr (U) {
        flags_ = L::or_bits(flags_, f);
      } else {
        flags_ = L::or_bits(flags_, L::and_bits(m, f));
      }
    };
    const auto advance = [&] {
      if constexpr (U) {
        ++pc_;
      } else {
        for (int l = 0; l < W; ++l)
          if (bits >> l & 1u) pcs_[l] = pc + 1;
      }
    };

    switch (in.op) {
      case BcOp::LoadConst:
        setreg(in.dst, L::broadcast(consts_[static_cast<std::size_t>(in.a)]));
        break;
      case BcOp::LoadParam:
        setreg(in.dst, L::loadu(args_ + static_cast<std::size_t>(in.a) * W));
        break;
      case BcOp::LoadIntParam:
        setreg(in.dst, L::loadu(ints_fp_ + static_cast<std::size_t>(in.a) * W));
        break;
      case BcOp::LoadLoopVar: {
        alignas(32) T buf[W];
        for (int l = 0; l < W; ++l)
          buf[l] = static_cast<T>(loop_vars_[in.a][l]);
        setreg(in.dst, L::loadu(buf));
        break;
      }
      case BcOp::LoadComp:
        setreg(in.dst, comp_);
        break;
      case BcOp::Mov:
        setreg(in.dst, reg(in.a));
        break;
      case BcOp::Neg:
        setreg(in.dst, L::xor_bits(reg(in.a), sign_));
        break;
      case BcOp::Add: {
        vec fl = zero_;
        const vec r = vadd(reg(in.a), reg(in.b), fl);
        raise(fl);
        setreg(in.dst, r);
        count(1);
        break;
      }
      case BcOp::Sub: {
        vec fl = zero_;
        const vec r = vadd(reg(in.a), L::xor_bits(reg(in.b), sign_), fl);
        raise(fl);
        setreg(in.dst, r);
        count(1);
        break;
      }
      case BcOp::Mul: {
        vec fl = zero_;
        const vec r = vmul(reg(in.a), reg(in.b), fl, U ? kFullMask : bits);
        raise(fl);
        setreg(in.dst, r);
        count(1);
        break;
      }
      case BcOp::Div: {
        count(cyc_div_);
        if (approx_div32_) {
          lane_div(in, U ? kFullMask : bits);
        } else {
          vec fl = zero_;
          const vec r = vdiv(reg(in.a), reg(in.b), fl, U ? kFullMask : bits);
          raise(fl);
          setreg(in.dst, r);
        }
        break;
      }
      case BcOp::Fma: {
        vec fl = zero_;
        const vec r = vfma(reg(in.a), reg(in.b), reg(in.c), fl);
        raise(fl);
        setreg(in.dst, r);
        count(1);
        break;
      }
      case BcOp::Call1:
      case BcOp::Call2: {
        count(cyc_call_);
        lane_call(in, U ? kFullMask : bits);
        break;
      }
      case BcOp::MinNaive:
        count(cyc_call_);
        setreg(in.dst, L::min_naive(reg(in.a), reg(in.b)));
        break;
      case BcOp::MaxNaive:
        count(cyc_call_);
        setreg(in.dst, L::max_naive(reg(in.a), reg(in.b)));
        break;
      case BcOp::LoadArr: {
        const std::size_t s = in.u16;
        for (int l = 0; l < W; ++l) {
          if (!U && !(bits >> l & 1u)) continue;
          const std::size_t sl = s * W + static_cast<std::size_t>(l);
          regs_[static_cast<std::size_t>(in.dst) * W + l] =
              slot_epoch_[sl] == epoch_
                  ? arrays_[sl * ir::kArrayExtent + subscript_lane(in, l)]
                  : base_[sl];
        }
        break;
      }
      case BcOp::StoreArr: {
        const std::size_t s = in.u16;
        for (int l = 0; l < W; ++l) {
          if (!U && !(bits >> l & 1u)) continue;
          const std::size_t sl = s * W + static_cast<std::size_t>(l);
          T* const arr = arrays_ + sl * ir::kArrayExtent;
          if (slot_epoch_[sl] != epoch_) {
            std::fill(arr, arr + ir::kArrayExtent, base_[sl]);
            slot_epoch_[sl] = epoch_;
          }
          arr[subscript_lane(in, l)] =
              regs_[static_cast<std::size_t>(in.b) * W + l];
        }
        break;
      }
      case BcOp::AssignComp: {
        const vec v = reg(in.a);
        const auto aop = static_cast<ir::AssignOp>(in.aux);
        const auto setcomp = [&](vec nc) {
          if constexpr (U) {
            comp_ = nc;
          } else {
            comp_ = L::blend(m, nc, comp_);
          }
        };
        switch (aop) {
          case ir::AssignOp::Set:
            setcomp(v);
            break;
          case ir::AssignOp::Add: {
            vec fl = zero_;
            const vec nc = vadd(comp_, v, fl);
            raise(fl);
            setcomp(nc);
            break;
          }
          case ir::AssignOp::Sub: {
            vec fl = zero_;
            const vec nc = vadd(comp_, L::xor_bits(v, sign_), fl);
            raise(fl);
            setcomp(nc);
            break;
          }
          case ir::AssignOp::Mul: {
            vec fl = zero_;
            const vec nc = vmul(comp_, v, fl, U ? kFullMask : bits);
            raise(fl);
            setcomp(nc);
            break;
          }
          case ir::AssignOp::Div: {
            if (approx_div32_) {
              lane_comp_div(v, U ? kFullMask : bits);
            } else {
              vec fl = zero_;
              const vec nc = vdiv(comp_, v, fl, U ? kFullMask : bits);
              raise(fl);
              setcomp(nc);
            }
            break;
          }
        }
        count(aop == ir::AssignOp::Div ? cyc_div_ : 1);
        break;
      }
      case BcOp::CmpJump: {
        count(1);
        const vec a = reg(in.a), b = reg(in.b);
        vec t = zero_;
        switch (static_cast<ir::CmpOp>(in.aux)) {
          case ir::CmpOp::Eq: t = L::cmp_eq(a, b); break;
          case ir::CmpOp::Ne: t = L::cmp_neq_uq(a, b); break;
          case ir::CmpOp::Lt: t = L::cmp_lt(a, b); break;
          case ir::CmpOp::Le: t = L::cmp_le(a, b); break;
          case ir::CmpOp::Gt: t = L::cmp_gt(a, b); break;
          case ir::CmpOp::Ge: t = L::cmp_ge(a, b); break;
        }
        return branch<U>(pc, bits, in.dst, L::movemask(t), in.sense != 0);
      }
      case BcOp::TruthJump:
        return branch<U>(pc, bits, in.dst,
                         L::movemask(L::cmp_neq_uq(reg(in.a), zero_)),
                         in.sense != 0);
      case BcOp::Jump:
        if constexpr (U) {
          pc_ = in.dst;
        } else {
          for (int l = 0; l < W; ++l)
            if (bits >> l & 1u) pcs_[l] = in.dst;
        }
        return St::Ok;
      case BcOp::Trap:
        return St::Trap;
      case BcOp::ForInit: {
        const int d = in.u16;
        unsigned enter = 0;
        int bnds[W];
        for (int l = 0; l < W; ++l) {
          int bound = ints_[static_cast<std::size_t>(in.a) * W + l];
          if (bound > kMaxTripCount) bound = kMaxTripCount;
          bnds[l] = bound;
          if (bound > 0) enter |= 1u << l;
        }
        const auto enter_lane = [&](int l) {
          loop_bounds_[d][l] = bnds[l];
          loop_vars_[d][l] = 0;
        };
        if constexpr (U) {
          if (enter == kFullMask) {
            for (int l = 0; l < W; ++l) enter_lane(l);
            ++pc_;
            return St::Ok;
          }
          if (enter == 0) {
            pc_ = in.dst;
            return St::Ok;
          }
          for (int l = 0; l < W; ++l) {
            if (enter >> l & 1u) {
              enter_lane(l);
              pcs_[l] = pc + 1;
            } else {
              pcs_[l] = in.dst;
            }
          }
          return St::Diverged;
        } else {
          for (int l = 0; l < W; ++l) {
            if (!(bits >> l & 1u)) continue;
            if (enter >> l & 1u) {
              enter_lane(l);
              pcs_[l] = pc + 1;
            } else {
              pcs_[l] = in.dst;
            }
          }
          return St::Ok;
        }
      }
      case BcOp::ForNext: {
        const int d = in.u16;
        unsigned cont = 0;
        for (int l = 0; l < W; ++l)
          if (loop_vars_[d][l] + 1 < loop_bounds_[d][l]) cont |= 1u << l;
        if constexpr (U) {
          if (cont == kFullMask) {
            for (int l = 0; l < W; ++l) ++loop_vars_[d][l];
            pc_ = in.dst;
            return St::Ok;
          }
          if (cont == 0) {
            ++pc_;
            return St::Ok;
          }
          for (int l = 0; l < W; ++l) {
            if (cont >> l & 1u) {
              ++loop_vars_[d][l];
              pcs_[l] = in.dst;
            } else {
              pcs_[l] = pc + 1;
            }
          }
          return St::Diverged;
        } else {
          for (int l = 0; l < W; ++l) {
            if (!(bits >> l & 1u)) continue;
            if (cont >> l & 1u) {
              ++loop_vars_[d][l];
              pcs_[l] = in.dst;
            } else {
              pcs_[l] = pc + 1;
            }
          }
          return St::Ok;
        }
      }
      case BcOp::Halt: {
        if constexpr (U) {
          write_out(kFullMask);
          return St::Halted;
        } else {
          write_out(bits);
          for (int l = 0; l < W; ++l)
            if (bits >> l & 1u) pcs_[l] = kLaneHalted;
          return St::Ok;
        }
      }
    }
    advance();
    return St::Ok;
  }

  /// Math-library call for the active lanes: literally the scalar path
  /// (library call + note_call_result + FTZ) per lane.
  void lane_call(const BcInsn& in, unsigned bits) {
    alignas(32) Bits fb[W];
    spill_flags(fb);
    for (int l = 0; l < W; ++l) {
      if (!(bits >> l & 1u)) continue;
      const T a = regs_[static_cast<std::size_t>(in.a) * W + l];
      const T b =
          in.op == BcOp::Call2 ? regs_[static_cast<std::size_t>(in.b) * W + l] : T(0);
      fp::ExceptionFlags ef;
      regs_[static_cast<std::size_t>(in.dst) * W + l] =
          fpu_call(*mathlib_, static_cast<ir::MathFn>(in.u16), env_, a, b, ef);
      fb[l] |= ef.raw();
    }
    load_flags(fb);
  }

  /// Approximate FP32 division (NvApprox/AmdApprox) for the active lanes,
  /// through the scalar Fpu so the quirky paths stay identical.
  void lane_div(const BcInsn& in, unsigned bits) {
    alignas(32) Bits fb[W];
    spill_flags(fb);
    for (int l = 0; l < W; ++l) {
      if (!(bits >> l & 1u)) continue;
      const T a = regs_[static_cast<std::size_t>(in.a) * W + l];
      const T b = regs_[static_cast<std::size_t>(in.b) * W + l];
      fp::ExceptionFlags ef;
      regs_[static_cast<std::size_t>(in.dst) * W + l] = fpu_div(env_, a, b, ef);
      fb[l] |= ef.raw();
    }
    load_flags(fb);
  }

  void lane_comp_div(vec v, unsigned bits) {
    alignas(32) T cb[W];
    alignas(32) T vb[W];
    alignas(32) Bits fb[W];
    L::storeu(cb, comp_);
    L::storeu(vb, v);
    spill_flags(fb);
    for (int l = 0; l < W; ++l) {
      if (!(bits >> l & 1u)) continue;
      fp::ExceptionFlags ef;
      cb[l] = fpu_div(env_, cb[l], vb[l], ef);
      fb[l] |= ef.raw();
    }
    load_flags(fb);
    comp_ = L::loadu(cb);
  }

  bool exec() {
    pc_ = 0;
    bool uniform = true;
    for (;;) {
      if (uniform) {
        switch (step<true>(pc_, kFullMask, ones_)) {
          case St::Ok:
            break;
          case St::Halted:
            return true;
          case St::Trap:
            return false;
          case St::Diverged:
            uniform = false;
            break;
        }
      } else {
        std::int32_t mn = kLaneHalted;
        for (int l = 0; l < W; ++l)
          if (pcs_[l] < mn) mn = pcs_[l];
        if (mn == kLaneHalted) return true;
        unsigned bits = 0;
        alignas(32) T mb[W];
        for (int l = 0; l < W; ++l) {
          const bool active = pcs_[l] == mn;
          bits |= (active ? 1u : 0u) << l;
          mb[l] = active ? fp::from_bits<T>(static_cast<Bits>(~Bits(0))) : T(0);
        }
        if (bits == kFullMask) {
          // All live lanes at one pc: reconverge to the uniform fast path.
          uniform = true;
          pc_ = mn;
          continue;
        }
        if (step<false>(mn, bits, L::loadu(mb)) == St::Trap) return false;
      }
    }
  }

  // ---- members ----

  const BytecodeProgram& bp_;
  ExecContext& ctx_;
  RunResult* const out_;
  const fp::FpEnv& env_;
  const BcInsn* const code_;
  const T* const consts_;
  const vmath::MathLib* const mathlib_;
  const int num_params_;
  const std::uint64_t cyc_div_;
  const std::uint64_t cyc_call_;

  // Lane scratch (owned by ExecContext::lane, bound per group).
  T* regs_ = nullptr;
  T* args_ = nullptr;
  T* ints_fp_ = nullptr;
  T* base_ = nullptr;
  T* arrays_ = nullptr;
  int* ints_ = nullptr;
  std::uint64_t* slot_epoch_ = nullptr;
  std::uint64_t epoch_ = 0;

  int loop_vars_[kMaxLoopDepth][W] = {};
  int loop_bounds_[kMaxLoopDepth][W] = {};
  std::int32_t pcs_[W] = {};
  std::int32_t pc_ = 0;
  std::uint64_t u_ops_ = 0;
  std::uint64_t u_cycles_ = 0;
  std::uint64_t m_ops_[W] = {};
  std::uint64_t m_cycles_[W] = {};
  vec comp_{};
  vec flags_{};

  // Broadcast constants.
  vec sign_{}, inf_{}, min_normal_{}, quiet_{}, ones_{}, zero_{};
  vec inv_{}, dbz_{}, inx_{}, ovf_inx_{}, unf_{}, unf_inx_{}, fix_thresh_{};
  bool daz_on_ = false, ftz_on_ = false, approx_div32_ = false;
};

/// Run one W-sized group through backend L.  False means "re-run this
/// group with the scalar interpreter" (trap semantics; see Engine::run).
template <class L>
bool run_group(const BytecodeProgram& bp, const KernelArgs* inputs,
               ExecContext& ctx, RunResult* out) {
  Engine<L> engine(bp, ctx, out);
  return engine.run(inputs);
}

}  // namespace lane
}  // namespace gpudiff::vgpu
