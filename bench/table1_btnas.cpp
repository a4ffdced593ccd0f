// Regenerates paper Table I: compiler/flag combinations vs runtime and
// maximum relative error, on a BT.S-style structured-grid kernel.
//
// Table I in the paper (taken from Miao et al. [2]) profiles the NAS BT
// benchmark under nvcc/clang at O0 and O3+fast-math.  We reproduce the
// *shape* on a miniature ADI-like sweep kernel built with the public IR
// builder: fast-math halves the runtime while increasing the maximum
// relative error, and the hipcc-side error at O3 fast-math is the largest.
// "Runtime" uses the virtual GPU's deterministic issue-cycle model (1 cycle
// per add/mul/fma, 16 per IEEE FP64 divide, 24 per library call) — absolute
// numbers are not comparable to the paper's wall-clock seconds.

#include <cstdio>
#include <vector>

#include "fp/bits.hpp"
#include "ir/builder.hpp"
#include "opt/platform.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::ir;

/// A miniature ADI/BT-flavoured kernel: forward elimination + back
/// substitution over a line of cells, with the transcendental source terms
/// that make compilers' fast-math choices observable.  Single precision:
/// both real toolchains' fast-math modes only swap FP32 division and
/// transcendental paths, so that is where the Table I runtime effect lives.
Program build_bt_kernel() {
  ProgramBuilder b(Precision::FP32);
  Arena& A = b.arena();
  const int n = b.add_int_param();        // grid points per line
  const int dt = b.add_scalar_param();    // time step
  const int rho = b.add_scalar_param();   // density-ish coefficient
  const int lhs = b.add_array_param();    // working diagonal
  const int rhs = b.add_array_param();    // right-hand side

  // comp accumulates the solution norm.
  b.begin_for(n);
  {
    // lhs[i] = 2.0 + dt * (rho / (1.0 + dt * rho))
    b.store_array(lhs, make_loop_var(A, 0),
                  make_bin(A, BinOp::Add, make_literal(A, 2.0, "+2.0E0"),
                           make_bin(A, BinOp::Mul, make_param(A, dt),
                                    make_bin(A, BinOp::Div, make_param(A, rho),
                                             make_bin(A, BinOp::Add,
                                                      make_literal(A, 1.0, "+1.0E0"),
                                                      make_bin(A, BinOp::Mul,
                                                               make_param(A, dt),
                                                               make_param(A, rho)))))));
    // rhs[i] = sin(dt * i) + cos(rho) * 1e-3 + rhs[i] * 0.25
    b.store_array(rhs, make_loop_var(A, 0),
                  make_bin(A, BinOp::Add,
                           make_call(A, MathFn::Sin,
                                     make_bin(A, BinOp::Mul, make_param(A, dt),
                                              make_loop_var(A, 0))),
                           make_bin(A, BinOp::Add,
                                    make_bin(A, BinOp::Mul,
                                             make_call(A, MathFn::Cos, make_param(A, rho)),
                                             make_literal(A, 1e-3, "+1.0E-3")),
                                    make_bin(A, BinOp::Mul,
                                             make_array(A, rhs, make_loop_var(A, 0)),
                                             make_literal(A, 0.25, "+2.5E-1")))));
  }
  b.end_block();
  b.begin_for(n);
  {
    // comp += rhs[i] / lhs[i] + dt * rhs[i] * 0.5 - sqrt(fabs(rhs[i])) * 1e-2
    b.assign_comp(
        AssignOp::Add,
        make_bin(A, BinOp::Sub,
                 make_bin(A, BinOp::Add,
                          make_bin(A, BinOp::Div, make_array(A, rhs, make_loop_var(A, 0)),
                                   make_array(A, lhs, make_loop_var(A, 0))),
                          make_bin(A, BinOp::Mul,
                                   make_bin(A, BinOp::Mul, make_param(A, dt),
                                            make_array(A, rhs, make_loop_var(A, 0))),
                                   make_literal(A, 0.5, "+5.0E-1"))),
                 make_bin(A, BinOp::Mul,
                          make_call(A, MathFn::Sqrt,
                                    make_call(A, MathFn::Fabs,
                                              make_array(A, rhs, make_loop_var(A, 0)))),
                          make_literal(A, 1e-2, "+1.0E-2"))));
  }
  b.end_block();
  return b.build();
}

struct Config {
  const char* platform;
  opt::OptLevel level;
};

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli("table1_btnas",
                         "Regenerate paper Table I (BT.S-style inconsistencies)");
  cli.add_int("grid", 'g', "grid points per kernel line", 64);
  cli.add_int("sweeps", 'n', "input sweeps to aggregate", 200);
  cli.add_int("seed", 's', "input seed", 42);
  if (!cli.parse(argc, argv)) return 1;

  const Program kernel = build_bt_kernel();
  const int grid = static_cast<int>(cli.get_int("grid"));
  const int sweeps = static_cast<int>(cli.get_int("sweeps"));

  // Input sweep: (dt, rho, lhs0, rhs0) samples across a physically plausible
  // range; the reference result is the nvcc-sim -O0 run (the paper's
  // baseline row).
  support::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  std::vector<vgpu::KernelArgs> sweep;
  for (int i = 0; i < sweeps; ++i) {
    vgpu::KernelArgs args;
    args.fp = {0.0, 0.0, rng.uniform(1e-4, 0.3), rng.uniform(0.1, 50.0),
               0.0, rng.uniform(-1.0, 1.0)};
    args.ints = {0, grid, 0, 0, 0, 0};
    sweep.push_back(std::move(args));
  }

  const Config configs[] = {
      {"nvcc", opt::OptLevel::O0},
      {"nvcc", opt::OptLevel::O3_FastMath},
      {"hipcc", opt::OptLevel::O0},
      {"hipcc", opt::OptLevel::O3_FastMath},
  };

  // Reference: nvcc-sim -O0.
  const auto ref_exe =
      opt::compile(kernel, *opt::find_platform("nvcc"), opt::OptLevel::O0);
  std::vector<double> reference;
  for (const auto& args : sweep)
    reference.push_back(vgpu::run_kernel(ref_exe, args).value);

  support::Table table("TABLE I — INCONSISTENCIES IN BT.S (mini-ADI reproduction)");
  table.set_header({"Compiler", "Options", "Runtime (Mcycles)", "Max Rel Error"});
  for (const auto& cfg : configs) {
    const auto exe =
        opt::compile(kernel, *opt::find_platform(cfg.platform), cfg.level);
    std::uint64_t cycles = 0;
    double max_err = 0.0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto run = vgpu::run_kernel(exe, sweep[i]);
      cycles += run.cycle_count;
      if (reference[i] != 0.0 && gpudiff::fp::is_finite_bits(run.value)) {
        const double err = std::abs((run.value - reference[i]) / reference[i]);
        if (err > max_err) max_err = err;
      }
    }
    const std::string opts = cfg.level == opt::OptLevel::O3_FastMath
                                 ? (exe.toolchain == opt::Toolchain::Nvcc
                                        ? "-O3 -use_fast_math"
                                        : "-O3 -ffast-math")
                                 : "-O0";
    char runtime[32], err[32];
    std::snprintf(runtime, sizeof runtime, "%.3f",
                  static_cast<double>(cycles) / 1e6);
    std::snprintf(err, sizeof err, "%.5E", max_err);
    table.add_row({opt::to_string(exe.toolchain), opts, runtime, err});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper shape: fast-math roughly halves runtime on both toolchains and\n"
      "grows the error; the clang/hipcc fast-math error is the largest.\n"
      "(Errors are measured against the nvcc -O0 run, as in Table I.)\n");
  return 0;
}
