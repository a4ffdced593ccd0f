// Differential self-test for the bytecode VM: the register VM must be
// bit-identical to the tree-walk reference oracle — value bits, exception
// flags, op count and cycle count — for every generated program, at every
// optimization level, for both toolchains, both precisions and both
// HIPIFY modes.  Also pins the VM-specific lowering details (read-only
// array elision, short-circuit accounting, subscript clamping) and proves
// fixed-seed campaign output is backend-independent.  Finally, checks that
// no execution path hands process-global state back changed (upper-YMM
// state, MXCSR).

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

#include "diff/campaign.hpp"
#include "diff/runner.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "ir/builder.hpp"
#include "opt/pipeline.hpp"
#include "support/cpu.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::ir;

void expect_identical(const vgpu::RunResult& vm, const vgpu::RunResult& tree,
                      const std::string& context) {
  EXPECT_EQ(vm.value_bits, tree.value_bits) << context;
  EXPECT_EQ(vm.flags.raw(), tree.flags.raw()) << context;
  EXPECT_EQ(vm.op_count, tree.op_count) << context;
  EXPECT_EQ(vm.cycle_count, tree.cycle_count) << context;
  EXPECT_EQ(vm.printed(), tree.printed()) << context;
}

struct DifferentialCase {
  Precision precision;
  bool hipify;
};

class BytecodeDifferential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(BytecodeDifferential, MatchesTreeWalkOracle) {
  const auto [precision, hipify] = GetParam();
  gen::GenConfig cfg;
  cfg.precision = precision;
  const gen::Generator generator(cfg, 20240901);
  const gen::InputGenerator input_gen(20240901);

  vgpu::ExecContext ctx;
  for (std::uint64_t pi = 0; pi < 200; ++pi) {
    const Program program = generator.generate(pi);
    for (std::uint64_t ii = 0; ii < 2; ++ii) {
      const vgpu::KernelArgs args = input_gen.generate(program, pi, ii);
      for (const opt::OptLevel level : opt::kAllOptLevels) {
        for (const opt::Toolchain tc : {opt::Toolchain::Nvcc, opt::Toolchain::Hipcc}) {
          const opt::Executable exe =
              opt::compile(program, {tc, level, hipify && tc == opt::Toolchain::Hipcc});
          const vgpu::RunResult vm = exe.bytecode().run(args, ctx);
          const vgpu::RunResult tree = vgpu::run_kernel_tree(exe, args);
          expect_identical(vm, tree,
                           "program " + std::to_string(pi) + " input " +
                               std::to_string(ii) + " " + exe.description());
          if (HasFailure()) return;  // one diverging program is enough signal
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BytecodeDifferential,
    ::testing::Values(DifferentialCase{Precision::FP64, false},
                      DifferentialCase{Precision::FP64, true},
                      DifferentialCase{Precision::FP32, false},
                      DifferentialCase{Precision::FP32, true}),
    [](const auto& info) {
      return std::string(info.param.precision == Precision::FP32 ? "FP32" : "FP64") +
             (info.param.hipify ? "Hipify" : "Native");
    });

// ---------------------------------------------------------------------------
// Campaign-level equivalence: the fixed-seed campaign tables must not
// depend on the execution backend.
// ---------------------------------------------------------------------------

TEST(BytecodeCampaign, FixedSeedCampaignIdenticalAcrossBackends) {
  diff::CampaignConfig cfg;
  cfg.num_programs = 40;
  cfg.inputs_per_program = 3;
  cfg.threads = 2;

  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  const diff::CampaignResults vm = diff::run_campaign(cfg);
  vgpu::set_exec_backend(vgpu::ExecBackend::TreeWalk);
  const diff::CampaignResults tree = diff::run_campaign(cfg);
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);

  ASSERT_EQ(vm.per_level.size(), tree.per_level.size());
  for (std::size_t li = 0; li < vm.per_level.size(); ++li) {
    EXPECT_EQ(vm.per_level[li].comparisons, tree.per_level[li].comparisons);
    EXPECT_EQ(vm.per_level[li].pairs, tree.per_level[li].pairs);
  }
  ASSERT_EQ(vm.records.size(), tree.records.size());
  for (std::size_t i = 0; i < vm.records.size(); ++i) {
    EXPECT_EQ(vm.records[i].program_index, tree.records[i].program_index);
    EXPECT_EQ(vm.records[i].input_index, tree.records[i].input_index);
    EXPECT_EQ(vm.records[i].level, tree.records[i].level);
    EXPECT_EQ(vm.records[i].cls, tree.records[i].cls);
    EXPECT_EQ(vm.records[i].printed, tree.records[i].printed);
  }
}

// ---------------------------------------------------------------------------
// Lowering details.
// ---------------------------------------------------------------------------

opt::Executable compile_o0(Program p) {
  return opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O0, false});
}

TEST(Bytecode, ShortCircuitSkipsUncountedOperand) {
  // (0 != 0) && (comp < comp + 1): the RHS Cmp and Add must not execute
  // when the LHS is false — op_count sees exactly one comparison.
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  auto cond = make_bool(A, 
      BoolOp::And, make_cmp(A, CmpOp::Ne, make_literal(A, 0.0), make_literal(A, 0.0)),
      make_cmp(A, CmpOp::Lt, make_param(A, 0),
               make_bin(A, BinOp::Add, make_param(A, 0), make_literal(A, 1.0))));
  b.begin_if(std::move(cond));
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  b.end_block();
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {2.0};
  args.ints = {0};
  const auto vm = vgpu::run_kernel(exe, args);
  const auto tree = vgpu::run_kernel_tree(exe, args);
  EXPECT_EQ(vm.op_count, 1u);
  EXPECT_EQ(vm.op_count, tree.op_count);
  EXPECT_EQ(vm.cycle_count, tree.cycle_count);
}

TEST(Bytecode, ReadOnlyArrayLoadsBroadcastValue) {
  // comp = arr[3]; the array is never stored to, so the VM elides its
  // backing storage entirely — loads must still see the broadcast argument.
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int arr = b.add_array_param();
  b.assign_comp(AssignOp::Set, make_array(A, arr, make_literal(A, 3.0)));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {0.0, 6.5};
  args.ints = {0, 0};
  EXPECT_EQ(vgpu::run_kernel(exe, args).value, 6.5);
  EXPECT_EQ(vgpu::run_kernel_tree(exe, args).value, 6.5);
}

TEST(Bytecode, StoredArrayRoundTrips) {
  // arr[2] = 41; comp = arr[2] + arr[1]  (arr broadcast-initialized to 1).
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int arr = b.add_array_param();
  b.store_array(arr, make_literal(A, 2.0), make_literal(A, 41.0));
  b.assign_comp(AssignOp::Set,
                make_bin(A, BinOp::Add, make_array(A, arr, make_literal(A, 2.0)),
                         make_array(A, arr, make_literal(A, 1.0))));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {0.0, 1.0};
  args.ints = {0, 0};
  EXPECT_EQ(vgpu::run_kernel(exe, args).value, 42.0);
  EXPECT_EQ(vgpu::run_kernel_tree(exe, args).value, 42.0);
}

TEST(Bytecode, NanSubscriptIndexesElementZero) {
  // arr[0] = 9; comp = arr[0.0/0.0]: a NaN subscript must clamp to element
  // 0 in both backends (previously UB in the tree-walk interpreter).
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int arr = b.add_array_param();
  b.store_array(arr, make_literal(A, 0.0), make_literal(A, 9.0));
  b.assign_comp(
      AssignOp::Set,
      make_array(A, arr, make_bin(A, BinOp::Div, make_literal(A, 0.0), make_literal(A, 0.0))));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {0.0, 1.0};
  args.ints = {0, 0};
  const auto vm = vgpu::run_kernel(exe, args);
  const auto tree = vgpu::run_kernel_tree(exe, args);
  EXPECT_EQ(vm.value, 9.0);
  expect_identical(vm, tree, "NaN subscript");
}

TEST(Bytecode, LoopVarAfterLoopMatchesOracle) {
  // `for (i < n) comp += 1; comp = i`: after the loop both backends must
  // observe the final iteration value (n-1), and a zero-trip loop must
  // leave the variable untouched (0 at run start).
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  b.begin_for(n);
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  b.end_block();
  b.assign_comp(AssignOp::Set, make_loop_var(A, 0));
  const opt::Executable exe = compile_o0(b.build());
  for (const int bound : {3, 1, 0}) {
    vgpu::KernelArgs args;
    args.fp = {0.0, 0.0};
    args.ints = {0, bound};
    const auto vm = vgpu::run_kernel(exe, args);
    const auto tree = vgpu::run_kernel_tree(exe, args);
    EXPECT_EQ(vm.value_bits, tree.value_bits) << "bound " << bound;
    EXPECT_EQ(vm.value, bound > 0 ? bound - 1 : 0) << "bound " << bound;
  }
}

TEST(Bytecode, HugeLiteralSubscriptMatchesOracle) {
  // A literal subscript beyond long long range saturates identically in
  // both backends (previously UB in the tree-walk Literal fast path).
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int arr = b.add_array_param();
  b.store_array(arr, make_literal(A, 255.0), make_literal(A, 7.0));
  b.assign_comp(AssignOp::Set, make_array(A, arr, make_literal(A, 1e30)));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs args;
  args.fp = {0.0, 1.0};
  args.ints = {0, 0};
  const auto vm = vgpu::run_kernel(exe, args);
  const auto tree = vgpu::run_kernel_tree(exe, args);
  EXPECT_EQ(vm.value, 7.0);
  EXPECT_EQ(vm.value_bits, tree.value_bits);
}

TEST(Bytecode, MalformedStatementFaultsOnlyWhenReached) {
  // A store to a non-array (scalar) parameter is structurally malformed,
  // but guarded by `if (0 != 0)` it never executes: like the tree-walk
  // oracle, the VM must run the program cleanly, and must throw the same
  // error once the guard lets the statement execute.
  const auto build = [](double guard_rhs) {
    // Raw IR assembly: ProgramBuilder (rightly) refuses to emit this.
    Arena A;
    std::vector<Param> params{{ParamKind::Comp, "comp"},
                              {ParamKind::Scalar, "var_1"}};
    std::vector<StmtId> guarded;
    guarded.push_back(
        make_store_array(A, 1, make_literal(A, 0.0), make_literal(A, 1.0)));
    std::vector<StmtId> body;
    body.push_back(make_if(
        A, make_cmp(A, CmpOp::Ne, make_literal(A, 0.0), make_literal(A, guard_rhs)),
        guarded));
    body.push_back(make_assign_comp(A, AssignOp::Add, make_literal(A, 2.0)));
    return compile_o0(Program(Precision::FP64, std::move(params), std::move(A),
                              std::move(body)));
  };
  vgpu::KernelArgs args;
  args.fp = {1.0, 3.0};
  args.ints = {0, 0};
  const opt::Executable unreachable = build(0.0);
  EXPECT_EQ(vgpu::run_kernel(unreachable, args).value, 3.0);
  EXPECT_EQ(vgpu::run_kernel_tree(unreachable, args).value, 3.0);
  const opt::Executable reachable = build(1.0);
  EXPECT_THROW((void)vgpu::run_kernel(reachable, args), std::runtime_error);
  EXPECT_THROW((void)vgpu::run_kernel_tree(reachable, args), std::runtime_error);
}

TEST(Bytecode, ArgumentCountMismatchThrows) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs bad;
  bad.fp = {1.0, 2.0};
  bad.ints = {0, 0};
  EXPECT_THROW((void)vgpu::run_kernel(exe, bad), std::runtime_error);
}

TEST(Bytecode, BatchedSweepBitIdenticalToPerRunLoop) {
  // compare_batch must be indistinguishable from the compare_run loop it
  // replaced in the campaign driver: same bits, flags, op counts and
  // classification, for both backends.
  gen::GenConfig cfg;
  const gen::Generator generator(cfg, 77);
  const gen::InputGenerator input_gen(77);
  for (std::uint64_t pi = 0; pi < 25; ++pi) {
    const Program program = generator.generate(pi);
    std::vector<vgpu::KernelArgs> inputs;
    for (int ii = 0; ii < 6; ++ii) inputs.push_back(input_gen.generate(program, pi, ii));
    for (const opt::OptLevel level : opt::kAllOptLevels) {
      const diff::CompiledSet set = diff::compile_pair(program, level);
      for (const auto backend :
           {vgpu::ExecBackend::Bytecode, vgpu::ExecBackend::TreeWalk}) {
        vgpu::set_exec_backend(backend);
        const auto batch = diff::compare_batch(set, inputs);
        ASSERT_EQ(batch.size(), inputs.size());
        for (std::size_t ii = 0; ii < inputs.size(); ++ii) {
          const auto single = diff::compare_run(set, inputs[ii]);
          EXPECT_EQ(batch[ii].platforms[0].bits, single.platforms[0].bits);
          EXPECT_EQ(batch[ii].platforms[1].bits, single.platforms[1].bits);
          EXPECT_EQ(batch[ii].platforms[0].flags.raw(),
                    single.platforms[0].flags.raw());
          EXPECT_EQ(batch[ii].platforms[1].op_count,
                    single.platforms[1].op_count);
          EXPECT_EQ(batch[ii].cls, single.cls);
        }
      }
      vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
    }
  }
}

TEST(Bytecode, BatchRejectsMismatchedArguments) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_literal(A, 1.0));
  const opt::Executable exe = compile_o0(b.build());
  vgpu::KernelArgs good;
  good.fp = {1.0};
  good.ints = {0};
  vgpu::KernelArgs bad;
  bad.fp = {1.0, 2.0};
  bad.ints = {0, 0};
  const vgpu::KernelArgs inputs[] = {good, bad};
  vgpu::RunResult out[2];
  vgpu::ExecContext ctx;
  EXPECT_THROW(exe.bytecode().run_batch(inputs, ctx, out), std::runtime_error);
}

TEST(Bytecode, BatchThrowLeavesNoStaleOutputs) {
  // Regression for the partial-state bug: a throw mid-batch used to leave
  // whatever memory the caller handed in for the unreached outputs.  Now
  // every output is either a completed result (inputs before the faulting
  // one, in input order) or a zeroed RunResult{}.
  Arena A;
  std::vector<Param> params{{ParamKind::Comp, "comp"},
                            {ParamKind::Scalar, "var_1"}};
  std::vector<StmtId> guarded;
  guarded.push_back(
      make_store_array(A, 1, make_literal(A, 0.0), make_literal(A, 1.0)));
  std::vector<StmtId> body;
  body.push_back(make_if(
      A, make_cmp(A, CmpOp::Ne, make_param(A, 1), make_literal(A, 0.0)),
      guarded));
  body.push_back(make_assign_comp(A, AssignOp::Add, make_literal(A, 2.0)));
  const opt::Executable exe = compile_o0(
      Program(Precision::FP64, std::move(params), std::move(A), std::move(body)));
  std::vector<vgpu::KernelArgs> inputs;
  for (int i = 0; i < 11; ++i) {
    vgpu::KernelArgs args;
    args.fp = {1.0, i == 6 ? 1.0 : 0.0};  // input 6 reaches the trap
    args.ints = {0, 0};
    inputs.push_back(args);
  }
  std::vector<vgpu::RunResult> out(inputs.size());
  for (auto& r : out) {  // stale garbage the contract must erase
    r.value_bits = 0xDEADBEEFull;
    r.op_count = 123;
  }
  vgpu::ExecContext ctx;
  EXPECT_THROW(exe.bytecode().run_batch(inputs, ctx, out.data()),
               std::runtime_error);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i].value, 3.0) << "input " << i;
    EXPECT_GT(out[i].op_count, 0u) << "input " << i;
  }
  for (std::size_t i = 6; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value_bits, 0u) << "input " << i;
    EXPECT_EQ(out[i].op_count, 0u) << "input " << i;
  }
}

// ---------------------------------------------------------------------------
// Batch reuse (vgpu::BatchReuse): run_kernel_batch runs each distinct
// kernel once per input set and copies its results for later batches of an
// identical kernel.  A copy must be indistinguishable from a fresh run.
// ---------------------------------------------------------------------------

/// comp = comp / var_1: a kernel whose result shows the sign of a zero
/// input (1 / +0 = +inf, 1 / -0 = -inf).
opt::Executable divide_by_param() {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(AssignOp::Div, make_param(A, x));
  return compile_o0(b.build());
}

vgpu::KernelArgs comp_and(double comp, double x) {
  vgpu::KernelArgs args;
  args.fp = {comp, x};
  args.ints = {0, 0};
  return args;
}

TEST(BytecodeReuse, SweepThroughOneContextMatchesFreshContexts) {
  // The campaign shape: every level of every registry platform over one
  // input set, through one context, with each level's executables dropped
  // before the next level compiles (so a new program can land at a freed
  // one's address).  Each result must equal the raw run_batch's on a
  // fresh context, in both precisions.
  const auto& platforms = opt::platform_registry();
  for (const Precision precision : {Precision::FP64, Precision::FP32}) {
    gen::GenConfig cfg;
    cfg.precision = precision;
    const gen::Generator generator(cfg, 4242);
    const gen::InputGenerator input_gen(4242);
    vgpu::ExecContext shared;
    std::uint64_t batches = 0;
    for (std::uint64_t pi = 0; pi < 6; ++pi) {
      const Program program = generator.generate(pi);
      std::vector<vgpu::KernelArgs> inputs;
      for (int ii = 0; ii < 7; ++ii)
        inputs.push_back(input_gen.generate(program, pi, ii));
      for (const opt::OptLevel level : opt::kAllOptLevels) {
        for (const opt::PlatformSpec& spec : platforms) {
          const opt::Executable exe = opt::compile(program, spec, level);
          std::vector<vgpu::RunResult> got(inputs.size());
          vgpu::run_kernel_batch(exe, inputs, got.data(), shared);
          ++batches;
          vgpu::ExecContext fresh;
          std::vector<vgpu::RunResult> ref(inputs.size());
          exe.bytecode().run_batch(inputs, fresh, ref.data());
          for (std::size_t ii = 0; ii < inputs.size(); ++ii) {
            expect_identical(got[ii], ref[ii],
                             "program " + std::to_string(pi) + " input " +
                                 std::to_string(ii) + " " + spec.name + " " +
                                 exe.description());
            if (HasFailure()) return;
          }
        }
      }
    }
    EXPECT_EQ(shared.reuse.batches_run + shared.reuse.batches_reused, batches);
    EXPECT_GT(shared.reuse.batches_reused, 0u);
  }
}

TEST(BytecodeReuse, FixedProgramRunsEachDistinctKernelOnce) {
  // One program's sweep over the paper pair: O1, O2 and O3 lower to one
  // kernel per toolchain, so each toolchain runs O0, O1 and O3+FM and
  // copies O2 and O3.  The count is also derived independently from
  // same_kernel(), and a second sweep of freshly compiled executables
  // (new lowerings, same content) copies everything.
  gen::GenConfig cfg;
  const gen::Generator generator(cfg, 77);
  const gen::InputGenerator input_gen(77);
  const Program program = generator.generate(3);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 7; ++ii) inputs.push_back(input_gen.generate(program, 3, ii));
  const auto platforms = opt::default_platforms();

  std::vector<opt::Executable> all;
  for (const opt::OptLevel level : opt::kAllOptLevels)
    for (const opt::PlatformSpec& spec : platforms)
      all.push_back(opt::compile(program, spec, level));
  std::uint64_t distinct = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j)
      seen = all[j].bytecode().same_kernel(all[i].bytecode());
    if (!seen) ++distinct;
  }
  EXPECT_EQ(distinct, 6u);

  vgpu::ExecContext ctx;
  std::vector<vgpu::RunResult> out(inputs.size());
  for (const opt::Executable& exe : all)
    vgpu::run_kernel_batch(exe, inputs, out.data(), ctx);
  EXPECT_EQ(ctx.reuse.batches_run, distinct);
  EXPECT_EQ(ctx.reuse.batches_reused, all.size() - distinct);
  for (const opt::OptLevel level : opt::kAllOptLevels)
    for (const opt::PlatformSpec& spec : platforms)
      vgpu::run_kernel_batch(opt::compile(program, spec, level), inputs,
                             out.data(), ctx);
  EXPECT_EQ(ctx.reuse.batches_run, distinct);
  EXPECT_EQ(ctx.reuse.batches_reused, 2 * all.size() - distinct);
}

TEST(BytecodeReuse, TableStopsRecordingAtOneSweep) {
  // kMaxKernels distinct kernels fill the table; one more still runs but
  // is not recorded, so it runs again, while the first is still copied.
  std::vector<opt::Executable> kernels;
  for (std::size_t k = 0; k <= vgpu::BatchReuse::kMaxKernels; ++k) {
    ProgramBuilder b(Precision::FP64);
    Arena& A = b.arena();
    b.assign_comp(AssignOp::Add, make_literal(A, static_cast<double>(k)));
    kernels.push_back(compile_o0(b.build()));
  }
  vgpu::KernelArgs args;
  args.fp = {0.5};
  args.ints = {0};
  const vgpu::KernelArgs inputs[] = {args};
  vgpu::RunResult out[1];
  vgpu::ExecContext ctx;
  for (const opt::Executable& exe : kernels) {
    vgpu::run_kernel_batch(exe, inputs, out, ctx);
  }
  EXPECT_EQ(ctx.reuse.batches_run, kernels.size());
  vgpu::run_kernel_batch(kernels.front(), inputs, out, ctx);
  EXPECT_EQ(ctx.reuse.batches_reused, 1u);
  EXPECT_EQ(out[0].value, 0.5);
  vgpu::run_kernel_batch(kernels.back(), inputs, out, ctx);
  EXPECT_EQ(ctx.reuse.batches_run, kernels.size() + 1);
  EXPECT_EQ(out[0].value, 0.5 + static_cast<double>(vgpu::BatchReuse::kMaxKernels));
}

TEST(BytecodeReuse, SignedZeroInputsAreDifferentInputs) {
  // KernelArgs::operator== compares doubles with ==, under which +0.0 and
  // -0.0 are equal; the table compares bit patterns, so the second batch
  // runs and gets -inf, not the first batch's +inf.
  const opt::Executable exe = divide_by_param();
  const vgpu::KernelArgs pos[] = {comp_and(1.0, 2.0), comp_and(1.0, 0.0)};
  const vgpu::KernelArgs neg[] = {comp_and(1.0, 2.0), comp_and(1.0, -0.0)};
  vgpu::ExecContext ctx;
  vgpu::RunResult out[2];
  vgpu::run_kernel_batch(exe, pos, out, ctx);
  EXPECT_EQ(out[1].value, std::numeric_limits<double>::infinity());
  vgpu::run_kernel_batch(exe, neg, out, ctx);
  EXPECT_EQ(out[1].value, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(ctx.reuse.batches_run, 2u);
  EXPECT_EQ(ctx.reuse.batches_reused, 0u);
  // Back to +0.0: a changed input set forgets the old one's results, so
  // this runs too (and is right).
  vgpu::run_kernel_batch(exe, pos, out, ctx);
  EXPECT_EQ(out[1].value, std::numeric_limits<double>::infinity());
  EXPECT_EQ(ctx.reuse.batches_run, 3u);
}

TEST(BytecodeReuse, TreeWalkReusesNothing) {
  // The tree-walk oracle neither reads nor writes the table: after the VM
  // has recorded the batch, the oracle runs it twice and the counters do
  // not move.
  const opt::Executable exe = divide_by_param();
  const vgpu::KernelArgs inputs[] = {comp_and(3.0, 7.0), comp_and(-1.0, 0.0),
                                     comp_and(1e-310, 3.0), comp_and(5.0, 5.0),
                                     comp_and(2.0, -0.0)};
  vgpu::RunResult out[5];
  vgpu::ExecContext ctx;
  vgpu::run_kernel_batch(exe, inputs, out, ctx);
  vgpu::set_exec_backend(vgpu::ExecBackend::TreeWalk);
  vgpu::run_kernel_batch(exe, inputs, out, ctx);
  vgpu::run_kernel_batch(exe, inputs, out, ctx);
  vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
  EXPECT_EQ(ctx.reuse.batches_run, 1u);
  EXPECT_EQ(ctx.reuse.batches_reused, 0u);
  for (std::size_t i = 0; i < std::size(inputs); ++i)
    expect_identical(out[i], vgpu::run_kernel_tree(exe, inputs[i]),
                     "tree input " + std::to_string(i));
}

TEST(BytecodeReuse, TrappingBatchIsNotRecordedAndThrowsAgain) {
  // Input 2 stores to a non-array parameter.  The batch throws on every
  // call (no failure is ever copied), keeps run_batch's output contract,
  // and a batch of the same kernel on clean inputs is recorded as usual.
  Arena A;
  std::vector<Param> params{{ParamKind::Comp, "comp"},
                            {ParamKind::Scalar, "var_1"}};
  std::vector<StmtId> guarded;
  guarded.push_back(
      make_store_array(A, 1, make_literal(A, 0.0), make_literal(A, 1.0)));
  std::vector<StmtId> body;
  body.push_back(make_if(
      A, make_cmp(A, CmpOp::Ne, make_param(A, 1), make_literal(A, 0.0)),
      guarded));
  body.push_back(make_assign_comp(A, AssignOp::Add, make_literal(A, 2.0)));
  const opt::Executable exe = compile_o0(
      Program(Precision::FP64, std::move(params), std::move(A), std::move(body)));
  const vgpu::KernelArgs trapping[] = {comp_and(1.0, 0.0), comp_and(2.0, 0.0),
                                       comp_and(3.0, 1.0), comp_and(4.0, 0.0)};
  const vgpu::KernelArgs clean[] = {comp_and(1.0, 0.0), comp_and(2.0, 0.0)};
  vgpu::ExecContext ctx;
  for (int attempt = 1; attempt <= 2; ++attempt) {
    vgpu::RunResult out[4];
    out[3].op_count = 99;  // stale memory the contract must erase
    EXPECT_THROW(vgpu::run_kernel_batch(exe, trapping, out, ctx),
                 std::runtime_error);
    EXPECT_EQ(out[0].value, 3.0);
    EXPECT_EQ(out[1].value, 4.0);
    EXPECT_EQ(out[2].op_count, 0u);
    EXPECT_EQ(out[3].op_count, 0u);
    EXPECT_EQ(ctx.reuse.batches_run, static_cast<std::uint64_t>(attempt));
    EXPECT_EQ(ctx.reuse.batches_reused, 0u);
  }
  vgpu::RunResult out[2];
  vgpu::run_kernel_batch(exe, clean, out, ctx);
  vgpu::run_kernel_batch(exe, clean, out, ctx);
  EXPECT_EQ(ctx.reuse.batches_run, 3u);
  EXPECT_EQ(ctx.reuse.batches_reused, 1u);
  EXPECT_EQ(out[1].value, 4.0);
}

// ---------------------------------------------------------------------------
// Execution state hygiene: a kernel run must hand back the process-global
// vector and FP-environment state it was given.  Dirty upper-YMM halves
// make every later SSE instruction on the thread pay a merge penalty; the
// MXCSR control bits hold the rounding mode, DAZ/FTZ and exception masks
// every scalar path relies on.
// ---------------------------------------------------------------------------

/// The control bits of the calling thread's MXCSR (0 off x86-64).  Bits
/// 0-5 are sticky status flags that any FP arithmetic sets, so they are
/// masked out.
unsigned read_mxcsr_control() {
#if defined(__x86_64__) || defined(_M_X64)
  return _mm_getcsr() & ~0x3Fu;
#else
  return 0;
#endif
}

/// Return the upper YMM halves to their initial state.  VZEROUPPER is a
/// VEX instruction, so it runs only when XINUSE reports dirty state, which
/// implies the host has AVX.
void clear_upper_ymm() {
#if defined(__x86_64__) || defined(_M_X64)
  if (support::upper_ymm_state() == support::UpperYmm::Dirty)
    __asm__ volatile("vzeroupper");
#endif
}

enum class HygieneShape { Straight, Loop, Trap, ThrowingCall };

const char* to_string(HygieneShape shape) {
  switch (shape) {
    case HygieneShape::Straight: return "straight";
    case HygieneShape::Loop: return "loop";
    case HygieneShape::Trap: return "trap";
    case HygieneShape::ThrowingCall: return "throwing-call";
  }
  return "?";
}

/// Parameters: comp, one scalar x, one int trip count n.
///  * Straight — comp /= x; comp += sin(x) * x (straight-line arithmetic
///    and a library call);
///  * Loop — for (n) comp /= x; comp *= 1.125;
///  * Trap — if (x != 0) x[0] = 1 (a store to a scalar parameter, lowered
///    to a Trap); comp += 2, so the one input with x != 0 throws mid-batch;
///  * ThrowingCall — comp += f(x) for a library function id outside
///    MathFn, so the library call throws.
Program hygiene_program(Precision precision, HygieneShape shape) {
  Arena A;
  std::vector<Param> params{{ParamKind::Comp, "comp"},
                            {ParamKind::Scalar, "var_1"},
                            {ParamKind::Int, "var_2"}};
  std::vector<StmtId> body;
  switch (shape) {
    case HygieneShape::Straight:
      body.push_back(make_assign_comp(A, AssignOp::Div, make_param(A, 1)));
      body.push_back(make_assign_comp(
          A, AssignOp::Add,
          make_bin(A, BinOp::Mul, make_call(A, MathFn::Sin, make_param(A, 1)),
                   make_param(A, 1))));
      break;
    case HygieneShape::Loop: {
      const std::vector<StmtId> loop{
          make_assign_comp(A, AssignOp::Div, make_param(A, 1))};
      body.push_back(make_for(A, 0, 2, loop));
      body.push_back(make_assign_comp(A, AssignOp::Mul, make_literal(A, 1.125)));
      break;
    }
    case HygieneShape::Trap: {
      const std::vector<StmtId> guarded{
          make_store_array(A, 1, make_literal(A, 0.0), make_literal(A, 1.0))};
      body.push_back(make_if(
          A, make_cmp(A, CmpOp::Ne, make_param(A, 1), make_literal(A, 0.0)),
          guarded));
      body.push_back(make_assign_comp(A, AssignOp::Add, make_literal(A, 2.0)));
      break;
    }
    case HygieneShape::ThrowingCall:
      body.push_back(make_assign_comp(
          A, AssignOp::Add, make_call(A, static_cast<MathFn>(200), make_param(A, 1))));
      break;
  }
  return Program(precision, std::move(params), std::move(A), std::move(body));
}

TEST(Bytecode, ExecutionLeavesFpStateClean) {
  // Both backends x precision x shape: if the upper YMM halves are clean
  // before a batch they are clean after it, however the batch ends
  // (return, trap, throw), and the MXCSR control bits are unchanged.
  // Hosts that cannot report XINUSE skip.
  if (support::upper_ymm_state() == support::UpperYmm::Unknown)
    GTEST_SKIP() << "XGETBV(1) unavailable: upper-YMM state cannot be read";
  clear_upper_ymm();
  if (support::upper_ymm_state() != support::UpperYmm::Clean)
    GTEST_SKIP() << "VZEROUPPER did not clear XINUSE bit 2 on this host";

  // Subnormals (both precisions), zeros, infinities and NaN reach the
  // soft-float and library paths as well as plain arithmetic.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {0.5, -3.0,  1e-310, 100.0, -1e300, 0.0,     1e308, kNan,
                           2.0, 1e-40, -0.0,   kInf,  3.5,    -1e-320, 7.0,   1.0};
  const std::pair<const char*, vgpu::ExecBackend> backends[] = {
      {"tree", vgpu::ExecBackend::TreeWalk}, {"vm", vgpu::ExecBackend::Bytecode}};

  for (const Precision precision : {Precision::FP32, Precision::FP64}) {
    for (const HygieneShape shape :
         {HygieneShape::Straight, HygieneShape::Loop, HygieneShape::Trap,
          HygieneShape::ThrowingCall}) {
      const opt::Executable exe = compile_o0(hygiene_program(precision, shape));
      std::vector<vgpu::KernelArgs> inputs;
      for (std::size_t i = 0; i < std::size(values); ++i) {
        double x = values[i];
        if (shape == HygieneShape::Trap) x = i == 9 ? 1.0 : 0.0;
        vgpu::KernelArgs args;
        args.fp = {1.5, x, 0.0};
        args.ints = {0, 0, static_cast<int>(i % 5)};  // trip counts 0..4
        inputs.push_back(args);
      }
      const bool throws =
          shape == HygieneShape::Trap || shape == HygieneShape::ThrowingCall;
      for (const auto& [name, backend] : backends) {
        const std::string where =
            std::string(name) +
            (precision == Precision::FP32 ? " FP32 " : " FP64 ") + to_string(shape);
        vgpu::set_exec_backend(backend);
        std::vector<vgpu::RunResult> out(inputs.size());
        vgpu::ExecContext ctx;
        clear_upper_ymm();
        const unsigned mxcsr = read_mxcsr_control();
        bool threw = false;
        try {
          vgpu::run_kernel_batch(exe, inputs, out.data(), ctx);
        } catch (const std::exception&) {
          threw = true;
        }
        const support::UpperYmm after = support::upper_ymm_state();
        const unsigned mxcsr_after = read_mxcsr_control();
        vgpu::set_exec_backend(vgpu::ExecBackend::Bytecode);
        EXPECT_EQ(threw, throws) << where;
        EXPECT_EQ(after, support::UpperYmm::Clean)
            << where << ": upper YMM halves left dirty";
        EXPECT_EQ(mxcsr_after, mxcsr) << where << ": MXCSR control bits changed";
      }
    }
  }
}

TEST(Bytecode, CompiledProgramIsCachedOnExecutable) {
  gen::GenConfig cfg;
  const gen::Generator generator(cfg, 7);
  const opt::Executable exe = opt::compile(
      generator.generate(0), {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  ASSERT_NE(exe.bytecode_cache, nullptr);  // built eagerly by compile()
  const vgpu::BytecodeProgram* first = &exe.bytecode();
  EXPECT_EQ(first, &exe.bytecode());  // stable across calls
  const opt::Executable copy = exe;   // copies share the lowering
  EXPECT_EQ(copy.bytecode_cache.get(), exe.bytecode_cache.get());
}

}  // namespace
