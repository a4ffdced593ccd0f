// google-benchmark harness for the framework itself: generation, virtual
// compilation, kernel execution (bytecode VM and tree-walk oracle), the
// campaign driver, and the vendor math libraries (including the
// from-scratch Payne-Hanek reduction and both fmod algorithms).
//
// Run from a Release build and record a JSON trajectory point:
//   cmake --preset release && cmake --build --preset release --target bench
//   ./build-release/bench/perf_framework \
//       --benchmark_out=BENCH_$(git rev-parse --short HEAD).json \
//       --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <filesystem>
#include <thread>

#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/transport.hpp"
#include "diff/campaign.hpp"
#include "diff/runner.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "opt/pipeline.hpp"
#include "opt/platform.hpp"
#include "reduce/reduce.hpp"
#include "store/store.hpp"
#include "support/cpu.hpp"
#include "support/json.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"
#include "vmath/core/kernels.hpp"
#include "vmath/mathlib.hpp"

namespace {

using namespace gpudiff;

void BM_GenerateProgram(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.generate(i++ % 4096));
  }
}
BENCHMARK(BM_GenerateProgram);

void BM_CompileO3(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  const ir::Program p = g.generate(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::compile(p, {opt::Toolchain::Hipcc, opt::OptLevel::O3, false}));
  }
}
BENCHMARK(BM_CompileO3);

void BM_RunKernel(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  const auto args = ig.generate(p, 7, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::run_kernel(exe, args));
  }
}
BENCHMARK(BM_RunKernel);

void BM_RunKernelBytecode(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  const auto args = ig.generate(p, 7, 0);
  vgpu::ExecContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exe.bytecode().run(args, ctx));
  }
}
BENCHMARK(BM_RunKernelBytecode);

void BM_RunKernelTreeWalk(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  const auto args = ig.generate(p, 7, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::run_kernel_tree(exe, args));
  }
}
BENCHMARK(BM_RunKernelTreeWalk);

void BM_CompileBytecode(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false});
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::compile_bytecode(exe.program, exe.env, exe.mathlib));
  }
}
BENCHMARK(BM_CompileBytecode);

/// Generation + full per-level compilation (5 levels x 2 toolchains), the
/// per-program cost a campaign pays before any input runs.  The arena IR
/// is what this measures: program copies are flat pool copies and passes
/// allocate into the pool instead of cloning subtrees.
void BM_GenerateAndCompile(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const ir::Program p = g.generate(i++ % 4096);
    for (auto level : opt::kAllOptLevels) {
      benchmark::DoNotOptimize(diff::compile_pair(p, level, false));
    }
  }
}
BENCHMARK(BM_GenerateAndCompile)->Unit(benchmark::kMicrosecond);

/// Batched input sweep: all of a program's inputs through one VM
/// invocation loop per platform (diff::compare_batch), vs the per-input
/// compare_run loop it replaces in the campaign driver.
void BM_BatchedSweep(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(11);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 32; ++ii) inputs.push_back(ig.generate(p, 11, ii));
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_batch(pair, inputs));
  }
}
BENCHMARK(BM_BatchedSweep)->Unit(benchmark::kMicrosecond);

/// The same sweep over a generated program with a stored-to array
/// parameter: the shape the lazy array materialization targets (the
/// per-input 256-element broadcast is hoisted; the extent-wide fill only
/// happens if a store executes).  Program 2 of seed 42 carries a guarded
/// array store.
void BM_BatchedSweepStoredArray(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(2);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 32; ++ii) inputs.push_back(ig.generate(p, 2, ii));
  diff::SweepContext sweep;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_batch(pair, inputs, sweep));
  }
}
BENCHMARK(BM_BatchedSweepStoredArray)->Unit(benchmark::kMicrosecond);

/// Marginal cost of widening the platform set: the same 32-input sweep
/// against the first N registry platforms (N = 2 is the paper pair).  Per
/// comparison the runner executes one VM loop per platform, so wall time
/// should scale linearly in N — the per-platform marginal cost the
/// registry refactor promises to keep flat.
void BM_CompareNWay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& registry = opt::platform_registry();
  const std::vector<opt::PlatformSpec> specs(registry.begin(),
                                             registry.begin() + n);
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(11);
  const auto set = diff::compile_set(p, specs, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 32; ++ii) inputs.push_back(ig.generate(p, 11, ii));
  diff::SweepContext sweep;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_batch(set, inputs, sweep));
  }
}
BENCHMARK(BM_CompareNWay)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMicrosecond);

/// Engine axis for the SIMD benchmarks: 0=off 1=scalar1 2=scalar 3=avx2.
support::SimdOverride bench_engine(std::int64_t arg) {
  switch (arg) {
    case 0: return support::SimdOverride::Off;
    case 1: return support::SimdOverride::Scalar1;
    case 2: return support::SimdOverride::Scalar;
    default: return support::SimdOverride::Avx2;
  }
}

/// Pin the lane engine for one benchmark run; restores on destruction.
/// Returns false (and skips the benchmark) when the engine cannot run on
/// this host/build, so the JSON trajectory stays comparable across hosts.
struct BenchEngine {
  explicit BenchEngine(benchmark::State& state)
      : saved(support::simd_override()) {
    const support::SimdOverride mode = bench_engine(state.range(0));
    support::set_simd_override(mode);
    try {
      (void)vgpu::simd_engine();
      state.SetLabel(support::to_string(mode));
      ok = true;
    } catch (const std::exception&) {
      state.SkipWithError("engine unavailable on this host");
    }
  }
  ~BenchEngine() { support::set_simd_override(saved); }
  const support::SimdOverride saved;
  bool ok = false;
};

/// Raw batched VM throughput per lane engine: 32 inputs through
/// run_kernel_batch on one compiled platform, no diff layer — the
/// speedup here is the lane engine itself.
void BM_RunBatchSimd(benchmark::State& state) {
  BenchEngine engine(state);
  if (!engine.ok) return;
  // Both precisions, like a campaign sweep: fp64 groups are 4 lanes wide
  // and fp32 groups 8, so the pair prices the engine at both widths.
  struct Leg {
    opt::Executable exe;
    std::vector<vgpu::KernelArgs> inputs;
    std::vector<vgpu::RunResult> out;
  };
  std::vector<Leg> legs;
  for (const auto prec : {ir::Precision::FP64, ir::Precision::FP32}) {
    gen::GenConfig cfg;
    cfg.precision = prec;
    gen::Generator g(cfg, 42);
    gen::InputGenerator ig(42);
    const ir::Program p = g.generate(11);
    Leg leg{opt::compile(p, {opt::Toolchain::Nvcc, opt::OptLevel::O2, false}),
            {}, {}};
    for (int ii = 0; ii < 32; ++ii) leg.inputs.push_back(ig.generate(p, 11, ii));
    leg.out.resize(leg.inputs.size());
    legs.push_back(std::move(leg));
  }
  for (auto _ : state) {
    for (Leg& leg : legs) {
      vgpu::run_kernel_batch(leg.exe, leg.inputs, leg.out.data());
      benchmark::DoNotOptimize(leg.out.data());
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RunBatchSimd)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

/// BM_BatchedSweep with the engine pinned per run: the campaign-shaped
/// sweep (compare_batch, both pair platforms) under each lane engine.
/// Identical workload to BM_BatchedSweep, so off-vs-avx2 here is the
/// end-to-end campaign speedup of the SIMD PR.
void BM_BatchedSweepSimd(benchmark::State& state) {
  BenchEngine engine(state);
  if (!engine.ok) return;
  // Both precisions through the pair sweep — the campaign runs fp64 and
  // fp32 programs alike, so the off-vs-avx2 ratio here is the end-to-end
  // speedup a campaign sees on lane-friendly programs.
  struct Leg {
    diff::CompiledSet pair;
    std::vector<vgpu::KernelArgs> inputs;
  };
  std::vector<Leg> legs;
  for (const auto prec : {ir::Precision::FP64, ir::Precision::FP32}) {
    gen::GenConfig cfg;
    cfg.precision = prec;
    gen::Generator g(cfg, 42);
    gen::InputGenerator ig(42);
    const ir::Program p = g.generate(11);
    Leg leg{diff::compile_pair(p, opt::OptLevel::O2), {}};
    for (int ii = 0; ii < 32; ++ii) leg.inputs.push_back(ig.generate(p, 11, ii));
    legs.push_back(std::move(leg));
  }
  diff::SweepContext sweep;
  for (auto _ : state) {
    for (Leg& leg : legs)
      benchmark::DoNotOptimize(diff::compare_batch(leg.pair, leg.inputs, sweep));
  }
}
BENCHMARK(BM_BatchedSweepSimd)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

void BM_UnbatchedSweep(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(11);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs;
  for (int ii = 0; ii < 32; ++ii) inputs.push_back(ig.generate(p, 11, ii));
  for (auto _ : state) {
    for (const auto& args : inputs)
      benchmark::DoNotOptimize(diff::compare_run(pair, args));
  }
}
BENCHMARK(BM_UnbatchedSweep)->Unit(benchmark::kMicrosecond);

/// End-to-end campaign shape: programs x inputs x all 5 levels, single
/// thread (deterministic work, no scheduler noise in the measurement).
void BM_CampaignSmall(benchmark::State& state) {
  diff::CampaignConfig cfg;
  cfg.num_programs = 16;
  cfg.inputs_per_program = 4;
  cfg.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::run_campaign(cfg));
  }
}
BENCHMARK(BM_CampaignSmall)->Unit(benchmark::kMillisecond);

/// The same campaign as BM_CampaignSmall carved into N leases, each run on
/// its own std::thread (single-threaded internally — the scale-out shape
/// where a lease worker is one machine), then merged.  Compares against
/// BM_CampaignSmall to price the orchestration layer and show the
/// lease-level speedup.
void BM_CampaignSharded(benchmark::State& state) {
  const int leases = static_cast<int>(state.range(0));
  diff::CampaignConfig cfg;
  cfg.num_programs = 16;
  cfg.inputs_per_program = 4;
  cfg.threads = 1;
  const support::Json echo = campaign::config_to_json(cfg);
  for (auto _ : state) {
    std::vector<campaign::ResultBlock> blocks(static_cast<std::size_t>(leases));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(leases));
    for (int k = 0; k < leases; ++k) {
      workers.emplace_back([&, k] {
        const auto [begin, end] =
            campaign::lease_range(cfg.num_programs, leases, k);
        diff::RangeOutcome out = diff::run_campaign_range(cfg, begin, end);
        campaign::ResultBlock& block = blocks[static_cast<std::size_t>(k)];
        block.config_echo = echo;
        block.begin = begin;
        block.end = end;
        block.per_level = std::move(out.per_level);
        block.records = std::move(out.records);
      });
    }
    for (auto& w : workers) w.join();
    benchmark::DoNotOptimize(campaign::merge_blocks(echo, std::move(blocks)));
  }
}
BENCHMARK(BM_CampaignSharded)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// Claim-path cost of the work-stealing scheduler: one
/// claim + heartbeat + release cycle against the shared lease directory,
/// no program execution.  This is the filesystem-protocol overhead a
/// worker pays per lease on top of run_campaign_range, and it bounds how
/// fine --lease-size can go before coordination dominates.
void BM_SchedulerOverhead(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() / "gpudiff_bm_scheduler";
  std::filesystem::remove_all(dir);
  diff::CampaignConfig cfg;
  cfg.num_programs = 64;
  campaign::LeaseBoard board(dir.string(), "bench");
  board.publish_or_verify_manifest(campaign::config_to_json(cfg), 1,
                                   campaign::lease_count(64, 1));
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(board.try_claim(k));
    board.heartbeat(k);
    board.release(k);
    k = (k + 1) % 64;
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SchedulerOverhead)->Unit(benchmark::kMicrosecond);

/// The same claim + heartbeat + release cycle over the TCP coordinator on
/// localhost (in-process server, real sockets, line-framed JSON) — the
/// network transport's per-lease coordination price next to
/// BM_SchedulerOverhead's ~21µs filesystem number.  Three request
/// round-trips per iteration; the dominant term is not the wire but the
/// coordinator's durability: every claim transition is persisted with an
/// fsync'd write-then-rename, so wall time is disk-bound (hundreds of
/// microseconds) while CPU stays in the tens of microseconds.  Heartbeats
/// are memory-only by design and cost just the round-trip.
void BM_LeaseCycleTcp(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "gpudiff_bm_coord";
  const auto journal =
      std::filesystem::temp_directory_path() / "gpudiff_bm_coord_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(journal);
  diff::CampaignConfig cfg;
  cfg.num_programs = 64;
  campaign::CoordinatorOptions copts;
  copts.dir = dir.string();
  campaign::Coordinator coordinator(copts);
  coordinator.start();
  campaign::TcpTransportOptions topts;
  topts.host = "127.0.0.1";
  topts.port = coordinator.port();
  topts.worker_id = "bench";
  topts.journal_dir = journal.string();
  campaign::TcpLeaseTransport transport(std::move(topts));
  transport.publish_or_verify_manifest(campaign::config_to_json(cfg), 1,
                                       campaign::lease_count(64, 1));
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.try_claim(k));
    transport.heartbeat(k);
    transport.release(k);
    k = (k + 1) % 64;
  }
  coordinator.stop();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(journal);
}
BENCHMARK(BM_LeaseCycleTcp)->Unit(benchmark::kMicrosecond);

void BM_FullComparison(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(11);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O3_FastMath);
  const auto args = ig.generate(p, 11, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_run(pair, args));
  }
}
BENCHMARK(BM_FullComparison);

void BM_SinMediumRange(benchmark::State& state) {
  double x = 12345.678;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vmath::core::sin64(x, vmath::core::ReduceStyle::CodyWaite3));
    x += 1.0;
  }
}
BENCHMARK(BM_SinMediumRange);

void BM_SinPayneHanek(benchmark::State& state) {
  double x = 1.0e300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vmath::core::sin64(x, vmath::core::ReduceStyle::CodyWaite3));
    x *= 1.0000001;
    if (x > 1.6e308) x = 1.0e300;
  }
}
BENCHMARK(BM_SinPayneHanek);

void BM_FmodExact(benchmark::State& state) {
  double x = 1.59e289;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmath::core::fmod_exact(x, 1.5793e-307));
    x *= 1.0000001;
  }
}
BENCHMARK(BM_FmodExact);

void BM_FmodNvChunked(benchmark::State& state) {
  const auto& lib = vmath::nv_libdevice();
  double x = 1.59e289;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lib.call64(ir::MathFn::Fmod, x, 1.5793e-307));
    x *= 1.0000001;
  }
}
BENCHMARK(BM_FmodNvChunked);

void BM_Exp64(benchmark::State& state) {
  double x = -700.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmath::core::exp64(x));
    x += 0.001;
    if (x > 700.0) x = -700.0;
  }
}
BENCHMARK(BM_Exp64);

void BM_FastSinf(benchmark::State& state) {
  const auto& lib = vmath::nv_fast();
  float x = 0.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lib.call32(ir::MathFn::Sin, x));
    x += 0.01f;
  }
}
BENCHMARK(BM_FastSinf);

/// A small v2 campaign report (embedded config + fingerprint) written to
/// disk once, shared by the store benchmarks below.
const std::string& store_bench_report() {
  static const std::string path = [] {
    diff::CampaignConfig cfg;
    cfg.num_programs = 16;
    cfg.inputs_per_program = 4;
    cfg.threads = 1;
    const support::Json echo = campaign::config_to_json(cfg);
    const support::Json report =
        campaign::results_to_json(diff::run_campaign(cfg), &echo);
    const std::string p =
        (std::filesystem::temp_directory_path() / "gpudiff_bench_report.json")
            .string();
    support::write_file(p, report.dump(1) + "\n");
    return p;
  }();
  return path;
}

/// Ingest cost per commit: one campaign report folded into a population
/// document plus its atomic write (the CI trend-gate hot path).
void BM_StoreIngest(benchmark::State& state) {
  const std::string db =
      (std::filesystem::temp_directory_path() / "gpudiff_bench_store_ingest")
          .string();
  std::filesystem::remove_all(db);
  const std::string& report = store_bench_report();
  long long commit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store::ingest(db, "c" + std::to_string(commit++), {report}));
  }
  std::filesystem::remove_all(db);
}
BENCHMARK(BM_StoreIngest)->Unit(benchmark::kMicrosecond);

/// Query cost over a loaded index: the three query shapes gpudiff-serve
/// answers (summary, trend, cross-commit diff) over 8 ingested commits.
void BM_StoreQuery(benchmark::State& state) {
  const std::string db =
      (std::filesystem::temp_directory_path() / "gpudiff_bench_store_query")
          .string();
  std::filesystem::remove_all(db);
  const std::string& report = store_bench_report();
  for (int i = 0; i < 8; ++i)
    store::ingest(db, "c" + std::to_string(i), {report});
  const store::StoreIndex index = store::load_store(db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::summary(index));
    benchmark::DoNotOptimize(store::trend(index));
    benchmark::DoNotOptimize(store::diff_commits(index, "c0", "c7"));
  }
  std::filesystem::remove_all(db);
}
BENCHMARK(BM_StoreQuery)->Unit(benchmark::kMicrosecond);

/// One full delta-debugging reduction of a discrepant record — ddmin,
/// flatten/constfold/hoist/polish to fixpoint, sensitivity probe — the
/// per-record cost of --reduce-exemplars and the reduce-drill CI job.
void BM_ReduceRecord(benchmark::State& state) {
  diff::CampaignConfig cfg;
  cfg.seed = 1234;
  cfg.num_programs = 60;
  cfg.inputs_per_program = 3;
  cfg.platforms = opt::parse_platform_list("nvcc,hipcc");
  reduce::RecordRef ref;
  if (!reduce::parse_record_key("8:2:O3", &ref)) {
    state.SkipWithError("bad record key");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce::reduce_record(cfg, ref));
  }
}
BENCHMARK(BM_ReduceRecord)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
