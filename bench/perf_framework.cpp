// google-benchmark harness for the framework itself: generation, virtual
// compilation, kernel execution (bytecode VM and tree-walk oracle), the
// campaign driver, and the vendor math libraries (including the
// from-scratch Payne-Hanek reduction and both fmod algorithms).
//
// Run from a Release build and record a JSON trajectory point:
//   cmake --preset release && cmake --build --preset release --target bench
//   out=BENCH_$(git rev-parse --short HEAD).json
//   ./build-release/bench/perf_framework --benchmark_out=$out --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
#include "support/json.hpp"
#include "support/rng.hpp"
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
        opt::compile(p, *opt::find_platform("hipcc"), opt::OptLevel::O3));
  }
}
BENCHMARK(BM_CompileO3);

void BM_RunKernel(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, *opt::find_platform("nvcc"), opt::OptLevel::O2);
  const auto args = ig.generate(p, 7, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::run_kernel(exe, args));
  }
}
BENCHMARK(BM_RunKernel);

void BM_RunKernelTreeWalk(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(7);
  const auto exe = opt::compile(p, *opt::find_platform("nvcc"), opt::OptLevel::O2);
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
  const auto exe = opt::compile(p, *opt::find_platform("nvcc"), opt::OptLevel::O2);
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

/// diverse's compile work per program: one program through compile_set at
/// all five levels on the registry's four platforms, a new program from a
/// pool of 64 each iteration (generated up front, as BM_SweepAllLevels
/// does).  nvcc and nvcc-fastmath share their O0 and O3 fast-math
/// pipelines, so 18 of the 20 (level, platform) pairs compile.
void BM_CompileSweep(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  std::vector<ir::Program> programs;
  for (std::uint64_t pi = 0; pi < 64; ++pi) programs.push_back(g.generate(pi));
  const auto platforms =
      opt::parse_platform_list("nvcc,hipcc,hipcc-ftz,nvcc-fastmath");
  std::size_t next = 0;
  for (auto _ : state) {
    const ir::Program& p = programs[next++ % programs.size()];
    for (const auto level : opt::kAllOptLevels)
      benchmark::DoNotOptimize(diff::compile_set(p, platforms, level));
  }
}
BENCHMARK(BM_CompileSweep)->Unit(benchmark::kMicrosecond);

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

/// Two 32-input sets for one program, to alternate between: a persistent
/// SweepContext copies the results of a kernel it already ran on the same
/// input set (vgpu::BatchReuse), so re-running one (kernel, inputs) pair
/// would time a table lookup instead of the sweep.
void make_input_sets(const gen::InputGenerator& ig, const ir::Program& p,
                     std::uint64_t program_index,
                     std::vector<vgpu::KernelArgs> (&sets)[2]) {
  for (int set = 0; set < 2; ++set) {
    sets[set].clear();
    for (int ii = 0; ii < 32; ++ii)
      sets[set].push_back(ig.generate(p, program_index, 32 * set + ii));
  }
}

/// The same sweep over a generated program with a stored-to array
/// parameter: the shape the lazy array materialization targets (the
/// per-input 256-element broadcast is hoisted; the extent-wide fill only
/// happens if a store executes).  Program 2 of seed 42 carries a guarded
/// array store.  Alternates between two input sets (see make_input_sets).
void BM_BatchedSweepStoredArray(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  const ir::Program p = g.generate(2);
  const auto pair = diff::compile_pair(p, opt::OptLevel::O2);
  std::vector<vgpu::KernelArgs> inputs[2];
  make_input_sets(ig, p, 2, inputs);
  diff::SweepContext sweep;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_batch(pair, inputs[i++ % 2], sweep));
  }
}
BENCHMARK(BM_BatchedSweepStoredArray)->Unit(benchmark::kMicrosecond);

/// Marginal cost of widening the platform set: the same 32-input sweep
/// against the first N registry platforms (N = 2 is the paper pair).  Per
/// comparison the runner executes one VM loop per platform, so wall time
/// should scale linearly in N — the per-platform marginal cost the
/// registry refactor promises to keep flat.  Alternates between two input
/// sets (see make_input_sets).
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
  std::vector<vgpu::KernelArgs> inputs[2];
  make_input_sets(ig, p, 11, inputs);
  diff::SweepContext sweep;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::compare_batch(set, inputs[i++ % 2], sweep));
  }
}
BENCHMARK(BM_CompareNWay)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMicrosecond);

/// Raw batched VM throughput: 32 inputs through BytecodeProgram::run_batch
/// (which never copies a result) on one compiled platform, no diff layer,
/// in both precisions like a campaign sweep.
void BM_RunBatch(benchmark::State& state) {
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
    Leg leg{opt::compile(p, *opt::find_platform("nvcc"), opt::OptLevel::O2),
            {}, {}};
    for (int ii = 0; ii < 32; ++ii) leg.inputs.push_back(ig.generate(p, 11, ii));
    leg.out.resize(leg.inputs.size());
    legs.push_back(std::move(leg));
  }
  vgpu::ExecContext ctx;
  for (auto _ : state) {
    for (Leg& leg : legs) {
      leg.exe.bytecode().run_batch(leg.inputs, ctx, leg.out.data());
      benchmark::DoNotOptimize(leg.out.data());
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RunBatch)->Unit(benchmark::kMicrosecond);

/// The campaign-shaped sweep (compare_batch, both pair platforms) over an
/// FP64 and an FP32 program.  The two legs bring different input sets, so
/// every call misses the batch-reuse table: this prices the miss path
/// (input compare and forget) on top of execution.
void BM_BatchedSweepReuseMiss(benchmark::State& state) {
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
BENCHMARK(BM_BatchedSweepReuseMiss)->Unit(benchmark::kMicrosecond);

/// A campaign's per-program sweep: one program's five levels on the
/// paper pair over 7 inputs through one persistent SweepContext, a new
/// program each iteration (all compiled up front).  O1, O2 and O3 usually
/// lower to one kernel per toolchain, so run_kernel_batch runs each
/// distinct kernel once and copies the rest: the shape batch reuse is for.
void BM_SweepAllLevels(benchmark::State& state) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 42);
  gen::InputGenerator ig(42);
  struct Sweep {
    std::vector<diff::CompiledSet> levels;
    std::vector<vgpu::KernelArgs> inputs;
  };
  std::vector<Sweep> programs;
  for (std::uint64_t pi = 0; pi < 64; ++pi) {
    const ir::Program p = g.generate(pi);
    Sweep program;
    for (const auto level : opt::kAllOptLevels)
      program.levels.push_back(diff::compile_pair(p, level));
    for (int ii = 0; ii < 7; ++ii) program.inputs.push_back(ig.generate(p, pi, ii));
    programs.push_back(std::move(program));
  }
  diff::SweepContext sweep;
  std::size_t next = 0;
  for (auto _ : state) {
    const Sweep& program = programs[next++ % programs.size()];
    for (const diff::CompiledSet& set : program.levels)
      benchmark::DoNotOptimize(diff::compare_batch(set, program.inputs, sweep));
  }
}
BENCHMARK(BM_SweepAllLevels)->Unit(benchmark::kMicrosecond);

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
  campaign::FsLeaseTransport board(dir.string(), "bench");
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

/// Claim + heartbeat + release cycles of `clients` TCP workers on one
/// coordinator on localhost (in-process server, real sockets, line-framed
/// JSON), each on its own thread with its own 64 leases.  The benchmark
/// thread is client 0 and the others cycle until it is done, so one
/// iteration is one cycle of client 0 under the load of the rest.
void lease_cycles_tcp(benchmark::State& state, int clients) {
  const auto dir = std::filesystem::temp_directory_path() / "gpudiff_bm_coord";
  const auto journal =
      std::filesystem::temp_directory_path() / "gpudiff_bm_coord_journal";
  std::filesystem::remove_all(dir);
  diff::CampaignConfig cfg;
  cfg.num_programs = 64 * clients;
  campaign::CoordinatorOptions copts;
  copts.dir = dir.string();
  campaign::Coordinator coordinator(copts);
  coordinator.start();
  const auto connect = [&](int client) {
    campaign::TcpTransportOptions topts;
    topts.host = "127.0.0.1";
    topts.port = coordinator.port();
    topts.worker_id = "bench-" + std::to_string(client);
    topts.journal_dir = journal.string() + std::to_string(client);
    auto transport =
        std::make_unique<campaign::TcpLeaseTransport>(std::move(topts));
    transport->publish_or_verify_manifest(
        campaign::config_to_json(cfg), 1,
        campaign::lease_count(cfg.num_programs, 1));
    return transport;
  };
  const auto cycle = [](campaign::LeaseTransport& transport, int k) {
    benchmark::DoNotOptimize(transport.try_claim(k));
    transport.heartbeat(k);
    transport.release(k);
  };
  std::atomic<int> connected{0};
  std::atomic<bool> finished{false};
  std::vector<std::thread> peers;
  for (int c = 1; c < clients; ++c)
    peers.emplace_back([&, c] {
      const auto transport = connect(c);
      ++connected;
      for (int k = 0; !finished.load(); k = (k + 1) % 64)
        cycle(*transport, 64 * c + k);
    });
  const auto transport = connect(0);
  while (connected.load() < clients - 1) std::this_thread::yield();
  int k = 0;
  for (auto _ : state) {
    cycle(*transport, k);
    k = (k + 1) % 64;
  }
  finished = true;
  for (std::thread& peer : peers) peer.join();
  coordinator.stop();
  std::filesystem::remove_all(dir);
  for (int c = 0; c < clients; ++c)
    std::filesystem::remove_all(journal.string() + std::to_string(c));
}

/// The same claim + heartbeat + release cycle over the TCP coordinator —
/// the network transport's per-lease coordination price next to
/// BM_SchedulerOverhead's ~21µs filesystem number.  Three request
/// round-trips per iteration, each answered by the same filesystem board
/// operation BM_SchedulerOverhead times; the dominant term is neither but
/// the coordinator's durability: every claim it grants is fsynced, file
/// and directory, so wall time is disk-bound (hundreds of microseconds)
/// while CPU stays in the tens of microseconds.  A heartbeat is an mtime
/// touch and a release an unlink, neither synced.
void BM_LeaseCycleTcp(benchmark::State& state) { lease_cycles_tcp(state, 1); }
BENCHMARK(BM_LeaseCycleTcp)->Unit(benchmark::kMicrosecond);

/// BM_LeaseCycleTcp with two more clients cycling their own leases: about
/// BM_LeaseCycleTcp's time when the coordinator serves workers at once,
/// up to three times it when one client's fsyncs stall the others.
void BM_LeaseCycleTcpThreeClients(benchmark::State& state) {
  lease_cycles_tcp(state, 3);
}
BENCHMARK(BM_LeaseCycleTcpThreeClients)->Unit(benchmark::kMicrosecond);

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

/// A fixed, seeded table of inputs for the scalar math benchmarks to cycle
/// over, so the measured input range does not depend on the iteration
/// count.  Log-uniform in [lo, hi) when `log_scale`, uniform otherwise.
constexpr std::size_t kInputTableSize = 1024;  // power of two: i & (size - 1)

std::vector<double> input_table(std::uint64_t seed, double lo, double hi,
                                bool log_scale) {
  support::Rng rng(seed);
  std::vector<double> xs(kInputTableSize);
  for (double& x : xs)
    x = log_scale ? lo * std::pow(hi / lo, rng.uniform01()) : rng.uniform(lo, hi);
  return xs;
}

/// The fmod case study's dividend range: one binade from x = 1.59e289, so
/// every input takes the same ~1980-bit quotient walk against 1.5793e-307.
std::vector<double> fmod_dividends() { return input_table(4, 1.59e289, 3.18e289, true); }

void BM_SinMediumRange(benchmark::State& state) {
  // Cody-Waite reduction only: |x| stays below 2^20 * pi/2.
  const std::vector<double> xs = input_table(1, 1.0e4, 1.0e6, false);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vmath::core::sin64(xs[i++ & (kInputTableSize - 1)],
                           vmath::core::ReduceStyle::CodyWaite3));
  }
}
BENCHMARK(BM_SinMediumRange);

void BM_SinPayneHanek(benchmark::State& state) {
  const std::vector<double> xs = input_table(2, 1.0e300, 1.6e308, true);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vmath::core::sin64(xs[i++ & (kInputTableSize - 1)],
                           vmath::core::ReduceStyle::CodyWaite3));
  }
}
BENCHMARK(BM_SinPayneHanek);

void BM_FmodExact(benchmark::State& state) {
  const std::vector<double> xs = fmod_dividends();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vmath::core::fmod_exact(xs[i++ & (kInputTableSize - 1)], 1.5793e-307));
  }
}
BENCHMARK(BM_FmodExact);

void BM_FmodNvChunked(benchmark::State& state) {
  const auto& lib = vmath::nv_libdevice();
  const std::vector<double> xs = fmod_dividends();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lib.call64(ir::MathFn::Fmod, xs[i++ & (kInputTableSize - 1)], 1.5793e-307));
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
  std::vector<float> xs;
  for (const double x : input_table(3, -1.0e3, 1.0e3, false))
    xs.push_back(static_cast<float>(x));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lib.call32(ir::MathFn::Sin, xs[i++ & (kInputTableSize - 1)]));
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
