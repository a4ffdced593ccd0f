#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/shard.hpp"
#include "campaign/transport.hpp"
#include "diff/runner.hpp"
#include "fp/classify.hpp"
#include "fp/hexfloat.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "opt/platform.hpp"
#include "reduce/bundle.hpp"
#include "reduce/reduce.hpp"
#include "store/store.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace campaign = gpudiff::campaign;
namespace diff = gpudiff::diff;
namespace fp = gpudiff::fp;
namespace gen = gpudiff::gen;
namespace ir = gpudiff::ir;
namespace opt = gpudiff::opt;
namespace reduce = gpudiff::reduce;
namespace store = gpudiff::store;
namespace support = gpudiff::support;
namespace vgpu = gpudiff::vgpu;

namespace {

constexpr int kFleetWorkers = 3;
/// gpudiff-campaign's --max-exemplars default (the store's population rule).
constexpr int kMaxExemplars = 5;
/// Evaluations cross-checked against the tree oracle per campaign.
constexpr int kOracleSamples = 48;
constexpr int kWarmPrograms = 16;
constexpr std::uint64_t kWarmSeed = 42;
const char* const kStoreCommit = "bench";

diff::CampaignConfig make_config(std::uint64_t seed, int programs, int inputs,
                                 ir::Precision precision) {
  diff::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.num_programs = programs;
  cfg.inputs_per_program = inputs;
  cfg.gen.precision = precision;
  cfg.threads = 1;
  return cfg;
}

/// What an iteration leaves behind for the off-clock checks.
struct Outputs {
  std::vector<diff::CampaignResults> results;  ///< per campaign
  std::vector<std::string> reports;            ///< report file per campaign
  support::Json summary;                       ///< store summary query
  std::vector<support::Json> drilldowns;       ///< per (population, pair)
  // Fleet only.
  support::Json echo;  ///< config fingerprint of the coordinator's manifest
  std::string bundle_dir;
  std::size_t reduced = 0;  ///< bundles written
  std::vector<campaign::WorkerOutcome> outcomes;
};

/// diff::PlatformResult of one VM run (the runner's own conversion).
diff::PlatformResult platform_result(const vgpu::RunResult& run, bool fp32) {
  diff::PlatformResult out;
  out.value = run.value;
  out.bits = run.value_bits;
  out.flags = run.flags;
  out.op_count = run.op_count;
  out.outcome =
      fp32 ? fp::outcome_of(fp::from_bits<float>(
                 static_cast<std::uint32_t>(run.value_bits)))
           : fp::outcome_of(fp::from_bits<double>(run.value_bits));
  return out;
}

/// The single-process campaign (run_shard 0/1 over run_campaign_range),
/// re-driven call by call so each layer gets its own span.  Returns the
/// shard state run_shard would return; merge_shards turns it into results.
/// This is a copy of diff::run_campaign_range's loop (compare_batch split
/// into run_kernel_batch and classify_pair): when that function changes,
/// change this one with it.  The traced run's digest and trace.overhead
/// checks catch a copy that no longer does the same work.
campaign::ShardProgress traced_campaign(const diff::CampaignConfig& config,
                                        Trace* trace, LayerCounts& counts) {
  const std::size_t n_platforms = config.platforms.size();
  const bool fp32 = config.gen.precision == ir::Precision::FP32;
  const gen::Generator generator(config.gen, config.seed);
  const gen::InputGenerator input_gen(config.seed);

  campaign::ShardProgress progress;
  progress.config_echo = campaign::config_to_json(config);
  progress.end = progress.cursor =
      static_cast<std::uint64_t>(config.num_programs);
  progress.per_level.assign(config.levels.size(),
                            diff::LevelStats::zero(n_platforms));

  vgpu::ExecContext exec;
  std::vector<std::vector<vgpu::RunResult>> runs(n_platforms);
  std::vector<diff::ComparisonResult> cmps;
  std::vector<vgpu::KernelArgs> inputs;

  for (std::uint64_t pi = 0; pi < progress.end; ++pi) {
    ir::Program program;
    {
      Scope span(trace, "gen.generate");
      program = generator.generate(pi);
    }
    ++counts.programs;
    counts.ir_nodes += program.node_count();
    {
      Scope span(trace, "gen.inputs");
      inputs.clear();
      for (int ii = 0; ii < config.inputs_per_program; ++ii)
        inputs.push_back(input_gen.generate(program, pi, ii));
    }
    std::vector<std::pair<std::size_t, diff::DiscrepancyRecord>> found;
    for (std::size_t li = 0; li < config.levels.size(); ++li) {
      const opt::OptLevel level = config.levels[li];
      diff::CompiledSet set;
      {
        Scope span(trace, "opt.compile");
        set = diff::compile_set(program, config.platforms, level,
                                config.hipify_converted);
      }
      for (std::size_t p = 0; p < n_platforms; ++p) {
        counts.ir_nodes_out += set.exes[p].program.node_count();
        runs[p].resize(inputs.size());
        Scope span(trace, "vgpu.execute");
        vgpu::run_kernel_batch(set.exes[p], inputs, runs[p].data(), exec);
      }
      counts.compiles += n_platforms;
      counts.runs += n_platforms * inputs.size();
      for (const auto& lane : runs)
        for (const vgpu::RunResult& r : lane) counts.ops += r.op_count;

      diff::LevelStats& stats = progress.per_level[li];
      std::size_t discrepant = 0;
      {
        Scope span(trace, "diff.classify");
        cmps.resize(inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          diff::ComparisonResult& cmp = cmps[i];
          cmp.count = static_cast<std::uint32_t>(n_platforms);
          for (std::size_t p = 0; p < n_platforms; ++p)
            cmp.platforms[p] = platform_result(runs[p][i], fp32);
          cmp.cls = diff::DiscrepancyClass::None;
          cmp.pair_cls[0] = diff::DiscrepancyClass::None;
          const diff::PlatformResult& base = cmp.platforms[0];
          for (std::size_t p = 1; p < n_platforms; ++p) {
            const diff::DiscrepancyClass cls =
                diff::classify_pair(base.outcome, base.bits,
                                    cmp.platforms[p].outcome,
                                    cmp.platforms[p].bits);
            cmp.pair_cls[p] = cls;
            if (cmp.cls == diff::DiscrepancyClass::None) cmp.cls = cls;
          }
          ++stats.comparisons;
          if (!cmp.discrepant()) continue;
          ++discrepant;
          for (std::size_t p = 1; p < n_platforms; ++p) {
            const diff::DiscrepancyClass cls = cmp.pair_cls[p];
            if (cls == diff::DiscrepancyClass::None) continue;
            diff::PairStats& pair = stats.pairs[p - 1];
            ++pair.class_counts[static_cast<std::size_t>(diff::class_index(cls))];
            ++pair.adjacency[static_cast<int>(base.outcome.cls)]
                            [static_cast<int>(cmp.platforms[p].outcome.cls)];
            ++counts.discrepancies;
          }
        }
      }
      counts.comparisons += inputs.size();
      if (discrepant == 0) continue;
      Scope span(trace, "diff.record");
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const diff::ComparisonResult& cmp = cmps[i];
        if (!cmp.discrepant()) continue;
        diff::DiscrepancyRecord rec;
        rec.program_index = pi;
        rec.input_index = static_cast<int>(i);
        rec.level = level;
        rec.cls = cmp.cls;
        for (std::size_t p = 0; p < n_platforms; ++p) {
          rec.outcomes.push_back(cmp.platforms[p].outcome);
          rec.printed.push_back(cmp.platforms[p].printed());
          rec.pair_cls.push_back(cmp.pair_cls[p]);
        }
        found.emplace_back(li, std::move(rec));
      }
    }
    if (found.empty()) continue;
    Scope span(trace, "diff.record");
    // Canonical record order within a program: input-major, then level.
    std::stable_sort(found.begin(), found.end(),
                     [](const auto& a, const auto& b) {
                       if (a.second.input_index != b.second.input_index)
                         return a.second.input_index < b.second.input_index;
                       return a.first < b.first;
                     });
    std::vector<diff::DiscrepancyRecord> records;
    records.reserve(found.size());
    for (auto& entry : found) records.push_back(std::move(entry.second));
    diff::append_capped_records(progress.records, std::move(records),
                                config.max_records);
  }
  return progress;
}

/// Write the report the way gpudiff-campaign's emit_results does.
void write_report(const diff::CampaignResults& results,
                  const support::Json* config_echo, const std::string& path,
                  Trace* trace, LayerCounts& counts) {
  Scope span(trace, "campaign.serialize");
  const std::string bytes =
      campaign::results_to_json(results, config_echo).dump(1) + "\n";
  support::write_file_atomic(path, bytes);
  counts.report_bytes += bytes.size();
}

/// The --reduce-exemplars hook; one span per reduced record (reduce plus
/// bundle write), cut at the completion callbacks.
std::size_t reduce_exemplars(const diff::CampaignConfig& config,
                             const diff::CampaignResults& results,
                             const std::string& out_dir, Trace* trace,
                             LayerCounts& counts) {
  const std::int64_t parent = current_span();
  Clock::time_point prev = Clock::now();
  return reduce::reduce_exemplars(
             config, results.records, out_dir, kMaxExemplars,
             [&](const reduce::Reduction& r) {
               const Clock::time_point now = Clock::now();
               if (trace != nullptr)
                 trace->add("reduce.record", kMainTid, parent, prev, now);
               prev = now;
               ++counts.reductions;
               counts.reduce_checks += r.checks;
               counts.reduce_steps += r.trace.size();
               counts.stmts_before += r.original_stmts;
               counts.stmts_after += r.reduced_stmts;
             })
      .size();
}

/// Campaign phase of paper / diverse: gpudiff-campaign's single-process
/// path (run_shard 0/1 -> merge_shards -> v1 report) per campaign.
void run_single_process(const Workload& workload, const std::string& dir,
                        Trace* trace, IterationResult& out, Outputs& o) {
  for (std::size_t c = 0; c < workload.campaigns.size(); ++c) {
    const diff::CampaignConfig& config = workload.campaigns[c];
    diff::CampaignResults results;
    if (trace == nullptr) {
      results = campaign::merge_shards(
          {campaign::run_shard(config, campaign::ShardRunOptions{})});
    } else {
      campaign::ShardProgress progress =
          traced_campaign(config, trace, out.counts);
      Scope span(trace, "campaign.merge");
      results = campaign::merge_shards({std::move(progress)});
    }
    o.reports.push_back(dir + "/report-" + std::to_string(c) + ".json");
    write_report(results, nullptr, o.reports.back(), trace, out.counts);
    out.evals += results.runs_total();
    o.results.push_back(std::move(results));
  }
}

/// Campaign phase of pipeline: three workers over TCP until the campaign
/// completes, then the merge `gpudiff-campaign --merge --report-v2` runs
/// against the coordinator's state directory.
void run_fleet(const Workload& workload, const campaign::Coordinator& coordinator,
               const std::string& dir, Trace* trace, IterationResult& out,
               Outputs& o) {
  const diff::CampaignConfig& config = workload.campaigns.front();
  const campaign::WorkerOptions wopts;  // defaults, as the CLI's
  out.lease_count = campaign::lease_count(config.num_programs, wopts.lease_size);
  std::vector<TransportStats> stats(kFleetWorkers);
  std::vector<double> walls(kFleetWorkers, 0.0);
  std::vector<std::exception_ptr> errors(kFleetWorkers);
  o.outcomes.resize(kFleetWorkers);
  {
    Scope fleet(trace, "campaign.fleet");
    std::vector<std::thread> workers;
    for (int w = 0; w < kFleetWorkers; ++w) {
      workers.emplace_back([&, w] {
        const auto i = static_cast<std::size_t>(w);
        try {
          const Clock::time_point begin = Clock::now();
          const auto tid = static_cast<std::uint32_t>(1 + w);
          const std::int64_t span =
              trace == nullptr ? -1
                               : trace->open("campaign.worker", tid, fleet.id());
          campaign::TcpTransportOptions topts;
          topts.host = "127.0.0.1";
          topts.port = coordinator.port();
          topts.worker_id = "worker-" + std::to_string(w);
          topts.journal_dir = dir + "/journal-" + std::to_string(w);
          topts.retry = wopts.retry;
          topts.request_timeout_seconds = wopts.request_timeout_seconds;
          campaign::TcpLeaseTransport tcp(std::move(topts));
          TimedTransport timed(tcp, trace, tid, span);
          o.outcomes[i] = campaign::run_worker(config, wopts, timed);
          stats[i] = timed.stats();
          if (trace != nullptr) trace->close(span);
          walls[i] = seconds_between(begin, Clock::now());
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    out.transport.merge(stats[i]);
    out.worker_wall_s += walls[i];
  }

  diff::CampaignResults results;
  {
    Scope span(trace, "campaign.merge");
    o.echo = campaign::config_echo_of_dir(coordinator.dir());
    results = campaign::merge_lease_dir(coordinator.dir());
  }
  o.reports.push_back(dir + "/report.json");
  write_report(results, &o.echo, o.reports.back(), trace, out.counts);
  out.evals = results.runs_total();
  o.results.push_back(std::move(results));
}

/// Triage of the finished reports: ingest into a results store, load it,
/// query summary, trend and every (population, pair) drill-down; the fleet
/// also reduces its exemplar records to reproducer bundles.
void triage(const Workload& workload, const std::string& dir, Trace* trace,
            IterationResult& out, Outputs& o) {
  const std::string store_dir = dir + "/store";
  {
    Scope span(trace, "store.ingest");
    store::ingest(store_dir, kStoreCommit, o.reports);
  }
  store::StoreIndex index;
  {
    Scope span(trace, "store.load");
    index = store::load_store(store_dir);
  }
  {
    Scope span(trace, "store.query");
    o.summary = store::summary(index);
  }
  {
    Scope span(trace, "store.query");
    store::trend(index);
  }
  out.counts.store_queries += 2;
  for (const auto& [fingerprint, pop] : index.populations.at(kStoreCommit)) {
    const support::JsonArray& platforms = pop.at("platforms").as_array();
    for (std::size_t p = 1; p < platforms.size(); ++p) {
      Scope span(trace, "store.query");
      o.drilldowns.push_back(store::pair_drilldown(
          index, kStoreCommit, fingerprint, platforms[p].as_string()));
      ++out.counts.store_queries;
    }
  }
  if (!workload.fleet) return;
  o.bundle_dir = dir + "/reduced";
  o.reduced = reduce_exemplars(campaign::config_from_json(o.echo),
                               o.results.front(), o.bundle_dir, trace,
                               out.counts);
}

// ---------------------------------------------------------------------------
// Off-clock output checks.
// ---------------------------------------------------------------------------

bool same_run(const vgpu::RunResult& a, const vgpu::RunResult& b) {
  return a.value_bits == b.value_bits && a.flags.raw() == b.flags.raw() &&
         a.op_count == b.op_count && a.cycle_count == b.cycle_count;
}

/// Re-run a seeded sample of (program, input, level) comparisons on the
/// tree-walk oracle: every platform's batched VM run must match it bit for
/// bit (value, flags, op and cycle counts), and the report must hold a
/// record for the comparison exactly when the oracle's verdict is
/// discrepant, with the oracle's classes, outcomes and printed values.
void check_oracle(const diff::CampaignConfig& config,
                  const diff::CampaignResults& results, std::uint64_t seed,
                  Tally& tally) {
  std::map<std::string, const diff::DiscrepancyRecord*> by_key;
  for (const diff::DiscrepancyRecord& rec : results.records)
    by_key[store::record_key(rec)] = &rec;
  const bool all_records = results.records.size() < config.max_records;
  const bool fp32 = config.gen.precision == ir::Precision::FP32;
  const std::size_t n_platforms = config.platforms.size();
  support::Rng rng(seed);
  std::vector<vgpu::RunResult> batch(
      static_cast<std::size_t>(config.inputs_per_program));
  for (int s = 0; s < kOracleSamples; ++s) {
    const reduce::RecordRef ref{
        rng.next() % static_cast<std::uint64_t>(config.num_programs),
        static_cast<int>(rng.next() %
                         static_cast<std::uint64_t>(config.inputs_per_program)),
        config.levels[rng.next() % config.levels.size()]};
    const ir::Program program =
        reduce::regenerate_program(config, ref.program_index);
    std::vector<vgpu::KernelArgs> inputs;
    for (int ii = 0; ii < config.inputs_per_program; ++ii)
      inputs.push_back(
          reduce::regenerate_args(config, program, ref.program_index, ii));

    bool ok = true;
    std::vector<diff::PlatformResult> oracle;
    for (const opt::PlatformSpec& spec : config.platforms) {
      const opt::Executable exe =
          opt::compile(program, spec, ref.level, config.hipify_converted);
      vgpu::run_kernel_batch(exe, inputs, batch.data());
      const vgpu::RunResult tree = vgpu::run_kernel_tree(
          exe, inputs[static_cast<std::size_t>(ref.input_index)]);
      ok = ok && same_run(batch[static_cast<std::size_t>(ref.input_index)], tree);
      oracle.push_back(platform_result(tree, fp32));
    }
    std::vector<diff::DiscrepancyClass> classes(n_platforms,
                                                diff::DiscrepancyClass::None);
    bool discrepant = false;
    for (std::size_t p = 1; p < n_platforms; ++p) {
      classes[p] = diff::classify_pair(oracle[0].outcome, oracle[0].bits,
                                       oracle[p].outcome, oracle[p].bits);
      discrepant = discrepant || classes[p] != diff::DiscrepancyClass::None;
    }
    const auto it = by_key.find(ref.key());
    if (it == by_key.end()) {
      ok = ok && (!discrepant || !all_records);
    } else {
      const diff::DiscrepancyRecord& rec = *it->second;
      ok = ok && discrepant && rec.pair_cls == classes;
      for (std::size_t p = 0; ok && p < n_platforms; ++p)
        ok = rec.outcomes[p] == oracle[p].outcome &&
             rec.printed[p] == oracle[p].printed();
    }
    tally.check(ok, "tree-oracle cross-check failed at " + ref.key());
  }
}

void check_bundles(const std::string& dir, std::size_t reduced, Tally& tally) {
  std::size_t found = 0;
  if (fs::is_directory(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (!support::starts_with(name, "bundle-") ||
          !support::ends_with(name, ".json"))
        continue;
      ++found;
      std::string error;
      try {
        reduce::load_bundle(entry.path().string());
      } catch (const std::exception& e) {
        error = e.what();
      }
      tally.check(error.empty(), "bundle reload: " + error);
    }
  }
  tally.check(found == reduced,
              "bundle count " + std::to_string(found) + " in " + dir +
                  ", expected " + std::to_string(reduced));
}

/// The store's answers must agree with the reports it ingested.
void check_store(const Outputs& o, Tally& tally) {
  std::uint64_t comparisons = 0, discrepancies = 0;
  for (const diff::CampaignResults& results : o.results) {
    comparisons += results.comparisons_total();
    discrepancies += results.discrepancies_total();
  }
  const support::JsonArray& commits = o.summary.at("commits").as_array();
  tally.check(commits.size() == 1 &&
                  commits[0].at("comparisons").as_int() ==
                      static_cast<std::int64_t>(comparisons) &&
                  commits[0].at("discrepancies").as_int() ==
                      static_cast<std::int64_t>(discrepancies),
              "store summary disagrees with the reports");
  std::int64_t drilled = 0;
  for (const support::Json& d : o.drilldowns)
    drilled += d.at("discrepancies").as_int();
  tally.check(drilled == static_cast<std::int64_t>(discrepancies),
              "store pair drill-downs disagree with the reports");
}

/// The fleet's merged report must be byte-identical to a single-process
/// run_campaign of the same configuration.  The reference campaign runs in
/// a forked child, so its memory does not count toward this process's
/// peak_rss_mb.  Call it only while this process runs no other thread.
void check_fleet(const Workload& workload, const Outputs& o, Tally& tally) {
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child == 0) {
    int code = 1;
    try {
      diff::CampaignConfig reference = workload.campaigns.front();
      const support::Json echo = campaign::config_to_json(reference);
      reference.threads = 0;  // output is thread-count invariant; save time
      code = support::read_file(o.reports.front()) ==
                     campaign::results_to_json(diff::run_campaign(reference),
                                               &echo)
                             .dump(1) +
                         "\n"
                 ? 0
                 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: fleet reference run: %s\n", e.what());
    }
    _exit(code);
  }
  int status = 0;
  const bool waited = child > 0 && waitpid(child, &status, 0) == child;
  tally.check(waited && WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "merged fleet report differs from single-process run_campaign");
}

/// fnv1a64 over every report and bundle file (names and bytes, sorted).
std::string digest_outputs(const Outputs& o) {
  std::vector<std::string> paths = o.reports;
  if (!o.bundle_dir.empty()) {
    std::vector<std::string> bundles;
    for (const auto& entry : fs::directory_iterator(o.bundle_dir))
      bundles.push_back(entry.path().string());
    std::sort(bundles.begin(), bundles.end());
    paths.insert(paths.end(), bundles.begin(), bundles.end());
  }
  std::string all;
  for (const std::string& path : paths) {
    all += fs::path(path).filename().string();
    all += '\n';
    all += support::read_file(path);
  }
  return support::fnv1a64_hex(all);
}

}  // namespace

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  if (name == "paper") {
    w.campaigns = {make_config(seed, tiny ? 48 : 3540, 7, ir::Precision::FP64),
                   make_config(seed, tiny ? 40 : 2840, 7, ir::Precision::FP32)};
  } else if (name == "diverse") {
    diff::CampaignConfig cfg =
        make_config(seed, tiny ? 48 : 3540, 1, ir::Precision::FP64);
    cfg.platforms =
        opt::parse_platform_list("nvcc,hipcc,hipcc-ftz,nvcc-fastmath");
    w.campaigns = {std::move(cfg)};
  } else if (name == "pipeline") {
    w.campaigns = {make_config(seed, tiny ? 64 : 3540, 7, ir::Precision::FP64)};
    w.fleet = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper, diverse, pipeline)");
  }
  return w;
}

std::unique_ptr<campaign::Coordinator> start_fleet(const Workload& workload,
                                                   const std::string& dir) {
  campaign::CoordinatorOptions copts;
  copts.dir = dir + "/coordinator";
  auto coordinator = std::make_unique<campaign::Coordinator>(copts);
  coordinator->start();
  const diff::CampaignConfig& config = workload.campaigns.front();
  const campaign::WorkerOptions wopts;
  campaign::TcpTransportOptions topts;
  topts.host = "127.0.0.1";
  topts.port = coordinator->port();
  topts.worker_id = "worker-0";
  topts.journal_dir = dir + "/journal-0";
  topts.retry = wopts.retry;
  topts.request_timeout_seconds = wopts.request_timeout_seconds;
  campaign::TcpLeaseTransport tcp(std::move(topts));
  tcp.publish_or_verify_manifest(
      campaign::config_to_json(config), wopts.lease_size,
      campaign::lease_count(config.num_programs, wopts.lease_size));
  return coordinator;
}

void warm_up(const Workload& workload) {
  for (diff::CampaignConfig config : workload.campaigns) {
    // A fixed seed: set-up time must not depend on which programs --seed
    // happens to pick.
    config.seed = kWarmSeed;
    diff::run_campaign_range(
        config, 0,
        static_cast<std::uint64_t>(std::min(kWarmPrograms, config.num_programs)));
  }
}

IterationResult run_iteration(const Workload& workload, const std::string& dir,
                              Trace* trace, std::uint64_t check_seed,
                              bool compare_fleet, Tally& tally) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  IterationResult out;
  Outputs o;
  std::optional<campaign::Coordinator> coordinator;
  if (workload.fleet) {
    campaign::CoordinatorOptions copts;
    copts.dir = dir + "/coordinator";
    coordinator.emplace(copts);
    coordinator->start();
  }
  {
    Scope root(trace, "iteration");
    const Clock::time_point t0 = Clock::now();
    if (workload.fleet)
      run_fleet(workload, *coordinator, dir, trace, out, o);
    else
      run_single_process(workload, dir, trace, out, o);
    const Clock::time_point t_report = Clock::now();
    triage(workload, dir, trace, out, o);
    const Clock::time_point t_end = Clock::now();
    out.campaign_s = seconds_between(t0, t_report);
    out.triage_s = seconds_between(
        workload.fleet ? out.transport.last_publish : t_report, t_end);
    out.wall_s = seconds_between(t0, t_end);
  }
  if (coordinator) coordinator->stop();

  for (std::size_t c = 0; c < workload.campaigns.size(); ++c)
    check_oracle(workload.campaigns[c], o.results[c], check_seed + c, tally);
  check_store(o, tally);
  if (workload.fleet) {
    for (const campaign::WorkerOutcome& outcome : o.outcomes)
      tally.check(outcome.campaign_complete,
                  "a fleet worker stopped before the campaign completed");
    check_bundles(o.bundle_dir, o.reduced, tally);
    if (compare_fleet) check_fleet(workload, o, tally);
  }
  out.digest = digest_outputs(o);
  return out;
}

}  // namespace perfbench
