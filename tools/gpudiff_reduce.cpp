// gpudiff-reduce: shrink discrepant campaign records to 1-minimal
// reproducers (the triage half of ROADMAP's "Adaptive campaigns +
// discrepancy reducer").
//
//   # one record, configuration spelled out on the command line
//   gpudiff-reduce --record 41:2:O3 --seed 1234 --programs 90 --inputs 5
//
//   # one record, configuration taken from a campaign report (version 2
//   # pins it exactly; version 1 falls back to defaults, with a warning)
//   gpudiff-reduce --record 41:2:O3 --report merged.json
//
//   # batch: every exemplar key of a results-store population, resolved
//   # against the merged report it was ingested from
//   gpudiff-reduce --from-report merged.json --store db --commit head
//
// Each reduction writes one digest-sealed bundle (reduce/bundle.hpp) into
// --out; --json additionally streams the bundle documents to stdout.  The
// whole pipeline is deterministic — same record, same bytes, on the
// bytecode VM or the tree-walk oracle — which the reduce-drill CI job
// enforces with a byte-for-byte cmp of one run on each.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign_flags.hpp"
#include "opt/platform.hpp"
#include "reduce/bundle.hpp"
#include "reduce/reduce.hpp"
#include "store/store.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace {

using namespace gpudiff;

/// A report file decoded once (store::decode_report); a file it refuses
/// is named.
store::Report read_report(const std::string& path) {
  try {
    return store::decode_report(support::Json::parse(support::read_file(path)));
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// Campaign configuration of a report.  Version-2 reports embed the full
/// fingerprint and reconstruct exactly; version-1 reports carry only
/// header fields, so the generator grammar and record cap fall back to
/// defaults (correct unless the producing campaign customized them —
/// warned about, and any drift is caught by the not-discrepant check of
/// the first reduction).
diff::CampaignConfig config_of_report(const store::Report& report) {
  if (!report.config.is_null())
    return campaign::config_from_json(report.config);

  std::fprintf(stderr,
               "gpudiff-reduce: version-1 report carries no config "
               "fingerprint; assuming the default generator grammar and "
               "record cap (re-merge with --report-v2 to pin them)\n");
  const diff::CampaignResults& header = report.results;
  diff::CampaignConfig config;
  config.seed = header.seed;
  config.gen.precision = header.precision;
  config.hipify_converted = header.hipify_converted;
  config.num_programs = header.num_programs;
  config.inputs_per_program = header.inputs_per_program;
  config.levels = header.levels;
  config.platforms.clear();
  for (const auto& name : header.platforms) {
    const opt::PlatformSpec* spec = opt::find_platform(name);
    if (!spec)
      throw std::runtime_error("report names unknown platform \"" + name +
                               "\"");
    config.platforms.push_back(*spec);
  }
  return config;
}

void print_reduction(const reduce::Reduction& r) {
  std::printf("record %s: %llu -> %llu statements, %llu -> %llu nodes "
              "(%llu checks), %s\n",
              r.record.key().c_str(),
              static_cast<unsigned long long>(r.original_stmts),
              static_cast<unsigned long long>(r.reduced_stmts),
              static_cast<unsigned long long>(r.original_nodes),
              static_cast<unsigned long long>(r.reduced_nodes),
              static_cast<unsigned long long>(r.checks),
              reduce::to_string(r.sensitivity.label));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli(
      "gpudiff-reduce",
      "Delta-debugging reducer: discrepant records to 1-minimal "
      "reproducers");
  cli.add_string("record", 'R',
                 "reduce one record, named by its canonical key "
                 "program:input:level (e.g. 41:2:O3)",
                 "");
  cli.add_string("report", 'r',
                 "campaign report supplying the configuration (--record "
                 "mode; --from-report names its own)",
                 "");
  cli.add_string("from-report", 'b',
                 "batch mode: reduce every exemplar key of a results-store "
                 "population, resolved against this merged report",
                 "");
  cli.add_string("store", 'D', "results-store directory (--from-report)", "");
  cli.add_string("commit", 'c', "store commit label (--from-report)", "");
  cli.add_string("fingerprint", 'f',
                 "store population fingerprint (--from-report; default: the "
                 "commit's only population)",
                 "");
  cli.add_string("out", 'o', "directory reproducer bundles are written to",
                 "reduced");
  cli.add_flag("json", "stream the bundle document(s) to stdout");
  // The campaign definition for --record without --report, exactly as
  // gpudiff-campaign spells it.
  tools::add_campaign_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  const std::optional<diff::CampaignConfig> flags =
      tools::campaign_of_flags(cli, "gpudiff-reduce");
  if (!flags) return 1;

  try {
    const std::string record_key = cli.get_string("record");
    const std::string report_path = cli.get_string("report");
    const std::string out_dir = cli.get_string("out");
    const bool json = cli.get_flag("json");

    const std::string batch_report = cli.get_string("from-report");
    if (!batch_report.empty()) {
      const std::string store_dir = cli.get_string("store");
      const std::string commit = cli.get_string("commit");
      if (store_dir.empty() || commit.empty()) {
        std::fprintf(stderr,
                     "gpudiff-reduce: --from-report needs --store and "
                     "--commit\n");
        return 1;
      }
      const store::Report report = read_report(batch_report);
      const diff::CampaignConfig config = config_of_report(report);
      const store::StoreIndex index = store::load_store(store_dir);
      const support::Json& pop =
          store::population(index, commit, cli.get_string("fingerprint"));
      const std::string pop_name = store::population_path(
          store_dir, commit, pop.at("fingerprint").as_string());
      const std::vector<diff::DiscrepancyRecord> records =
          store::resolve_exemplars(pop, report, pop_name, batch_report);
      support::Json bundles = support::Json::array();
      const std::vector<reduce::RecordRef> reduced = reduce::reduce_records(
          config, records, out_dir,
          [&](const reduce::Reduction& r) {
            print_reduction(r);
            if (json) bundles.push_back(reduce::bundle_to_json(r, config));
          });
      std::printf("%zu reproducer bundle(s) written to %s\n", reduced.size(),
                  out_dir.c_str());
      if (json) std::printf("%s\n", bundles.dump(1).c_str());
      return 0;
    }

    if (record_key.empty()) {
      std::fprintf(stderr,
                   "gpudiff-reduce: pass --record program:input:level or "
                   "--from-report (see --help)\n");
      return 1;
    }
    reduce::RecordRef ref;
    if (!reduce::parse_record_key(record_key, &ref)) {
      std::fprintf(stderr,
                   "gpudiff-reduce: bad --record '%s' (want "
                   "program:input:level, e.g. 41:2:O3)\n",
                   record_key.c_str());
      return 1;
    }

    const diff::CampaignConfig config =
        report_path.empty() ? *flags
                            : config_of_report(read_report(report_path));

    const reduce::Reduction reduction = reduce::reduce_record(config, ref);
    print_reduction(reduction);
    const support::Json bundle = reduce::bundle_to_json(reduction, config);
    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      const std::string path =
          out_dir + "/" + reduce::bundle_filename(ref);
      support::write_file_atomic(path, bundle.dump(1) + "\n");
      std::printf("bundle written to %s\n", path.c_str());
    }
    if (json)
      std::printf("%s\n", bundle.dump(1).c_str());
    else
      std::printf("%s", reduction.program.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudiff-reduce: %s\n", e.what());
    return 2;
  }
}
