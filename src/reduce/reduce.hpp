#pragma once
// Delta-debugging reducer: shrink a discrepant campaign record to a
// 1-minimal reproducer (ROADMAP "Adaptive campaigns + discrepancy
// reducer", triage half).
//
// The reducer regenerates the record's program and input from the campaign
// configuration (both are pure functions of (seed, program_index,
// input_index)), then searches for a smaller program with the *same*
// differential verdict — the per-platform (pair, DiscrepancyClass) vector
// against the baseline — using four mutation passes over ir/mutate.hpp
// rebuilds:
//
//   ddmin      chunked statement deletion (classic delta debugging),
//   flatten    loops unrolled to their executed bodies, ifs to their body,
//   constfold  live statement values replaced by their observed constants
//              (recorded by the tree-walk oracle's StmtObserver),
//   hoist      expression nodes replaced by one of their operands,
//   polish     single-statement deletion to fixpoint.
//
// A candidate is accepted iff its verdict equals the original exactly, so
// every accepted step preserves the discrepancy by construction, and the
// polish fixpoint makes the result 1-minimal: dropping any single
// remaining statement either kills the discrepancy or breaks the program
// (a dangling temp reference — equally fatal to the reproducer).
//
// Everything here is deterministic: candidate enumeration is in canonical
// pre-order, acceptance is a pure function of the differential check, and
// the differential check is bit-identical across VM backends (the
// repo-wide invariant) — so the same record always reduces to the same
// bytes, which reduce_test and the CI reduce-drill job lock.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "diff/campaign.hpp"
#include "ir/mutate.hpp"
#include "reduce/sensitivity.hpp"
#include "vgpu/args.hpp"

namespace gpudiff::reduce {

/// The preserved property: every platform's discrepancy class against the
/// baseline (entry 0 always None).  Two programs are verdict-equivalent
/// for a record iff these vectors are equal.
struct Verdict {
  std::vector<diff::DiscrepancyClass> pair_cls;

  bool discrepant() const noexcept {
    for (const auto cls : pair_cls)
      if (cls != diff::DiscrepancyClass::None) return true;
    return false;
  }
  friend bool operator==(const Verdict&, const Verdict&) = default;
};

/// Identity of one campaign record, canonical key "program:input:level"
/// (the store's record_key).
struct RecordRef {
  std::uint64_t program_index = 0;
  int input_index = 0;
  opt::OptLevel level{};

  std::string key() const;
};

/// Parse a canonical record key; false on malformed input.
bool parse_record_key(const std::string& key, RecordRef* out);

/// One accepted reduction step (the bundle's reduction trace).
struct TraceStep {
  std::string pass;    ///< "ddmin" / "unroll" / "inline" / "constfold" / ...
  std::string detail;  ///< human-readable description of the accepted edit
  std::uint64_t stmts = 0;  ///< statement count after the step
  std::uint64_t nodes = 0;  ///< live IR node count after the step
};

/// A finished reduction: the 1-minimal reproducer plus its provenance.
struct Reduction {
  RecordRef record;
  ir::Program program;    ///< reduced reproducer (compact arena)
  vgpu::KernelArgs args;  ///< the record's original discrepant input
  Verdict verdict;        ///< preserved (pair, class) verdict
  std::vector<std::string> platforms;
  std::uint64_t original_stmts = 0;
  std::uint64_t original_nodes = 0;
  std::uint64_t reduced_stmts = 0;
  std::uint64_t reduced_nodes = 0;
  std::uint64_t checks = 0;  ///< differential checks spent
  std::vector<TraceStep> trace;
  SensitivityReport sensitivity;
};

/// Regenerate the record's program / input exactly as the campaign did
/// (pure functions of the config and the indices).
ir::Program regenerate_program(const diff::CampaignConfig& config,
                               std::uint64_t program_index);
vgpu::KernelArgs regenerate_args(const diff::CampaignConfig& config,
                                 const ir::Program& program,
                                 std::uint64_t program_index, int input_index);

/// The record's verdict for `program`: compile for every configured
/// platform at `level`, run `args` once, collect per-platform classes.
Verdict verdict_of(const ir::Program& program,
                   const diff::CampaignConfig& config, opt::OptLevel level,
                   const vgpu::KernelArgs& args);

/// Rebuild `p` without statement `id` (whole subtree).  Returns nullopt
/// when the result would dangle a temporary reference — the shared
/// "removal breaks the program" arm of the 1-minimality definition.
std::optional<ir::Program> drop_statement(const ir::Program& p, ir::StmtId id);

/// Reduce one record to a 1-minimal reproducer.  Throws std::runtime_error
/// when the record is not discrepant under `config` (stale key, foreign
/// config).  Deterministic: equal inputs produce bit-equal reductions.
Reduction reduce_record(const diff::CampaignConfig& config,
                        const RecordRef& record);

}  // namespace gpudiff::reduce
