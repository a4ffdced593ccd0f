#include "reduce/reduce.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "diff/runner.hpp"
#include "fp/hexfloat.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "store/store.hpp"
#include "support/strings.hpp"
#include "vgpu/interp.hpp"

namespace gpudiff::reduce {

namespace {

using ir::ExprEditPlan;
using ir::ExprId;
using ir::ExprKind;
using ir::Program;
using ir::StmtEditPlan;
using ir::StmtId;
using ir::StmtKind;

/// Loops are unrolled only up to this many executed trips; the input
/// generator caps trip counts at 8, so the limit only guards hand-made
/// configurations from quadratic blowup.
constexpr int kMaxUnrollTrip = 64;

/// True when `p` references a temporary no surviving DeclTemp declares —
/// structurally invalid, rejected without spending a differential check.
bool dangles_temp(const Program& p) {
  return ir::max_temp_ref(p) > p.max_temp_id();
}

/// The reduction search state: the record's fixed context plus the current
/// best program and the bookkeeping the bundle reports.
struct Search {
  const diff::CampaignConfig& config;
  const RecordRef& record;
  const vgpu::KernelArgs& args;
  Verdict target;
  Program current;
  std::uint64_t checks = 0;
  std::vector<TraceStep> trace;

  /// Accept `candidate` iff it preserves the target verdict exactly.
  /// Structurally invalid candidates and candidates whose execution
  /// throws are rejections, not errors: "removal breaks the program" and
  /// "removal changes the verdict" are the same outcome for the search.
  bool try_accept(Program&& candidate, const char* pass,
                  std::string detail) {
    if (dangles_temp(candidate)) return false;
    ++checks;
    Verdict v;
    try {
      v = verdict_of(candidate, config, record.level, args);
    } catch (const std::exception&) {
      return false;
    }
    if (!(v == target)) return false;
    current = std::move(candidate);
    trace.push_back({pass, std::move(detail),
                     static_cast<std::uint64_t>(
                         ir::preorder_statements(current).size()),
                     static_cast<std::uint64_t>(current.node_count())});
    return true;
  }
};

/// Classic ddmin over the pre-order statement list: try dropping chunks,
/// halve granularity on failure, re-coarsen after an accept.  Greedy (no
/// complement phase) — the polish pass below guarantees 1-minimality.
void pass_ddmin(Search& s) {
  std::size_t n = 2;
  for (;;) {
    const std::vector<StmtId> stmts = ir::preorder_statements(s.current);
    if (stmts.empty()) return;
    if (n > stmts.size()) n = stmts.size();
    const std::size_t chunk = (stmts.size() + n - 1) / n;
    bool accepted = false;
    for (std::size_t begin = 0; begin < stmts.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, stmts.size());
      StmtEditPlan plan = StmtEditPlan::none(s.current);
      for (std::size_t i = begin; i < end; ++i)
        plan.actions[stmts[i].v] = StmtEditPlan::Action::Drop;
      if (s.try_accept(ir::apply_edits(s.current, plan), "ddmin",
                       support::format("drop statements [%zu, %zu) of %zu",
                                       begin, end, stmts.size()))) {
        accepted = true;
        break;
      }
    }
    if (accepted) {
      n = std::max<std::size_t>(2, n - 1);
      continue;
    }
    if (n >= stmts.size()) return;  // already at single-statement granularity
    n = std::min(n * 2, stmts.size());
  }
}

/// Structure flattening: unroll one loop to its executed trips (induction
/// variable substituted by literal values), or splice one if-body over its
/// guard.  First accepted candidate restarts the scan.
bool pass_flatten(Search& s) {
  bool any = false;
  for (;;) {
    const std::vector<StmtId> stmts = ir::preorder_statements(s.current);
    bool accepted = false;
    for (std::size_t pos = 0; pos < stmts.size() && !accepted; ++pos) {
      const ir::Stmt& st = s.current.stmt(stmts[pos]);
      if (st.kind == StmtKind::For) {
        int trip = s.args.ints.at(static_cast<std::size_t>(st.bound_param));
        if (trip < 0) trip = 0;
        if (trip > kMaxUnrollTrip) continue;
        StmtEditPlan plan = StmtEditPlan::none(s.current);
        plan.actions[stmts[pos].v] = StmtEditPlan::Action::Unroll;
        plan.unroll_trip = trip;
        accepted = s.try_accept(
            ir::apply_edits(s.current, plan), "unroll",
            support::format("unroll loop at statement %zu to %d trips", pos,
                            trip));
      } else if (st.kind == StmtKind::If) {
        StmtEditPlan plan = StmtEditPlan::none(s.current);
        plan.actions[stmts[pos].v] = StmtEditPlan::Action::InlineBody;
        accepted = s.try_accept(
            ir::apply_edits(s.current, plan), "inline",
            support::format("inline if-body at statement %zu", pos));
      }
    }
    if (!accepted) return any;
    any = true;
  }
}

/// The value expression of a value-producing statement (invalid for For).
ExprId value_expr_of(const ir::Stmt& st) {
  switch (st.kind) {
    case StmtKind::DeclTemp:
    case StmtKind::AssignComp:
    case StmtKind::If:
      return st.a;  // If: condition (not const-folded, hoisted only)
    case StmtKind::StoreArray:
      return st.b;
    case StmtKind::For:
      return ExprId{};
  }
  return ExprId{};
}

/// Constant folding against observed execution: tree-walk the current
/// program under the baseline platform's compiled environment, record the
/// first value every value-producing statement computes, and try replacing
/// each statement's value expression with its recorded constant.
bool pass_constfold(Search& s) {
  bool any = false;
  for (;;) {
    // The compiled baseline carries the right mathlib + FP env for the
    // record's level, but its program is the *optimized* kernel whose
    // statement ids do not match s.current — point a probe copy back at
    // the un-optimized current program before tree-walking it.
    diff::CompiledSet set;
    try {
      set = diff::compile_set(s.current, s.config.platforms, s.record.level,
                              s.config.hipify_converted);
    } catch (const std::exception&) {
      return any;
    }
    opt::Executable probe = set.exes[0];
    probe.program = s.current;
    probe.bytecode_cache.reset();
    std::map<std::uint32_t, double> observed;
    try {
      vgpu::run_kernel_tree(probe, s.args,
                            [&observed](StmtId sid, double value) {
                              observed.emplace(sid.v, value);
                            });
    } catch (const std::exception&) {
      return any;
    }

    const std::vector<StmtId> stmts = ir::preorder_statements(s.current);
    bool accepted = false;
    for (std::size_t pos = 0; pos < stmts.size() && !accepted; ++pos) {
      const ir::Stmt st = s.current.stmt(stmts[pos]);
      if (st.kind == StmtKind::If || st.kind == StmtKind::For) continue;
      const auto it = observed.find(stmts[pos].v);
      if (it == observed.end()) continue;  // never executed
      const ExprId value = value_expr_of(st);
      if (s.current.expr(value).kind == ExprKind::Literal) continue;
      ExprEditPlan edit;
      edit.target = value;
      edit.to_literal = true;
      edit.literal = it->second;
      accepted = s.try_accept(
          ir::apply_edits(s.current, StmtEditPlan::none(s.current), edit),
          "constfold",
          support::format("fold statement %zu to %s", pos,
                          fp::print_g17(it->second).c_str()));
    }
    if (!accepted) return any;
    any = true;
  }
}

/// Enumerate every expression node reachable from the body, pre-order.
std::vector<ExprId> preorder_exprs(const Program& p) {
  std::vector<ExprId> out;
  std::vector<ExprId> pending;
  const auto push = [&pending](ExprId id) {
    if (id.valid()) pending.push_back(id);
  };
  for (StmtId sid : ir::preorder_statements(p)) {
    const ir::Stmt& st = p.stmt(sid);
    // b before a: the stack reverses, so a's subtree is visited first.
    push(st.b);
    push(st.a);
    while (!pending.empty()) {
      const ExprId id = pending.back();
      pending.pop_back();
      out.push_back(id);
      const ir::Expr& e = p.expr(id);
      for (int k = e.n_kids - 1; k >= 0; --k) push(e.kid[k]);
    }
  }
  return out;
}

/// Operand hoisting: replace one interior FP-valued node by one of its
/// FP-valued operands (never across the bool/FP type boundary, never the
/// subscript of an array access).
bool pass_hoist(Search& s) {
  bool any = false;
  for (;;) {
    const std::vector<ExprId> exprs = preorder_exprs(s.current);
    bool accepted = false;
    for (std::size_t pos = 0; pos < exprs.size() && !accepted; ++pos) {
      const ir::Expr e = s.current.expr(exprs[pos]);
      if (e.n_kids == 0 || e.is_bool_valued()) continue;
      if (e.kind == ExprKind::ArrayRef || e.kind == ExprKind::BoolToFp)
        continue;
      for (int k = 0; k < e.n_kids && !accepted; ++k) {
        if (s.current.expr(e.kid[k]).is_bool_valued()) continue;
        ExprEditPlan edit;
        edit.target = exprs[pos];
        edit.to_literal = false;
        edit.child = k;
        accepted = s.try_accept(
            ir::apply_edits(s.current, StmtEditPlan::none(s.current), edit),
            "hoist",
            support::format("replace expression %zu by operand %d", pos, k));
      }
    }
    if (!accepted) return any;
    any = true;
  }
}

/// Single-statement deletion to fixpoint: after this, dropping any one
/// statement either changes the verdict or dangles a temp — 1-minimality.
bool pass_polish(Search& s) {
  bool any = false;
  for (;;) {
    const std::vector<StmtId> stmts = ir::preorder_statements(s.current);
    bool accepted = false;
    for (std::size_t pos = 0; pos < stmts.size() && !accepted; ++pos) {
      StmtEditPlan plan = StmtEditPlan::none(s.current);
      plan.actions[stmts[pos].v] = StmtEditPlan::Action::Drop;
      accepted = s.try_accept(
          ir::apply_edits(s.current, plan), "polish",
          support::format("drop statement %zu of %zu", pos, stmts.size()));
    }
    if (!accepted) return any;
    any = true;
  }
}

}  // namespace

std::string RecordRef::key() const {
  diff::DiscrepancyRecord rec;
  rec.program_index = program_index;
  rec.input_index = input_index;
  rec.level = level;
  return store::record_key(rec);
}

bool parse_record_key(const std::string& key, RecordRef* out) {
  const std::vector<std::string> parts = support::split(key, ':');
  if (parts.size() != 3) return false;
  RecordRef ref;
  try {
    std::size_t used = 0;
    ref.program_index = std::stoull(parts[0], &used);
    if (used != parts[0].size()) return false;
    ref.input_index = std::stoi(parts[1], &used);
    if (used != parts[1].size() || ref.input_index < 0) return false;
  } catch (const std::exception&) {
    return false;
  }
  if (!opt::parse_opt_level(parts[2], &ref.level)) return false;
  *out = ref;
  return true;
}

ir::Program regenerate_program(const diff::CampaignConfig& config,
                               std::uint64_t program_index) {
  return gen::Generator(config.gen, config.seed).generate(program_index);
}

vgpu::KernelArgs regenerate_args(const diff::CampaignConfig& config,
                                 const ir::Program& program,
                                 std::uint64_t program_index,
                                 int input_index) {
  return gen::InputGenerator(config.seed)
      .generate(program, program_index, input_index);
}

Verdict verdict_of(const ir::Program& program,
                   const diff::CampaignConfig& config, opt::OptLevel level,
                   const vgpu::KernelArgs& args) {
  const diff::CompiledSet set = diff::compile_set(
      program, config.platforms, level, config.hipify_converted);
  const diff::ComparisonResult cmp = diff::compare_run(set, args);
  Verdict v;
  v.pair_cls.assign(cmp.classes().begin(), cmp.classes().end());
  return v;
}

std::optional<ir::Program> drop_statement(const ir::Program& p,
                                          ir::StmtId id) {
  StmtEditPlan plan = StmtEditPlan::none(p);
  if (id.v >= plan.actions.size()) return std::nullopt;
  plan.actions[id.v] = StmtEditPlan::Action::Drop;
  Program cand = ir::apply_edits(p, plan);
  if (dangles_temp(cand)) return std::nullopt;
  return cand;
}

Reduction reduce_record(const diff::CampaignConfig& config,
                        const RecordRef& record) {
  if (config.platforms.size() < 2)
    throw std::runtime_error("reduce: need at least two platforms");
  const ir::Program original =
      regenerate_program(config, record.program_index);
  const vgpu::KernelArgs args = regenerate_args(
      config, original, record.program_index, record.input_index);

  Search s{config, record, args,
           verdict_of(original, config, record.level, args), original, 0, {}};
  ++s.checks;  // the verdict_of above
  if (!s.target.discrepant())
    throw std::runtime_error(
        "reduce: record " + record.key() +
        " is not discrepant under this configuration (stale key or foreign "
        "config)");

  pass_ddmin(s);
  // Structure simplification can expose new deletions and vice versa;
  // cycle until a full round accepts nothing.
  for (;;) {
    bool changed = false;
    changed |= pass_flatten(s);
    changed |= pass_constfold(s);
    changed |= pass_hoist(s);
    changed |= pass_polish(s);
    if (!changed) break;
  }
  s.current.compact();

  Reduction r;
  r.record = record;
  r.args = args;
  r.verdict = s.target;
  r.platforms = opt::platform_names(config.platforms);
  r.original_stmts = ir::preorder_statements(original).size();
  r.original_nodes = original.node_count();
  r.reduced_stmts = ir::preorder_statements(s.current).size();
  r.reduced_nodes = s.current.node_count();
  r.checks = s.checks;
  r.trace = std::move(s.trace);
  r.sensitivity = probe_sensitivity(s.current, config, record.level, args);
  r.program = std::move(s.current);
  return r;
}

}  // namespace gpudiff::reduce
