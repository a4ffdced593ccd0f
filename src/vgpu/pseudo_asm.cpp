#include "vgpu/pseudo_asm.hpp"

#include <vector>

#include "fp/hexfloat.hpp"
#include "support/strings.hpp"

namespace gpudiff::vgpu {

namespace {

using ir::Arena;
using ir::Expr;
using ir::ExprId;
using ir::ExprKind;
using ir::Precision;
using ir::Program;
using ir::Stmt;
using ir::StmtId;
using ir::StmtKind;

/// Emits one of the two flavours; shared walking logic, dialect hooks below.
class Disassembler {
 public:
  explicit Disassembler(const opt::Executable& exe)
      : exe_(exe),
        arena_(exe.program.arena()),
        nv_(exe.toolchain == opt::Toolchain::Nvcc),
        f32_(exe.program.precision() == Precision::FP32) {}

  std::string run() {
    const Program& p = exe_.program;
    out_ += "// " + exe_.description() + "  [" +
            (nv_ ? "PTX-sim" : "GCN-sim") + ", " +
            (f32_ ? "FP32" : "FP64") + "]\n";
    out_ += nv_ ? ".visible .entry compute(...)\n{\n"
                : "compute:                      ; @compute\n";
    comp_reg_ = fresh();
    const std::string comp = reg(comp_reg_);
    emit_line(nv_ ? support::format("ld.param%s %s, [comp];", suffix(), comp.c_str())
                  : support::format("%s = s_load %s [comp]", comp.c_str(), vsuffix()));
    walk_body(std::span<const StmtId>(p.body()));
    emit_line(nv_ ? support::format("// vprintf(\"%%.17g\", %s)", comp.c_str())
                  : support::format("; printf \"%%.17g\", %s", comp.c_str()));
    out_ += nv_ ? "}\n" : "s_endpgm\n";
    return out_;
  }

 private:
  const char* suffix() const { return f32_ ? ".f32" : ".f64"; }
  const char* vsuffix() const { return f32_ ? "b32" : "b64"; }

  int fresh() { return next_reg_++; }

  std::string reg(int r) const {
    if (nv_) return support::format("%%%s%d", f32_ ? "f" : "fd", r);
    return f32_ ? support::format("v%d", r) : support::format("v[%d:%d]", 2 * r, 2 * r + 1);
  }

  std::string preg(int r) const {
    return nv_ ? support::format("%%p%d", r) : support::format("s[%d:%d]", 2 * r, 2 * r + 1);
  }

  void emit_line(const std::string& line) {
    out_ += "  " + std::string(static_cast<std::size_t>(indent_) * 2, ' ') + line + "\n";
  }

  void op3(const char* ptx, const char* gcn, int dst, int a, int b) {
    if (nv_)
      emit_line(support::format("%s%s %s, %s, %s;", ptx, suffix(), reg(dst).c_str(),
                                reg(a).c_str(), reg(b).c_str()));
    else
      emit_line(support::format("%s_%s %s, %s, %s", gcn, f32_ ? "f32" : "f64",
                                reg(dst).c_str(), reg(a).c_str(), reg(b).c_str()));
  }

  int emit_expr(ExprId id) {
    const Expr& e = arena_[id];
    switch (e.kind) {
      case ExprKind::Literal: {
        const int r = fresh();
        const std::string lit =
            f32_ ? fp::print_g9(static_cast<float>(e.lit_value))
                 : fp::print_g17(e.lit_value);
        if (nv_)
          emit_line(support::format("mov%s %s, 0d%016llX; // %s", suffix(),
                                    reg(r).c_str(),
                                    static_cast<unsigned long long>(
                                        fp::to_bits(e.lit_value)),
                                    lit.c_str()));
        else
          emit_line(support::format("%s = v_mov %s  ; %s", reg(r).c_str(),
                                    vsuffix(), lit.c_str()));
        return r;
      }
      case ExprKind::ParamRef:
      case ExprKind::IntParamRef: {
        const int r = fresh();
        const auto& name = exe_.program.params().at(static_cast<std::size_t>(e.index)).name;
        emit_line(nv_ ? support::format("ld.param%s %s, [%s];", suffix(),
                                        reg(r).c_str(), name.c_str())
                      : support::format("%s = s_load %s [%s]", reg(r).c_str(),
                                        vsuffix(), name.c_str()));
        return r;
      }
      case ExprKind::ArrayRef: {
        const int idx = emit_expr(e.kid[0]);
        const int r = fresh();
        const auto& name = exe_.program.params().at(static_cast<std::size_t>(e.index)).name;
        emit_line(nv_ ? support::format("ld.global%s %s, [%s + %s];", suffix(),
                                        reg(r).c_str(), name.c_str(), reg(idx).c_str())
                      : support::format("%s = global_load %s [%s + %s]",
                                        reg(r).c_str(), vsuffix(), name.c_str(),
                                        reg(idx).c_str()));
        return r;
      }
      case ExprKind::LoopVarRef: {
        const int r = fresh();
        emit_line(nv_ ? support::format("cvt.rn%s.s32 %s, %%r_i%d;", suffix(),
                                        reg(r).c_str(), e.index)
                      : support::format("%s = v_cvt_%s_i32 s_i%d", reg(r).c_str(),
                                        f32_ ? "f32" : "f64", e.index));
        return r;
      }
      case ExprKind::TempRef: {
        const int r = fresh();
        emit_line(nv_ ? support::format("mov%s %s, %%tmp%d;", suffix(),
                                        reg(r).c_str(), e.index)
                      : support::format("%s = v_mov tmp%d", reg(r).c_str(), e.index));
        return r;
      }
      case ExprKind::Neg: {
        const int a = emit_expr(e.kid[0]);
        const int r = fresh();
        emit_line(nv_ ? support::format("neg%s %s, %s;", suffix(), reg(r).c_str(),
                                        reg(a).c_str())
                      : support::format("v_xor_b32 %s, %s, 0x80000000", reg(r).c_str(),
                                        reg(a).c_str()));
        return r;
      }
      case ExprKind::Bin: {
        const int a = emit_expr(e.kid[0]);
        const int b = emit_expr(e.kid[1]);
        const int r = fresh();
        switch (e.bin_op) {
          case ir::BinOp::Add: op3("add.rn", "v_add", r, a, b); break;
          case ir::BinOp::Sub: op3("sub.rn", "v_sub", r, a, b); break;
          case ir::BinOp::Mul: op3("mul.rn", "v_mul", r, a, b); break;
          case ir::BinOp::Div:
            if (nv_ && f32_ && exe_.env.div32 == fp::Div32Mode::NvApprox) {
              emit_line(support::format("div.approx.f32 %s, %s, %s; // __fdividef",
                                        reg(r).c_str(), reg(a).c_str(), reg(b).c_str()));
            } else if (!nv_ && f32_ && exe_.env.div32 == fp::Div32Mode::AmdApprox) {
              emit_line(support::format("v_rcp_f32 %s, %s", reg(r).c_str(), reg(b).c_str()));
              emit_line(support::format("v_mul_f32 %s, %s, %s", reg(r).c_str(),
                                        reg(a).c_str(), reg(r).c_str()));
            } else {
              op3("div.rn", "v_div_fixup", r, a, b);
            }
            break;
        }
        return r;
      }
      case ExprKind::Fma: {
        const int a = emit_expr(e.kid[0]);
        const int b = emit_expr(e.kid[1]);
        const int c = emit_expr(e.kid[2]);
        const int r = fresh();
        if (nv_)
          emit_line(support::format("fma.rn%s %s, %s, %s, %s;", suffix(),
                                    reg(r).c_str(), reg(a).c_str(), reg(b).c_str(),
                                    reg(c).c_str()));
        else
          emit_line(support::format("v_fma_%s %s, %s, %s, %s", f32_ ? "f32" : "f64",
                                    reg(r).c_str(), reg(a).c_str(), reg(b).c_str(),
                                    reg(c).c_str()));
        return r;
      }
      case ExprKind::Call: {
        std::vector<int> args;
        for (int i = 0; i < e.n_kids; ++i) args.push_back(emit_expr(e.kid[i]));
        const int r = fresh();
        const std::string sym = exe_.mathlib->symbol(e.fn, exe_.program.precision());
        std::string arglist;
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (i) arglist += ", ";
          arglist += reg(args[i]);
        }
        if (nv_)
          emit_line(support::format("call.uni (%s), %s, (%s);", reg(r).c_str(),
                                    sym.c_str(), arglist.c_str()));
        else
          emit_line(support::format("s_swappc_b64 %s = %s(%s)", reg(r).c_str(),
                                    sym.c_str(), arglist.c_str()));
        return r;
      }
      case ExprKind::Cmp:
      case ExprKind::BoolBin:
      case ExprKind::BoolNot: {
        const int p = emit_bool(id);
        const int r = fresh();
        emit_line(nv_ ? support::format("selp%s %s, 1.0, 0.0, %s;", suffix(),
                                        reg(r).c_str(), preg(p).c_str())
                      : support::format("v_cndmask %s, 0, 1.0, %s", reg(r).c_str(),
                                        preg(p).c_str()));
        return r;
      }
      case ExprKind::BoolToFp: {
        const int p = emit_bool(e.kid[0]);
        const int r = fresh();
        emit_line(nv_ ? support::format("selp%s %s, 1.0, 0.0, %s; // if-conversion",
                                        suffix(), reg(r).c_str(), preg(p).c_str())
                      : support::format("v_cndmask %s, 0, 1.0, %s ; if-conversion",
                                        reg(r).c_str(), preg(p).c_str()));
        return r;
      }
    }
    return fresh();
  }

  int emit_bool(ExprId id) {
    const Expr& e = arena_[id];
    switch (e.kind) {
      case ExprKind::Cmp: {
        const int a = emit_expr(e.kid[0]);
        const int b = emit_expr(e.kid[1]);
        const int p = next_pred_++;
        const char* op = "";
        switch (e.cmp_op) {
          case ir::CmpOp::Eq: op = "eq"; break;
          case ir::CmpOp::Ne: op = "ne"; break;
          case ir::CmpOp::Lt: op = "lt"; break;
          case ir::CmpOp::Le: op = "le"; break;
          case ir::CmpOp::Gt: op = "gt"; break;
          case ir::CmpOp::Ge: op = "ge"; break;
        }
        emit_line(nv_ ? support::format("setp.%s%s %s, %s, %s;", op, suffix(),
                                        preg(p).c_str(), reg(a).c_str(), reg(b).c_str())
                      : support::format("v_cmp_%s_%s %s, %s, %s", op,
                                        f32_ ? "f32" : "f64", preg(p).c_str(),
                                        reg(a).c_str(), reg(b).c_str()));
        return p;
      }
      case ExprKind::BoolBin: {
        const int a = emit_bool(e.kid[0]);
        const int b = emit_bool(e.kid[1]);
        const int p = next_pred_++;
        const char* op = e.bool_op == ir::BoolOp::And ? "and" : "or";
        emit_line(nv_ ? support::format("%s.pred %s, %s, %s;", op, preg(p).c_str(),
                                        preg(a).c_str(), preg(b).c_str())
                      : support::format("s_%s_b64 %s, %s, %s", op, preg(p).c_str(),
                                        preg(a).c_str(), preg(b).c_str()));
        return p;
      }
      case ExprKind::BoolNot: {
        const int a = emit_bool(e.kid[0]);
        const int p = next_pred_++;
        emit_line(nv_ ? support::format("not.pred %s, %s;", preg(p).c_str(),
                                        preg(a).c_str())
                      : support::format("s_not_b64 %s, %s", preg(p).c_str(),
                                        preg(a).c_str()));
        return p;
      }
      default: {
        const int v = emit_expr(id);
        const int p = next_pred_++;
        emit_line(nv_ ? support::format("setp.ne%s %s, %s, 0.0;", suffix(),
                                        preg(p).c_str(), reg(v).c_str())
                      : support::format("v_cmp_ne_%s %s, %s, 0", f32_ ? "f32" : "f64",
                                        preg(p).c_str(), reg(v).c_str()));
        return p;
      }
    }
  }

  void walk_body(std::span<const StmtId> body) {
    for (StmtId id : body) walk(arena_[id]);
  }

  void walk(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::DeclTemp: {
        const int v = emit_expr(s.a);
        emit_line(nv_ ? support::format("mov%s %%tmp%d, %s;", suffix(), s.index,
                                        reg(v).c_str())
                      : support::format("tmp%d = v_mov %s", s.index, reg(v).c_str()));
        break;
      }
      case StmtKind::AssignComp: {
        const int v = emit_expr(s.a);
        const int r = fresh();
        switch (s.assign_op) {
          case ir::AssignOp::Set:
            emit_line(nv_ ? support::format("mov%s %s, %s;", suffix(), reg(r).c_str(),
                                            reg(v).c_str())
                          : support::format("%s = v_mov %s", reg(r).c_str(),
                                            reg(v).c_str()));
            break;
          case ir::AssignOp::Add: op3("add.rn", "v_add", r, comp_reg_, v); break;
          case ir::AssignOp::Sub: op3("sub.rn", "v_sub", r, comp_reg_, v); break;
          case ir::AssignOp::Mul: op3("mul.rn", "v_mul", r, comp_reg_, v); break;
          case ir::AssignOp::Div: op3("div.rn", "v_div_fixup", r, comp_reg_, v); break;
        }
        comp_reg_ = r;
        break;
      }
      case StmtKind::StoreArray: {
        const int idx = emit_expr(s.a);
        const int v = emit_expr(s.b);
        const auto& name = exe_.program.params().at(static_cast<std::size_t>(s.index)).name;
        emit_line(nv_ ? support::format("st.global%s [%s + %s], %s;", suffix(),
                                        name.c_str(), reg(idx).c_str(), reg(v).c_str())
                      : support::format("global_store [%s + %s], %s", name.c_str(),
                                        reg(idx).c_str(), reg(v).c_str()));
        break;
      }
      case StmtKind::For: {
        const int label = next_label_++;
        const auto& bound =
            exe_.program.params().at(static_cast<std::size_t>(s.bound_param)).name;
        emit_line(nv_ ? support::format("mov.s32 %%r_i%d, 0;", s.index)
                      : support::format("s_i%d = s_mov_b32 0", s.index));
        emit_line(support::format(nv_ ? "LBB_%d: // loop over %s" : "BB_%d: ; loop over %s",
                                  label, bound.c_str()));
        ++indent_;
        walk_body(arena_.body(s));
        emit_line(nv_ ? support::format("add.s32 %%r_i%d, %%r_i%d, 1;", s.index, s.index)
                      : support::format("s_i%d = s_add_i32 s_i%d, 1", s.index, s.index));
        --indent_;
        emit_line(nv_ ? support::format("setp.lt.s32 %%p_l%d, %%r_i%d, [%s]; @%%p_l%d bra LBB_%d;",
                                        label, s.index, bound.c_str(), label, label)
                      : support::format("s_cmp_lt_i32 s_i%d, [%s]; s_cbranch_scc1 BB_%d",
                                        s.index, bound.c_str(), label));
        break;
      }
      case StmtKind::If: {
        const int p = emit_bool(s.a);
        const int label = next_label_++;
        emit_line(nv_ ? support::format("@!%s bra LBB_END_%d;", preg(p).c_str(), label)
                      : support::format("s_and_saveexec_b64 exec, %s ; branch BB_END_%d",
                                        preg(p).c_str(), label));
        ++indent_;
        walk_body(arena_.body(s));
        --indent_;
        emit_line(support::format(nv_ ? "LBB_END_%d:" : "BB_END_%d: ; s_or_b64 exec", label));
        break;
      }
    }
  }

  const opt::Executable& exe_;
  const Arena& arena_;
  bool nv_;
  bool f32_;
  std::string out_;
  int next_reg_ = 1;
  int next_pred_ = 1;
  int next_label_ = 0;
  int indent_ = 0;
  int comp_reg_ = 0;
};

}  // namespace

std::string disassemble(const opt::Executable& exe) { return Disassembler(exe).run(); }

}  // namespace gpudiff::vgpu
