#include "src/sql/compile.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace edna::sql {

// --- Compilation -------------------------------------------------------------

class CompiledPredicate::Builder {
 public:
  explicit Builder(const ColumnBinder& binder) : binder_(binder) {}

  StatusOr<int> CompileExpr(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kLiteral: {
        int r = Alloc();
        Insn in;
        in.op = Op::kConst;
        in.dst = r;
        in.imm = e.literal();
        Emit(std::move(in));
        return r;
      }
      case ExprKind::kColumnRef: {
        int r = Alloc();
        StatusOr<size_t> ordinal = binder_(e.table(), e.column());
        if (ordinal.ok()) {
          Insn in;
        in.op = Op::kColumn;
          in.dst = r;
          in.a = static_cast<int>(*ordinal);
          Emit(std::move(in));
        } else {
          // Deferred: the interpreter only errors if the reference is
          // actually evaluated (short-circuit may skip it). dst records the
          // register the value would have landed in — kFail "defines" it by
          // raising, which the static checker (verify.h) relies on.
          Insn in;
        in.op = Op::kFail;
          in.dst = r;
          in.error = ordinal.status();
          Emit(std::move(in));
        }
        return r;
      }
      case ExprKind::kParam: {
        int r = Alloc();
        Insn in;
        in.op = Op::kParam;
        in.dst = r;
        in.a = static_cast<int>(InternParam(e.param_name()));
        in.text = e.param_name();
        Emit(std::move(in));
        return r;
      }
      case ExprKind::kUnary: {
        ASSIGN_OR_RETURN(int operand, CompileExpr(*e.children()[0]));
        int r = Alloc();
        Insn in;
        in.op = Op::kNot;
        switch (e.unary_op()) {
          case UnaryOp::kNot:
            in.op = Op::kNot;
            break;
          case UnaryOp::kNeg:
            in.op = Op::kNeg;
            break;
          case UnaryOp::kPlus:
            in.op = Op::kPlusOp;
            break;
        }
        in.dst = r;
        in.a = operand;
        Emit(std::move(in));
        return r;
      }
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kIsNull: {
        ASSIGN_OR_RETURN(int operand, CompileExpr(*e.children()[0]));
        int r = Alloc();
        Insn in;
        in.op = Op::kIsNullOp;
        in.dst = r;
        in.a = operand;
        in.negated = e.negated();
        Emit(std::move(in));
        return r;
      }
      case ExprKind::kIn:
        return CompileIn(e);
      case ExprKind::kBetween: {
        ASSIGN_OR_RETURN(int v, CompileExpr(*e.children()[0]));
        ASSIGN_OR_RETURN(int lo, CompileExpr(*e.children()[1]));
        ASSIGN_OR_RETURN(int hi, CompileExpr(*e.children()[2]));
        int r = Alloc();
        Insn in;
        in.op = Op::kBetweenOp;
        in.dst = r;
        in.a = v;
        in.b = lo;
        in.c = hi;
        in.negated = e.negated();
        Emit(std::move(in));
        return r;
      }
      case ExprKind::kLike: {
        ASSIGN_OR_RETURN(int v, CompileExpr(*e.children()[0]));
        ASSIGN_OR_RETURN(int pat, CompileExpr(*e.children()[1]));
        int r = Alloc();
        Insn in;
        in.op = Op::kLikeOp;
        in.dst = r;
        in.a = v;
        in.b = pat;
        in.negated = e.negated();
        Emit(std::move(in));
        return r;
      }
      case ExprKind::kCall: {
        std::vector<int> args;
        args.reserve(e.children().size());
        for (const ExprPtr& c : e.children()) {
          ASSIGN_OR_RETURN(int a, CompileExpr(*c));
          args.push_back(a);
        }
        int r = Alloc();
        Insn in;
        in.op = Op::kCall;
        in.dst = r;
        in.text = e.function();
        in.args = std::move(args);
        Emit(std::move(in));
        return r;
      }
    }
    return Internal("bad expression kind");
  }

  std::vector<Insn> TakeCode() { return std::move(code_); }
  size_t num_regs() const { return next_reg_; }
  std::vector<std::string> TakeParams() { return std::move(param_names_); }

 private:
  StatusOr<int> CompileBinary(const Expr& e) {
    BinaryOp op = e.binary_op();
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      // Mirrors the interpreter: evaluate lhs, coerce to truth (may error),
      // short-circuit on FALSE (AND) / TRUE (OR), else evaluate rhs and
      // Kleene-combine. The truth encoding (Bool/Null) doubles as the
      // result value, exactly like TruthToValue.
      ASSIGN_OR_RETURN(int lhs, CompileExpr(*e.children()[0]));
      int r = Alloc();
      {
        Insn in;
        in.op = Op::kTruth;
        in.dst = r;
        in.a = lhs;
        Emit(std::move(in));
      }
      size_t jump_at = code_.size();
      {
        Insn in;
        in.op = op == BinaryOp::kAnd ? Op::kJumpIfFalse : Op::kJumpIfTrue;
        in.a = r;
        Emit(std::move(in));
      }
      ASSIGN_OR_RETURN(int rhs, CompileExpr(*e.children()[1]));
      int rt = Alloc();
      {
        Insn in;
        in.op = Op::kTruth;
        in.dst = rt;
        in.a = rhs;
        Emit(std::move(in));
      }
      {
        Insn in;
        in.op = op == BinaryOp::kAnd ? Op::kAndCombine : Op::kOrCombine;
        in.dst = r;
        in.a = r;
        in.b = rt;
        Emit(std::move(in));
      }
      code_[jump_at].target = static_cast<int>(code_.size());
      return r;
    }

    ASSIGN_OR_RETURN(int a, CompileExpr(*e.children()[0]));
    ASSIGN_OR_RETURN(int b, CompileExpr(*e.children()[1]));
    int r = Alloc();
    Insn in;
        in.op = Op::kCompare;
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kMod:
        in.op = Op::kArith;
        break;
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        in.op = Op::kCompare;
        break;
      case BinaryOp::kConcat:
        in.op = Op::kConcatOp;
        break;
      default:
        return Internal("bad binary op");
    }
    in.bop = op;
    in.dst = r;
    in.a = a;
    in.b = b;
    Emit(std::move(in));
    return r;
  }

  StatusOr<int> CompileIn(const Expr& e) {
    // NULL needle skips the whole list (items unevaluated), matching the
    // interpreter's early return; a matching item exits early too.
    ASSIGN_OR_RETURN(int needle, CompileExpr(*e.children()[0]));
    int result = Alloc();
    int saw_null = Alloc();
    std::vector<size_t> exits;
    exits.push_back(code_.size());
    {
      Insn in;
        in.op = Op::kInInit;
      in.dst = result;
      in.a = needle;
      in.b = saw_null;
      Emit(std::move(in));
    }
    for (size_t i = 1; i < e.children().size(); ++i) {
      ASSIGN_OR_RETURN(int item, CompileExpr(*e.children()[i]));
      exits.push_back(code_.size());
      Insn in;
        in.op = Op::kInStep;
      in.dst = result;
      in.a = needle;
      in.b = saw_null;
      in.c = item;
      in.negated = e.negated();
      Emit(std::move(in));
    }
    {
      Insn in;
        in.op = Op::kInFinish;
      in.dst = result;
      in.b = saw_null;
      in.negated = e.negated();
      Emit(std::move(in));
    }
    for (size_t at : exits) {
      code_[at].target = static_cast<int>(code_.size());
    }
    return result;
  }

  int Alloc() { return static_cast<int>(next_reg_++); }
  void Emit(Insn in) { code_.push_back(std::move(in)); }

  size_t InternParam(const std::string& name) {
    for (size_t i = 0; i < param_names_.size(); ++i) {
      if (param_names_[i] == name) {
        return i;
      }
    }
    param_names_.push_back(name);
    return param_names_.size() - 1;
  }

  const ColumnBinder& binder_;
  std::vector<Insn> code_;
  size_t next_reg_ = 0;
  std::vector<std::string> param_names_;
};

StatusOr<CompiledPredicate> CompiledPredicate::Compile(const Expr& expr,
                                                       const ColumnBinder& binder) {
  if (!binder) {
    return InvalidArgument("CompiledPredicate requires a column binder");
  }
  Builder builder(binder);
  ASSIGN_OR_RETURN(int result, builder.CompileExpr(expr));
  CompiledPredicate p;
  p.code_ = builder.TakeCode();
  p.num_regs_ = builder.num_regs();
  p.result_reg_ = result;
  p.param_names_ = builder.TakeParams();
  return p;
}

CompiledPredicate CompiledPredicate::AssembleForTest(std::vector<Insn> code,
                                                     size_t num_regs, int result_reg,
                                                     std::vector<std::string> param_names) {
  CompiledPredicate p;
  p.code_ = std::move(code);
  p.num_regs_ = num_regs;
  p.result_reg_ = result_reg;
  p.param_names_ = std::move(param_names);
  return p;
}

// --- Execution ---------------------------------------------------------------

BoundParams CompiledPredicate::BindParams(const ParamMap& params) const {
  BoundParams bound;
  bound.values_.resize(param_names_.size());
  bound.present_.assign(param_names_.size(), 0);
  for (size_t i = 0; i < param_names_.size(); ++i) {
    auto it = params.find(param_names_[i]);
    if (it != params.end()) {
      bound.values_[i] = it->second;
      bound.present_[i] = 1;
    }
  }
  return bound;
}

StatusOr<Value> CompiledPredicate::EvalRow(const Value* row, size_t row_width,
                                           const BoundParams& params,
                                           EvalScratch* scratch) const {
  std::vector<Value>& regs = scratch->regs;
  if (regs.size() < num_regs_) {
    regs.resize(num_regs_);
  }
  size_t pc = 0;
  const size_t n = code_.size();
  while (pc < n) {
    const Insn& in = code_[pc];
    switch (in.op) {
      case Op::kConst:
        regs[in.dst] = in.imm;
        break;
      case Op::kColumn:
        if (static_cast<size_t>(in.a) >= row_width) {
          return Internal(StrFormat("compiled predicate reads column %d of a %zu-wide row",
                                    in.a, row_width));
        }
        regs[in.dst] = row[in.a];
        break;
      case Op::kParam:
        if (!params.present(static_cast<size_t>(in.a))) {
          return InvalidArgument("unbound parameter $" + in.text);
        }
        regs[in.dst] = params.value(static_cast<size_t>(in.a));
        break;
      case Op::kFail:
        return in.error;
      case Op::kNot: {
        Status err = OkStatus();
        Truth t = TruthOf(regs[in.a], &err);
        RETURN_IF_ERROR(err);
        regs[in.dst] =
            t == Truth::kUnknown ? Value::Null() : Value::Bool(t == Truth::kFalse);
        break;
      }
      case Op::kNeg: {
        const Value& v = regs[in.a];
        if (v.is_null()) {
          regs[in.dst] = Value::Null();
        } else if (v.is_int()) {
          regs[in.dst] = Value::Int(-v.AsInt());
        } else {
          ASSIGN_OR_RETURN(double d, v.ToNumber());
          regs[in.dst] = Value::Double(-d);
        }
        break;
      }
      case Op::kPlusOp: {
        const Value& v = regs[in.a];
        if (v.is_null()) {
          regs[in.dst] = Value::Null();
        } else {
          RETURN_IF_ERROR(v.ToNumber().status());
          regs[in.dst] = v;
        }
        break;
      }
      case Op::kCompare: {
        ASSIGN_OR_RETURN(Value v, CompareValues(in.bop, regs[in.a], regs[in.b]));
        regs[in.dst] = std::move(v);
        break;
      }
      case Op::kArith: {
        ASSIGN_OR_RETURN(Value v, ArithmeticValues(in.bop, regs[in.a], regs[in.b]));
        regs[in.dst] = std::move(v);
        break;
      }
      case Op::kConcatOp: {
        const Value& a = regs[in.a];
        const Value& b = regs[in.b];
        if (a.is_null() || b.is_null()) {
          regs[in.dst] = Value::Null();
        } else {
          regs[in.dst] = Value::String(StringifyValue(a) + StringifyValue(b));
        }
        break;
      }
      case Op::kTruth: {
        Status err = OkStatus();
        Truth t = TruthOf(regs[in.a], &err);
        RETURN_IF_ERROR(err);
        regs[in.dst] = TruthToValue(t);
        break;
      }
      case Op::kJumpIfFalse:
        if (regs[in.a].is_bool() && !regs[in.a].AsBool()) {
          pc = static_cast<size_t>(in.target);
          continue;
        }
        break;
      case Op::kJumpIfTrue:
        if (regs[in.a].is_bool() && regs[in.a].AsBool()) {
          pc = static_cast<size_t>(in.target);
          continue;
        }
        break;
      case Op::kAndCombine:
      case Op::kOrCombine: {
        // Operands are truth-encoded (Bool/Null), so TruthOf cannot error.
        Status err = OkStatus();
        Truth a = TruthOf(regs[in.a], &err);
        Truth b = TruthOf(regs[in.b], &err);
        Truth r = in.op == Op::kAndCombine ? std::min(a, b) : std::max(a, b);
        regs[in.dst] = TruthToValue(r);
        break;
      }
      case Op::kIsNullOp: {
        bool is_null = regs[in.a].is_null();
        regs[in.dst] = Value::Bool(in.negated ? !is_null : is_null);
        break;
      }
      case Op::kInInit:
        if (regs[in.a].is_null()) {
          regs[in.dst] = Value::Null();
          pc = static_cast<size_t>(in.target);
          continue;
        }
        regs[in.b] = Value::Bool(false);
        break;
      case Op::kInStep: {
        const Value& item = regs[in.c];
        if (item.is_null()) {
          regs[in.b] = Value::Bool(true);
          break;
        }
        ASSIGN_OR_RETURN(Value eq, CompareValues(BinaryOp::kEq, regs[in.a], item));
        if (!eq.is_null() && eq.AsBool()) {
          regs[in.dst] = Value::Bool(!in.negated);
          pc = static_cast<size_t>(in.target);
          continue;
        }
        break;
      }
      case Op::kInFinish:
        if (regs[in.b].AsBool()) {
          regs[in.dst] = Value::Null();
        } else {
          regs[in.dst] = Value::Bool(in.negated);
        }
        break;
      case Op::kBetweenOp: {
        ASSIGN_OR_RETURN(Value ge, CompareValues(BinaryOp::kGe, regs[in.a], regs[in.b]));
        ASSIGN_OR_RETURN(Value le, CompareValues(BinaryOp::kLe, regs[in.a], regs[in.c]));
        Status err = OkStatus();
        Truth tg = TruthOf(ge, &err);
        RETURN_IF_ERROR(err);
        Truth tl = TruthOf(le, &err);
        RETURN_IF_ERROR(err);
        Truth both = std::min(tg, tl);  // Kleene AND
        if (in.negated) {
          regs[in.dst] = both == Truth::kUnknown ? Value::Null()
                                                 : Value::Bool(both == Truth::kFalse);
        } else {
          regs[in.dst] = TruthToValue(both);
        }
        break;
      }
      case Op::kLikeOp: {
        const Value& v = regs[in.a];
        const Value& pat = regs[in.b];
        if (v.is_null() || pat.is_null()) {
          regs[in.dst] = Value::Null();
        } else if (!v.is_string() || !pat.is_string()) {
          return InvalidArgument("LIKE requires string operands");
        } else {
          bool m = LikeMatch(v.AsString(), pat.AsString());
          regs[in.dst] = Value::Bool(in.negated ? !m : m);
        }
        break;
      }
      case Op::kCall: {
        std::vector<Value> args;
        args.reserve(in.args.size());
        for (int r : in.args) {
          args.push_back(regs[r]);
        }
        ASSIGN_OR_RETURN(Value v, CallScalarFunction(in.text, args));
        regs[in.dst] = std::move(v);
        break;
      }
    }
    ++pc;
  }
  return regs[result_reg_];
}

StatusOr<bool> CompiledPredicate::Matches(const Value* row, size_t row_width,
                                          const BoundParams& params,
                                          EvalScratch* scratch) const {
  ASSIGN_OR_RETURN(Value v, EvalRow(row, row_width, params, scratch));
  if (v.is_null()) {
    return false;  // UNKNOWN filters out, as in SQL WHERE
  }
  Status err = OkStatus();
  Truth t = TruthOf(v, &err);
  RETURN_IF_ERROR(err);
  return t == Truth::kTrue;
}

}  // namespace edna::sql
