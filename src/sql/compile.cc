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
  p.ClassifyRegisters();
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
  p.ClassifyRegisters();
  return p;
}

void CompiledPredicate::ClassifyRegisters() {
  // A register is truth-class iff it is written at least once and every
  // writer emits a truth-encoded value (Bool or Null). Such registers carry
  // only three states per lane, so the chunked evaluator stores them as two
  // bitmaps and the Kleene combines become word-wise logic. (kFail "writes"
  // dst by raising, so it never constrains the class.)
  truth_class_.assign(num_regs_, 0);
  std::vector<uint8_t> written(num_regs_, 0);
  std::vector<uint8_t> value_written(num_regs_, 0);
  // AssembleForTest programs may name registers past num_regs_; skip them
  // here and leave the rejection to VerifyProgram.
  auto in_range = [this](int reg) { return reg >= 0 && static_cast<size_t>(reg) < num_regs_; };
  for (const Insn& in : code_) {
    if (!in_range(in.dst) || in.op == Op::kFail) {
      continue;
    }
    bool truth_write = in.op == Op::kTruth || in.op == Op::kAndCombine ||
                       in.op == Op::kOrCombine;
    written[in.dst] = 1;
    if (!truth_write) {
      value_written[in.dst] = 1;
    }
    // kInInit/kInStep also write their saw_null flag register (b).
    if ((in.op == Op::kInInit || in.op == Op::kInStep) && in_range(in.b)) {
      written[in.b] = 1;
      value_written[in.b] = 1;
    }
  }
  for (size_t r = 0; r < num_regs_; ++r) {
    truth_class_[r] = written[r] && !value_written[r];
  }
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

// --- Batched execution -------------------------------------------------------

namespace {

bool GetBit(const std::vector<uint64_t>& words, uint32_t lane) {
  return (words[lane >> 6] >> (lane & 63)) & 1;
}

void AssignBit(std::vector<uint64_t>* words, uint32_t lane, bool on) {
  uint64_t mask = uint64_t{1} << (lane & 63);
  if (on) {
    (*words)[lane >> 6] |= mask;
  } else {
    (*words)[lane >> 6] &= ~mask;
  }
}

}  // namespace

void CompiledPredicate::RunChunk(const RowChunk& chunk, const BoundParams& params,
                                 ChunkScratch* s) const {
  const size_t lanes = chunk.lanes;
  const size_t words = (lanes + 63) / 64;
  const size_t n = code_.size();

  s->vals.resize(num_regs_);
  s->bits.resize(num_regs_);
  for (size_t r = 0; r < num_regs_; ++r) {
    if (truth_class_[r]) {
      s->bits[r].truth.assign(words, 0);
      s->bits[r].null.assign(words, 0);
    } else if (s->vals[r].size() < lanes) {
      s->vals[r].resize(lanes);
    }
  }
  if (s->pending.size() < n + 1) {
    s->pending.resize(n + 1);
  }
  for (auto& p : s->pending) {
    p.clear();
  }
  s->lane_errors.clear();
  s->insns_executed = 0;

  std::vector<uint32_t>& sel = s->sel;
  sel.clear();
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    sel.push_back(lane);
  }
  s->lanes_evaluated = sel.size();

  // Per-lane accessors that paper over the two register classes. `stash`
  // gives materialized truth values a home so reads can stay by-reference.
  Value stash_a, stash_b, stash_c;
  auto ref = [&](int r, uint32_t lane, Value* stash) -> const Value& {
    if (truth_class_[r]) {
      *stash = GetBit(s->bits[r].null, lane)
                   ? Value::Null()
                   : Value::Bool(GetBit(s->bits[r].truth, lane));
      return *stash;
    }
    return s->vals[r][lane];
  };
  auto get_truth = [&](int r, uint32_t lane) -> Truth {
    // Operands of the truth ops are truth-encoded, so TruthOf cannot error.
    if (truth_class_[r]) {
      if (GetBit(s->bits[r].null, lane)) return Truth::kUnknown;
      return GetBit(s->bits[r].truth, lane) ? Truth::kTrue : Truth::kFalse;
    }
    Status err = OkStatus();
    return TruthOf(s->vals[r][lane], &err);
  };
  auto set_truth = [&](int r, uint32_t lane, Truth t) {
    if (truth_class_[r]) {
      AssignBit(&s->bits[r].truth, lane, t == Truth::kTrue);
      AssignBit(&s->bits[r].null, lane, t == Truth::kUnknown);
    } else {
      s->vals[r][lane] = TruthToValue(t);
    }
  };

  // Runs `fn` for each selected lane; a lane whose fn returns non-OK is
  // retired with its error (the row loop would have aborted on it — the
  // lowest such lane decides the chunk's status afterwards).
  auto run_lanes = [&](auto&& fn) {
    size_t out = 0;
    for (uint32_t lane : sel) {
      Status st = fn(lane);
      if (st.ok()) {
        sel[out++] = lane;
      } else {
        s->lane_errors.emplace_back(lane, std::move(st));
      }
    }
    sel.resize(out);
  };
  // Fails every selected lane with the same status (whole-chunk errors:
  // kFail, unbound params, bad column ordinals).
  auto fail_all = [&](const Status& st) {
    for (uint32_t lane : sel) {
      s->lane_errors.emplace_back(lane, st);
    }
    sel.clear();
  };
  // Moves lanes satisfying `cond` to pending[target]; the rest fall through.
  auto branch = [&](int target, auto&& cond) {
    std::vector<uint32_t>& park = s->pending[static_cast<size_t>(target)];
    size_t out = 0;
    for (uint32_t lane : sel) {
      if (cond(lane)) {
        park.push_back(lane);
      } else {
        sel[out++] = lane;
      }
    }
    sel.resize(out);
  };

  for (size_t pc = 0; pc < n; ++pc) {
    if (!s->pending[pc].empty()) {
      sel.insert(sel.end(), s->pending[pc].begin(), s->pending[pc].end());
      s->pending[pc].clear();
    }
    if (sel.empty()) {
      continue;
    }
    ++s->insns_executed;
    const Insn& in = code_[pc];
    switch (in.op) {
      case Op::kConst:
        for (uint32_t lane : sel) {
          s->vals[in.dst][lane] = in.imm;
        }
        break;
      case Op::kColumn:
        if (static_cast<size_t>(in.a) >= chunk.row_width) {
          fail_all(Internal(StrFormat("compiled predicate reads column %d of a %zu-wide row",
                                      in.a, chunk.row_width)));
          break;
        }
        for (uint32_t lane : sel) {
          s->vals[in.dst][lane] = chunk.rows[lane][in.a];
        }
        break;
      case Op::kParam:
        if (!params.present(static_cast<size_t>(in.a))) {
          fail_all(InvalidArgument("unbound parameter $" + in.text));
          break;
        }
        for (uint32_t lane : sel) {
          s->vals[in.dst][lane] = params.value(static_cast<size_t>(in.a));
        }
        break;
      case Op::kFail:
        fail_all(in.error);
        break;
      case Op::kNot:
        run_lanes([&](uint32_t lane) -> Status {
          Status err = OkStatus();
          Truth t = TruthOf(ref(in.a, lane, &stash_a), &err);
          RETURN_IF_ERROR(err);
          s->vals[in.dst][lane] =
              t == Truth::kUnknown ? Value::Null() : Value::Bool(t == Truth::kFalse);
          return OkStatus();
        });
        break;
      case Op::kNeg:
        run_lanes([&](uint32_t lane) -> Status {
          const Value& v = ref(in.a, lane, &stash_a);
          if (v.is_null()) {
            s->vals[in.dst][lane] = Value::Null();
          } else if (v.is_int()) {
            s->vals[in.dst][lane] = Value::Int(-v.AsInt());
          } else {
            ASSIGN_OR_RETURN(double d, v.ToNumber());
            s->vals[in.dst][lane] = Value::Double(-d);
          }
          return OkStatus();
        });
        break;
      case Op::kPlusOp:
        run_lanes([&](uint32_t lane) -> Status {
          const Value& v = ref(in.a, lane, &stash_a);
          if (v.is_null()) {
            s->vals[in.dst][lane] = Value::Null();
          } else {
            RETURN_IF_ERROR(v.ToNumber().status());
            s->vals[in.dst][lane] = v;
          }
          return OkStatus();
        });
        break;
      case Op::kCompare:
        run_lanes([&](uint32_t lane) -> Status {
          ASSIGN_OR_RETURN(Value v, CompareValues(in.bop, ref(in.a, lane, &stash_a),
                                                  ref(in.b, lane, &stash_b)));
          s->vals[in.dst][lane] = std::move(v);
          return OkStatus();
        });
        break;
      case Op::kArith:
        run_lanes([&](uint32_t lane) -> Status {
          ASSIGN_OR_RETURN(Value v, ArithmeticValues(in.bop, ref(in.a, lane, &stash_a),
                                                     ref(in.b, lane, &stash_b)));
          s->vals[in.dst][lane] = std::move(v);
          return OkStatus();
        });
        break;
      case Op::kConcatOp:
        run_lanes([&](uint32_t lane) -> Status {
          const Value& a = ref(in.a, lane, &stash_a);
          const Value& b = ref(in.b, lane, &stash_b);
          if (a.is_null() || b.is_null()) {
            s->vals[in.dst][lane] = Value::Null();
          } else {
            s->vals[in.dst][lane] = Value::String(StringifyValue(a) + StringifyValue(b));
          }
          return OkStatus();
        });
        break;
      case Op::kTruth:
        if (truth_class_[in.dst] && truth_class_[in.a] && sel.size() == lanes) {
          // Truth of a truth-encoded register is the identity: whole-chunk
          // bitmap copy.
          s->bits[in.dst].truth = s->bits[in.a].truth;
          s->bits[in.dst].null = s->bits[in.a].null;
          break;
        }
        run_lanes([&](uint32_t lane) -> Status {
          Status err = OkStatus();
          Truth t = TruthOf(ref(in.a, lane, &stash_a), &err);
          RETURN_IF_ERROR(err);
          set_truth(in.dst, lane, t);
          return OkStatus();
        });
        break;
      case Op::kJumpIfFalse:
        branch(in.target, [&](uint32_t lane) {
          if (truth_class_[in.a]) {
            return !GetBit(s->bits[in.a].null, lane) && !GetBit(s->bits[in.a].truth, lane);
          }
          const Value& v = s->vals[in.a][lane];
          return v.is_bool() && !v.AsBool();
        });
        break;
      case Op::kJumpIfTrue:
        branch(in.target, [&](uint32_t lane) {
          if (truth_class_[in.a]) {
            return !GetBit(s->bits[in.a].null, lane) && GetBit(s->bits[in.a].truth, lane);
          }
          const Value& v = s->vals[in.a][lane];
          return v.is_bool() && v.AsBool();
        });
        break;
      case Op::kAndCombine:
      case Op::kOrCombine: {
        bool and_op = in.op == Op::kAndCombine;
        if (truth_class_[in.dst] && truth_class_[in.a] && truth_class_[in.b] &&
            sel.size() == lanes) {
          // Every lane is live (no lane short-circuited past this combine,
          // so no lane's dst may be preserved): Kleene min/max word-wise.
          //   AND: true = a&b;  unknown = (aN|bN) & ~aF & ~bF  (F = ~T & ~N)
          //   OR:  true = a|b;  unknown = (aN|bN) & ~true
          const ChunkScratch::TruthBits& a = s->bits[in.a];
          const ChunkScratch::TruthBits& b = s->bits[in.b];
          ChunkScratch::TruthBits& d = s->bits[in.dst];
          for (size_t w = 0; w < words; ++w) {
            uint64_t at = a.truth[w], an = a.null[w];
            uint64_t bt = b.truth[w], bn = b.null[w];
            if (and_op) {
              uint64_t af = ~at & ~an;
              uint64_t bf = ~bt & ~bn;
              d.truth[w] = at & bt;
              d.null[w] = (an | bn) & ~af & ~bf;
            } else {
              d.truth[w] = at | bt;
              d.null[w] = (an | bn) & ~d.truth[w];
            }
          }
          break;
        }
        for (uint32_t lane : sel) {
          Truth a = get_truth(in.a, lane);
          Truth b = get_truth(in.b, lane);
          set_truth(in.dst, lane, and_op ? std::min(a, b) : std::max(a, b));
        }
        break;
      }
      case Op::kIsNullOp:
        for (uint32_t lane : sel) {
          bool is_null = truth_class_[in.a] ? GetBit(s->bits[in.a].null, lane)
                                            : s->vals[in.a][lane].is_null();
          s->vals[in.dst][lane] = Value::Bool(in.negated ? !is_null : is_null);
        }
        break;
      case Op::kInInit:
        branch(in.target, [&](uint32_t lane) {
          if (ref(in.a, lane, &stash_a).is_null()) {
            s->vals[in.dst][lane] = Value::Null();
            return true;
          }
          s->vals[in.b][lane] = Value::Bool(false);
          return false;
        });
        break;
      case Op::kInStep: {
        // Three-way split per lane: null item records saw_null and falls
        // through, a match writes the result and exits the list, an error
        // retires the lane.
        std::vector<uint32_t>& park = s->pending[static_cast<size_t>(in.target)];
        size_t out = 0;
        for (uint32_t lane : sel) {
          const Value& item = ref(in.c, lane, &stash_c);
          if (item.is_null()) {
            s->vals[in.b][lane] = Value::Bool(true);
            sel[out++] = lane;
            continue;
          }
          StatusOr<Value> eq =
              CompareValues(BinaryOp::kEq, ref(in.a, lane, &stash_a), item);
          if (!eq.ok()) {
            s->lane_errors.emplace_back(lane, eq.status());
            continue;
          }
          if (!eq->is_null() && eq->AsBool()) {
            s->vals[in.dst][lane] = Value::Bool(!in.negated);
            park.push_back(lane);
          } else {
            sel[out++] = lane;
          }
        }
        sel.resize(out);
        break;
      }
      case Op::kInFinish:
        for (uint32_t lane : sel) {
          if (s->vals[in.b][lane].AsBool()) {
            s->vals[in.dst][lane] = Value::Null();
          } else {
            s->vals[in.dst][lane] = Value::Bool(in.negated);
          }
        }
        break;
      case Op::kBetweenOp:
        run_lanes([&](uint32_t lane) -> Status {
          const Value& v = ref(in.a, lane, &stash_a);
          ASSIGN_OR_RETURN(Value ge, CompareValues(BinaryOp::kGe, v, ref(in.b, lane, &stash_b)));
          ASSIGN_OR_RETURN(Value le, CompareValues(BinaryOp::kLe, v, ref(in.c, lane, &stash_c)));
          Status err = OkStatus();
          Truth tg = TruthOf(ge, &err);
          RETURN_IF_ERROR(err);
          Truth tl = TruthOf(le, &err);
          RETURN_IF_ERROR(err);
          Truth both = std::min(tg, tl);  // Kleene AND
          if (in.negated) {
            s->vals[in.dst][lane] = both == Truth::kUnknown
                                        ? Value::Null()
                                        : Value::Bool(both == Truth::kFalse);
          } else {
            s->vals[in.dst][lane] = TruthToValue(both);
          }
          return OkStatus();
        });
        break;
      case Op::kLikeOp:
        run_lanes([&](uint32_t lane) -> Status {
          const Value& v = ref(in.a, lane, &stash_a);
          const Value& pat = ref(in.b, lane, &stash_b);
          if (v.is_null() || pat.is_null()) {
            s->vals[in.dst][lane] = Value::Null();
          } else if (!v.is_string() || !pat.is_string()) {
            return InvalidArgument("LIKE requires string operands");
          } else {
            bool m = LikeMatch(v.AsString(), pat.AsString());
            s->vals[in.dst][lane] = Value::Bool(in.negated ? !m : m);
          }
          return OkStatus();
        });
        break;
      case Op::kCall:
        run_lanes([&](uint32_t lane) -> Status {
          std::vector<Value> args;
          args.reserve(in.args.size());
          for (int r : in.args) {
            args.push_back(ref(r, lane, &stash_a));
          }
          ASSIGN_OR_RETURN(Value v, CallScalarFunction(in.text, args));
          s->vals[in.dst][lane] = std::move(v);
          return OkStatus();
        });
        break;
    }
  }

  // Lanes parked exactly at end-of-program completed via a jump.
  if (n < s->pending.size() && !s->pending[n].empty()) {
    sel.insert(sel.end(), s->pending[n].begin(), s->pending[n].end());
    s->pending[n].clear();
  }
}

Status CompiledPredicate::MatchChunk(const RowChunk& chunk, const BoundParams& params,
                                     ChunkScratch* s) const {
  RunChunk(chunk, params, s);
  s->match_bits.fill(0);
  s->match_count = 0;
  if (truth_class_[result_reg_]) {
    // Truth-encoded result: TRUE lanes are exactly the set truth bits.
    const ChunkScratch::TruthBits& res = s->bits[result_reg_];
    for (uint32_t lane : s->sel) {
      if (GetBit(res.truth, lane) && !GetBit(res.null, lane)) {
        s->match_bits[lane >> 6] |= uint64_t{1} << (lane & 63);
        ++s->match_count;
      }
    }
  } else {
    for (uint32_t lane : s->sel) {
      const Value& v = s->vals[result_reg_][lane];
      if (v.is_null()) {
        continue;  // UNKNOWN filters out
      }
      Status err = OkStatus();
      Truth t = TruthOf(v, &err);
      if (!err.ok()) {
        s->lane_errors.emplace_back(lane, std::move(err));
        continue;
      }
      if (t == Truth::kTrue) {
        s->match_bits[lane >> 6] |= uint64_t{1} << (lane & 63);
        ++s->match_count;
      }
    }
  }
  if (!s->lane_errors.empty()) {
    // Row-at-a-time evaluation stops at the first erroring row, so the
    // lowest lane's error is the one the caller would have seen.
    const std::pair<uint32_t, Status>* first = &s->lane_errors[0];
    for (const auto& le : s->lane_errors) {
      if (le.first < first->first) {
        first = &le;
      }
    }
    return first->second;
  }
  return OkStatus();
}

void CompiledPredicate::EvalChunk(const RowChunk& chunk, const BoundParams& params,
                                  ChunkScratch* s, std::vector<StatusOr<Value>>* out) const {
  RunChunk(chunk, params, s);
  out->assign(chunk.lanes, Value::Null());
  Value stash;
  for (uint32_t lane : s->sel) {
    if (truth_class_[result_reg_]) {
      (*out)[lane] = GetBit(s->bits[result_reg_].null, lane)
                         ? Value::Null()
                         : Value::Bool(GetBit(s->bits[result_reg_].truth, lane));
    } else {
      (*out)[lane] = s->vals[result_reg_][lane];
    }
  }
  for (auto& le : s->lane_errors) {
    (*out)[le.first] = le.second;
  }
}

}  // namespace edna::sql
