// Compiled predicates: one-time lowering of a parsed SQL expression into a
// flat register program bound to a fixed column layout.
//
// The tree-walking interpreter in eval.cc resolves every column reference
// through a string-keyed std::function per row and re-discovers the
// expression shape on every evaluation. On the disguise hot path the same
// predicate runs against thousands of rows, so Compile() does the work once:
// column refs bind to ordinals, params bind to slots (filled per statement,
// not per row), and the AST lowers to a linear instruction sequence with
// explicit jumps for the interpreter's short-circuit points. Kleene
// three-valued logic, NULL propagation, evaluation order, and every error
// message are preserved exactly — eval.cc's kernels (CompareValues and
// friends) are shared, and tests/sql_compile_test.cc fuzzes the two
// evaluators against each other.
//
// Binding failures (unknown column) do NOT fail Compile: the interpreter
// only raises them if the reference is actually evaluated (short-circuit can
// skip it), so they lower to a deferred-error instruction instead.
#ifndef SRC_SQL_COMPILE_H_
#define SRC_SQL_COMPILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sql/ast.h"
#include "src/sql/eval.h"
#include "src/sql/value.h"

namespace edna::sql {

// Resolves an (optionally table-qualified) column reference to its ordinal
// in the row layout the program will run against. A non-OK status is
// captured and re-raised lazily at evaluation time.
using ColumnBinder =
    std::function<StatusOr<size_t>(const std::string& table, const std::string& column)>;

// Parameter values resolved to the program's slots, once per statement.
// Missing params are legal at bind time; evaluating one raises the
// interpreter's "unbound parameter" error.
class BoundParams {
 public:
  bool present(size_t slot) const { return present_[slot]; }
  const Value& value(size_t slot) const { return values_[slot]; }

 private:
  friend class CompiledPredicate;
  std::vector<Value> values_;
  std::vector<uint8_t> present_;
};

// Reusable register file so steady-state row evaluation allocates nothing.
// One per evaluating thread; pass the same instance across rows.
struct EvalScratch {
  std::vector<Value> regs;
};

class CompiledPredicate {
 public:
  // The instruction set is public: the static program checker
  // (src/sql/verify.h) validates it and decompiles programs back to ASTs,
  // and tests hand-build malformed programs to exercise the checker.
  enum class Op : uint8_t {
    kConst,        // regs[dst] = imm
    kColumn,       // regs[dst] = row[a]
    kParam,        // regs[dst] = params[a]; error if unbound
    kFail,         // raise `error` (deferred binding failure)
    kNot,          // regs[dst] = Kleene NOT truth(regs[a])
    kNeg,          // regs[dst] = -regs[a]
    kPlusOp,       // regs[dst] = +regs[a] (numeric check only)
    kCompare,      // regs[dst] = CompareValues(bop, regs[a], regs[b])
    kArith,        // regs[dst] = ArithmeticValues(bop, regs[a], regs[b])
    kConcatOp,     // regs[dst] = regs[a] || regs[b]
    kTruth,        // regs[dst] = TruthToValue(TruthOf(regs[a]))
    kJumpIfFalse,  // if regs[a] == FALSE: pc = target  (AND short-circuit)
    kJumpIfTrue,   // if regs[a] == TRUE: pc = target   (OR short-circuit)
    kAndCombine,   // regs[dst] = Kleene min(regs[a], regs[b]) (truth-encoded)
    kOrCombine,    // regs[dst] = Kleene max(regs[a], regs[b])
    kIsNullOp,     // regs[dst] = Bool(regs[a] is null, xor negated)
    kInInit,       // needle regs[a] null -> regs[dst] = Null, pc = target;
                   // else regs[b] (saw_null flag) = false
    kInStep,       // item regs[c]: null -> regs[b] = true; == needle regs[a]
                   // -> regs[dst] = Bool(!negated), pc = target
    kInFinish,     // regs[dst] = regs[b] ? Null : Bool(negated)
    kBetweenOp,    // regs[dst] = regs[a] BETWEEN regs[b] AND regs[c]
    kLikeOp,       // regs[dst] = regs[a] LIKE regs[b]
    kCall,         // regs[dst] = CallScalarFunction(text, regs[args...])
  };

  struct Insn {
    Op op = Op::kConst;
    BinaryOp bop = BinaryOp::kEq;
    bool negated = false;
    int dst = -1;
    int a = -1;
    int b = -1;
    int c = -1;
    int target = -1;        // jump destination (instruction index)
    Value imm;              // kConst
    std::string text;       // param / function name
    Status error = OkStatus();  // kFail payload
    std::vector<int> args;  // kCall argument registers
  };

  // Lowers `expr` against `binder`. Only internal inconsistencies fail;
  // unknown columns become deferred errors (see file comment).
  static StatusOr<CompiledPredicate> Compile(const Expr& expr, const ColumnBinder& binder);

  CompiledPredicate(CompiledPredicate&&) = default;
  CompiledPredicate& operator=(CompiledPredicate&&) = default;

  // Resolves `params` to slots. Cheap; do once per statement.
  BoundParams BindParams(const ParamMap& params) const;

  // Evaluates against one row (positional values, `row_width` columns).
  // Result may be Null (UNKNOWN).
  StatusOr<Value> EvalRow(const Value* row, size_t row_width, const BoundParams& params,
                          EvalScratch* scratch) const;

  // Predicate form: NULL and FALSE are "no match", matching
  // sql::EvaluatePredicate.
  StatusOr<bool> Matches(const Value* row, size_t row_width, const BoundParams& params,
                         EvalScratch* scratch) const;

  size_t num_instructions() const { return code_.size(); }
  size_t num_registers() const { return num_regs_; }
  const std::vector<std::string>& param_names() const { return param_names_; }

  // Program introspection for verify.h and tests.
  const std::vector<Insn>& code() const { return code_; }
  int result_reg() const { return result_reg_; }

  // Test-only constructor: assembles a program directly so the checker's
  // negative cases can exercise malformed shapes Compile() never emits.
  static CompiledPredicate AssembleForTest(std::vector<Insn> code, size_t num_regs,
                                           int result_reg,
                                           std::vector<std::string> param_names);

 private:
  class Builder;

  CompiledPredicate() = default;

  std::vector<Insn> code_;
  size_t num_regs_ = 0;
  int result_reg_ = -1;
  std::vector<std::string> param_names_;  // slot -> name
};

}  // namespace edna::sql

#endif  // SRC_SQL_COMPILE_H_
