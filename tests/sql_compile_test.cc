// Compiled predicates (src/sql/compile.{h,cc}): unit tests for the lowering
// and a differential fuzzer that pits the compiled executor against the
// tree-walking interpreter — same expression, same row, same params must
// yield the same value OR the same error, including NULL/three-valued-logic
// edges, short-circuit-hidden errors, and unbound params. The fuzzer runs
// in the default ctest battery, so the ASan/UBSan presets cover it too.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/sql/compile.h"
#include "src/sql/eval.h"
#include "src/sql/parser.h"

namespace edna::sql {
namespace {

// Fixed row layout the compiled programs bind against: c0..c3.
const std::vector<std::string> kColumns = {"c0", "c1", "c2", "c3"};

ColumnBinder TestBinder() {
  return [](const std::string& table, const std::string& column) -> StatusOr<size_t> {
    if (!table.empty() && table != "t") {
      return NotFound("unknown table qualifier \"" + table + "\" (row is from \"t\")");
    }
    for (size_t i = 0; i < kColumns.size(); ++i) {
      if (kColumns[i] == column) {
        return i;
      }
    }
    return NotFound("unknown column \"" + column + "\" in table \"t\"");
  };
}

ColumnResolver TestResolver(const std::vector<Value>& row) {
  return [&row](const std::string& table, const std::string& column) -> StatusOr<Value> {
    if (!table.empty() && table != "t") {
      return NotFound("unknown table qualifier \"" + table + "\" (row is from \"t\")");
    }
    for (size_t i = 0; i < kColumns.size(); ++i) {
      if (kColumns[i] == column) {
        return row[i];
      }
    }
    return NotFound("unknown column \"" + column + "\" in table \"t\"");
  };
}

ExprPtr Parse(const std::string& text) {
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status();
  return std::move(*e);
}

// Runs both evaluators and asserts they agree (value or error).
void ExpectAgreement(const Expr& expr, const std::vector<Value>& row,
                     const ParamMap& params, const std::string& context) {
  StatusOr<Value> interpreted = Evaluate(expr, TestResolver(row), params);

  auto compiled = CompiledPredicate::Compile(expr, TestBinder());
  ASSERT_TRUE(compiled.ok()) << context << ": compile failed: " << compiled.status();
  BoundParams bound = compiled->BindParams(params);
  EvalScratch scratch;
  StatusOr<Value> executed = compiled->EvalRow(row.data(), row.size(), bound, &scratch);

  ASSERT_EQ(interpreted.ok(), executed.ok())
      << context << "\n  interpreter: "
      << (interpreted.ok() ? interpreted->ToSqlString() : interpreted.status().ToString())
      << "\n  compiled:    "
      << (executed.ok() ? executed->ToSqlString() : executed.status().ToString());
  if (interpreted.ok()) {
    EXPECT_EQ(interpreted->ToSqlString(), executed->ToSqlString()) << context;
  } else {
    EXPECT_EQ(interpreted.status().code(), executed.status().code()) << context;
    EXPECT_EQ(interpreted.status().message(), executed.status().message()) << context;
  }
}

void ExpectAgreementText(const std::string& text, const std::vector<Value>& row,
                         const ParamMap& params = {}) {
  ExprPtr e = Parse(text);
  ExpectAgreement(*e, row, params, text);
}

TEST(SqlCompileTest, SimpleComparisons) {
  std::vector<Value> row = {Value::Int(5), Value::String("abc"), Value::Null(),
                            Value::Bool(true)};
  ExpectAgreementText("\"c0\" = 5", row);
  ExpectAgreementText("\"c0\" != 5", row);
  ExpectAgreementText("\"c0\" < 10", row);
  ExpectAgreementText("\"c1\" = 'abc'", row);
  ExpectAgreementText("\"c2\" = 1", row);  // NULL operand -> NULL result
  ExpectAgreementText("\"c3\" = TRUE", row);
  ExpectAgreementText("\"c0\" = 'abc'", row);  // cross-class type error
}

TEST(SqlCompileTest, KleeneAndOrShortCircuit) {
  std::vector<Value> row = {Value::Int(0), Value::String("x"), Value::Null(),
                            Value::Bool(false)};
  // FALSE AND <error> must not error (short-circuit).
  ExpectAgreementText("\"c0\" = 1 AND \"c1\" / 2 = 0", row);
  // TRUE OR <error> must not error.
  ExpectAgreementText("\"c0\" = 0 OR \"c1\" / 2 = 0", row);
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL; NULL OR TRUE = TRUE.
  ExpectAgreementText("\"c2\" = 1 AND \"c0\" = 1", row);
  ExpectAgreementText("\"c2\" = 1 AND \"c0\" = 0", row);
  ExpectAgreementText("\"c2\" = 1 OR \"c0\" = 0", row);
  ExpectAgreementText("NOT (\"c2\" = 1)", row);
}

TEST(SqlCompileTest, UnknownColumnErrorsLazily) {
  std::vector<Value> row = {Value::Int(1), Value::String("x"), Value::Null(),
                            Value::Bool(false)};
  // The binder cannot resolve "nope", but short-circuit hides it — the
  // interpreter never errors, so the compiled program must not either.
  ExpectAgreementText("\"c0\" = 0 AND \"nope\" = 1", row);
  // Evaluated for real: both must raise the same NotFound.
  ExpectAgreementText("\"c0\" = 1 AND \"nope\" = 1", row);
  ExpectAgreementText("\"nope\" = 1", row);
}

TEST(SqlCompileTest, InListSemantics) {
  std::vector<Value> row = {Value::Int(2), Value::String("b"), Value::Null(),
                            Value::Bool(true)};
  ExpectAgreementText("\"c0\" IN (1, 2, 3)", row);
  ExpectAgreementText("\"c0\" IN (4, 5)", row);
  ExpectAgreementText("\"c0\" NOT IN (4, 5)", row);
  // NULL needle -> NULL without evaluating items.
  ExpectAgreementText("\"c2\" IN (1, 2)", row);
  // NULL item: match still wins; no match with a NULL item -> NULL.
  ExpectAgreementText("\"c0\" IN (2, NULL)", row);
  ExpectAgreementText("\"c0\" IN (4, NULL)", row);
  ExpectAgreementText("\"c0\" NOT IN (4, NULL)", row);
}

TEST(SqlCompileTest, BetweenAndLike) {
  std::vector<Value> row = {Value::Int(5), Value::String("hello"), Value::Null(),
                            Value::Bool(true)};
  ExpectAgreementText("\"c0\" BETWEEN 1 AND 10", row);
  ExpectAgreementText("\"c0\" BETWEEN 6 AND 10", row);
  ExpectAgreementText("\"c0\" NOT BETWEEN 6 AND 10", row);
  ExpectAgreementText("\"c2\" BETWEEN 1 AND 10", row);
  ExpectAgreementText("\"c0\" BETWEEN \"c2\" AND 10", row);  // NULL lo -> Kleene
  ExpectAgreementText("\"c1\" LIKE 'he%'", row);
  ExpectAgreementText("\"c1\" NOT LIKE 'x_'", row);
  ExpectAgreementText("\"c2\" LIKE 'a%'", row);
  ExpectAgreementText("\"c0\" LIKE 'a%'", row);  // non-string: type error
}

TEST(SqlCompileTest, ParamsBoundPerInvocation) {
  std::vector<Value> row = {Value::Int(7), Value::String("x"), Value::Null(),
                            Value::Bool(true)};
  ExprPtr e = Parse("\"c0\" = $UID");
  ExpectAgreement(*e, row, {{"UID", Value::Int(7)}}, "bound param matches");
  ExpectAgreement(*e, row, {{"UID", Value::Int(8)}}, "bound param misses");
  // Unbound param: error only when actually evaluated.
  ExpectAgreement(*e, row, {}, "unbound param");
  ExprPtr hidden = Parse("\"c0\" = 0 AND \"c0\" = $UID");
  ExpectAgreement(*hidden, row, {}, "unbound param hidden by short-circuit");

  // One compiled program, two bindings: no cross-invocation bleed.
  auto compiled = CompiledPredicate::Compile(*e, TestBinder());
  ASSERT_TRUE(compiled.ok());
  EvalScratch scratch;
  BoundParams hit = compiled->BindParams({{"UID", Value::Int(7)}});
  BoundParams miss = compiled->BindParams({{"UID", Value::Int(8)}});
  auto r1 = compiled->Matches(row.data(), row.size(), hit, &scratch);
  auto r2 = compiled->Matches(row.data(), row.size(), miss, &scratch);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r1);
  EXPECT_FALSE(*r2);
}

TEST(SqlCompileTest, FunctionsAndArithmetic) {
  std::vector<Value> row = {Value::Int(6), Value::String("MiXeD"), Value::Null(),
                            Value::Bool(false)};
  ExpectAgreementText("LOWER(\"c1\") = 'mixed'", row);
  ExpectAgreementText("LENGTH(\"c1\") + \"c0\" = 11", row);
  ExpectAgreementText("COALESCE(\"c2\", \"c0\") = 6", row);
  ExpectAgreementText("\"c0\" % 4 = 2", row);
  ExpectAgreementText("\"c0\" / 0 = 1", row);       // division by zero error
  ExpectAgreementText("NO_SUCH_FN(\"c0\") = 1", row);  // unknown fn: lazy error
  ExpectAgreementText("\"c0\" = 1 AND NO_SUCH_FN(\"c0\") = 1", row);  // hidden
  ExpectAgreementText("'a' || \"c1\" = 'aMiXeD'", row);
}

TEST(SqlCompileTest, MatchesAgreesWithEvaluatePredicate) {
  std::vector<Value> row = {Value::Int(3), Value::String("s"), Value::Null(),
                            Value::Bool(true)};
  for (const char* text : {"\"c0\" = 3", "\"c0\" = 4", "\"c2\" = 1", "\"c0\" + 1"}) {
    ExprPtr e = Parse(text);
    auto interpreted = EvaluatePredicate(*e, TestResolver(row), {});
    auto compiled = CompiledPredicate::Compile(*e, TestBinder());
    ASSERT_TRUE(compiled.ok());
    BoundParams bound = compiled->BindParams({});
    EvalScratch scratch;
    auto matched = compiled->Matches(row.data(), row.size(), bound, &scratch);
    ASSERT_EQ(interpreted.ok(), matched.ok()) << text;
    if (interpreted.ok()) {
      EXPECT_EQ(*interpreted, *matched) << text;
    }
  }
}

// --- Differential fuzzer -----------------------------------------------------

class Fuzzer {
 public:
  explicit Fuzzer(uint32_t seed) : rng_(seed) {}

  ExprPtr RandomExpr(int depth) {
    if (depth <= 0 || Chance(30)) {
      return RandomLeaf();
    }
    switch (Pick(7)) {
      case 0:
        return Expr::Unary(static_cast<UnaryOp>(Pick(3)), RandomExpr(depth - 1));
      case 1: {
        // Comparisons, arithmetic, AND/OR, concat — the whole BinaryOp range.
        auto op = static_cast<BinaryOp>(Pick(14));
        return Expr::Binary(op, RandomExpr(depth - 1), RandomExpr(depth - 1));
      }
      case 2:
        return Expr::IsNull(RandomExpr(depth - 1), Chance(50));
      case 3: {
        std::vector<ExprPtr> items;
        size_t n = Pick(4);  // 0..3 items
        items.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          items.push_back(RandomExpr(depth - 1));
        }
        return Expr::In(RandomExpr(depth - 1), std::move(items), Chance(50));
      }
      case 4:
        return Expr::Between(RandomExpr(depth - 1), RandomExpr(depth - 1),
                             RandomExpr(depth - 1), Chance(50));
      case 5:
        return Expr::Like(RandomExpr(depth - 1), RandomExpr(depth - 1), Chance(50));
      default: {
        static const char* kFns[] = {"LOWER", "UPPER", "LENGTH", "ABS",
                                     "COALESCE", "IFNULL", "CONCAT", "BOGUS_FN"};
        std::vector<ExprPtr> args;
        size_t n = 1 + Pick(2);
        for (size_t i = 0; i < n; ++i) {
          args.push_back(RandomExpr(depth - 1));
        }
        return Expr::Call(kFns[Pick(8)], std::move(args));
      }
    }
  }

  std::vector<Value> RandomRow() {
    std::vector<Value> row;
    row.reserve(kColumns.size());
    for (size_t i = 0; i < kColumns.size(); ++i) {
      row.push_back(RandomValue());
    }
    return row;
  }

  ParamMap RandomParams() {
    ParamMap params;
    if (Chance(80)) {
      params["P"] = RandomValue();
    }
    if (Chance(50)) {
      params["Q"] = RandomValue();
    }
    return params;
  }

 private:
  ExprPtr RandomLeaf() {
    switch (Pick(4)) {
      case 0:
        return Expr::Literal(RandomValue());
      case 1: {
        // Mostly known columns; sometimes qualified; sometimes unknown, to
        // exercise the deferred-binding-error path.
        if (Chance(10)) {
          return Expr::ColumnRef("", "no_such_column");
        }
        std::string qualifier = Chance(25) ? "t" : "";
        return Expr::ColumnRef(std::move(qualifier), kColumns[Pick(kColumns.size())]);
      }
      case 2:
        return Expr::Param(Chance(60) ? "P" : "Q");  // Q often unbound
      default:
        return Expr::Literal(RandomValue());
    }
  }

  Value RandomValue() {
    switch (Pick(6)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Int(static_cast<int64_t>(Pick(7)) - 3);
      case 2:
        return Value::Double((static_cast<double>(Pick(9)) - 4) / 2.0);
      case 3:
        return Value::Bool(Chance(50));
      case 4: {
        static const char* kStrings[] = {"", "a", "abc", "zz", "a%", "_b"};
        return Value::String(kStrings[Pick(6)]);
      }
      default:
        return Value::Int(static_cast<int64_t>(Pick(3)));
    }
  }

  size_t Pick(size_t n) { return std::uniform_int_distribution<size_t>(0, n - 1)(rng_); }
  bool Chance(int percent) { return Pick(100) < static_cast<size_t>(percent); }

  std::mt19937 rng_;
};

TEST(SqlCompileFuzzTest, CompiledAgreesWithInterpreterOnRandomExpressions) {
  Fuzzer fuzz(0xED7A);
  for (int i = 0; i < 4000; ++i) {
    ExprPtr expr = fuzz.RandomExpr(4);
    std::vector<Value> row = fuzz.RandomRow();
    ParamMap params = fuzz.RandomParams();
    ExpectAgreement(*expr, row, params,
                    "iteration " + std::to_string(i) + ": " + expr->ToString());
    if (::testing::Test::HasFatalFailure()) {
      return;  // first divergence is enough to diagnose
    }
  }
}

// One program evaluated against MANY rows (the hot-path shape): scratch and
// bound params must carry no state across rows.
TEST(SqlCompileFuzzTest, ProgramIsReusableAcrossRows) {
  Fuzzer fuzz(0xBEEF);
  for (int p = 0; p < 200; ++p) {
    ExprPtr expr = fuzz.RandomExpr(3);
    auto compiled = CompiledPredicate::Compile(*expr, TestBinder());
    ASSERT_TRUE(compiled.ok()) << expr->ToString();
    ParamMap params = fuzz.RandomParams();
    BoundParams bound = compiled->BindParams(params);
    EvalScratch scratch;
    for (int r = 0; r < 20; ++r) {
      std::vector<Value> row = fuzz.RandomRow();
      StatusOr<Value> interpreted = Evaluate(*expr, TestResolver(row), params);
      StatusOr<Value> executed =
          compiled->EvalRow(row.data(), row.size(), bound, &scratch);
      ASSERT_EQ(interpreted.ok(), executed.ok()) << expr->ToString();
      if (interpreted.ok()) {
        ASSERT_EQ(interpreted->ToSqlString(), executed->ToSqlString())
            << expr->ToString();
      } else {
        ASSERT_EQ(interpreted.status().message(), executed.status().message())
            << expr->ToString();
      }
    }
  }
}

}  // namespace
}  // namespace edna::sql
