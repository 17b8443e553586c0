// Reference oracle for Database::Select: reads every row of the table with
// no predicate and filters the rows one at a time through the AST
// interpreter (sql::EvaluatePredicate). It shares nothing with the planner,
// the plan cache, the index probes or the compiled program, so
// agreeing with it means those layers changed no result and no error.
#ifndef TESTS_REFERENCE_ORACLE_H_
#define TESTS_REFERENCE_ORACLE_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/sql/ast.h"
#include "src/sql/eval.h"

namespace edna::oracle {

// Ids of the rows of `table` matching `pred`, in RowId order, or the error
// of the first row (in RowId order) whose evaluation fails.
inline StatusOr<std::vector<db::RowId>> ReferenceMatch(const db::Database& db,
                                                       const std::string& table,
                                                       const sql::Expr& pred,
                                                       const sql::ParamMap& params) {
  const db::TableSchema* schema = db.schema().FindTable(table);
  if (schema == nullptr) {
    return NotFound("no table \"" + table + "\"");
  }
  ASSIGN_OR_RETURN(auto rows, db.SelectRowsWithIds(table, nullptr, {}));
  std::vector<db::RowId> out;
  for (const auto& [id, row] : rows) {
    ASSIGN_OR_RETURN(bool match,
                     sql::EvaluatePredicate(pred, db::MakeRowResolver(*schema, row), params));
    if (match) {
      out.push_back(id);
    }
  }
  return out;
}

// Database::Select against ReferenceMatch on the same statement: the same
// ids in the same order, or the same error code and message.
inline ::testing::AssertionResult SelectMatchesReference(const db::Database& db,
                                                         const std::string& table,
                                                         const sql::Expr& pred,
                                                         const sql::ParamMap& params) {
  StatusOr<std::vector<db::RowRef>> got = db.Select(table, &pred, params);
  StatusOr<std::vector<db::RowId>> want = ReferenceMatch(db, table, pred, params);
  const std::string where = table + " WHERE " + pred.ToString();
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << where << ": Select says " << (got.ok() ? "OK" : got.status().ToString())
           << ", the reference says " << (want.ok() ? "OK" : want.status().ToString());
  }
  if (!got.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return ::testing::AssertionFailure() << where << ": Select fails with "
                                           << got.status().ToString() << ", the reference with "
                                           << want.status().ToString();
    }
    return ::testing::AssertionSuccess();
  }
  std::vector<db::RowId> ids;
  ids.reserve(got->size());
  for (const db::RowRef& ref : *got) {
    ids.push_back(ref.id);
  }
  if (ids != *want) {
    return ::testing::AssertionFailure() << where << ": Select returns " << ids.size()
                                         << " rows, the reference " << want->size()
                                         << " (or the same count in another order)";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace edna::oracle

#endif  // TESTS_REFERENCE_ORACLE_H_
