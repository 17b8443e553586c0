// DisguiseEngine::Reveal: permanent reversal of a disguise (§4.2), filtering
// all revealed data through disguises applied in the interim so that reversal
// never reintroduces data a later active disguise hides. ("Reversal of GDPR
// must avoid reintroducing identifiable reviews if ConfAnon has occurred
// since GDPR was applied.")
#include <algorithm>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/core/engine_internal.h"

namespace edna::core {

using disguise::DisguiseSpec;
using disguise::TransformKind;
using disguise::Transformation;
using vault::RevealOp;
using vault::RevealRecord;

std::vector<DisguiseEngine::InterimTransform> DisguiseEngine::CollectInterimTransforms(
    uint64_t disguise_id) const {
  // Snapshot semantics: ActiveAfterCopy pins the set of interim disguises at
  // this instant; params/spec names are copied because a concurrent Append
  // may reallocate the log's storage. The transform pointers stay valid —
  // they point into registered specs, which are frozen before operations run.
  std::vector<InterimTransform> out;
  for (const LogEntry& entry : log_.ActiveAfterCopy(disguise_id)) {
    const DisguiseSpec* spec = FindSpec(entry.spec_name);
    if (spec == nullptr) {
      EDNA_LOG(kWarning) << "log references unregistered spec \"" << entry.spec_name
                         << "\"; its transformations cannot be re-applied";
      continue;
    }
    for (const disguise::TableDisguise& td : spec->tables()) {
      for (const Transformation& tr : td.transformations) {
        out.push_back(InterimTransform{entry.id, td.table, &tr, entry.params,
                                       entry.spec_name});
      }
    }
  }
  return out;
}

namespace {

// Evaluates an interim transformation's predicate against a hypothetical
// (restored) row image.
StatusOr<bool> PredicateMatches(const Transformation& tr, const db::TableSchema& schema,
                                const db::Row& row, const sql::ParamMap& params) {
  sql::ColumnResolver resolver = db::MakeRowResolver(schema, row);
  return sql::EvaluatePredicate(*tr.predicate(), resolver, params);
}

}  // namespace

StatusOr<RevealResult> DisguiseEngine::Reveal(uint64_t disguise_id) {
  std::optional<LogEntry> entry = log_.FindCopy(disguise_id);
  if (!entry.has_value()) {
    return NotFound("no disguise with id " + std::to_string(disguise_id));
  }
  if (!entry->active) {
    return FailedPrecondition("disguise " + std::to_string(disguise_id) +
                              " was already revealed");
  }
  ASSIGN_OR_RETURN(std::vector<RevealRecord> records, vault_->FetchForDisguise(disguise_id));
  if (records.empty()) {
    return FailedPrecondition(
        "no reveal records for disguise " + std::to_string(disguise_id) +
        " (vault entry expired or inaccessible); the disguise is irreversible");
  }

  std::vector<InterimTransform> interim = CollectInterimTransforms(disguise_id);

  RevealResult result;
  result.disguise_id = disguise_id;
  Rng op_rng = OpRng('R', entry->spec_name, entry->user_id);
  uint64_t queries_before = db::Database::ThreadStatements();

  // Engine-internal mutations are exempt from the strict-mode write guard.
  EngineOpScope engine_scope(this);

  // Crash consistency (recovery.h): journal the intent before touching any
  // store. For reveals the commit point is the database transaction; the
  // log/vault bookkeeping after it rolls FORWARD on recovery, everything
  // before it rolls BACK.
  uint64_t journal_id = journal_.Begin(JournalOp::kReveal, entry->spec_name,
                                       entry->params, entry->user_id, disguise_id,
                                       clock_->Now());
  Status journaled = PersistJournalDelta(journal_.EncodeBegin(journal_id));
  if (!journaled.ok()) {
    if (!FailPoints::IsSimulatedCrash(journaled)) {
      journal_.Complete(journal_id);  // intent never durable; nothing mutated
    }
    return journaled;
  }

  Status begun = db_->Begin();
  if (!begun.ok()) {
    if (!FailPoints::IsSimulatedCrash(begun)) {
      // Nothing mutated; clean abort (a pending intent left on disk is
      // harmless — Recover() rolls a kIntent reveal back without repairs).
      Status retired = RetireJournalEntry(journal_id);
      if (FailPoints::IsSimulatedCrash(retired)) {
        return retired;
      }
      begun = FoldStatus(std::move(begun), retired, "journal retire");
    }
    return begun;
  }
  Status status = [&]() -> Status {
    // Records in reverse store order, ops in reverse apply order: the exact
    // inverse of the original application.
    for (auto rec_it = records.rbegin(); rec_it != records.rend(); ++rec_it) {
      const RevealRecord& rec = *rec_it;
      for (auto op_it = rec.ops.rbegin(); op_it != rec.ops.rend(); ++op_it) {
        const RevealOp& op = *op_it;
        const db::TableSchema* schema = db_->schema().FindTable(op.table);
        if (schema == nullptr) {
          return Internal("reveal record references missing table \"" + op.table + "\"");
        }
        // Checked here, not left to GetColumn: its kNotFound would read as a
        // concurrent delete and be retried as a write conflict.
        if (op.kind == RevealOp::Kind::kRestoreColumn && !schema->HasColumn(op.column)) {
          return Internal("reveal record references missing column \"" + op.column +
                          "\" of table \"" + op.table + "\"");
        }
        switch (op.kind) {
          case RevealOp::Kind::kRestoreColumn: {
            if (!db_->RowExists(op.table, op.row_id)) {
              ++result.rows_suppressed;  // row removed since; nothing to restore
              break;
            }
            auto current_or = db_->GetColumn(op.table, op.row_id, op.column);
            if (!current_or.ok()) {
              return RaceToAborted(current_or.status());
            }
            sql::Value current = *std::move(current_or);
            if (!current.SqlEquals(op.new_value) ||
                current.is_null() != op.new_value.is_null()) {
              // A later disguise (or the application) rewrote this value; it
              // owns the cell now. Restoring would clobber its state.
              ++result.rows_suppressed;
              break;
            }
            // Build the hypothetical restored row and filter it through
            // interim transformations.
            auto candidate_row_or = db_->GetRow(op.table, op.row_id);
            if (!candidate_row_or.ok()) {
              return RaceToAborted(candidate_row_or.status());
            }
            db::Row candidate_row = *std::move(candidate_row_or);
            int col_idx = schema->ColumnIndex(op.column);
            candidate_row[static_cast<size_t>(col_idx)] = op.old_value;
            sql::Value candidate = op.old_value;
            bool suppress = false;
            for (const InterimTransform& it : interim) {
              if (it.table != op.table) {
                continue;
              }
              ASSIGN_OR_RETURN(bool match, PredicateMatches(*it.transform, *schema,
                                                            candidate_row, it.params));
              if (!match) {
                continue;
              }
              switch (it.transform->kind()) {
                case TransformKind::kRemove:
                  // A later disguise removes rows like the restored one;
                  // keep the current (disguised) value rather than reveal.
                  suppress = true;
                  break;
                case TransformKind::kModify:
                  if (it.transform->column() == op.column) {
                    disguise::GenContext gen_ctx;
                    gen_ctx.rng = &op_rng;
                    gen_ctx.original = &candidate;
                    gen_ctx.row = db::MakeRowResolver(*schema, candidate_row);
                    gen_ctx.params = &it.params;
                    ASSIGN_OR_RETURN(sql::Value next,
                                     it.transform->generator().Generate(gen_ctx));
                    candidate = next;
                    candidate_row[static_cast<size_t>(col_idx)] = next;
                    ++result.values_redisguised;
                  }
                  break;
                case TransformKind::kDecorrelate:
                  if (it.transform->foreign_key().column == op.column) {
                    // The later disguise wants this reference decorrelated;
                    // the current value already points at a placeholder.
                    suppress = true;
                    ++result.values_redisguised;
                  }
                  break;
              }
              if (suppress) {
                break;
              }
            }
            // If the restored value is a reference whose target has since
            // been removed (by a later disguise or the application), the
            // reveal must not resurrect the link.
            if (!suppress && !candidate.is_null()) {
              if (const db::ForeignKeyDef* fk = schema->FindForeignKey(op.column);
                  fk != nullptr) {
                db::PkKey key;
                key.values.push_back(candidate);
                if (!db_->LookupPk(fk->parent_table, key).ok()) {
                  suppress = true;
                }
              }
            }
            if (suppress) {
              ++result.rows_suppressed;
              break;
            }
            RETURN_IF_ERROR(RaceToAborted(
                db_->SetColumn(op.table, op.row_id, op.column, candidate)));
            ++result.columns_restored;
            break;
          }
          case RevealOp::Kind::kRestoreRow: {
            if (db_->RowExists(op.table, op.row_id)) {
              break;  // already present (should not happen)
            }
            db::Row candidate = op.row;
            // Schema evolution (§7): the record may predate columns appended
            // via AddColumnToTable. Pad with their declared defaults so
            // pre-evolution disguises stay reversible.
            while (candidate.size() < schema->num_columns()) {
              const db::ColumnDef& added = schema->columns()[candidate.size()];
              candidate.push_back(added.default_value.has_value() ? *added.default_value
                                                                  : sql::Value::Null());
            }
            if (candidate.size() > schema->num_columns()) {
              return FailedPrecondition(
                  "reveal record for \"" + op.table +
                  "\" is wider than the current schema; column drops are not supported");
            }
            bool suppress = false;
            for (const InterimTransform& it : interim) {
              if (it.table != op.table) {
                continue;
              }
              ASSIGN_OR_RETURN(bool match, PredicateMatches(*it.transform, *schema,
                                                            candidate, it.params));
              if (!match) {
                continue;
              }
              switch (it.transform->kind()) {
                case TransformKind::kRemove:
                  suppress = true;  // stays deleted: later disguise removes it
                  break;
                case TransformKind::kModify: {
                  int col_idx = schema->ColumnIndex(it.transform->column());
                  sql::Value original = candidate[static_cast<size_t>(col_idx)];
                  disguise::GenContext gen_ctx;
                  gen_ctx.rng = &op_rng;
                  gen_ctx.original = &original;
                  gen_ctx.row = db::MakeRowResolver(*schema, candidate);
                  gen_ctx.params = &it.params;
                  ASSIGN_OR_RETURN(sql::Value next,
                                   it.transform->generator().Generate(gen_ctx));
                  candidate[static_cast<size_t>(col_idx)] = next;
                  ++result.values_redisguised;
                  break;
                }
                case TransformKind::kDecorrelate: {
                  // Point the restored row's FK at a fresh placeholder made
                  // from the *later* disguise's recipe.
                  const DisguiseSpec* later = FindSpec(it.spec_name);
                  const disguise::TableDisguise* parent_td =
                      later->FindTable(it.transform->foreign_key().parent_table);
                  if (parent_td == nullptr || parent_td->placeholder.empty()) {
                    return Internal("interim decorrelate lacks placeholder recipe");
                  }
                  std::map<std::string, sql::Value> values;
                  disguise::GenContext gen_ctx;
                  gen_ctx.rng = &op_rng;
                  gen_ctx.params = &it.params;
                  for (const disguise::PlaceholderColumn& pc : parent_td->placeholder) {
                    ASSIGN_OR_RETURN(sql::Value v, pc.generator.Generate(gen_ctx));
                    values.emplace(pc.column, std::move(v));
                  }
                  const std::string& parent = it.transform->foreign_key().parent_table;
                  ASSIGN_OR_RETURN(db::RowId pid,
                                   InsertPlaceholderRow(parent, std::move(values), &op_rng));
                  const db::TableSchema* pts = db_->schema().FindTable(parent);
                  ASSIGN_OR_RETURN(sql::Value ppk,
                                   db_->GetColumn(parent, pid, pts->primary_key()[0]));
                  int col_idx =
                      schema->ColumnIndex(it.transform->foreign_key().column);
                  candidate[static_cast<size_t>(col_idx)] = ppk;
                  ++result.values_redisguised;
                  break;
                }
              }
              if (suppress) {
                break;
              }
            }
            // Re-apply FK delete actions to the revealed row: referenced
            // rows may have been removed since this row was vaulted (e.g. a
            // later GDPR deleted the account this log entry points at). A
            // SET NULL reference is nulled, exactly as the later delete
            // would have done; a RESTRICT/CASCADE reference whose parent is
            // gone means the row itself would not have survived — suppress.
            if (!suppress) {
              for (const db::ForeignKeyDef& fk : schema->foreign_keys()) {
                int fk_idx = schema->ColumnIndex(fk.column);
                sql::Value& ref = candidate[static_cast<size_t>(fk_idx)];
                if (ref.is_null()) {
                  continue;
                }
                db::PkKey key;
                key.values.push_back(ref);
                if (db_->LookupPk(fk.parent_table, key).ok()) {
                  continue;
                }
                if (fk.on_delete == db::FkAction::kSetNull) {
                  ref = sql::Value::Null();
                  ++result.values_redisguised;
                } else {
                  suppress = true;
                  break;
                }
              }
            }
            if (suppress) {
              ++result.rows_suppressed;
              break;
            }
            RETURN_IF_ERROR(RaceToAborted(db_->RestoreRow(op.table, op.row_id, candidate)));
            ++result.rows_restored;
            break;
          }
          case RevealOp::Kind::kDropPlaceholder: {
            if (!db_->RowExists(op.table, op.row_id)) {
              break;
            }
            Status dropped = db_->DeleteRow(op.table, op.row_id);
            if (dropped.ok()) {
              ++result.placeholders_dropped;
            } else if (dropped.code() == StatusCode::kIntegrityViolation) {
              // Something still references the placeholder (e.g. a later
              // disguise reused it, or the restore above was suppressed).
              // Keeping an orphan placeholder is harmless; removing it would
              // break integrity.
              EDNA_DLOG << "keeping referenced placeholder " << op.table << "/"
                        << op.row_id;
            } else {
              return dropped;
            }
            break;
          }
        }
      }
    }
    return OkStatus();
  }();
  if (status.ok()) {
    status = FailPoints::Instance().Check(failpoints::kRevealBeforeCommit);
  }
  if (!status.ok()) {
    if (FailPoints::IsSimulatedCrash(status)) {
      return status;  // journal stays pending; Recover() rolls the reveal back
    }
    Status rb = db_->Rollback();
    if (!rb.ok()) {
      EDNA_LOG(kError) << "rollback after failed reveal also failed: " << rb;
      status = FoldStatus(std::move(status), rb, "rollback");
    }
    Status retired = RetireJournalEntry(journal_id);
    if (FailPoints::IsSimulatedCrash(retired)) {
      return retired;
    }
    status = FoldStatus(std::move(status), retired, "journal retire");
    return status;
  }

  // Commit the database restoration FIRST. The old order (log/vault
  // bookkeeping before commit) let a refused commit strand vault mutations
  // that the rollback could not undo for external vaults. With commit first,
  // any post-commit failure leaves the journal entry pending at kCommitted
  // and Recover() rolls the bookkeeping forward.
  // The kCommitted advance rides inside the commit's WAL record so the phase
  // marker and the restore become durable atomically.
  StageCommittedAdvance(journal_id);
  Status committed = db_->Commit();
  if (!committed.ok()) {
    if (FailPoints::IsSimulatedCrash(committed)) {
      return committed;
    }
    Status rb = db_->Rollback();
    if (!rb.ok()) {
      EDNA_LOG(kError) << "rollback after failed reveal commit also failed: " << rb;
      committed = FoldStatus(std::move(committed), rb, "rollback");
    }
    Status retired = RetireJournalEntry(journal_id);
    if (FailPoints::IsSimulatedCrash(retired)) {
      return retired;
    }
    committed = FoldStatus(std::move(committed), retired, "journal retire");
    return committed;
  }
  journal_.Advance(journal_id, JournalPhase::kCommitted);

  {
    Status post = FailPoints::Instance().Check(failpoints::kRevealAfterCommit);
    if (!post.ok()) {
      return post;  // pending at kCommitted; Recover() finishes the bookkeeping
    }
  }
  Status marked = log_.MarkRevealed(disguise_id);
  if (!marked.ok()) {
    EDNA_LOG(kError) << "reveal committed but marking the log entry failed: "
                     << marked;
    return marked;  // journal pending; Recover() retries the bookkeeping
  }
  Status removed = vault_->Remove(disguise_id);
  if (!removed.ok()) {
    EDNA_LOG(kError) << "reveal committed but dropping vault records failed: "
                     << removed;
    return removed;  // journal pending; Recover() retries the bookkeeping
  }
  UnprotectRows(disguise_id);
  {
    Status retired = RetireJournalEntry(journal_id);
    if (!retired.ok()) {
      // Restore and bookkeeping are durable; pending at kCommitted, so
      // Recover() re-runs the (idempotent) bookkeeping and retires it.
      EDNA_LOG(kError) << "reveal finished but retiring journal entry failed: " << retired;
      return retired;
    }
  }
  CommitOpSeq('R', entry->spec_name, entry->user_id);
  result.queries = db::Database::ThreadStatements() - queries_before;
  return result;
}

}  // namespace edna::core
