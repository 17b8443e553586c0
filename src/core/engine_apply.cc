// DisguiseEngine::Apply and the disguise-composition machinery (§4.2, §6).
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

namespace {

// True if `spec` contains a Decorrelate transformation on (table, column)
// whose predicate involves $UID — the signature of a per-user decorrelation
// the reuse optimization can satisfy with an existing placeholder.
bool SpecRedecorrelates(const DisguiseSpec& spec, const std::string& table,
                        const std::string& column) {
  const disguise::TableDisguise* td = spec.FindTable(table);
  if (td == nullptr) {
    return false;
  }
  for (const Transformation& tr : td->transformations) {
    if (tr.kind() == TransformKind::kDecorrelate && tr.foreign_key().column == column) {
      return true;
    }
  }
  return false;
}

}  // namespace

StatusOr<ApplyResult> DisguiseEngine::ApplyForUser(const std::string& spec_name,
                                                   sql::Value uid) {
  sql::ParamMap params;
  params.emplace(disguise::kUidParam, std::move(uid));
  return Apply(spec_name, params);
}

Status DisguiseEngine::RecorrelateForUser(ApplyContext* ctx) {
  // Pull the reveal records holding transformations of this user's data.
  // Because global disguises shard their reveal functions per affected user
  // (Apply stores one record per owner), ONE user's vault suffices — the
  // engine never scans every user's reveal functions to compose, mirroring
  // Edna's per-user vault tables. Vault entries exist only for *active*
  // disguises (Reveal removes them), so no staleness filtering is needed.
  ASSIGN_OR_RETURN(std::vector<RevealRecord> records, vault_->FetchForUser(ctx->uid));
  ctx->result.vault_records_scanned = records.size();

  for (const RevealRecord& rec : records) {
    for (const RevealOp& op : rec.ops) {
      // A prior disguise rewrote a reference that used to point at this
      // user: op.old_value == uid on some column. (Removed rows of the user
      // need no recorrelation — they are already at least as private as any
      // new disguise would make them.)
      if (op.kind != RevealOp::Kind::kRestoreColumn || !op.old_value.SqlEquals(ctx->uid) ||
          op.old_value.is_null()) {
        continue;
      }
      if (!db_->RowExists(op.table, op.row_id)) {
        continue;  // row has since been removed
      }
      ASSIGN_OR_RETURN(sql::Value current, db_->GetColumn(op.table, op.row_id, op.column));
      if (!current.SqlEquals(op.new_value)) {
        continue;  // value changed again since; that op no longer owns it
      }
      if (options_.reuse_decorrelation &&
          SpecRedecorrelates(*ctx->spec, op.table, op.column)) {
        // §6's optimization: the new disguise would only re-decorrelate this
        // reference, and it already points at a placeholder. Keep it.
        ++ctx->result.decorrelations_reused;
        continue;
      }
      // If the original identity row no longer exists (a prior disguise
      // removed the account itself), physical recorrelation would dangle the
      // foreign key. Fall back to *virtual* recorrelation: evaluate the new
      // spec against the hypothetical recorrelated row and act directly.
      bool parent_alive = true;
      const db::TableSchema* ts = db_->schema().FindTable(op.table);
      if (const db::ForeignKeyDef* fk = ts->FindForeignKey(op.column); fk != nullptr) {
        db::PkKey key;
        key.values.push_back(ctx->uid);
        parent_alive = db_->LookupPk(fk->parent_table, key).ok();
      }
      if (!parent_alive) {
        RETURN_IF_ERROR(VirtualRecorrelate(ctx, op.table, op.row_id, op.column));
        continue;
      }
      // Temporary recorrelation: restore the original reference so the new
      // disguise's predicates see the pre-disguise world.
      RETURN_IF_ERROR(db_->SetColumn(op.table, op.row_id, op.column, ctx->uid));
      ctx->recorrelated.push_back(ApplyContext::Recorrelated{
          op.table, op.row_id, op.column, current});
      ++ctx->result.rows_recorrelated;
    }
  }
  ctx->result.composed =
      ctx->result.rows_recorrelated > 0 || ctx->result.decorrelations_reused > 0;
  return OkStatus();
}

Status DisguiseEngine::VirtualRecorrelate(ApplyContext* ctx, const std::string& table,
                                          db::RowId row_id, const std::string& column) {
  const disguise::TableDisguise* td = ctx->spec->FindTable(table);
  if (td == nullptr) {
    return OkStatus();  // the new disguise does not touch this table
  }
  ASSIGN_OR_RETURN(db::Row hypothetical, db_->GetRow(table, row_id));
  const db::TableSchema* ts = db_->schema().FindTable(table);
  int col_idx = ts->ColumnIndex(column);
  hypothetical[static_cast<size_t>(col_idx)] = ctx->uid;
  sql::ColumnResolver resolver = db::MakeRowResolver(*ts, hypothetical);

  ++ctx->result.rows_recorrelated;  // counted: we did consult/act on it
  for (const Transformation& tr : td->transformations) {
    ASSIGN_OR_RETURN(bool match,
                     sql::EvaluatePredicate(*tr.predicate(), resolver, ctx->params));
    if (!match) {
      continue;
    }
    switch (tr.kind()) {
      case TransformKind::kRemove: {
        // The new disguise would remove this formerly-owned row: do it.
        std::vector<db::DeleteChange> removed;
        RETURN_IF_ERROR(RaceToAborted(db_->DeleteRow(table, row_id, &removed)));
        RecordRemoved(ctx, std::move(removed));
        return OkStatus();
      }
      case TransformKind::kDecorrelate:
        if (tr.foreign_key().column == column) {
          // Already decorrelated by the prior disguise; nothing to add.
          ++ctx->result.decorrelations_reused;
          return OkStatus();
        }
        break;
      case TransformKind::kModify:
        // The reference is already hidden behind a placeholder; modifying
        // the disguised row here could leak less, never more. Skip.
        break;
    }
  }
  return OkStatus();
}

Status DisguiseEngine::RedisguiseLeftovers(ApplyContext* ctx) {
  // Any temporarily recorrelated reference the new disguise did not consume
  // (remove, re-decorrelate, or modify) must go back to its disguised state:
  // revealing it permanently would violate the prior disguise's goal.
  for (const ApplyContext::Recorrelated& r : ctx->recorrelated) {
    if (!db_->RowExists(r.table, r.row_id)) {
      continue;  // the new disguise removed the row
    }
    ASSIGN_OR_RETURN(sql::Value current, db_->GetColumn(r.table, r.row_id, r.column));
    if (!current.SqlEquals(ctx->uid)) {
      continue;  // the new disguise rewrote it (e.g. fresh placeholder)
    }
    RETURN_IF_ERROR(db_->SetColumn(r.table, r.row_id, r.column, r.placeholder_value));
  }
  return OkStatus();
}

StatusOr<ApplyResult> DisguiseEngine::Apply(const std::string& spec_name,
                                            const sql::ParamMap& params) {
  const DisguiseSpec* spec = FindSpec(spec_name);
  if (spec == nullptr) {
    return NotFound("no registered disguise \"" + spec_name + "\"");
  }

  ApplyContext ctx;
  ctx.spec = spec;
  ctx.params = params;
  if (spec->per_user()) {
    auto it = params.find(disguise::kUidParam);
    if (it == params.end() || it->second.is_null()) {
      return InvalidArgument("per-user disguise \"" + spec_name + "\" requires $UID");
    }
    ctx.uid = it->second;
  } else {
    ctx.uid = sql::Value::Null();
  }
  ctx.record.disguise_name = spec->name();
  ctx.record.user_id = ctx.uid;
  ctx.record.created = clock_->Now();
  ctx.rng = OpRng('A', spec->name(), ctx.uid);

  // Per-thread statement counter: under a concurrent batch, the global
  // stats().queries counts everyone's statements.
  uint64_t queries_before = db::Database::ThreadStatements();

  // Engine-internal mutations are exempt from the strict-mode write guard.
  EngineOpScope engine_scope(this);

  // Crash consistency (recovery.h): journal the intent before any store
  // mutates. A simulated crash anywhere below returns immediately WITHOUT
  // compensation — state freezes as a process death would leave it, and
  // Recover() repairs from the journal's phase marker.
  uint64_t journal_id = journal_.Begin(JournalOp::kApply, spec->name(), ctx.params,
                                       ctx.uid, /*disguise_id=*/0, ctx.record.created);
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
      // Nothing mutated; clean abort. A persistence failure here leaves the
      // intent entry on disk for Recover() to no-op over.
      Status retired = RetireJournalEntry(journal_id);
      if (FailPoints::IsSimulatedCrash(retired)) {
        return retired;
      }
      begun = FoldStatus(std::move(begun), retired, "journal retire");
    }
    return begun;
  }
  Status status = [&]() -> Status {
    // Composition pre-pass: only meaningful for per-user disguises layered
    // on earlier disguises (§4.2).
    if (spec->per_user() && vault_->NumRecords() > 0) {
      RETURN_IF_ERROR(RecorrelateForUser(&ctx));
    }
    // Phase order guarantees referential integrity: references move to
    // placeholders before identity rows can be removed.
    RETURN_IF_ERROR(RunDecorrelates(&ctx));
    RETURN_IF_ERROR(RunModifies(&ctx));
    RETURN_IF_ERROR(RunRemoves(&ctx));
    RETURN_IF_ERROR(RedisguiseLeftovers(&ctx));
    RETURN_IF_ERROR(CheckAssertions(*spec, ctx.params));
    return OkStatus();
  }();
  if (!status.ok()) {
    if (FailPoints::IsSimulatedCrash(status)) {
      return status;
    }
    return UnwindFailedApply(journal_id, /*disguise_id=*/0, std::move(status));
  }

  // Log, then persist the reveal function, then commit. A failure in either
  // unwinds everything (vault table writes live in the same transaction for
  // the in-database vault model; external vaults see a Remove on failure).
  StatusOr<uint64_t> appended =
      log_.Append(spec->name(), ctx.params, ctx.uid, ctx.record.created,
                  spec->reversible());
  if (!appended.ok()) {
    if (FailPoints::IsSimulatedCrash(appended.status())) {
      return appended.status();
    }
    return UnwindFailedApply(journal_id, /*disguise_id=*/0, appended.status());
  }
  uint64_t disguise_id = *appended;
  ctx.result.disguise_id = disguise_id;
  journal_.SetDisguiseId(journal_id, disguise_id);
  {
    Status persisted = PersistJournalDelta(
        CommitJournal::EncodeSetDisguiseId(journal_id, disguise_id));
    if (!persisted.ok()) {
      if (FailPoints::IsSimulatedCrash(persisted)) {
        return persisted;
      }
      return UnwindFailedApply(journal_id, disguise_id, std::move(persisted));
    }
  }
  if (spec->reversible()) {
    ctx.record.disguise_id = disguise_id;
    if (options_.protect_disguised_data) {
      // Capture before sharding moves the ops out of ctx.record.
      ProtectRows(disguise_id, ctx.record);
    }
    Status stored = [&]() -> Status {
      if (spec->per_user()) {
        return vault_->Store(ctx.record);
      }
      // Global disguise: shard reveal ops by owner into per-user records so
      // later per-user disguises compose by reading one user's vault. The
      // unattributed remainder (content modifications, log removals) stays
      // in a single ownerless record, stored last so reversal (which walks
      // records in reverse) undoes it first — preserving strict LIFO for
      // the ops recorded after the decorrelation phase.
      auto empty_record = [&](sql::Value user) {
        RevealRecord r;
        r.disguise_id = ctx.record.disguise_id;
        r.disguise_name = ctx.record.disguise_name;
        r.user_id = std::move(user);
        r.created = ctx.record.created;
        return r;
      };
      // One batched store: owner shards in discovery order, global last.
      // Vault::StoreBatch preserves Store-loop semantics record by record
      // (fail points, nonce draws, first-failure stop) while letting
      // encrypted backends amortize key derivation across the batch.
      std::vector<RevealRecord> batch;
      std::map<std::string, size_t> shard_of;  // owner -> index in batch
      RevealRecord global = empty_record(sql::Value::Null());
      for (RevealOp& op : ctx.record.ops) {
        if (op.owner.is_null()) {
          global.ops.push_back(std::move(op));
          continue;
        }
        auto [it, fresh] = shard_of.try_emplace(op.owner.ToSqlString(), batch.size());
        if (fresh) {
          batch.push_back(empty_record(op.owner));
        }
        batch[it->second].ops.push_back(std::move(op));
      }
      batch.push_back(std::move(global));
      return vault_->StoreBatch(batch);
    }();
    if (!stored.ok()) {
      if (FailPoints::IsSimulatedCrash(stored)) {
        return stored;
      }
      return UnwindFailedApply(journal_id, disguise_id, std::move(stored));
    }
  }
  journal_.Advance(journal_id, JournalPhase::kVaultStored);
  {
    Status persisted = PersistJournalDelta(
        CommitJournal::EncodeAdvance(journal_id, JournalPhase::kVaultStored));
    if (!persisted.ok()) {
      if (FailPoints::IsSimulatedCrash(persisted)) {
        return persisted;
      }
      return UnwindFailedApply(journal_id, disguise_id, std::move(persisted));
    }
  }

  {
    Status pre = FailPoints::Instance().Check(failpoints::kApplyBeforeCommit);
    if (!pre.ok()) {
      if (FailPoints::IsSimulatedCrash(pre)) {
        return pre;
      }
      return UnwindFailedApply(journal_id, disguise_id, std::move(pre));
    }
  }

  // The kCommitted advance must be atomic with the commit itself (else a
  // crash between them makes Recover() pick the wrong repair direction), so
  // it rides inside the commit's own WAL record.
  StageCommittedAdvance(journal_id);
  Status committed = db_->Commit();
  if (!committed.ok()) {
    if (FailPoints::IsSimulatedCrash(committed)) {
      return committed;
    }
    // Commit refused: the transaction is still open, so compensation must
    // roll it back rather than strand it (which would poison the next op).
    return UnwindFailedApply(journal_id, disguise_id, std::move(committed));
  }
  journal_.Advance(journal_id, JournalPhase::kCommitted);

  {
    // Past this point the disguise is durable; a crash here leaves a
    // committed journal entry that Recover() simply rolls forward.
    Status post = FailPoints::Instance().Check(failpoints::kApplyAfterCommit);
    if (!post.ok()) {
      return post;
    }
  }
  {
    Status retired = RetireJournalEntry(journal_id);
    if (!retired.ok()) {
      // The disguise is fully durable; only its journal retirement is not.
      // Pending at kCommitted, Recover() rolls it forward.
      EDNA_LOG(kError) << "apply committed but retiring journal entry failed: " << retired;
      return retired;
    }
  }
  CommitOpSeq('A', spec->name(), ctx.uid);

  ctx.result.queries = db::Database::ThreadStatements() - queries_before;
  return ctx.result;
}

Status DisguiseEngine::UnwindFailedApply(uint64_t journal_id, uint64_t disguise_id,
                                         Status cause) {
  // Compensation order matters: the rollback must run first so that
  // in-transaction state (log mirror rows, table-vault rows) unwinds before
  // we repair the stores that live outside the transaction. A simulated
  // crash during compensation aborts it mid-way — the journal entry stays
  // pending and Recover() finishes the job.
  bool compensated = true;
  if (disguise_id != 0) {
    UnprotectRows(disguise_id);
  }
  Status rb = db_->Rollback();
  if (!rb.ok()) {
    if (FailPoints::IsSimulatedCrash(rb)) {
      return rb;
    }
    EDNA_LOG(kError) << "rollback while unwinding failed apply also failed: " << rb;
    cause = FoldStatus(std::move(cause), rb, "rollback");
    compensated = false;
  }
  if (disguise_id != 0) {
    Status removed = vault_->Remove(disguise_id);  // drop any shards already stored
    if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
      if (FailPoints::IsSimulatedCrash(removed)) {
        return removed;
      }
      EDNA_LOG(kError) << "vault remove while unwinding failed apply failed: "
                       << removed;
      cause = FoldStatus(std::move(cause), removed, "vault remove");
      compensated = false;
    }
    Status dropped = log_.DropEntry(disguise_id);
    if (!dropped.ok() && dropped.code() != StatusCode::kNotFound) {
      if (FailPoints::IsSimulatedCrash(dropped)) {
        return dropped;
      }
      EDNA_LOG(kError) << "log drop while unwinding failed apply failed: " << dropped;
      cause = FoldStatus(std::move(cause), dropped, "log drop");
      compensated = false;
    }
  }
  // Only a fully compensated abort retires the journal entry; a double
  // fault leaves it pending so Recover() can finish the repair.
  if (compensated) {
    Status retired = RetireJournalEntry(journal_id);
    if (!retired.ok()) {
      if (FailPoints::IsSimulatedCrash(retired)) {
        return retired;
      }
      EDNA_LOG(kError) << "journal retire while unwinding failed apply failed: " << retired;
      cause = FoldStatus(std::move(cause), retired, "journal retire");
    }
  }
  return cause;
}

}  // namespace edna::core
