#include "src/txn/transaction_manager.h"

namespace dmx {

TransactionManager::TransactionManager(LogManager* log, LockManager* locks)
    : log_(log), locks_(locks) {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_begins_ = metrics->GetCounter("txn.begins");
  metric_commits_ = metrics->GetCounter("txn.commits");
  metric_commit_ns_ = metrics->GetHistogram("txn.commit_ns");
  metric_aborts_ = metrics->GetCounter("txn.aborts");
  metric_abort_ns_ = metrics->GetHistogram("txn.abort_ns");
}

Transaction* TransactionManager::Begin() {
  metric_begins_->Increment();
  TxnId id = next_txn_id_.fetch_add(1);
  auto txn = std::unique_ptr<Transaction>(new Transaction(id, locks_));
  txn->set_relaxed_durability(default_relaxed_);
  // No begin record: a transaction reaches the log only with its first
  // effect, so read-only transactions never write to it at all.
  Transaction* raw = txn.get();
  MutexLock lock(&mu_);
  live_[id] = std::move(txn);
  return raw;
}

Lsn TransactionManager::OldestActiveLsn(TxnId except) {
  MutexLock lock(&mu_);
  Lsn oldest = kInvalidLsn;
  for (const auto& [id, txn] : live_) {
    if (id == except) continue;
    const Lsn first = txn->first_lsn();
    if (first != kInvalidLsn && (oldest == kInvalidLsn || first < oldest)) {
      oldest = first;
    }
  }
  return oldest;
}

Status TransactionManager::FinishTxn(Transaction* txn, bool committed) {
  for (TxnObserver* obs : observers_) {
    obs->OnTransactionEnd(txn, committed);
  }
  locks_->UnlockAll(txn->id());
  // A transaction that logged nothing needs no end record: recovery never
  // hears of it. Skipping keeps read-only transactions entirely off the
  // disk — which is also what lets them finish while the database is
  // degraded. The end record is only a recovery shortcut (restart reaches
  // the same outcome from the commit or abort record), so failing to
  // append it still ends the transaction.
  Status s;
  if (txn->last_lsn() != kInvalidLsn) {
    LogRecord end;
    end.type = LogRecType::kEnd;
    end.txn = txn->id();
    end.prev_lsn = txn->last_lsn();
    s = log_->Append(&end);
  }
  MutexLock lock(&mu_);
  live_.erase(txn->id());  // frees the Transaction
  return s;
}

// A commit that fails ends the transaction anyway: roll it back and report
// why the commit failed, or the rollback's own failure if that fails too.
Status TransactionManager::AbortFailedCommit(Transaction* txn,
                                             Status failure) {
  Status abort_status = Abort(txn);
  return abort_status.ok() ? failure : abort_status;
}

Status TransactionManager::Commit(Transaction* txn) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  ScopedTimer timer(metric_commit_ns_);

  // Deferred integrity constraints run now; a failure aborts.
  Status pre = txn->RunDeferred(TxnEvent::kBeforePrepare,
                                /*stop_on_error=*/true);
  if (!pre.ok()) return AbortFailedCommit(txn, pre);

  // Read-only transactions (nothing logged) commit without touching the
  // log: no commit record, no force. This keeps reads serving while the
  // database is degraded.
  if (txn->last_lsn() != kInvalidLsn) {
    LogRecord commit;
    commit.type = LogRecType::kCommit;
    commit.txn = txn->id();
    commit.prev_lsn = txn->last_lsn();
    // Strict: append + force as one unit (sharing the group-commit fsync
    // with concurrent committers); on failure the commit record is
    // removed from the buffer again where possible, so the transaction
    // rolls back cleanly. Relaxed: acknowledge at append — the background
    // group flusher makes it durable shortly after; a crash in that window
    // loses the commit, which is the contract the session opted into.
    // Either way the outage is reported so the ErrorHandler can degrade
    // and start recovery, and the transaction is aborted here.
    Status forced;
    if (txn->relaxed_durability()) {
      forced = log_->AppendCommitRelaxed(&commit);
      if (!forced.ok() && wal_failure_) {
        wal_failure_("wal commit append", forced);
      }
    } else {
      forced = log_->AppendAndFlush(&commit);
      if (!forced.ok() && wal_failure_) {
        wal_failure_("wal commit force", forced);
      }
    }
    if (!forced.ok()) return AbortFailedCommit(txn, forced);
    txn->set_last_lsn(commit.lsn);
  }
  txn->state_ = TxnState::kCommitted;

  // Complete deferred work (e.g. release storage of dropped relations).
  Status post = txn->RunDeferred(TxnEvent::kCommit, /*stop_on_error=*/false);

  Status finished = FinishTxn(txn, /*committed=*/true);
  metric_commits_->Increment();
  return finished.ok() ? post : finished;
}

Status TransactionManager::Abort(Transaction* txn) {
  if (txn->state() == TxnState::kAborted) return Status::OK();
  if (txn->state() == TxnState::kCommitted) {
    return Status::Aborted("cannot abort a committed transaction");
  }
  ScopedTimer timer(metric_abort_ns_);
  metric_aborts_->Increment();
  // Nothing logged: nothing to undo, and no abort record needed (the
  // matching FinishTxn skips the end record too). This is what makes the
  // abort of an in-flight writer whose commit force failed — and of any
  // read-only transaction — safe while the log is refusing writes.
  if (txn->last_lsn() != kInvalidLsn) {
    LogRecord abort_rec;
    abort_rec.type = LogRecType::kAbort;
    abort_rec.txn = txn->id();
    abort_rec.prev_lsn = txn->last_lsn();
    DMX_RETURN_IF_ERROR(log_->Append(&abort_rec));
    txn->set_last_lsn(abort_rec.lsn);

    Lsn last = txn->last_lsn();
    DMX_RETURN_IF_ERROR(driver_->Rollback(txn->id(), kInvalidLsn, &last));
    txn->set_last_lsn(last);
  }

  // Abort-time deferred actions are best-effort: a failure cannot change
  // the outcome — the transaction is rolling back regardless.
  (void)txn->RunDeferred(TxnEvent::kAbort, /*stop_on_error=*/false);
  txn->state_ = TxnState::kAborted;
  return FinishTxn(txn, /*committed=*/false);
}

Status TransactionManager::Savepoint(Transaction* txn,
                                     const std::string& name) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  LogRecord rec;
  rec.type = LogRecType::kSavepoint;
  rec.txn = txn->id();
  rec.prev_lsn = txn->last_lsn();
  rec.savepoint_name = name;
  DMX_RETURN_IF_ERROR(log_->Append(&rec));
  txn->set_last_lsn(rec.lsn);
  // Replace an existing savepoint of the same name.
  auto& sps = txn->savepoints_;
  for (auto it = sps.begin(); it != sps.end(); ++it) {
    if (it->first == name) {
      sps.erase(it);
      break;
    }
  }
  sps.emplace_back(name, rec.lsn);
  // Drive common services to capture their positions (scan manager).
  for (TxnObserver* obs : observers_) obs->OnSavepoint(txn, name);
  return Status::OK();
}

Status TransactionManager::RollbackToSavepoint(Transaction* txn,
                                               const std::string& name) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  auto& sps = txn->savepoints_;
  Lsn target = kInvalidLsn;
  size_t keep = 0;
  for (size_t i = 0; i < sps.size(); ++i) {
    if (sps[i].first == name) {
      target = sps[i].second;
      keep = i + 1;  // keep this savepoint and all earlier ones
    }
  }
  if (target == kInvalidLsn) {
    return Status::NotFound("savepoint '" + name + "'");
  }
  Lsn last = txn->last_lsn();
  DMX_RETURN_IF_ERROR(driver_->Rollback(txn->id(), target, &last));
  txn->set_last_lsn(last);
  sps.resize(keep);
  txn->DropDeferredAfter(target);
  for (TxnObserver* obs : observers_) obs->OnPartialRollback(txn, name);
  return Status::OK();
}

Status TransactionManager::RollbackTo(Transaction* txn, Lsn to_lsn) {
  Lsn last = txn->last_lsn();
  DMX_RETURN_IF_ERROR(driver_->Rollback(txn->id(), to_lsn, &last));
  txn->set_last_lsn(last);
  return Status::OK();
}

}  // namespace dmx
