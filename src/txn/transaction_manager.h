// TransactionManager: begin/commit/abort, savepoints, and the event
// notification fan-out to common-service observers (e.g. the scan manager,
// which must close scans at transaction termination and save/restore scan
// positions around savepoints).

#ifndef DMX_TXN_TRANSACTION_MANAGER_H_
#define DMX_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/txn/lock_manager.h"
#include "src/txn/transaction.h"
#include "src/util/thread_annotations.h"
#include "src/wal/recovery.h"

namespace dmx {

/// Common-service observer of transaction lifecycle events.
///
/// The paper: "a common service facility will notify all storage methods
/// and attachments which used key-sequential accesses during the
/// transaction when the transaction completes so that they can clean up
/// (i.e., close) any open scans", and "when a transaction rollback point is
/// established, the storage methods and attachments are driven by the
/// system to obtain their key-sequential access positions".
class TxnObserver {
 public:
  virtual ~TxnObserver() = default;
  /// Fired after commit is durable or rollback is complete, before locks
  /// are released.
  virtual void OnTransactionEnd(Transaction* txn, bool committed) = 0;
  /// Fired when a savepoint is established: capture positions.
  virtual void OnSavepoint(Transaction* txn, const std::string& name) = 0;
  /// Fired after a partial rollback: restore positions captured at `name`.
  virtual void OnPartialRollback(Transaction* txn,
                                 const std::string& name) = 0;
};

class TransactionManager {
 public:
  TransactionManager(LogManager* log, LockManager* locks);

  /// Install the recovery apply callback (set by the data manager after the
  /// procedure vectors exist). Must be called before any transactions run.
  void SetApplyFn(ApplyLogFn apply) {
    driver_ = std::make_unique<RecoveryDriver>(log_, std::move(apply));
  }
  RecoveryDriver* driver() { return driver_.get(); }

  void AddObserver(TxnObserver* obs) { observers_.push_back(obs); }

  /// Install the Database's hook for WAL forces that fail on the commit
  /// path (the ErrorHandler enters degraded mode and starts background
  /// recovery). Installed once at open, before transactions run.
  void set_wal_failure_handler(
      std::function<void(const std::string&, const Status&)> fn) {
    wal_failure_ = std::move(fn);
  }

  /// Database-wide default durability for new transactions (from
  /// DatabaseOptions::durability; a session SQL toggle overrides it per
  /// transaction). Installed at open, before transactions run.
  void set_default_relaxed_durability(bool relaxed) {
    default_relaxed_ = relaxed;
  }
  bool default_relaxed_durability() const { return default_relaxed_; }

  /// Start a new transaction. The returned pointer stays valid until the
  /// transaction ends (manager-owned).
  Transaction* Begin();

  /// Commit: runs before-prepare deferred actions, forces the log, runs
  /// commit deferred actions, notifies observers, releases locks.
  ///
  /// Commit always ends the transaction, whatever it returns: once it
  /// returns, `txn` must not be touched (no Abort, no active() probe). On
  /// a failed deferred check or a failed log force the transaction is
  /// aborted and freed here and the failure returned. Should that rollback
  /// itself fail, its error is returned instead and the transaction stays
  /// registered, its locks held, until restart recovery undoes it. A
  /// non-OK status after the commit record is durable reports a failed
  /// commit-time deferred action or end record; the transaction is
  /// committed.
  Status Commit(Transaction* txn);

  /// Abort: undo of all effects (log records and abort actions, newest
  /// first), then cleanup as above.
  Status Abort(Transaction* txn);

  /// Establish a named rollback point. Re-using a name replaces it.
  Status Savepoint(Transaction* txn, const std::string& name);

  /// Partial rollback: undo effects after the savepoint (log records and
  /// abort actions, newest first), discard the other deferred actions
  /// enqueued since, and restore observer state (scan positions). The
  /// savepoint itself remains usable.
  Status RollbackToSavepoint(Transaction* txn, const std::string& name);

  /// Internal rollback used for vetoed relation modifications: undo
  /// strictly past `to_lsn` without touching savepoints/observers.
  Status RollbackTo(Transaction* txn, Lsn to_lsn);

  LockManager* lock_manager() { return locks_; }

  /// The first LSN of the oldest active transaction other than `except`
  /// that has logged, or kInvalidLsn when none has. A page whose LSN is
  /// below it holds no change of any other active transaction.
  Lsn OldestActiveLsn(TxnId except);
  LogManager* log() { return log_; }

  /// Count of transactions ever begun (tests).
  uint64_t transactions_started() const { return next_txn_id_ - 1; }

  /// Transactions currently live (quiesced-checkpoint precondition).
  size_t ActiveTransactionCount() {
    MutexLock lock(&mu_);
    return live_.size();
  }

  /// Raise the next transaction id (restart: ids must not collide with
  /// transactions already in the log).
  void EnsureTxnIdAbove(TxnId floor) {
    TxnId current = next_txn_id_.load();
    while (current <= floor &&
           !next_txn_id_.compare_exchange_weak(current, floor + 1)) {
    }
  }

 private:
  Status FinishTxn(Transaction* txn, bool committed);
  Status AbortFailedCommit(Transaction* txn, Status failure);
  /// Undo back to log position `to_lsn` and `keep` queued abort actions,
  /// newest first: the log records written after an abort action was
  /// queued are rolled back before it runs. A failed log rollback stops
  /// the unwind and is returned; a failed abort action does not stop it,
  /// and the first such failure goes to `action_error`.
  Status Unwind(Transaction* txn, Lsn to_lsn, size_t keep,
                Status* action_error);

  LogManager* log_;
  LockManager* locks_;
  std::unique_ptr<RecoveryDriver> driver_;
  // Installed at startup before transactions run, then read-only on the
  // commit/abort paths — not guarded (AddObserver is not thread-safe).
  std::vector<TxnObserver*> observers_;
  std::function<void(const std::string&, const Status&)> wal_failure_;
  // Set once at open before transactions run, then read-only.
  bool default_relaxed_ = false;
  std::atomic<TxnId> next_txn_id_{1};
  std::unordered_map<TxnId, std::unique_ptr<Transaction>> live_
      GUARDED_BY(mu_);
  Mutex mu_;
  // Registry metrics ("txn.*"), resolved once at construction. Commit
  // latency includes the log force and deferred actions; abort latency
  // includes the log-driven rollback.
  Counter* metric_begins_;
  Counter* metric_commits_;
  Histogram* metric_commit_ns_;
  Counter* metric_aborts_;
  Histogram* metric_abort_ns_;
};

}  // namespace dmx

#endif  // DMX_TXN_TRANSACTION_MANAGER_H_
