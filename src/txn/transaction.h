// Transaction state, deferred-action queues, and savepoints.
//
// The paper's common services let an attachment "place an entry on the
// queue that will cause an indicated attachment procedure to be invoked
// with the indicated data when the event occurs" — here a DeferredAction —
// for events such as "before transaction enters the prepared state" and
// transaction commit (used for deferred integrity constraints and for
// deferring the release of dropped relation/attachment storage).

#ifndef DMX_TXN_TRANSACTION_H_
#define DMX_TXN_TRANSACTION_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/util/common.h"
#include "src/util/status.h"

namespace dmx {

class Transaction;

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// Transaction events extensions can defer actions to.
enum class TxnEvent : uint8_t {
  kBeforePrepare = 0,  // after all modifications, before commit is decided;
                       // a failing action here aborts the transaction
  kCommit = 1,         // commit is durable; complete deferred work
  kAbort = 2,          // rollback finished; discard deferred state
};

/// A queued deferred action: the modern form of the paper's "address of the
/// attachment routine ... and a pointer to data".
using DeferredAction = std::function<Status(Transaction*)>;

/// A transaction. Created via TransactionManager::Begin; single-threaded
/// use per transaction (the usual embedded-DBMS contract).
class Transaction {
 public:
  TxnId id() const { return id_; }
  TxnState state() const { return state_; }
  bool active() const { return state_ == TxnState::kActive; }

  /// User identity for the uniform authorization facility; "" = superuser.
  const std::string& user() const { return user_; }
  void set_user(std::string user) { user_ = std::move(user); }

  /// LSN of this transaction's newest log record. kInvalidLsn means the
  /// transaction has logged nothing — a read-only transaction, whose
  /// commit needs no log force and whose abort has nothing to roll back.
  /// There is no begin record: the first record logged carries
  /// prev_lsn = kInvalidLsn.
  Lsn last_lsn() const { return last_lsn_; }
  void set_last_lsn(Lsn lsn) { last_lsn_ = lsn; }

  /// Durability mode for this transaction's commit. Strict (default):
  /// Commit returns only after the commit record is fsynced (sharing the
  /// group-commit fsync with concurrent committers). Relaxed: Commit
  /// returns at WAL-append; the background group flusher makes it durable
  /// shortly after, and a crash inside that window loses the commit.
  bool relaxed_durability() const { return relaxed_durability_; }
  void set_relaxed_durability(bool relaxed) {
    relaxed_durability_ = relaxed;
  }

  /// Enqueue `action` to run when `event` fires. Actions enqueued after a
  /// savepoint are discarded if the transaction rolls back to it.
  void Defer(TxnEvent event, DeferredAction action);

  /// Number of actions pending for `event` (tests).
  size_t DeferredCount(TxnEvent event) const;

  const std::vector<std::pair<std::string, Lsn>>& savepoints() const {
    return savepoints_;
  }

 private:
  friend class TransactionManager;

  explicit Transaction(TxnId id) : id_(id) {}

  struct QueuedAction {
    DeferredAction action;
    Lsn enqueue_lsn;  // txn's last_lsn at enqueue time
  };

  // Runs and clears the queue for `event`. If `stop_on_error`, the first
  // failure is returned with the rest of the queue untouched.
  Status RunDeferred(TxnEvent event, bool stop_on_error);

  // Discard queued actions enqueued after `lsn` (partial rollback).
  void DropDeferredAfter(Lsn lsn);

  TxnId id_;
  std::string user_;
  TxnState state_ = TxnState::kActive;
  Lsn last_lsn_ = kInvalidLsn;
  bool relaxed_durability_ = false;
  std::vector<std::pair<std::string, Lsn>> savepoints_;
  std::map<TxnEvent, std::vector<QueuedAction>> deferred_;
};

}  // namespace dmx

#endif  // DMX_TXN_TRANSACTION_H_
