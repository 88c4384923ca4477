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

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/txn/lock_manager.h"
#include "src/util/common.h"
#include "src/util/slice.h"
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
  void set_last_lsn(Lsn lsn) {
    if (first_lsn() == kInvalidLsn) {
      first_lsn_.store(lsn, std::memory_order_relaxed);
    }
    last_lsn_ = lsn;
  }

  /// LSN of this transaction's first log record; kInvalidLsn until it
  /// logs. Other threads read it (TransactionManager::OldestActiveLsn).
  Lsn first_lsn() const { return first_lsn_.load(std::memory_order_relaxed); }

  /// Durability mode for this transaction's commit. Strict (default):
  /// Commit returns only after the commit record is fsynced (sharing the
  /// group-commit fsync with concurrent committers). Relaxed: Commit
  /// returns at WAL-append; the background group flusher makes it durable
  /// shortly after, and a crash inside that window loses the commit.
  bool relaxed_durability() const { return relaxed_durability_; }
  void set_relaxed_durability(bool relaxed) {
    relaxed_durability_ = relaxed;
  }

  /// Acquire `mode` on relation `rel` through the lock manager, unless a
  /// relation mode this transaction already holds dominates it: locks are
  /// released only when the transaction ends, so the modes it remembers
  /// stay true for its whole life and such a request is answered here.
  Status LockRelation(RelationId rel, LockMode mode);

  /// Acquire `mode` (S or X) on record `key` of `rel`, with the matching
  /// intention mode (IS or IX) on the relation first. A record request
  /// that a held relation mode covers (S, SIX or X for a read; X for a
  /// write) is granted implicitly, without the lock manager: the
  /// granularity protocol (Gray et al., "Granularity of Locks", 1976).
  Status LockRecord(RelationId rel, const Slice& key, LockMode mode);

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

  Transaction(TxnId id, LockManager* locks) : id_(id), locks_(locks) {}

  struct QueuedAction {
    DeferredAction action;
    Lsn enqueue_lsn;  // txn's last_lsn at enqueue time
  };

  // Runs and clears the queue for `event`. If `stop_on_error`, the first
  // failure is returned with the rest of the queue untouched.
  Status RunDeferred(TxnEvent event, bool stop_on_error);

  // Discard queued actions enqueued after `lsn` (partial rollback).
  void DropDeferredAfter(Lsn lsn);

  // The relation's mode held by this transaction, if any.
  LockMode* HeldMode(RelationId rel);

  TxnId id_;
  LockManager* locks_;
  // Relation modes granted to this transaction by the lock manager; a
  // statement touches few relations, so a flat vector.
  std::vector<std::pair<RelationId, LockMode>> relation_modes_;
  std::string user_;
  TxnState state_ = TxnState::kActive;
  bool relaxed_durability_ = false;
  Lsn last_lsn_ = kInvalidLsn;
  std::atomic<Lsn> first_lsn_{kInvalidLsn};
  std::vector<std::pair<std::string, Lsn>> savepoints_;
  std::map<TxnEvent, std::vector<QueuedAction>> deferred_;
};

}  // namespace dmx

#endif  // DMX_TXN_TRANSACTION_H_
