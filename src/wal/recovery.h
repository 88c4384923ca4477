// RecoveryDriver: the common log-driven undo/redo machinery.
//
// The same driver serves three duties the paper assigns to the common
// recovery facility: (1) undoing the partial effects of a vetoed relation
// modification, (2) transaction abort and partial (savepoint) rollback, and
// (3) system restart recovery. In every case the driver reads the common
// log and *dispatches back into the extension implementations* — it never
// interprets an update payload itself.

#ifndef DMX_WAL_RECOVERY_H_
#define DMX_WAL_RECOVERY_H_

#include <atomic>
#include <functional>
#include <vector>

#include "src/wal/log_manager.h"

namespace dmx {

/// Callback installed by the data manager: apply (redo) or reverse (undo)
/// one logged extension action by dispatching through the procedure
/// vectors. `apply_lsn` is the LSN to stamp on any page images touched
/// (the record's own LSN for redo; the CLR's LSN for undo).
using ApplyLogFn =
    std::function<Status(const LogRecord& rec, bool undo, Lsn apply_lsn)>;

class RecoveryDriver {
 public:
  RecoveryDriver(LogManager* log, ApplyLogFn apply)
      : log_(log), apply_(std::move(apply)) {}

  /// Undo the transaction's actions strictly after `to_lsn`, writing CLRs.
  /// `last_lsn` is the transaction's current chain head in/out parameter:
  /// on return it points at the newest CLR. `to_lsn == kInvalidLsn` undoes
  /// everything (full abort). Used for vetoed modifications (to_lsn = LSN
  /// before the operation), savepoint rollback, and abort.
  Status Rollback(TxnId txn, Lsn to_lsn, Lsn* last_lsn);

  /// Restart recovery: one forward pass over the log (LogManager::Scan)
  /// that redoes every update and CLR record (extensions gate on page
  /// LSNs) while it tracks the transactions still in flight, then rollback
  /// of those losers with kEnd records appended. Returns the set of loser
  /// transaction ids via `losers` if non-null.
  Status Restart(std::vector<TxnId>* losers = nullptr);

  /// Number of undo actions dispatched (tests/benchmarks). Atomic because
  /// concurrent transactions roll back at once.
  uint64_t undo_count() const { return undo_count_.load(); }
  uint64_t redo_count() const { return redo_count_; }

  /// Highest transaction id seen in the log during Restart. New
  /// transaction ids must start above this so they never collide with
  /// logged history.
  TxnId max_txn_seen() const { return max_txn_seen_; }

 private:
  LogManager* log_;
  ApplyLogFn apply_;
  std::atomic<uint64_t> undo_count_{0};
  uint64_t redo_count_ = 0;
  TxnId max_txn_seen_ = 0;
};

}  // namespace dmx

#endif  // DMX_WAL_RECOVERY_H_
