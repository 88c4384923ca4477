#include "src/wal/recovery.h"

#include <map>

namespace dmx {

Status RecoveryDriver::Rollback(TxnId txn, Lsn to_lsn, Lsn* last_lsn) {
  Lsn cursor = *last_lsn;
  while (cursor != kInvalidLsn && cursor > to_lsn) {
    LogRecord rec;
    DMX_RETURN_IF_ERROR(log_->ReadRecord(cursor, &rec));
    if (rec.txn != txn) {
      return Status::Corruption("rollback chain crossed transactions");
    }
    switch (rec.type) {
      case LogRecType::kUpdate: {
        // Write the CLR first so its LSN can stamp the undone pages, then
        // dispatch the undo through the extension.
        LogRecord clr;
        clr.type = LogRecType::kClr;
        clr.txn = txn;
        clr.prev_lsn = *last_lsn;
        clr.ext_kind = rec.ext_kind;
        clr.ext_id = rec.ext_id;
        clr.relation = rec.relation;
        clr.payload = rec.payload;
        clr.undo_next = rec.prev_lsn;
        DMX_RETURN_IF_ERROR(log_->Append(&clr));
        DMX_RETURN_IF_ERROR(apply_(rec, /*undo=*/true, clr.lsn));
        ++undo_count_;
        *last_lsn = clr.lsn;
        cursor = rec.prev_lsn;
        break;
      }
      case LogRecType::kClr:
        // Already-compensated work: skip to what the CLR points at.
        cursor = rec.undo_next;
        break;
      case LogRecType::kSavepoint:
      case LogRecType::kBegin:
      case LogRecType::kAbort:
        cursor = rec.prev_lsn;
        break;
      case LogRecType::kCommit:
      case LogRecType::kEnd:
        return Status::Internal("rollback past commit/end");
    }
  }
  return Status::OK();
}

Status RecoveryDriver::Restart(std::vector<TxnId>* losers) {
  // One forward pass over the log does ARIES' analysis and redo together.
  // Redo replays every update and compensation in log order; the
  // extension's redo entry point is responsible for idempotence (page-LSN
  // gating for page-based stores). Analysis keeps the chain head of every
  // transaction still in flight: a Commit or End record drops it.
  std::map<TxnId, Lsn> in_flight;
  DMX_RETURN_IF_ERROR(log_->Scan([&](const LogRecord& rec) -> Status {
    if (rec.txn > max_txn_seen_) max_txn_seen_ = rec.txn;
    if (rec.type == LogRecType::kCommit || rec.type == LogRecType::kEnd) {
      in_flight.erase(rec.txn);
      return Status::OK();
    }
    if (rec.txn != kInvalidTxnId) in_flight[rec.txn] = rec.lsn;
    if (rec.type != LogRecType::kUpdate && rec.type != LogRecType::kClr) {
      return Status::OK();
    }
    ++redo_count_;
    // Redo of a CLR re-applies the compensation, i.e. the undo action.
    return apply_(rec, /*undo=*/rec.type == LogRecType::kClr, rec.lsn);
  }));

  // -- Undo: roll back the losers, the transactions still in flight.
  for (auto& [txn, last_lsn] : in_flight) {
    Lsn last = last_lsn;
    DMX_RETURN_IF_ERROR(Rollback(txn, kInvalidLsn, &last));
    LogRecord end;
    end.type = LogRecType::kEnd;
    end.txn = txn;
    end.prev_lsn = last;
    DMX_RETURN_IF_ERROR(log_->Append(&end));
    if (losers) losers->push_back(txn);
  }
  return log_->FlushAll();
}

}  // namespace dmx
