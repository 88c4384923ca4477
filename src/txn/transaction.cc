#include "src/txn/transaction.h"

namespace dmx {

LockMode* Transaction::HeldMode(RelationId rel) {
  for (auto& [r, mode] : relation_modes_) {
    if (r == rel) return &mode;
  }
  return nullptr;
}

Status Transaction::LockRelation(RelationId rel, LockMode mode) {
  LockMode* held = HeldMode(rel);
  if (held != nullptr && LockSupremum(*held, mode) == *held) {
    return Status::OK();
  }
  DMX_RETURN_IF_ERROR(locks_->Lock(id_, LockNames::Relation(rel), mode));
  // The lock manager now holds the join of the old and the new mode.
  if (held != nullptr) {
    *held = LockSupremum(*held, mode);
  } else {
    relation_modes_.emplace_back(rel, mode);
  }
  return Status::OK();
}

Status Transaction::LockRecord(RelationId rel, const Slice& key,
                               LockMode mode) {
  // A relation mode that dominates the record mode covers every record:
  // S, SIX or X for a read, X for a write.
  const LockMode* held = HeldMode(rel);
  if (held != nullptr && LockSupremum(*held, mode) == *held) {
    return Status::OK();
  }
  DMX_RETURN_IF_ERROR(LockRelation(
      rel, mode == LockMode::kS ? LockMode::kIS : LockMode::kIX));
  return locks_->Lock(id_, LockNames::Record(rel, key), mode);
}

void Transaction::Defer(TxnEvent event, DeferredAction action) {
  Queue(event).push_back({std::move(action), last_lsn_});
}

size_t Transaction::DeferredCount(TxnEvent event) const {
  return deferred_[static_cast<size_t>(event)].size();
}

Status Transaction::RunDeferred(TxnEvent event, bool stop_on_error) {
  std::vector<QueuedAction> queue;
  queue.swap(Queue(event));
  Status first_error;
  for (QueuedAction& qa : queue) {
    Status s = qa.action(this);
    if (!s.ok()) {
      if (stop_on_error) return s;
      if (first_error.ok()) first_error = s;
    }
  }
  return first_error;
}

}  // namespace dmx
