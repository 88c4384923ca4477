#include "src/core/extension_log.h"

#include "src/core/database.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

Status Append(Database* db, Transaction* txn, ExtKind kind, uint16_t ext_id,
              RelationId relation, std::string payload, Lsn* lsn) {
  LogRecord rec =
      MakeUpdateRecord(txn != nullptr ? txn->id() : kInvalidTxnId, kind,
                       ext_id, relation, std::move(payload));
  rec.prev_lsn = txn != nullptr ? txn->last_lsn() : kInvalidLsn;
  DMX_RETURN_IF_ERROR(db->log()->Append(&rec));
  if (txn != nullptr) txn->set_last_lsn(rec.lsn);
  if (lsn != nullptr) *lsn = rec.lsn;
  return Status::OK();
}

}  // namespace

Status LogExtensionUpdate(SmContext& ctx, std::string payload, Lsn* lsn) {
  return Append(ctx.db, ctx.txn, ExtKind::kStorageMethod, ctx.desc->sm_id,
                ctx.desc->id, std::move(payload), lsn);
}

Status LogExtensionUpdate(AtContext& ctx, std::string payload, Lsn* lsn) {
  return Append(ctx.db, ctx.txn, ExtKind::kAttachment, ctx.at_id,
                ctx.desc->id, std::move(payload), lsn);
}

Status LogKeyEntry(AtContext& ctx, const KeyEntry& entry) {
  std::string payload(1, entry.op);
  PutVarint32(&payload, entry.instance);
  PutLengthPrefixedSlice(&payload, entry.key);
  payload.append(entry.record_key.data(), entry.record_key.size());
  return LogExtensionUpdate(ctx, std::move(payload));
}

Status DecodeKeyEntry(const Slice& payload, KeyEntry* entry) {
  Slice in(payload);
  if (in.empty()) return Status::Corruption("key entry payload");
  entry->op = in[0];
  in.remove_prefix(1);
  if (!GetVarint32(&in, &entry->instance) ||
      !GetLengthPrefixedSlice(&in, &entry->key)) {
    return Status::Corruption("key entry payload body");
  }
  entry->record_key = in;
  return Status::OK();
}

}  // namespace dmx
