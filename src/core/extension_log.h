// The common log service as extensions use it: one call appends an update
// record for the storage method or attachment an entry point is serving.

#ifndef DMX_CORE_EXTENSION_LOG_H_
#define DMX_CORE_EXTENSION_LOG_H_

#include <string>

#include "src/core/extension.h"

namespace dmx {

/// Appends an update record carrying `payload` for the extension `ctx`
/// dispatches to (kind, extension id and relation come from the context),
/// chained after the transaction's last record; the transaction's last LSN
/// then advances to it. With a null ctx.txn (restart redo/undo dispatch)
/// the record belongs to no transaction. *lsn, when given, receives the
/// record's LSN.
Status LogExtensionUpdate(SmContext& ctx, std::string payload,
                          Lsn* lsn = nullptr);
Status LogExtensionUpdate(AtContext& ctx, std::string payload,
                          Lsn* lsn = nullptr);

/// One index entry added or removed, as the attachments that map a key to
/// record keys log it (hash_index and join_index for undo, btree_index for
/// undo and redo):
///
///   op | varint instance | length-prefixed key | record key
struct KeyEntry {
  char op = 'I';  // 'I': the entry was added; 'D': it was removed
  uint32_t instance = 0;
  Slice key;
  Slice record_key;
};

/// Logs `entry` through LogExtensionUpdate.
Status LogKeyEntry(AtContext& ctx, const KeyEntry& entry);

/// Parses a LogKeyEntry payload; the slices point into `payload`.
Status DecodeKeyEntry(const Slice& payload, KeyEntry* entry);

}  // namespace dmx

#endif  // DMX_CORE_EXTENSION_LOG_H_
