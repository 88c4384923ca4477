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

}  // namespace dmx

#endif  // DMX_CORE_EXTENSION_LOG_H_
