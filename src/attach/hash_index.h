// Hash-index attachment: the paper's "hash tables" attachment example.
// In-memory equality access path: key -> record keys, O(1) probes, no
// ordered scans. Built from the base relation at first touch, also after
// restart (an extension choosing rebuild over paged redo); logical undo
// logging covers transaction rollback.
//
// DDL attributes: fields=<col>[,<col>...].

#ifndef DMX_ATTACH_HASH_INDEX_H_
#define DMX_ATTACH_HASH_INDEX_H_

#include "src/core/extension.h"

namespace dmx {

const AtOps& HashIndexOps();

}  // namespace dmx

#endif  // DMX_ATTACH_HASH_INDEX_H_
