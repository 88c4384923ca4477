// Join-index attachment [VALDURIEZ 85] — the paper's example that "access
// paths need not be limited to a single table (e.g., join indexes)".
//
// A join index over relations R1 ⋈ R2 on equal join fields has an instance
// on *each* participating relation (side=1 on R1, side=2 on R2), both
// under the name the DDL gives. Each instance keeps only its own
// relation's side, in that relation's run-time state: join key -> record
// keys. AtOps::lookup on either side's instance takes the encoded join key
// and returns the matching record keys of the *other* side (the useful
// direction for an index join): it reads the state of every relation of
// the same database with a same-name instance on the other side.
//
// In-memory, built from the base relation at first touch, logical undo
// logging (src/core/key_table.h).
//
// DDL attributes: name=<join index name>, side=1|2,
//                 fields=<local join columns>.

#ifndef DMX_ATTACH_JOIN_INDEX_H_
#define DMX_ATTACH_JOIN_INDEX_H_

#include "src/core/extension.h"

namespace dmx {

const AtOps& JoinIndexOps();

}  // namespace dmx

#endif  // DMX_ATTACH_JOIN_INDEX_H_
