// Join-index attachment [VALDURIEZ 85] — the paper's example that "access
// paths need not be limited to a single table (e.g., join indexes)".
//
// A join index over relations R1 ⋈ R2 on equal join fields is maintained
// as a shared in-memory structure named by the DDL; an instance is created
// on *each* participating relation (side=1 on R1, side=2 on R2), and the
// attached procedures of both instances keep the pair set current as
// either relation changes. AtOps::lookup on either side's instance takes
// the encoded join-key and returns the matching record keys of the
// *other* side (the useful direction for an index join).
//
// In-memory, built from the base relation at first touch, logical undo
// logging.
//
// DDL attributes: name=<shared join index name>, side=1|2,
//                 fields=<local join columns>.

#ifndef DMX_ATTACH_JOIN_INDEX_H_
#define DMX_ATTACH_JOIN_INDEX_H_

#include "src/core/extension.h"

namespace dmx {

const AtOps& JoinIndexOps();

/// Pairs currently materialized in the named join index (tests/benches).
size_t JoinIndexPairCount(const std::string& name);

}  // namespace dmx

#endif  // DMX_ATTACH_JOIN_INDEX_H_
