// R-tree spatial access path attachment [GUTTMAN 84] — the paper's opening
// motivation: "spatial database applications can make use of an R-tree
// access path to efficiently compute certain spatial predicates", and its
// costing example: "the R-tree access path will recognize the ENCLOSES
// predicate and report a low cost".
//
// An instance indexes a rectangle stored in four numeric columns
// (xmin, ymin, xmax, ymax). In-memory Guttman R-tree with quadratic split,
// built from the base relation at first touch; logical undo logging
// covers transaction rollback.
//
// DDL attributes: fields=<xmin>,<ymin>,<xmax>,<ymax>.
//
// Direct probes (AtOps::lookup) take a 33-byte key: op byte ('O' overlaps,
// 'E' encloses, 'W' within) + 4 little-endian doubles (the query
// rectangle); EncodeRTreeProbe builds one.

#ifndef DMX_ATTACH_RTREE_INDEX_H_
#define DMX_ATTACH_RTREE_INDEX_H_

#include "src/core/extension.h"

namespace dmx {

const AtOps& RTreeIndexOps();

/// Build the probe key for AtOps::lookup on an rtree_index instance.
std::string EncodeRTreeProbe(ExprOp op, const double query_rect[4]);

}  // namespace dmx

#endif  // DMX_ATTACH_RTREE_INDEX_H_
