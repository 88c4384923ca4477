// Unique-constraint attachment: vetoes modifications that would duplicate
// the designated field combination. An attachment *with associated storage*
// that is not an access path (the paper: attachments "may have associated
// storage ... used to maintain access structures, and even to maintain
// statistics"): it keeps an in-memory key-count table, built from the base
// relation at first touch, with logical undo logging for rollback.
//
// Rows with a NULL in any constrained field are exempt (SQL semantics).
//
// DDL attributes: fields=<col>[,<col>...], name=<label> (optional).

#ifndef DMX_ATTACH_UNIQUE_CONSTRAINT_H_
#define DMX_ATTACH_UNIQUE_CONSTRAINT_H_

#include "src/core/extension.h"

namespace dmx {

const AtOps& UniqueConstraintOps();

}  // namespace dmx

#endif  // DMX_ATTACH_UNIQUE_CONSTRAINT_H_
