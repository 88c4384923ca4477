// Statistics attachment: maintains COUNT and SUM (hence AVG) of a numeric
// field incrementally — the paper's observation that attachment storage
// "can be used ... even to maintain statistics about relations or
// precomputed function values for data stored in relations".
//
// In-memory, built at first touch; logical delta logging covers rollback.
//
// DDL attributes: field=<numeric col>.
//
// Read the maintained values with ReadStats(), or via AtOps::lookup with
// key "count" / "sum" / "avg" (returns the decimal string).

#ifndef DMX_ATTACH_STATS_H_
#define DMX_ATTACH_STATS_H_

#include "src/core/extension.h"

namespace dmx {

class Database;
class Transaction;

const AtOps& StatsOps();

struct StatsSnapshot {
  uint64_t count = 0;
  double sum = 0;
  double avg() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
};

/// Read instance `instance_no`'s maintained statistics on `rel`.
Status ReadStats(Database* db, Transaction* txn, const std::string& rel,
                 uint32_t instance_no, StatsSnapshot* out);

}  // namespace dmx

#endif  // DMX_ATTACH_STATS_H_
