// LockManager: the system-supplied locking-based concurrency controller.
//
// The paper: "the architecture assumes that all storage method and
// attachment implementations will use a locking-based concurrency
// controller... a system-supplied lock manager will be available...
// all lock controllers must be able to participate in transaction commit
// and system-wide deadlock detection events."
//
// Hierarchical modes (IS/IX/S/SIX/X) over named resources; relation- and
// record-granularity names are composed with the LockNames helpers.
// Deadlocks are detected with a waits-for graph check when a request is
// about to block; the cycle participant holding the fewest locks (ties
// broken toward the youngest transaction) is chosen as the victim, so the
// cheapest work is redone.
//
// The lock table is split into kPartitions partitions by a hash of the
// resource name, each with its own mutex, so a grant, an upgrade, TryLock
// and Holds touch one partition. A request that must wait takes the slow
// path: it holds wait_mu_ and every partition mutex (in index order) while
// it searches the waits-for graph, and sleeps on cv_ with only wait_mu_.
// UnlockAll visits only the partitions the transaction used, and takes
// wait_mu_ to wake waiters only when a released resource has some.

#ifndef DMX_TXN_LOCK_MANAGER_H_
#define DMX_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/common.h"
#include "src/util/metrics.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dmx {

enum class LockMode : uint8_t { kIS = 0, kIX = 1, kS = 2, kSIX = 3, kX = 4 };

/// True if a holder in `held` permits another transaction to acquire `req`.
bool LockCompatible(LockMode held, LockMode req);

/// Least mode that dominates both (lattice join), e.g. S ∨ IX = SIX.
LockMode LockSupremum(LockMode a, LockMode b);

/// Canonical lock resource names.
struct LockNames {
  static std::string Relation(RelationId rel) {
    return "rel:" + std::to_string(rel);
  }
  static std::string Record(RelationId rel, const Slice& key) {
    return "rec:" + std::to_string(rel) + ":" + key.ToString();
  }
};

class LockManager {
 public:
  LockManager();

  /// Acquire (or upgrade to) `mode` on `resource` for `txn`. Blocks while
  /// incompatible; returns Deadlock if granting would require waiting on a
  /// cycle, Busy on timeout.
  Status Lock(TxnId txn, const std::string& resource, LockMode mode);

  /// Non-blocking acquire; Busy if it would wait.
  Status TryLock(TxnId txn, const std::string& resource, LockMode mode);

  /// Release all locks held by `txn` (at commit/abort: strict 2PL).
  void UnlockAll(TxnId txn);

  /// True if `txn` holds `resource` at a mode dominating `mode`.
  bool Holds(TxnId txn, const std::string& resource, LockMode mode) const;

  /// Number of distinct resources currently locked (tests).
  size_t LockedResourceCount() const;

  /// The lock-table partition that holds `resource` (tests).
  static size_t PartitionOf(const std::string& resource);

  /// How long to wait before declaring Busy (deadlocks are detected
  /// eagerly; the timeout is a safety net).
  void set_timeout(std::chrono::milliseconds t) {
    MutexLock lock(&wait_mu_);
    timeout_ = t;
  }

 private:
  static constexpr size_t kPartitions = 16;

  struct Entry {
    std::map<TxnId, LockMode> granted;
    // Transactions currently blocked on this resource and the mode needed.
    std::map<TxnId, LockMode> waiting;
  };

  // One slice of the lock table; on its own cache line.
  struct alignas(64) Partition {
    mutable Mutex mu;
    std::map<std::string, Entry> table GUARDED_BY(mu);
    // The resources of this partition that each transaction holds.
    std::unordered_map<TxnId, std::vector<std::string>> by_txn
        GUARDED_BY(mu);
    // For the transactions homed here (HomeOf): a bit per partition in
    // which they hold locks, so UnlockAll visits only those.
    std::unordered_map<TxnId, uint32_t> used GUARDED_BY(mu);
  };

  static size_t HomeOf(TxnId txn) { return txn % kPartitions; }

  // Grants `mode` (joined with any mode `txn` holds) when no other holder
  // conflicts; false when the request would have to wait. Touches one
  // partition, and the home partition on a first lock in another.
  bool TryGrant(TxnId txn, const std::string& resource, LockMode mode);
  // The blocking path of Lock: re-checks, detects deadlock and waits under
  // wait_mu_ and every partition mutex, sleeping with only wait_mu_.
  // The partition loop is more than the analysis can follow.
  Status LockSlow(TxnId txn, const std::string& resource, LockMode mode)
      NO_THREAD_SAFETY_ANALYSIS;
  // Records `txn` as granted `mode` on `resource` (an entry of `part`);
  // true when this is the transaction's first lock in `part`.
  bool Grant(Partition& part, Entry& e, TxnId txn,
             const std::string& resource, LockMode mode) REQUIRES(part.mu);
  // Sets partition `pi`'s bit in `txn`'s home partition.
  void NoteUsed(TxnId txn, size_t pi);
  // Every partition mutex, in index order; callers pair the two.
  void LockAllPartitions() const NO_THREAD_SAFETY_ANALYSIS;
  void UnlockAllPartitions() const NO_THREAD_SAFETY_ANALYSIS;
  bool CanGrant(const Entry& e, TxnId txn, LockMode mode) const;
  // True if waiting would close a cycle; fills `cycle` with its members.
  // Requires every partition mutex.
  bool FindDeadlockCycle(TxnId waiter, const std::string& resource,
                         LockMode mode, std::set<TxnId>* cycle) const
      NO_THREAD_SAFETY_ANALYSIS;
  // Cycle member holding the fewest locks across all partitions; ties go
  // to the youngest txn. Requires every partition mutex.
  TxnId ChooseVictim(const std::set<TxnId>& cycle) const
      NO_THREAD_SAFETY_ANALYSIS;

  Partition partitions_[kPartitions];
  // Order: wait_mu_, then partitions_[0].mu, [1].mu, ... A partition mutex
  // is never held while wait_mu_ is taken.
  Mutex wait_mu_;
  CondVar cv_{&wait_mu_};
  // Waiters condemned by another request's deadlock detection; each returns
  // Deadlock from its own Lock() call on next wake.
  std::set<TxnId> victims_ GUARDED_BY(wait_mu_);
  std::chrono::milliseconds timeout_ GUARDED_BY(wait_mu_){2000};
  // Registry metrics ("lock.*"), resolved once at construction. Waits are
  // counted and timed only when a request actually blocks, so the
  // uncontended fast path pays one counter increment.
  Counter* metric_acquisitions_;
  Counter* metric_waits_;
  Histogram* metric_wait_ns_;
  Counter* metric_deadlocks_;
  Counter* metric_deadlock_victims_;
  Counter* metric_timeouts_;
};

}  // namespace dmx

#endif  // DMX_TXN_LOCK_MANAGER_H_
