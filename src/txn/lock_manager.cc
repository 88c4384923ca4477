#include "src/txn/lock_manager.h"

#include <functional>

namespace dmx {

namespace {

// compat[held][req]
constexpr bool kCompat[5][5] = {
    //            IS     IX     S      SIX    X
    /* IS  */ {true, true, true, true, false},
    /* IX  */ {true, true, false, false, false},
    /* S   */ {true, false, true, false, false},
    /* SIX */ {true, false, false, false, false},
    /* X   */ {false, false, false, false, false},
};

}  // namespace

bool LockCompatible(LockMode held, LockMode req) {
  return kCompat[static_cast<int>(held)][static_cast<int>(req)];
}

LockMode LockSupremum(LockMode a, LockMode b) {
  if (a == b) return a;
  if (a == LockMode::kX || b == LockMode::kX) return LockMode::kX;
  auto has = [&](LockMode m) { return a == m || b == m; };
  if (has(LockMode::kSIX)) return LockMode::kSIX;
  if (has(LockMode::kS) && has(LockMode::kIX)) return LockMode::kSIX;
  if (has(LockMode::kS)) return LockMode::kS;   // S ∨ IS
  if (has(LockMode::kIX)) return LockMode::kIX; // IX ∨ IS
  return LockMode::kIS;
}

LockManager::LockManager() {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_acquisitions_ = metrics->GetCounter("lock.acquisitions");
  metric_waits_ = metrics->GetCounter("lock.waits");
  metric_wait_ns_ = metrics->GetHistogram("lock.wait_ns");
  metric_deadlocks_ = metrics->GetCounter("lock.deadlocks");
  metric_deadlock_victims_ = metrics->GetCounter("lock.deadlock_victims");
  metric_timeouts_ = metrics->GetCounter("lock.timeouts");
}

size_t LockManager::PartitionOf(const std::string& resource) {
  return std::hash<std::string>{}(resource) % kPartitions;
}

void LockManager::LockAllPartitions() const {
  for (const Partition& part : partitions_) part.mu.Lock();
}

void LockManager::UnlockAllPartitions() const {
  for (size_t i = kPartitions; i-- > 0;) partitions_[i].mu.Unlock();
}

bool LockManager::CanGrant(const Entry& e, TxnId txn, LockMode mode) const {
  for (const auto& [holder, held] : e.granted) {
    if (holder == txn) continue;
    if (!LockCompatible(held, mode)) return false;
  }
  return true;
}

bool LockManager::FindDeadlockCycle(TxnId waiter, const std::string& resource,
                                    LockMode mode,
                                    std::set<TxnId>* cycle) const {
  // DFS over the waits-for graph: waiter -> {incompatible holders of the
  // resource it waits on} -> resources those are waiting on -> ...
  // `path` tracks the chain of blocked transactions so that when an edge
  // closes back on the original waiter, the cycle membership is known.
  std::set<TxnId> visited;
  std::vector<TxnId> path{waiter};
  std::function<bool(const std::string&, LockMode)> blocked_by_waiter =
      [&](const std::string& res, LockMode m) -> bool {
    TxnId w = path.back();
    const auto& table = partitions_[PartitionOf(res)].table;
    auto it = table.find(res);
    if (it == table.end()) return false;
    for (const auto& [holder, held] : it->second.granted) {
      if (holder == w) continue;
      if (LockCompatible(held, m)) continue;
      if (holder == waiter) {  // cycle back to original waiter
        cycle->insert(path.begin(), path.end());
        return true;
      }
      if (!visited.insert(holder).second) continue;
      // What is `holder` itself waiting on?
      for (const Partition& part : partitions_) {
        for (const auto& [res2, entry2] : part.table) {
          auto wit = entry2.waiting.find(holder);
          if (wit != entry2.waiting.end()) {
            path.push_back(holder);
            if (blocked_by_waiter(res2, wit->second)) return true;
            path.pop_back();
          }
        }
      }
    }
    return false;
  };
  return blocked_by_waiter(resource, mode);
}

TxnId LockManager::ChooseVictim(const std::set<TxnId>& cycle) const {
  TxnId victim = kInvalidTxnId;
  size_t victim_locks = 0;
  for (TxnId t : cycle) {
    size_t locks = 0;
    for (const Partition& part : partitions_) {
      auto it = part.by_txn.find(t);
      if (it != part.by_txn.end()) locks += it->second.size();
    }
    // Fewest locks held loses; among equals the youngest (largest id)
    // transaction loses, since it has done the least work.
    if (victim == kInvalidTxnId || locks < victim_locks ||
        (locks == victim_locks && t > victim)) {
      victim = t;
      victim_locks = locks;
    }
  }
  return victim;
}

bool LockManager::Grant(Partition& part, Entry& e, TxnId txn,
                        const std::string& resource, LockMode mode) {
  metric_acquisitions_->Increment();
  if (!e.granted.insert_or_assign(txn, mode).second) return false;  // upgrade
  std::vector<std::string>& held = part.by_txn[txn];
  held.push_back(resource);
  return held.size() == 1;
}

void LockManager::NoteUsed(TxnId txn, size_t pi) {
  Partition& home = partitions_[HomeOf(txn)];
  MutexLock lock(&home.mu);
  home.used[txn] |= uint32_t{1} << pi;
}

bool LockManager::TryGrant(TxnId txn, const std::string& resource,
                           LockMode mode) {
  const size_t pi = PartitionOf(resource);
  Partition& part = partitions_[pi];
  bool first;
  {
    MutexLock lock(&part.mu);
    Entry& e = part.table[resource];
    auto mine = e.granted.find(txn);
    LockMode needed = mode;
    if (mine != e.granted.end()) {
      needed = LockSupremum(mine->second, mode);
      if (needed == mine->second) return true;  // already dominated
    }
    if (!CanGrant(e, txn, needed)) return false;
    first = Grant(part, e, txn, resource, needed);
    if (first && HomeOf(txn) == pi) {
      part.used[txn] |= uint32_t{1} << pi;
      first = false;
    }
  }
  if (first) NoteUsed(txn, pi);
  return true;
}

Status LockManager::Lock(TxnId txn, const std::string& resource,
                         LockMode mode) {
  if (TryGrant(txn, resource, mode)) return Status::OK();
  return LockSlow(txn, resource, mode);
}

Status LockManager::LockSlow(TxnId txn, const std::string& resource,
                             LockMode mode) {
  MutexLock wait(&wait_mu_);
  LockAllPartitions();
  const size_t pi = PartitionOf(resource);
  Partition& part = partitions_[pi];
  // Re-read under every mutex: the holders may have changed since the
  // fast path looked.
  Entry& e = part.table[resource];
  auto mine = e.granted.find(txn);
  LockMode needed = mode;
  if (mine != e.granted.end()) {
    needed = LockSupremum(mine->second, mode);
    if (needed == mine->second) {
      UnlockAllPartitions();
      return Status::OK();
    }
  }
  auto deadline = std::chrono::steady_clock::now() + timeout_;
  uint64_t wait_start = 0;
  Status result;
  while (result.ok() && !CanGrant(e, txn, needed)) {
    std::set<TxnId> cycle;
    if (FindDeadlockCycle(txn, resource, needed, &cycle)) {
      TxnId victim = ChooseVictim(cycle);
      if (victim == txn) {
        metric_deadlocks_->Increment();
        metric_deadlock_victims_->Increment();
        result = Status::Deadlock("lock '" + resource + "'");
        break;
      }
      // Condemn the cheaper participant; it aborts from its own wait and
      // releases its locks. insert() guards against re-counting the same
      // cycle while the victim is still winding down.
      if (victims_.insert(victim).second) {
        metric_deadlocks_->Increment();
        metric_deadlock_victims_->Increment();
        cv_.NotifyAll();
      }
    }
    if (wait_start == 0) {
      metric_waits_->Increment();
      wait_start = MetricsNowNanos();
    }
    // Registered under every partition mutex: an UnlockAll that releases
    // this resource afterwards sees the waiter and takes wait_mu_ to
    // notify, which it can only do once this thread sleeps on cv_.
    e.waiting[txn] = needed;
    UnlockAllPartitions();
    const bool notified = cv_.WaitUntil(deadline);
    LockAllPartitions();
    e.waiting.erase(txn);
    if (victims_.erase(txn) > 0) {
      metric_wait_ns_->Record(MetricsNowNanos() - wait_start);
      result = Status::Deadlock("lock '" + resource +
                                "' (chosen as deadlock victim)");
    } else if (!notified) {
      TxnId blocker = kInvalidTxnId;
      for (const auto& [holder, held] : e.granted) {
        if (holder != txn && !LockCompatible(held, needed)) {
          blocker = holder;
          break;
        }
      }
      metric_timeouts_->Increment();
      metric_wait_ns_->Record(MetricsNowNanos() - wait_start);
      std::string msg = "lock timeout on '" + resource + "'";
      if (blocker != kInvalidTxnId) {
        msg += " (blocked by txn " + std::to_string(blocker) + ")";
      }
      result = Status::Busy(msg);
    }
  }
  if (result.ok()) {
    if (wait_start != 0) {
      metric_wait_ns_->Record(MetricsNowNanos() - wait_start);
    }
    if (Grant(part, e, txn, resource, needed)) {
      partitions_[HomeOf(txn)].used[txn] |= uint32_t{1} << pi;
    }
  }
  UnlockAllPartitions();
  return result;
}

Status LockManager::TryLock(TxnId txn, const std::string& resource,
                            LockMode mode) {
  if (TryGrant(txn, resource, mode)) return Status::OK();
  return Status::Busy("lock '" + resource + "' held incompatibly");
}

void LockManager::UnlockAll(TxnId txn) {
  uint32_t used = 0;
  {
    Partition& home = partitions_[HomeOf(txn)];
    MutexLock lock(&home.mu);
    auto it = home.used.find(txn);
    if (it == home.used.end()) return;
    used = it->second;
    home.used.erase(it);
  }
  bool wake = false;
  for (size_t pi = 0; pi < kPartitions; ++pi) {
    if ((used >> pi & 1) == 0) continue;
    Partition& part = partitions_[pi];
    MutexLock lock(&part.mu);
    auto it = part.by_txn.find(txn);
    if (it == part.by_txn.end()) continue;
    for (const std::string& res : it->second) {
      auto tit = part.table.find(res);
      if (tit == part.table.end()) continue;
      tit->second.granted.erase(txn);
      if (!tit->second.waiting.empty()) {
        wake = true;
      } else if (tit->second.granted.empty()) {
        part.table.erase(tit);
      }
    }
    part.by_txn.erase(it);
  }
  if (wake) {
    MutexLock lock(&wait_mu_);
    cv_.NotifyAll();
  }
}

bool LockManager::Holds(TxnId txn, const std::string& resource,
                        LockMode mode) const {
  const Partition& part = partitions_[PartitionOf(resource)];
  MutexLock lock(&part.mu);
  auto it = part.table.find(resource);
  if (it == part.table.end()) return false;
  auto g = it->second.granted.find(txn);
  if (g == it->second.granted.end()) return false;
  return LockSupremum(g->second, mode) == g->second;
}

size_t LockManager::LockedResourceCount() const {
  size_t n = 0;
  for (const Partition& part : partitions_) {
    MutexLock lock(&part.mu);
    n += part.table.size();
  }
  return n;
}

}  // namespace dmx
