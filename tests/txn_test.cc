// Unit tests for the lock manager and transaction manager.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "src/txn/lock_manager.h"
#include "src/txn/transaction_manager.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

TEST(LockModeTest, CompatibilityMatrix) {
  EXPECT_TRUE(LockCompatible(LockMode::kIS, LockMode::kIX));
  EXPECT_TRUE(LockCompatible(LockMode::kS, LockMode::kS));
  EXPECT_FALSE(LockCompatible(LockMode::kS, LockMode::kIX));
  EXPECT_FALSE(LockCompatible(LockMode::kX, LockMode::kIS));
  EXPECT_FALSE(LockCompatible(LockMode::kSIX, LockMode::kS));
  EXPECT_TRUE(LockCompatible(LockMode::kSIX, LockMode::kIS));
}

TEST(LockModeTest, Supremum) {
  EXPECT_EQ(LockSupremum(LockMode::kS, LockMode::kIX), LockMode::kSIX);
  EXPECT_EQ(LockSupremum(LockMode::kIS, LockMode::kS), LockMode::kS);
  EXPECT_EQ(LockSupremum(LockMode::kIS, LockMode::kIX), LockMode::kIX);
  EXPECT_EQ(LockSupremum(LockMode::kX, LockMode::kIS), LockMode::kX);
  EXPECT_EQ(LockSupremum(LockMode::kS, LockMode::kS), LockMode::kS);
}

TEST(LockManagerTest, GrantAndRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, "rel:1", LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(2, "rel:1", LockMode::kS).ok());  // shared OK
  EXPECT_TRUE(lm.Holds(1, "rel:1", LockMode::kS));
  EXPECT_TRUE(lm.TryLock(3, "rel:1", LockMode::kX).IsBusy());
  lm.UnlockAll(1);
  lm.UnlockAll(2);
  EXPECT_TRUE(lm.TryLock(3, "rel:1", LockMode::kX).ok());
  lm.UnlockAll(3);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

TEST(LockManagerTest, Reentrancy) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, "r", LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(1, "r", LockMode::kS).ok());  // dominated: no-op
  ASSERT_TRUE(lm.Lock(1, "r", LockMode::kX).ok());
  lm.UnlockAll(1);
}

TEST(LockManagerTest, UpgradeSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, "r", LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(1, "r", LockMode::kX).ok());  // upgrade S -> X
  EXPECT_TRUE(lm.Holds(1, "r", LockMode::kX));
  EXPECT_TRUE(lm.TryLock(2, "r", LockMode::kS).IsBusy());
  lm.UnlockAll(1);
}

TEST(LockManagerTest, IntentionLocksCompose) {
  LockManager lm;
  // Txn 1 scans (IS on relation + S on records); txn 2 updates other rows
  // (IX on relation + X on its record).
  ASSERT_TRUE(lm.Lock(1, LockNames::Relation(5), LockMode::kIS).ok());
  ASSERT_TRUE(lm.Lock(1, LockNames::Record(5, "k1"), LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(2, LockNames::Relation(5), LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(2, LockNames::Record(5, "k2"), LockMode::kX).ok());
  // But touching the same record blocks.
  EXPECT_TRUE(lm.TryLock(2, LockNames::Record(5, "k1"), LockMode::kX).IsBusy());
  lm.UnlockAll(1);
  lm.UnlockAll(2);
}

TEST(LockManagerTest, BlockedWaiterWakesOnRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, "r", LockMode::kX).ok());
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    Status s = lm.Lock(2, "r", LockMode::kX);
    EXPECT_TRUE(s.ok()) << s.ToString();
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(got);
  lm.UnlockAll(1);
  waiter.join();
  EXPECT_TRUE(got);
  lm.UnlockAll(2);
}

TEST(LockManagerTest, DeadlockDetected) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, "a", LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(2, "b", LockMode::kX).ok());
  std::atomic<int> deadlocks{0};
  // Txn 1 waits for b; then txn 2 requesting a closes the cycle.
  std::thread t1([&] {
    Status s = lm.Lock(1, "b", LockMode::kX);
    if (s.IsDeadlock()) ++deadlocks;
    if (s.ok()) lm.UnlockAll(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread t2([&] {
    Status s = lm.Lock(2, "a", LockMode::kX);
    if (s.IsDeadlock()) ++deadlocks;
    if (!s.ok()) lm.UnlockAll(2);  // victim releases, letting t1 proceed
  });
  t2.join();
  t1.join();
  EXPECT_GE(deadlocks.load(), 1);
  lm.UnlockAll(1);
  lm.UnlockAll(2);
}

// -- LockManager partitions --------------------------------------------------
//
// The lock table is partitioned by resource name. These cases put the
// resources of one conflict in different partitions, so that deadlock
// detection, victim choice, wake-up and the timeout message must all look
// beyond the partition of the request.

// A resource named `prefix<i>` whose partition is none of `taken`.
std::string ResourceOutside(const std::set<size_t>& taken,
                            const std::string& prefix) {
  for (int i = 0;; ++i) {
    std::string name = prefix + std::to_string(i);
    if (taken.count(LockManager::PartitionOf(name)) == 0) return name;
  }
}

TEST(LockManagerConcurrencyTest, CrossPartitionCycleGetsOneDeadlock) {
  LockManager lm;
  const std::string a = ResourceOutside({}, "a");
  const std::string b = ResourceOutside({LockManager::PartitionOf(a)}, "b");
  ASSERT_TRUE(lm.Lock(1, a, LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(2, b, LockMode::kX).ok());
  std::atomic<int> deadlocks{0};
  Status s1;
  std::thread t1([&] {
    s1 = lm.Lock(1, b, LockMode::kX);  // waits on txn 2
    if (s1.IsDeadlock()) ++deadlocks;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Closes the cycle. Both hold one lock, so the younger txn 2 loses.
  Status s2 = lm.Lock(2, a, LockMode::kX);
  if (s2.IsDeadlock()) ++deadlocks;
  EXPECT_TRUE(s2.IsDeadlock()) << s2.ToString();
  lm.UnlockAll(2);  // the victim aborts, letting txn 1 through
  t1.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_EQ(deadlocks.load(), 1);
  lm.UnlockAll(1);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

TEST(LockManagerConcurrencyTest, VictimHoldsFewestLocksAcrossPartitions) {
  LockManager lm;
  const std::string a = ResourceOutside({}, "a");
  const std::string b = ResourceOutside({LockManager::PartitionOf(a)}, "b");
  // Young txn 5 holds four locks, three of them in partitions that hold
  // neither contested resource; old txn 3 holds one. Counted per
  // partition both would hold one, and the tie would go to txn 5.
  ASSERT_TRUE(lm.Lock(5, a, LockMode::kX).ok());
  std::set<size_t> used = {LockManager::PartitionOf(a),
                           LockManager::PartitionOf(b)};
  for (int i = 0; i < 3; ++i) {
    const std::string c = ResourceOutside(used, "c");
    used.insert(LockManager::PartitionOf(c));
    ASSERT_TRUE(lm.Lock(5, c, LockMode::kX).ok());
  }
  ASSERT_TRUE(lm.Lock(3, b, LockMode::kX).ok());
  Status s3;
  std::thread t3([&] {
    s3 = lm.Lock(3, a, LockMode::kX);  // waits on txn 5
    if (!s3.ok()) lm.UnlockAll(3);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status s5 = lm.Lock(5, b, LockMode::kX);  // closes the cycle
  t3.join();
  EXPECT_TRUE(s5.ok()) << s5.ToString();
  EXPECT_TRUE(s3.IsDeadlock()) << s3.ToString();
  EXPECT_NE(s3.ToString().find("chosen as deadlock victim"),
            std::string::npos)
      << s3.ToString();
  lm.UnlockAll(5);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

TEST(LockManagerConcurrencyTest, UnlockAllWakesWaiterInAnotherPartition) {
  LockManager lm;
  lm.set_timeout(std::chrono::milliseconds(10000));
  const std::string a = ResourceOutside({}, "a");
  const std::string b = ResourceOutside({LockManager::PartitionOf(a)}, "b");
  ASSERT_TRUE(lm.Lock(1, a, LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(1, b, LockMode::kX).ok());
  std::atomic<bool> granted{false};
  std::thread t([&] {
    EXPECT_TRUE(lm.Lock(2, b, LockMode::kS).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  const auto released = std::chrono::steady_clock::now();
  lm.UnlockAll(1);
  t.join();
  EXPECT_TRUE(granted.load());
  // Woken by the release, not by the 10 s timeout.
  EXPECT_LT(std::chrono::steady_clock::now() - released,
            std::chrono::seconds(5));
  EXPECT_TRUE(lm.Holds(2, b, LockMode::kS));
  lm.UnlockAll(2);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

TEST(LockManagerConcurrencyTest, TimeoutNamesBlocker) {
  LockManager lm;
  lm.set_timeout(std::chrono::milliseconds(50));
  const std::string r = ResourceOutside({}, "r");
  // The holder's other lock lives in another partition.
  const std::string o = ResourceOutside({LockManager::PartitionOf(r)}, "o");
  ASSERT_TRUE(lm.Lock(7, o, LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(7, r, LockMode::kX).ok());
  Status s = lm.Lock(8, r, LockMode::kS);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_NE(s.ToString().find("lock timeout on '" + r + "'"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("(blocked by txn 7)"), std::string::npos)
      << s.ToString();
  lm.UnlockAll(8);
  lm.UnlockAll(7);
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

// -- TransactionManager ------------------------------------------------------

// Shadowed toy store (same pattern as wal_test) wired into the real
// TransactionManager, standing in for extension undo dispatch.
class TxnManagerTest : public ::testing::Test {
 protected:
  TxnManagerTest() : dir_("txnmgr"), tm_(&log_, &lm_) {
    EXPECT_TRUE(log_.Open(dir_.path() + "/wal", true).ok());
    tm_.SetApplyFn([this](const LogRecord& rec, bool undo, Lsn) {
      char op = rec.payload[0], key = rec.payload[1], val = rec.payload[2];
      bool insert = (op == 'I');
      if (undo) insert = !insert;
      if (insert) {
        data_[key] = val;
      } else {
        data_.erase(key);
      }
      return Status::OK();
    });
  }

  void Put(Transaction* txn, char key, char val) {
    LogRecord rec = MakeUpdateRecord(txn->id(), ExtKind::kStorageMethod, 0, 1,
                                     std::string{'I', key, val});
    rec.prev_lsn = txn->last_lsn();
    ASSERT_TRUE(log_.Append(&rec).ok());
    txn->set_last_lsn(rec.lsn);
    data_[key] = val;
  }

  TempDir dir_;
  LogManager log_;
  LockManager lm_;
  TransactionManager tm_;
  std::map<char, char> data_;
};

TEST_F(TxnManagerTest, CommitKeepsEffects) {
  Transaction* txn = tm_.Begin();
  Put(txn, 'a', '1');
  ASSERT_TRUE(tm_.Commit(txn).ok());
  EXPECT_EQ(data_.size(), 1u);
  EXPECT_GE(log_.flushed_lsn(), 1u);  // commit forced the log
}

TEST_F(TxnManagerTest, AbortUndoesEffectsAndReleasesLocks) {
  Transaction* txn = tm_.Begin();
  ASSERT_TRUE(lm_.Lock(txn->id(), "rel:1", LockMode::kIX).ok());
  Put(txn, 'a', '1');
  Put(txn, 'b', '2');
  ASSERT_TRUE(tm_.Abort(txn).ok());
  EXPECT_TRUE(data_.empty());
  EXPECT_EQ(lm_.LockedResourceCount(), 0u);
}

TEST_F(TxnManagerTest, SavepointPartialRollback) {
  Transaction* txn = tm_.Begin();
  Put(txn, 'a', '1');
  ASSERT_TRUE(tm_.Savepoint(txn, "sp").ok());
  Put(txn, 'b', '2');
  Put(txn, 'c', '3');
  ASSERT_TRUE(tm_.RollbackToSavepoint(txn, "sp").ok());
  EXPECT_EQ(data_.size(), 1u);
  EXPECT_EQ(data_.count('a'), 1u);
  // Savepoint is still usable after rollback.
  Put(txn, 'd', '4');
  ASSERT_TRUE(tm_.RollbackToSavepoint(txn, "sp").ok());
  EXPECT_EQ(data_.size(), 1u);
  ASSERT_TRUE(tm_.Commit(txn).ok());
  EXPECT_EQ(data_.count('a'), 1u);
}

TEST_F(TxnManagerTest, UnknownSavepointFails) {
  Transaction* txn = tm_.Begin();
  EXPECT_TRUE(tm_.RollbackToSavepoint(txn, "nope").IsNotFound());
  ASSERT_TRUE(tm_.Commit(txn).ok());
}

TEST_F(TxnManagerTest, NestedSavepoints) {
  Transaction* txn = tm_.Begin();
  Put(txn, 'a', '1');
  ASSERT_TRUE(tm_.Savepoint(txn, "outer").ok());
  Put(txn, 'b', '2');
  ASSERT_TRUE(tm_.Savepoint(txn, "inner").ok());
  Put(txn, 'c', '3');
  ASSERT_TRUE(tm_.RollbackToSavepoint(txn, "inner").ok());
  EXPECT_EQ(data_.size(), 2u);
  ASSERT_TRUE(tm_.RollbackToSavepoint(txn, "outer").ok());
  EXPECT_EQ(data_.size(), 1u);
  // Inner savepoint is gone after rolling back past it.
  EXPECT_TRUE(tm_.RollbackToSavepoint(txn, "inner").IsNotFound());
  ASSERT_TRUE(tm_.Commit(txn).ok());
}

TEST_F(TxnManagerTest, DeferredBeforePrepareFailureAbortsTxn) {
  Transaction* txn = tm_.Begin();
  Put(txn, 'a', '1');
  txn->Defer(TxnEvent::kBeforePrepare, [](Transaction*) {
    return Status::Constraint("deferred check failed");
  });
  Status s = tm_.Commit(txn);
  EXPECT_TRUE(s.IsConstraint()) << s.ToString();
  EXPECT_TRUE(data_.empty());  // effects rolled back
}

TEST_F(TxnManagerTest, DeferredCommitActionsRun) {
  Transaction* txn = tm_.Begin();
  int ran = 0;
  txn->Defer(TxnEvent::kCommit, [&](Transaction*) {
    ++ran;
    return Status::OK();
  });
  txn->Defer(TxnEvent::kCommit, [&](Transaction*) {
    ++ran;
    return Status::OK();
  });
  EXPECT_EQ(txn->DeferredCount(TxnEvent::kCommit), 2u);
  ASSERT_TRUE(tm_.Commit(txn).ok());
  EXPECT_EQ(ran, 2);
}

TEST_F(TxnManagerTest, DeferredAbortActionsRunOnAbort) {
  Transaction* txn = tm_.Begin();
  int commit_ran = 0, abort_ran = 0;
  txn->Defer(TxnEvent::kCommit, [&](Transaction*) {
    ++commit_ran;
    return Status::OK();
  });
  txn->Defer(TxnEvent::kAbort, [&](Transaction*) {
    ++abort_ran;
    return Status::OK();
  });
  ASSERT_TRUE(tm_.Abort(txn).ok());
  EXPECT_EQ(commit_ran, 0);
  EXPECT_EQ(abort_ran, 1);
}

TEST_F(TxnManagerTest, PartialRollbackDropsNewerDeferredActions) {
  Transaction* txn = tm_.Begin();
  int ran = 0;
  txn->Defer(TxnEvent::kCommit, [&](Transaction*) {
    ++ran;
    return Status::OK();
  });
  ASSERT_TRUE(tm_.Savepoint(txn, "sp").ok());
  Put(txn, 'x', '9');
  txn->Defer(TxnEvent::kCommit, [&](Transaction*) {
    ran += 100;
    return Status::OK();
  });
  ASSERT_TRUE(tm_.RollbackToSavepoint(txn, "sp").ok());
  ASSERT_TRUE(tm_.Commit(txn).ok());
  EXPECT_EQ(ran, 1);  // only the pre-savepoint action survived
}

TEST_F(TxnManagerTest, ObserverNotifications) {
  struct Recorder : TxnObserver {
    std::vector<std::string> events;
    void OnTransactionEnd(Transaction*, bool committed) override {
      events.push_back(committed ? "commit" : "abort");
    }
    void OnSavepoint(Transaction*, const std::string& name) override {
      events.push_back("sp:" + name);
    }
    void OnPartialRollback(Transaction*, const std::string& name) override {
      events.push_back("rb:" + name);
    }
  } rec;
  tm_.AddObserver(&rec);
  Transaction* t1 = tm_.Begin();
  ASSERT_TRUE(tm_.Savepoint(t1, "s").ok());
  ASSERT_TRUE(tm_.RollbackToSavepoint(t1, "s").ok());
  ASSERT_TRUE(tm_.Commit(t1).ok());
  Transaction* t2 = tm_.Begin();
  ASSERT_TRUE(tm_.Abort(t2).ok());
  ASSERT_EQ(rec.events.size(), 4u);
  EXPECT_EQ(rec.events[0], "sp:s");
  EXPECT_EQ(rec.events[1], "rb:s");
  EXPECT_EQ(rec.events[2], "commit");
  EXPECT_EQ(rec.events[3], "abort");
}

TEST_F(TxnManagerTest, CommitTwiceRejected) {
  Transaction* txn = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(txn).ok());
  // txn memory is freed by the manager after commit; start a new one and
  // verify aborting a committed state is rejected at the state check.
  Transaction* t2 = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(t2).ok());
}

}  // namespace
}  // namespace dmx
