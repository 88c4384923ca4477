// Concurrency tests: parallel transactions through the lock manager,
// writer isolation, deadlock victim recovery, and concurrent readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "src/attach/stats.h"
#include "src/core/database.h"
#include "src/query/sql.h"
#include "src/sm/key_codec.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

Schema CounterSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"n", TypeId::kInt64, false}});
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : dir_("conc") {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.buffer_pool_pages = 512;
    EXPECT_TRUE(Database::Open(options, &db_).ok());
    Transaction* txn = db_->Begin();
    EXPECT_TRUE(
        db_->CreateRelation(txn, "counters", CounterSchema(), "heap", {})
            .ok());
    EXPECT_TRUE(db_->Commit(txn).ok());
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(ConcurrencyTest, ParallelInsertersAllLand) {
  constexpr int kThreads = 8, kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Transaction* txn = db_->Begin();
        Status s = db_->Insert(
            txn, "counters",
            {Value::Int(t * 1000 + i), Value::Int(0)});
        if (s.ok()) {
          s = db_->Commit(txn);
        } else {
          (void)db_->Abort(txn);
        }
        if (!s.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  Transaction* check = db_->Begin();
  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("counters", &desc).ok());
  uint64_t n = 0;
  ASSERT_TRUE(db_->CountRecords(check, desc, &n).ok());
  EXPECT_EQ(n, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_TRUE(db_->Commit(check).ok());
}

// Attachment DDL drops a relation's cached attachment state; its next
// users race to open it again. Exactly one open may win: a second state
// would replace (and free) the first under a thread still reading it. The
// users here are readers; FirstTouchByEightWritersKeepsDerivedStateExact
// below has writers.
TEST_F(ConcurrencyTest, FirstTouchOpensExtensionStateOnce) {
  constexpr int kThreads = 8, kRounds = 20, kRows = 700, kGroups = 7;
  Transaction* txn = db_->Begin();
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(db_->Insert(txn, "counters",
                            {Value::Int(i), Value::Int(i % kGroups)})
                    .ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  for (int round = 0; round < kRounds; ++round) {
    uint32_t instance = 0;
    txn = db_->Begin();
    ASSERT_TRUE(db_->CreateAttachment(txn, "counters", "hash_index",
                                      {{"fields", "n"}}, &instance)
                    .ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    std::atomic<int> ready{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Session session(db_.get());
        QueryResult res;
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        Status s = session.Execute("SELECT id FROM counters WHERE n = " +
                                       std::to_string(t % kGroups),
                                   &res);
        if (!s.ok() || res.rows.size() != kRows / kGroups) ++wrong;
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(wrong.load(), 0) << "round " << round;
    txn = db_->Begin();
    CheckResult check;
    ASSERT_TRUE(db_->CheckRelation(txn, "counters", &check).ok());
    EXPECT_TRUE(check.clean) << "round " << round;
    ASSERT_TRUE(
        db_->DropAttachment(txn, "counters", "hash_index", instance).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
}

// The same first touch by writers: eight sessions open the in-memory
// state of hash_index, unique, stats and join_index (side 1 of a join with
// a `groups` table) together, then insert, update and delete their own
// rows by record key through the Database API (SQL UPDATE/DELETE from two
// sessions still deadlock on the S -> IX upgrade), aborting every fourth
// transaction. Their hooks and undos change the shared tables
// concurrently, so the tables must end exactly as the committed rows say.
TEST_F(ConcurrencyTest, FirstTouchByEightWritersKeepsDerivedStateExact) {
  constexpr int kThreads = 8, kTxnsPerThread = 150, kGroups = 7;
  uint32_t hash_instance = 0, stats_instance = 0, groups_instance = 0;
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateRelation(txn, "groups",
                                  Schema({{"n", TypeId::kInt64, false}}),
                                  "heap", {})
                  .ok());
  for (int g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(db_->Insert(txn, "groups", {Value::Int(g)}).ok());
  }
  ASSERT_TRUE(db_->CreateAttachment(
                  txn, "counters", "join_index",
                  {{"name", "counter_groups"}, {"side", "1"}, {"fields", "n"}})
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(
                  txn, "groups", "join_index",
                  {{"name", "counter_groups"}, {"side", "2"}, {"fields", "n"}},
                  &groups_instance)
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(txn, "counters", "hash_index",
                                    {{"fields", "n"}}, &hash_instance)
                  .ok());
  ASSERT_TRUE(
      db_->CreateAttachment(txn, "counters", "unique", {{"fields", "id"}})
          .ok());
  ASSERT_TRUE(db_->CreateAttachment(txn, "counters", "stats",
                                    {{"field", "n"}}, &stats_instance)
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());

  // Each writer's committed rows: record key -> (id, n).
  using Rows = std::map<std::string, std::pair<int64_t, int64_t>>;
  std::vector<Rows> rows(kThreads);
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t) + 1);
      Rows& mine = rows[static_cast<size_t>(t)];
      int64_t next_id = int64_t{t} * 1000000;
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const bool abort = i % 4 == 3;
        const int64_t n = static_cast<int64_t>(rng() % kGroups);
        const uint32_t op = mine.empty() ? 0 : rng() % 4;
        Transaction* w = db_->Begin();
        Status s;
        std::string key, new_key;
        int64_t id = next_id;
        if (op <= 1) {  // insert
          s = db_->Insert(w, "counters", {Value::Int(id), Value::Int(n)},
                          &key);
        } else {
          auto it = mine.begin();
          std::advance(it, static_cast<long>(rng() % mine.size()));
          key = it->first;
          id = it->second.first;
          s = op == 2 ? db_->Update(w, "counters", Slice(key),
                                    {Value::Int(id), Value::Int(n)},
                                    &new_key)
                      : db_->Delete(w, "counters", Slice(key));
        }
        if (!s.ok()) {
          ADD_FAILURE() << "writer " << t << " txn " << i << ": "
                        << s.ToString();
          ++failures;
          (void)db_->Abort(w);
          return;
        }
        s = abort ? db_->Abort(w) : db_->Commit(w);
        if (!s.ok()) {
          ADD_FAILURE() << "writer " << t << " txn " << i << ": "
                        << s.ToString();
          ++failures;
          return;
        }
        if (abort) continue;
        if (op <= 1) {
          mine[key] = {id, n};
          ++next_id;
        } else if (op == 2) {
          mine.erase(key);
          mine[new_key] = {id, n};
        } else {
          mine.erase(key);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  txn = db_->Begin();
  CheckResult check;
  ASSERT_TRUE(db_->CheckRelation(txn, "counters", &check).ok());
  for (const CheckFinding& f : check.findings) {
    ADD_FAILURE() << f.component << ": " << f.detail;
  }
  EXPECT_TRUE(check.clean);
  // The committed record keys of each group, sorted.
  std::vector<std::vector<std::string>> expected(kGroups);
  size_t total = 0;
  for (const auto& mine : rows) {
    for (const auto& [key, row] : mine) {
      expected[static_cast<size_t>(row.second)].push_back(key);
    }
    total += mine.size();
  }
  for (auto& keys : expected) std::sort(keys.begin(), keys.end());
  const AtId hash_at =
      static_cast<AtId>(db_->registry()->FindAttachmentType("hash_index"));
  const AtId join_at =
      static_cast<AtId>(db_->registry()->FindAttachmentType("join_index"));
  for (int g = 0; g < kGroups; ++g) {
    std::string probe;
    ASSERT_TRUE(EncodeValueKey({Value::Int(g)}, &probe).ok());
    std::vector<std::string> keys;
    ASSERT_TRUE(db_->Lookup(txn, "counters",
                            AccessPathId::Attachment(hash_at, hash_instance),
                            Slice(probe), &keys)
                    .ok());
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, expected[static_cast<size_t>(g)]) << "n = " << g;
    // From the groups row of n = g, the join returns the same counters.
    ASSERT_TRUE(db_->Lookup(txn, "groups",
                            AccessPathId::Attachment(join_at, groups_instance),
                            Slice(probe), &keys)
                    .ok());
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, expected[static_cast<size_t>(g)]) << "join n = " << g;
  }
  StatsSnapshot stats;
  ASSERT_TRUE(
      ReadStats(db_.get(), txn, "counters", stats_instance, &stats).ok());
  EXPECT_EQ(stats.count, total);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(ConcurrencyTest, LostUpdatePreventedByRecordLocks) {
  // One row, many increments from racing transactions: the X record lock
  // serializes fetch-modify-write, so no increment is lost.
  std::string key;
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(
        db_->Insert(txn, "counters", {Value::Int(1), Value::Int(0)}, &key)
            .ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  constexpr int kThreads = 4, kPerThread = 25;
  Schema schema = CounterSchema();
  std::atomic<int> retries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        while (true) {
          Transaction* txn = db_->Begin();
          Record rec;
          Status s = db_->Fetch(txn, "counters", Slice(key), &rec);
          if (s.ok()) {
            int64_t n = rec.View(&schema).GetInt(1);
            s = db_->Update(txn, "counters", Slice(key),
                            {Value::Int(1), Value::Int(n + 1)});
          }
          if (s.ok()) {
            s = db_->Commit(txn);
          } else {
            (void)db_->Abort(txn);
          }
          if (s.ok()) break;
          ++retries;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  Transaction* check = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(check, "counters", Slice(key), &rec).ok());
  EXPECT_EQ(rec.View(&schema).GetInt(1), kThreads * kPerThread);
  EXPECT_TRUE(db_->Commit(check).ok());
}

TEST_F(ConcurrencyTest, DeadlockVictimCanRetry) {
  // Two rows, two transactions locking them in opposite order. One side
  // gets a Deadlock (or Busy timeout) status, aborts, retries, and both
  // increments eventually land.
  std::string key_a, key_b;
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->Insert(txn, "counters", {Value::Int(1), Value::Int(0)},
                            &key_a)
                    .ok());
    ASSERT_TRUE(db_->Insert(txn, "counters", {Value::Int(2), Value::Int(0)},
                            &key_b)
                    .ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  db_->lock_manager()->set_timeout(std::chrono::milliseconds(300));
  Schema schema = CounterSchema();

  auto bump_both = [&](const std::string& first, const std::string& second) {
    while (true) {
      Transaction* txn = db_->Begin();
      Status s;
      for (const std::string* k : {&first, &second}) {
        Record rec;
        s = db_->Fetch(txn, "counters", Slice(*k), &rec);
        if (!s.ok()) break;
        int64_t id = rec.View(&schema).GetInt(0);
        int64_t n = rec.View(&schema).GetInt(1);
        s = db_->Update(txn, "counters", Slice(*k),
                        {Value::Int(id), Value::Int(n + 1)});
        if (!s.ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!s.ok()) {
        (void)db_->Abort(txn);
        continue;
      }
      if (db_->Commit(txn).ok()) return;
    }
  };

  std::thread t1([&] { bump_both(key_a, key_b); });
  std::thread t2([&] { bump_both(key_b, key_a); });
  t1.join();
  t2.join();

  Transaction* check = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(check, "counters", Slice(key_a), &rec).ok());
  EXPECT_EQ(rec.View(&schema).GetInt(1), 2);
  ASSERT_TRUE(db_->Fetch(check, "counters", Slice(key_b), &rec).ok());
  EXPECT_EQ(rec.View(&schema).GetInt(1), 2);
  EXPECT_TRUE(db_->Commit(check).ok());
}

TEST_F(ConcurrencyTest, ReadersShareWritersExclude) {
  std::string key;
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(
        db_->Insert(txn, "counters", {Value::Int(1), Value::Int(7)}, &key)
            .ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  // Many concurrent readers proceed in parallel.
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        Transaction* txn = db_->Begin();
        Record rec;
        if (db_->Fetch(txn, "counters", Slice(key), &rec).ok()) ++reads;
        EXPECT_TRUE(db_->Commit(txn).ok());
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(reads.load(), 120);

  // A reader holding S blocks a writer until it commits.
  Transaction* reader = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(reader, "counters", Slice(key), &rec).ok());
  db_->lock_manager()->set_timeout(std::chrono::milliseconds(100));
  Transaction* writer = db_->Begin();
  Status s = db_->Update(writer, "counters", Slice(key),
                         {Value::Int(1), Value::Int(8)});
  EXPECT_TRUE(s.IsBusy() || s.IsDeadlock()) << s.ToString();
  EXPECT_TRUE(db_->Abort(writer).ok());
  ASSERT_TRUE(db_->Commit(reader).ok());
  db_->lock_manager()->set_timeout(std::chrono::milliseconds(2000));
}

// A scan's relation S covers the records it reads, so the reader takes no
// record locks; a writer's IX must still wait until the reader commits, and
// a record X under a relation X is covered the same way.
TEST_F(ConcurrencyTest, WriterIntentionWaitsBehindReaderScan) {
  std::string key;
  {
    Transaction* txn = db_->Begin();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db_->Insert(txn, "counters",
                              {Value::Int(i), Value::Int(0)}, &key)
                      .ok());
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  const size_t idle = db_->lock_manager()->LockedResourceCount();
  Transaction* reader = db_->Begin();
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db_->OpenScan(reader, "counters", AccessPathId::StorageMethod(),
                            ScanSpec{}, &scan)
                  .ok());
  ScanItem item;
  int rows = 0;
  while (scan->Next(&item).ok()) ++rows;
  EXPECT_EQ(rows, 10);
  Record rec;
  ASSERT_TRUE(db_->Fetch(reader, "counters", Slice(key), &rec).ok());
  // One resource: the relation. The fetched record is covered.
  EXPECT_EQ(db_->lock_manager()->LockedResourceCount(), idle + 1);

  std::atomic<bool> inserted{false};
  Status writer_status;
  std::thread writer([&] {
    Transaction* txn = db_->Begin();
    writer_status = db_->Insert(txn, "counters", {Value::Int(99),
                                                  Value::Int(0)});
    inserted = true;
    if (writer_status.ok()) {
      writer_status = db_->Commit(txn);
    } else {
      (void)db_->Abort(txn);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(inserted.load());  // IX waits behind S
  scan.reset();
  ASSERT_TRUE(db_->Commit(reader).ok());
  writer.join();
  EXPECT_TRUE(inserted.load());
  EXPECT_TRUE(writer_status.ok()) << writer_status.ToString();

  // A relation X covers record X: a delete under it adds no record lock.
  const RelationDescriptor* desc = nullptr;
  ASSERT_TRUE(db_->FindRelation("counters", &desc).ok());
  Transaction* owner = db_->Begin();
  ASSERT_TRUE(owner->LockRelation(desc->id, LockMode::kX).ok());
  const size_t held = db_->lock_manager()->LockedResourceCount();
  ASSERT_TRUE(db_->Delete(owner, "counters", Slice(key)).ok());
  EXPECT_EQ(db_->lock_manager()->LockedResourceCount(), held);
  ASSERT_TRUE(db_->Commit(owner).ok());
}

}  // namespace
}  // namespace dmx
