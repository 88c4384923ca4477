// Recovery torture tests at the Database level: simulated crashes (reopen
// without clean shutdown, with and without page flushes), interleaved
// winner/loser transactions, recovery of every storage method, index
// rebuild consistency, and DDL crash behaviour.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "src/core/database.h"
#include "src/sm/heap.h"
#include "src/sm/key_codec.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::ScanAll;
using testing::TempDir;

// Ends the running test when a (re)open fails. An ASSERT in the fixtures'
// void Open helpers would only leave the helper, and the test would go on
// with a null db_ and crash the whole binary; gtest instead reports the
// exception as this test's failure and runs the next test.
void FailTestUnlessOk(const Status& s) {
  if (!s.ok()) throw std::runtime_error("Database::Open: " + s.ToString());
}

Schema KvSchema() {
  return Schema({{"k", TypeId::kInt64, false},
                 {"v", TypeId::kString, true}});
}

class RecoveryIntegrationTest : public ::testing::Test {
 protected:
  RecoveryIntegrationTest() : dir_("recint") { Open(); }

  void Open() {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.buffer_pool_pages = 64;
    FailTestUnlessOk(Database::Open(options, &db_));
  }

  // Simulated crash: force the log to disk (committed work is always
  // durable via the commit-time force anyway), then drop the Database
  // without any flush — buffer-pool contents beyond what eviction already
  // wrote, and unsaved catalog changes, are lost.
  void Crash() {
    ASSERT_TRUE(db_->log()->FlushAll().ok());
    db_->SimulateCrashOnClose();
    db_.reset();
    Open();
  }

  void CreateKv(const std::string& name, const std::string& sm = "heap") {
    Transaction* txn = db_->Begin();
    AttrList attrs;
    if (sm == "btree") attrs.Add("key", "k");
    ASSERT_TRUE(db_->CreateRelation(txn, name, KvSchema(), sm, attrs).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  std::vector<int64_t> Keys(const std::string& rel) {
    std::vector<int64_t> out;
    Transaction* txn = db_->Begin();
    std::unique_ptr<Scan> scan;
    EXPECT_TRUE(db_->OpenScan(txn, rel, AccessPathId::StorageMethod(),
                              ScanSpec{}, &scan)
                    .ok());
    ScanItem item;
    while (scan->Next(&item).ok()) out.push_back(item.view.GetInt(0));
    scan.reset();
    EXPECT_TRUE(db_->Commit(txn).ok());
    std::sort(out.begin(), out.end());
    return out;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(RecoveryIntegrationTest, WinnersRedoneLosersUndone) {
  CreateKv("t");
  // Winner.
  Transaction* w = db_->Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        db_->Insert(w, "t", {Value::Int(i), Value::String("win")}).ok());
  }
  ASSERT_TRUE(db_->Commit(w).ok());
  // Loser: starts, writes, never commits.
  Transaction* l = db_->Begin();
  for (int i = 100; i < 120; ++i) {
    ASSERT_TRUE(
        db_->Insert(l, "t", {Value::Int(i), Value::String("lose")}).ok());
  }
  Crash();
  std::vector<int64_t> keys = Keys("t");
  ASSERT_EQ(keys.size(), 20u);
  EXPECT_EQ(keys.front(), 0);
  EXPECT_EQ(keys.back(), 19);
}

TEST_F(RecoveryIntegrationTest, TornTailHealedBeforeLoserUndo) {
  // One restart both heals a torn live tail and undoes a loser. The heal
  // must come first: the loser's CLRs and End land where the torn frame
  // began, and never after (or inside) its bytes.
  CreateKv("t");
  Transaction* w = db_->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db_->Insert(w, "t", {Value::Int(i), Value::String("win")}).ok());
  }
  ASSERT_TRUE(db_->Commit(w).ok());
  Transaction* l = db_->Begin();
  const TxnId loser = l->id();
  for (int i = 100; i < 105; ++i) {
    ASSERT_TRUE(
        db_->Insert(l, "t", {Value::Int(i), Value::String("lose")}).ok());
  }
  ASSERT_TRUE(db_->log()->FlushAll().ok());
  db_->SimulateCrashOnClose();
  db_.reset();

  const std::string wal = dir_.path() + "/wal";
  std::vector<LogRecord> before;
  Lsn healed_end = kInvalidLsn;  // where the torn frame begins
  {
    LogManager log;
    ASSERT_TRUE(log.Open(wal, false).ok());
    ASSERT_TRUE(ScanAll(&log, &before).ok());
    healed_end = log.next_lsn();
    ASSERT_TRUE(log.Close().ok());
  }
  size_t loser_updates = 0;
  for (const LogRecord& rec : before) {
    if (rec.txn == loser && rec.type == LogRecType::kUpdate) ++loser_updates;
  }
  ASSERT_GE(loser_updates, 5u);
  {
    // A frame header that promises 1000 bytes, then two of them: the write
    // the crash tore.
    FILE* f = fopen(wal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t bogus_len = 1000;
    fwrite(&bogus_len, 4, 1, f);
    fwrite("xxxxxx", 6, 1, f);
    fclose(f);
  }

  Open();
  const std::vector<int64_t> oracle = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(Keys("t"), oracle);
  db_->SimulateCrashOnClose();
  db_.reset();

  std::vector<LogRecord> after;
  Lsn end = kInvalidLsn;
  {
    LogManager log;
    ASSERT_TRUE(log.Open(wal, false).ok());
    ASSERT_TRUE(ScanAll(&log, &after).ok());
    end = log.next_lsn();
    ASSERT_TRUE(log.Close().ok());
  }
  // History up to the healed end is untouched; past it come exactly the
  // loser's compensations, then its End.
  ASSERT_EQ(after.size(), before.size() + loser_updates + 1);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].lsn, before[i].lsn);
  }
  EXPECT_EQ(after[before.size()].lsn, healed_end);
  for (size_t i = before.size(); i < after.size(); ++i) {
    EXPECT_EQ(after[i].txn, loser);
    EXPECT_EQ(after[i].type, i + 1 < after.size() ? LogRecType::kClr
                                                  : LogRecType::kEnd);
  }

  // The second restart finds nothing to heal or undo.
  Open();
  EXPECT_EQ(db_->log()->next_lsn(), end);
  EXPECT_EQ(Keys("t"), oracle);
}

TEST_F(RecoveryIntegrationTest, InterleavedTransactionsRecoverIndependently) {
  CreateKv("t");
  Transaction* a = db_->Begin();
  Transaction* b = db_->Begin();
  Transaction* c = db_->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Insert(a, "t", {Value::Int(i), Value::String("a")}).ok());
    ASSERT_TRUE(
        db_->Insert(b, "t", {Value::Int(100 + i), Value::String("b")}).ok());
    ASSERT_TRUE(
        db_->Insert(c, "t", {Value::Int(200 + i), Value::String("c")}).ok());
  }
  ASSERT_TRUE(db_->Commit(a).ok());
  ASSERT_TRUE(db_->Abort(b).ok());  // explicitly rolled back
  (void)c;                          // c is a crash loser
  Crash();
  std::vector<int64_t> keys = Keys("t");
  ASSERT_EQ(keys.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(keys[static_cast<size_t>(i)], i);
}

TEST_F(RecoveryIntegrationTest, UpdatesAndDeletesRecover) {
  CreateKv("t");
  std::vector<std::string> keys;
  Transaction* setup = db_->Begin();
  for (int i = 0; i < 30; ++i) {
    std::string key;
    ASSERT_TRUE(db_->Insert(setup, "t",
                            {Value::Int(i), Value::String("orig")}, &key)
                    .ok());
    keys.push_back(key);
  }
  ASSERT_TRUE(db_->Commit(setup).ok());

  Transaction* txn = db_->Begin();
  // Update 0..9, delete 10..19, leave 20..29.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Update(txn, "t", Slice(keys[static_cast<size_t>(i)]),
                            {Value::Int(i), Value::String("updated")})
                    .ok());
  }
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(
        db_->Delete(txn, "t", Slice(keys[static_cast<size_t>(i)])).ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  Crash();
  Transaction* check = db_->Begin();
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db_->OpenScan(check, "t", AccessPathId::StorageMethod(),
                            ScanSpec{}, &scan)
                  .ok());
  int updated = 0, orig = 0, total = 0;
  ScanItem item;
  while (scan->Next(&item).ok()) {
    ++total;
    std::string v = item.view.GetStringSlice(1).ToString();
    if (v == "updated") ++updated;
    if (v == "orig") ++orig;
  }
  scan.reset();
  ASSERT_TRUE(db_->Commit(check).ok());
  EXPECT_EQ(total, 20);
  EXPECT_EQ(updated, 10);
  EXPECT_EQ(orig, 10);
}

TEST_F(RecoveryIntegrationTest, PartialFlushThenCrash) {
  // Many rows through a tiny buffer pool: some pages hit disk via
  // eviction, others only exist in the (lost) pool. Redo must fill the
  // gaps; page LSNs must prevent double-apply on flushed pages.
  CreateKv("t");
  Transaction* txn = db_->Begin();
  const std::string big(300, 'x');
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        db_->Insert(txn, "t", {Value::Int(i), Value::String(big)}).ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  Crash();
  EXPECT_EQ(Keys("t").size(), 500u);
  // A second crash+recovery run is idempotent.
  Crash();
  EXPECT_EQ(Keys("t").size(), 500u);
}

class RecoveryPerSm : public RecoveryIntegrationTest,
                      public ::testing::WithParamInterface<const char*> {};

TEST_P(RecoveryPerSm, CommittedDataSurvivesCrash) {
  const std::string sm = GetParam();
  CreateKv("t", sm);
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db_->Insert(txn, "t", {Value::Int(i), Value::String("d")}).ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  // Plus a loser.
  Transaction* loser = db_->Begin();
  ASSERT_TRUE(
      db_->Insert(loser, "t", {Value::Int(999), Value::String("l")}).ok());
  Crash();
  EXPECT_EQ(Keys("t").size(), 50u);
}

INSTANTIATE_TEST_SUITE_P(StorageMethods, RecoveryPerSm,
                         ::testing::Values("heap", "mainmemory", "btree"));

TEST_F(RecoveryIntegrationTest, SecondaryStructuresConsistentAfterCrash) {
  CreateKv("t");
  uint32_t bt_no = 0, hs_no = 0, uq_no = 0;
  Transaction* ddl = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(ddl, "t", "btree_index",
                                    {{"fields", "k"}}, &bt_no)
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(ddl, "t", "hash_index",
                                    {{"fields", "v"}}, &hs_no)
                  .ok());
  ASSERT_TRUE(
      db_->CreateAttachment(ddl, "t", "unique", {{"fields", "k"}}, &uq_no)
          .ok());
  ASSERT_TRUE(db_->Commit(ddl).ok());

  Transaction* txn = db_->Begin();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db_->Insert(txn, "t",
                            {Value::Int(i), Value::String("v" +
                                                          std::to_string(i))})
                    .ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  // Loser insert that would have touched all structures.
  Transaction* loser = db_->Begin();
  ASSERT_TRUE(
      db_->Insert(loser, "t", {Value::Int(500), Value::String("loser")})
          .ok());
  Crash();

  // B-tree entries match exactly the surviving rows.
  int bt = db_->registry()->FindAttachmentType("btree_index");
  int hs = db_->registry()->FindAttachmentType("hash_index");
  Transaction* check = db_->Begin();
  for (int i : {0, 17, 39}) {
    std::string probe;
    ASSERT_TRUE(EncodeValueKey({Value::Int(i)}, &probe).ok());
    std::vector<std::string> keys;
    ASSERT_TRUE(
        db_->Lookup(check, "t",
                    AccessPathId::Attachment(static_cast<AtId>(bt), bt_no),
                    Slice(probe), &keys)
            .ok());
    EXPECT_EQ(keys.size(), 1u) << i;
  }
  std::string loser_probe;
  ASSERT_TRUE(EncodeValueKey({Value::Int(500)}, &loser_probe).ok());
  std::vector<std::string> loser_keys;
  ASSERT_TRUE(
      db_->Lookup(check, "t",
                  AccessPathId::Attachment(static_cast<AtId>(bt), bt_no),
                  Slice(loser_probe), &loser_keys)
          .ok());
  EXPECT_TRUE(loser_keys.empty());
  // Hash index rebuilt: value lookup works.
  std::string hprobe;
  ASSERT_TRUE(EncodeValueKey({Value::String("v17")}, &hprobe).ok());
  ASSERT_TRUE(
      db_->Lookup(check, "t",
                  AccessPathId::Attachment(static_cast<AtId>(hs), hs_no),
                  Slice(hprobe), &loser_keys)
          .ok());
  EXPECT_EQ(loser_keys.size(), 1u);
  ASSERT_TRUE(db_->Commit(check).ok());

  // Unique constraint still enforces (its table was rebuilt).
  Transaction* dup = db_->Begin();
  EXPECT_TRUE(db_->Insert(dup, "t", {Value::Int(17), Value::String("dup")})
                  .IsConstraint());
  ASSERT_TRUE(db_->Commit(dup).ok());
}

TEST_F(RecoveryIntegrationTest, DdlCrashBeforeCommitLeavesNoRelation) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateRelation(txn, "ghost", KvSchema(), "heap", {}).ok());
  ASSERT_TRUE(
      db_->Insert(txn, "ghost", {Value::Int(1), Value::String("x")}).ok());
  Crash();  // no commit: catalog was never saved with "ghost"
  const RelationDescriptor* desc;
  EXPECT_FALSE(db_->FindRelation("ghost", &desc).ok());
}

TEST_F(RecoveryIntegrationTest, RandomizedCrashRecoveryProperty) {
  CreateKv("t");
  std::mt19937 rng(7);
  std::map<int64_t, std::string> expected;
  std::map<int64_t, std::string> record_keys;
  for (int round = 0; round < 5; ++round) {
    // A committed transaction of random ops...
    Transaction* txn = db_->Begin();
    std::map<int64_t, std::string> staged = expected;
    for (int op = 0; op < 30; ++op) {
      int64_t k = static_cast<int64_t>(rng() % 60);
      auto it = staged.find(k);
      if (it == staged.end()) {
        std::string rkey;
        std::string v = "r" + std::to_string(round);
        ASSERT_TRUE(
            db_->Insert(txn, "t", {Value::Int(k), Value::String(v)}, &rkey)
                .ok());
        staged[k] = v;
        record_keys[k] = rkey;
      } else if (rng() % 2 == 0) {
        ASSERT_TRUE(db_->Delete(txn, "t", Slice(record_keys[k])).ok());
        staged.erase(it);
        record_keys.erase(k);
      } else {
        std::string v = "u" + std::to_string(round);
        std::string nkey;
        ASSERT_TRUE(db_->Update(txn, "t", Slice(record_keys[k]),
                                {Value::Int(k), Value::String(v)}, &nkey)
                        .ok());
        staged[k] = v;
        record_keys[k] = nkey;
      }
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
    expected = std::move(staged);
    // ...then a loser doing more random ops, then a crash.
    Transaction* loser = db_->Begin();
    for (int op = 0; op < 10; ++op) {
      int64_t k = 1000 + static_cast<int64_t>(rng() % 50);
      db_->Insert(loser, "t", {Value::Int(k), Value::String("loser")}).ok();
    }
    Crash();
    // Record keys of survivors may have changed only via our updates, but
    // heap RIDs are stable across recovery; re-derive them by scanning.
    record_keys.clear();
    Transaction* check = db_->Begin();
    std::unique_ptr<Scan> scan;
    ASSERT_TRUE(db_->OpenScan(check, "t", AccessPathId::StorageMethod(),
                              ScanSpec{}, &scan)
                    .ok());
    std::map<int64_t, std::string> found;
    ScanItem item;
    while (scan->Next(&item).ok()) {
      found[item.view.GetInt(0)] = item.view.GetStringSlice(1).ToString();
      record_keys[item.view.GetInt(0)] = item.record_key;
    }
    scan.reset();
    ASSERT_TRUE(db_->Commit(check).ok());
    ASSERT_EQ(found, expected) << "after round " << round;
  }
}


TEST_F(RecoveryIntegrationTest, CheckpointTruncatesLogAndPreservesState) {
  CreateKv("h", "heap");
  CreateKv("m", "mainmemory");
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Insert(txn, "h", {Value::Int(i), Value::String("h")})
                    .ok());
    ASSERT_TRUE(db_->Insert(txn, "m", {Value::Int(i), Value::String("m")})
                    .ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());

  // Checkpoint blocked while a transaction is active.
  Transaction* open_txn = db_->Begin();
  EXPECT_TRUE(db_->Checkpoint().IsBusy());
  ASSERT_TRUE(db_->Commit(open_txn).ok());

  struct stat before, after;
  ASSERT_EQ(stat((dir_.path() + "/wal").c_str(), &before), 0);
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_EQ(stat((dir_.path() + "/wal").c_str(), &after), 0);
  EXPECT_LT(after.st_size, before.st_size);

  // Post-checkpoint work, then crash: the truncated log + snapshots must
  // carry everything.
  txn = db_->Begin();
  for (int i = 100; i < 110; ++i) {
    ASSERT_TRUE(db_->Insert(txn, "m", {Value::Int(i), Value::String("m2")})
                    .ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  Transaction* loser = db_->Begin();
  ASSERT_TRUE(
      db_->Insert(loser, "m", {Value::Int(999), Value::String("l")}).ok());
  Crash();
  EXPECT_EQ(Keys("h").size(), 50u);
  EXPECT_EQ(Keys("m").size(), 60u);
}

TEST_F(RecoveryIntegrationTest, RepeatedCheckpointCrashCycles) {
  CreateKv("m", "mainmemory");
  size_t expected = 0;
  for (int round = 0; round < 4; ++round) {
    Transaction* txn = db_->Begin();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db_->Insert(txn, "m",
                              {Value::Int(round * 100 + i),
                               Value::String("r")})
                      .ok());
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
    expected += 10;
    if (round % 2 == 0) {
      ASSERT_TRUE(db_->Checkpoint().ok());
    }
    Crash();
    ASSERT_EQ(Keys("m").size(), expected) << "round " << round;
  }
}

TEST_F(RecoveryIntegrationTest, LsnsKeepIncreasingAcrossTruncation) {
  CreateKv("t");
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->Insert(txn, "t", {Value::Int(1), Value::String("a")})
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  Lsn before = db_->log()->next_lsn();
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_GE(db_->log()->next_lsn(), before);
  // Page LSNs stamped before the checkpoint must not gate redo of
  // post-checkpoint records: update the same row and crash.
  txn = db_->Begin();
  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("t", &desc).ok());
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db_->OpenScan(txn, "t", AccessPathId::StorageMethod(),
                            ScanSpec{}, &scan)
                  .ok());
  ScanItem item;
  ASSERT_TRUE(scan->Next(&item).ok());
  std::string key = item.record_key;
  scan.reset();
  ASSERT_TRUE(db_->Update(txn, "t", Slice(key),
                          {Value::Int(1), Value::String("updated")})
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  Crash();
  txn = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(txn, "t", Slice(key), &rec).ok());
  Schema schema = KvSchema();
  EXPECT_EQ(rec.View(&schema).GetStringSlice(1).ToString(), "updated");
  ASSERT_TRUE(db_->Commit(txn).ok());
}

// Power loss (not just a process crash): every write since the last fsync
// is lost. Commit forces the log, so committed work must still survive.
TEST(PowerLossRecoveryTest, CommittedWorkSurvivesDroppedUnsyncedWrites) {
  TempDir dir("powerloss");
  FaultInjectionEnv env;
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.buffer_pool_pages = 16;
  options.env = &env;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Transaction* ddl = db->Begin();
  ASSERT_TRUE(db->CreateRelation(ddl, "t", KvSchema(), "heap", {}).ok());
  ASSERT_TRUE(db->Commit(ddl).ok());
  Transaction* txn = db->Begin();
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        db->Insert(txn, "t", {Value::Int(i), Value::String("keep")}).ok());
  }
  ASSERT_TRUE(db->Commit(txn).ok());
  // A loser left in flight: its effects must not reappear.
  Transaction* loser = db->Begin();
  ASSERT_TRUE(
      db->Insert(loser, "t", {Value::Int(999), Value::String("lose")}).ok());
  db->SimulateCrashOnClose();
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedWrites().ok());
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Transaction* check = db->Begin();
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db->OpenScan(check, "t", AccessPathId::StorageMethod(),
                           ScanSpec{}, &scan)
                  .ok());
  ScanItem item;
  std::vector<int64_t> keys;
  while (scan->Next(&item).ok()) keys.push_back(item.view.GetInt(0));
  scan.reset();
  ASSERT_TRUE(db->Commit(check).ok());
  EXPECT_EQ(keys.size(), 25u);
  for (int64_t k : keys) EXPECT_LT(k, 25);
}

// -- in-memory attachment state at open ---------------------------------------

// Base scans opened on relations stored by "counted_heap", the heap
// storage method with a counting open_scan.
std::atomic<int> g_base_scans{0};

Status CountedOpenScan(SmContext& ctx, const ScanSpec& spec,
                       std::unique_ptr<Scan>* scan) {
  ++g_base_scans;
  return HeapStorageMethodOps().open_scan(ctx, spec, scan);
}

// A relation with three attachments whose state lives in memory and is
// built by scanning the base relation (hash_index, unique, stats). Restart
// leaves that state alone; the relation's first touch afterwards builds it.
class AttachmentStateAtOpenTest : public ::testing::Test {
 protected:
  static constexpr int kInMemoryAttachments = 3;

  AttachmentStateAtOpenTest() : dir_("atopen") {
    options_.dir = dir_.path();
    options_.buffer_pool_pages = 64;
    options_.env = &env_;
    options_.register_extensions = [](ExtensionRegistry* registry) {
      SmOps ops = HeapStorageMethodOps();
      ops.name = "counted_heap";
      ops.open_scan = CountedOpenScan;
      registry->RegisterStorageMethod(ops);
    };
    Open();
    Transaction* txn = db_->Begin();
    EXPECT_TRUE(
        db_->CreateRelation(txn, "t", KvSchema(), "counted_heap", {}).ok());
    EXPECT_TRUE(
        db_->CreateAttachment(txn, "t", "hash_index", {{"fields", "v"}}).ok());
    EXPECT_TRUE(db_->CreateAttachment(txn, "t", "unique", {{"fields", "k"}})
                    .ok());
    EXPECT_TRUE(db_->CreateAttachment(txn, "t", "stats", {{"field", "k"}})
                    .ok());
    keys_.resize(100);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(db_->Insert(txn, "t", Row(i), &keys_[i]).ok());
    }
    EXPECT_TRUE(db_->Commit(txn).ok());
  }

  static std::vector<Value> Row(int64_t k) {
    return {Value::Int(k), Value::String("v" + std::to_string(k % 10))};
  }

  void Open() { FailTestUnlessOk(Database::Open(options_, &db_)); }

  // Opens every attachment state of "t" with a write that is rolled back,
  // and returns the base scans that took.
  int ScansToTouch() {
    const int before = g_base_scans.load();
    Transaction* txn = db_->Begin();
    EXPECT_TRUE(db_->Insert(txn, "t", Row(1000)).ok());
    EXPECT_TRUE(db_->Abort(txn).ok());
    return g_base_scans.load() - before;
  }

  void ExpectClean() {
    Transaction* txn = db_->Begin();
    CheckResult check;
    ASSERT_TRUE(db_->CheckRelation(txn, "t", &check).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    for (const CheckFinding& f : check.findings) {
      ADD_FAILURE() << f.component << ": " << f.detail;
    }
    EXPECT_TRUE(check.clean);
  }

  TempDir dir_;
  FaultInjectionEnv env_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  std::vector<std::string> keys_;  // record keys of rows 0..99
};

TEST_F(AttachmentStateAtOpenTest, CleanReopenScansOncePerAttachment) {
  // Open itself builds no attachment state; the first touch builds each
  // from one scan.
  ASSERT_TRUE(db_->Checkpoint().ok());
  db_.reset();
  g_base_scans = 0;
  Open();
  EXPECT_EQ(g_base_scans.load(), 0);
  EXPECT_EQ(ScansToTouch(), kInMemoryAttachments);
  EXPECT_EQ(ScansToTouch(), 0);
  ExpectClean();
}

TEST_F(AttachmentStateAtOpenTest, LoserCrashBuildsStateOnceAtFirstTouch) {
  // After a checkpoint, a winner inserts and deletes rows and commits; a
  // loser does the same, and a strict commit on another relation forces
  // its records to the log. The crash loses every page written since the
  // checkpoint, so redo replays them all and undo rolls the loser back.
  // Restart dispatches none of the attachment records, so no state is
  // opened on a base that redo and undo are still changing: the first
  // touch afterwards builds each once, from the recovered base.
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateRelation(txn, "u", KvSchema(), "heap", {}).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  txn = db_->Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Insert(txn, "t", Row(100 + i)).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->Delete(txn, "t", Slice(keys_[i])).ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  Transaction* loser = db_->Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Insert(loser, "t", Row(200 + i)).ok());
  }
  for (int i = 5; i < 10; ++i) {
    ASSERT_TRUE(db_->Delete(loser, "t", Slice(keys_[i])).ok());
  }
  txn = db_->Begin();
  ASSERT_TRUE(db_->Insert(txn, "u", Row(0)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  env_.SetWriteFailAfter(0);  // the disk dies before any page goes out
  db_->SimulateCrashOnClose();
  db_.reset();
  env_.ClearFaults();
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());

  g_base_scans = 0;
  Open();
  EXPECT_EQ(g_base_scans.load(), 0);
  EXPECT_EQ(ScansToTouch(), kInMemoryAttachments);
  ExpectClean();
  // The unique constraint sees exactly the recovered rows.
  txn = db_->Begin();
  EXPECT_TRUE(db_->Insert(txn, "t", Row(119)).IsConstraint());
  EXPECT_TRUE(db_->Insert(txn, "t", Row(5)).IsConstraint());
  ASSERT_TRUE(db_->Insert(txn, "t", Row(3)).ok());
  ASSERT_TRUE(db_->Insert(txn, "t", Row(205)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  ExpectClean();
}

TEST_F(AttachmentStateAtOpenTest, WinnersOnlyCrashScansOncePerAttachment) {
  // The same lost pages, but only a winner: redo replays its heap records
  // and skips the attachment records, nothing is undone, and each
  // in-memory attachment is built once, at the first touch, from the
  // recovered base.
  ASSERT_TRUE(db_->Checkpoint().ok());
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Insert(txn, "t", Row(100 + i)).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->Delete(txn, "t", Slice(keys_[i])).ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  env_.SetWriteFailAfter(0);  // the disk dies before any page goes out
  db_->SimulateCrashOnClose();
  db_.reset();
  env_.ClearFaults();
  ASSERT_TRUE(env_.DropUnsyncedWrites().ok());

  g_base_scans = 0;
  Open();
  EXPECT_EQ(g_base_scans.load(), 0);
  EXPECT_EQ(ScansToTouch(), kInMemoryAttachments);
  ExpectClean();
  txn = db_->Begin();
  EXPECT_TRUE(db_->Insert(txn, "t", Row(119)).IsConstraint());
  ASSERT_TRUE(db_->Insert(txn, "t", Row(4)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  ExpectClean();
}

}  // namespace
}  // namespace dmx
