// Crash-recovery torture tests: randomized workloads against a database
// whose disk misbehaves (dies mid-workload, loses unsynced writes at power
// loss, corrupts pages), asserting after every crash+recovery that exactly
// the committed data survives and that index and constraint invariants hold.
//
// The durability model the assertions rely on: faults are armed as
// countdowns that kill the disk permanently for the rest of the cycle, so
//   Commit returned OK      =>  the commit record was synced => durable;
//   Commit returned error   =>  the sync failed and nothing syncs after
//                               => not durable.
// Power loss is simulated by FaultInjectionEnv::DropUnsyncedWrites, which
// reverts every file to its state at the last successful fsync.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <string>

#include "src/core/database.h"
#include "src/query/sql.h"
#include "src/sm/key_codec.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

Schema KvSchema() {
  return Schema({{"k", TypeId::kInt64, false},
                 {"v", TypeId::kString, true}});
}

class FaultInjectionTortureTest : public ::testing::Test {
 protected:
  FaultInjectionTortureTest() : dir_("torture") {
    options_.dir = dir_.path() + "/db";
    options_.buffer_pool_pages = 32;  // small pool: eviction happens
    options_.env = &env_;
    Reopen();
  }

  ~FaultInjectionTortureTest() override {
    if (db_) {
      db_->SimulateCrashOnClose();  // no flush through a possibly-dead disk
      db_.reset();
    }
  }

  void Reopen() {
    Status s = Database::Open(options_, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  /// Simulate a process crash plus power loss, then recover.
  void CrashAndRecover() {
    db_->SimulateCrashOnClose();
    db_.reset();
    ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
    env_.ClearFaults();
    Reopen();
  }

  void SetupRelationWithIndexes() {
    Transaction* ddl = db_->Begin();
    ASSERT_TRUE(db_->CreateRelation(ddl, "t", KvSchema(), "heap", {}).ok());
    ASSERT_TRUE(db_->CreateAttachment(ddl, "t", "btree_index",
                                      {{"fields", "k"}}, &index_no_)
                    .ok());
    ASSERT_TRUE(
        db_->CreateAttachment(ddl, "t", "unique", {{"fields", "k"}}, nullptr)
            .ok());
    ASSERT_TRUE(db_->Commit(ddl).ok());
    ASSERT_TRUE(db_->Checkpoint().ok());  // make the DDL and indexes durable
    index_at_ = static_cast<AtId>(
        db_->registry()->FindAttachmentType("btree_index"));
  }

  /// Scan the relation into key->value, also refreshing record_keys_.
  std::map<int64_t, std::string> ScanAll() {
    std::map<int64_t, std::string> found;
    record_keys_.clear();
    Transaction* txn = db_->Begin();
    std::unique_ptr<Scan> scan;
    EXPECT_TRUE(db_->OpenScan(txn, "t", AccessPathId::StorageMethod(),
                              ScanSpec{}, &scan)
                    .ok());
    ScanItem item;
    while (scan->Next(&item).ok()) {
      found[item.view.GetInt(0)] = item.view.GetStringSlice(1).ToString();
      record_keys_[item.view.GetInt(0)] = item.record_key;
    }
    scan.reset();
    EXPECT_TRUE(db_->Commit(txn).ok());
    return found;
  }

  /// Post-recovery invariants: surviving rows == committed rows; the b-tree
  /// maps every surviving key to exactly its row and nothing else; the
  /// unique constraint still rejects duplicates.
  void VerifyRecoveredState(int cycle) {
    std::map<int64_t, std::string> found = ScanAll();
    ASSERT_EQ(found, expected_) << "after cycle " << cycle;

    Transaction* txn = db_->Begin();
    for (const auto& [k, v] : expected_) {
      std::string probe;
      ASSERT_TRUE(EncodeValueKey({Value::Int(k)}, &probe).ok());
      std::vector<std::string> keys;
      ASSERT_TRUE(db_->Lookup(txn, "t",
                              AccessPathId::Attachment(index_at_, index_no_),
                              Slice(probe), &keys)
                      .ok());
      ASSERT_EQ(keys.size(), 1u) << "index entry for key " << k;
      EXPECT_EQ(keys[0], record_keys_[k]) << "index points elsewhere for "
                                          << k;
    }
    // A key that never existed has no ghost entry.
    std::string ghost;
    ASSERT_TRUE(EncodeValueKey({Value::Int(1 << 20)}, &ghost).ok());
    std::vector<std::string> ghost_keys;
    ASSERT_TRUE(db_->Lookup(txn, "t",
                            AccessPathId::Attachment(index_at_, index_no_),
                            Slice(ghost), &ghost_keys)
                    .ok());
    EXPECT_TRUE(ghost_keys.empty());
    EXPECT_TRUE(db_->Commit(txn).ok());

    if (!expected_.empty()) {
      Transaction* dup = db_->Begin();
      int64_t existing = expected_.begin()->first;
      EXPECT_TRUE(db_->Insert(dup, "t",
                              {Value::Int(existing), Value::String("dup")})
                      .IsConstraint())
          << "unique constraint lost after cycle " << cycle;
      EXPECT_TRUE(db_->Abort(dup).ok());
    }
  }

  /// One transaction of random operations. Returns false if the disk died
  /// under it (the caller then stops the workload and crashes).
  bool RunRandomTxn(std::mt19937_64& rng, int cycle) {
    Transaction* txn = db_->Begin();
    std::map<int64_t, std::string> staged = expected_;
    std::map<int64_t, std::string> staged_keys = record_keys_;
    bool failed = false;
    const int ops = 1 + static_cast<int>(rng() % 8);
    for (int op = 0; op < ops && !failed; ++op) {
      const int64_t k = static_cast<int64_t>(rng() % 40);
      auto it = staged.find(k);
      Status s;
      if (it == staged.end()) {
        std::string rkey;
        std::string v = "c" + std::to_string(cycle);
        s = db_->Insert(txn, "t", {Value::Int(k), Value::String(v)}, &rkey);
        if (s.ok()) {
          staged[k] = v;
          staged_keys[k] = rkey;
        }
      } else if (rng() % 2 == 0) {
        s = db_->Delete(txn, "t", Slice(staged_keys[k]));
        if (s.ok()) {
          staged.erase(k);
          staged_keys.erase(k);
        }
      } else {
        std::string v = "u" + std::to_string(cycle);
        std::string nkey;
        s = db_->Update(txn, "t", Slice(staged_keys[k]),
                        {Value::Int(k), Value::String(v)}, &nkey);
        if (s.ok()) {
          staged[k] = v;
          staged_keys[k] = nkey;
        }
      }
      failed = !s.ok();
    }
    if (!failed && rng() % 4 != 0) {
      Status cs = db_->Commit(txn);
      if (cs.ok()) {
        // Commit OK means the commit record hit stable storage.
        expected_ = std::move(staged);
        record_keys_ = std::move(staged_keys);
        return true;
      }
      return false;  // the failed commit rolled the txn back
    }
    // Deliberate abort, no durable effect expected. The disk may have died
    // under the transaction, so the abort may fail; dead_disk() says so.
    (void)db_->Abort(txn);
    return !env_.dead_disk();
  }

  TempDir dir_;
  FaultInjectionEnv env_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  AtId index_at_ = 0;
  uint32_t index_no_ = 0;
  std::map<int64_t, std::string> expected_;      // committed rows
  std::map<int64_t, std::string> record_keys_;   // key -> heap record key
};

TEST_F(FaultInjectionTortureTest, RandomizedCrashRecoveryCycles) {
  SetupRelationWithIndexes();
  std::mt19937_64 rng(0xB16B00B5);
  constexpr int kCycles = 24;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    env_.SetSeed(1000u + static_cast<uint64_t>(cycle));
    // Odd cycles run with an armed fault that kills the disk at a random
    // point — possibly mid-insert, mid-WAL-flush, or mid-checkpoint.
    if (cycle % 2 == 1) {
      if (rng() % 2 == 0) {
        env_.SetWriteFailAfter(static_cast<int64_t>(rng() % 60));
      } else {
        env_.SetSyncFailAfter(static_cast<int64_t>(rng() % 6));
      }
    }
    const int txns = 1 + static_cast<int>(rng() % 4);
    for (int t = 0; t < txns; ++t) {
      if (!RunRandomTxn(rng, cycle)) break;  // disk died: crash now
    }
    if (rng() % 3 == 0) {
      // Checkpoint under fire: flushes every page and snapshot, then
      // truncates the WAL; any prefix of it may hit the dead disk.
      db_->Checkpoint().ok();
    }
    CrashAndRecover();
    VerifyRecoveredState(cycle);
  }
  EXPECT_GT(env_.injected_faults(), 0u);
}

TEST_F(FaultInjectionTortureTest, CheckpointCrashLoop) {
  // Focused variant: every cycle commits, then checkpoints with a sync
  // countdown armed so the crash lands inside checkpoint itself.
  SetupRelationWithIndexes();
  std::mt19937_64 rng(99);
  for (int cycle = 0; cycle < 8; ++cycle) {
    Transaction* txn = db_->Begin();
    const int64_t k = cycle;
    std::string v = "cp" + std::to_string(cycle);
    ASSERT_TRUE(db_->Insert(txn, "t", {Value::Int(k), Value::String(v)},
                            nullptr)
                    .ok());
    Status cs = db_->Commit(txn);
    ASSERT_TRUE(cs.ok()) << cs.ToString();
    expected_[k] = v;
    env_.SetSyncFailAfter(static_cast<int64_t>(rng() % 5));
    db_->Checkpoint().ok();  // dies somewhere inside (or survives)
    CrashAndRecover();
    VerifyRecoveredState(cycle);
  }
}

TEST(FaultInjectionDbTest, CorruptedPageReadReturnsCorruption) {
  TempDir dir("pagecorrupt");
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Transaction* ddl = db->Begin();
  ASSERT_TRUE(db->CreateRelation(ddl, "t", KvSchema(), "heap", {}).ok());
  ASSERT_TRUE(db->Commit(ddl).ok());
  Transaction* txn = db->Begin();
  const std::string big(500, 'x');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Insert(txn, "t", {Value::Int(i), Value::String(big)})
                    .ok());
  }
  ASSERT_TRUE(db->Commit(txn).ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // all pages on disk, WAL empty
  db.reset();                          // clean shutdown

  // Flip one byte in every data page image (page 0, the file header, stays
  // intact so the database still opens).
  const std::string pages = options.dir + "/db.pages";
  uint64_t size = 0;
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t page_count = size / kDiskPageSize;
  ASSERT_GT(page_count, 2u);
  FILE* f = fopen(pages.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  for (uint64_t id = 1; id < page_count; ++id) {
    const long off = static_cast<long>(id * kDiskPageSize + 2048);
    fseek(f, off, SEEK_SET);
    int c = fgetc(f);
    fseek(f, off, SEEK_SET);
    fputc(c ^ 0x20, f);
  }
  fclose(f);

  ASSERT_TRUE(Database::Open(options, &db).ok());
  Transaction* check = db->Begin();
  std::unique_ptr<Scan> scan;
  Status s = db->OpenScan(check, "t", AccessPathId::StorageMethod(),
                          ScanSpec{}, &scan);
  if (s.ok()) {
    ScanItem item;
    do {
      s = scan->Next(&item);
    } while (s.ok());
    scan.reset();
  }
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(db->Abort(check).ok());
}

// -- crash during REPAIR -----------------------------------------------------

// Opens `options` with `kRows` committed rows in relation t and a btree_index
// on k, each checkpointed, scribbles one index page out of band, reopens
// and CHECKs: the index is quarantined, and the quarantine persisted.
constexpr int kRepairRows = 500;
void OpenWithQuarantinedIndex(const DatabaseOptions& options,
                              std::unique_ptr<Database>* out,
                              uint32_t* index_no, AtId* bt_at) {
  const std::string pages = options.dir + "/db.pages";
  std::unique_ptr<Database>& db = *out;

  // Committed rows, checkpointed so the heap pages are synced.
  ASSERT_TRUE(Database::Open(options, &db).ok());
  {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->CreateRelation(txn, "t", KvSchema(), "heap", {}).ok());
    for (int i = 0; i < kRepairRows; ++i) {
      ASSERT_TRUE(db->Insert(txn, "t",
                             {Value::Int(i),
                              Value::String("v" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  uint64_t size = 0;
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t base_pages = size / kDiskPageSize;

  // The index is built after the measurement, so its pages all land in
  // [base_pages, all_pages).
  {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->CreateAttachment(txn, "t", "btree_index",
                                     {{"fields", "k"}}, index_no)
                    .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    *bt_at = static_cast<AtId>(
        db->registry()->FindAttachmentType("btree_index"));
  }
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t all_pages = size / kDiskPageSize;
  ASSERT_GT(all_pages, base_pages);

  // Scribble one index page out of band, then reopen and CHECK: the
  // quarantine is persisted with a durable catalog save.
  db->SimulateCrashOnClose();
  db.reset();
  {
    std::mt19937 rng(7u);
    const uint64_t target = base_pages + rng() % (all_pages - base_pages);
    FILE* f = fopen(pages.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseek(f, static_cast<long>(target * kDiskPageSize), SEEK_SET),
              0);
    for (size_t i = 0; i < kPageSize; ++i) {
      fputc(static_cast<int>(rng() & 0xff), f);
    }
    fclose(f);
  }
  ASSERT_TRUE(Database::Open(options, &db).ok());
  const std::string component = "btree_index#" + std::to_string(*index_no);
  {
    Transaction* txn = db->Begin();
    CheckResult check;
    ASSERT_TRUE(db->CheckRelation(txn, "t", &check).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_EQ(check.quarantined.size(), 1u);
    EXPECT_EQ(check.quarantined[0], component);
  }
}

// A crash after REPAIR rebuilt the index but before its transaction
// committed must recover to the old, still-quarantined descriptor: the
// deferred catalog save never ran, so the damage record survives power loss
// and a second REPAIR completes the job.
TEST(FaultInjectionRepairTest, CrashMidRepairKeepsQuarantineAndData) {
  TempDir dir("repaircrash");
  FaultInjectionEnv env;
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.env = &env;
  constexpr int kRows = kRepairRows;

  uint32_t index_no = 0;
  AtId bt_at = 0;
  std::unique_ptr<Database> db;
  ASSERT_NO_FATAL_FAILURE(
      OpenWithQuarantinedIndex(options, &db, &index_no, &bt_at));
  const std::string component = "btree_index#" + std::to_string(index_no);

  // REPAIR rebuilds the tree, then the process dies before Commit: power
  // loss drops every write that was not synced.
  {
    Transaction* txn = db->Begin();
    RepairResult rep;
    Status s = db->RepairRelation(txn, "t", &rep);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(rep.repaired.size(), 1u);
    EXPECT_EQ(rep.repaired[0], component);
    // no Commit: crash here
  }
  db->SimulateCrashOnClose();
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedWrites().ok());
  env.ClearFaults();

  // Recovery lands on the pre-repair state: still quarantined, every
  // committed row intact through the base relation.
  ASSERT_TRUE(Database::Open(options, &db).ok());
  {
    const RelationDescriptor* desc;
    ASSERT_TRUE(db->FindRelation("t", &desc).ok());
    EXPECT_TRUE(desc->IsQuarantined(bt_at, index_no));

    Transaction* txn = db->Begin();
    std::unique_ptr<Scan> scan;
    ASSERT_TRUE(db->OpenScan(txn, "t", AccessPathId::StorageMethod(),
                             ScanSpec{}, &scan)
                    .ok());
    ScanItem item;
    int rows = 0;
    while (scan->Next(&item).ok()) ++rows;
    scan.reset();
    ASSERT_TRUE(db->Commit(txn).ok());
    EXPECT_EQ(rows, kRows);
  }

  // A second REPAIR, committed this time, restores a CHECK-clean index.
  {
    Transaction* txn = db->Begin();
    RepairResult rep;
    ASSERT_TRUE(db->RepairRelation(txn, "t", &rep).ok());
    ASSERT_EQ(rep.repaired.size(), 1u);
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  {
    Transaction* txn = db->Begin();
    CheckResult check;
    ASSERT_TRUE(db->CheckRelation(txn, "t", &check).ok());
    EXPECT_TRUE(check.clean) << (check.findings.empty()
                                     ? ""
                                     : check.findings[0].detail);
    // The rebuilt tree answers probes again.
    std::string probe;
    ASSERT_TRUE(EncodeValueKey({Value::Int(123)}, &probe).ok());
    std::vector<std::string> found;
    ASSERT_TRUE(db->Lookup(txn, "t", AccessPathId::Attachment(bt_at, index_no),
                           Slice(probe), &found)
                    .ok());
    ASSERT_EQ(found.size(), 1u);
    Record rec;
    Schema schema = KvSchema();
    ASSERT_TRUE(db->Fetch(txn, "t", Slice(found[0]), &rec).ok());
    EXPECT_EQ(rec.View(&schema).GetInt(0), 123);
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  db->SimulateCrashOnClose();
  db.reset();
}

// REPAIR that lifts a stale storage quarantine, then rebuilds a damaged
// btree_index, commits two catalog steps, and the first step's save
// publishes the whole catalog, the rebuilt tree's anchor included. Wherever
// the disk dies during that commit, the reopened database must not point
// at a tree whose pages never reached the disk: the index is either still
// quarantined (and a second REPAIR fixes it) or CHECKs clean.
TEST(FaultInjectionRepairTest, RepairCommitNeverPublishesUnwrittenPages) {
  for (int64_t writes = 0;; ++writes) {
    SCOPED_TRACE("the disk dies after " + std::to_string(writes) +
                 " writes of the commit");
    TempDir dir("repaircommit");
    FaultInjectionEnv env;
    DatabaseOptions options;
    options.dir = dir.path() + "/db";
    options.env = &env;
    uint32_t index_no = 0;
    AtId bt_at = 0;
    std::unique_ptr<Database> db;
    ASSERT_NO_FATAL_FAILURE(
        OpenWithQuarantinedIndex(options, &db, &index_no, &bt_at));
    // A damage record of the base storage whose sweep now comes back
    // clean: REPAIR lifts it first, then rebuilds the index.
    const RelationDescriptor* desc;
    ASSERT_TRUE(db->FindRelation("t", &desc).ok());
    ASSERT_TRUE(db->catalog()
                    ->MutateRelation(desc->id,
                                     [](RelationDescriptor& d) {
                                       d.sm_quarantined = true;
                                       d.sm_quarantine_reason = "stale";
                                       return true;
                                     })
                    .ok());
    Transaction* txn = db->Begin();
    RepairResult rep;
    ASSERT_TRUE(db->RepairRelation(txn, "t", &rep).ok());
    ASSERT_EQ(rep.repaired.size(), 2u);
    env.SetWriteFailAfter(writes);
    // Fails once the disk dies; what survives is checked after reopen.
    (void)db->Commit(txn);
    const bool died = env.dead_disk();
    db->SimulateCrashOnClose();
    db.reset();
    ASSERT_TRUE(env.DropUnsyncedWrites().ok());
    env.ClearFaults();

    Status open = Database::Open(options, &db);
    ASSERT_TRUE(open.ok()) << open.ToString();
    ASSERT_TRUE(db->FindRelation("t", &desc).ok());
    txn = db->Begin();
    if (desc->IsQuarantined(bt_at, index_no)) {
      ASSERT_TRUE(db->RepairRelation(txn, "t", &rep).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
      txn = db->Begin();
    }
    CheckResult check;
    ASSERT_TRUE(db->CheckRelation(txn, "t", &check).ok());
    EXPECT_TRUE(check.clean) << check.findings[0].component << ": "
                             << check.findings[0].detail;
    ASSERT_TRUE(db->Commit(txn).ok());
    db->SimulateCrashOnClose();
    db.reset();
    if (!died || ::testing::Test::HasFailure()) break;
  }
}

// -- committed DDL survives a crash -------------------------------------------

// A DDL builds pages without logging them (a btree relation's root, an
// index's bulk load), so its commit flushes them before the catalog that
// points at them is saved. Each case commits DDL (and rows after it), then
// kills the disk, crashes and drops every unsynced write: the reopened
// table must take an insert and CHECK clean.
class FaultInjectionDdlCrashTest : public ::testing::Test {
 protected:
  FaultInjectionDdlCrashTest() : dir_("ddlcrash") {
    options_.dir = dir_.path() + "/db";
    options_.env = &env_;
    Open();
  }

  void Open() {
    Status s = Database::Open(options_, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
    session_ = std::make_unique<Session>(db_.get());
  }

  QueryResult Must(const std::string& sql) {
    QueryResult result;
    Status s = session_->Execute(sql, &result);
    EXPECT_TRUE(s.ok()) << sql << " -> " << s.ToString();
    return result;
  }

  void InsertRows(int from, int to) {
    for (int i = from; i < to; ++i) {
      Must("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v')");
    }
  }

  void CrashAndExpectUsable() {
    env_.SetWriteFailAfter(0);
    db_->SimulateCrashOnClose();
    session_.reset();
    db_.reset();
    ASSERT_TRUE(env_.DropUnsyncedWrites().ok());
    env_.ClearFaults();
    ASSERT_NO_FATAL_FAILURE(Open());
    Must("INSERT INTO t VALUES (100000, 'after')");
    const std::string message = Must("CHECK t").message;
    EXPECT_EQ(message.rfind("CHECK t: clean", 0), 0u) << message;
  }

  TempDir dir_;
  FaultInjectionEnv env_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(FaultInjectionDdlCrashTest, BtreeStorageCreate) {
  Must("CREATE TABLE t (k INT NOT NULL, v STRING) USING btree WITH (key = k)");
  CrashAndExpectUsable();
}

TEST_F(FaultInjectionDdlCrashTest, IndexCreateOnPopulatedTable) {
  Must("CREATE TABLE t (k INT NOT NULL, v STRING)");
  InsertRows(0, 200);
  Must("CREATE INDEX ON t (k)");
  CrashAndExpectUsable();
}

TEST_F(FaultInjectionDdlCrashTest, IndexCreateOnEmptyTable) {
  Must("CREATE TABLE t (k INT NOT NULL, v STRING)");
  Must("CREATE INDEX ON t (k)");
  CrashAndExpectUsable();
}

TEST_F(FaultInjectionDdlCrashTest, IndexCreateThenCommittedInserts) {
  Must("CREATE TABLE t (k INT NOT NULL, v STRING)");
  Must("CREATE INDEX ON t (k)");
  InsertRows(0, 300);
  CrashAndExpectUsable();
}

// -- graceful degradation & auto-recovery ------------------------------------

// Transient-fault matrix: a commit or checkpoint that hits a transient
// ENOSPC-style burst outliving the retry budget must flip the database into
// degraded read-only mode (reads serve, writers get Busy — never a
// corruption), and once the burst drains, background recovery must restore
// full write service without reopening the Database.
class FaultInjectionDegradedTest : public ::testing::Test {
 protected:
  FaultInjectionDegradedTest() : dir_("degraded") {
    options_.dir = dir_.path() + "/db";
    options_.env = &env_;
    options_.recovery_initial_backoff_ms = 1;  // fast probe loop for tests
    options_.recovery_max_backoff_ms = 8;
    Status s = Database::Open(options_, &db_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    Transaction* ddl = db_->Begin();
    EXPECT_TRUE(db_->CreateRelation(ddl, "t", KvSchema(), "heap", {}).ok());
    EXPECT_TRUE(db_->Commit(ddl).ok());
    EXPECT_TRUE(db_->Checkpoint().ok());
  }

  Status InsertRow(int64_t k, const std::string& v) {
    Transaction* txn = db_->Begin();
    Status s = db_->Insert(txn, "t", {Value::Int(k), Value::String(v)});
    if (!s.ok()) {
      (void)db_->Abort(txn);
      return s;
    }
    return db_->Commit(txn);
  }

  std::map<int64_t, std::string> ScanAll() {
    std::map<int64_t, std::string> found;
    Transaction* txn = db_->Begin();
    std::unique_ptr<Scan> scan;
    EXPECT_TRUE(db_->OpenScan(txn, "t", AccessPathId::StorageMethod(),
                              ScanSpec{}, &scan)
                    .ok());
    ScanItem item;
    while (scan->Next(&item).ok()) {
      found[item.view.GetInt(0)] = item.view.GetStringSlice(1).ToString();
    }
    scan.reset();
    EXPECT_TRUE(db_->Commit(txn).ok());  // read-only commit: no log force
    return found;
  }

  /// The full cycle: fault during commit -> degraded (reads OK, writes
  /// Busy) -> burst drains -> background recovery -> writes succeed. The
  /// Database is never reopened.
  void RunDegradeRecoverCycle(bool sync_faults) {
    ASSERT_TRUE(InsertRow(1, "before").ok());

    // Recovery probes drain the burst 4 calls per attempt (the retry
    // budget); size it to need several probe rounds.
    if (sync_faults) {
      env_.SetTransientSyncFaults(24);
    } else {
      env_.SetTransientWriteFaults(24);
    }

    Transaction* writer = db_->Begin();
    ASSERT_TRUE(
        db_->Insert(writer, "t", {Value::Int(2), Value::String("lost")})
            .ok());
    Status cs = db_->Commit(writer);
    ASSERT_FALSE(cs.ok());
    EXPECT_TRUE(cs.IsIOError()) << cs.ToString();
    EXPECT_FALSE(cs.IsCorruption()) << cs.ToString();
    EXPECT_TRUE(db_->degraded());
    // The failed commit aborted the in-flight writer cleanly (its commit
    // record was rewound, so the rollback chain never crosses it).

    // Reads keep serving while degraded...
    EXPECT_EQ(ScanAll(), (std::map<int64_t, std::string>{{1, "before"}}));
    // ...new writers are refused with a descriptive Busy, not corruption.
    Transaction* refused = db_->Begin();
    Status busy =
        db_->Insert(refused, "t", {Value::Int(3), Value::String("nope")});
    EXPECT_TRUE(busy.IsBusy()) << busy.ToString();
    EXPECT_NE(busy.ToString().find("degraded"), std::string::npos)
        << busy.ToString();
    EXPECT_TRUE(db_->Commit(refused).ok());  // wrote nothing: trivial
    // DDL is refused too.
    Transaction* ddl = db_->Begin();
    EXPECT_TRUE(db_->CreateRelation(ddl, "t2", KvSchema(), "heap", {})
                    .IsBusy());
    EXPECT_TRUE(db_->Commit(ddl).ok());

    // The burst auto-clears under the recovery thread's probes.
    ASSERT_TRUE(db_->error_handler()->WaitUntilHealthy(
        std::chrono::milliseconds(10000)));
    EXPECT_FALSE(db_->degraded());
    EXPECT_EQ(env_.transient_faults_remaining(), 0);

    // Full service is back — same Database object.
    Status ws = InsertRow(4, "after");
    EXPECT_TRUE(ws.ok()) << ws.ToString();
    EXPECT_EQ(ScanAll(), (std::map<int64_t, std::string>{{1, "before"},
                                                         {4, "after"}}));
    Status cp = db_->Checkpoint();
    EXPECT_TRUE(cp.ok()) << cp.ToString();
  }

  TempDir dir_;
  FaultInjectionEnv env_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
};

TEST_F(FaultInjectionDegradedTest, TransientSyncBurstDuringCommit) {
  Counter* entries =
      MetricsRegistry::Global()->GetCounter("db.degraded_entries");
  Counter* successes =
      MetricsRegistry::Global()->GetCounter("recovery.successes");
  const uint64_t entries_before = entries->value();
  const uint64_t successes_before = successes->value();
  RunDegradeRecoverCycle(/*sync_faults=*/true);
  EXPECT_EQ(entries->value(), entries_before + 1);
  EXPECT_GE(successes->value(), successes_before + 1);
  EXPECT_EQ(MetricsRegistry::Global()->GetCounter("db.degraded")->value(),
            0u);
}

TEST_F(FaultInjectionDegradedTest, TransientWriteBurstDuringCommit) {
  RunDegradeRecoverCycle(/*sync_faults=*/false);
}

TEST_F(FaultInjectionDegradedTest, TransientBurstDuringCheckpoint) {
  ASSERT_TRUE(InsertRow(1, "row").ok());
  env_.SetTransientSyncFaults(30);
  Status cp = db_->Checkpoint();
  ASSERT_FALSE(cp.ok());
  EXPECT_TRUE(cp.IsIOError()) << cp.ToString();
  EXPECT_TRUE(db_->degraded());

  // While degraded, a second checkpoint is refused outright instead of
  // re-driving the failing write path.
  EXPECT_TRUE(db_->Checkpoint().IsBusy());
  EXPECT_EQ(ScanAll(), (std::map<int64_t, std::string>{{1, "row"}}));

  ASSERT_TRUE(db_->error_handler()->WaitUntilHealthy(
      std::chrono::milliseconds(10000)));
  EXPECT_TRUE(InsertRow(2, "more").ok());
  Status again = db_->Checkpoint();
  EXPECT_TRUE(again.ok()) << again.ToString();
}

TEST_F(FaultInjectionDegradedTest, ShortBurstAbsorbedByRetry) {
  // A burst within the retry budget is invisible to callers: the commit
  // succeeds, nothing degrades, and only the io.retries metric shows it.
  Counter* retries = MetricsRegistry::Global()->GetCounter("io.retries");
  const uint64_t retries_before = retries->value();
  env_.SetTransientSyncFaults(2);
  EXPECT_TRUE(InsertRow(7, "kept").ok());
  EXPECT_FALSE(db_->degraded());
  EXPECT_EQ(env_.transient_faults_remaining(), 0);
  EXPECT_GE(retries->value(), retries_before + 2);
  EXPECT_EQ(ScanAll(), (std::map<int64_t, std::string>{{7, "kept"}}));
}

TEST_F(FaultInjectionDegradedTest, FailedSqlAutocommitReleasesLocks) {
  // A commit that fails on the WAL leaves the transaction active; the SQL
  // session must abort it so its locks don't block degraded-mode readers
  // (regression: the autocommit wrapper used to leak the txn on commit
  // failure, turning degraded mode into lock-timeout storms).
  Session session(db_.get());
  QueryResult res;
  ASSERT_TRUE(
      session.Execute("INSERT INTO t VALUES (1, 'healthy')", &res).ok());
  env_.SetTransientSyncFaults(24);
  Status cs = session.Execute("INSERT INTO t VALUES (2, 'doomed')", &res);
  ASSERT_FALSE(cs.ok());
  EXPECT_TRUE(cs.IsIOError()) << cs.ToString();
  EXPECT_TRUE(db_->degraded());

  // Reads from a fresh session must not block on the failed writer's locks.
  Session reader(db_.get());
  Status rs = reader.Execute("SELECT COUNT(*) FROM t", &res);
  EXPECT_TRUE(rs.ok()) << rs.ToString();

  // Same for an explicit COMMIT that fails: the txn is aborted, not leaked.
  ASSERT_TRUE(db_->error_handler()->WaitUntilHealthy(
      std::chrono::milliseconds(10000)));
  env_.SetTransientSyncFaults(24);
  Session explicit_writer(db_.get());
  ASSERT_TRUE(explicit_writer.Execute("BEGIN", &res).ok());
  ASSERT_TRUE(
      explicit_writer.Execute("INSERT INTO t VALUES (3, 'doomed')", &res)
          .ok());
  Status ecs = explicit_writer.Execute("COMMIT", &res);
  ASSERT_FALSE(ecs.ok());
  rs = reader.Execute("SELECT COUNT(*) FROM t", &res);
  EXPECT_TRUE(rs.ok()) << rs.ToString();

  ASSERT_TRUE(db_->error_handler()->WaitUntilHealthy(
      std::chrono::milliseconds(10000)));
  ASSERT_TRUE(
      session.Execute("INSERT INTO t VALUES (4, 'after')", &res).ok());
  ASSERT_TRUE(reader.Execute("SELECT COUNT(*) FROM t", &res).ok());
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0][0].int_value(), 2);
}

TEST_F(FaultInjectionDegradedTest, RecoveryListenerSeesAttempts) {
  std::atomic<int> failures{0};
  std::atomic<int> successes{0};
  db_->error_handler()->SetRecoveryListener(
      [&](bool success, uint64_t attempt) {
        (success ? successes : failures).fetch_add(1);
        EXPECT_GE(attempt, 1u);
      });
  ASSERT_TRUE(InsertRow(1, "x").ok());
  env_.SetTransientSyncFaults(24);
  Transaction* writer = db_->Begin();
  ASSERT_TRUE(
      db_->Insert(writer, "t", {Value::Int(2), Value::String("y")}).ok());
  ASSERT_FALSE(db_->Commit(writer).ok());  // and aborts the writer
  ASSERT_TRUE(db_->error_handler()->WaitUntilHealthy(
      std::chrono::milliseconds(10000)));
  EXPECT_EQ(successes.load(), 1);
  EXPECT_GE(failures.load(), 1);  // the burst forced at least one re-probe
}

}  // namespace
}  // namespace dmx
