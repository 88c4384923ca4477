// Robustness tests: fuzzed inputs must fail cleanly (never crash or
// corrupt), heap record moves must keep access paths consistent, and
// concurrent transfers must preserve invariants under strict 2PL.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <thread>

#include "src/core/database.h"
#include "src/query/sql.h"
#include "src/sm/key_codec.h"
#include "src/storage/page_file.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

// -- fuzzing ---------------------------------------------------------------------

class SqlFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SqlFuzz, RandomStatementsNeverCrash) {
  TempDir dir("sqlfuzz");
  DatabaseOptions options;
  options.dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Session session(db.get());
  QueryResult r;
  ASSERT_TRUE(
      session.Execute("CREATE TABLE t (x INT, y STRING)", &r).ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1, 'a')", &r).ok());

  const char* vocab[] = {"SELECT", "FROM",  "WHERE",  "t",      "x",
                         "y",      "*",     ",",      "(",      ")",
                         "=",      "<",     "'str",   "'q'",    "1",
                         "3.5",    "AND",   "OR",     "NOT",    "INSERT",
                         "INTO",   "VALUES", "UPDATE", "SET",    "DELETE",
                         "CREATE", "TABLE", "INDEX",  "ON",     "LIKE",
                         "NULL",   "IS",    "ORDER",  "BY",     "LIMIT",
                         "BETWEEN", "IN",   "?",      ";",      "USING",
                         "ALTER",  "ADD",   "CHECK",  "DROP",   "%",
                         "missing_table", "zz"};
  std::mt19937 rng(GetParam());
  for (int round = 0; round < 400; ++round) {
    std::string sql;
    int words = 1 + static_cast<int>(rng() % 12);
    for (int w = 0; w < words; ++w) {
      sql += vocab[rng() % (sizeof(vocab) / sizeof(vocab[0]))];
      sql += " ";
    }
    QueryResult result;
    session.Execute(sql, &result).ok();  // any status is fine; no crash
  }
  // The database is still intact afterwards.
  ASSERT_TRUE(session.Execute("SELECT COUNT(*) FROM t", &r).ok());
  EXPECT_GE(r.rows[0][0].int_value(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzz, ::testing::Values(41u, 42u, 43u));

TEST(DecodeFuzz, RandomBytesNeverCrashDecoders) {
  std::mt19937 rng(99);
  Schema schema({{"a", TypeId::kInt64, true}, {"b", TypeId::kString, true}});
  for (int round = 0; round < 2000; ++round) {
    std::string bytes(rng() % 64, '\0');
    for (char& c : bytes) c = static_cast<char>(rng());
    // Record validation.
    RecordView view{Slice(bytes), &schema};
    view.Validate().ok();
    // Expression decoding.
    Slice ein(bytes);
    ExprPtr e;
    Expr::DecodeFrom(&ein, &e).ok();
    // Descriptor decoding.
    Slice din(bytes);
    RelationDescriptor desc;
    RelationDescriptor::DecodeFrom(&din, &desc).ok();
    // Log record decoding.
    Slice lin(bytes);
    LogRecord rec;
    LogRecord::DecodeFrom(&lin, &rec).ok();
    // Key decoding.
    std::vector<Value> values;
    DecodeFieldKey(Slice(bytes), {TypeId::kInt64, TypeId::kString}, &values)
        .ok();
  }
}

// -- heap record moves keep attachments consistent ---------------------------------

TEST(HeapMoveTest, GrowingUpdatesMoveRecordsAndIndexesFollow) {
  TempDir dir("heapmove");
  DatabaseOptions options;
  options.dir = dir.path();
  options.buffer_pool_pages = 128;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Schema schema({{"id", TypeId::kInt64, false},
                 {"blob", TypeId::kString, true}});
  Transaction* txn = db->Begin();
  ASSERT_TRUE(db->CreateRelation(txn, "t", schema, "heap", {}).ok());
  ASSERT_TRUE(db->CreateAttachment(txn, "t", "btree_index",
                                   {{"fields", "id"}})
                  .ok());
  // Fill a page with small records.
  std::vector<std::string> keys;
  for (int i = 0; i < 60; ++i) {
    std::string key;
    ASSERT_TRUE(db->Insert(txn, "t",
                           {Value::Int(i), Value::String(std::string(80, 'x'))},
                           &key)
                    .ok());
    keys.push_back(key);
  }
  ASSERT_TRUE(db->Commit(txn).ok());

  // Grow many of them far past the page's slack: each move changes the
  // record key, and the B-tree entry must follow.
  txn = db->Begin();
  std::string big(2000, 'y');
  int moved = 0;
  for (int i = 0; i < 60; i += 2) {
    std::string new_key;
    ASSERT_TRUE(db->Update(txn, "t", Slice(keys[static_cast<size_t>(i)]),
                           {Value::Int(i), Value::String(big)}, &new_key)
                    .ok());
    if (new_key != keys[static_cast<size_t>(i)]) ++moved;
    keys[static_cast<size_t>(i)] = new_key;
  }
  ASSERT_TRUE(db->Commit(txn).ok());
  EXPECT_GT(moved, 0);  // growth forced at least some moves

  // Every id findable through the index, mapped to a live record.
  txn = db->Begin();
  int bt = db->registry()->FindAttachmentType("btree_index");
  for (int i = 0; i < 60; ++i) {
    std::string probe;
    ASSERT_TRUE(EncodeValueKey({Value::Int(i)}, &probe).ok());
    std::vector<std::string> found;
    ASSERT_TRUE(db->Lookup(txn, "t",
                           AccessPathId::Attachment(static_cast<AtId>(bt), 1),
                           Slice(probe), &found)
                    .ok());
    ASSERT_EQ(found.size(), 1u) << i;
    Record rec;
    ASSERT_TRUE(db->Fetch(txn, "t", Slice(found[0]), &rec).ok()) << i;
    EXPECT_EQ(rec.View(&schema).GetInt(0), i);
  }
  ASSERT_TRUE(db->Commit(txn).ok());
}

// -- concurrent transfers preserve the total --------------------------------------

TEST(BankTest, ConcurrentTransfersPreserveTotal) {
  TempDir dir("bank");
  DatabaseOptions options;
  options.dir = dir.path();
  options.buffer_pool_pages = 512;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Schema schema({{"id", TypeId::kInt64, false},
                 {"balance", TypeId::kInt64, false}});
  constexpr int kAccounts = 10;
  constexpr int64_t kInitial = 1000;
  std::vector<std::string> keys(kAccounts);
  {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->CreateRelation(txn, "accounts", schema, "heap", {}).ok());
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(db->Insert(txn, "accounts",
                             {Value::Int(i), Value::Int(kInitial)},
                             &keys[static_cast<size_t>(i)])
                      .ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  db->lock_manager()->set_timeout(std::chrono::milliseconds(200));

  std::atomic<int> committed{0}, aborted{0};
  auto worker = [&](uint32_t seed) {
    std::mt19937 rng(seed);
    for (int op = 0; op < 40; ++op) {
      int from = static_cast<int>(rng() % kAccounts);
      int to = static_cast<int>(rng() % kAccounts);
      if (from == to) continue;
      int64_t amount = 1 + static_cast<int64_t>(rng() % 50);
      Transaction* txn = db->Begin();
      auto adjust = [&](int account, int64_t delta) -> Status {
        Record rec;
        Status s = db->Fetch(txn, "accounts",
                             Slice(keys[static_cast<size_t>(account)]), &rec);
        if (!s.ok()) return s;
        int64_t balance = rec.View(&schema).GetInt(1);
        return db->Update(txn, "accounts",
                          Slice(keys[static_cast<size_t>(account)]),
                          {Value::Int(account),
                           Value::Int(balance + delta)});
      };
      Status s = adjust(from, -amount);
      if (s.ok()) s = adjust(to, amount);
      // Randomly abort some otherwise-fine transfers.
      if (s.ok() && rng() % 5 == 0) s = Status::Aborted("chaos");
      if (s.ok()) {
        s = db->Commit(txn);  // a failed commit has ended the txn
      } else {
        // Abort may itself hit an injected fault; the txn is dead either way.
        (void)db->Abort(txn);
      }
      if (s.ok()) {
        ++committed;
      } else {
        ++aborted;
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) threads.emplace_back(worker, 1000 + t);
  for (auto& th : threads) th.join();
  EXPECT_GT(committed.load(), 0);

  // Invariant: total balance unchanged, no matter the interleaving.
  Transaction* check = db->Begin();
  int64_t total = 0;
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db->OpenScan(check, "accounts", AccessPathId::StorageMethod(),
                           ScanSpec{}, &scan)
                  .ok());
  ScanItem item;
  while (scan->Next(&item).ok()) total += item.view.GetInt(1);
  scan.reset();
  ASSERT_TRUE(db->Commit(check).ok());
  EXPECT_EQ(total, kAccounts * kInitial)
      << "committed=" << committed << " aborted=" << aborted;
}

// -- corruption containment --------------------------------------------------

// Scribble random bytes over a random page of a B-tree index. CHECK must
// flag exactly that attachment (never the base storage), queries must keep
// answering through the base relation, and REPAIR must rebuild the index to
// a CHECK-clean state with every committed row intact.
TEST(CorruptionContainmentTest, ScribbledIndexPageIsQuarantinedAndRepaired) {
  TempDir dir("scribble");
  DatabaseOptions options;
  options.dir = dir.path();
  const std::string pages = options.dir + "/db.pages";
  constexpr int kRows = 5000;

  // Phase 1: base relation with committed rows, checkpointed to disk.
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    Session session(db.get());
    QueryResult r;
    ASSERT_TRUE(
        session.Execute("CREATE TABLE t (k INT NOT NULL, v STRING)", &r).ok());
    for (int batch = 0; batch < kRows / 100; ++batch) {
      std::string values;
      for (int i = 0; i < 100; ++i) {
        int k = batch * 100 + i;
        if (i) values += ", ";
        values += "(" + std::to_string(k) + ", 'v" + std::to_string(k) + "')";
      }
      ASSERT_TRUE(session.Execute("INSERT INTO t VALUES " + values, &r).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  uint64_t size = 0;
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t base_pages = size / kDiskPageSize;

  // Phase 2: build the index. Its pages are allocated past the base ones,
  // so [base_pages, all_pages) brackets the tree.
  uint32_t index_no = 0;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->CreateAttachment(txn, "t", "btree_index",
                                     {{"fields", "k"}}, &index_no)
                    .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t all_pages = size / kDiskPageSize;
  ASSERT_GT(all_pages, base_pages);

  // Fuzz step: overwrite the payload of one random index page — any page of
  // the tree, the root included, must be caught.
  std::mt19937 rng(20260805u);
  const uint64_t target = base_pages + rng() % (all_pages - base_pages);
  FILE* f = fopen(pages.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, static_cast<long>(target * kDiskPageSize), SEEK_SET), 0);
  for (size_t i = 0; i < kPageSize; ++i) {
    fputc(static_cast<int>(rng() & 0xff), f);
  }
  fclose(f);

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  const std::string component = "btree_index#" + std::to_string(index_no);

  // CHECK flags exactly the damaged attachment and quarantines it.
  {
    Transaction* txn = db->Begin();
    CheckResult check;
    ASSERT_TRUE(db->CheckRelation(txn, "t", &check).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    EXPECT_FALSE(check.clean);
    ASSERT_EQ(check.quarantined.size(), 1u);
    EXPECT_EQ(check.quarantined[0], component);
    ASSERT_FALSE(check.findings.empty());
    for (const CheckFinding& finding : check.findings) {
      EXPECT_EQ(finding.component, component) << finding.detail;
    }
  }

  // Queries still answer through the base relation; EXPLAIN says why the
  // index was passed over.
  {
    Session session(db.get());
    QueryResult r;
    ASSERT_TRUE(
        session.Execute("EXPLAIN SELECT * FROM t WHERE k = 7", &r).ok());
    EXPECT_EQ(r.rows[0][0].string_value(), "storage-method scan");
    bool surfaced = false;
    for (const auto& row : r.rows) {
      surfaced |= row[0].string_value().rfind(
                      "quarantined (not considered): " + component, 0) == 0;
    }
    EXPECT_TRUE(surfaced);
    ASSERT_TRUE(session.Execute("SELECT COUNT(*) FROM t", &r).ok());
    EXPECT_EQ(r.rows[0][0].int_value(), kRows);
  }

  // REPAIR rebuilds from the base relation; CHECK comes back clean and the
  // planner trusts the index again.
  {
    Session session(db.get());
    QueryResult r;
    ASSERT_TRUE(session.Execute("REPAIR t", &r).ok());
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].string_value(), component);
    EXPECT_EQ(r.rows[0][1].string_value(), "repaired");
    ASSERT_TRUE(session.Execute("CHECK t", &r).ok());
    EXPECT_NE(r.message.find("clean"), std::string::npos) << r.message;
    ASSERT_TRUE(
        session.Execute("EXPLAIN SELECT * FROM t WHERE k = 7", &r).ok());
    EXPECT_EQ(r.rows[0][0].string_value(), component);
    ASSERT_TRUE(session.Execute("SELECT v FROM t WHERE k = 123", &r).ok());
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].string_value(), "v123");
  }
}

// A quarantined UNIQUE index guards a data invariant: skipping its
// maintenance would let duplicates in, so writes are refused (reads keep
// working) until REPAIR restores it.
TEST(CorruptionContainmentTest, QuarantinedIntegrityGuardRefusesWrites) {
  TempDir dir("guard");
  DatabaseOptions options;
  options.dir = dir.path();
  const std::string pages = options.dir + "/db.pages";
  constexpr int kRows = 500;

  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    Session session(db.get());
    QueryResult r;
    ASSERT_TRUE(
        session.Execute("CREATE TABLE t (k INT NOT NULL, v STRING)", &r).ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(session
                      .Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                   ", 'v')",
                               &r)
                      .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  uint64_t size = 0;
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t base_pages = size / kDiskPageSize;

  uint32_t index_no = 0;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->CreateAttachment(txn, "t", "btree_index",
                                     {{"fields", "k"}, {"unique", "1"}},
                                     &index_no)
                    .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t all_pages = size / kDiskPageSize;
  ASSERT_GT(all_pages, base_pages);

  std::mt19937 rng(99u);
  const uint64_t target = base_pages + rng() % (all_pages - base_pages);
  FILE* f = fopen(pages.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, static_cast<long>(target * kDiskPageSize), SEEK_SET), 0);
  for (size_t i = 0; i < kPageSize; ++i) {
    fputc(static_cast<int>(rng() & 0xff), f);
  }
  fclose(f);

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Session session(db.get());
  QueryResult r;
  ASSERT_TRUE(session.Execute("CHECK t", &r).ok());
  EXPECT_EQ(r.message.find("clean"), std::string::npos) << r.message;

  // Writes bounce with a pointer to REPAIR; reads keep answering.
  Status ws = session.Execute("INSERT INTO t VALUES (9999, 'x')", &r);
  ASSERT_FALSE(ws.ok());
  EXPECT_NE(ws.ToString().find("writes refused"), std::string::npos)
      << ws.ToString();
  ASSERT_TRUE(session.Execute("SELECT COUNT(*) FROM t", &r).ok());
  EXPECT_EQ(r.rows[0][0].int_value(), kRows);

  ASSERT_TRUE(session.Execute("REPAIR t", &r).ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (9999, 'x')", &r).ok());
  // The rebuilt unique index is live again: duplicates bounce.
  EXPECT_FALSE(session.Execute("INSERT INTO t VALUES (9999, 'x')", &r).ok());
  ASSERT_TRUE(session.Execute("SELECT COUNT(*) FROM t", &r).ok());
  EXPECT_EQ(r.rows[0][0].int_value(), kRows + 1);
}

// Quarantine must bind every entrance, not just the planner: direct
// API probes of a quarantined path are refused, and a REPAIR that rolls
// back leaves the damage record in place — in memory and on disk alike.
TEST(CorruptionContainmentTest, QuarantineRefusesProbesAndSurvivesAbort) {
  TempDir dir("qabort");
  DatabaseOptions options;
  options.dir = dir.path();
  const std::string pages = options.dir + "/db.pages";
  constexpr int kRows = 500;

  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    Session session(db.get());
    QueryResult r;
    ASSERT_TRUE(
        session.Execute("CREATE TABLE t (k INT NOT NULL, v STRING)", &r).ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(session
                      .Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                   ", 'v')",
                               &r)
                      .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  uint64_t size = 0;
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t base_pages = size / kDiskPageSize;

  uint32_t index_no = 0;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->CreateAttachment(txn, "t", "btree_index",
                                     {{"fields", "k"}}, &index_no)
                    .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  ASSERT_TRUE(Env::Default()->GetFileSize(pages, &size).ok());
  const uint64_t all_pages = size / kDiskPageSize;
  ASSERT_GT(all_pages, base_pages);

  std::mt19937 rng(4242u);
  const uint64_t target = base_pages + rng() % (all_pages - base_pages);
  FILE* f = fopen(pages.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, static_cast<long>(target * kDiskPageSize), SEEK_SET), 0);
  for (size_t i = 0; i < kPageSize; ++i) {
    fputc(static_cast<int>(rng() & 0xff), f);
  }
  fclose(f);

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  const AtId bt_at = static_cast<AtId>(
      db->registry()->FindAttachmentType("btree_index"));
  {
    Transaction* txn = db->Begin();
    CheckResult check;
    ASSERT_TRUE(db->CheckRelation(txn, "t", &check).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_EQ(check.quarantined.size(), 1u);
  }

  const AccessPathId path = AccessPathId::Attachment(bt_at, index_no);
  // Direct probes of the quarantined path bounce with Corruption instead
  // of answering from the damaged (or stale) structure.
  {
    Transaction* txn = db->Begin();
    std::vector<std::string> record_keys;
    // The gate fires before the key is ever interpreted.
    Status ls = db->Lookup(txn, "t", path, Slice("any"), &record_keys);
    EXPECT_TRUE(ls.IsCorruption()) << ls.ToString();
    std::unique_ptr<Scan> scan;
    Status ss = db->OpenScan(txn, "t", path, ScanSpec{}, &scan);
    EXPECT_TRUE(ss.IsCorruption()) << ss.ToString();
    ASSERT_TRUE(db->Commit(txn).ok());
  }

  // REPAIR rebuilds, then rolls back: the quarantine must survive the
  // abort so memory and the durable catalog agree.
  {
    Transaction* txn = db->Begin();
    RepairResult rep;
    ASSERT_TRUE(db->RepairRelation(txn, "t", &rep).ok());
    ASSERT_EQ(rep.repaired.size(), 1u);
    ASSERT_TRUE(db->Abort(txn).ok());
    const RelationDescriptor* desc;
    ASSERT_TRUE(db->FindRelation("t", &desc).ok());
    EXPECT_TRUE(desc->IsQuarantined(bt_at, index_no));
  }

  // Drop the damaged index: the stale damage record stays behind. A
  // rolled-back REPAIR must also restore this cleanup-only lift.
  {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(
        db->DropAttachment(txn, "t", "btree_index", index_no).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  {
    Transaction* txn = db->Begin();
    RepairResult rep;
    ASSERT_TRUE(db->RepairRelation(txn, "t", &rep).ok());
    ASSERT_EQ(rep.repaired.size(), 1u);
    EXPECT_NE(rep.repaired[0].find("dropped"), std::string::npos);
    ASSERT_TRUE(db->Abort(txn).ok());
    const RelationDescriptor* desc;
    ASSERT_TRUE(db->FindRelation("t", &desc).ok());
    EXPECT_TRUE(desc->IsQuarantined(bt_at, index_no));
  }
  // Committed this time, the lift sticks.
  {
    Transaction* txn = db->Begin();
    RepairResult rep;
    ASSERT_TRUE(db->RepairRelation(txn, "t", &rep).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    const RelationDescriptor* desc;
    ASSERT_TRUE(db->FindRelation("t", &desc).ok());
    EXPECT_FALSE(desc->IsQuarantined(bt_at, index_no));
  }
}

}  // namespace
}  // namespace dmx
