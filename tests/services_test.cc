// Unit tests for smaller common services: scan manager bookkeeping, the
// evaluator's accessor consistency (zero-copy RecordView vs materialized
// value rows), SlottedPage::InsertAt, and log truncation edge cases.

#include <gtest/gtest.h>

#include <random>

#include "src/core/database.h"
#include "src/storage/slotted_page.h"
#include "src/wal/log_manager.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::ScanAll;
using testing::TempDir;

// -- evaluator consistency property ------------------------------------------

// Random expression trees over a fixed schema must evaluate identically
// through the packed-record accessor and the value-row accessor.
class EvaluatorConsistency : public ::testing::TestWithParam<uint32_t> {};

ExprPtr RandomExpr(std::mt19937* rng, int depth) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  if (depth <= 0 || pick(3) == 0) {
    switch (pick(4)) {
      case 0: return Expr::Field(pick(4));
      case 1: return Expr::Const(Value::Int(pick(20) - 10));
      case 2: return Expr::Const(Value::Double(pick(100) / 7.0));
      default: return Expr::Const(Value::Null());
    }
  }
  switch (pick(6)) {
    case 0:
      return Expr::Binary(ExprOp::kAdd, RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
    case 1:
      return Expr::Binary(ExprOp::kMul, RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
    case 2:
      return Expr::Binary(ExprOp::kLe, RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
    case 3:
      return Expr::And(
          Expr::Binary(ExprOp::kLt, RandomExpr(rng, depth - 1),
                       RandomExpr(rng, depth - 1)),
          Expr::Binary(ExprOp::kGe, RandomExpr(rng, depth - 1),
                       RandomExpr(rng, depth - 1)));
    case 4:
      return Expr::Unary(ExprOp::kIsNull, RandomExpr(rng, depth - 1));
    default:
      return Expr::Unary(
          ExprOp::kNot,
          Expr::Binary(ExprOp::kEq, RandomExpr(rng, depth - 1),
                       RandomExpr(rng, depth - 1)));
  }
}

TEST_P(EvaluatorConsistency, RecordViewMatchesValueRow) {
  Schema schema({{"a", TypeId::kInt64, true},
                 {"b", TypeId::kInt64, true},
                 {"c", TypeId::kDouble, true},
                 {"d", TypeId::kDouble, true}});
  std::mt19937 rng(GetParam());
  ExprEvaluator eval;
  for (int round = 0; round < 200; ++round) {
    std::vector<Value> row = {
        rng() % 5 == 0 ? Value::Null()
                       : Value::Int(static_cast<int64_t>(rng() % 40) - 20),
        Value::Int(static_cast<int64_t>(rng() % 40) - 20),
        rng() % 5 == 0 ? Value::Null()
                       : Value::Double((rng() % 100) / 9.0),
        Value::Double((rng() % 100) / 9.0)};
    Record rec;
    ASSERT_TRUE(Record::Encode(schema, row, &rec).ok());
    RecordView view = rec.View(&schema);
    ExprPtr e = RandomExpr(&rng, 3);
    Value via_record, via_values;
    Status s1 = eval.Eval(*e, view, &via_record);
    Status s2 = eval.Eval(*e, row, &via_values);
    ASSERT_EQ(s1.ok(), s2.ok()) << e->ToString();
    if (s1.ok()) {
      EXPECT_EQ(via_record.Compare(via_values), 0)
          << e->ToString() << " -> " << via_record.ToString() << " vs "
          << via_values.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorConsistency,
                         ::testing::Values(5u, 6u, 7u, 8u));

// -- scan manager --------------------------------------------------------------

TEST(ScanManagerTest, CountsAndClosesPerTransaction) {
  TempDir dir("scanmgr");
  DatabaseOptions options;
  options.dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Schema schema({{"x", TypeId::kInt64, false}});
  Transaction* setup = db->Begin();
  ASSERT_TRUE(db->CreateRelation(setup, "t", schema, "heap", {}).ok());
  ASSERT_TRUE(db->Insert(setup, "t", {Value::Int(1)}).ok());
  ASSERT_TRUE(db->Commit(setup).ok());

  Transaction* a = db->Begin();
  Transaction* b = db->Begin();
  std::unique_ptr<Scan> s1, s2, s3;
  ASSERT_TRUE(
      db->OpenScan(a, "t", AccessPathId::StorageMethod(), ScanSpec{}, &s1)
          .ok());
  ASSERT_TRUE(
      db->OpenScan(a, "t", AccessPathId::StorageMethod(), ScanSpec{}, &s2)
          .ok());
  ASSERT_TRUE(
      db->OpenScan(b, "t", AccessPathId::StorageMethod(), ScanSpec{}, &s3)
          .ok());
  EXPECT_EQ(db->scan_manager()->OpenScanCount(a->id()), 2u);
  EXPECT_EQ(db->scan_manager()->OpenScanCount(b->id()), 1u);
  // Destroying a scan deregisters it.
  s2.reset();
  EXPECT_EQ(db->scan_manager()->OpenScanCount(a->id()), 1u);
  // Ending txn a closes its scan but not b's.
  ASSERT_TRUE(db->Commit(a).ok());
  ScanItem item;
  EXPECT_TRUE(s1->Next(&item).IsAborted());
  EXPECT_TRUE(s3->Next(&item).ok());
  ASSERT_TRUE(db->Commit(b).ok());
}

// A scan whose saved position cannot be re-established after a partial
// rollback must be closed (kAborted on the next access), not left serving
// rows relative to the rolled-back state.
class UnrestorableScan : public Scan {
 public:
  Status Next(ScanItem*) override {
    return Status::NotFound("end of scan");
  }
  Status SavePosition(std::string* out) const override {
    out->clear();
    return Status::OK();
  }
  Status RestorePosition(const Slice&) override {
    return Status::Internal("position lost");
  }
};

TEST(ScanManagerTest, ClosesScanWhenRestoreFailsAfterPartialRollback) {
  TempDir dir("scanmgr_restore");
  DatabaseOptions options;
  options.dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());

  Transaction* txn = db->Begin();
  ManagedScan scan(db->scan_manager(), txn,
                   std::make_unique<UnrestorableScan>());
  ASSERT_TRUE(db->Savepoint(txn, "sp").ok());
  EXPECT_FALSE(scan.closed());
  ASSERT_TRUE(db->RollbackToSavepoint(txn, "sp").ok());
  EXPECT_TRUE(scan.closed());
  ScanItem item;
  EXPECT_TRUE(scan.Next(&item).IsAborted());
  ASSERT_TRUE(db->Commit(txn).ok());
}

// -- SlottedPage::InsertAt ------------------------------------------------------

TEST(SlottedPageInsertAtTest, RevivesTombstoneAndExtendsArray) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  uint16_t s0, s1;
  ASSERT_TRUE(sp.Insert(Slice("zero"), &s0).ok());
  ASSERT_TRUE(sp.Insert(Slice("one"), &s1).ok());
  ASSERT_TRUE(sp.Delete(s0).ok());
  // Revive the exact slot (recovery path).
  ASSERT_TRUE(sp.InsertAt(s0, Slice("revived")).ok());
  Slice out;
  ASSERT_TRUE(sp.Get(s0, &out).ok());
  EXPECT_EQ(out.ToString(), "revived");
  // Occupied slot rejected.
  EXPECT_TRUE(sp.InsertAt(s1, Slice("nope")).IsInvalidArgument());
  // Past-the-end slot extends the array with tombstones between.
  ASSERT_TRUE(sp.InsertAt(7, Slice("seven")).ok());
  EXPECT_EQ(sp.num_slots(), 8);
  EXPECT_FALSE(sp.IsLive(5));
  ASSERT_TRUE(sp.Get(7, &out).ok());
  EXPECT_EQ(out.ToString(), "seven");
}

// -- log truncation edge cases ---------------------------------------------------

TEST(LogTruncateTest, RefusesWithUnflushedBufferAndPersistsBase) {
  TempDir dir("logtrunc");
  std::string path = dir.path() + "/wal";
  Lsn resumed_next;
  {
    LogManager log;
    ASSERT_TRUE(log.Open(path, true).ok());
    LogRecord rec = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "x");
    ASSERT_TRUE(log.Append(&rec).ok());
    EXPECT_TRUE(log.Truncate().IsBusy());  // buffered bytes pending
    ASSERT_TRUE(log.FlushAll().ok());
    ASSERT_TRUE(log.Truncate().ok());
    // Records are gone; LSNs continue from where they were.
    std::vector<LogRecord> all;
    ASSERT_TRUE(ScanAll(&log, &all).ok());
    EXPECT_TRUE(all.empty());
    LogRecord rec2 = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "y");
    ASSERT_TRUE(log.Append(&rec2).ok());
    EXPECT_GT(rec2.lsn, rec.lsn);
    resumed_next = log.next_lsn();
    ASSERT_TRUE(log.Close().ok());
  }
  // The base survives reopen.
  LogManager log;
  ASSERT_TRUE(log.Open(path, false).ok());
  EXPECT_EQ(log.next_lsn(), resumed_next);
  std::vector<LogRecord> all;
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].payload, "y");
}

}  // namespace
}  // namespace dmx
