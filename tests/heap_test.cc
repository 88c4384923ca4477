// Direct tests of the heap storage method: page chaining, RID stability,
// scan resume from a saved position, record-count maintenance, and the
// generic-operation surface as an extension sees it.

#include <gtest/gtest.h>

#include <set>

#include "src/core/database.h"
#include "src/sm/rid.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

class HeapTest : public ::testing::Test {
 protected:
  HeapTest() : dir_("heap") {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.buffer_pool_pages = 64;
    EXPECT_TRUE(Database::Open(options, &db_).ok());
    schema_ = Schema({{"id", TypeId::kInt64, false},
                      {"payload", TypeId::kString, true}});
    Transaction* txn = db_->Begin();
    EXPECT_TRUE(db_->CreateRelation(txn, "h", schema_, "heap", {}).ok());
    EXPECT_TRUE(db_->Commit(txn).ok());
    EXPECT_TRUE(db_->FindRelation("h", &desc_).ok());
  }

  // Direct storage-method context (what an attachment implementation
  // would use).
  SmContext Ctx(Transaction* txn) {
    SmContext ctx;
    EXPECT_TRUE(db_->MakeSmContext(txn, desc_, &ctx).ok());
    return ctx;
  }

  const SmOps& Ops() { return db_->registry()->sm_ops(desc_->sm_id); }

  Record Make(int64_t id, size_t payload_size) {
    Record rec;
    EXPECT_TRUE(Record::Encode(schema_,
                               {Value::Int(id),
                                Value::String(std::string(payload_size,
                                                          'p'))},
                               &rec)
                    .ok());
    return rec;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  Schema schema_;
  const RelationDescriptor* desc_ = nullptr;
};

TEST_F(HeapTest, RecordKeysAreRids) {
  Transaction* txn = db_->Begin();
  SmContext ctx = Ctx(txn);
  Record rec = Make(1, 10);
  std::string key;
  ASSERT_TRUE(Ops().insert(ctx, rec.slice(), &key).ok());
  Rid rid;
  ASSERT_TRUE(Rid::Decode(Slice(key), &rid).ok());
  EXPECT_NE(rid.page, kInvalidPageId);
  // Direct-by-key returns the exact image.
  std::string fetched;
  ASSERT_TRUE(Ops().fetch(ctx, Slice(key), &fetched).ok());
  EXPECT_EQ(fetched, rec.buffer());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(HeapTest, PagesChainAsTheRelationGrows) {
  Transaction* txn = db_->Begin();
  SmContext ctx = Ctx(txn);
  std::string first_key, last_key;
  // ~500-byte records: a few dozen per 8K page; 200 records span pages.
  for (int i = 0; i < 200; ++i) {
    Record rec = Make(i, 500);
    std::string key;
    ASSERT_TRUE(Ops().insert(ctx, rec.slice(), &key).ok());
    if (i == 0) first_key = key;
    last_key = key;
  }
  Rid first, last;
  ASSERT_TRUE(Rid::Decode(Slice(first_key), &first).ok());
  ASSERT_TRUE(Rid::Decode(Slice(last_key), &last).ok());
  EXPECT_NE(first.page, last.page);
  uint64_t n = 0;
  ASSERT_TRUE(Ops().count(ctx, &n).ok());
  EXPECT_EQ(n, 200u);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(HeapTest, RidsStableAcrossOtherDeletes) {
  Transaction* txn = db_->Begin();
  SmContext ctx = Ctx(txn);
  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    std::string key;
    Record rec = Make(i, 50);
    ASSERT_TRUE(Ops().insert(ctx, rec.slice(), &key).ok());
    keys.push_back(key);
  }
  // Delete every other record; survivors keep their RIDs and contents.
  for (int i = 0; i < 20; i += 2) {
    std::string old;
    ASSERT_TRUE(Ops().fetch(ctx, Slice(keys[static_cast<size_t>(i)]), &old)
                    .ok());
    ASSERT_TRUE(
        Ops().erase(ctx, Slice(keys[static_cast<size_t>(i)]), Slice(old))
            .ok());
  }
  for (int i = 1; i < 20; i += 2) {
    std::string record;
    ASSERT_TRUE(
        Ops().fetch(ctx, Slice(keys[static_cast<size_t>(i)]), &record).ok())
        << i;
    RecordView view{Slice(record), &schema_};
    EXPECT_EQ(view.GetInt(0), i);
  }
  uint64_t n = 0;
  ASSERT_TRUE(Ops().count(ctx, &n).ok());
  EXPECT_EQ(n, 10u);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(HeapTest, InPlaceUpdateKeepsKeyMoveChangesIt) {
  Transaction* txn = db_->Begin();
  SmContext ctx = Ctx(txn);
  Record small = Make(1, 50);
  std::string key;
  ASSERT_TRUE(Ops().insert(ctx, small.slice(), &key).ok());
  // Same-size update stays in place.
  Record same = Make(2, 50);
  std::string new_key;
  ASSERT_TRUE(
      Ops().update(ctx, Slice(key), small.slice(), same.slice(), &new_key)
          .ok());
  EXPECT_EQ(new_key, key);
  // Fill the page so a big growth cannot fit, forcing a move.
  for (int i = 0; i < 100; ++i) {
    Record filler = Make(100 + i, 300);
    std::string fkey;
    ASSERT_TRUE(Ops().insert(ctx, filler.slice(), &fkey).ok());
  }
  Record big = Make(2, 3000);
  std::string moved_key;
  ASSERT_TRUE(
      Ops().update(ctx, Slice(key), same.slice(), big.slice(), &moved_key)
          .ok());
  EXPECT_NE(moved_key, key);
  // Old key no longer resolves; new one does.
  std::string out;
  EXPECT_TRUE(Ops().fetch(ctx, Slice(key), &out).IsNotFound());
  ASSERT_TRUE(Ops().fetch(ctx, Slice(moved_key), &out).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(HeapTest, ScanResumesFromSavedPosition) {
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db_->Insert(txn, "h",
                            {Value::Int(i), Value::String("x")})
                    .ok());
  }
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db_->OpenScanOn(txn, desc_, AccessPathId::StorageMethod(),
                              ScanSpec{}, &scan)
                  .ok());
  ScanItem item;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(scan->Next(&item).ok());
  std::string pos;
  ASSERT_TRUE(scan->SavePosition(&pos).ok());
  // A second scan restored to that position continues at record 10.
  std::unique_ptr<Scan> resumed;
  ASSERT_TRUE(db_->OpenScanOn(txn, desc_, AccessPathId::StorageMethod(),
                              ScanSpec{}, &resumed)
                  .ok());
  ASSERT_TRUE(resumed->RestorePosition(Slice(pos)).ok());
  ASSERT_TRUE(resumed->Next(&item).ok());
  EXPECT_EQ(item.view.GetInt(0), 10);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(HeapTest, OversizeRecordRejectedCleanly) {
  Transaction* txn = db_->Begin();
  Status s = db_->Insert(
      txn, "h", {Value::Int(1), Value::String(std::string(6000, 'x'))});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The relation stays usable.
  EXPECT_TRUE(
      db_->Insert(txn, "h", {Value::Int(2), Value::String("ok")}).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(HeapTest, CostReflectsSize) {
  Transaction* txn = db_->Begin();
  SmContext ctx = Ctx(txn);
  AccessCost empty_cost;
  ASSERT_TRUE(Ops().cost(ctx, {}, &empty_cost).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db_->Insert(txn, "h",
                            {Value::Int(i),
                             Value::String(std::string(200, 'x'))})
                    .ok());
  }
  AccessCost grown_cost;
  ASSERT_TRUE(Ops().cost(ctx, {}, &grown_cost).ok());
  EXPECT_GT(grown_cost.total(), empty_cost.total());
  EXPECT_TRUE(grown_cost.usable);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

// Pages in the chain, as the heap's cost estimate reports them.
double HeapPages(Database* db, Transaction* txn,
                 const RelationDescriptor* desc) {
  AccessCost cost;
  EXPECT_TRUE(db->EstimateCost(txn, desc, AccessPathId::StorageMethod(), {},
                               &cost)
                  .ok());
  return cost.io_cost;
}

// Space that committed deletes freed is filled before the chain grows, so
// steady insert/delete churn keeps the heap's size.
TEST_F(HeapTest, CommittedDeletesLeaveSpaceForLaterInserts) {
  std::vector<std::string> keys;
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 2000; ++i) {
    std::string key;
    ASSERT_TRUE(db_->Insert(txn, "h",
                            {Value::Int(i),
                             Value::String(std::string(60, 'x'))},
                            &key)
                    .ok());
    keys.push_back(std::move(key));
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  txn = db_->Begin();
  const double full = HeapPages(db_.get(), txn, desc_);
  ASSERT_TRUE(db_->Commit(txn).ok());
  ASSERT_GT(full, 10);

  for (int round = 0; round < 5; ++round) {
    txn = db_->Begin();
    for (size_t i = round % 2; i < keys.size(); i += 2) {
      ASSERT_TRUE(db_->Delete(txn, "h", Slice(keys[i])).ok());
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
    txn = db_->Begin();
    for (size_t i = round % 2; i < keys.size(); i += 2) {
      ASSERT_TRUE(db_->Insert(txn, "h",
                              {Value::Int(static_cast<int64_t>(i)),
                               Value::String(std::string(60, 'y'))},
                              &keys[i])
                      .ok());
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  txn = db_->Begin();
  EXPECT_LE(HeapPages(db_.get(), txn, desc_), full + 1);
  uint64_t n = 0;
  ASSERT_TRUE(db_->CountRecords(txn, desc_, &n).ok());
  EXPECT_EQ(n, 2000u);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

// Space that an active transaction's delete freed stays its own: another
// transaction's inserts go elsewhere, and the delete's undo finds its
// space and slot.
TEST_F(HeapTest, ActiveDeleteKeepsItsSpace) {
  std::vector<std::string> keys;
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 1000; ++i) {
    std::string key;
    ASSERT_TRUE(db_->Insert(txn, "h",
                            {Value::Int(i),
                             Value::String(std::string(60, 'x'))},
                            &key)
                    .ok());
    keys.push_back(std::move(key));
  }
  ASSERT_TRUE(db_->Commit(txn).ok());

  // The deleter frees every other record, on the tail page too, where
  // inserts go first: there they may append, but neither take a freed
  // slot nor compact away the freed space.
  Rid tail;
  ASSERT_TRUE(Rid::Decode(Slice(keys.back()), &tail).ok());
  Transaction* deleter = db_->Begin();
  std::set<PageId> freed;  // pages other than the tail
  std::vector<size_t> deleted;
  std::set<std::string> deleted_keys;
  for (size_t i = 0; i < keys.size(); i += 2) {
    Rid rid;
    ASSERT_TRUE(Rid::Decode(Slice(keys[i]), &rid).ok());
    ASSERT_TRUE(db_->Delete(deleter, "h", Slice(keys[i])).ok());
    if (rid.page != tail.page) freed.insert(rid.page);
    deleted.push_back(i);
    deleted_keys.insert(keys[i]);
  }
  ASSERT_GT(freed.size(), 3u);
  Transaction* inserter = db_->Begin();
  for (int i = 0; i < 600; ++i) {
    std::string key;
    ASSERT_TRUE(db_->Insert(inserter, "h",
                            {Value::Int(5000 + i),
                             Value::String(std::string(60, 'y'))},
                            &key)
                    .ok());
    EXPECT_FALSE(deleted_keys.contains(key))
        << "insert took the slot of an active delete";
    Rid rid;
    ASSERT_TRUE(Rid::Decode(Slice(key), &rid).ok());
    EXPECT_FALSE(freed.contains(rid.page))
        << "insert took page " << rid.page << " from an active delete";
  }
  ASSERT_TRUE(db_->Commit(inserter).ok());
  ASSERT_TRUE(db_->Abort(deleter).ok());

  txn = db_->Begin();
  uint64_t n = 0;
  ASSERT_TRUE(db_->CountRecords(txn, desc_, &n).ok());
  EXPECT_EQ(n, 1600u);
  for (size_t i : deleted) {
    Record rec;
    ASSERT_TRUE(db_->Fetch(txn, "h", Slice(keys[i]), &rec).ok()) << i;
    EXPECT_EQ(rec.View(&schema_).GetInt(0), static_cast<int64_t>(i));
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
}

}  // namespace
}  // namespace dmx
