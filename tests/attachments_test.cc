// Edge-case tests for the attachment types: multiple instances per type,
// instance drops, update paths, NULL handling, trigger event filters, and
// DDL abort of attachment creation.

#include <gtest/gtest.h>

#include "src/attach/btree_index.h"
#include "src/attach/check_constraint.h"
#include "src/attach/rtree_index.h"
#include "src/attach/stats.h"
#include "src/attach/trigger.h"
#include "src/core/database.h"
#include "src/query/planner.h"
#include "src/sm/key_codec.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

class AttachmentsTest : public ::testing::Test {
 protected:
  AttachmentsTest() : dir_("attach") {
    DatabaseOptions options;
    options.dir = dir_.path();
    EXPECT_TRUE(Database::Open(options, &db_).ok());
    Schema schema({{"id", TypeId::kInt64, false},
                   {"name", TypeId::kString, true},
                   {"score", TypeId::kDouble, true},
                   {"xmin", TypeId::kDouble, true},
                   {"ymin", TypeId::kDouble, true},
                   {"xmax", TypeId::kDouble, true},
                   {"ymax", TypeId::kDouble, true}});
    Transaction* txn = db_->Begin();
    EXPECT_TRUE(db_->CreateRelation(txn, "t", schema, "heap", {}).ok());
    EXPECT_TRUE(db_->Commit(txn).ok());
  }

  std::string InsertRow(Transaction* txn, int64_t id, const std::string& name,
                        double score, double x = 0, double y = 0) {
    std::string key;
    Status s = db_->Insert(
        txn, "t",
        {Value::Int(id), Value::String(name), Value::Double(score),
         Value::Double(x), Value::Double(y), Value::Double(x + 1),
         Value::Double(y + 1)},
        &key);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return key;
  }

  AtId At(const char* name) {
    return static_cast<AtId>(db_->registry()->FindAttachmentType(name));
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(AttachmentsTest, MultipleIndexInstancesGetDistinctNumbers) {
  uint32_t i1 = 0, i2 = 0, i3 = 0;
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "btree_index",
                                    {{"fields", "id"}}, &i1)
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "btree_index",
                                    {{"fields", "name"}}, &i2)
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "btree_index",
                                    {{"fields", "score"}}, &i3)
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_NE(i1, i2);
  EXPECT_NE(i2, i3);
  // Insert maintains all three.
  txn = db_->Begin();
  InsertRow(txn, 1, "alpha", 5.0);
  ASSERT_TRUE(db_->Commit(txn).ok());
  txn = db_->Begin();
  for (auto [inst, value] :
       std::vector<std::pair<uint32_t, Value>>{{i1, Value::Int(1)},
                                               {i2, Value::String("alpha")},
                                               {i3, Value::Double(5.0)}}) {
    std::string probe;
    ASSERT_TRUE(EncodeValueKey({value}, &probe).ok());
    std::vector<std::string> keys;
    ASSERT_TRUE(db_->Lookup(txn, "t",
                            AccessPathId::Attachment(At("btree_index"),
                                                     inst),
                            Slice(probe), &keys)
                    .ok());
    EXPECT_EQ(keys.size(), 1u) << inst;
  }
  EXPECT_TRUE(db_->Commit(txn).ok());
}

TEST_F(AttachmentsTest, DropOneInstanceLeavesOthers) {
  uint32_t i1 = 0, i2 = 0;
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "btree_index",
                                    {{"fields", "id"}}, &i1)
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "btree_index",
                                    {{"fields", "name"}}, &i2)
                  .ok());
  InsertRow(txn, 1, "a", 1.0);
  ASSERT_TRUE(db_->Commit(txn).ok());

  txn = db_->Begin();
  ASSERT_TRUE(db_->DropAttachment(txn, "t", "btree_index", i1).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());

  txn = db_->Begin();
  std::string probe;
  ASSERT_TRUE(EncodeValueKey({Value::String("a")}, &probe).ok());
  std::vector<std::string> keys;
  // Dropped instance: gone.
  EXPECT_FALSE(db_->Lookup(txn, "t",
                           AccessPathId::Attachment(At("btree_index"), i1),
                           Slice(probe), &keys)
                   .ok());
  // Remaining instance still works and is still maintained.
  ASSERT_TRUE(db_->Lookup(txn, "t",
                          AccessPathId::Attachment(At("btree_index"), i2),
                          Slice(probe), &keys)
                  .ok());
  EXPECT_EQ(keys.size(), 1u);
  InsertRow(txn, 2, "b", 2.0);
  std::string probe_b;
  ASSERT_TRUE(EncodeValueKey({Value::String("b")}, &probe_b).ok());
  ASSERT_TRUE(db_->Lookup(txn, "t",
                          AccessPathId::Attachment(At("btree_index"), i2),
                          Slice(probe_b), &keys)
                  .ok());
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_TRUE(db_->Commit(txn).ok());
}

TEST_F(AttachmentsTest, AttachmentCreateAbortRevertsDescriptor) {
  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("t", &desc).ok());
  EXPECT_FALSE(desc->HasAttachment(At("btree_index")));
  Transaction* txn = db_->Begin();
  uint32_t inst = 0;
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "btree_index",
                                    {{"fields", "id"}}, &inst)
                  .ok());
  ASSERT_TRUE(db_->FindRelation("t", &desc).ok());
  EXPECT_TRUE(desc->HasAttachment(At("btree_index")));
  ASSERT_TRUE(db_->Abort(txn).ok());
  ASSERT_TRUE(db_->FindRelation("t", &desc).ok());
  EXPECT_FALSE(desc->HasAttachment(At("btree_index")));
  // The relation remains fully usable.
  txn = db_->Begin();
  InsertRow(txn, 1, "x", 1.0);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

// The rtree estimator matches only literal corners, so a plan it chose
// holds for those values alone: it reports the estimate value-dependent,
// and a shape-keyed plan cache re-plans such a statement per execution.
TEST_F(AttachmentsTest, RTreeCostDependsOnLiteralCorners) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "rtree_index",
                                    {{"fields", "xmin,ymin,xmax,ymax"}})
                  .ok());
  for (int i = 0; i < 300; ++i) InsertRow(txn, i, "r", 0.0, i, i);
  ASSERT_TRUE(db_->Commit(txn).ok());
  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("t", &desc).ok());
  auto rect = [](std::vector<ExprPtr> corners) {
    return Expr::Spatial(
        ExprOp::kOverlaps,
        {Expr::Field(3), Expr::Field(4), Expr::Field(5), Expr::Field(6)},
        std::move(corners));
  };
  auto plan = [&](const ExprPtr& pred, AccessPlan* out) {
    Transaction* t = db_->Begin();
    ASSERT_TRUE(PlanAccess(db_.get(), t, desc, pred, out).ok());
    ASSERT_TRUE(db_->Commit(t).ok());
  };
  AccessPlan literal, param;
  plan(rect({Expr::Const(Value::Double(10)), Expr::Const(Value::Double(10)),
             Expr::Const(Value::Double(12)), Expr::Const(Value::Double(12))}),
       &literal);
  EXPECT_EQ(literal.DebugString(db_->registry()), "rtree_index#1");
  EXPECT_TRUE(literal.value_dependent);
  plan(rect({Expr::Param(0), Expr::Param(1), Expr::Param(2), Expr::Param(3)}),
       &param);
  EXPECT_TRUE(param.path.is_storage_method());
  EXPECT_FALSE(param.value_dependent);
}

TEST_F(AttachmentsTest, RTreeTracksUpdatesAndDeletes) {
  uint32_t inst = 0;
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "rtree_index",
                                    {{"fields", "xmin,ymin,xmax,ymax"}},
                                    &inst)
                  .ok());
  std::string key = InsertRow(txn, 1, "r", 0.0, 10, 10);
  ASSERT_TRUE(db_->Commit(txn).ok());

  auto probe_at = [&](double x, double y) {
    double rect[4] = {x, y, x + 0.5, y + 0.5};
    std::string probe = EncodeRTreeProbe(ExprOp::kEncloses, rect);
    Transaction* t = db_->Begin();
    std::vector<std::string> keys;
    EXPECT_TRUE(db_->Lookup(t, "t",
                            AccessPathId::Attachment(At("rtree_index"),
                                                     inst),
                            Slice(probe), &keys)
                    .ok());
    EXPECT_TRUE(db_->Commit(t).ok());
    return keys.size();
  };
  EXPECT_EQ(probe_at(10.2, 10.2), 1u);
  // Move the rectangle: old location empty, new location found.
  txn = db_->Begin();
  std::string new_key;
  ASSERT_TRUE(db_->Update(txn, "t", Slice(key),
                          {Value::Int(1), Value::String("r"),
                           Value::Double(0.0), Value::Double(50),
                           Value::Double(50), Value::Double(51),
                           Value::Double(51)},
                          &new_key)
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(probe_at(10.2, 10.2), 0u);
  EXPECT_EQ(probe_at(50.2, 50.2), 1u);
  // Delete: gone.
  txn = db_->Begin();
  ASSERT_TRUE(db_->Delete(txn, "t", Slice(new_key)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(probe_at(50.2, 50.2), 0u);
}

TEST_F(AttachmentsTest, RTreeIgnoresNullRectangles) {
  uint32_t inst = 0;
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "rtree_index",
                                    {{"fields", "xmin,ymin,xmax,ymax"}},
                                    &inst)
                  .ok());
  std::string key;
  ASSERT_TRUE(db_->Insert(txn, "t",
                          {Value::Int(1), Value::String("no-rect"),
                           Value::Double(0.0), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null()},
                          &key)
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  double rect[4] = {-1e9, -1e9, 1e9, 1e9};
  std::string probe = EncodeRTreeProbe(ExprOp::kOverlaps, rect);
  txn = db_->Begin();
  std::vector<std::string> keys;
  ASSERT_TRUE(db_->Lookup(txn, "t",
                          AccessPathId::Attachment(At("rtree_index"), inst),
                          Slice(probe), &keys)
                  .ok());
  EXPECT_TRUE(keys.empty());
  // And deleting the NULL-rect row does not corrupt the tree.
  ASSERT_TRUE(db_->Delete(txn, "t", Slice(key)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(AttachmentsTest, UniqueIgnoresNullFields) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(
      db_->CreateAttachment(txn, "t", "unique", {{"fields", "name"}}).ok());
  // Two NULL names coexist (SQL semantics).
  ASSERT_TRUE(db_->Insert(txn, "t",
                          {Value::Int(1), Value::Null(), Value::Double(0.0),
                           Value::Null(), Value::Null(), Value::Null(),
                           Value::Null()})
                  .ok());
  ASSERT_TRUE(db_->Insert(txn, "t",
                          {Value::Int(2), Value::Null(), Value::Double(0.0),
                           Value::Null(), Value::Null(), Value::Null(),
                           Value::Null()})
                  .ok());
  // But equal non-NULL names conflict.
  InsertRow(txn, 3, "same", 1.0);
  Status s = db_->Insert(txn, "t",
                         {Value::Int(4), Value::String("same"),
                          Value::Double(0.0), Value::Null(), Value::Null(),
                          Value::Null(), Value::Null()});
  EXPECT_TRUE(s.IsConstraint());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(AttachmentsTest, UniqueAllowsReuseAfterDelete) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(
      db_->CreateAttachment(txn, "t", "unique", {{"fields", "id"}}).ok());
  std::string key = InsertRow(txn, 7, "x", 1.0);
  ASSERT_TRUE(db_->Delete(txn, "t", Slice(key)).ok());
  InsertRow(txn, 7, "again", 2.0);  // ok: the old row is gone
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(AttachmentsTest, StatsFollowUpdatesAndNulls) {
  uint32_t inst = 0;
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "stats", {{"field", "score"}},
                                    &inst)
                  .ok());
  std::string key = InsertRow(txn, 1, "a", 10.0);
  // NULL score contributes count but not sum.
  ASSERT_TRUE(db_->Insert(txn, "t",
                          {Value::Int(2), Value::String("b"), Value::Null(),
                           Value::Null(), Value::Null(), Value::Null(),
                           Value::Null()})
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  StatsSnapshot snap;
  txn = db_->Begin();
  ASSERT_TRUE(ReadStats(db_.get(), txn, "t", inst, &snap).ok());
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 10.0);
  // Update adjusts the sum by the delta.
  ASSERT_TRUE(db_->Update(txn, "t", Slice(key),
                          {Value::Int(1), Value::String("a"),
                           Value::Double(25.0), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null()})
                  .ok());
  ASSERT_TRUE(ReadStats(db_.get(), txn, "t", inst, &snap).ok());
  EXPECT_EQ(snap.sum, 25.0);
  // lookup() interface returns printable values.
  std::vector<std::string> out;
  ASSERT_TRUE(db_->Lookup(txn, "t",
                          AccessPathId::Attachment(At("stats"), inst),
                          Slice("count"), &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "2");
  EXPECT_TRUE(db_->Lookup(txn, "t",
                          AccessPathId::Attachment(At("stats"), inst),
                          Slice("bogus"), &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->Commit(txn).ok());
}

TEST_F(AttachmentsTest, TriggerEventFilter) {
  int inserts = 0, deletes = 0;
  RegisterTriggerFunction("count_ins", [&](const TriggerEvent& event) {
    if (event.op == TriggerEvent::Op::kInsert) ++inserts;
    if (event.op == TriggerEvent::Op::kDelete) ++deletes;
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(
                  txn, "t", "trigger",
                  {{"call", "count_ins"}, {"on", "insert"}})
                  .ok());
  std::string key = InsertRow(txn, 1, "a", 1.0);
  ASSERT_TRUE(db_->Delete(txn, "t", Slice(key)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(inserts, 1);
  EXPECT_EQ(deletes, 0);  // trigger registered for insert only
}

TEST_F(AttachmentsTest, TriggerUnknownFunctionRejectedAtCreate) {
  Transaction* txn = db_->Begin();
  Status s = db_->CreateAttachment(txn, "t", "trigger",
                                   {{"call", "never_registered"}});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_TRUE(db_->Commit(txn).ok());
}

TEST_F(AttachmentsTest, JoinIndexFollowsUpdates) {
  Schema other_schema({{"id", TypeId::kInt64, false},
                       {"name", TypeId::kString, true}});
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(
      db_->CreateRelation(txn, "other", other_schema, "heap", {}).ok());
  uint32_t t_inst = 0, other_inst = 0;
  ASSERT_TRUE(db_->CreateAttachment(
                  txn, "t", "join_index",
                  {{"name", "jx"}, {"side", "1"}, {"fields", "name"}},
                  &t_inst)
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(
                  txn, "other", "join_index",
                  {{"name", "jx"}, {"side", "2"}, {"fields", "name"}},
                  &other_inst)
                  .ok());
  std::string t_key = InsertRow(txn, 1, "match", 1.0);
  std::string other_key;
  ASSERT_TRUE(db_->Insert(txn, "other",
                          {Value::Int(10), Value::String("match")},
                          &other_key)
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  // The record keys each side's lookup of `name` returns from the other.
  using Keys = std::vector<std::string>;
  auto lookup = [&](const char* rel, uint32_t inst, const char* name) {
    std::string jk;
    EXPECT_TRUE(EncodeValueKey({Value::String(name)}, &jk).ok());
    Keys keys;
    Transaction* reader = db_->Begin();
    EXPECT_TRUE(db_->Lookup(reader, rel,
                            AccessPathId::Attachment(At("join_index"), inst),
                            Slice(jk), &keys)
                    .ok());
    EXPECT_TRUE(db_->Commit(reader).ok());
    return keys;
  };
  EXPECT_EQ(lookup("t", t_inst, "match"), Keys{other_key});
  EXPECT_EQ(lookup("other", other_inst, "match"), Keys{t_key});

  // Update the t side's join key away: pair dissolves.
  txn = db_->Begin();
  std::string nk;
  ASSERT_TRUE(db_->Update(txn, "t", Slice(t_key),
                          {Value::Int(1), Value::String("different"),
                           Value::Double(1.0), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null()},
                          &nk)
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(lookup("t", t_inst, "match"), Keys{other_key});
  EXPECT_TRUE(lookup("other", other_inst, "match").empty());
  EXPECT_TRUE(lookup("t", t_inst, "different").empty());
  // And back: pair reforms.
  txn = db_->Begin();
  std::string back;
  ASSERT_TRUE(db_->Update(txn, "t", Slice(nk),
                          {Value::Int(1), Value::String("match"),
                           Value::Double(1.0), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null()},
                          &back)
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(lookup("t", t_inst, "match"), Keys{other_key});
  EXPECT_EQ(lookup("other", other_inst, "match"), Keys{back});
}

TEST_F(AttachmentsTest, CheckConstraintRejectsCreateOnViolatingData) {
  Transaction* txn = db_->Begin();
  InsertRow(txn, 1, "neg", -5.0);
  ASSERT_TRUE(db_->Commit(txn).ok());
  txn = db_->Begin();
  auto pred = Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0));
  Status s = db_->CreateAttachment(
      txn, "t", "check", {{"predicate", EncodePredicateAttr(pred)}});
  EXPECT_TRUE(s.IsConstraint()) << s.ToString();
  EXPECT_TRUE(db_->Abort(txn).ok());
}

TEST_F(AttachmentsTest, BTreeIndexSkipsUpdatesWithoutIndexedFieldChanges) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "t", "btree_index",
                                    {{"fields", "name"}})
                  .ok());
  std::string key = InsertRow(txn, 1, "stable", 1.0);
  uint64_t skipped_before = BTreeIndexSkippedUpdates();
  // Update only the (unindexed) score: the attachment must detect that no
  // indexed field changed and do nothing.
  ASSERT_TRUE(db_->Update(txn, "t", Slice(key),
                          {Value::Int(1), Value::String("stable"),
                           Value::Double(99.0), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null()})
                  .ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_GT(BTreeIndexSkippedUpdates(), skipped_before);
}

}  // namespace
}  // namespace dmx
