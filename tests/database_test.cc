// Integration tests of the data management facility: two-step modification
// dispatch, veto + log-driven partial rollback, DDL with deferred release,
// access paths, scans, and crash recovery.

#include <algorithm>

#include <gtest/gtest.h>

#include "src/attach/check_constraint.h"
#include "src/attach/stats.h"
#include "src/attach/trigger.h"
#include "src/core/database.h"
#include "src/sm/foreign.h"
#include "src/sm/key_codec.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

Schema EmployeeSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"name", TypeId::kString, true},
                 {"salary", TypeId::kDouble, true},
                 {"dept", TypeId::kString, true}});
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : dir_("db") { Reopen(); }

  void Reopen() {
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    Status s = Database::Open(options, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // Auto-commit helper for setup steps.
  template <typename Fn>
  void MustCommit(Fn&& fn) {
    Transaction* txn = db_->Begin();
    Status s = fn(txn);
    ASSERT_TRUE(s.ok()) << s.ToString();
    s = db_->Commit(txn);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void CreateEmployee(const std::string& sm = "heap",
                      AttrList attrs = {}) {
    if (sm == "btree" && attrs.empty()) attrs.Add("key", "id");
    MustCommit([&](Transaction* txn) {
      return db_->CreateRelation(txn, "employee", EmployeeSchema(), sm,
                                 attrs);
    });
  }

  std::string InsertEmployee(Transaction* txn, int64_t id,
                             const std::string& name, double salary,
                             const std::string& dept = "eng") {
    std::string key;
    Status s = db_->Insert(txn, "employee",
                           {Value::Int(id), Value::String(name),
                            Value::Double(salary), Value::String(dept)},
                           &key);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return key;
  }

  // Scan all rows of `rel` and return their ids (column 0).
  std::vector<int64_t> ScanIds(const std::string& rel,
                               ExprPtr filter = nullptr) {
    std::vector<int64_t> ids;
    Transaction* txn = db_->Begin();
    ScanSpec spec;
    spec.filter = filter;
    std::unique_ptr<Scan> scan;
    Status s = db_->OpenScan(txn, rel, AccessPathId::StorageMethod(), spec,
                             &scan);
    EXPECT_TRUE(s.ok()) << s.ToString();
    ScanItem item;
    while (scan->Next(&item).ok()) ids.push_back(item.view.GetInt(0));
    scan.reset();
    EXPECT_TRUE(db_->Commit(txn).ok());
    return ids;
  }

  // The record keys that instance `inst` of access path `at_name` on `rel`
  // maps `value` to.
  std::vector<std::string> Probe(Transaction* txn, const std::string& rel,
                                 const std::string& at_name, uint32_t inst,
                                 const Value& value) {
    std::string probe;
    EXPECT_TRUE(EncodeValueKey({value}, &probe).ok());
    const AtId at =
        static_cast<AtId>(db_->registry()->FindAttachmentType(at_name));
    std::vector<std::string> keys;
    Status s = db_->Lookup(txn, rel, AccessPathId::Attachment(at, inst),
                           Slice(probe), &keys);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return keys;
  }

  // CHECK `rel`: every component verifies clean.
  void ExpectCheckClean(const std::string& rel) {
    Transaction* txn = db_->Begin();
    CheckResult check;
    Status s = db_->CheckRelation(txn, rel, &check);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(check.clean) << (check.findings.empty()
                                     ? ""
                                     : check.findings[0].component + ": " +
                                           check.findings[0].detail);
    EXPECT_TRUE(db_->Commit(txn).ok());
  }

  // Twenty committed employees and a committed btree_index on id; returns
  // the index's instance number.
  uint32_t SeedIndexedEmployees() {
    CreateEmployee();
    uint32_t inst = 0;
    MustCommit([&](Transaction* txn) {
      for (int i = 0; i < 20; ++i) InsertEmployee(txn, i, "e", i * 1.0);
      return db_->CreateAttachment(txn, "employee", "btree_index",
                                   {{"fields", "id"}}, &inst);
    });
    return inst;
  }

  // After SeedIndexedEmployees: a new row commits, the id index `inst`
  // finds it and an old one, and CHECK is clean.
  void ExpectIndexServesNewRows(uint32_t inst) {
    MustCommit([&](Transaction* txn) {
      InsertEmployee(txn, 20, "late", 20.0);
      return Status::OK();
    });
    Transaction* txn = db_->Begin();
    for (int64_t id : {20, 3}) {
      EXPECT_EQ(
          Probe(txn, "employee", "btree_index", inst, Value::Int(id)).size(),
          1u)
          << "id " << id;
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
    ExpectCheckClean("employee");
  }

  // The btree_index field of `rel`'s descriptor.
  std::string BtreeField(const std::string& rel) {
    const RelationDescriptor* desc;
    EXPECT_TRUE(db_->FindRelation(rel, &desc).ok());
    return desc->at_desc[static_cast<size_t>(
        db_->registry()->FindAttachmentType("btree_index"))];
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, StorageMethodIdentifiers) {
  // Heap is 0; temp is 1 — the paper's worked example.
  EXPECT_EQ(db_->registry()->FindStorageMethod("heap"), 0);
  EXPECT_EQ(db_->registry()->FindStorageMethod("temp"), 1);
  EXPECT_GE(db_->registry()->FindAttachmentType("btree_index"), 0);
  EXPECT_LT(db_->registry()->num_attachment_types(), kMaxAttachmentTypes);
}

TEST_F(DatabaseTest, InsertFetchDeleteRoundTrip) {
  CreateEmployee();
  std::string key;
  MustCommit([&](Transaction* txn) {
    key = InsertEmployee(txn, 1, "lindsay", 100.0);
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(txn, "employee", Slice(key), &rec).ok());
  Schema schema = EmployeeSchema();
  RecordView v = rec.View(&schema);
  EXPECT_EQ(v.GetInt(0), 1);
  EXPECT_EQ(v.GetStringSlice(1).ToString(), "lindsay");
  ASSERT_TRUE(db_->Delete(txn, "employee", Slice(key)).ok());
  EXPECT_TRUE(db_->Fetch(txn, "employee", Slice(key), &rec).IsNotFound());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(DatabaseTest, AbortUndoesInserts) {
  CreateEmployee();
  Transaction* txn = db_->Begin();
  InsertEmployee(txn, 1, "a", 1.0);
  InsertEmployee(txn, 2, "b", 2.0);
  ASSERT_TRUE(db_->Abort(txn).ok());
  EXPECT_TRUE(ScanIds("employee").empty());
}

TEST_F(DatabaseTest, UpdateChangesFieldsAndPossiblyKey) {
  CreateEmployee();
  std::string key;
  MustCommit([&](Transaction* txn) {
    key = InsertEmployee(txn, 7, "mcpherson", 50.0);
    return Status::OK();
  });
  MustCommit([&](Transaction* txn) {
    std::string new_key;
    DMX_RETURN_IF_ERROR(db_->Update(txn, "employee", Slice(key),
                                    {Value::Int(7), Value::String("mcpherson"),
                                     Value::Double(75.0), Value::String("db")},
                                    &new_key));
    key = new_key;
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(txn, "employee", Slice(key), &rec).ok());
  Schema schema = EmployeeSchema();
  EXPECT_EQ(rec.View(&schema).GetDouble(2), 75.0);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(DatabaseTest, ScanWithFilterPushdown) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    for (int i = 0; i < 50; ++i) {
      InsertEmployee(txn, i, "e" + std::to_string(i), i * 10.0);
    }
    return Status::OK();
  });
  auto filter = Expr::Cmp(ExprOp::kGe, 2, Value::Double(400.0));
  std::vector<int64_t> ids = ScanIds("employee", filter);
  EXPECT_EQ(ids.size(), 10u);  // salaries 400..490
  for (int64_t id : ids) EXPECT_GE(id, 40);
}

// -- Figure 1: heap + B-tree + check constraint on one relation ---------------

TEST_F(DatabaseTest, Figure1Configuration) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "btree_index", {{"fields", "id"}, {"unique", "1"}}));
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "btree_index", {{"fields", "salary"}}));
    auto pred = Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0));
    return db_->CreateAttachment(
        txn, "employee", "check",
        {{"predicate", EncodePredicateAttr(pred)}, {"name", "salary_pos"}});
  });

  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("employee", &desc).ok());
  // Descriptor header: heap storage method id 0; fields for btree_index
  // and check types are non-NULL, everything else NULL.
  EXPECT_EQ(desc->sm_id, 0);
  int bt = db_->registry()->FindAttachmentType("btree_index");
  int ck = db_->registry()->FindAttachmentType("check");
  int hash = db_->registry()->FindAttachmentType("hash_index");
  EXPECT_TRUE(desc->HasAttachment(static_cast<AtId>(bt)));
  EXPECT_TRUE(desc->HasAttachment(static_cast<AtId>(ck)));
  EXPECT_FALSE(desc->HasAttachment(static_cast<AtId>(hash)));

  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "a", 10.0);
    InsertEmployee(txn, 2, "b", 20.0);
    return Status::OK();
  });

  // Index lookup: id = 2 via B-tree instance 1.
  Transaction* txn = db_->Begin();
  std::string probe;
  ASSERT_TRUE(EncodeValueKey({Value::Int(2)}, &probe).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(db_->Lookup(txn, "employee",
                          AccessPathId::Attachment(static_cast<AtId>(bt), 1),
                          Slice(probe), &keys)
                  .ok());
  ASSERT_EQ(keys.size(), 1u);
  Record rec;
  ASSERT_TRUE(db_->Fetch(txn, "employee", Slice(keys[0]), &rec).ok());
  Schema schema = EmployeeSchema();
  EXPECT_EQ(rec.View(&schema).GetInt(0), 2);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

// -- veto + partial rollback ----------------------------------------------------

TEST_F(DatabaseTest, CheckConstraintVetoRollsBackStorageAndIndexes) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "btree_index", {{"fields", "id"}}));
    auto pred = Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0));
    return db_->CreateAttachment(txn, "employee", "check",
                                 {{"predicate", EncodePredicateAttr(pred)}});
  });
  Transaction* txn = db_->Begin();
  InsertEmployee(txn, 1, "ok", 10.0);
  // Negative salary: the check attachment vetoes AFTER the storage method
  // and the index ran; the common log must undo both.
  Status s = db_->Insert(txn, "employee",
                         {Value::Int(2), Value::String("bad"),
                          Value::Double(-5.0), Value::String("x")});
  EXPECT_TRUE(s.IsConstraint()) << s.ToString();
  // The transaction continues: the first insert is intact.
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(ScanIds("employee"), std::vector<int64_t>({1}));
  // Index has exactly one entry.
  int bt = db_->registry()->FindAttachmentType("btree_index");
  Transaction* t2 = db_->Begin();
  std::string probe;
  ASSERT_TRUE(EncodeValueKey({Value::Int(2)}, &probe).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(db_->Lookup(t2, "employee",
                          AccessPathId::Attachment(static_cast<AtId>(bt), 1),
                          Slice(probe), &keys)
                  .ok());
  EXPECT_TRUE(keys.empty());
  ASSERT_TRUE(db_->Commit(t2).ok());
  EXPECT_GE(db_->stats().vetoes, 1u);
  EXPECT_GE(db_->stats().partial_rollbacks, 1u);
}

TEST_F(DatabaseTest, CheckConstraintVetoOfUpdateRollsBackStorageAndIndexes) {
  CreateEmployee();
  uint32_t bt = 0;
  uint32_t hash = 0;
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "btree_index", {{"fields", "id"}}, &bt));
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "hash_index", {{"fields", "dept"}}, &hash));
    auto pred = Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0));
    return db_->CreateAttachment(txn, "employee", "check",
                                 {{"predicate", EncodePredicateAttr(pred)}});
  });
  std::string key;
  MustCommit([&](Transaction* txn) {
    key = InsertEmployee(txn, 1, "a", 10.0, "eng");
    return Status::OK();
  });
  const uint64_t vetoes = db_->stats().vetoes;
  const uint64_t rollbacks = db_->stats().partial_rollbacks;
  Transaction* txn = db_->Begin();
  // The new id and dept move the entry of both indexes; the negative
  // salary makes CHECK, whose type runs after both index types, veto. The
  // common log must undo the storage method's update and both moves.
  Status s = db_->Update(txn, "employee", Slice(key),
                         {Value::Int(2), Value::String("a"),
                          Value::Double(-1.0), Value::String("ops")});
  EXPECT_TRUE(s.IsConstraint()) << s.ToString();
  EXPECT_EQ(db_->stats().vetoes, vetoes + 1);
  EXPECT_EQ(db_->stats().partial_rollbacks, rollbacks + 1);
  Record rec;
  ASSERT_TRUE(db_->Fetch(txn, "employee", Slice(key), &rec).ok());
  Schema schema = EmployeeSchema();
  EXPECT_EQ(rec.View(&schema).GetInt(0), 1);
  EXPECT_EQ(rec.View(&schema).GetDouble(2), 10.0);
  EXPECT_EQ(rec.View(&schema).GetStringSlice(3).ToString(), "eng");
  const std::vector<std::string> only_key = {key};
  EXPECT_EQ(Probe(txn, "employee", "btree_index", bt, Value::Int(1)),
            only_key);
  EXPECT_TRUE(Probe(txn, "employee", "btree_index", bt, Value::Int(2)).empty());
  EXPECT_EQ(Probe(txn, "employee", "hash_index", hash, Value::String("eng")),
            only_key);
  EXPECT_TRUE(
      Probe(txn, "employee", "hash_index", hash, Value::String("ops")).empty());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(ScanIds("employee"), std::vector<int64_t>({1}));
}

TEST_F(DatabaseTest, RefintRestrictVetoOfDeleteRollsBackStorageAndIndexes) {
  Schema dept_schema({{"dept", TypeId::kString, false},
                      {"budget", TypeId::kDouble, true}});
  uint32_t bt = 0;
  uint32_t hash = 0;
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(
        db_->CreateRelation(txn, "department", dept_schema, "heap", {}));
    return db_->CreateRelation(txn, "employee", EmployeeSchema(), "heap", {});
  });
  MustCommit([&](Transaction* txn) {
    // Both index types run before refint on a department delete.
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "department", "btree_index", {{"fields", "dept"}}, &bt));
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "department", "hash_index", {{"fields", "dept"}}, &hash));
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "refint",
        {{"role", "child"}, {"other", "department"}, {"fields", "dept"},
         {"other_fields", "dept"}}));
    return db_->CreateAttachment(
        txn, "department", "refint",
        {{"role", "parent"}, {"other", "employee"}, {"fields", "dept"},
         {"other_fields", "dept"}, {"action", "restrict"}});
  });
  std::string eng_key;
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->Insert(
        txn, "department", {Value::String("eng"), Value::Double(1e6)},
        &eng_key));
    InsertEmployee(txn, 1, "a", 1.0, "eng");
    return Status::OK();
  });
  const uint64_t vetoes = db_->stats().vetoes;
  const uint64_t rollbacks = db_->stats().partial_rollbacks;
  Transaction* txn = db_->Begin();
  Status s = db_->Delete(txn, "department", Slice(eng_key));
  EXPECT_TRUE(s.IsConstraint()) << s.ToString();
  EXPECT_EQ(db_->stats().vetoes, vetoes + 1);
  EXPECT_EQ(db_->stats().partial_rollbacks, rollbacks + 1);
  // The erased record and both removed index entries are back.
  Record rec;
  ASSERT_TRUE(db_->Fetch(txn, "department", Slice(eng_key), &rec).ok());
  EXPECT_EQ(rec.View(&dept_schema).GetStringSlice(0).ToString(), "eng");
  const std::vector<std::string> only_key = {eng_key};
  EXPECT_EQ(Probe(txn, "department", "btree_index", bt, Value::String("eng")),
            only_key);
  EXPECT_EQ(Probe(txn, "department", "hash_index", hash, Value::String("eng")),
            only_key);
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(ScanIds("employee"), std::vector<int64_t>({1}));
}

// The dispatch counters that the end-to-end benchmark's per-layer budget
// reads: which Database entry points count as extension activations, and
// how many each one makes.
TEST_F(DatabaseTest, DispatchCountsPerOperation) {
  CreateEmployee();
  uint32_t bt = 0;
  uint32_t hash = 0;
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "btree_index", {{"fields", "id"}}, &bt));
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "hash_index", {{"fields", "dept"}}, &hash));
    auto pred = Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0));
    return db_->CreateAttachment(txn, "employee", "check",
                                 {{"predicate", EncodePredicateAttr(pred)}});
  });
  MetricsRegistry* metrics = MetricsRegistry::Global();
  const std::vector<std::string> names = {
      "sm.0.heap.calls", "at.0.btree_index.calls", "at.1.hash_index.calls",
      "at.3.check.calls"};
  // Counter deltas since the last call, in the order of `names`, followed
  // by the deltas of stats().sm_calls and stats().at_calls.
  std::vector<uint64_t> last;
  auto deltas = [&] {
    std::vector<uint64_t> now;
    for (const std::string& name : names) {
      now.push_back(metrics->GetCounter(name)->value());
    }
    now.push_back(db_->stats().sm_calls);
    now.push_back(db_->stats().at_calls);
    std::vector<uint64_t> diff(now.size());
    for (size_t i = 0; i < now.size(); ++i) {
      diff[i] = last.empty() ? 0 : now[i] - last[i];
    }
    last = now;
    return diff;
  };
  using Counts = std::vector<uint64_t>;
  deltas();

  Transaction* txn = db_->Begin();
  std::string key = InsertEmployee(txn, 1, "a", 10.0, "eng");
  EXPECT_EQ(deltas(), Counts({1, 1, 1, 1, 1, 3}));  // insert
  std::string moved;
  ASSERT_TRUE(db_->Update(txn, "employee", Slice(key),
                          {Value::Int(2), Value::String("a"),
                           Value::Double(20.0), Value::String("ops")},
                          &moved)
                  .ok());
  EXPECT_EQ(deltas(), Counts({2, 1, 1, 1, 2, 3}));  // fetch + update
  InsertEmployee(txn, 3, "b", 30.0, "eng");
  deltas();
  ASSERT_TRUE(db_->Delete(txn, "employee", Slice(moved)).ok());
  EXPECT_EQ(deltas(), Counts({2, 1, 1, 0, 2, 2}));  // fetch + erase
  ASSERT_TRUE(db_->Commit(txn).ok());
  deltas();

  txn = db_->Begin();
  EXPECT_EQ(Probe(txn, "employee", "hash_index", hash, Value::String("eng"))
                .size(),
            1u);
  EXPECT_EQ(deltas(), Counts({0, 0, 1, 0, 0, 1}));  // hash lookup
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db_->OpenScan(txn, "employee",
                            AccessPathId::Attachment(0, bt), ScanSpec{},
                            &scan)
                  .ok());
  ScanItem item;
  ASSERT_TRUE(scan->Next(&item).ok());
  scan.reset();
  EXPECT_EQ(deltas(), Counts({0, 1, 0, 0, 0, 1}));  // index open_scan
  CheckResult check;
  ASSERT_TRUE(db_->CheckRelation(txn, "employee", &check).ok());
  EXPECT_TRUE(check.clean);
  EXPECT_EQ(deltas(), Counts({4, 1, 1, 1, 4, 3}));  // verify sweeps
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(DatabaseTest, UniqueIndexVetoesDuplicates) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    return db_->CreateAttachment(txn, "employee", "btree_index",
                                 {{"fields", "id"}, {"unique", "1"}});
  });
  Transaction* txn = db_->Begin();
  InsertEmployee(txn, 1, "first", 1.0);
  Status s = db_->Insert(txn, "employee",
                         {Value::Int(1), Value::String("dupe"),
                          Value::Double(2.0), Value::String("x")});
  EXPECT_TRUE(s.IsConstraint());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(ScanIds("employee").size(), 1u);
}

// -- savepoints and scans -----------------------------------------------------

TEST_F(DatabaseTest, SavepointRollbackRestoresDataAndScanPosition) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    for (int i = 0; i < 10; ++i) InsertEmployee(txn, i, "e", 1.0);
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db_->OpenScan(txn, "employee", AccessPathId::StorageMethod(),
                            ScanSpec{}, &scan)
                  .ok());
  ScanItem item;
  ASSERT_TRUE(scan->Next(&item).ok());
  ASSERT_TRUE(scan->Next(&item).ok());
  int64_t second_id = item.view.GetInt(0);

  ASSERT_TRUE(db_->Savepoint(txn, "sp").ok());
  // Advance the scan past the savepoint, then insert more rows.
  ASSERT_TRUE(scan->Next(&item).ok());
  ASSERT_TRUE(scan->Next(&item).ok());
  InsertEmployee(txn, 100, "late", 5.0);
  // Partial rollback: data gone, scan position restored.
  ASSERT_TRUE(db_->RollbackToSavepoint(txn, "sp").ok());
  ASSERT_TRUE(scan->Next(&item).ok());
  EXPECT_EQ(item.view.GetInt(0), second_id + 1);
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(ScanIds("employee").size(), 10u);
}

TEST_F(DatabaseTest, ScansClosedAtTransactionEnd) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "a", 1.0);
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db_->OpenScan(txn, "employee", AccessPathId::StorageMethod(),
                            ScanSpec{}, &scan)
                  .ok());
  EXPECT_EQ(db_->scan_manager()->OpenScanCount(txn->id()), 1u);
  ASSERT_TRUE(db_->Commit(txn).ok());
  ScanItem item;
  EXPECT_TRUE(scan->Next(&item).IsAborted());
}

TEST_F(DatabaseTest, DeleteAtScanPositionLeavesScanJustAfter) {
  CreateEmployee();
  std::vector<std::string> keys;
  MustCommit([&](Transaction* txn) {
    for (int i = 0; i < 5; ++i) {
      keys.push_back(InsertEmployee(txn, i, "e", 1.0));
    }
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  std::unique_ptr<Scan> scan;
  ASSERT_TRUE(db_->OpenScan(txn, "employee", AccessPathId::StorageMethod(),
                            ScanSpec{}, &scan)
                  .ok());
  ScanItem item;
  ASSERT_TRUE(scan->Next(&item).ok());
  EXPECT_EQ(item.view.GetInt(0), 0);
  // Delete the record at the scan position; the scan must continue with
  // the item just after it.
  ASSERT_TRUE(db_->Delete(txn, "employee", Slice(item.record_key)).ok());
  ASSERT_TRUE(scan->Next(&item).ok());
  EXPECT_EQ(item.view.GetInt(0), 1);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

// -- DDL ------------------------------------------------------------------------

TEST_F(DatabaseTest, CreateRelationAbortRemovesIt) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateRelation(txn, "ephemeral", EmployeeSchema(), "heap",
                                  {})
                  .ok());
  const RelationDescriptor* desc;
  EXPECT_TRUE(db_->FindRelation("ephemeral", &desc).ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  EXPECT_FALSE(db_->FindRelation("ephemeral", &desc).ok());
}

TEST_F(DatabaseTest, DropRelationDeferredUntilCommitAndUndoableOnAbort) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "a", 1.0);
    return Status::OK();
  });
  // Abort path: drop is undone.
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->DropRelation(txn, "employee").ok());
    const RelationDescriptor* desc;
    EXPECT_FALSE(db_->FindRelation("employee", &desc).ok());
    ASSERT_TRUE(db_->Abort(txn).ok());
    EXPECT_TRUE(db_->FindRelation("employee", &desc).ok());
    EXPECT_EQ(ScanIds("employee").size(), 1u);
  }
  // Commit path: storage released.
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->DropRelation(txn, "employee").ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    const RelationDescriptor* desc;
    EXPECT_FALSE(db_->FindRelation("employee", &desc).ok());
  }
}

TEST_F(DatabaseTest, DropAttachmentInvalidatesDescriptorField) {
  CreateEmployee();
  uint32_t inst = 0;
  MustCommit([&](Transaction* txn) {
    return db_->CreateAttachment(txn, "employee", "btree_index",
                                 {{"fields", "id"}}, &inst);
  });
  int bt = db_->registry()->FindAttachmentType("btree_index");
  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("employee", &desc).ok());
  uint64_t v1 = desc->version;
  EXPECT_TRUE(desc->HasAttachment(static_cast<AtId>(bt)));
  MustCommit([&](Transaction* txn) {
    return db_->DropAttachment(txn, "employee", "btree_index", inst);
  });
  ASSERT_TRUE(db_->FindRelation("employee", &desc).ok());
  EXPECT_FALSE(desc->HasAttachment(static_cast<AtId>(bt)));
  EXPECT_GT(desc->version, v1);  // plan invalidation signal
}

// Abort undoes a transaction's attachment DDL newest first, so each step
// puts back the descriptor it replaced: two creates of one type end on the
// descriptor from before both, not on the one between them.
TEST_F(DatabaseTest, AbortOfTwoIndexCreatesRestoresTheFirstDescriptor) {
  const uint32_t kept = SeedIndexedEmployees();
  const std::string field = BtreeField("employee");
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateAttachment(txn, "employee", "btree_index",
                                    {{"fields", "salary"}})
                  .ok());
  ASSERT_TRUE(db_->CreateAttachment(txn, "employee", "btree_index",
                                    {{"fields", "name"}})
                  .ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  EXPECT_EQ(BtreeField("employee"), field);
  ExpectIndexServesNewRows(kept);
}

// A create and a drop of the same instance in one aborted transaction: the
// drop's undo brings the instance back, then the create's undo releases it
// and restores the descriptor from before the transaction.
TEST_F(DatabaseTest, AbortOfCreateAndDropOfOneInstanceUnwindsBoth) {
  const uint32_t kept = SeedIndexedEmployees();
  const std::string field = BtreeField("employee");
  Transaction* txn = db_->Begin();
  uint32_t fresh = 0;
  ASSERT_TRUE(db_->CreateAttachment(txn, "employee", "btree_index",
                                    {{"fields", "salary"}}, &fresh)
                  .ok());
  ASSERT_TRUE(
      db_->DropAttachment(txn, "employee", "btree_index", fresh).ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  EXPECT_EQ(BtreeField("employee"), field);
  ExpectIndexServesNewRows(kept);
}

// Abort undoes log records and DDL in one newest-first order: a row
// inserted before a DROP TABLE is rolled back while the relation is back
// in the catalog, so the restored relation does not keep it.
TEST_F(DatabaseTest, AbortUndoesRowsWrittenBeforeADrop) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "a", 1.0);
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  InsertEmployee(txn, 99, "aborted", 9.0);
  ASSERT_TRUE(db_->DropRelation(txn, "employee").ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  EXPECT_EQ(ScanIds("employee"), std::vector<int64_t>{1});
  ExpectCheckClean("employee");
}

// A dropped relation's runtime lives until commit releases its storage
// through it; for a memory-resident relation that state is its rows, so an
// aborted DROP TABLE keeps them.
TEST_F(DatabaseTest, AbortedDropKeepsMainMemoryRows) {
  CreateEmployee("mainmemory");
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "a", 1.0);
    InsertEmployee(txn, 2, "b", 2.0);
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->DropRelation(txn, "employee").ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  EXPECT_EQ(ScanIds("employee"), (std::vector<int64_t>{1, 2}));
}

TEST_F(DatabaseTest, IndexBulkLoadsExistingData) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    for (int i = 0; i < 20; ++i) InsertEmployee(txn, i, "e", i * 1.0);
    return Status::OK();
  });
  uint32_t inst = 0;
  MustCommit([&](Transaction* txn) {
    return db_->CreateAttachment(txn, "employee", "btree_index",
                                 {{"fields", "id"}}, &inst);
  });
  int bt = db_->registry()->FindAttachmentType("btree_index");
  Transaction* txn = db_->Begin();
  std::string probe;
  ASSERT_TRUE(EncodeValueKey({Value::Int(13)}, &probe).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(db_->Lookup(txn, "employee",
                          AccessPathId::Attachment(static_cast<AtId>(bt),
                                                   inst),
                          Slice(probe), &keys)
                  .ok());
  EXPECT_EQ(keys.size(), 1u);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

// -- triggers and cascades --------------------------------------------------------

TEST_F(DatabaseTest, TriggerFiresAndCanVeto) {
  CreateEmployee();
  int fired = 0;
  RegisterTriggerFunction("audit", [&](const TriggerEvent& event) {
    ++fired;
    if (event.op == TriggerEvent::Op::kInsert &&
        event.new_record.GetInt(0) == 666) {
      return Status::Veto("no devils");
    }
    return Status::OK();
  });
  MustCommit([&](Transaction* txn) {
    return db_->CreateAttachment(txn, "employee", "trigger",
                                 {{"call", "audit"}});
  });
  Transaction* txn = db_->Begin();
  InsertEmployee(txn, 1, "fine", 1.0);
  Status s = db_->Insert(txn, "employee",
                         {Value::Int(666), Value::String("nope"),
                          Value::Double(0.0), Value::Null()});
  EXPECT_TRUE(s.IsVeto());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ScanIds("employee").size(), 1u);
}

TEST_F(DatabaseTest, ReferentialIntegrityCascadeAndRestrict) {
  Schema dept_schema({{"dept", TypeId::kString, false},
                      {"budget", TypeId::kDouble, true}});
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(
        db_->CreateRelation(txn, "department", dept_schema, "heap", {}));
    return db_->CreateRelation(txn, "employee", EmployeeSchema(), "heap", {});
  });
  MustCommit([&](Transaction* txn) {
    // Child side on employee.dept -> department.dept.
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(
        txn, "employee", "refint",
        {{"role", "child"}, {"other", "department"}, {"fields", "dept"},
         {"other_fields", "dept"}}));
    // Parent side on department with cascade.
    return db_->CreateAttachment(
        txn, "department", "refint",
        {{"role", "parent"}, {"other", "employee"}, {"fields", "dept"},
         {"other_fields", "dept"}, {"action", "cascade"}});
  });
  std::string eng_key;
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->Insert(
        txn, "department", {Value::String("eng"), Value::Double(1e6)},
        &eng_key));
    InsertEmployee(txn, 1, "a", 1.0, "eng");
    InsertEmployee(txn, 2, "b", 2.0, "eng");
    return Status::OK();
  });
  // Orphan insert vetoed.
  {
    Transaction* txn = db_->Begin();
    Status s = db_->Insert(txn, "employee",
                           {Value::Int(3), Value::String("orphan"),
                            Value::Double(3.0), Value::String("nodept")});
    EXPECT_TRUE(s.IsConstraint()) << s.ToString();
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  // Cascade: deleting the department deletes its employees.
  MustCommit([&](Transaction* txn) {
    return db_->Delete(txn, "department", Slice(eng_key));
  });
  EXPECT_TRUE(ScanIds("employee").empty());
}

// -- stats & deferred constraints ---------------------------------------------------

TEST_F(DatabaseTest, StatsMaintainedIncrementally) {
  CreateEmployee();
  uint32_t inst = 0;
  MustCommit([&](Transaction* txn) {
    return db_->CreateAttachment(txn, "employee", "stats",
                                 {{"field", "salary"}}, &inst);
  });
  std::string key;
  MustCommit([&](Transaction* txn) {
    key = InsertEmployee(txn, 1, "a", 100.0);
    InsertEmployee(txn, 2, "b", 200.0);
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  StatsSnapshot snap;
  ASSERT_TRUE(ReadStats(db_.get(), txn, "employee", inst, &snap).ok());
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 300.0);
  // Delete adjusts.
  ASSERT_TRUE(db_->Delete(txn, "employee", Slice(key)).ok());
  ASSERT_TRUE(ReadStats(db_.get(), txn, "employee", inst, &snap).ok());
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 200.0);
  ASSERT_TRUE(db_->Commit(txn).ok());
  // Abort restores.
  Transaction* t2 = db_->Begin();
  InsertEmployee(t2, 9, "x", 1000.0);
  ASSERT_TRUE(db_->Abort(t2).ok());
  Transaction* t3 = db_->Begin();
  ASSERT_TRUE(ReadStats(db_.get(), t3, "employee", inst, &snap).ok());
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 200.0);
  ASSERT_TRUE(db_->Commit(t3).ok());
}

TEST_F(DatabaseTest, DeferredCheckEvaluatedAtCommit) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    auto pred = Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0));
    return db_->CreateAttachment(txn, "employee", "deferred_check",
                                 {{"predicate", EncodePredicateAttr(pred)}});
  });
  // Temporarily violating, fixed before commit: allowed.
  {
    Transaction* txn = db_->Begin();
    std::string key;
    ASSERT_TRUE(db_->Insert(txn, "employee",
                            {Value::Int(1), Value::String("temp-bad"),
                             Value::Double(-1.0), Value::Null()},
                            &key)
                    .ok());  // immediate ops pass; check deferred
    ASSERT_TRUE(db_->Update(txn, "employee", Slice(key),
                            {Value::Int(1), Value::String("fixed"),
                             Value::Double(5.0), Value::Null()})
                    .ok());
    Status s = db_->Commit(txn);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  // Still violating at commit: aborted.
  {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->Insert(txn, "employee",
                            {Value::Int(2), Value::String("bad"),
                             Value::Double(-2.0), Value::Null()})
                    .ok());
    Status s = db_->Commit(txn);
    EXPECT_TRUE(s.IsConstraint()) << s.ToString();
  }
  EXPECT_EQ(ScanIds("employee").size(), 1u);
}

// -- restart recovery -----------------------------------------------------------

TEST_F(DatabaseTest, CommittedDataSurvivesReopen) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    for (int i = 0; i < 30; ++i) InsertEmployee(txn, i, "e", i * 1.0);
    return Status::OK();
  });
  Reopen();
  EXPECT_EQ(ScanIds("employee").size(), 30u);
}

TEST_F(DatabaseTest, UncommittedWorkRolledBackOnRestart) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "durable", 1.0);
    return Status::OK();
  });
  // Simulate a crash: start a transaction, do work, flush the LOG but not
  // a clean shutdown, then reopen without commit.
  Transaction* txn = db_->Begin();
  InsertEmployee(txn, 2, "loser", 2.0);
  ASSERT_TRUE(db_->log()->FlushAll().ok());
  // Abandon txn and reopen (destructor flushes pages too — the log-driven
  // undo at restart must still remove the loser's insert).
  Reopen();
  EXPECT_EQ(ScanIds("employee"), std::vector<int64_t>({1}));
}

TEST_F(DatabaseTest, IndexesRebuiltConsistentlyAfterReopen) {
  CreateEmployee();
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->CreateAttachment(txn, "employee", "btree_index",
                                              {{"fields", "id"}}));
    return db_->CreateAttachment(txn, "employee", "hash_index",
                                 {{"fields", "name"}});
  });
  MustCommit([&](Transaction* txn) {
    for (int i = 0; i < 10; ++i) {
      InsertEmployee(txn, i, "n" + std::to_string(i), 1.0);
    }
    return Status::OK();
  });
  Reopen();
  int bt = db_->registry()->FindAttachmentType("btree_index");
  int hs = db_->registry()->FindAttachmentType("hash_index");
  Transaction* txn = db_->Begin();
  std::string probe;
  ASSERT_TRUE(EncodeValueKey({Value::Int(4)}, &probe).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(db_->Lookup(txn, "employee",
                          AccessPathId::Attachment(static_cast<AtId>(bt), 1),
                          Slice(probe), &keys)
                  .ok());
  EXPECT_EQ(keys.size(), 1u);
  std::string hprobe;
  ASSERT_TRUE(EncodeValueKey({Value::String("n7")}, &hprobe).ok());
  ASSERT_TRUE(db_->Lookup(txn, "employee",
                          AccessPathId::Attachment(static_cast<AtId>(hs), 1),
                          Slice(hprobe), &keys)
                  .ok());
  EXPECT_EQ(keys.size(), 1u);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

// -- alternative storage methods ---------------------------------------------------

class StorageMethodSuite : public DatabaseTest,
                           public ::testing::WithParamInterface<const char*> {
};

TEST_P(StorageMethodSuite, BasicCrudAndScan) {
  const std::string sm = GetParam();
  AttrList attrs;
  if (sm == "btree") attrs.Add("key", "id");
  MustCommit([&](Transaction* txn) {
    return db_->CreateRelation(txn, "employee", EmployeeSchema(), sm, attrs);
  });
  std::string key;
  MustCommit([&](Transaction* txn) {
    key = InsertEmployee(txn, 1, "one", 10.0);
    InsertEmployee(txn, 2, "two", 20.0);
    InsertEmployee(txn, 3, "three", 30.0);
    return Status::OK();
  });
  EXPECT_EQ(ScanIds("employee").size(), 3u);
  Transaction* txn = db_->Begin();
  Record rec;
  ASSERT_TRUE(db_->Fetch(txn, "employee", Slice(key), &rec).ok());
  Schema schema = EmployeeSchema();
  EXPECT_EQ(rec.View(&schema).GetInt(0), 1);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

INSTANTIATE_TEST_SUITE_P(StorageMethods, StorageMethodSuite,
                         ::testing::Values("heap", "temp", "mainmemory",
                                           "btree"));

TEST_F(DatabaseTest, MainMemoryRelationSurvivesReopenViaLogReplay) {
  CreateEmployee("mainmemory");
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "volatile?", 1.0);
    InsertEmployee(txn, 2, "no, logged", 2.0);
    return Status::OK();
  });
  Reopen();
  EXPECT_EQ(ScanIds("employee").size(), 2u);
}

TEST_F(DatabaseTest, TempRelationDoesNotSurviveReopen) {
  CreateEmployee("temp");
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "gone", 1.0);
    return Status::OK();
  });
  Reopen();
  EXPECT_TRUE(ScanIds("employee").empty());
}

TEST_F(DatabaseTest, AppendOnlyRejectsUpdateAndDelete) {
  CreateEmployee("appendonly");
  std::string key;
  MustCommit([&](Transaction* txn) {
    key = InsertEmployee(txn, 1, "published", 1.0);
    return Status::OK();
  });
  Transaction* txn = db_->Begin();
  EXPECT_TRUE(db_->Delete(txn, "employee", Slice(key)).IsNotSupported());
  EXPECT_TRUE(db_->Update(txn, "employee", Slice(key),
                          {Value::Int(1), Value::String("edit"),
                           Value::Double(2.0), Value::Null()})
                  .IsNotSupported());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(ScanIds("employee").size(), 1u);
}

TEST_F(DatabaseTest, BTreeStorageEnforcesUniqueKeyAndOrdersScans) {
  CreateEmployee("btree");
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 5, "e", 1.0);
    InsertEmployee(txn, 1, "a", 1.0);
    InsertEmployee(txn, 3, "c", 1.0);
    return Status::OK();
  });
  // Scan order = key order, not insertion order.
  EXPECT_EQ(ScanIds("employee"), std::vector<int64_t>({1, 3, 5}));
  Transaction* txn = db_->Begin();
  Status s = db_->Insert(txn, "employee",
                         {Value::Int(3), Value::String("dupe"),
                          Value::Double(0.0), Value::Null()});
  EXPECT_TRUE(s.IsConstraint());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(DatabaseTest, ForeignStorageMethodProxiesToOtherDatabase) {
  // A second database acts as the remote server.
  TempDir remote_dir("remote");
  DatabaseOptions ropts;
  ropts.dir = remote_dir.path();
  std::unique_ptr<Database> remote;
  ASSERT_TRUE(Database::Open(ropts, &remote).ok());
  {
    Transaction* rtxn = remote->Begin();
    ASSERT_TRUE(remote
                    ->CreateRelation(rtxn, "emp_remote", EmployeeSchema(),
                                     "heap", {})
                    .ok());
    ASSERT_TRUE(remote->Commit(rtxn).ok());
  }
  RegisterForeignServer("hq", remote.get());

  MustCommit([&](Transaction* txn) {
    return db_->CreateRelation(
        txn, "employee", EmployeeSchema(), "foreign",
        {{"server", "hq"}, {"relation", "emp_remote"}});
  });
  std::string key;
  MustCommit([&](Transaction* txn) {
    key = InsertEmployee(txn, 1, "remote worker", 9.0);
    return Status::OK();
  });
  // Visible on the remote side.
  {
    Transaction* rtxn = remote->Begin();
    Record rec;
    ASSERT_TRUE(remote->Fetch(rtxn, "emp_remote", Slice(key), &rec).ok());
    ASSERT_TRUE(remote->Commit(rtxn).ok());
  }
  // Local abort compensates on the remote.
  Transaction* txn = db_->Begin();
  std::string key2;
  ASSERT_TRUE(db_->Insert(txn, "employee",
                          {Value::Int(2), Value::String("undone"),
                           Value::Double(1.0), Value::Null()},
                          &key2)
                  .ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  {
    Transaction* rtxn = remote->Begin();
    Record rec;
    EXPECT_TRUE(
        remote->Fetch(rtxn, "emp_remote", Slice(key2), &rec).IsNotFound());
    ASSERT_TRUE(remote->Commit(rtxn).ok());
  }
  EXPECT_EQ(ScanIds("employee").size(), 1u);
  UnregisterForeignServer("hq");
}

// -- join index -------------------------------------------------------------------

// Creates department(dept, budget) and employee, with a join index `name`
// on their dept columns: side 1 on employee, side 2 on department.
Status CreateEmpDept(Database* db, Transaction* txn, const std::string& name,
                     uint32_t* emp_inst, uint32_t* dept_inst) {
  Schema dept_schema({{"dept", TypeId::kString, false},
                      {"budget", TypeId::kDouble, true}});
  DMX_RETURN_IF_ERROR(
      db->CreateRelation(txn, "department", dept_schema, "heap", {}));
  DMX_RETURN_IF_ERROR(
      db->CreateRelation(txn, "employee", EmployeeSchema(), "heap", {}));
  DMX_RETURN_IF_ERROR(db->CreateAttachment(
      txn, "employee", "join_index",
      {{"name", name}, {"side", "1"}, {"fields", "dept"}}, emp_inst));
  return db->CreateAttachment(
      txn, "department", "join_index",
      {{"name", name}, {"side", "2"}, {"fields", "dept"}}, dept_inst);
}

// The record keys that a lookup of `dept` through `rel`'s join-index
// instance `inst` returns from the other side, sorted.
std::vector<std::string> JoinLookup(Database* db, const std::string& rel,
                                    uint32_t inst, const std::string& dept) {
  const AtId ji =
      static_cast<AtId>(db->registry()->FindAttachmentType("join_index"));
  std::string jk;
  EXPECT_TRUE(EncodeValueKey({Value::String(dept)}, &jk).ok());
  std::vector<std::string> keys;
  Transaction* txn = db->Begin();
  Status s = db->Lookup(txn, rel, AccessPathId::Attachment(ji, inst),
                        Slice(jk), &keys);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(db->Commit(txn).ok());
  std::sort(keys.begin(), keys.end());
  return keys;
}

using Keys = std::vector<std::string>;

TEST_F(DatabaseTest, JoinIndexMaintainsPairsAcrossBothRelations) {
  uint32_t emp_inst = 0, dept_inst = 0;
  MustCommit([&](Transaction* txn) {
    return CreateEmpDept(db_.get(), txn, "emp_dept", &emp_inst, &dept_inst);
  });
  std::string dept_key;
  Keys emp_keys;
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->Insert(
        txn, "department", {Value::String("eng"), Value::Double(1.0)},
        &dept_key));
    emp_keys.push_back(InsertEmployee(txn, 1, "a", 1.0, "eng"));
    emp_keys.push_back(InsertEmployee(txn, 2, "b", 1.0, "eng"));
    return Status::OK();
  });
  std::sort(emp_keys.begin(), emp_keys.end());
  // Two pairs: each side's lookup returns the other side's record keys.
  EXPECT_EQ(JoinLookup(db_.get(), "employee", emp_inst, "eng"),
            Keys{dept_key});
  EXPECT_EQ(JoinLookup(db_.get(), "department", dept_inst, "eng"), emp_keys);
  EXPECT_TRUE(JoinLookup(db_.get(), "employee", emp_inst, "ops").empty());
}

TEST_F(DatabaseTest, JoinIndexPairsBelongToOneDatabase) {
  // Two databases in one process, each with a join index of the same name
  // on relations of the same names, hold different rows. Each must answer
  // from its own relations only.
  TempDir other_dir("db2");
  std::unique_ptr<Database> other;
  DatabaseOptions options;
  options.dir = other_dir.path();
  ASSERT_TRUE(Database::Open(options, &other).ok());

  struct Side {
    Database* db;
    std::string dept;
    uint32_t emp_inst = 0, dept_inst = 0;
    std::string emp_key = {}, dept_key = {};
  };
  Side sides[] = {{db_.get(), "eng"}, {other.get(), "ops"}};
  for (Side& side : sides) {
    Database* db = side.db;
    Transaction* txn = db->Begin();
    ASSERT_TRUE(CreateEmpDept(db, txn, "emp_dept", &side.emp_inst,
                              &side.dept_inst)
                    .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn, "department",
                           {Value::String(side.dept), Value::Double(1.0)},
                           &side.dept_key)
                    .ok());
    ASSERT_TRUE(db->Insert(txn, "employee",
                           {Value::Int(1), Value::String("a"),
                            Value::Double(1.0), Value::String(side.dept)},
                           &side.emp_key)
                    .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  for (const Side& side : sides) {
    const Side& foreign = &side == &sides[0] ? sides[1] : sides[0];
    EXPECT_EQ(JoinLookup(side.db, "employee", side.emp_inst, side.dept),
              Keys{side.dept_key});
    EXPECT_EQ(JoinLookup(side.db, "department", side.dept_inst, side.dept),
              Keys{side.emp_key});
    EXPECT_TRUE(
        JoinLookup(side.db, "employee", side.emp_inst, foreign.dept).empty());
    EXPECT_TRUE(
        JoinLookup(side.db, "department", side.dept_inst, foreign.dept)
            .empty());
  }
}

TEST_F(DatabaseTest, JoinIndexLookupAfterCrashSeesOnlyRecoveredRows) {
  // Restart opens no join-index state: each relation builds its side from
  // its recovered base at its first touch. A lookup from one side reads the
  // other relation's state, which opens from that recovered base too, so a
  // loser's row is gone from the answer.
  uint32_t emp_inst = 0, dept_inst = 0;
  std::string dept_key, emp_key, loser_key;
  MustCommit([&](Transaction* txn) {
    return CreateEmpDept(db_.get(), txn, "emp_dept_crash", &emp_inst,
                         &dept_inst);
  });
  MustCommit([&](Transaction* txn) {
    DMX_RETURN_IF_ERROR(db_->Insert(
        txn, "department", {Value::String("eng"), Value::Double(1.0)},
        &dept_key));
    emp_key = InsertEmployee(txn, 1, "a", 1.0, "eng");
    return Status::OK();
  });
  Transaction* loser = db_->Begin();
  ASSERT_TRUE(db_->Insert(loser, "department",
                          {Value::String("eng"), Value::Double(2.0)},
                          &loser_key)
                  .ok());
  Keys both = {dept_key, loser_key};
  std::sort(both.begin(), both.end());
  EXPECT_EQ(JoinLookup(db_.get(), "employee", emp_inst, "eng"), both);
  db_->SimulateCrashOnClose();
  Reopen();

  EXPECT_EQ(JoinLookup(db_.get(), "employee", emp_inst, "eng"),
            Keys{dept_key});
  EXPECT_EQ(JoinLookup(db_.get(), "department", dept_inst, "eng"),
            Keys{emp_key});
}

TEST_F(DatabaseTest, AttachmentDdlPreservesMemoryResidentData) {
  // Regression: attachment DDL used to discard the whole relation runtime,
  // and for memory-resident storage methods the runtime state IS the data
  // (it would only resurface after a restart log replay).
  CreateEmployee("mainmemory");
  MustCommit([&](Transaction* txn) {
    InsertEmployee(txn, 1, "kept", 1.0);
    InsertEmployee(txn, 2, "also kept", 2.0);
    return Status::OK();
  });
  MustCommit([&](Transaction* txn) {
    return db_->CreateAttachment(txn, "employee", "btree_index",
                                 {{"fields", "id"}});
  });
  EXPECT_EQ(ScanIds("employee").size(), 2u);
  // Same through a migration that lands on mainmemory.
  MustCommit([&](Transaction* txn) {
    return db_->ChangeStorageMethod(txn, "employee", "temp", {});
  });
  EXPECT_EQ(ScanIds("employee").size(), 2u);
}

TEST_F(DatabaseTest, ChangeStorageMethodKeepsDataAndName) {
  CreateEmployee("heap");
  MustCommit([&](Transaction* txn) {
    for (int i = 0; i < 25; ++i) InsertEmployee(txn, i, "e", i * 1.0);
    return Status::OK();
  });
  MustCommit([&](Transaction* txn) {
    AttrList attrs;
    attrs.Add("key", "id");
    return db_->ChangeStorageMethod(txn, "employee", "btree", attrs);
  });
  const RelationDescriptor* desc;
  ASSERT_TRUE(db_->FindRelation("employee", &desc).ok());
  EXPECT_EQ(db_->registry()->sm_ops(desc->sm_id).name,
            std::string("btree"));
  std::vector<int64_t> ids = ScanIds("employee");
  ASSERT_EQ(ids.size(), 25u);
  for (int i = 0; i < 25; ++i) EXPECT_EQ(ids[static_cast<size_t>(i)], i);
  // And it survives a reopen (the new storage is recoverable).
  Reopen();
  EXPECT_EQ(ScanIds("employee").size(), 25u);
}

TEST(DatabaseOpenTest, FailedOpenReturnsStatusWithoutCrashing) {
  // A missing parent directory fails CreateDir before any subsystem is
  // wired up; destroying the half-built Database must be harmless.
  testing::TempDir dir("openfail");
  DatabaseOptions options;
  options.dir = dir.path() + "/missing/parent/db";
  std::unique_ptr<Database> db;
  EXPECT_FALSE(Database::Open(options, &db).ok());
  EXPECT_EQ(db, nullptr);
}

}  // namespace
}  // namespace dmx
