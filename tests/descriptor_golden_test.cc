// Golden bytes of every built-in attachment type's descriptor field.
//
// The relation descriptor gives each attachment type one field and leaves
// its encoding to the type; the built-in types all frame their instances as
// `varint next_no | varint count | per instance: varint no, payload`. One
// relation carries all ten types with two instances each, the first of which
// is dropped again (so next_no = 3 while count = 1). The expected hex was
// captured from the per-type encoders before they moved onto the shared
// instance-list codec; any change to the persistent format fails here.

#include <gtest/gtest.h>

#include <map>

#include "src/attach/check_constraint.h"
#include "src/attach/trigger.h"
#include "src/core/database.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

Schema GoldenSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"name", TypeId::kString, true},
                 {"score", TypeId::kDouble, true},
                 {"xmin", TypeId::kDouble, true},
                 {"ymin", TypeId::kDouble, true},
                 {"xmax", TypeId::kDouble, true},
                 {"ymax", TypeId::kDouble, true}});
}

// Two instance definitions per type; the first is dropped after creation.
std::vector<std::pair<std::string, std::pair<AttrList, AttrList>>>
GoldenAttachments() {
  const std::string ge0 = EncodePredicateAttr(
      Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0)));
  const std::string lt1k = EncodePredicateAttr(
      Expr::Cmp(ExprOp::kLt, 0, Value::Int(1000)));
  return {
      {"btree_index",
       {{{"fields", "id"}, {"unique", "1"}}, {{"fields", "name,score"}}}},
      {"hash_index", {{{"fields", "name"}}, {{"fields", "id,name"}}}},
      {"rtree_index",
       {{{"fields", "xmin,ymin,xmax,ymax"}},
        {{"fields", "xmin,ymin,xmax,ymax"}}}},
      {"check",
       {{{"predicate", ge0}, {"name", "score_pos"}}, {{"predicate", lt1k}}}},
      {"deferred_check",
       {{{"predicate", lt1k}}, {{"predicate", ge0}, {"name", "later"}}}},
      {"unique",
       {{{"fields", "id"}}, {{"fields", "name,id"}, {"name", "uq_name"}}}},
      {"refint",
       {{{"role", "child"}, {"other", "p"}, {"fields", "id"},
         {"other_fields", "id"}},
        {{"role", "parent"}, {"other", "p"}, {"fields", "id"},
         {"other_fields", "id"}, {"action", "cascade"}}}},
      {"trigger",
       {{{"call", "golden_noop"}},
        {{"call", "golden_noop"}, {"on", "delete"}}}},
      {"join_index",
       {{{"name", "golden_a"}, {"side", "1"}, {"fields", "id"}},
        {{"name", "golden_b"}, {"side", "2"}, {"fields", "name"}}}},
      {"stats", {{{"field", "score"}}, {{"field", "id"}}}},
  };
}

// at_desc hex per type, captured at the per-type encoders.
const std::map<std::string, std::string>& GoldenHex() {
  static const auto* golden = new std::map<std::string, std::string>{
      {"btree_index", "0301020600000000020102"},
      {"hash_index", "030102020001"},
      {"rtree_index", "03010203040506"},
      {"check", "030102000e090201000002e803000000000000"},
      {"deferred_check", "030102056c617465720e0c02010200030000000000000000"},
      {"unique", "0301020775715f6e616d65020100"},
      {"refint", "03010201010100000001000100"},
      {"trigger", "0301020b676f6c64656e5f6e6f6f7004"},
      {"join_index", "03010208676f6c64656e5f62020101"},
      {"stats", "03010200"},
  };
  return *golden;
}

class DescriptorGoldenTest : public ::testing::Test {
 protected:
  DescriptorGoldenTest() : dir_("golden") {
    options_.dir = dir_.path();
    RegisterTriggerFunction("golden_noop",
                            [](const TriggerEvent&) { return Status::OK(); });
  }

  void ExpectGoldenDescriptors() {
    const RelationDescriptor* desc = nullptr;
    ASSERT_TRUE(db_->FindRelation("t", &desc).ok());
    for (const auto& [type, hex] : GoldenHex()) {
      const int at = db_->registry()->FindAttachmentType(type);
      ASSERT_GE(at, 0) << type;
      EXPECT_EQ(Hex(desc->at_desc[static_cast<size_t>(at)]), hex) << type;
    }
  }

  TempDir dir_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
};

TEST_F(DescriptorGoldenTest, TenAttachmentTypesKeepTheirBytes) {
  ASSERT_TRUE(Database::Open(options_, &db_).ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateRelation(txn, "p", GoldenSchema(), "heap", {}).ok());
  ASSERT_TRUE(db_->CreateRelation(txn, "t", GoldenSchema(), "heap", {}).ok());
  for (int64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(db_->Insert(txn, "p",
                            {Value::Int(id), Value::String("p"),
                             Value::Double(1), Value::Double(0),
                             Value::Double(0), Value::Double(1),
                             Value::Double(1)})
                    .ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());

  for (const auto& [type, defs] : GoldenAttachments()) {
    uint32_t first = 0, second = 0;
    txn = db_->Begin();
    Status s = db_->CreateAttachment(txn, "t", type, defs.first, &first);
    ASSERT_TRUE(s.ok()) << type << ": " << s.ToString();
    s = db_->CreateAttachment(txn, "t", type, defs.second, &second);
    ASSERT_TRUE(s.ok()) << type << ": " << s.ToString();
    ASSERT_TRUE(db_->Commit(txn).ok());
    EXPECT_EQ(first, 1u) << type;
    EXPECT_EQ(second, 2u) << type;
    txn = db_->Begin();
    s = db_->DropAttachment(txn, "t", type, first);
    ASSERT_TRUE(s.ok()) << type << ": " << s.ToString();
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  txn = db_->Begin();
  for (int64_t id = 1; id <= 3; ++id) {
    Status s = db_->Insert(
        txn, "t",
        {Value::Int(id), Value::String("n" + std::to_string(id)),
         Value::Double(static_cast<double>(id)), Value::Double(0),
         Value::Double(0), Value::Double(static_cast<double>(id)),
         Value::Double(static_cast<double>(id))});
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  ExpectGoldenDescriptors();
  // The independent reader in test_util.cc agrees on the surviving index.
  EXPECT_EQ(testing::BTreeIndexAnchor(db_.get(), "t", 2), 6u);
  EXPECT_EQ(testing::BTreeIndexAnchor(db_.get(), "t", 1), kInvalidPageId);

  db_.reset();
  ASSERT_TRUE(Database::Open(options_, &db_).ok());
  ExpectGoldenDescriptors();
  txn = db_->Begin();
  CheckResult check;
  ASSERT_TRUE(db_->CheckRelation(txn, "t", &check).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_TRUE(check.clean);
  for (const CheckFinding& f : check.findings) {
    ADD_FAILURE() << f.component << ": " << f.detail;
  }
  EXPECT_GT(check.items, 0u);
}

}  // namespace
}  // namespace dmx
