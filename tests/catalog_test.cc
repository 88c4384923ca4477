// Unit tests for AttrList, the extensible relation descriptor, and the
// catalog's persistence/versioning.

#include <gtest/gtest.h>

#include "src/catalog/attr_list.h"
#include "src/catalog/catalog.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

TEST(AttrListTest, GetHasGetAll) {
  AttrList attrs = {{"fields", "a"}, {"unique", "1"}, {"fields", "b"}};
  EXPECT_EQ(attrs.Get("fields"), "a");  // first wins
  EXPECT_EQ(attrs.Get("unique"), "1");
  EXPECT_EQ(attrs.Get("missing"), "");
  EXPECT_TRUE(attrs.Has("unique"));
  EXPECT_FALSE(attrs.Has("nope"));
  auto all = attrs.GetAll("fields");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1], "b");
}

TEST(AttrListTest, CheckAllowed) {
  AttrList attrs = {{"fields", "a"}, {"unique", "1"}};
  EXPECT_TRUE(attrs.CheckAllowed({"fields", "unique", "extra"}).ok());
  EXPECT_TRUE(attrs.CheckAllowed({"fields"}).IsInvalidArgument());
  EXPECT_TRUE(AttrList{}.CheckAllowed({}).ok());
}

RelationDescriptor MakeDesc(const std::string& name) {
  RelationDescriptor desc;
  desc.name = name;
  desc.schema = Schema({{"x", TypeId::kInt64, false},
                        {"y", TypeId::kString, true}});
  desc.sm_id = 3;
  desc.sm_desc = "sm-blob";
  desc.at_desc[0] = "btree-instances";
  desc.at_desc[5] = std::string("bin\0ary", 7);
  return desc;
}

TEST(DescriptorTest, EncodeDecodeRoundTrip) {
  RelationDescriptor desc = MakeDesc("emp");
  desc.id = 42;
  desc.version = 7;
  std::string buf;
  desc.EncodeTo(&buf);
  Slice in(buf);
  RelationDescriptor out;
  ASSERT_TRUE(RelationDescriptor::DecodeFrom(&in, &out).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.name, "emp");
  EXPECT_EQ(out.version, 7u);
  EXPECT_EQ(out.sm_id, 3);
  EXPECT_EQ(out.sm_desc, "sm-blob");
  EXPECT_TRUE(out.HasAttachment(0));
  EXPECT_FALSE(out.HasAttachment(1));
  EXPECT_TRUE(out.HasAttachment(5));
  EXPECT_EQ(out.at_desc[5].size(), 7u);
  EXPECT_TRUE(out.schema == desc.schema);
}

TEST(DescriptorTest, DecodeRejectsGarbage) {
  std::string garbage = "xx";
  Slice in(garbage);
  RelationDescriptor out;
  EXPECT_FALSE(RelationDescriptor::DecodeFrom(&in, &out).ok());
}

TEST(CatalogTest, AddFindRemoveRestore) {
  TempDir dir("catalog");
  Catalog catalog;
  ASSERT_TRUE(catalog.Load(dir.path() + "/catalog").ok());
  RelationId id;
  ASSERT_TRUE(catalog.AddRelation(MakeDesc("a"), &id).ok());
  EXPECT_NE(catalog.Find("a"), nullptr);
  EXPECT_EQ(catalog.Find("a")->id, id);
  EXPECT_EQ(catalog.Find(id)->name, "a");
  EXPECT_EQ(catalog.Find("zzz"), nullptr);
  // Duplicate name rejected.
  RelationId id2;
  EXPECT_TRUE(catalog.AddRelation(MakeDesc("a"), &id2).IsInvalidArgument());

  RelationDescriptor removed;
  ASSERT_TRUE(catalog.RemoveRelation(id, &removed).ok());
  EXPECT_EQ(catalog.Find("a"), nullptr);
  EXPECT_EQ(catalog.VersionOf(id), 0u);
  ASSERT_TRUE(catalog.RestoreRelation(removed).ok());
  EXPECT_NE(catalog.Find("a"), nullptr);
  EXPECT_EQ(catalog.Find("a")->id, id);  // same id after restore
  // ...under a new version: a plan built before the removal is stale.
  EXPECT_GT(catalog.VersionOf(id), removed.version);
}

TEST(CatalogTest, UpdateBumpsVersion) {
  TempDir dir("catalog2");
  Catalog catalog;
  ASSERT_TRUE(catalog.Load(dir.path() + "/catalog").ok());
  RelationId id;
  ASSERT_TRUE(catalog.AddRelation(MakeDesc("a"), &id).ok());
  uint64_t v1 = catalog.VersionOf(id);
  ASSERT_TRUE(catalog
                  .MutateRelation(id,
                                  [](RelationDescriptor& d) {
                                    d.at_desc[2] = "new-attachment";
                                    return true;
                                  })
                  .ok());
  EXPECT_GT(catalog.VersionOf(id), v1);
  EXPECT_TRUE(catalog.Find(id)->HasAttachment(2));
}

TEST(CatalogTest, MutateRenamesUnlessTheNameIsTaken) {
  TempDir dir("catalog4");
  Catalog catalog;
  ASSERT_TRUE(catalog.Load(dir.path() + "/catalog").ok());
  RelationId a, b;
  ASSERT_TRUE(catalog.AddRelation(MakeDesc("a"), &a).ok());
  ASSERT_TRUE(catalog.AddRelation(MakeDesc("b"), &b).ok());
  auto rename = [](const std::string& name) {
    return [name](RelationDescriptor& d) {
      d.name = name;
      return true;
    };
  };
  EXPECT_TRUE(catalog.MutateRelation(a, rename("b")).IsInvalidArgument());
  EXPECT_EQ(catalog.Find("a")->id, a);
  const uint64_t v1 = catalog.VersionOf(a);
  ASSERT_TRUE(catalog.MutateRelation(a, rename("c")).ok());
  EXPECT_EQ(catalog.Find("a"), nullptr);
  ASSERT_NE(catalog.Find("c"), nullptr);
  EXPECT_EQ(catalog.Find("c")->id, a);
  EXPECT_GT(catalog.VersionOf(a), v1);
}

TEST(CatalogTest, SaveLoadRoundTrip) {
  TempDir dir("catalog3");
  std::string path = dir.path() + "/catalog";
  RelationId id_a, id_b;
  {
    Catalog catalog;
    ASSERT_TRUE(catalog.Load(path).ok());
    ASSERT_TRUE(catalog.AddRelation(MakeDesc("a"), &id_a).ok());
    ASSERT_TRUE(catalog.AddRelation(MakeDesc("b"), &id_b).ok());
    ASSERT_TRUE(catalog.Save().ok());
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.Load(path).ok());
  ASSERT_NE(catalog.Find("a"), nullptr);
  ASSERT_NE(catalog.Find("b"), nullptr);
  EXPECT_EQ(catalog.Find("a")->id, id_a);
  EXPECT_EQ(catalog.Find("a")->sm_desc, "sm-blob");
  // Ids keep advancing after reload (no reuse).
  RelationId id_c;
  ASSERT_TRUE(catalog.AddRelation(MakeDesc("c"), &id_c).ok());
  EXPECT_GT(id_c, id_b);
  EXPECT_EQ(catalog.AllRelationIds().size(), 3u);
}

}  // namespace
}  // namespace dmx
