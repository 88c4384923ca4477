// Direct tests of the shared page-based B+-tree (splits, duplicates,
// uniqueness, iteration, position save/restore, persistence, maintained
// shape counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>

#include "src/core/database.h"
#include "src/sm/btree_core.h"
#include "src/sm/key_codec.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : dir_("btree") {
    EXPECT_TRUE(pf_.Open(dir_.path() + "/db", true).ok());
    bp_ = std::make_unique<BufferPool>(&pf_, 512);
    EXPECT_TRUE(BTree::Create(bp_.get(), &anchor_).ok());
    tree_ = std::make_unique<BTree>(bp_.get(), anchor_);
  }

  static std::string Key(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%08d", i);
    return buf;
  }

  TempDir dir_;
  PageFile pf_;
  std::unique_ptr<BufferPool> bp_;
  PageId anchor_ = kInvalidPageId;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, CompositeEncodingOrderAndRoundTrip) {
  // (key, value) lexicographic order must equal composite memcmp order,
  // including keys containing NUL bytes.
  std::vector<std::pair<std::string, std::string>> entries = {
      {"", ""},       {"", "z"},      {std::string("\0", 1), "a"},
      {"a", ""},      {"a", "b"},     {"a", std::string("\0", 1)},
      {"ab", ""},     {std::string("a\0b", 3), "x"}, {"b", ""},
  };
  std::sort(entries.begin(), entries.end());
  std::string prev;
  bool first = true;
  for (const auto& [k, v] : entries) {
    std::string composite = BTreeComposeEntry(Slice(k), Slice(v));
    std::string k2, v2;
    ASSERT_TRUE(BTreeSplitEntry(Slice(composite), &k2, &v2).ok());
    EXPECT_EQ(k2, k);
    EXPECT_EQ(v2, v);
    if (!first) {
      EXPECT_LT(prev, composite);
    }
    prev = composite;
    first = false;
  }
}

TEST_F(BTreeTest, InsertLookupRemove) {
  ASSERT_TRUE(tree_->Insert(Slice("alpha"), Slice("1")).ok());
  ASSERT_TRUE(tree_->Insert(Slice("beta"), Slice("2")).ok());
  std::vector<std::string> values;
  ASSERT_TRUE(tree_->Lookup(Slice("alpha"), &values).ok());
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "1");
  ASSERT_TRUE(tree_->Remove(Slice("alpha"), Slice("1")).ok());
  ASSERT_TRUE(tree_->Lookup(Slice("alpha"), &values).ok());
  EXPECT_TRUE(values.empty());
  // Removing again: NotFound, unless idempotent.
  EXPECT_TRUE(tree_->Remove(Slice("alpha"), Slice("1")).IsNotFound());
  EXPECT_TRUE(tree_->Remove(Slice("alpha"), Slice("1"), true).ok());
}

TEST_F(BTreeTest, DuplicateKeysKeepDistinctValues) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        tree_->Insert(Slice("dup"), Slice("v" + std::to_string(i))).ok());
  }
  // Exact duplicate (key, value) is an idempotent no-op.
  ASSERT_TRUE(tree_->Insert(Slice("dup"), Slice("v3")).ok());
  std::vector<std::string> values;
  ASSERT_TRUE(tree_->Lookup(Slice("dup"), &values).ok());
  EXPECT_EQ(values.size(), 5u);
  ASSERT_TRUE(tree_->Remove(Slice("dup"), Slice("v2")).ok());
  ASSERT_TRUE(tree_->Lookup(Slice("dup"), &values).ok());
  EXPECT_EQ(values.size(), 4u);
}

TEST_F(BTreeTest, UniqueInsertRejectsSecondValue) {
  ASSERT_TRUE(tree_->Insert(Slice("u"), Slice("first"), true).ok());
  EXPECT_TRUE(tree_->Insert(Slice("u"), Slice("second"), true).IsConstraint());
  // Same (key, value): fine.
  EXPECT_TRUE(tree_->Insert(Slice("u"), Slice("first"), true).ok());
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice(Key(i))).ok()) << i;
  }
  uint32_t height = 0;
  uint64_t count = 0, leaves = 0;
  ASSERT_TRUE(tree_->Height(&height).ok());
  ASSERT_TRUE(tree_->Count(&count).ok());
  ASSERT_TRUE(tree_->LeafPages(&leaves).ok());
  EXPECT_GT(height, 1u);
  EXPECT_EQ(count, static_cast<uint64_t>(n));
  EXPECT_GT(leaves, 1u);
  // Every key still findable after all the splits.
  for (int i = 0; i < n; i += 97) {
    std::vector<std::string> values;
    ASSERT_TRUE(tree_->Lookup(Slice(Key(i)), &values).ok());
    ASSERT_EQ(values.size(), 1u) << i;
  }
}

TEST_F(BTreeTest, IteratorReturnsSortedSequence) {
  std::vector<int> ids;
  for (int i = 0; i < 2000; ++i) ids.push_back(i);
  std::mt19937 rng(3);
  std::shuffle(ids.begin(), ids.end(), rng);
  for (int i : ids) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice("v")).ok());
  }
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::string key, value, prev;
  int n = 0;
  while (it->Next(&key, &value).ok()) {
    if (n) {
      EXPECT_LT(prev, key);
    }
    prev = key;
    ++n;
  }
  EXPECT_EQ(n, 2000);
}

TEST_F(BTreeTest, IteratorLowerBoundStart) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i * 2)), Slice("v")).ok());
  }
  // Start at an absent key: first returned is the next present one.
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(
      tree_->NewIterator(&it, BTreeComposeEntry(Slice(Key(31)), Slice()))
          .ok());
  std::string key, value;
  ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(32));
}

TEST_F(BTreeTest, IteratorSurvivesDeleteAtPosition) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice("v")).ok());
  }
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::string key, value;
  ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(0));
  // Delete the entry at the iterator position: the scan continues just
  // after it (the paper's scan semantics).
  ASSERT_TRUE(tree_->Remove(Slice(Key(0)), Slice("v")).ok());
  ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(1));
}

TEST_F(BTreeTest, IteratorPositionSaveRestore) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice("v")).ok());
  }
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::string key, value;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(it->Next(&key, &value).ok());
  std::string pos;
  it->SavePosition(&pos);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(19));
  ASSERT_TRUE(it->RestorePosition(Slice(pos)).ok());
  ASSERT_TRUE(it->Next(&key, &value).ok());
  EXPECT_EQ(key, Key(10));
}

TEST_F(BTreeTest, PersistsAcrossBufferPoolFlush) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice(Key(i))).ok());
  }
  ASSERT_TRUE(bp_->FlushAll().ok());
  // Reopen everything from disk.
  tree_.reset();
  bp_.reset();
  bp_ = std::make_unique<BufferPool>(&pf_, 64);  // small pool: forces IO
  tree_ = std::make_unique<BTree>(bp_.get(), anchor_);
  uint64_t count = 0;
  ASSERT_TRUE(tree_->Count(&count).ok());
  EXPECT_EQ(count, 3000u);
  std::vector<std::string> values;
  ASSERT_TRUE(tree_->Lookup(Slice(Key(2718)), &values).ok());
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], Key(2718));
}

TEST_F(BTreeTest, DestroyFreesAllPages) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice(Key(i))).ok());
  }
  uint32_t before = pf_.page_count();
  ASSERT_TRUE(BTree::Destroy(bp_.get(), anchor_).ok());
  tree_.reset();
  // Recreate a tree of the same size: the freed pages must be reused.
  PageId anchor2;
  ASSERT_TRUE(BTree::Create(bp_.get(), &anchor2).ok());
  BTree tree2(bp_.get(), anchor2);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree2.Insert(Slice(Key(i)), Slice(Key(i))).ok());
  }
  EXPECT_LE(pf_.page_count(), before + 2);
}

// Property test: random churn against a shadow multimap.
class BTreeChurn : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeChurn, MatchesShadowMultimap) {
  TempDir dir("btree_churn");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  BufferPool bp(&pf, 256);
  PageId anchor;
  ASSERT_TRUE(BTree::Create(&bp, &anchor).ok());
  BTree tree(&bp, anchor);

  std::mt19937 rng(GetParam());
  std::multimap<std::string, std::string> shadow;
  for (int step = 0; step < 4000; ++step) {
    int action = static_cast<int>(rng() % 3);
    std::string key = "k" + std::to_string(rng() % 200);
    std::string value = "v" + std::to_string(rng() % 10);
    if (action < 2) {
      // Insert; tolerate exact-duplicate no-ops.
      bool dup = false;
      auto [b, e] = shadow.equal_range(key);
      for (auto it = b; it != e; ++it) dup |= it->second == value;
      ASSERT_TRUE(tree.Insert(Slice(key), Slice(value)).ok());
      if (!dup) shadow.emplace(key, value);
    } else {
      auto [b, e] = shadow.equal_range(key);
      bool present = false;
      for (auto it = b; it != e; ++it) {
        if (it->second == value) {
          shadow.erase(it);
          present = true;
          break;
        }
      }
      Status s = tree.Remove(Slice(key), Slice(value));
      EXPECT_EQ(s.ok(), present) << key << "/" << value;
    }
  }
  // Full comparison via iteration.
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree.NewIterator(&it).ok());
  std::string key, value;
  size_t n = 0;
  while (it->Next(&key, &value).ok()) {
    auto [b, e] = shadow.equal_range(key);
    bool found = false;
    for (auto sit = b; sit != e; ++sit) found |= sit->second == value;
    EXPECT_TRUE(found) << key << "/" << value;
    ++n;
  }
  EXPECT_EQ(n, shadow.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeChurn,
                         ::testing::Values(101u, 202u, 303u));

// -- in-place edits -----------------------------------------------------------

// Insert and Remove edit leaves in place and choose children by comparing
// Slices in the page; only splits decode and re-serialize a node. Drive
// random inserts and removes (keys with NUL bytes, duplicate keys, enough
// entries to split leaves and internal nodes, a pool small enough to evict)
// and after every operation check each node page against the
// decode-and-rewrite path: BTreeRewriteNode of a copy must reproduce the
// page byte for byte. Verify, Lookup and a full scan check the contents
// against a shadow set along the way.
class BTreeInPlaceTest : public ::testing::Test {
 protected:
  // Every node page must equal its own decode-and-rewrite, byte for byte.
  static void ExpectNodesMatchRewrite(PageFile* pf, BufferPool* bp,
                                      PageId anchor, int step) {
    for (PageId pid = 1; pid < pf->page_count(); ++pid) {
      if (pid == anchor) continue;
      PageHandle h;
      ASSERT_TRUE(bp->Fetch(pid, &h).ok()) << "page " << pid;
      Page rewritten = *h.page();
      ASSERT_TRUE(BTreeRewriteNode(&rewritten).ok()) << "page " << pid;
      ASSERT_EQ(memcmp(rewritten.data, h.page()->data, kPageSize), 0)
          << "page " << pid << " after step " << step;
    }
  }

  static std::string RandomBytes(std::mt19937* rng, size_t max_len) {
    std::string out((*rng)() % (max_len + 1), '\0');
    for (char& c : out) {
      // Mostly letters, with NULs and 0xff to exercise the key escaping.
      uint32_t r = (*rng)() % 10;
      c = r == 0 ? '\0' : r == 1 ? '\xff' : static_cast<char>('a' + r);
    }
    return out;
  }
};

TEST_F(BTreeInPlaceTest, EditsMatchDecodeAndRewrite) {
  for (uint32_t seed : {7u, 8u}) {
    TempDir dir("btree_inplace");
    PageFile pf;
    ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
    BufferPool bp(&pf, 64);
    PageId anchor;
    ASSERT_TRUE(BTree::Create(&bp, &anchor).ok());
    BTree tree(&bp, anchor);
    ASSERT_TRUE(tree.LoadCounts().ok());

    std::mt19937 rng(seed);
    std::vector<std::string> keys, values;
    // Long entries keep nodes small, so internal nodes split too.
    for (int i = 0; i < 400; ++i) keys.push_back(RandomBytes(&rng, 250));
    for (int i = 0; i < 12; ++i) values.push_back(RandomBytes(&rng, 250));
    std::set<std::pair<std::string, std::string>> shadow;
    uint32_t height = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::string& key = keys[rng() % keys.size()];
      const std::string& value = values[rng() % values.size()];
      if (rng() % 10 < 7) {
        ASSERT_TRUE(tree.Insert(Slice(key), Slice(value)).ok());
        shadow.emplace(key, value);
      } else {
        // Remove a present entry most of the time, else a likely-absent one.
        auto victim = shadow.empty() || rng() % 5 == 0
                          ? std::make_pair(key, value)
                          : *std::next(shadow.begin(),
                                       static_cast<long>(rng() %
                                                         shadow.size()));
        const bool present = shadow.erase(victim) == 1;
        Status s = tree.Remove(Slice(victim.first), Slice(victim.second));
        ASSERT_EQ(s.ok(), present) << s.ToString();
      }
      ExpectNodesMatchRewrite(&pf, &bp, anchor, step);
      if (HasFatalFailure()) return;
      if (step % 500 != 499) continue;
      std::vector<std::string> problems;
      uint64_t entries = 0;
      ASSERT_TRUE(tree.Verify(&problems, &entries).ok());
      EXPECT_TRUE(problems.empty()) << problems.front();
      EXPECT_EQ(entries, shadow.size());
      for (int probe = 0; probe < 20; ++probe) {
        const std::string& k = keys[rng() % keys.size()];
        std::vector<std::string> want, got;
        for (auto it = shadow.lower_bound({k, ""});
             it != shadow.end() && it->first == k; ++it) {
          want.push_back(it->second);
        }
        ASSERT_TRUE(tree.Lookup(Slice(k), &got).ok());
        EXPECT_EQ(got, want);
      }
    }
    ASSERT_TRUE(tree.Height(&height).ok());
    EXPECT_GE(height, 3u) << "the run should split internal nodes";
    std::unique_ptr<BTreeIterator> it;
    ASSERT_TRUE(tree.NewIterator(&it).ok());
    std::string key, value;
    auto expect = shadow.begin();
    while (it->Next(&key, &value).ok()) {
      ASSERT_NE(expect, shadow.end());
      EXPECT_EQ(std::make_pair(key, value), *expect);
      ++expect;
    }
    EXPECT_EQ(expect, shadow.end());
  }
}

// -- the cursor in the pinned leaf --------------------------------------------

// BTreeIterator reads entries in the pinned leaf and finds its position
// again only when the leaf frame's change counter has moved. Between Next
// calls, edit the tree around the position: inserts before and after it,
// leaf splits, a delete at it, a delete and re-insert, a save and restore.
// Every Next must return the shadow's first entry after the last one
// returned. A pool of 8 frames evicts the leaf between calls; a pool of
// 512 keeps it resident, so only edits move the counter.
class BTreeCursorTest : public ::testing::TestWithParam<size_t> {
 protected:
  using Entry = std::pair<std::string, std::string>;

  BTreeCursorTest() : dir_("btree_cursor") {
    EXPECT_TRUE(pf_.Open(dir_.path() + "/db", true).ok());
    bp_ = std::make_unique<BufferPool>(&pf_, GetParam());
    EXPECT_TRUE(BTree::Create(bp_.get(), &anchor_).ok());
    tree_ = std::make_unique<BTree>(bp_.get(), anchor_);
    EXPECT_TRUE(tree_->LoadCounts().ok());
  }

  static std::string Key(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%08d", i);
    return buf;
  }

  void Insert(const Entry& e) {
    Status s = tree_->Insert(Slice(e.first), Slice(e.second));
    ASSERT_TRUE(s.ok()) << s.ToString();
    shadow_.insert(e);
  }

  void Remove(const Entry& e) {
    Status s = tree_->Remove(Slice(e.first), Slice(e.second));
    EXPECT_EQ(s.ok(), shadow_.erase(e) == 1) << s.ToString();
  }

  uint64_t Leaves() {
    uint64_t n = 0;
    EXPECT_TRUE(tree_->LeafPages(&n).ok());
    return n;
  }

  // Next must return the shadow's first entry after *last (its first entry
  // when *last is unset), or NotFound when there is none. True when it
  // returned the expected entry, which becomes *last.
  bool ExpectNext(BTreeIterator* it, std::optional<Entry>* last) {
    auto want = last->has_value() ? shadow_.upper_bound(**last)
                                  : shadow_.begin();
    std::string key, value;
    Status s = it->Next(&key, &value);
    if (want == shadow_.end()) {
      EXPECT_TRUE(s.IsNotFound()) << s.ToString() << " " << key;
      return false;
    }
    if (!s.ok()) {
      ADD_FAILURE() << s.ToString() << ", expected " << want->first;
      return false;
    }
    if (Entry(key, value) != *want) {
      ADD_FAILURE() << "got " << key << ", expected " << want->first;
      return false;
    }
    *last = *want;
    return true;
  }

  TempDir dir_;
  PageFile pf_;
  std::unique_ptr<BufferPool> bp_;
  PageId anchor_ = kInvalidPageId;
  std::unique_ptr<BTree> tree_;
  std::set<Entry> shadow_;
};

TEST_P(BTreeCursorTest, SplitWithPositionInLeftHalf) {
  // Ten 400-byte entries fill half a leaf. Inserting right after the
  // first one splits the leaf and keeps the position in the left half.
  const std::string wide(400, 'w');
  for (int i = 0; i < 10; ++i) Insert({Key(i), wide});
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::optional<Entry> last;
  ASSERT_TRUE(ExpectNext(it.get(), &last));
  const uint64_t leaves = Leaves();
  for (int j = 10; j < 30; ++j) {
    Insert({Key(0) + "a" + std::to_string(j), wide});
  }
  EXPECT_GT(Leaves(), leaves);
  while (ExpectNext(it.get(), &last)) {
  }
  EXPECT_FALSE(HasFailure());
  EXPECT_EQ(last->first, Key(9));
}

TEST_P(BTreeCursorTest, SplitWithPositionInRightHalf) {
  // Inserting just before the ninth of ten entries splits the leaf and
  // moves the position to the new right sibling: every entry left in the
  // cursor's leaf sorts before it, so the cursor re-descends.
  const std::string wide(400, 'w');
  for (int i = 0; i < 10; ++i) Insert({Key(i), wide});
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::optional<Entry> last;
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(ExpectNext(it.get(), &last));
  ASSERT_EQ(last->first, Key(8));
  const uint64_t leaves = Leaves();
  for (int j = 10; j < 30; ++j) {
    Insert({Key(7) + "b" + std::to_string(j), wide});
  }
  EXPECT_GT(Leaves(), leaves);
  ASSERT_TRUE(ExpectNext(it.get(), &last));
  EXPECT_EQ(last->first, Key(9));
  EXPECT_FALSE(ExpectNext(it.get(), &last));
  EXPECT_FALSE(HasFailure());
}

TEST_P(BTreeCursorTest, MatchesShadowUnderEditsBetweenNexts) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()));
  auto value = [&] {
    return std::string(20 + rng() % 100, static_cast<char>('a' + rng() % 26));
  };
  for (int i = 0; i < 1500; ++i) Insert({Key(rng() % 3000), value()});
  std::unique_ptr<BTreeIterator> it;
  ASSERT_TRUE(tree_->NewIterator(&it).ok());
  std::optional<Entry> last;
  int splits = 0, restores = 0, returned = 0;
  const std::string wide(300, 'w');
  while (ExpectNext(it.get(), &last)) {
    ++returned;
    ASSERT_LT(returned, 50000) << "the scan should reach the end";
    const Entry pos = *last;
    const int n = std::atoi(pos.first.c_str() + 1);
    switch (rng() % 20) {
      case 0:
      case 1:  // before the position, in its leaf unless at a leaf edge
        Insert({pos.first, ""});
        Insert({Key(n - 1), value()});
        break;
      case 2:
      case 3:  // right after the position
        Insert({pos.first, pos.second + "z"});
        break;
      case 4: {  // enough wide entries on one side to split the leaf
        const uint64_t leaves = Leaves();
        const bool after = rng() % 2 == 0;
        for (int j = 0; j < 24; ++j) {
          const std::string tag = std::to_string(rng() % 1000);
          Insert(after ? Entry(pos.first + "." + tag, wide)
                       : Entry(Key(n - 1) + "~" + tag, wide));
        }
        splits += Leaves() > leaves;
        break;
      }
      case 5:
      case 6:  // delete at the position
        Remove(pos);
        break;
      case 7:  // delete and re-insert it
        Remove(pos);
        Insert(pos);
        break;
      case 8: {  // save, advance, restore: Next resumes after the save
        std::string saved;
        it->SavePosition(&saved);
        if (ExpectNext(it.get(), &last)) ++returned;
        ASSERT_TRUE(it->RestorePosition(Slice(saved)).ok());
        last = pos;
        ++restores;
        break;
      }
      case 9: {  // the saved position restored into a fresh iterator
        std::string saved;
        it->SavePosition(&saved);
        ASSERT_TRUE(tree_->NewIterator(&it).ok());
        ASSERT_TRUE(it->RestorePosition(Slice(saved)).ok());
        ++restores;
        break;
      }
      case 10:
      case 11: {  // elsewhere in the tree (evicts the leaf in a small pool)
        Insert({Key(rng() % 3000), value()});
        if (!shadow_.empty()) {
          Remove(*std::next(shadow_.begin(),
                            static_cast<long>(rng() % shadow_.size())));
        }
        break;
      }
      default:
        break;
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_FALSE(HasFailure());
  EXPECT_GT(returned, 1000);
  EXPECT_GT(splits, 5);
  EXPECT_GT(restores, 10);
  std::vector<std::string> problems;
  uint64_t entries = 0;
  ASSERT_TRUE(tree_->Verify(&problems, &entries).ok());
  EXPECT_TRUE(problems.empty()) << problems.front();
  EXPECT_EQ(entries, shadow_.size());
}

INSTANTIATE_TEST_SUITE_P(PoolFrames, BTreeCursorTest,
                         ::testing::Values(size_t{8}, size_t{512}));

// The same edits through the Database, in the scanning transaction: a
// `btree` storage-method scan and a `btree_index` scan on a heap relation
// run side by side over the same rows, and a savepoint rollback undoes
// edits and restores both positions.
class BTreeCursorDbTest : public ::testing::TestWithParam<size_t> {
 protected:
  using IndexEntry = std::pair<std::string, std::string>;

  BTreeCursorDbTest() : dir_("btree_cursor_db") {
    options_.dir = dir_.path();
    options_.buffer_pool_pages = GetParam();
    EXPECT_TRUE(Database::Open(options_, &db_).ok());
  }

  struct Keys {
    std::string b;  // btree storage-method record key
    std::string h;  // heap record key
  };

  // Rows (k, g): relation b is btree-organized on k, relation h is a heap
  // with a btree_index on g. g sorts like k, so both scans walk k order.
  // Wide rows and index keys put a few dozen entries in a leaf, so a burst
  // of inserts splits the leaf under a scan.
  static std::vector<Value> Row(int64_t k) {
    char g[24];
    snprintf(g, sizeof(g), "g%09lld", static_cast<long long>(k));
    return {Value::Int(k), Value::String(g + std::string(200, 'x')),
            Value::String(std::string(300, 'p'))};
  }

  static std::string IndexKey(int64_t k) {
    std::string out;
    EXPECT_TRUE(EncodeKeyValue(Row(k)[1], &out).ok());
    return out;
  }

  void InsertRow(Transaction* txn, int64_t k) {
    if (rows_.count(k) != 0) return;
    Keys keys;
    ASSERT_TRUE(db_->Insert(txn, "b", Row(k), &keys.b).ok());
    ASSERT_TRUE(db_->Insert(txn, "h", Row(k), &keys.h).ok());
    sb_.insert(keys.b);
    sh_.emplace(IndexKey(k), keys.h);
    rows_[k] = keys;
  }

  void DeleteRow(Transaction* txn, int64_t k) {
    auto it = rows_.find(k);
    if (it == rows_.end()) return;
    ASSERT_TRUE(db_->Delete(txn, "b", Slice(it->second.b)).ok());
    ASSERT_TRUE(db_->Delete(txn, "h", Slice(it->second.h)).ok());
    sb_.erase(it->second.b);
    sh_.erase({IndexKey(k), it->second.h});
    rows_.erase(it);
  }

  // Next must return the shadow's first entry after *last, or NotFound
  // when there is none; true when it returned that entry.
  template <typename Shadow, typename EntryOf>
  static bool ExpectNext(Scan* scan, const Shadow& shadow,
                         std::optional<typename Shadow::value_type>* last,
                         EntryOf entry_of) {
    auto want = last->has_value() ? shadow.upper_bound(**last)
                                  : shadow.begin();
    ScanItem item;
    Status s = scan->Next(&item);
    if (want == shadow.end()) {
      EXPECT_TRUE(s.IsNotFound()) << s.ToString();
      return false;
    }
    if (!s.ok() || entry_of(item) != *want) {
      ADD_FAILURE() << "scan diverged from the shadow: " << s.ToString();
      return false;
    }
    *last = *want;
    return true;
  }

  TempDir dir_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  std::map<int64_t, Keys> rows_;
  std::set<std::string> sb_;
  std::set<IndexEntry> sh_;
};

TEST_P(BTreeCursorDbTest, ScansMatchShadowUnderEditsBetweenNexts) {
  Schema schema({{"k", TypeId::kInt64, false},
                 {"g", TypeId::kString, false},
                 {"pad", TypeId::kString, false}});
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(
      db_->CreateRelation(txn, "b", schema, "btree", {{"key", "k"}}).ok());
  ASSERT_TRUE(db_->CreateRelation(txn, "h", schema, "heap", {}).ok());
  uint32_t instance = 0;
  ASSERT_TRUE(db_->CreateAttachment(txn, "h", "btree_index",
                                    {{"fields", "g"}}, &instance)
                  .ok());
  for (int64_t i = 0; i < 400; ++i) InsertRow(txn, i * 1000);
  ASSERT_TRUE(db_->Commit(txn).ok());

  const PageId index_anchor = testing::BTreeIndexAnchor(db_.get(), "h",
                                                        instance);
  ASSERT_NE(index_anchor, kInvalidPageId);
  auto index_leaves = [&] {
    BTree index(db_->buffer_pool(), index_anchor);  // walks on first read
    uint64_t n = 0;
    EXPECT_TRUE(index.LeafPages(&n).ok());
    return n;
  };
  const uint64_t leaves_before = index_leaves();

  txn = db_->Begin();
  const RelationDescriptor* bdesc;
  const RelationDescriptor* hdesc;
  ASSERT_TRUE(db_->FindRelation("b", &bdesc).ok());
  ASSERT_TRUE(db_->FindRelation("h", &hdesc).ok());
  const int at = db_->registry()->FindAttachmentType("btree_index");
  ASSERT_GE(at, 0);
  std::unique_ptr<Scan> bscan, hscan;
  ASSERT_TRUE(db_->OpenScanOn(txn, bdesc, AccessPathId::StorageMethod(),
                              ScanSpec{}, &bscan)
                  .ok());
  ASSERT_TRUE(db_->OpenScanOn(txn, hdesc,
                              AccessPathId::Attachment(
                                  static_cast<AtId>(at), instance),
                              ScanSpec{}, &hscan)
                  .ok());
  auto b_entry = [](const ScanItem& item) { return item.record_key; };
  auto h_entry = [](const ScanItem& item) {
    return IndexEntry(item.access_key, item.record_key);
  };
  std::optional<std::string> blast;
  std::optional<IndexEntry> hlast;
  bool b_live = true, h_live = true;
  int rollbacks = 0, steps = 0;
  std::mt19937 rng(static_cast<uint32_t>(GetParam()));
  while (b_live || h_live) {
    ASSERT_LT(++steps, 20000) << "the scans should reach the end";
    // Edit around the position of one scan, then advance it.
    const bool use_b = h_live ? (b_live && rng() % 2 == 0) : true;
    int64_t k = 0;
    if (use_b && blast.has_value()) {
      Slice in(*blast);
      Value v;
      ASSERT_TRUE(DecodeKeyValue(&in, TypeId::kInt64, &v).ok());
      k = v.int_value();
    } else if (!use_b && hlast.has_value()) {
      k = std::atoll(hlast->first.c_str() + hlast->first.find('g') + 1);
    }
    switch (rng() % 24) {
      case 0:  // just before and just after the position
        InsertRow(txn, k - 1 - static_cast<int64_t>(rng() % 400));
        InsertRow(txn, k + 1 + static_cast<int64_t>(rng() % 400));
        break;
      case 1: {  // a burst on one side: splits the leaf in time
        const int64_t side = rng() % 2 ? 1 : -1;
        for (int j = 0; j < 12; ++j) {
          InsertRow(txn, k + side * (1 + static_cast<int64_t>(rng() % 900)));
        }
        break;
      }
      case 2:
      case 3:  // delete at the position
        DeleteRow(txn, k);
        break;
      case 4:  // delete and re-insert it
        DeleteRow(txn, k);
        InsertRow(txn, k);
        break;
      case 5: {  // the scan's own save and restore
        Scan* scan = use_b ? bscan.get() : hscan.get();
        std::string saved;
        ASSERT_TRUE(scan->SavePosition(&saved).ok());
        ASSERT_TRUE(scan->RestorePosition(Slice(saved)).ok());
        break;
      }
      case 6: {  // savepoint, edits and Nexts, then roll back to it
        ASSERT_TRUE(db_->Savepoint(txn, "sp").ok());
        const auto rows = rows_;
        const auto sb = sb_;
        const auto sh = sh_;
        const auto saved_blast = blast;
        const auto saved_hlast = hlast;
        for (int j = 0; j < 10; ++j) {
          InsertRow(txn, k + 1 + static_cast<int64_t>(rng() % 900));
        }
        DeleteRow(txn, k);
        if (b_live) ExpectNext(bscan.get(), sb_, &blast, b_entry);
        if (h_live) ExpectNext(hscan.get(), sh_, &hlast, h_entry);
        ASSERT_TRUE(db_->RollbackToSavepoint(txn, "sp").ok());
        rows_ = rows;
        sb_ = sb;
        sh_ = sh;
        blast = saved_blast;
        hlast = saved_hlast;
        ++rollbacks;
        break;
      }
      default:
        break;
    }
    if (HasFatalFailure()) return;
    if (use_b) {
      b_live = ExpectNext(bscan.get(), sb_, &blast, b_entry);
    } else {
      h_live = ExpectNext(hscan.get(), sh_, &hlast, h_entry);
    }
  }
  EXPECT_FALSE(HasFailure());
  EXPECT_GT(rollbacks, 10);
  EXPECT_GT(index_leaves(), leaves_before + 5);
  bscan.reset();
  hscan.reset();
  ASSERT_TRUE(db_->Commit(txn).ok());
  for (const char* rel : {"b", "h"}) {
    txn = db_->Begin();
    CheckResult check;
    ASSERT_TRUE(db_->CheckRelation(txn, rel, &check).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    EXPECT_TRUE(check.clean) << rel;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolPages, BTreeCursorDbTest,
                         ::testing::Values(size_t{16}, size_t{256}));

// -- maintained shape counts --------------------------------------------------

// BTree::EstimateRange against the true count of random ranges, on trees
// of height 1, 2 and 3 filled in random order (leaves half to fully
// packed): within 2x for widths from 0.1% to 50% of the entries, exact in
// a one-leaf tree, and the whole tree when both bounds are open.
TEST_F(BTreeTest, EstimateRangeIsWithinTwiceTheTrueCount) {
  struct Config {
    int entries;
    size_t padding;  // bytes appended to every key, to make a tree taller
    uint32_t height;
  };
  std::mt19937 rng(22);
  for (const Config& c : {Config{100, 0, 1}, Config{10000, 0, 2},
                          Config{20000, 40, 3}}) {
    PageId anchor;
    ASSERT_TRUE(BTree::Create(bp_.get(), &anchor).ok());
    BTree tree(bp_.get(), anchor);
    ASSERT_TRUE(tree.LoadCounts().ok());
    auto key = [&](int i) { return Key(i) + std::string(c.padding, 'p'); };
    std::vector<int> order(c.entries);
    for (int i = 0; i < c.entries; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (int i : order) {
      ASSERT_TRUE(tree.Insert(Slice(key(i)), Slice("v" + Key(i))).ok());
    }
    uint32_t height = 0;
    ASSERT_TRUE(tree.Height(&height).ok());
    ASSERT_EQ(height, c.height) << c.entries << " entries";

    double all = 0;
    ASSERT_TRUE(tree.EstimateRange(std::nullopt, std::nullopt, &all).ok());
    EXPECT_DOUBLE_EQ(all, c.entries);
    for (double width : {0.001, 0.01, 0.1, 0.5}) {
      const int count =
          std::max(1, static_cast<int>(std::lround(width * c.entries)));
      std::uniform_int_distribution<int> start(0, c.entries - count);
      for (int trial = 0; trial < 25; ++trial) {
        const int low = start(rng);
        double estimate = 0;
        ASSERT_TRUE(tree.EstimateRange(key(low), key(low + count - 1),
                                       &estimate)
                        .ok());
        if (c.height == 1) {
          EXPECT_EQ(estimate, count);
        } else {
          EXPECT_GE(estimate, count / 2.0)
              << "height " << c.height << ", [" << low << ", "
              << low + count - 1 << "]";
          EXPECT_LE(estimate, count * 2.0)
              << "height " << c.height << ", [" << low << ", "
              << low + count - 1 << "]";
        }
      }
    }
  }
}

// The bounds of a range descend together and part where they route to
// different children: a key whose duplicates span several leaves is
// counted within 2x, a key between two stored ones counts 0, and a range
// whose low bound is above its high bound counts 0.
TEST_F(BTreeTest, EstimateRangeOfDuplicatesAndEmptyRanges) {
  constexpr int kKeys = 40, kDuplicates = 500;
  for (int i = 0; i < kKeys * kDuplicates; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(2 * (i % kKeys))),
                              Slice("v" + Key(i)))
                    .ok());
  }
  uint32_t height = 0;
  ASSERT_TRUE(tree_->Height(&height).ok());
  ASSERT_GE(height, 2u);
  for (int k : {0, 2 * (kKeys / 2), 2 * (kKeys - 1)}) {
    double n = 0;
    ASSERT_TRUE(tree_->EstimateRange(Key(k), Key(k), &n).ok());
    EXPECT_GE(n, kDuplicates / 2.0) << k;
    EXPECT_LE(n, kDuplicates * 2.0) << k;
    ASSERT_TRUE(tree_->EstimateRange(Key(k + 1), Key(k + 1), &n).ok());
    EXPECT_EQ(n, 0) << k + 1;
  }
  double n = -1;
  ASSERT_TRUE(tree_->EstimateRange(Key(20), Key(10), &n).ok());
  EXPECT_EQ(n, 0);
}

struct Shape {
  uint64_t entries = 0, leaves = 0;
  uint32_t height = 0;
  bool operator==(const Shape&) const = default;
};

Shape ShapeOf(BTree* tree) {
  Shape s;
  EXPECT_TRUE(tree->Count(&s.entries).ok());
  EXPECT_TRUE(tree->LeafPages(&s.leaves).ok());
  EXPECT_TRUE(tree->Height(&s.height).ok());
  return s;
}

TEST_F(BTreeTest, MaintainedCountsMatchTheWalkThroughChurn) {
  ASSERT_TRUE(tree_->LoadCounts().ok());
  std::mt19937 rng(7);
  // Wide values: few entries per node, so leaf and root splits both occur.
  const std::string pad(150, 'p');
  std::vector<std::pair<std::string, std::string>> live;  // distinct pairs
  std::set<std::pair<std::string, std::string>> present;
  uint32_t max_height = 0;
  for (int step = 0; step < 6000; ++step) {
    const int action = static_cast<int>(rng() % 10);
    if (action < 6 || live.empty()) {
      std::string key = Key(static_cast<int>(rng() % 4000));
      std::string value = pad + std::to_string(rng() % 3);  // duplicates
      ASSERT_TRUE(tree_->Insert(Slice(key), Slice(value)).ok());
      if (present.emplace(key, value).second) live.emplace_back(key, value);
    } else if (action < 8) {
      const size_t i = rng() % live.size();
      // Removed once for real, then replayed idempotently (logical redo).
      ASSERT_TRUE(
          tree_->Remove(Slice(live[i].first), Slice(live[i].second)).ok());
      ASSERT_TRUE(tree_->Remove(Slice(live[i].first), Slice(live[i].second),
                                /*idempotent=*/true)
                      .ok());
      EXPECT_TRUE(
          tree_->Remove(Slice(live[i].first), Slice(live[i].second))
              .IsNotFound());
      present.erase(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else if (action == 8) {
      // Exact (key, value) replay: an idempotent no-op.
      const auto& [key, value] = live[rng() % live.size()];
      ASSERT_TRUE(tree_->Insert(Slice(key), Slice(value)).ok());
    } else {
      // A unique-constraint veto changes nothing.
      const auto& [key, value] = live[rng() % live.size()];
      EXPECT_TRUE(
          tree_->Insert(Slice(key), Slice(value + "x"), /*unique=*/true)
              .IsConstraint());
    }
    if (step % 500 == 499) {
      const Shape kept = ShapeOf(tree_.get());
      BTree walker(bp_.get(), anchor_);  // its first read walks the tree
      ASSERT_EQ(kept, ShapeOf(&walker)) << "step " << step;
      max_height = std::max(max_height, kept.height);
      std::vector<std::string> problems;
      uint64_t entries = 0;
      ASSERT_TRUE(tree_->Verify(&problems, &entries).ok());
      EXPECT_TRUE(problems.empty()) << problems.front();
      EXPECT_EQ(entries, kept.entries);
    }
  }
  EXPECT_GE(max_height, 3u) << "churn should split internal nodes too";
}

TEST_F(BTreeTest, VerifyReportsMaintainedCountDrift) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice(Key(i)), Slice("v")).ok());
  }
  ASSERT_TRUE(tree_->LoadCounts().ok());
  // A second handle on the same anchor writes behind the first one's back.
  BTree stray(bp_.get(), anchor_);
  ASSERT_TRUE(stray.Insert(Slice("stray"), Slice("v")).ok());
  std::vector<std::string> problems;
  uint64_t entries = 0;
  ASSERT_TRUE(tree_->Verify(&problems, &entries).ok());
  EXPECT_EQ(entries, 101u);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("entry count mismatch: walk finds 101, "
                             "maintained count says 100"),
            std::string::npos)
      << problems[0];
}

// Through the Database: rollback, restart and REPAIR all reach the counts
// via logical redo/undo or a fresh open, and CHECK — which cross-checks
// the counts against its walk — stays clean.
class BTreeCountsDbTest : public ::testing::Test {
 protected:
  BTreeCountsDbTest() : dir_("btree_counts") {
    options_.dir = dir_.path();
    EXPECT_TRUE(Database::Open(options_, &db_).ok());
  }

  static std::vector<Value> Row(int64_t k) {
    return {Value::Int(k), Value::String("g" + std::to_string(k % 37))};
  }

  void ExpectClean(const std::string& rel) {
    Transaction* txn = db_->Begin();
    CheckResult check;
    ASSERT_TRUE(db_->CheckRelation(txn, rel, &check).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    for (const CheckFinding& f : check.findings) {
      ADD_FAILURE() << rel << ": " << f.component << ": " << f.detail;
    }
    EXPECT_TRUE(check.clean) << rel;
  }

  TempDir dir_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
};

TEST_F(BTreeCountsDbTest, CountsSurviveRollbackRestartAndRepair) {
  Schema schema({{"k", TypeId::kInt64, false}, {"g", TypeId::kString, true}});
  Transaction* ddl = db_->Begin();
  ASSERT_TRUE(db_->CreateRelation(ddl, "t", schema, "heap", {}).ok());
  ASSERT_TRUE(db_->CreateAttachment(ddl, "t", "btree_index",
                                    {{"fields", "g"}})  // duplicate keys
                  .ok());
  ASSERT_TRUE(
      db_->CreateRelation(ddl, "b", schema, "btree", {{"key", "k"}}).ok());
  ASSERT_TRUE(db_->Commit(ddl).ok());

  std::mt19937 rng(11);
  std::vector<std::string> t_keys, b_keys;
  int64_t next = 0;
  auto churn = [&](Transaction* txn, int steps) {
    for (int i = 0; i < steps; ++i) {
      if (rng() % 4 != 0 || t_keys.empty()) {
        std::string tk, bk;
        ASSERT_TRUE(db_->Insert(txn, "t", Row(next), &tk).ok());
        ASSERT_TRUE(db_->Insert(txn, "b", Row(next), &bk).ok());
        ++next;
        t_keys.push_back(std::move(tk));
        b_keys.push_back(std::move(bk));
      } else {
        const size_t i_t = rng() % t_keys.size();
        const size_t i_b = rng() % b_keys.size();
        ASSERT_TRUE(db_->Delete(txn, "t", Slice(t_keys[i_t])).ok());
        ASSERT_TRUE(db_->Delete(txn, "b", Slice(b_keys[i_b])).ok());
        t_keys[i_t] = t_keys.back();
        t_keys.pop_back();
        b_keys[i_b] = b_keys.back();
        b_keys.pop_back();
      }
    }
  };

  Transaction* txn = db_->Begin();
  churn(txn, 3000);
  ASSERT_TRUE(db_->Commit(txn).ok());

  // Savepoint rollback: the undo goes through Insert/Remove.
  txn = db_->Begin();
  churn(txn, 200);
  ASSERT_TRUE(db_->Savepoint(txn, "sp").ok());
  const auto t_saved = t_keys;
  const auto b_saved = b_keys;
  churn(txn, 1500);
  ASSERT_TRUE(db_->RollbackToSavepoint(txn, "sp").ok());
  t_keys = t_saved;
  b_keys = b_saved;
  ASSERT_TRUE(db_->Commit(txn).ok());
  ExpectClean("t");
  ExpectClean("b");

  // Restart with a loser: its flushed records are redone, then undone.
  Transaction* loser = db_->Begin();
  churn(loser, 800);
  txn = db_->Begin();  // a strict commit flushes the loser's records too
  ASSERT_TRUE(db_->Insert(txn, "t", Row(next++)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  db_->SimulateCrashOnClose();
  db_.reset();
  ASSERT_TRUE(Database::Open(options_, &db_).ok());
  ExpectClean("t");
  ExpectClean("b");

  // Drift planted behind the index's back is a CHECK finding; REPAIR
  // rebuilds the index and the counts with it.
  const PageId anchor = testing::BTreeIndexAnchor(db_.get(), "t", 1);
  ASSERT_NE(anchor, kInvalidPageId);
  BTree stray(db_->buffer_pool(), anchor);
  ASSERT_TRUE(stray.Insert(Slice("stray"), Slice("key")).ok());
  txn = db_->Begin();
  CheckResult check;
  ASSERT_TRUE(db_->CheckRelation(txn, "t", &check).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_FALSE(check.clean);
  bool drift_found = false;
  for (const CheckFinding& f : check.findings) {
    drift_found |= f.detail.find("entry count mismatch") != std::string::npos;
  }
  EXPECT_TRUE(drift_found);
  txn = db_->Begin();
  RepairResult repair;
  ASSERT_TRUE(db_->RepairRelation(txn, "t", &repair).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(repair.repaired.size(), 1u);
  ExpectClean("t");
}

}  // namespace
}  // namespace dmx
