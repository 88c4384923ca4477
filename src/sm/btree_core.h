// BTree: shared page-based B+-tree used by the "btree" storage method
// (records stored in the leaves) and by the B-tree index attachment
// (index key -> record key mappings).
//
// Entries are (key, value) byte-string pairs, ordered by (key, value) so
// duplicate keys are supported deterministically. Leaves are chained for
// key-sequential access. An anchor page (whose id never changes and is what
// descriptors reference) stores the current root page id, so root splits do
// not mutate descriptors.
//
// Concurrency: callers serialize through the lock manager (record/relation
// locks); the tree itself performs no latching beyond buffer-pool pins.
// Shape counts (entries, leaf pages, height) are maintained in atomics so
// the planner can read them at any time without walking the tree.
// Recovery: callers log *logical* operations; BTree::Insert/Remove are
// idempotent (insert skips an already-present (key,value); remove of an
// absent entry is a no-op success when `idempotent` is set), which makes
// logical redo/undo safe. Structural changes (splits) are not themselves
// logged — see DESIGN.md for the crash-consistency discussion.

#ifndef DMX_SM_BTREE_CORE_H_
#define DMX_SM_BTREE_CORE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dmx {

class BTreeIterator;

class BTree {
 public:
  /// Allocate anchor + empty root leaf; returns the anchor page id.
  static Status Create(BufferPool* bp, PageId* anchor);

  /// Free every page of the tree including the anchor.
  static Status Destroy(BufferPool* bp, PageId anchor);

  BTree(BufferPool* bp, PageId anchor) : bp_(bp), anchor_(anchor) {}

  /// Insert (key, value). If `unique` and an entry with equal key (any
  /// value) exists, fails with Constraint. If the exact (key, value) pair
  /// exists already, succeeds without change (logical idempotence).
  Status Insert(const Slice& key, const Slice& value, bool unique = false);

  /// Remove the exact (key, value) entry. Absent entry: NotFound, unless
  /// `idempotent` (recovery replay) in which case OK.
  Status Remove(const Slice& key, const Slice& value,
                bool idempotent = false);

  /// All values for `key`, in value order.
  Status Lookup(const Slice& key, std::vector<std::string>* values);

  /// True if any entry with `key` exists.
  Status Contains(const Slice& key, bool* found);

  /// Iterator positioned before the first entry with key >= `low`
  /// (or the tree start if `low` is unset).
  Status NewIterator(std::unique_ptr<BTreeIterator>* it,
                     const std::optional<std::string>& low = std::nullopt,
                     bool low_inclusive = true);

  /// Walk the leftmost spine and the leaf chain once and load the shape
  /// counts; from then on Insert and Remove keep them current. Owners
  /// call this when they open the tree, before any writer can reach it,
  /// so no insert slips between the walk and the first maintained update.
  /// On failure (an unreadable page) the counts stay unloaded and the
  /// next reader retries the walk.
  Status LoadCounts();

  /// Entry count, leaf page count and height (1 = root is a leaf): the
  /// maintained counts, O(1) once loaded (see LoadCounts).
  Status Count(uint64_t* n);
  Status LeafPages(uint64_t* n);
  Status Height(uint32_t* h);

  /// Structural consistency sweep (CHECK support): validates node types,
  /// entry parse and ordering, separator bounds, uniform leaf depth, and
  /// the leaf chain, then (on a clean sweep) that the maintained counts
  /// match what the sweep saw. Findings — including unreadable
  /// (CRC-failing) pages — are appended to *problems; *entries receives
  /// the number of leaf entries seen. Returns non-OK only when the sweep
  /// itself cannot run.
  Status Verify(std::vector<std::string>* problems, uint64_t* entries);

  /// Estimated number of entries whose key k has low <= k <= high (an
  /// unset bound is open): the classic records-in-range estimate. A
  /// descent towards both bounds, which part only where they route to
  /// different children, turns the child position and fan-out met at each
  /// level into a fraction of the maintained entry count, so it reads at
  /// most 2 x height pages; when both bounds land in one leaf the count is
  /// exact.
  Status EstimateRange(const std::optional<std::string>& low,
                       const std::optional<std::string>& high, double* n);

  /// Up to `target - 1` composite separator entries (key + value, the
  /// internal-node form; split with BTreeSplitEntry) that cut the tree
  /// into roughly equal key ranges, in ascending order. Descends from the
  /// root until one internal level yields enough separators, then
  /// downsamples evenly. Empty result when the root is a leaf. Used by
  /// scan partitioning; exactness of the placement is a balance question
  /// only — every range boundary is a real entry boundary.
  Status SeparatorKeys(int target, std::vector<std::string>* seps);

  BufferPool* buffer_pool() const { return bp_; }
  PageId anchor() const { return anchor_; }

 private:
  friend class BTreeIterator;

  Status RootPage(PageId* root);
  Status SetRootPage(PageId root);
  /// Leaf whose key range holds the composite entry `composite`.
  Status FindLeaf(const Slice& composite, PageId* leaf);
  /// Load the counts unless already loaded.
  Status EnsureCounts();

  BufferPool* bp_;
  PageId anchor_;
  // Shape counts; meaningful only once counted_ is set (stored after the
  // three counts).
  std::atomic<bool> counted_{false};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> leaves_{0};
  std::atomic<uint32_t> height_{0};
};

/// Key-sequential access over a BTree. Position = the composite
/// (key, value) of the last returned entry; Next returns the first entry
/// strictly greater, so deletions at the position leave the iterator
/// "just after" the deleted entry (the paper's scan semantics).
///
/// Entries are read in the pinned leaf; nothing is copied but the entry
/// being returned. Between calls the iterator remembers the leaf page, the
/// byte offset and index of the next entry there, and the frame's change
/// counter (PageHandle::version) when it took them. If the counter still
/// matches, the leaf is unchanged and Next decodes the entry at the offset.
/// Otherwise (an edit, a split, or an eviction and reload) it finds the
/// position again in the same leaf, and re-descends from the root only if
/// no entry of that leaf sorts at or after the position any more.
class BTreeIterator {
 public:
  BTreeIterator(BTree* tree, std::string position, bool position_exclusive)
      : tree_(tree),
        pos_(std::move(position)),
        exclusive_(position_exclusive) {}

  /// Advance; fills key/value; NotFound at end.
  Status Next(std::string* key, std::string* value);

  /// Serialize / restore the position (savepoint support).
  void SavePosition(std::string* out) const;
  Status RestorePosition(const Slice& pos);

 private:
  /// Point index_/offset_ at the first entry of the pinned leaf `h` after
  /// pos_ (or equal to it, unless exclusive_) and take its version. Sets
  /// *reached when some entry of the leaf sorts at or after pos_.
  Status Seek(const PageHandle& h, bool* reached = nullptr);

  BTree* tree_;
  std::string pos_;  // composite (key,value) encoding of last returned
  bool exclusive_;   // if false, an entry equal to pos_ may be returned
  PageId leaf_ = kInvalidPageId;  // leaf holding the next entry, if any
  uint16_t index_ = 0;            // that entry's index in the leaf
  size_t offset_ = 0;             // and its page offset
  uint64_t version_ = 0;          // leaf frame version index_/offset_ match
};

/// Decode the B-tree node on `page` and re-serialize it the way a split
/// does (ParseLeaf + WriteLeaf, or ParseInternal + WriteInternal), keeping
/// its LSN. Insert and Remove edit pages in place; every node they leave
/// must be byte-identical to this rewrite of itself, which the tests check.
Status BTreeRewriteNode(Page* page);

/// Composite entry encoding helpers (key + value, length-framed so the
/// composite ordering equals (key, value) lexicographic ordering).
std::string BTreeComposeEntry(const Slice& key, const Slice& value);
Status BTreeSplitEntry(const Slice& entry, std::string* key,
                       std::string* value);

}  // namespace dmx

#endif  // DMX_SM_BTREE_CORE_H_
