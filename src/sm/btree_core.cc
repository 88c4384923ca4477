#include "src/sm/btree_core.h"

#include <algorithm>
#include <cassert>

#include "src/util/coding.h"

namespace dmx {

namespace {

// Node layout after the 8-byte page LSN:
//   [8]      node type: 1 = leaf, 2 = internal
//   [9,11)   entry count (u16)
//   [11,15)  leaf: next-leaf page id; internal: leftmost child page id
//   [15..)   entries
// Leaf entries: varint32 length + composite bytes, sorted ascending.
// Internal entries: varint32 length + separator composite + u32 child;
// child subtree holds composites >= separator (leftmost holds the rest).
// Entries are packed from kEntriesOff with no gaps, and every byte after
// the last entry is zero.
//
// Descents, lookups, scans, a leaf insert that fits and a remove work on
// the page in place: they compare Slices into the page and memmove the
// packed entries, producing exactly the bytes WriteLeaf would (zeroed tail
// included). Only splits decode the node into a LeafNode/InternalNode and
// re-serialize it; Verify and BTreeRewriteNode decode to check it.
constexpr size_t kTypeOff = 8;
constexpr size_t kCountOff = 9;
constexpr size_t kLinkOff = 11;
constexpr size_t kEntriesOff = 15;
constexpr char kLeaf = 1;
constexpr char kInternal = 2;
// Split threshold: rewrite must always fit a page.
constexpr size_t kNodeCapacity = kPageSize - 64;

struct LeafNode {
  PageId next = kInvalidPageId;
  std::vector<std::string> entries;
};

struct InternalNode {
  PageId leftmost = kInvalidPageId;
  std::vector<std::pair<std::string, PageId>> entries;
};

char NodeType(const Page& p) { return p.data[kTypeOff]; }

uint16_t EntryCount(const Page& p) { return DecodeFixed16(p.data + kCountOff); }

PageId NodeLink(const Page& p) { return DecodeFixed32(p.data + kLinkOff); }

Status ParseLeaf(const Page& p, LeafNode* out) {
  out->next = NodeLink(p);
  uint16_t n = EntryCount(p);
  Slice in(p.data + kEntriesOff, kPageSize - kEntriesOff);
  out->entries.clear();
  out->entries.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    Slice e;
    if (!GetLengthPrefixedSlice(&in, &e)) {
      return Status::Corruption("btree leaf entry");
    }
    out->entries.push_back(e.ToString());
  }
  return Status::OK();
}

Status ParseInternal(const Page& p, InternalNode* out) {
  out->leftmost = NodeLink(p);
  uint16_t n = EntryCount(p);
  Slice in(p.data + kEntriesOff, kPageSize - kEntriesOff);
  out->entries.clear();
  out->entries.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    Slice sep;
    if (!GetLengthPrefixedSlice(&in, &sep)) {
      return Status::Corruption("btree internal separator");
    }
    uint32_t child;
    if (!GetFixed32(&in, &child)) {
      return Status::Corruption("btree internal child");
    }
    out->entries.emplace_back(sep.ToString(), child);
  }
  return Status::OK();
}

// Where `composite` falls among a leaf's packed entries, found by walking
// the page without copying an entry.
struct LeafSlot {
  size_t offset = 0;   // page offset of the first entry >= composite
  uint16_t index = 0;  // and its index (the entry count if none is)
  size_t length = 0;   // encoded size of that entry (prefix + bytes)
  bool equal = false;  // that entry is `composite` itself
  size_t end = 0;      // page offset just past the last entry
  size_t payload = 0;  // summed entry lengths (for the split test)
};

Status LocateInLeaf(const Page& p, const Slice& composite, LeafSlot* out) {
  const uint16_t n = EntryCount(p);
  Slice in(p.data + kEntriesOff, kPageSize - kEntriesOff);
  bool placed = false;
  for (uint16_t i = 0; i < n; ++i) {
    const size_t offset = kPageSize - in.size();
    Slice e;
    if (!GetLengthPrefixedSlice(&in, &e)) {
      return Status::Corruption("btree leaf entry");
    }
    out->payload += e.size();
    if (!placed && e.compare(composite) >= 0) {
      placed = true;
      out->offset = offset;
      out->index = i;
      out->length = kPageSize - in.size() - offset;
      out->equal = e == composite;
    }
  }
  out->end = kPageSize - in.size();
  if (!placed) {
    out->offset = out->end;
    out->index = n;
  }
  return Status::OK();
}

// The child of internal node `p` whose subtree holds `composite` (the last
// separator <= composite; the leftmost child when there is none), compared
// in the page. `*pos` is 0 for the leftmost child, i + 1 for entry i's.
Status ChildFor(const Page& p, const Slice& composite, PageId* child,
                size_t* pos) {
  *child = NodeLink(p);
  *pos = 0;
  const uint16_t n = EntryCount(p);
  Slice in(p.data + kEntriesOff, kPageSize - kEntriesOff);
  for (uint16_t i = 0; i < n; ++i) {
    Slice sep;
    uint32_t ch;
    if (!GetLengthPrefixedSlice(&in, &sep)) {
      return Status::Corruption("btree internal separator");
    }
    if (!GetFixed32(&in, &ch)) {
      return Status::Corruption("btree internal child");
    }
    if (composite.compare(sep) < 0) break;
    *child = ch;
    *pos = i + 1u;
  }
  return Status::OK();
}

// Where a range bound falls in the tree: the leaf it routes to, how many
// of that leaf's entries sort before it, and its position as a fraction of
// all entries, taking each node's children (a leaf's entries) to hold equal
// shares of the node's own share.
struct BoundPosition {
  PageId leaf = kInvalidPageId;
  uint16_t index = 0;
  double fraction = 0;
};

// Descend from `node`, which holds `share` of all entries, towards the
// composite bounds `lo` and `hi` at once (a null bound sorts after every
// entry), adding each one's position to `from` and `to`; with a null `to`,
// towards `lo` alone. One walk over a node's packed entries places both
// bounds and stops at the first entry past both; where the bounds route to
// different children, `hi` descends on alone. A `hi` below `lo` takes
// `lo`'s position, so the range between them holds nothing.
Status LocateBounds(BufferPool* bp, PageId node, double share,
                    const std::string* lo, const std::string* hi,
                    BoundPosition* from, BoundPosition* to) {
  if (to == nullptr) hi = lo;
  while (true) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp->Fetch(node, &h));
    const Page& p = *h.page();
    const uint16_t n = EntryCount(p);
    const bool leaf = NodeType(p) == kLeaf;
    // An entry lies below a bound when the bound's position is after it: a
    // leaf entry that sorts before the bound, or a separator <= the bound
    // (its child's subtree holds the bound).
    auto below = [leaf](const Slice& e, const std::string* bound) {
      if (bound == nullptr) return true;
      const int c = e.compare(Slice(*bound));
      return leaf ? c < 0 : c <= 0;
    };
    uint16_t lo_pos = 0, hi_pos = 0;
    PageId lo_child = NodeLink(p), hi_child = lo_child;
    Slice in(p.data + kEntriesOff, kPageSize - kEntriesOff);
    for (uint16_t i = 0; i < n; ++i) {
      Slice e;
      uint32_t child = kInvalidPageId;
      if (!GetLengthPrefixedSlice(&in, &e) ||
          (!leaf && !GetFixed32(&in, &child))) {
        return Status::Corruption("btree node entry");
      }
      if (below(e, lo)) {  // then below `hi` too
        lo_pos = hi_pos = i + 1u;
        lo_child = hi_child = child;
        continue;
      }
      if (!below(e, hi)) break;
      hi_pos = i + 1u;
      hi_child = child;
    }
    h.Release();
    if (leaf) {
      auto place = [&](BoundPosition* out, uint16_t index) {
        out->leaf = node;
        out->index = index;
        if (n > 0) out->fraction += share * index / n;
      };
      place(from, lo_pos);
      if (to != nullptr) place(to, hi_pos);
      return Status::OK();
    }
    share /= n + 1.0;
    from->fraction += share * static_cast<double>(lo_pos);
    if (to != nullptr) {
      to->fraction += share * static_cast<double>(hi_pos);
      if (hi_child != lo_child) {
        DMX_RETURN_IF_ERROR(
            LocateBounds(bp, hi_child, share, hi, nullptr, to, nullptr));
        to = nullptr;
        hi = lo;
      }
    }
    node = lo_child;
  }
}

void SetEntryCount(Page* p, uint16_t count) {
  memcpy(p->data + kCountOff, &count, 2);
}

size_t SerializedInternalSize(const InternalNode& n) {
  size_t s = kEntriesOff;
  for (const auto& [sep, child] : n.entries) s += 5 + sep.size() + 4;
  return s;
}

void WriteLeaf(Page* p, const LeafNode& n, Lsn keep_lsn) {
  memset(p->data + 8, 0, kPageSize - 8);
  SetPageLsn(p, keep_lsn);
  p->data[kTypeOff] = kLeaf;
  uint16_t count = static_cast<uint16_t>(n.entries.size());
  memcpy(p->data + kCountOff, &count, 2);
  memcpy(p->data + kLinkOff, &n.next, 4);
  std::string body;
  for (const auto& e : n.entries) PutLengthPrefixedSlice(&body, e);
  assert(kEntriesOff + body.size() <= kPageSize);
  memcpy(p->data + kEntriesOff, body.data(), body.size());
}

void WriteInternal(Page* p, const InternalNode& n, Lsn keep_lsn) {
  memset(p->data + 8, 0, kPageSize - 8);
  SetPageLsn(p, keep_lsn);
  p->data[kTypeOff] = kInternal;
  uint16_t count = static_cast<uint16_t>(n.entries.size());
  memcpy(p->data + kCountOff, &count, 2);
  memcpy(p->data + kLinkOff, &n.leftmost, 4);
  std::string body;
  for (const auto& [sep, child] : n.entries) {
    PutLengthPrefixedSlice(&body, sep);
    PutFixed32(&body, child);
  }
  assert(kEntriesOff + body.size() <= kPageSize);
  memcpy(p->data + kEntriesOff, body.data(), body.size());
}

}  // namespace

Status BTreeRewriteNode(Page* page) {
  if (NodeType(*page) == kLeaf) {
    LeafNode n;
    DMX_RETURN_IF_ERROR(ParseLeaf(*page, &n));
    WriteLeaf(page, n, PageLsn(*page));
    return Status::OK();
  }
  if (NodeType(*page) == kInternal) {
    InternalNode n;
    DMX_RETURN_IF_ERROR(ParseInternal(*page, &n));
    WriteInternal(page, n, PageLsn(*page));
    return Status::OK();
  }
  return Status::InvalidArgument("not a btree node");
}

std::string BTreeComposeEntry(const Slice& key, const Slice& value) {
  // Escape 0x00 in the key as 0x00 0xFF and terminate with 0x00 0x00 so
  // that composite memcmp order equals (key, value) lexicographic order.
  std::string out;
  out.reserve(key.size() + value.size() + 2);
  for (size_t i = 0; i < key.size(); ++i) {
    out.push_back(key[i]);
    if (key[i] == '\0') out.push_back('\xff');
  }
  out.push_back('\0');
  out.push_back('\0');
  out.append(value.data(), value.size());
  return out;
}

Status BTreeSplitEntry(const Slice& entry, std::string* key,
                       std::string* value) {
  key->clear();
  size_t i = 0;
  while (i < entry.size()) {
    if (entry[i] == '\0') {
      if (i + 1 >= entry.size()) return Status::Corruption("btree composite");
      if (entry[i + 1] == '\0') {
        value->assign(entry.data() + i + 2, entry.size() - i - 2);
        return Status::OK();
      }
      key->push_back('\0');
      i += 2;
    } else {
      key->push_back(entry[i]);
      ++i;
    }
  }
  return Status::Corruption("btree composite unterminated");
}

Status BTree::Create(BufferPool* bp, PageId* anchor) {
  PageId root;
  PageHandle rh;
  DMX_RETURN_IF_ERROR(bp->New(&root, &rh));
  LeafNode empty;
  WriteLeaf(rh.page(), empty, kInvalidLsn);
  rh.MarkDirty();

  PageHandle ah;
  DMX_RETURN_IF_ERROR(bp->New(anchor, &ah));
  memcpy(ah.page()->data + 8, &root, 4);
  ah.MarkDirty();
  return Status::OK();
}

Status BTree::Destroy(BufferPool* bp, PageId anchor) {
  PageId root;
  {
    PageHandle ah;
    DMX_RETURN_IF_ERROR(bp->Fetch(anchor, &ah));
    root = DecodeFixed32(ah.page()->data + 8);
  }
  // Iterative DFS freeing all nodes.
  std::vector<PageId> stack = {root};
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    {
      PageHandle h;
      DMX_RETURN_IF_ERROR(bp->Fetch(id, &h));
      if (NodeType(*h.page()) == kInternal) {
        InternalNode n;
        DMX_RETURN_IF_ERROR(ParseInternal(*h.page(), &n));
        stack.push_back(n.leftmost);
        for (const auto& [sep, child] : n.entries) stack.push_back(child);
      }
    }
    DMX_RETURN_IF_ERROR(bp->FreePage(id));
  }
  return bp->FreePage(anchor);
}

Status BTree::RootPage(PageId* root) {
  PageHandle ah;
  DMX_RETURN_IF_ERROR(bp_->Fetch(anchor_, &ah));
  *root = DecodeFixed32(ah.page()->data + 8);
  return Status::OK();
}

Status BTree::SetRootPage(PageId root) {
  PageHandle ah;
  DMX_RETURN_IF_ERROR(bp_->Fetch(anchor_, &ah));
  memcpy(ah.page()->data + 8, &root, 4);
  ah.MarkDirty();
  return Status::OK();
}

Status BTree::FindLeaf(const Slice& composite, PageId* leaf) {
  PageId node;
  DMX_RETURN_IF_ERROR(RootPage(&node));
  while (true) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(node, &h));
    if (NodeType(*h.page()) == kLeaf) {
      *leaf = node;
      return Status::OK();
    }
    size_t pos;
    DMX_RETURN_IF_ERROR(ChildFor(*h.page(), composite, &node, &pos));
  }
}

namespace {

struct SplitResult {
  std::string separator;
  PageId right;
};

}  // namespace

// Recursive insert helper declared here to keep BTree's header small.
namespace {

Status InsertRec(BufferPool* bp, PageId node, const std::string& composite,
                 std::optional<SplitResult>* split, bool* inserted,
                 bool* leaf_split) {
  PageHandle h;
  DMX_RETURN_IF_ERROR(bp->Fetch(node, &h));
  if (NodeType(*h.page()) == kLeaf) {
    Page* page = h.page();
    LeafSlot slot;
    DMX_RETURN_IF_ERROR(LocateInLeaf(*page, Slice(composite), &slot));
    if (slot.equal) {
      *inserted = false;  // exact (key,value) already present: idempotent
      return Status::OK();
    }
    // Split test: the grown node's size, counting every length prefix at
    // its 5-byte worst case (as SerializedInternalSize does).
    const uint16_t count = EntryCount(*page);
    const size_t grown =
        kEntriesOff + 5 * (count + 1u) + slot.payload + composite.size();
    if (grown <= kNodeCapacity || count == 0) {
      // Fits: shift the entries after the slot up and write it in place.
      std::string prefix;
      PutVarint32(&prefix, static_cast<uint32_t>(composite.size()));
      const size_t add = prefix.size() + composite.size();
      assert(slot.end + add <= kPageSize);
      char* at = page->data + slot.offset;
      memmove(at + add, at, slot.end - slot.offset);
      memcpy(at, prefix.data(), prefix.size());
      memcpy(at + prefix.size(), composite.data(), composite.size());
      SetEntryCount(page, static_cast<uint16_t>(count + 1));
      h.MarkDirty();
      *inserted = true;
      *leaf_split = false;
      return Status::OK();
    }
    // Too full: decode, insert, and split the right half to a fresh page.
    LeafNode leaf;
    DMX_RETURN_IF_ERROR(ParseLeaf(*page, &leaf));
    auto it = std::lower_bound(leaf.entries.begin(), leaf.entries.end(),
                               composite);
    leaf.entries.insert(it, composite);
    size_t mid = leaf.entries.size() / 2;
    LeafNode right;
    right.entries.assign(leaf.entries.begin() + mid, leaf.entries.end());
    leaf.entries.resize(mid);
    right.next = leaf.next;
    PageId right_id;
    PageHandle rh;
    DMX_RETURN_IF_ERROR(bp->New(&right_id, &rh));
    leaf.next = right_id;
    WriteLeaf(rh.page(), right, kInvalidLsn);
    rh.MarkDirty();
    *split = SplitResult{right.entries.front(), right_id};
    WriteLeaf(page, leaf, PageLsn(*page));
    h.MarkDirty();
    *inserted = true;
    *leaf_split = true;
    return Status::OK();
  }

  PageId child;
  size_t child_pos;  // 0 = leftmost, i+1 = entries[i].child
  DMX_RETURN_IF_ERROR(
      ChildFor(*h.page(), Slice(composite), &child, &child_pos));
  std::optional<SplitResult> child_split;
  DMX_RETURN_IF_ERROR(
      InsertRec(bp, child, composite, &child_split, inserted, leaf_split));
  if (!child_split.has_value()) return Status::OK();

  // A child split adds a separator here: decode, insert, re-serialize.
  InternalNode n;
  DMX_RETURN_IF_ERROR(ParseInternal(*h.page(), &n));
  n.entries.insert(n.entries.begin() + static_cast<long>(child_pos),
                   {child_split->separator, child_split->right});
  if (SerializedInternalSize(n) > kNodeCapacity && n.entries.size() > 2) {
    size_t mid = n.entries.size() / 2;
    InternalNode right;
    right.leftmost = n.entries[mid].second;
    right.entries.assign(n.entries.begin() + static_cast<long>(mid) + 1,
                         n.entries.end());
    std::string promoted = n.entries[mid].first;
    n.entries.resize(mid);
    PageId right_id;
    PageHandle rh;
    DMX_RETURN_IF_ERROR(bp->New(&right_id, &rh));
    WriteInternal(rh.page(), right, kInvalidLsn);
    rh.MarkDirty();
    *split = SplitResult{std::move(promoted), right_id};
  }
  WriteInternal(h.page(), n, PageLsn(*h.page()));
  h.MarkDirty();
  return Status::OK();
}

}  // namespace

Status BTree::Insert(const Slice& key, const Slice& value, bool unique) {
  std::string composite = BTreeComposeEntry(key, value);
  if (composite.size() > kPageSize / 8) {
    return Status::InvalidArgument("btree entry too large");
  }
  if (unique) {
    // A duplicate (key, other-value) may live in a different leaf than the
    // one the full composite routes to, so uniqueness is checked by key.
    std::vector<std::string> existing;
    DMX_RETURN_IF_ERROR(Lookup(key, &existing));
    for (const std::string& v : existing) {
      if (Slice(v) != value) {
        return Status::Constraint("duplicate key in unique index");
      }
    }
  }
  PageId root;
  DMX_RETURN_IF_ERROR(RootPage(&root));
  std::optional<SplitResult> split;
  bool inserted = false, leaf_split = false;
  DMX_RETURN_IF_ERROR(
      InsertRec(bp_, root, composite, &split, &inserted, &leaf_split));
  if (inserted && counted_.load()) {
    entries_.fetch_add(1);
    if (leaf_split) leaves_.fetch_add(1);
  }
  if (split.has_value()) {
    // Grow a new root.
    InternalNode new_root;
    new_root.leftmost = root;
    new_root.entries.emplace_back(split->separator, split->right);
    PageId new_root_id;
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->New(&new_root_id, &h));
    WriteInternal(h.page(), new_root, kInvalidLsn);
    h.MarkDirty();
    DMX_RETURN_IF_ERROR(SetRootPage(new_root_id));
    if (counted_.load()) height_.fetch_add(1);
  }
  return Status::OK();
}

Status BTree::Remove(const Slice& key, const Slice& value, bool idempotent) {
  std::string composite = BTreeComposeEntry(key, value);
  PageId leaf_id;
  DMX_RETURN_IF_ERROR(FindLeaf(Slice(composite), &leaf_id));
  PageHandle h;
  DMX_RETURN_IF_ERROR(bp_->Fetch(leaf_id, &h));
  Page* page = h.page();
  LeafSlot slot;
  DMX_RETURN_IF_ERROR(LocateInLeaf(*page, Slice(composite), &slot));
  if (!slot.equal) {
    return idempotent ? Status::OK()
                      : Status::NotFound("btree entry absent");
  }
  // Close the gap in place and zero the bytes it frees at the end.
  char* at = page->data + slot.offset;
  memmove(at, at + slot.length, slot.end - slot.offset - slot.length);
  memset(page->data + slot.end - slot.length, 0, slot.length);
  SetEntryCount(page, static_cast<uint16_t>(EntryCount(*page) - 1));
  h.MarkDirty();
  // Leaves are never merged, so only the entry count moves.
  if (counted_.load()) entries_.fetch_sub(1);
  return Status::OK();
}

Status BTree::Lookup(const Slice& key, std::vector<std::string>* values) {
  values->clear();
  // Every entry with this key starts with composite(key, ""): the escaped
  // key and its 0x00 0x00 terminator, which no other key's encoding shares.
  // Walk the leaves in place from there until an entry sorts past it.
  const std::string start = BTreeComposeEntry(key, Slice());
  PageId node;
  DMX_RETURN_IF_ERROR(FindLeaf(Slice(start), &node));
  while (node != kInvalidPageId) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(node, &h));
    const uint16_t n = EntryCount(*h.page());
    Slice in(h.page()->data + kEntriesOff, kPageSize - kEntriesOff);
    for (uint16_t i = 0; i < n; ++i) {
      Slice e;
      if (!GetLengthPrefixedSlice(&in, &e)) {
        return Status::Corruption("btree leaf entry");
      }
      if (e.compare(Slice(start)) < 0) continue;
      if (!e.starts_with(Slice(start))) return Status::OK();
      values->emplace_back(e.data() + start.size(), e.size() - start.size());
    }
    node = NodeLink(*h.page());
  }
  return Status::OK();
}

Status BTree::Contains(const Slice& key, bool* found) {
  std::vector<std::string> values;
  DMX_RETURN_IF_ERROR(Lookup(key, &values));
  *found = !values.empty();
  return Status::OK();
}

Status BTree::NewIterator(std::unique_ptr<BTreeIterator>* it,
                          const std::optional<std::string>& low,
                          bool low_inclusive) {
  std::string pos = low.value_or("");
  // "Inclusive" means an entry equal to pos may be returned.
  *it = std::make_unique<BTreeIterator>(this, std::move(pos),
                                        /*position_exclusive=*/!low_inclusive);
  return Status::OK();
}

Status BTree::LoadCounts() {
  uint64_t entries = 0, leaves = 0;
  uint32_t height = 1;
  PageId node;
  DMX_RETURN_IF_ERROR(RootPage(&node));
  // Descend the leftmost spine (height), then follow the leaf chain.
  while (true) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(node, &h));
    if (NodeType(*h.page()) == kLeaf) break;
    InternalNode in;
    DMX_RETURN_IF_ERROR(ParseInternal(*h.page(), &in));
    node = in.leftmost;
    ++height;
  }
  while (node != kInvalidPageId) {
    PageHandle h;
    DMX_RETURN_IF_ERROR(bp_->Fetch(node, &h));
    entries += EntryCount(*h.page());
    ++leaves;
    node = NodeLink(*h.page());
  }
  entries_.store(entries);
  leaves_.store(leaves);
  height_.store(height);
  counted_.store(true);
  return Status::OK();
}

Status BTree::EnsureCounts() {
  if (counted_.load()) return Status::OK();
  return LoadCounts();
}

Status BTree::Count(uint64_t* n) {
  DMX_RETURN_IF_ERROR(EnsureCounts());
  *n = entries_.load();
  return Status::OK();
}

Status BTree::LeafPages(uint64_t* n) {
  DMX_RETURN_IF_ERROR(EnsureCounts());
  *n = leaves_.load();
  return Status::OK();
}

Status BTree::Height(uint32_t* height) {
  DMX_RETURN_IF_ERROR(EnsureCounts());
  *height = height_.load();
  return Status::OK();
}

Status BTree::EstimateRange(const std::optional<std::string>& low,
                            const std::optional<std::string>& high,
                            double* n) {
  DMX_RETURN_IF_ERROR(EnsureCounts());
  // The composites bounding the range: the first entry whose key is
  // >= low, and the first whose key is > high (the key, its terminator's
  // first byte, then 0x01 sorts after every value stored under the key).
  const std::string lo = BTreeComposeEntry(Slice(low.value_or("")), Slice());
  std::optional<std::string> hi;
  if (high.has_value()) {
    hi = BTreeComposeEntry(Slice(*high), Slice());
    hi->back() = '\x01';
  }
  PageId root;
  DMX_RETURN_IF_ERROR(RootPage(&root));
  BoundPosition from, to;
  DMX_RETURN_IF_ERROR(LocateBounds(bp_, root, 1.0, &lo,
                                   hi.has_value() ? &*hi : nullptr, &from,
                                   &to));
  if (from.leaf == to.leaf) {
    // One leaf holds the whole range: count it exactly.
    *n = to.index > from.index ? to.index - from.index : 0;
    return Status::OK();
  }
  *n = std::max(0.0, to.fraction - from.fraction) *
       static_cast<double>(entries_.load());
  return Status::OK();
}

Status BTree::SeparatorKeys(int target, std::vector<std::string>* seps) {
  seps->clear();
  if (target < 2) return Status::OK();
  // Breadth-first by level: any single internal level's separators are
  // globally sorted (left-to-right across siblings), so the first level
  // with enough of them is a valid cut set — no parent context needed.
  std::vector<PageId> level;
  PageId root;
  DMX_RETURN_IF_ERROR(RootPage(&root));
  level.push_back(root);
  std::vector<std::string> best;  // deepest internal level seen so far
  while (true) {
    std::vector<std::string> level_seps;
    std::vector<PageId> next_level;
    bool hit_leaf = false;
    for (PageId id : level) {
      PageHandle h;
      DMX_RETURN_IF_ERROR(bp_->Fetch(id, &h));
      if (NodeType(*h.page()) == kLeaf) {
        hit_leaf = true;
        break;
      }
      InternalNode in;
      DMX_RETURN_IF_ERROR(ParseInternal(*h.page(), &in));
      next_level.push_back(in.leftmost);
      for (auto& [sep, child] : in.entries) {
        level_seps.push_back(std::move(sep));
        next_level.push_back(child);
      }
    }
    if (!hit_leaf && !level_seps.empty()) best = std::move(level_seps);
    bool enough = static_cast<int>(best.size()) >= target - 1;
    if (hit_leaf || enough || next_level.size() > 256 ||
        next_level.size() == level.size()) {
      // Leaves reached, enough cuts, or the next level is too wide to be
      // worth reading: downsample the best level evenly and stop.
      size_t want = std::min<size_t>(target - 1, best.size());
      for (size_t k = 1; k <= want; ++k) {
        size_t idx = k * best.size() / (want + 1);
        if (idx >= best.size()) idx = best.size() - 1;
        if (!seps->empty() && seps->back() == best[idx]) continue;
        seps->push_back(best[idx]);
      }
      return Status::OK();
    }
    level = std::move(next_level);
  }
}

Status BTree::Verify(std::vector<std::string>* problems, uint64_t* entries) {
  *entries = 0;
  const size_t problems_before = problems->size();
  auto bad = [&](PageId id, const std::string& what) {
    problems->push_back("btree page " + std::to_string(id) + ": " + what);
  };
  PageId root;
  {
    PageHandle ah;
    Status s = bp_->Fetch(anchor_, &ah);
    if (!s.ok()) {
      bad(anchor_, "anchor unreadable: " + s.ToString());
      return Status::OK();
    }
    root = DecodeFixed32(ah.page()->data + 8);
  }

  // DFS with separator bounds; children pushed right-to-left so leaves are
  // visited in key order (needed to validate the leaf chain).
  struct Frame {
    PageId id;
    std::string low;   // inclusive lower bound on composites
    std::string high;  // exclusive upper bound (valid iff has_high)
    bool has_high;
    uint32_t depth;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{root, "", "", false, 0});
  std::vector<std::pair<PageId, PageId>> leaves;  // (id, next) in key order
  int64_t leaf_depth = -1;
  size_t visited = 0;
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (++visited > (1u << 22)) {
      bad(f.id, "traversal exceeded page budget (cycle?)");
      break;
    }
    PageHandle h;
    Status s = bp_->Fetch(f.id, &h);
    if (!s.ok()) {
      bad(f.id, "unreadable: " + s.ToString());
      continue;
    }
    char type = NodeType(*h.page());
    if (type == kLeaf) {
      if (leaf_depth < 0) {
        leaf_depth = f.depth;
      } else if (f.depth != static_cast<uint32_t>(leaf_depth)) {
        bad(f.id, "leaf at depth " + std::to_string(f.depth) +
                      ", expected " + std::to_string(leaf_depth));
      }
      LeafNode leaf;
      s = ParseLeaf(*h.page(), &leaf);
      if (!s.ok()) {
        bad(f.id, "unparsable leaf: " + s.ToString());
        continue;
      }
      const std::string* prev = nullptr;
      for (const std::string& e : leaf.entries) {
        ++*entries;
        std::string k, v;
        if (!BTreeSplitEntry(Slice(e), &k, &v).ok()) {
          bad(f.id, "malformed composite entry");
          break;
        }
        if (prev != nullptr && !(*prev < e)) {
          bad(f.id, "entries out of order");
          break;
        }
        if (e < f.low || (f.has_high && !(e < f.high))) {
          bad(f.id, "entry outside separator bounds");
          break;
        }
        prev = &e;
      }
      leaves.emplace_back(f.id, leaf.next);
      continue;
    }
    if (type != kInternal) {
      bad(f.id, "unknown node type " + std::to_string(type));
      continue;
    }
    InternalNode n;
    s = ParseInternal(*h.page(), &n);
    if (!s.ok()) {
      bad(f.id, "unparsable internal node: " + s.ToString());
      continue;
    }
    for (size_t i = 0; i < n.entries.size(); ++i) {
      const std::string& sep = n.entries[i].first;
      if (i > 0 && !(n.entries[i - 1].first < sep)) {
        bad(f.id, "separators out of order");
      }
      if (sep < f.low || (f.has_high && !(sep < f.high))) {
        bad(f.id, "separator outside parent bounds");
      }
    }
    // Child i's range: [sep[i-1], sep[i]) with the parent's bounds at the
    // edges (leftmost uses the parent's low, last child the parent's high).
    for (size_t i = n.entries.size() + 1; i-- > 0;) {
      Frame c;
      c.depth = f.depth + 1;
      c.id = (i == 0) ? n.leftmost : n.entries[i - 1].second;
      c.low = (i == 0) ? f.low : n.entries[i - 1].first;
      if (i == n.entries.size()) {
        c.high = f.high;
        c.has_high = f.has_high;
      } else {
        c.high = n.entries[i].first;
        c.has_high = true;
      }
      stack.push_back(std::move(c));
    }
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    PageId expect =
        (i + 1 < leaves.size()) ? leaves[i + 1].first : kInvalidPageId;
    if (leaves[i].second != expect) {
      bad(leaves[i].first,
          "leaf chain link " + std::to_string(leaves[i].second) +
              ", expected " + std::to_string(expect));
    }
  }
  // A clean sweep saw the true shape: the maintained counts must agree.
  if (problems->size() == problems_before && leaf_depth >= 0 &&
      counted_.load()) {
    auto drift = [&](const char* what, uint64_t walked, uint64_t kept) {
      if (walked == kept) return;
      problems->push_back("btree " + std::string(what) +
                          " count mismatch: walk finds " +
                          std::to_string(walked) + ", maintained count says " +
                          std::to_string(kept));
    };
    drift("entry", *entries, entries_.load());
    drift("leaf page", leaves.size(), leaves_.load());
    drift("height", static_cast<uint64_t>(leaf_depth) + 1, height_.load());
  }
  return Status::OK();
}

Status BTreeIterator::Seek(const PageHandle& h, bool* reached) {
  const Page& p = *h.page();
  const uint16_t n = EntryCount(p);
  Slice in(p.data + kEntriesOff, kPageSize - kEntriesOff);
  uint16_t i = 0;
  for (; i < n; ++i) {
    const size_t offset = kPageSize - in.size();
    Slice e;
    if (!GetLengthPrefixedSlice(&in, &e)) {
      return Status::Corruption("btree leaf entry");
    }
    const int cmp = e.compare(Slice(pos_));
    if (cmp >= 0 && reached != nullptr) *reached = true;
    if (cmp > 0 || (cmp == 0 && !exclusive_)) {
      offset_ = offset;
      break;
    }
  }
  index_ = i;
  if (i == n) offset_ = kPageSize - in.size();
  version_ = h.version();
  return Status::OK();
}

Status BTreeIterator::Next(std::string* key, std::string* value) {
  BufferPool* bp = tree_->bp_;
  PageHandle h;
  if (leaf_ != kInvalidPageId) {
    DMX_RETURN_IF_ERROR(bp->Fetch(leaf_, &h));
    if (h.version() != version_) {
      // The leaf changed or was reloaded: find the position in it again.
      // A leaf keeps its page id and its low bound through splits, so
      // everything after pos_ is here or further along the chain, unless
      // pos_ itself moved to a right sibling.
      bool reached = false;
      if (NodeType(*h.page()) == kLeaf) {
        DMX_RETURN_IF_ERROR(Seek(h, &reached));
      }
      if (!reached) {
        h.Release();
        leaf_ = kInvalidPageId;
      }
    }
  }
  if (leaf_ == kInvalidPageId) {
    DMX_RETURN_IF_ERROR(tree_->FindLeaf(Slice(pos_), &leaf_));
    DMX_RETURN_IF_ERROR(bp->Fetch(leaf_, &h));
    DMX_RETURN_IF_ERROR(Seek(h));
  }
  while (index_ >= EntryCount(*h.page())) {
    const PageId next = NodeLink(*h.page());
    if (next == kInvalidPageId) return Status::NotFound("end of btree");
    h.Release();
    DMX_RETURN_IF_ERROR(bp->Fetch(next, &h));
    leaf_ = next;
    DMX_RETURN_IF_ERROR(Seek(h));
  }
  Slice in(h.page()->data + offset_, kPageSize - offset_);
  Slice e;
  if (!GetLengthPrefixedSlice(&in, &e)) {
    return Status::Corruption("btree leaf entry");
  }
  DMX_RETURN_IF_ERROR(BTreeSplitEntry(e, key, value));
  pos_.assign(e.data(), e.size());
  exclusive_ = true;
  offset_ = kPageSize - in.size();
  ++index_;
  return Status::OK();
}

void BTreeIterator::SavePosition(std::string* out) const {
  out->assign(1, exclusive_ ? 1 : 0);
  out->append(pos_);
}

Status BTreeIterator::RestorePosition(const Slice& pos) {
  if (pos.empty()) return Status::InvalidArgument("empty btree position");
  exclusive_ = pos[0] != 0;
  pos_.assign(pos.data() + 1, pos.size() - 1);
  leaf_ = kInvalidPageId;  // position moved: descend to it afresh
  return Status::OK();
}

}  // namespace dmx
