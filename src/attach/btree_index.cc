#include "src/attach/btree_index.h"

#include <algorithm>
#include <atomic>

#include "src/core/attachment_instances.h"
#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/core/extension_log.h"
#include "src/sm/btree_core.h"
#include "src/sm/btree_sm.h"
#include "src/sm/key_codec.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

std::atomic<uint64_t> g_skipped_updates{0};

struct IndexInstance {
  static constexpr const char* kType = "btree index";
  uint32_t no = 0;
  PageId anchor = kInvalidPageId;
  bool unique = false;
  std::vector<int> fields;

  void EncodeTo(std::string* dst) const {
    PutFixed32(dst, anchor);
    dst->push_back(unique ? 1 : 0);
    PutFieldList(dst, fields);
  }
  static Status DecodeFrom(Slice* in, IndexInstance* inst) {
    if (!GetFixed32(in, &inst->anchor) || in->empty()) {
      return Status::Corruption("btree index instance");
    }
    inst->unique = (*in)[0] != 0;
    in->remove_prefix(1);
    return GetFieldList(in, &inst->fields, "btree index fields",
                        "btree index field");
  }
};
using IndexList = InstanceList<IndexInstance>;

struct IndexState : public ExtState {
  IndexList desc;
  // Parallel to desc.
  std::vector<std::unique_ptr<BTree>> trees;

  BTree* TreeFor(uint32_t no) {
    for (size_t i = 0; i < desc.size(); ++i) {
      if (desc[i].no == no) return trees[i].get();
    }
    return nullptr;
  }
};

IndexState* StateOf(AtContext& ctx) {
  return static_cast<IndexState*>(ctx.state);
}

Status IdxOpen(AtContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<IndexState>();
  DMX_RETURN_IF_ERROR(st->desc.Decode(ctx.at_desc));
  for (const IndexInstance& inst : st->desc) {
    auto tree = std::make_unique<BTree>(ctx.db->buffer_pool(), inst.anchor);
    // A damaged tree must still open so CHECK and REPAIR can reach it;
    // costing retries the walk and reports its error.
    (void)tree->LoadCounts();
    st->trees.push_back(std::move(tree));
  }
  *state = std::move(st);
  return Status::OK();
}

Status AddEntry(AtContext& ctx, const IndexInstance& inst, BTree* tree,
                const Slice& key, const Slice& record_key) {
  Status s = tree->Insert(key, record_key, inst.unique);
  if (s.IsConstraint()) {
    return Status::Constraint("unique index " + std::to_string(inst.no) +
                              " violated");
  }
  DMX_RETURN_IF_ERROR(s);
  return LogKeyEntry(ctx, {'I', inst.no, key, record_key});
}

Status RemoveEntry(AtContext& ctx, BTree* tree, uint32_t instance,
                   const Slice& key, const Slice& record_key) {
  DMX_RETURN_IF_ERROR(tree->Remove(key, record_key, /*idempotent=*/true));
  return LogKeyEntry(ctx, {'D', instance, key, record_key});
}

// Bulk-load a fresh tree from the base relation's records, keyed on
// `inst`'s fields, and point `inst` at it. On failure the partial tree is
// destroyed and `inst` is left as it was.
Status BuildTree(AtContext& ctx, IndexInstance* inst) {
  BufferPool* bp = ctx.db->buffer_pool();
  PageId anchor;
  DMX_RETURN_IF_ERROR(BTree::Create(bp, &anchor));
  BTree tree(bp, anchor);
  std::unique_ptr<Scan> scan;
  Status s = ctx.db->OpenScanOn(ctx.txn, ctx.desc,
                                AccessPathId::StorageMethod(), ScanSpec{},
                                &scan);
  ScanItem item;
  while (s.ok()) {
    Status next = scan->Next(&item);
    if (next.IsNotFound()) break;
    std::string key;
    s = next.ok() ? EncodeFieldKey(item.view, inst->fields, &key) : next;
    if (s.ok()) {
      s = tree.Insert(Slice(key), Slice(item.record_key), inst->unique);
    }
  }
  if (!s.ok()) {
    BTree::Destroy(bp, anchor).ok();
    return s;
  }
  inst->anchor = anchor;
  return Status::OK();
}

Status IdxCreateInstance(AtContext& ctx, const AttrList& attrs,
                         std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"fields", "unique"}));
  if (!attrs.Has("fields")) {
    return Status::InvalidArgument("btree_index requires fields=<columns>");
  }
  IndexInstance inst;
  DMX_RETURN_IF_ERROR(
      ParseFieldList(ctx.desc->schema, attrs.Get("fields"), &inst.fields));
  inst.unique = attrs.Get("unique") == "1" || attrs.Get("unique") == "true";

  IndexList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  DMX_RETURN_IF_ERROR(BuildTree(ctx, &inst));
  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status IdxReleaseInstance(AtContext& ctx, uint32_t instance_no) {
  // Storage release once the catalog no longer refers to it (or of a
  // relation drop, instance_no == UINT32_MAX): the context carries the
  // descriptor from before the change, which still lists the instance.
  IndexList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  if (instance_no == UINT32_MAX) {
    for (const IndexInstance& inst : desc) {
      DMX_RETURN_IF_ERROR(BTree::Destroy(ctx.db->buffer_pool(), inst.anchor));
    }
    return Status::OK();
  }
  const IndexInstance* inst = desc.Find(instance_no);
  if (inst == nullptr) return Status::OK();
  return BTree::Destroy(ctx.db->buffer_pool(), inst->anchor);
}

Status IdxOnInsert(AtContext& ctx, const Slice& record_key,
                   const Slice& new_record) {
  IndexState* st = StateOf(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  for (size_t i = 0; i < st->desc.size(); ++i) {
    const IndexInstance& inst = st->desc[i];
    // Quarantined instances skip maintenance: REPAIR rebuilds them from
    // the base relation, so falling behind is safe.
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string key;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &key));
    DMX_RETURN_IF_ERROR(
        AddEntry(ctx, inst, st->trees[i].get(), Slice(key), record_key));
  }
  return Status::OK();
}

Status IdxOnUpdate(AtContext& ctx, const Slice& old_key,
                   const Slice& new_key, const Slice& old_record,
                   const Slice& new_record) {
  IndexState* st = StateOf(ctx);
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (size_t i = 0; i < st->desc.size(); ++i) {
    const IndexInstance& inst = st->desc[i];
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string okey, nkey;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(old_view, inst.fields, &okey));
    DMX_RETURN_IF_ERROR(EncodeFieldKey(new_view, inst.fields, &nkey));
    if (okey == nkey && old_key == new_key) {
      // "The B-tree update operation should be able to detect when no
      // indexed fields for a given index are modified."
      ++g_skipped_updates;
      continue;
    }
    DMX_RETURN_IF_ERROR(
        RemoveEntry(ctx, st->trees[i].get(), inst.no, Slice(okey), old_key));
    DMX_RETURN_IF_ERROR(
        AddEntry(ctx, inst, st->trees[i].get(), Slice(nkey), new_key));
  }
  return Status::OK();
}

Status IdxOnDelete(AtContext& ctx, const Slice& record_key,
                   const Slice& old_record) {
  IndexState* st = StateOf(ctx);
  RecordView view(old_record, &ctx.desc->schema);
  for (size_t i = 0; i < st->desc.size(); ++i) {
    const IndexInstance& inst = st->desc[i];
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string key;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &key));
    DMX_RETURN_IF_ERROR(
        RemoveEntry(ctx, st->trees[i].get(), inst.no, Slice(key), record_key));
  }
  return Status::OK();
}

// Key-only scan: yields storage-method record keys in index-key order.
// Filters are NOT applied here (the record is not available); the executor
// applies residual predicates after fetching via the storage method.
class IndexScan : public Scan {
 public:
  IndexScan(std::unique_ptr<BTreeIterator> it, const ScanSpec& spec)
      : it_(std::move(it)), spec_(spec) {}

  Status Next(ScanItem* out) override {
    std::string key, value;
    Status s = it_->Next(&key, &value);
    if (s.IsNotFound()) return Status::NotFound("end of scan");
    DMX_RETURN_IF_ERROR(s);
    if (spec_.high_key.has_value()) {
      int cmp = Slice(key).compare(Slice(*spec_.high_key));
      if (cmp > 0 || (cmp == 0 && !spec_.high_inclusive)) {
        return Status::NotFound("end of scan");
      }
    }
    out->record_key = std::move(value);
    out->view = RecordView();
    out->access_key = std::move(key);
    return Status::OK();
  }

  Status SavePosition(std::string* out) const override {
    it_->SavePosition(out);
    return Status::OK();
  }

  Status RestorePosition(const Slice& pos) override {
    return it_->RestorePosition(pos);
  }

 private:
  std::unique_ptr<BTreeIterator> it_;
  ScanSpec spec_;
};

Status IdxOpenScan(AtContext& ctx, uint32_t instance_no, const ScanSpec& spec,
                   std::unique_ptr<Scan>* scan) {
  IndexState* st = StateOf(ctx);
  BTree* tree = st->TreeFor(instance_no);
  if (tree == nullptr) {
    return IndexList::NotFound(instance_no);
  }
  std::optional<std::string> low;
  if (spec.low_key.has_value()) {
    low = BTreeComposeEntry(Slice(*spec.low_key), Slice());
    if (!spec.low_inclusive) low->back() = '\x01';
  }
  std::unique_ptr<BTreeIterator> it;
  DMX_RETURN_IF_ERROR(tree->NewIterator(&it, low, true));
  *scan = std::make_unique<IndexScan>(std::move(it), spec);
  return Status::OK();
}

Status IdxLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                 std::vector<std::string>* record_keys) {
  IndexState* st = StateOf(ctx);
  BTree* tree = st->TreeFor(instance_no);
  if (tree == nullptr) {
    return IndexList::NotFound(instance_no);
  }
  return tree->Lookup(key, record_keys);
}

Status IdxCost(AtContext& ctx, uint32_t instance_no,
               const std::vector<ExprPtr>& predicates, AccessCost* out) {
  IndexState* st = StateOf(ctx);
  const IndexInstance* inst = st->desc.Find(instance_no);
  BTree* tree = st->TreeFor(instance_no);
  out->usable = false;
  if (inst == nullptr || tree == nullptr) return Status::OK();

  // Relevance: "a B-tree access path will return a low cost if there is a
  // predicate on the key of the B-tree" — here generalized to multi-field
  // partial keys: an equality prefix over the leading key fields, plus
  // optional range predicates on the next field.
  double key_selectivity = 1.0;
  KeyOperandValues operands;
  bool constant = true;  // every key operand is a literal
  out->handled_predicates.clear();
  auto match_on_field = [&](int field, bool eq_only,
                            bool* any) {
    for (size_t i = 0; i < predicates.size(); ++i) {
      int f;
      ExprOp op;
      ExprPtr operand;
      if (!MatchFieldCompare(predicates[i], &f, &op, &operand) ||
          f != field || op == ExprOp::kNe) {
        continue;
      }
      if (eq_only && op != ExprOp::kEq) continue;
      if (!eq_only && op == ExprOp::kEq) continue;
      key_selectivity *= EstimateSelectivity(predicates[i]);
      out->handled_predicates.push_back(static_cast<int>(i));
      *any = true;
      if (operand->op() != ExprOp::kConst) {
        constant = false;
      } else if (eq_only) {
        operands.eq.push_back(operand->constant());
      } else if (op == ExprOp::kGt || op == ExprOp::kGe) {
        operands.low.push_back(operand->constant());
      } else {
        operands.high.push_back(operand->constant());
      }
      if (eq_only) return;  // one equality per prefix position
    }
  };
  size_t prefix = 0;
  for (int field : inst->fields) {
    bool any = false;
    match_on_field(field, /*eq_only=*/true, &any);
    if (!any) break;
    ++prefix;
  }
  if (prefix < inst->fields.size()) {
    // Ranges on the field right after the equality prefix still narrow the
    // key range.
    bool any = false;
    match_on_field(inst->fields[prefix], /*eq_only=*/false, &any);
    (void)any;
  }
  if (out->handled_predicates.empty()) {
    return Status::OK();  // not usable without a key predicate
  }
  uint64_t leaves = 0, entries = 0;
  uint32_t height = 1;
  DMX_RETURN_IF_ERROR(tree->LeafPages(&leaves));
  DMX_RETURN_IF_ERROR(tree->Count(&entries));
  DMX_RETURN_IF_ERROR(tree->Height(&height));
  // How many entries qualify. A full-key equality on a unique instance
  // names at most one. With literal operands the tree counts the range
  // itself (EstimateRange), on the key BindAccessKey will build from them;
  // `?` operands have no value at planning time, so the heuristic stands.
  double qualifying = key_selectivity * static_cast<double>(entries);
  if (inst->unique && prefix == inst->fields.size()) {
    qualifying = std::min<double>(1.0, static_cast<double>(entries));
  } else if (constant) {
    std::vector<TypeId> types;
    for (int f : inst->fields) {
      types.push_back(ctx.desc->schema.column(static_cast<size_t>(f)).type);
    }
    std::string key_prefix;
    std::optional<std::string> low, high;
    bool empty = false;
    out->value_dependent = true;
    // An operand the key cannot hold fails again, and is reported, when
    // the plan binds it; until then the heuristic prices it.
    if (EncodeKeyRange(operands, types, &key_prefix, &low, &high, &empty)
            .ok()) {
      qualifying = 0;
      if (!empty) {
        DMX_RETURN_IF_ERROR(tree->EstimateRange(low, high, &qualifying));
      }
    }
  }
  out->usable = true;
  out->selectivity =
      entries == 0 ? 0.0 : qualifying / static_cast<double>(entries);
  // Descend + scan the qualifying leaf fraction, then fetch every
  // qualifying record through the storage method (the expensive part —
  // reported separately so the planner can elide it for index-only plans).
  out->fetch_cost = qualifying * kRecordFetchCost;
  out->io_cost = height + out->selectivity * static_cast<double>(leaves) +
                 out->fetch_cost;
  out->cpu_cost = height * 4 + qualifying + 1;
  return Status::OK();
}

Status IdxApply(AtContext& ctx, const LogRecord& rec, bool undo) {
  KeyEntry entry;
  DMX_RETURN_IF_ERROR(DecodeKeyEntry(rec.payload, &entry));
  BTree* tree = StateOf(ctx)->TreeFor(entry.instance);
  if (tree == nullptr) return Status::OK();  // instance dropped since
  if ((entry.op == 'I') != undo) {
    return tree->Insert(entry.key, entry.record_key);
  }
  return tree->Remove(entry.key, entry.record_key, /*idempotent=*/true);
}

Status IdxUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  return IdxApply(ctx, rec, /*undo=*/true);
}

Status IdxRedo(AtContext& ctx, const LogRecord& rec, Lsn) {
  return IdxApply(ctx, rec, /*undo=*/false);
}

// Dual-enumeration consistency check: a structural sweep of the tree, then
// every base record must appear in the index under its computed key, the
// entry count must match the relation's record count (which together rule
// out orphaned entries), and unique instances must hold no duplicate keys.
Status IdxVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  IndexState* st = StateOf(ctx);
  const IndexInstance* inst = st->desc.Find(instance_no);
  BTree* tree = st->TreeFor(instance_no);
  if (inst == nullptr || tree == nullptr) {
    return IndexList::NotFound(instance_no);
  }
  std::vector<std::string> problems;
  uint64_t entries = 0;
  DMX_RETURN_IF_ERROR(tree->Verify(&problems, &entries));
  const std::string tag = "btree_index#" + std::to_string(instance_no) + ": ";
  for (const std::string& p : problems) report->Problem(tag + p);
  report->items += entries;
  if (!report->clean()) return Status::OK();  // don't walk a broken tree

  uint64_t base_records = 0;
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, ctx.desc, AccessPathId::StorageMethod(), ScanSpec{}, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    ++base_records;
    std::string key;
    Status ks = EncodeFieldKey(item.view, inst->fields, &key);
    if (!ks.ok()) {
      report->Problem(tag + "cannot compose key for a base record: " +
                      ks.ToString());
      continue;
    }
    std::vector<std::string> rkeys;
    Status ls = tree->Lookup(Slice(key), &rkeys);
    bool found = false;
    if (ls.ok()) {
      for (const std::string& rk : rkeys) {
        if (Slice(rk) == Slice(item.record_key)) {
          found = true;
          break;
        }
      }
    }
    if (!found) {
      report->Problem(tag + "base record has no matching index entry");
    }
  }
  if (entries != base_records) {
    report->Problem(tag + "holds " + std::to_string(entries) +
                    " entries but the relation holds " +
                    std::to_string(base_records) + " records");
  }
  if (inst->unique) {
    std::unique_ptr<BTreeIterator> it;
    DMX_RETURN_IF_ERROR(tree->NewIterator(&it));
    std::string key, value, prev;
    bool has_prev = false;
    while (it->Next(&key, &value).ok()) {
      if (has_prev && key == prev) {
        report->Problem(tag + "duplicate key in unique index");
        break;
      }
      prev = key;
      has_prev = true;
    }
  }
  return Status::OK();
}

// Online rebuild (REPAIR): build a fresh tree off the base relation and
// point the instance at its anchor. The damaged tree's pages are left
// untouched — the caller releases them via release_instance (with the
// pre-repair descriptor) only at commit.
Status IdxRepairInstance(AtContext& ctx, uint32_t instance_no,
                         std::string* new_desc) {
  IndexList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  IndexInstance* inst = desc.Find(instance_no);
  if (inst == nullptr) return IndexList::NotFound(instance_no);
  Status s = BuildTree(ctx, inst);
  if (s.IsConstraint()) {
    return Status::Constraint("unique index " + std::to_string(instance_no) +
                              " cannot be rebuilt: the base relation holds "
                              "duplicate keys");
  }
  DMX_RETURN_IF_ERROR(s);
  desc.EncodeTo(new_desc);
  return Status::OK();
}

// Unique indexes enforce a data invariant; while one is quarantined its
// maintenance skip would let duplicates slip in, so writes must be refused.
bool IdxGuardsIntegrity(const Slice& at_desc, uint32_t instance_no) {
  bool unique = false;
  Status s = IndexList::Visit(at_desc, [&](IndexInstance& inst) {
    unique = unique || (inst.no == instance_no && inst.unique);
  });
  return s.ok() && unique;
}

}  // namespace

uint64_t BTreeIndexSkippedUpdates() { return g_skipped_updates.load(); }

const AtOps& BTreeIndexOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "btree_index";
    o.create_instance = IdxCreateInstance;
    o.drop_instance = &DropInstanceOf<IndexInstance>;
    o.release_instance = IdxReleaseInstance;
    o.open = IdxOpen;
    o.on_insert = IdxOnInsert;
    o.on_update = IdxOnUpdate;
    o.on_delete = IdxOnDelete;
    o.open_scan = IdxOpenScan;
    o.lookup = IdxLookup;
    o.cost = IdxCost;
    o.undo = IdxUndo;
    o.redo = IdxRedo;
    o.instance_count = &InstanceCountOf<IndexInstance>;
    o.list_instances = &ListInstancesOf<IndexInstance>;
    o.instance_fields = &InstanceFieldsOf<IndexInstance>;
    o.verify = IdxVerify;
    o.repair_instance = IdxRepairInstance;
    o.guards_integrity = IdxGuardsIntegrity;
    return o;
  }();
  return ops;
}

}  // namespace dmx
