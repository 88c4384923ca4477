#include "src/attach/rtree_index.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/core/attachment_instances.h"
#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/core/derived_state.h"
#include "src/core/extension_log.h"
#include "src/sm/btree_sm.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

// -- in-memory Guttman R-tree -------------------------------------------------

struct Rect {
  double xmin = 0, ymin = 0, xmax = 0, ymax = 0;

  bool Overlaps(const Rect& o) const {
    return xmin <= o.xmax && o.xmin <= xmax && ymin <= o.ymax &&
           o.ymin <= ymax;
  }
  bool Encloses(const Rect& o) const {
    return xmin <= o.xmin && ymin <= o.ymin && xmax >= o.xmax &&
           ymax >= o.ymax;
  }
  double Area() const { return (xmax - xmin) * (ymax - ymin); }

  static Rect Join(const Rect& a, const Rect& b) {
    return {std::min(a.xmin, b.xmin), std::min(a.ymin, b.ymin),
            std::max(a.xmax, b.xmax), std::max(a.ymax, b.ymax)};
  }
  double Enlargement(const Rect& o) const {
    return Join(*this, o).Area() - Area();
  }
  bool operator==(const Rect& o) const {
    return xmin == o.xmin && ymin == o.ymin && xmax == o.xmax &&
           ymax == o.ymax;
  }
};

constexpr size_t kMaxEntries = 16;

struct RNode;

struct REntry {
  Rect rect;
  std::unique_ptr<RNode> child;  // internal
  std::string key;               // leaf: record key
};

struct RNode {
  bool leaf = true;
  std::vector<REntry> entries;

  Rect Mbr() const {
    Rect r = entries.empty() ? Rect{} : entries[0].rect;
    for (size_t i = 1; i < entries.size(); ++i) {
      r = Rect::Join(r, entries[i].rect);
    }
    return r;
  }
};

// Quadratic split [GUTTMAN 84, §3.5.2].
void QuadraticSplit(std::vector<REntry> entries, RNode* left, RNode* right) {
  // Pick the pair wasting the most area as seeds.
  size_t seed_a = 0, seed_b = 1;
  double worst = -1;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      double waste = Rect::Join(entries[i].rect, entries[j].rect).Area() -
                     entries[i].rect.Area() - entries[j].rect.Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  left->entries.clear();
  right->entries.clear();
  left->entries.push_back(std::move(entries[seed_a]));
  right->entries.push_back(std::move(entries[seed_b]));
  Rect lrect = left->entries[0].rect, rrect = right->entries[0].rect;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == seed_a || i == seed_b) continue;
    double dl = lrect.Enlargement(entries[i].rect);
    double dr = rrect.Enlargement(entries[i].rect);
    if (dl < dr || (dl == dr && left->entries.size() <=
                                    right->entries.size())) {
      lrect = Rect::Join(lrect, entries[i].rect);
      left->entries.push_back(std::move(entries[i]));
    } else {
      rrect = Rect::Join(rrect, entries[i].rect);
      right->entries.push_back(std::move(entries[i]));
    }
  }
}

class RTree {
 public:
  RTree() : root_(std::make_unique<RNode>()) {}

  void Insert(const Rect& rect, const std::string& key) {
    std::unique_ptr<RNode> split = InsertRec(root_.get(), rect, key);
    if (split != nullptr) {
      auto new_root = std::make_unique<RNode>();
      new_root->leaf = false;
      REntry a, b;
      a.rect = root_->Mbr();
      a.child = std::move(root_);
      b.rect = split->Mbr();
      b.child = std::move(split);
      new_root->entries.push_back(std::move(a));
      new_root->entries.push_back(std::move(b));
      root_ = std::move(new_root);
    }
    ++size_;
  }

  bool Remove(const Rect& rect, const std::string& key) {
    if (RemoveRec(root_.get(), rect, key)) {
      --size_;
      return true;
    }
    return false;
  }

  // op: 'O' record overlaps query, 'E' record encloses query,
  //     'W' record within query.
  void Search(char op, const Rect& query,
              std::vector<std::string>* keys) const {
    SearchRec(root_.get(), op, query, keys);
  }

  size_t size() const { return size_; }
  size_t NodeCount() const { return CountNodes(root_.get()); }

 private:
  std::unique_ptr<RNode> InsertRec(RNode* node, const Rect& rect,
                                   const std::string& key) {
    if (node->leaf) {
      REntry e;
      e.rect = rect;
      e.key = key;
      node->entries.push_back(std::move(e));
    } else {
      // Choose the child needing least enlargement.
      size_t best = 0;
      double best_enl = node->entries[0].rect.Enlargement(rect);
      for (size_t i = 1; i < node->entries.size(); ++i) {
        double enl = node->entries[i].rect.Enlargement(rect);
        if (enl < best_enl ||
            (enl == best_enl &&
             node->entries[i].rect.Area() < node->entries[best].rect.Area())) {
          best = i;
          best_enl = enl;
        }
      }
      std::unique_ptr<RNode> split =
          InsertRec(node->entries[best].child.get(), rect, key);
      node->entries[best].rect = node->entries[best].child->Mbr();
      if (split != nullptr) {
        REntry e;
        e.rect = split->Mbr();
        e.child = std::move(split);
        node->entries.push_back(std::move(e));
      }
    }
    if (node->entries.size() > kMaxEntries) {
      auto right = std::make_unique<RNode>();
      right->leaf = node->leaf;
      RNode left;
      left.leaf = node->leaf;
      QuadraticSplit(std::move(node->entries), &left, right.get());
      node->entries = std::move(left.entries);
      return right;
    }
    return nullptr;
  }

  bool RemoveRec(RNode* node, const Rect& rect, const std::string& key) {
    if (node->leaf) {
      for (size_t i = 0; i < node->entries.size(); ++i) {
        if (node->entries[i].key == key && node->entries[i].rect == rect) {
          node->entries.erase(node->entries.begin() + static_cast<long>(i));
          return true;
        }
      }
      return false;
    }
    for (REntry& e : node->entries) {
      if (!e.rect.Encloses(rect)) continue;
      if (RemoveRec(e.child.get(), rect, key)) {
        e.rect = e.child->Mbr();
        return true;
      }
    }
    return false;
  }

  void SearchRec(const RNode* node, char op, const Rect& query,
                 std::vector<std::string>* keys) const {
    for (const REntry& e : node->entries) {
      if (node->leaf) {
        bool match = false;
        switch (op) {
          case 'O': match = e.rect.Overlaps(query); break;
          case 'E': match = e.rect.Encloses(query); break;
          case 'W': match = query.Encloses(e.rect); break;
          default: break;
        }
        if (match) keys->push_back(e.key);
        continue;
      }
      // Pruning: a descendant can only satisfy the predicate if the MBR
      // passes the corresponding necessary condition.
      bool descend = false;
      switch (op) {
        case 'O':
        case 'W': descend = e.rect.Overlaps(query); break;
        case 'E': descend = e.rect.Encloses(query); break;
        default: break;
      }
      if (descend) SearchRec(e.child.get(), op, query, keys);
    }
  }

  size_t CountNodes(const RNode* node) const {
    size_t n = 1;
    if (!node->leaf) {
      for (const REntry& e : node->entries) n += CountNodes(e.child.get());
    }
    return n;
  }

  std::unique_ptr<RNode> root_;
  size_t size_ = 0;
};

// -- attachment plumbing --------------------------------------------------------

struct RtInstance {
  static constexpr const char* kType = "rtree";
  uint32_t no = 0;
  int fields[4] = {-1, -1, -1, -1};

  void EncodeTo(std::string* dst) const {
    for (int f : fields) PutVarint32(dst, static_cast<uint32_t>(f));
  }
  static Status DecodeFrom(Slice* in, RtInstance* inst) {
    for (int& f : inst->fields) {
      uint32_t idx;
      if (!GetVarint32(in, &idx)) return Status::Corruption("rtree field");
      f = static_cast<int>(idx);
    }
    return Status::OK();
  }
};
using RtList = InstanceList<RtInstance>;

using RtState = DerivedState<RtInstance, RTree>;

Status RectOf(const RecordView& view, const RtInstance& inst, Rect* out,
              bool* has_null) {
  double v[4];
  for (int i = 0; i < 4; ++i) {
    size_t f = static_cast<size_t>(inst.fields[i]);
    if (view.IsNull(f)) {
      *has_null = true;
      return Status::OK();
    }
    v[i] = view.GetValue(f).AsDouble();
  }
  *has_null = false;
  *out = Rect{v[0], v[1], v[2], v[3]};
  return Status::OK();
}

std::string RectPayload(char op, uint32_t instance, const Rect& r,
                        const Slice& record_key) {
  std::string payload(1, op);
  PutVarint32(&payload, instance);
  PutDouble(&payload, r.xmin);
  PutDouble(&payload, r.ymin);
  PutDouble(&payload, r.xmax);
  PutDouble(&payload, r.ymax);
  payload.append(record_key.data(), record_key.size());
  return payload;
}

Status RtAddRecord(const RtInstance& inst, const ScanItem& item,
                   RTree* tree) {
  Rect r;
  bool has_null;
  DMX_RETURN_IF_ERROR(RectOf(item.view, inst, &r, &has_null));
  if (!has_null) tree->Insert(r, item.record_key);
  return Status::OK();
}

Status RtCreateInstance(AtContext& ctx, const AttrList& attrs,
                        std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"fields"}));
  std::vector<int> fields;
  DMX_RETURN_IF_ERROR(
      ParseFieldList(ctx.desc->schema, attrs.Get("fields"), &fields));
  if (fields.size() != 4) {
    return Status::InvalidArgument(
        "rtree_index requires fields=<xmin>,<ymin>,<xmax>,<ymax>");
  }
  for (int f : fields) {
    TypeId t = ctx.desc->schema.column(static_cast<size_t>(f)).type;
    if (t != TypeId::kDouble && t != TypeId::kInt64) {
      return Status::InvalidArgument("rtree fields must be numeric");
    }
  }
  RtInstance inst;
  for (int i = 0; i < 4; ++i) inst.fields[i] = fields[static_cast<size_t>(i)];
  RtList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  *instance_no = desc.Add(inst);
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status RtOnInsert(AtContext& ctx, const Slice& record_key,
                  const Slice& new_record) {
  RtState* st = RtState::Of(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  for (const RtInstance& inst : st->instances()) {
    Rect r;
    bool has_null;
    DMX_RETURN_IF_ERROR(RectOf(view, inst, &r, &has_null));
    if (has_null) continue;
    st->With(inst.no,
             [&](RTree* tree) { tree->Insert(r, record_key.ToString()); });
    DMX_RETURN_IF_ERROR(
        LogExtensionUpdate(ctx, RectPayload('I', inst.no, r, record_key)));
  }
  return Status::OK();
}

Status RtOnUpdate(AtContext& ctx, const Slice& old_key, const Slice& new_key,
                  const Slice& old_record, const Slice& new_record) {
  RtState* st = RtState::Of(ctx);
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const RtInstance& inst : st->instances()) {
    Rect orect, nrect;
    bool onull, nnull;
    DMX_RETURN_IF_ERROR(RectOf(old_view, inst, &orect, &onull));
    DMX_RETURN_IF_ERROR(RectOf(new_view, inst, &nrect, &nnull));
    bool same = !onull && !nnull && orect == nrect && old_key == new_key;
    if (same || (onull && nnull)) continue;
    st->With(inst.no, [&](RTree* tree) {
      if (!onull) tree->Remove(orect, old_key.ToString());
      if (!nnull) tree->Insert(nrect, new_key.ToString());
    });
    if (!onull) {
      DMX_RETURN_IF_ERROR(
          LogExtensionUpdate(ctx, RectPayload('D', inst.no, orect, old_key)));
    }
    if (!nnull) {
      DMX_RETURN_IF_ERROR(
          LogExtensionUpdate(ctx, RectPayload('I', inst.no, nrect, new_key)));
    }
  }
  return Status::OK();
}

Status RtOnDelete(AtContext& ctx, const Slice& record_key,
                  const Slice& old_record) {
  RtState* st = RtState::Of(ctx);
  RecordView view(old_record, &ctx.desc->schema);
  for (const RtInstance& inst : st->instances()) {
    Rect r;
    bool has_null;
    DMX_RETURN_IF_ERROR(RectOf(view, inst, &r, &has_null));
    if (has_null) continue;
    st->With(inst.no,
             [&](RTree* tree) { tree->Remove(r, record_key.ToString()); });
    DMX_RETURN_IF_ERROR(
        LogExtensionUpdate(ctx, RectPayload('D', inst.no, r, record_key)));
  }
  return Status::OK();
}

// Collects the record keys of instance `no` whose rectangle stands in
// relation `op` to `query`.
void SearchTree(RtState* st, uint32_t no, char op, const Rect& query,
                std::vector<std::string>* keys) {
  st->With(no, [&](RTree* tree) { tree->Search(op, query, keys); });
}

size_t TreeSize(RtState* st, uint32_t no) {
  return st->With(no, [](RTree* tree) { return tree->size(); });
}

char ProbeOpOf(ExprOp op) {
  switch (op) {
    case ExprOp::kOverlaps: return 'O';
    case ExprOp::kEncloses: return 'E';
    case ExprOp::kWithin: return 'W';
    default: return 0;
  }
}

Status RtLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                std::vector<std::string>* record_keys) {
  RtState* st = RtState::Of(ctx);
  record_keys->clear();
  if (st->instances().Find(instance_no) == nullptr) {
    return RtList::NotFound(instance_no);
  }
  if (key.size() != 33) {
    return Status::InvalidArgument("rtree probe key must be 33 bytes");
  }
  char op = key[0];
  Rect q{DecodeDouble(key.data() + 1), DecodeDouble(key.data() + 9),
         DecodeDouble(key.data() + 17), DecodeDouble(key.data() + 25)};
  SearchTree(st, instance_no, op, q, record_keys);
  return Status::OK();
}

Status RtCost(AtContext& ctx, uint32_t instance_no,
              const std::vector<ExprPtr>& predicates, AccessCost* out) {
  RtState* st = RtState::Of(ctx);
  const RtInstance* inst = st->instances().Find(instance_no);
  out->usable = false;
  if (inst == nullptr) return Status::OK();
  // Relevance: a spatial predicate whose record rectangle is exactly this
  // instance's four fields. "The R-tree access path will recognize the
  // ENCLOSES predicate and report a low cost."
  for (size_t i = 0; i < predicates.size(); ++i) {
    ExprOp op;
    double query[4];
    if (MatchSpatial(predicates[i], inst->fields, &op, query)) {
      const double n = static_cast<double>(TreeSize(st, instance_no));
      out->usable = true;
      // Only literal corners match: the same predicate over `?` corners
      // would leave this path unusable.
      out->value_dependent = true;
      out->handled_predicates = {static_cast<int>(i)};
      out->selectivity = EstimateSelectivity(predicates[i]);
      // log-ish traversal, then fetch every qualifying record.
      double expected = out->selectivity * n;
      out->io_cost = std::log2(std::max(2.0, n)) +
                     expected * kRecordFetchCost;
      out->cpu_cost = std::log2(std::max(2.0, n)) + expected;
      return Status::OK();
    }
  }
  return Status::OK();
}

// A materialized spatial-search scan: the qualifying record keys are
// computed on open (the structure is in memory) and replayed in order;
// positions are ordinal.
class RTreeScan : public Scan {
 public:
  explicit RTreeScan(std::vector<std::string> keys)
      : keys_(std::move(keys)) {}

  Status Next(ScanItem* out) override {
    if (pos_ >= keys_.size()) return Status::NotFound("end of scan");
    out->record_key = keys_[pos_++];
    out->view = RecordView();
    return Status::OK();
  }

  Status SavePosition(std::string* out) const override {
    out->clear();
    PutFixed64(out, pos_);
    return Status::OK();
  }

  Status RestorePosition(const Slice& pos) override {
    if (pos.size() != 8) return Status::InvalidArgument("rtree position");
    pos_ = DecodeFixed64(pos.data());
    return Status::OK();
  }

 private:
  std::vector<std::string> keys_;
  size_t pos_ = 0;
};

Status RtOpenScan(AtContext& ctx, uint32_t instance_no, const ScanSpec& spec,
                  std::unique_ptr<Scan>* scan) {
  RtState* st = RtState::Of(ctx);
  const RtInstance* inst = st->instances().Find(instance_no);
  if (inst == nullptr) {
    return RtList::NotFound(instance_no);
  }
  // The query rectangle comes from a recognized spatial conjunct of the
  // pushed filter.
  std::vector<std::string> keys;
  bool matched = false;
  if (spec.filter != nullptr) {
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(spec.filter, &conjuncts);
    for (const ExprPtr& c : conjuncts) {
      ExprOp op;
      double query[4];
      if (MatchSpatial(c, inst->fields, &op, query)) {
        SearchTree(st, instance_no, ProbeOpOf(op),
                   Rect{query[0], query[1], query[2], query[3]}, &keys);
        matched = true;
        break;
      }
    }
  }
  if (!matched) {
    return Status::InvalidArgument(
        "rtree scan requires a spatial predicate on the indexed fields");
  }
  std::sort(keys.begin(), keys.end());
  *scan = std::make_unique<RTreeScan>(std::move(keys));
  return Status::OK();
}

Status RtUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("rtree payload");
  char op = in[0];
  in.remove_prefix(1);
  uint32_t instance;
  if (!GetVarint32(&in, &instance)) {
    return Status::Corruption("rtree instance id");
  }
  if (in.size() < 32) return Status::Corruption("rtree rect");
  Rect r{DecodeDouble(in.data()), DecodeDouble(in.data() + 8),
         DecodeDouble(in.data() + 16), DecodeDouble(in.data() + 24)};
  in.remove_prefix(32);
  RtState::Of(ctx)->With(instance, [&](RTree* tree) {
    if (tree == nullptr) return;  // instance dropped since
    if (op == 'I') {
      tree->Remove(r, in.ToString());
    } else {
      tree->Insert(r, in.ToString());
    }
  });
  return Status::OK();
}

// Verify cross-checks the in-memory tree against the base relation: every
// base record with a non-NULL rectangle must be findable by an exact-rect
// probe, and the entry count must match.
Status RtVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  RtState* st = RtState::Of(ctx);
  const RtInstance* inst = st->instances().Find(instance_no);
  if (inst == nullptr) {
    return RtList::NotFound(instance_no);
  }
  const std::string tag = "rtree_index#" + std::to_string(instance_no) + ": ";

  uint64_t indexed_rows = 0;
  DMX_RETURN_IF_ERROR(ScanRelation(ctx, [&](const ScanItem& item) {
    Rect r;
    bool has_null;
    DMX_RETURN_IF_ERROR(RectOf(item.view, *inst, &r, &has_null));
    if (has_null) return Status::OK();
    ++indexed_rows;
    std::vector<std::string> keys;
    SearchTree(st, instance_no, 'E', r, &keys);
    bool found = false;
    for (const std::string& k : keys) found = found || k == item.record_key;
    if (!found) {
      report->Problem(tag + "base record '" + item.record_key +
                      "' has no matching rtree entry");
    }
    return Status::OK();
  }));
  const size_t entries = TreeSize(st, instance_no);
  report->items += entries;
  if (entries != indexed_rows) {
    report->Problem(tag + "entry count " + std::to_string(entries) +
                    " != indexed base rows " + std::to_string(indexed_rows));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeRTreeProbe(ExprOp op, const double query_rect[4]) {
  std::string key;
  switch (op) {
    case ExprOp::kOverlaps: key.push_back('O'); break;
    case ExprOp::kEncloses: key.push_back('E'); break;
    case ExprOp::kWithin: key.push_back('W'); break;
    default: key.push_back('O'); break;
  }
  for (int i = 0; i < 4; ++i) PutDouble(&key, query_rect[i]);
  return key;
}

const AtOps& RTreeIndexOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "rtree_index";
    o.create_instance = RtCreateInstance;
    o.drop_instance = &DropInstanceOf<RtInstance>;
    o.open = &RtState::Open<RtAddRecord>;
    o.on_insert = RtOnInsert;
    o.on_update = RtOnUpdate;
    o.on_delete = RtOnDelete;
    o.open_scan = RtOpenScan;
    o.lookup = RtLookup;
    o.cost = RtCost;
    o.undo = RtUndo;
    o.instance_count = &InstanceCountOf<RtInstance>;
    o.list_instances = &ListInstancesOf<RtInstance>;
    o.verify = RtVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
