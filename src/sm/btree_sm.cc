#include "src/sm/btree_sm.h"

#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/core/extension_log.h"
#include "src/sm/btree_core.h"
#include "src/sm/key_codec.h"
#include "src/util/coding.h"

namespace dmx {

Status ParseFieldList(const Schema& schema, const std::string& list,
                      std::vector<int>* fields) {
  fields->clear();
  std::string cur;
  auto flush = [&]() -> Status {
    // Trim spaces.
    size_t b = cur.find_first_not_of(' ');
    size_t e = cur.find_last_not_of(' ');
    if (b == std::string::npos) {
      return Status::InvalidArgument("empty column name in list");
    }
    std::string name = cur.substr(b, e - b + 1);
    int idx = schema.FindColumn(name);
    if (idx < 0) return Status::InvalidArgument("no column '" + name + "'");
    fields->push_back(idx);
    cur.clear();
    return Status::OK();
  };
  for (char c : list) {
    if (c == ',') {
      DMX_RETURN_IF_ERROR(flush());
    } else {
      cur.push_back(c);
    }
  }
  DMX_RETURN_IF_ERROR(flush());
  return Status::OK();
}

namespace {

struct BtSmState : public ExtState {
  PageId anchor = kInvalidPageId;
  std::vector<int> key_fields;
  std::unique_ptr<BTree> tree;
};

BtSmState* StateOf(SmContext& ctx) {
  return static_cast<BtSmState*>(ctx.state);
}

Status DecodeDesc(const Slice& sm_desc, PageId* anchor,
                  std::vector<int>* fields) {
  Slice in = sm_desc;
  uint32_t a, n;
  if (!GetFixed32(&in, &a) || !GetVarint32(&in, &n)) {
    return Status::Corruption("btree sm descriptor");
  }
  *anchor = a;
  fields->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t f;
    if (!GetVarint32(&in, &f)) return Status::Corruption("btree sm field");
    fields->push_back(static_cast<int>(f));
  }
  return Status::OK();
}

Status BtValidate(const Schema& schema, const AttrList& attrs,
                  std::string* sm_desc) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"key"}));
  if (!attrs.Has("key")) {
    return Status::InvalidArgument("btree storage requires key=<columns>");
  }
  std::vector<int> fields;
  DMX_RETURN_IF_ERROR(ParseFieldList(schema, attrs.Get("key"), &fields));
  sm_desc->clear();
  PutFixed32(sm_desc, kInvalidPageId);  // anchor assigned by create
  PutVarint32(sm_desc, static_cast<uint32_t>(fields.size()));
  for (int f : fields) PutVarint32(sm_desc, static_cast<uint32_t>(f));
  return Status::OK();
}

Status BtCreate(SmContext& ctx, std::string* sm_desc) {
  PageId anchor;
  std::vector<int> fields;
  DMX_RETURN_IF_ERROR(DecodeDesc(Slice(*sm_desc), &anchor, &fields));
  DMX_RETURN_IF_ERROR(BTree::Create(ctx.db->buffer_pool(), &anchor));
  sm_desc->clear();
  PutFixed32(sm_desc, anchor);
  PutVarint32(sm_desc, static_cast<uint32_t>(fields.size()));
  for (int f : fields) PutVarint32(sm_desc, static_cast<uint32_t>(f));
  return Status::OK();
}

Status BtDrop(SmContext& ctx) {
  PageId anchor;
  std::vector<int> fields;
  DMX_RETURN_IF_ERROR(
      DecodeDesc(Slice(ctx.desc->sm_desc), &anchor, &fields));
  return BTree::Destroy(ctx.db->buffer_pool(), anchor);
}

Status BtOpen(SmContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<BtSmState>();
  DMX_RETURN_IF_ERROR(
      DecodeDesc(Slice(ctx.desc->sm_desc), &st->anchor, &st->key_fields));
  st->tree = std::make_unique<BTree>(ctx.db->buffer_pool(), st->anchor);
  // A damaged tree must still open so CHECK and REPAIR can reach it;
  // costing retries the walk and reports its error.
  (void)st->tree->LoadCounts();
  *state = std::move(st);
  return Status::OK();
}

Status BtInsert(SmContext& ctx, const Slice& record,
                std::string* record_key) {
  BtSmState* st = StateOf(ctx);
  RecordView view(record, &ctx.desc->schema);
  std::string key;
  DMX_RETURN_IF_ERROR(EncodeFieldKey(view, st->key_fields, &key));
  Status s = st->tree->Insert(Slice(key), record, /*unique=*/true);
  if (s.IsConstraint()) {
    return Status::Constraint("duplicate key for btree-organized relation");
  }
  DMX_RETURN_IF_ERROR(s);
  std::string payload = "I";
  PutLengthPrefixedSlice(&payload, key);
  payload.append(record.data(), record.size());
  DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload)));
  *record_key = std::move(key);
  return Status::OK();
}

Status BtErase(SmContext& ctx, const Slice& record_key,
               const Slice& old_record) {
  BtSmState* st = StateOf(ctx);
  DMX_RETURN_IF_ERROR(st->tree->Remove(record_key, old_record));
  std::string payload = "D";
  PutLengthPrefixedSlice(&payload, record_key);
  payload.append(old_record.data(), old_record.size());
  return LogExtensionUpdate(ctx, std::move(payload));
}

Status BtUpdate(SmContext& ctx, const Slice& record_key,
                const Slice& old_record, const Slice& new_record,
                std::string* new_key) {
  BtSmState* st = StateOf(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  std::string nkey;
  DMX_RETURN_IF_ERROR(EncodeFieldKey(view, st->key_fields, &nkey));
  DMX_RETURN_IF_ERROR(st->tree->Remove(record_key, old_record));
  Status s = st->tree->Insert(Slice(nkey), new_record, /*unique=*/true);
  if (!s.ok()) {
    // Restore the removed entry before surfacing the failure.
    st->tree->Insert(record_key, old_record).ok();
    return s;
  }
  std::string payload = "U";
  PutLengthPrefixedSlice(&payload, record_key);
  PutLengthPrefixedSlice(&payload, old_record);
  PutLengthPrefixedSlice(&payload, nkey);
  PutLengthPrefixedSlice(&payload, new_record);
  DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload)));
  *new_key = std::move(nkey);
  return Status::OK();
}

Status BtFetch(SmContext& ctx, const Slice& record_key, std::string* record) {
  BtSmState* st = StateOf(ctx);
  std::vector<std::string> values;
  DMX_RETURN_IF_ERROR(st->tree->Lookup(record_key, &values));
  if (values.empty()) return Status::NotFound("record");
  *record = std::move(values[0]);
  return Status::OK();
}

class BtSmScan : public Scan {
 public:
  BtSmScan(Database* db, const RelationDescriptor* desc,
           std::unique_ptr<BTreeIterator> it, const ScanSpec& spec)
      : db_(db), desc_(desc), it_(std::move(it)), spec_(spec) {}

  Status Next(ScanItem* out) override {
    std::string key, value;
    while (true) {
      Status s = it_->Next(&key, &value);
      if (s.IsNotFound()) return Status::NotFound("end of scan");
      DMX_RETURN_IF_ERROR(s);
      if (spec_.high_key.has_value()) {
        int cmp = Slice(key).compare(Slice(*spec_.high_key));
        if (cmp > 0 || (cmp == 0 && !spec_.high_inclusive)) {
          return Status::NotFound("end of scan");
        }
      }
      holder_ = std::move(value);
      RecordView view(Slice(holder_), &desc_->schema);
      if (spec_.filter != nullptr) {
        bool passes = false;
        DMX_RETURN_IF_ERROR(db_->evaluator()->EvalPredicate(
            *spec_.filter, view, &passes, spec_.params));
        if (!passes) continue;
      }
      out->record_key = key;
      out->view = view;
      return Status::OK();
    }
  }

  Status SavePosition(std::string* out) const override {
    it_->SavePosition(out);
    return Status::OK();
  }

  Status RestorePosition(const Slice& pos) override {
    return it_->RestorePosition(pos);
  }

 private:
  Database* db_;
  const RelationDescriptor* desc_;
  std::unique_ptr<BTreeIterator> it_;
  ScanSpec spec_;
  std::string holder_;  // keeps the returned record bytes alive
};

Status BtOpenScan(SmContext& ctx, const ScanSpec& spec,
                  std::unique_ptr<Scan>* scan) {
  BtSmState* st = StateOf(ctx);
  std::unique_ptr<BTreeIterator> it;
  std::optional<std::string> low;
  if (spec.low_key.has_value()) {
    low = BTreeComposeEntry(Slice(*spec.low_key), Slice());
    if (!spec.low_inclusive) {
      // Skip every entry whose key equals low_key: the composite encoding
      // is escaped(key) + 00 00 + value, so escaped(key) + 00 01 sorts
      // after all of them and before the next key.
      low->back() = '\x01';
    }
  }
  DMX_RETURN_IF_ERROR(st->tree->NewIterator(&it, low, /*low_inclusive=*/true));
  *scan = std::make_unique<BtSmScan>(ctx.db, ctx.desc, std::move(it), spec);
  return Status::OK();
}

// Partition by separator keys: each sub-spec is a key range expressed with
// the ordinary low_key/high_key fields (half-open at the separator), so
// BtOpenScan needs no partition-specific path — every worker does a fresh
// descent. Correctness does not depend on separator placement: any set of
// strictly increasing keys cuts the key space into disjoint, covering
// ranges.
Status BtPartitionScan(SmContext& ctx, const ScanSpec& spec, int target,
                       std::vector<ScanSpec>* partitions) {
  partitions->clear();
  BtSmState* st = StateOf(ctx);
  std::vector<std::string> composites;
  if (target >= 2) {
    DMX_RETURN_IF_ERROR(st->tree->SeparatorKeys(target, &composites));
  }
  std::vector<std::string> cuts;
  for (const std::string& c : composites) {
    std::string key, value;
    if (!BTreeSplitEntry(Slice(c), &key, &value).ok()) continue;
    // Clamp to the requested range; a cut at or outside a bound would
    // produce an empty partition.
    if (spec.low_key.has_value() &&
        Slice(key).compare(Slice(*spec.low_key)) <= 0) {
      continue;
    }
    if (spec.high_key.has_value() &&
        Slice(key).compare(Slice(*spec.high_key)) >= 0) {
      continue;
    }
    if (!cuts.empty() && cuts.back() == key) continue;
    cuts.push_back(std::move(key));
  }
  if (cuts.empty()) {
    partitions->push_back(spec);  // declined: serial fallback
    return Status::OK();
  }
  for (size_t i = 0; i <= cuts.size(); ++i) {
    ScanSpec sub = spec;
    if (i > 0) {
      sub.low_key = cuts[i - 1];
      sub.low_inclusive = true;
    }
    if (i < cuts.size()) {
      sub.high_key = cuts[i];
      sub.high_inclusive = false;
    }
    partitions->push_back(std::move(sub));
  }
  return Status::OK();
}

Status BtCost(SmContext& ctx, const std::vector<ExprPtr>& predicates,
              AccessCost* out) {
  BtSmState* st = StateOf(ctx);
  out->usable = true;
  out->selectivity = EstimateSelectivity(predicates);
  out->handled_predicates.clear();
  // A predicate on the first key field lets the tree descend instead of
  // scanning every leaf ("a B-tree access path will return a low cost if
  // there is a predicate on the key of the B-tree").
  bool keyed = false;
  double key_selectivity = 1.0;
  for (size_t i = 0; i < predicates.size(); ++i) {
    int field;
    ExprOp op;
    if (MatchFieldCompare(predicates[i], &field, &op) &&
        !st->key_fields.empty() && field == st->key_fields[0] &&
        op != ExprOp::kNe) {
      keyed = true;
      key_selectivity *= EstimateSelectivity(predicates[i]);
      out->handled_predicates.push_back(static_cast<int>(i));
    }
  }
  uint64_t leaves = 0, records = 0;
  uint32_t height = 1;
  DMX_RETURN_IF_ERROR(st->tree->LeafPages(&leaves));
  DMX_RETURN_IF_ERROR(st->tree->Count(&records));
  DMX_RETURN_IF_ERROR(st->tree->Height(&height));
  if (keyed) {
    out->io_cost = height + key_selectivity * static_cast<double>(leaves);
    out->cpu_cost = key_selectivity * static_cast<double>(records);
  } else {
    out->io_cost = static_cast<double>(leaves);
    out->cpu_cost = static_cast<double>(records);
    for (size_t i = 0; i < predicates.size(); ++i) {
      out->handled_predicates.push_back(static_cast<int>(i));
    }
  }
  return Status::OK();
}

Status BtCount(SmContext& ctx, uint64_t* records) {
  return StateOf(ctx)->tree->Count(records);
}

Status BtApply(SmContext& ctx, const LogRecord& rec, bool undo) {
  BtSmState* st = StateOf(ctx);
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("btree sm payload");
  char op = in[0];
  in.remove_prefix(1);
  Slice key;
  if (!GetLengthPrefixedSlice(&in, &key)) {
    return Status::Corruption("btree sm key");
  }
  switch (op) {
    case 'I':
      return undo ? st->tree->Remove(key, in, /*idempotent=*/true)
                  : st->tree->Insert(key, in);
    case 'D':
      return undo ? st->tree->Insert(key, in)
                  : st->tree->Remove(key, in, /*idempotent=*/true);
    case 'U': {
      Slice old_rec, nkey, new_rec;
      if (!GetLengthPrefixedSlice(&in, &old_rec) ||
          !GetLengthPrefixedSlice(&in, &nkey) ||
          !GetLengthPrefixedSlice(&in, &new_rec)) {
        return Status::Corruption("btree sm update payload");
      }
      if (undo) {
        DMX_RETURN_IF_ERROR(st->tree->Remove(nkey, new_rec, true));
        return st->tree->Insert(key, old_rec);
      }
      DMX_RETURN_IF_ERROR(st->tree->Remove(key, old_rec, true));
      return st->tree->Insert(nkey, new_rec);
    }
    default:
      return Status::Corruption("btree sm op");
  }
}

// Structural sweep plus a record-decode pass: the stored values are the
// relation's records, so a corrupted leaf payload must surface here.
Status BtVerify(SmContext& ctx, VerifyReport* report) {
  BtSmState* st = StateOf(ctx);
  std::vector<std::string> problems;
  uint64_t entries = 0;
  DMX_RETURN_IF_ERROR(st->tree->Verify(&problems, &entries));
  for (std::string& p : problems) report->Problem(std::move(p));
  report->items += entries;
  if (!report->clean()) return Status::OK();
  std::unique_ptr<BTreeIterator> it;
  DMX_RETURN_IF_ERROR(st->tree->NewIterator(&it));
  std::string key, value;
  while (true) {
    Status s = it->Next(&key, &value);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    RecordView view(Slice(value), &ctx.desc->schema);
    Status vs = view.Validate();
    if (!vs.ok()) {
      report->Problem("btree record at key fails to decode: " +
                      vs.ToString());
      continue;
    }
    std::string expect;
    Status ks = EncodeFieldKey(view, st->key_fields, &expect);
    if (ks.ok() && expect != key) {
      report->Problem("btree entry key does not match its record's "
                      "key fields");
    }
  }
  return Status::OK();
}

Status BtUndo(SmContext& ctx, const LogRecord& rec, Lsn) {
  return BtApply(ctx, rec, /*undo=*/true);
}

Status BtRedo(SmContext& ctx, const LogRecord& rec, Lsn) {
  return BtApply(ctx, rec, /*undo=*/false);
}

}  // namespace

const SmOps& BTreeStorageMethodOps() {
  static const SmOps ops = [] {
    SmOps o;
    o.name = "btree";
    o.validate = BtValidate;
    o.create = BtCreate;
    o.drop = BtDrop;
    o.open = BtOpen;
    o.insert = BtInsert;
    o.update = BtUpdate;
    o.erase = BtErase;
    o.fetch = BtFetch;
    o.open_scan = BtOpenScan;
    o.partition_scan = BtPartitionScan;
    o.cost = BtCost;
    o.undo = BtUndo;
    o.redo = BtRedo;
    o.count = BtCount;
    o.verify = BtVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
