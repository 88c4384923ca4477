#include "src/attach/hash_index.h"

#include <unordered_map>
#include <unordered_set>

#include "src/core/attachment_instances.h"
#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/core/derived_state.h"
#include "src/core/extension_log.h"
#include "src/sm/btree_sm.h"
#include "src/sm/key_codec.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

struct HashInstance {
  static constexpr const char* kType = "hash";
  uint32_t no = 0;
  std::vector<int> fields;

  void EncodeTo(std::string* dst) const { PutFieldList(dst, fields); }
  static Status DecodeFrom(Slice* in, HashInstance* inst) {
    return GetFieldList(in, &inst->fields, "hash instance", "hash field");
  }
};
using HashList = InstanceList<HashInstance>;

// One instance's entries: key -> the record keys stored under it. Each
// bucket is itself keyed by record key, so a remove finds its entry in O(1)
// however many records share the key.
struct HashTable {
  std::unordered_map<std::string, std::unordered_set<std::string>> buckets;
  size_t entries = 0;
};

using HashState = DerivedState<HashInstance, HashTable>;

Status HashLog(AtContext& ctx, char op, uint32_t instance, const Slice& key,
               const Slice& record_key) {
  std::string payload(1, op);
  PutVarint32(&payload, instance);
  PutLengthPrefixedSlice(&payload, key);
  payload.append(record_key.data(), record_key.size());
  return LogExtensionUpdate(ctx, std::move(payload));
}

void TableAdd(HashTable* table, const std::string& key,
              const std::string& record_key) {
  if (table->buckets[key].insert(record_key).second) ++table->entries;
}

void TableRemove(HashTable* table, const std::string& key,
                 const std::string& record_key) {
  auto bucket = table->buckets.find(key);
  if (bucket == table->buckets.end()) return;
  if (bucket->second.erase(record_key) > 0) --table->entries;
  if (bucket->second.empty()) table->buckets.erase(bucket);
}

Status HashAdd(const HashInstance& inst, const ScanItem& item,
               HashTable* table) {
  std::string key;
  DMX_RETURN_IF_ERROR(EncodeFieldKey(item.view, inst.fields, &key));
  TableAdd(table, key, item.record_key);
  return Status::OK();
}

Status HashCreateInstance(AtContext& ctx, const AttrList& attrs,
                          std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"fields"}));
  if (!attrs.Has("fields")) {
    return Status::InvalidArgument("hash_index requires fields=<columns>");
  }
  HashInstance inst;
  DMX_RETURN_IF_ERROR(
      ParseFieldList(ctx.desc->schema, attrs.Get("fields"), &inst.fields));
  HashList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status HashOnInsert(AtContext& ctx, const Slice& record_key,
                    const Slice& new_record) {
  HashState* st = HashState::Of(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  for (const HashInstance& inst : st->instances()) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string key;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &key));
    st->With(inst.no, [&](HashTable* table) {
      TableAdd(table, key, record_key.ToString());
    });
    DMX_RETURN_IF_ERROR(
        HashLog(ctx, 'I', inst.no, Slice(key), record_key));
  }
  return Status::OK();
}

Status HashOnUpdate(AtContext& ctx, const Slice& old_key,
                    const Slice& new_key, const Slice& old_record,
                    const Slice& new_record) {
  HashState* st = HashState::Of(ctx);
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const HashInstance& inst : st->instances()) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string okey, nkey;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(old_view, inst.fields, &okey));
    DMX_RETURN_IF_ERROR(EncodeFieldKey(new_view, inst.fields, &nkey));
    if (okey == nkey && old_key == new_key) continue;
    st->With(inst.no, [&](HashTable* table) {
      TableRemove(table, okey, old_key.ToString());
      TableAdd(table, nkey, new_key.ToString());
    });
    DMX_RETURN_IF_ERROR(HashLog(ctx, 'D', inst.no, Slice(okey), old_key));
    DMX_RETURN_IF_ERROR(HashLog(ctx, 'I', inst.no, Slice(nkey), new_key));
  }
  return Status::OK();
}

Status HashOnDelete(AtContext& ctx, const Slice& record_key,
                    const Slice& old_record) {
  HashState* st = HashState::Of(ctx);
  RecordView view(old_record, &ctx.desc->schema);
  for (const HashInstance& inst : st->instances()) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string key;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &key));
    st->With(inst.no, [&](HashTable* table) {
      TableRemove(table, key, record_key.ToString());
    });
    DMX_RETURN_IF_ERROR(HashLog(ctx, 'D', inst.no, Slice(key), record_key));
  }
  return Status::OK();
}

Status HashLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                  std::vector<std::string>* record_keys) {
  record_keys->clear();
  return HashState::Of(ctx)->With(instance_no, [&](HashTable* table) {
    if (table == nullptr) return HashList::NotFound(instance_no);
    auto bucket = table->buckets.find(key.ToString());
    if (bucket != table->buckets.end()) {
      record_keys->assign(bucket->second.begin(), bucket->second.end());
    }
    return Status::OK();
  });
}

size_t EntriesOf(HashState* st, uint32_t instance_no) {
  return st->With(instance_no,
                  [](HashTable* table) { return table->entries; });
}

Status HashCost(AtContext& ctx, uint32_t instance_no,
                const std::vector<ExprPtr>& predicates, AccessCost* out) {
  HashState* st = HashState::Of(ctx);
  const HashInstance* inst = st->instances().Find(instance_no);
  out->usable = false;
  if (inst == nullptr) return Status::OK();
  // Relevant only when equality predicates cover every hashed field.
  std::vector<int> handled;
  size_t covered = 0;
  for (int field : inst->fields) {
    bool found = false;
    for (size_t i = 0; i < predicates.size(); ++i) {
      int f;
      ExprOp op;
      if (MatchFieldCompare(predicates[i], &f, &op) &&
          op == ExprOp::kEq && f == field) {
        handled.push_back(static_cast<int>(i));
        found = true;
        break;
      }
    }
    if (found) ++covered;
  }
  if (covered != inst->fields.size()) return Status::OK();
  const size_t entries = EntriesOf(st, instance_no);
  out->usable = true;
  out->handled_predicates = std::move(handled);
  out->selectivity = entries == 0 ? 0.0 : 1.0 / static_cast<double>(entries);
  // One O(1) probe, then fetch the expected single match.
  double expected = entries == 0 ? 0.0 : 1.0;
  out->fetch_cost = expected * kRecordFetchCost;
  out->io_cost = out->fetch_cost;
  out->cpu_cost = 1.0 + expected;
  return Status::OK();
}

Status HashUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("hash payload");
  char op = in[0];
  in.remove_prefix(1);
  uint32_t instance;
  Slice key;
  if (!GetVarint32(&in, &instance) || !GetLengthPrefixedSlice(&in, &key)) {
    return Status::Corruption("hash payload body");
  }
  HashState::Of(ctx)->With(instance, [&](HashTable* table) {
    if (table == nullptr) return;  // instance dropped since
    if (op == 'I') {
      TableRemove(table, key.ToString(), in.ToString());
    } else {
      TableAdd(table, key.ToString(), in.ToString());
    }
  });
  return Status::OK();
}

// Cross-check the live table for one instance against a fresh enumeration
// of the base relation: every base record's key must map to its record key,
// and the table must hold nothing else. Each base record is one probe of
// its bucket, so the check stays linear however many records share a key.
Status HashVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  HashState* st = HashState::Of(ctx);
  const HashInstance* inst = st->instances().Find(instance_no);
  if (inst == nullptr) return HashList::NotFound(instance_no);
  const std::string tag = "hash_index#" + std::to_string(instance_no) + ": ";

  uint64_t base_records = 0;
  DMX_RETURN_IF_ERROR(ScanRelation(ctx, [&](const ScanItem& item) {
    ++base_records;
    std::string key;
    Status ks = EncodeFieldKey(item.view, inst->fields, &key);
    if (!ks.ok()) {
      report->Problem(tag + "cannot compose key for a base record: " +
                      ks.ToString());
    } else if (!st->With(instance_no, [&](HashTable* table) {
                 auto bucket = table->buckets.find(key);
                 return bucket != table->buckets.end() &&
                        bucket->second.contains(item.record_key);
               })) {
      report->Problem(tag + "base record has no matching hash entry");
    }
    return Status::OK();
  }));
  const size_t entries = EntriesOf(st, instance_no);
  report->items += entries;
  if (entries != base_records) {
    report->Problem(tag + "holds " + std::to_string(entries) +
                    " entries but the relation holds " +
                    std::to_string(base_records) + " records");
  }
  return Status::OK();
}

}  // namespace

const AtOps& HashIndexOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "hash_index";
    o.create_instance = HashCreateInstance;
    o.drop_instance = &DropInstanceOf<HashInstance>;
    o.open = &HashState::Open<HashAdd>;
    o.on_insert = HashOnInsert;
    o.on_update = HashOnUpdate;
    o.on_delete = HashOnDelete;
    o.lookup = HashLookup;
    o.cost = HashCost;
    o.undo = HashUndo;
    o.instance_count = &InstanceCountOf<HashInstance>;
    o.list_instances = &ListInstancesOf<HashInstance>;
    o.instance_fields = &InstanceFieldsOf<HashInstance>;
    o.verify = HashVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
