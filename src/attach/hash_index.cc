#include "src/attach/hash_index.h"

#include <unordered_map>

#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/sm/btree_sm.h"
#include "src/sm/key_codec.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

struct HashInstance {
  uint32_t no = 0;
  std::vector<int> fields;
};

struct HashTypeDesc {
  uint32_t next_no = 1;
  std::vector<HashInstance> instances;

  void EncodeTo(std::string* dst) const {
    PutVarint32(dst, next_no);
    PutVarint32(dst, static_cast<uint32_t>(instances.size()));
    for (const HashInstance& inst : instances) {
      PutVarint32(dst, inst.no);
      PutVarint32(dst, static_cast<uint32_t>(inst.fields.size()));
      for (int f : inst.fields) PutVarint32(dst, static_cast<uint32_t>(f));
    }
  }

  static Status DecodeFrom(Slice in, HashTypeDesc* out) {
    out->instances.clear();
    if (in.empty()) {
      out->next_no = 1;
      return Status::OK();
    }
    uint32_t next, count;
    if (!GetVarint32(&in, &next) || !GetVarint32(&in, &count)) {
      return Status::Corruption("hash descriptor");
    }
    out->next_no = next;
    for (uint32_t i = 0; i < count; ++i) {
      HashInstance inst;
      uint32_t no, nfields;
      if (!GetVarint32(&in, &no) || !GetVarint32(&in, &nfields)) {
        return Status::Corruption("hash instance");
      }
      inst.no = no;
      for (uint32_t f = 0; f < nfields; ++f) {
        uint32_t idx;
        if (!GetVarint32(&in, &idx)) return Status::Corruption("hash field");
        inst.fields.push_back(static_cast<int>(idx));
      }
      out->instances.push_back(std::move(inst));
    }
    return Status::OK();
  }

  const HashInstance* Find(uint32_t no) const {
    for (const HashInstance& inst : instances) {
      if (inst.no == no) return &inst;
    }
    return nullptr;
  }
};

struct HashState : public ExtState {
  HashTypeDesc desc;
  // instance -> (key -> record keys)
  std::unordered_map<uint32_t,
                     std::unordered_multimap<std::string, std::string>>
      tables;
};

HashState* StateOf(AtContext& ctx) {
  return static_cast<HashState*>(ctx.state);
}

Status HashLog(AtContext& ctx, char op, uint32_t instance, const Slice& key,
               const Slice& record_key) {
  std::string payload(1, op);
  PutVarint32(&payload, instance);
  PutLengthPrefixedSlice(&payload, key);
  payload.append(record_key.data(), record_key.size());
  LogRecord rec = MakeUpdateRecord(
      ctx.txn != nullptr ? ctx.txn->id() : kInvalidTxnId,
      ExtKind::kAttachment, ctx.at_id, ctx.desc->id, std::move(payload));
  rec.prev_lsn = ctx.txn != nullptr ? ctx.txn->last_lsn() : kInvalidLsn;
  DMX_RETURN_IF_ERROR(ctx.db->log()->Append(&rec));
  if (ctx.txn != nullptr) ctx.txn->set_last_lsn(rec.lsn);
  return Status::OK();
}

void TableAdd(HashState* st, uint32_t instance, const std::string& key,
              const std::string& record_key) {
  st->tables[instance].emplace(key, record_key);
}

void TableRemove(HashState* st, uint32_t instance, const std::string& key,
                 const std::string& record_key) {
  auto& table = st->tables[instance];
  auto [begin, end] = table.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == record_key) {
      table.erase(it);
      return;
    }
  }
}

Status HashRebuild(AtContext& ctx);

Status HashOpen(AtContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<HashState>();
  DMX_RETURN_IF_ERROR(HashTypeDesc::DecodeFrom(ctx.at_desc, &st->desc));
  AtContext prime = ctx;
  prime.state = st.get();
  DMX_RETURN_IF_ERROR(HashRebuild(prime));
  *state = std::move(st);
  return Status::OK();
}

Status HashRebuild(AtContext& ctx) {
  HashState* st = StateOf(ctx);
  st->tables.clear();
  if (st->desc.instances.empty()) return Status::OK();
  const SmOps& sm = ctx.db->registry()->sm_ops(ctx.desc->sm_id);
  SmContext sctx;
  DMX_RETURN_IF_ERROR(ctx.db->MakeSmContext(nullptr, ctx.desc, &sctx));
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(sm.open_scan(sctx, ScanSpec{}, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    for (const HashInstance& inst : st->desc.instances) {
      std::string key;
      DMX_RETURN_IF_ERROR(EncodeFieldKey(item.view, inst.fields, &key));
      TableAdd(st, inst.no, key, item.record_key);
    }
  }
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
  HashTypeDesc desc;
  DMX_RETURN_IF_ERROR(HashTypeDesc::DecodeFrom(ctx.at_desc, &desc));
  inst.no = desc.next_no++;
  *instance_no = inst.no;
  desc.instances.push_back(std::move(inst));
  new_desc->clear();
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status HashDropInstance(AtContext& ctx, uint32_t instance_no,
                        std::string* new_desc) {
  HashTypeDesc desc;
  DMX_RETURN_IF_ERROR(HashTypeDesc::DecodeFrom(ctx.at_desc, &desc));
  bool found = false;
  std::vector<HashInstance> kept;
  for (HashInstance& inst : desc.instances) {
    if (inst.no == instance_no) {
      found = true;
    } else {
      kept.push_back(std::move(inst));
    }
  }
  if (!found) {
    return Status::NotFound("hash instance " + std::to_string(instance_no));
  }
  desc.instances = std::move(kept);
  new_desc->clear();
  if (!desc.instances.empty()) desc.EncodeTo(new_desc);
  return Status::OK();
}

Status HashOnInsert(AtContext& ctx, const Slice& record_key,
                    const Slice& new_record) {
  HashState* st = StateOf(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  for (const HashInstance& inst : st->desc.instances) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string key;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &key));
    TableAdd(st, inst.no, key, record_key.ToString());
    DMX_RETURN_IF_ERROR(
        HashLog(ctx, 'I', inst.no, Slice(key), record_key));
  }
  return Status::OK();
}

Status HashOnUpdate(AtContext& ctx, const Slice& old_key,
                    const Slice& new_key, const Slice& old_record,
                    const Slice& new_record) {
  HashState* st = StateOf(ctx);
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const HashInstance& inst : st->desc.instances) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string okey, nkey;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(old_view, inst.fields, &okey));
    DMX_RETURN_IF_ERROR(EncodeFieldKey(new_view, inst.fields, &nkey));
    if (okey == nkey && old_key == new_key) continue;
    TableRemove(st, inst.no, okey, old_key.ToString());
    DMX_RETURN_IF_ERROR(HashLog(ctx, 'D', inst.no, Slice(okey), old_key));
    TableAdd(st, inst.no, nkey, new_key.ToString());
    DMX_RETURN_IF_ERROR(HashLog(ctx, 'I', inst.no, Slice(nkey), new_key));
  }
  return Status::OK();
}

Status HashOnDelete(AtContext& ctx, const Slice& record_key,
                    const Slice& old_record) {
  HashState* st = StateOf(ctx);
  RecordView view(old_record, &ctx.desc->schema);
  for (const HashInstance& inst : st->desc.instances) {
    if (ctx.desc->IsQuarantined(ctx.at_id, inst.no)) continue;
    std::string key;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &key));
    TableRemove(st, inst.no, key, record_key.ToString());
    DMX_RETURN_IF_ERROR(HashLog(ctx, 'D', inst.no, Slice(key), record_key));
  }
  return Status::OK();
}

Status HashLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                  std::vector<std::string>* record_keys) {
  HashState* st = StateOf(ctx);
  record_keys->clear();
  auto tit = st->tables.find(instance_no);
  if (tit == st->tables.end()) {
    if (st->desc.Find(instance_no) == nullptr) {
      return Status::NotFound("hash instance " +
                              std::to_string(instance_no));
    }
    return Status::OK();
  }
  auto [begin, end] = tit->second.equal_range(key.ToString());
  for (auto it = begin; it != end; ++it) record_keys->push_back(it->second);
  return Status::OK();
}

Status HashCost(AtContext& ctx, uint32_t instance_no,
                const std::vector<ExprPtr>& predicates, AccessCost* out) {
  HashState* st = StateOf(ctx);
  const HashInstance* inst = st->desc.Find(instance_no);
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
  size_t entries = 0;
  auto tit = st->tables.find(instance_no);
  if (tit != st->tables.end()) entries = tit->second.size();
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

Status HashApply(AtContext& ctx, const LogRecord& rec, bool undo) {
  HashState* st = StateOf(ctx);
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("hash payload");
  char op = in[0];
  in.remove_prefix(1);
  uint32_t instance;
  Slice key;
  if (!GetVarint32(&in, &instance) || !GetLengthPrefixedSlice(&in, &key)) {
    return Status::Corruption("hash payload body");
  }
  bool add = (op == 'I');
  if (undo) add = !add;
  if (add) {
    TableAdd(st, instance, key.ToString(), in.ToString());
  } else {
    TableRemove(st, instance, key.ToString(), in.ToString());
  }
  return Status::OK();
}

Status HashUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  return HashApply(ctx, rec, /*undo=*/true);
}

// Restart redo is superseded by rebuild().
Status HashRedo(AtContext&, const LogRecord&, Lsn) { return Status::OK(); }

uint32_t HashInstanceCount(const Slice& at_desc) {
  HashTypeDesc desc;
  if (!HashTypeDesc::DecodeFrom(at_desc, &desc).ok()) return 0;
  return static_cast<uint32_t>(desc.instances.size());
}

Status HashListInstances(const Slice& at_desc, std::vector<uint32_t>* out) {
  HashTypeDesc desc;
  DMX_RETURN_IF_ERROR(HashTypeDesc::DecodeFrom(at_desc, &desc));
  out->clear();
  for (const HashInstance& inst : desc.instances) out->push_back(inst.no);
  return Status::OK();
}

// Cross-check the live table for one instance against a fresh enumeration
// of the base relation: every base record's key must map to its record key
// exactly once, and the table must hold nothing else.
Status HashVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  HashState* st = StateOf(ctx);
  const HashInstance* inst = st->desc.Find(instance_no);
  if (inst == nullptr) {
    return Status::NotFound("hash instance " + std::to_string(instance_no));
  }
  static const std::unordered_multimap<std::string, std::string> kEmpty;
  auto tit = st->tables.find(instance_no);
  const auto& table = tit != st->tables.end() ? tit->second : kEmpty;
  const std::string tag = "hash_index#" + std::to_string(instance_no) + ": ";

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
    auto [begin, end] = table.equal_range(key);
    bool found = false;
    for (auto it = begin; it != end; ++it) {
      if (it->second == item.record_key) {
        found = true;
        break;
      }
    }
    if (!found) {
      report->Problem(tag + "base record has no matching hash entry");
    }
  }
  report->items += table.size();
  if (table.size() != base_records) {
    report->Problem(tag + "holds " + std::to_string(table.size()) +
                    " entries but the relation holds " +
                    std::to_string(base_records) + " records");
  }
  return Status::OK();
}

Status HashInstanceFields(const Slice& at_desc, uint32_t instance,
                          std::vector<int>* fields) {
  HashTypeDesc desc;
  DMX_RETURN_IF_ERROR(HashTypeDesc::DecodeFrom(at_desc, &desc));
  const HashInstance* inst = desc.Find(instance);
  if (inst == nullptr) return Status::NotFound("hash instance");
  *fields = inst->fields;
  return Status::OK();
}

}  // namespace

const AtOps& HashIndexOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "hash_index";
    o.create_instance = HashCreateInstance;
    o.drop_instance = HashDropInstance;
    o.open = HashOpen;
    o.on_insert = HashOnInsert;
    o.on_update = HashOnUpdate;
    o.on_delete = HashOnDelete;
    o.lookup = HashLookup;
    o.cost = HashCost;
    o.undo = HashUndo;
    o.redo = HashRedo;
    o.rebuild = HashRebuild;
    o.instance_count = HashInstanceCount;
    o.list_instances = HashListInstances;
    o.instance_fields = HashInstanceFields;
    o.verify = HashVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
