#include "src/attach/unique_constraint.h"

#include <map>

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/core/extension_log.h"
#include "src/sm/btree_sm.h"
#include "src/sm/key_codec.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

struct UniqueInstance {
  static constexpr const char* kType = "unique";
  uint32_t no = 0;
  std::string name;
  std::vector<int> fields;

  void EncodeTo(std::string* dst) const {
    PutLengthPrefixedSlice(dst, name);
    PutFieldList(dst, fields);
  }
  static Status DecodeFrom(Slice* in, UniqueInstance* inst) {
    Slice name;
    if (!GetLengthPrefixedSlice(in, &name)) {
      return Status::Corruption("unique instance");
    }
    inst->name = name.ToString();
    return GetFieldList(in, &inst->fields, "unique instance", "unique field");
  }
};
using UniqueList = InstanceList<UniqueInstance>;

struct UniqueState : public ExtState {
  UniqueList desc;
  // Per instance: key encoding -> live count (should be 0 or 1, but kept
  // as a count so undo/redo replay composes).
  std::map<uint32_t, std::map<std::string, int64_t>> counts;
};

UniqueState* StateOf(AtContext& ctx) {
  return static_cast<UniqueState*>(ctx.state);
}

// A row participates only if none of its constrained fields is NULL.
bool KeyOf(const RecordView& view, const std::vector<int>& fields,
           std::string* key) {
  for (int f : fields) {
    if (view.IsNull(static_cast<size_t>(f))) return false;
  }
  key->clear();
  return EncodeFieldKey(view, fields, key).ok();
}

Status UqLog(AtContext& ctx, char op, uint32_t instance, const Slice& key) {
  std::string payload(1, op);
  PutVarint32(&payload, instance);
  payload.append(key.data(), key.size());
  return LogExtensionUpdate(ctx, std::move(payload));
}

// (Re)build the key-count tables by scanning the base relation — used both
// at first open and as the restart-recovery rebuild hook ("wide latitude in
// the selection of recovery techniques").
Status UqRebuild(AtContext& ctx);

Status UqOpen(AtContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<UniqueState>();
  DMX_RETURN_IF_ERROR(st->desc.Decode(ctx.at_desc));
  AtContext prime_ctx = ctx;
  prime_ctx.state = st.get();
  DMX_RETURN_IF_ERROR(UqRebuild(prime_ctx));
  *state = std::move(st);
  return Status::OK();
}

Status UqRebuild(AtContext& ctx) {
  UniqueState* st = StateOf(ctx);
  st->counts.clear();
  if (st->desc.empty()) return Status::OK();
  std::unique_ptr<Scan> scan;
  const SmOps& sm = ctx.db->registry()->sm_ops(ctx.desc->sm_id);
  SmContext sctx;
  DMX_RETURN_IF_ERROR(ctx.db->MakeSmContext(nullptr, ctx.desc, &sctx));
  DMX_RETURN_IF_ERROR(sm.open_scan(sctx, ScanSpec{}, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    for (const UniqueInstance& inst : st->desc) {
      std::string key;
      if (KeyOf(item.view, inst.fields, &key)) ++st->counts[inst.no][key];
    }
  }
  return Status::OK();
}

Status UqCreateInstance(AtContext& ctx, const AttrList& attrs,
                        std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"fields", "name"}));
  if (!attrs.Has("fields")) {
    return Status::InvalidArgument("unique requires fields=<columns>");
  }
  UniqueInstance inst;
  inst.name = attrs.Get("name");
  DMX_RETURN_IF_ERROR(
      ParseFieldList(ctx.desc->schema, attrs.Get("fields"), &inst.fields));

  UniqueList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));

  // Scan existing data: reject creation on a relation that already has
  // duplicates. (The post-DDL reopen rescans to prime the live table.)
  std::map<std::string, int64_t> seen;
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, ctx.desc, AccessPathId::StorageMethod(), ScanSpec{}, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    std::string key;
    if (!KeyOf(item.view, inst.fields, &key)) continue;
    if (++seen[key] > 1) {
      return Status::Constraint("existing duplicates prevent unique '" +
                                inst.name + "'");
    }
  }

  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status UqAdd(AtContext& ctx, UniqueState* st, const UniqueInstance& inst,
             const RecordView& view) {
  std::string key;
  if (!KeyOf(view, inst.fields, &key)) return Status::OK();
  int64_t& count = st->counts[inst.no][key];
  if (count > 0) {
    return Status::Constraint(
        "unique constraint" +
        (inst.name.empty() ? "" : " '" + inst.name + "'") + " violated");
  }
  ++count;
  return UqLog(ctx, 'I', inst.no, Slice(key));
}

Status UqRemove(AtContext& ctx, UniqueState* st, const UniqueInstance& inst,
                const RecordView& view) {
  std::string key;
  if (!KeyOf(view, inst.fields, &key)) return Status::OK();
  auto& table = st->counts[inst.no];
  auto it = table.find(key);
  if (it != table.end() && --it->second <= 0) table.erase(it);
  return UqLog(ctx, 'D', inst.no, Slice(key));
}

Status UqOnInsert(AtContext& ctx, const Slice&, const Slice& new_record) {
  UniqueState* st = StateOf(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  for (const UniqueInstance& inst : st->desc) {
    DMX_RETURN_IF_ERROR(UqAdd(ctx, st, inst, view));
  }
  return Status::OK();
}

Status UqOnUpdate(AtContext& ctx, const Slice&, const Slice&,
                  const Slice& old_record, const Slice& new_record) {
  UniqueState* st = StateOf(ctx);
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const UniqueInstance& inst : st->desc) {
    std::string okey, nkey;
    bool had = KeyOf(old_view, inst.fields, &okey);
    bool has = KeyOf(new_view, inst.fields, &nkey);
    if (had && has && okey == nkey) continue;  // key unchanged
    if (had) DMX_RETURN_IF_ERROR(UqRemove(ctx, st, inst, old_view));
    if (has) DMX_RETURN_IF_ERROR(UqAdd(ctx, st, inst, new_view));
  }
  return Status::OK();
}

Status UqOnDelete(AtContext& ctx, const Slice&, const Slice& old_record) {
  UniqueState* st = StateOf(ctx);
  RecordView view(old_record, &ctx.desc->schema);
  for (const UniqueInstance& inst : st->desc) {
    DMX_RETURN_IF_ERROR(UqRemove(ctx, st, inst, view));
  }
  return Status::OK();
}

Status UqApply(AtContext& ctx, const LogRecord& rec, bool undo) {
  UniqueState* st = StateOf(ctx);
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("unique payload");
  char op = in[0];
  in.remove_prefix(1);
  uint32_t instance;
  if (!GetVarint32(&in, &instance)) {
    return Status::Corruption("unique instance id");
  }
  bool add = (op == 'I');
  if (undo) add = !add;
  auto& table = st->counts[instance];
  if (add) {
    ++table[in.ToString()];
  } else {
    auto it = table.find(in.ToString());
    if (it != table.end() && --it->second <= 0) table.erase(it);
  }
  return Status::OK();
}

Status UqUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  return UqApply(ctx, rec, /*undo=*/true);
}

// Redo at restart is a no-op: rebuild() reconstructs from the base
// relation after redo/undo complete, which supersedes replay.
Status UqRedo(AtContext&, const LogRecord&, Lsn) { return Status::OK(); }

// Verify re-derives key multiplicities straight from the base relation, so
// it catches both genuine duplicate data and a drifted live table.
Status UqVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  UniqueState* st = StateOf(ctx);
  const UniqueInstance* inst = st->desc.Find(instance_no);
  if (inst == nullptr) return UniqueList::NotFound(instance_no);
  const std::string tag = "unique#" + std::to_string(instance_no) + ": ";

  std::map<std::string, int64_t> seen;
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, ctx.desc, AccessPathId::StorageMethod(), ScanSpec{}, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    std::string key;
    if (!KeyOf(item.view, inst->fields, &key)) continue;
    if (++seen[key] == 2) {
      report->Problem(tag + "duplicate value for unique constraint" +
                      (inst->name.empty() ? "" : " '" + inst->name + "'"));
    }
    ++report->items;
  }

  // Cross-check the live count table against the recomputed one.
  auto live_it = st->counts.find(instance_no);
  static const std::map<std::string, int64_t> kEmpty;
  const auto& live = live_it != st->counts.end() ? live_it->second : kEmpty;
  if (live != seen) {
    report->Problem(tag + "in-memory key counts disagree with base relation");
  }
  return Status::OK();
}

}  // namespace

const AtOps& UniqueConstraintOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "unique";
    o.create_instance = UqCreateInstance;
    o.drop_instance = &DropInstanceOf<UniqueInstance>;
    o.open = UqOpen;
    o.on_insert = UqOnInsert;
    o.on_update = UqOnUpdate;
    o.on_delete = UqOnDelete;
    o.undo = UqUndo;
    o.redo = UqRedo;
    o.rebuild = UqRebuild;
    o.instance_count = &InstanceCountOf<UniqueInstance>;
    o.list_instances = &ListInstancesOf<UniqueInstance>;
    o.verify = UqVerify;
    // Every instance guards integrity: with the constraint quarantined its
    // veto no longer fires, so writes must be refused until REPAIR.
    o.guards_integrity = &GuardsIntegrityOf<UniqueInstance>;
    return o;
  }();
  return ops;
}

}  // namespace dmx
