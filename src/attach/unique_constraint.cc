#include "src/attach/unique_constraint.h"

#include <map>

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/core/derived_state.h"
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

// Per instance: key encoding -> live count (0 or 1 once every hook and
// undo has run; a count, so that maintenance and undo compose).
using UniqueCounts = std::map<std::string, int64_t>;
using UniqueState = DerivedState<UniqueInstance, UniqueCounts>;

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

void CountRemove(UniqueCounts* counts, const std::string& key) {
  auto it = counts->find(key);
  if (it != counts->end() && --it->second <= 0) counts->erase(it);
}

Status UqAddRecord(const UniqueInstance& inst, const ScanItem& item,
                   UniqueCounts* counts) {
  std::string key;
  if (KeyOf(item.view, inst.fields, &key)) ++(*counts)[key];
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
  UniqueCounts seen;
  DMX_RETURN_IF_ERROR(ScanRelation(ctx, [&](const ScanItem& item) {
    std::string key;
    if (KeyOf(item.view, inst.fields, &key) && ++seen[key] > 1) {
      return Status::Constraint("existing duplicates prevent unique '" +
                                inst.name + "'");
    }
    return Status::OK();
  }));

  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status UqAdd(AtContext& ctx, const UniqueInstance& inst,
             const RecordView& view) {
  std::string key;
  if (!KeyOf(view, inst.fields, &key)) return Status::OK();
  DMX_RETURN_IF_ERROR(
      UniqueState::Of(ctx)->With(inst.no, [&](UniqueCounts* counts) {
        int64_t& count = (*counts)[key];
        if (count > 0) {
          return Status::Constraint(
              "unique constraint" +
              (inst.name.empty() ? "" : " '" + inst.name + "'") +
              " violated");
        }
        ++count;
        return Status::OK();
      }));
  return UqLog(ctx, 'I', inst.no, Slice(key));
}

Status UqRemove(AtContext& ctx, const UniqueInstance& inst,
                const RecordView& view) {
  std::string key;
  if (!KeyOf(view, inst.fields, &key)) return Status::OK();
  UniqueState::Of(ctx)->With(
      inst.no, [&](UniqueCounts* counts) { CountRemove(counts, key); });
  return UqLog(ctx, 'D', inst.no, Slice(key));
}

Status UqOnInsert(AtContext& ctx, const Slice&, const Slice& new_record) {
  RecordView view(new_record, &ctx.desc->schema);
  for (const UniqueInstance& inst : UniqueState::Of(ctx)->instances()) {
    DMX_RETURN_IF_ERROR(UqAdd(ctx, inst, view));
  }
  return Status::OK();
}

Status UqOnUpdate(AtContext& ctx, const Slice&, const Slice&,
                  const Slice& old_record, const Slice& new_record) {
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const UniqueInstance& inst : UniqueState::Of(ctx)->instances()) {
    std::string okey, nkey;
    bool had = KeyOf(old_view, inst.fields, &okey);
    bool has = KeyOf(new_view, inst.fields, &nkey);
    if (had && has && okey == nkey) continue;  // key unchanged
    if (had) DMX_RETURN_IF_ERROR(UqRemove(ctx, inst, old_view));
    if (has) DMX_RETURN_IF_ERROR(UqAdd(ctx, inst, new_view));
  }
  return Status::OK();
}

Status UqOnDelete(AtContext& ctx, const Slice&, const Slice& old_record) {
  RecordView view(old_record, &ctx.desc->schema);
  for (const UniqueInstance& inst : UniqueState::Of(ctx)->instances()) {
    DMX_RETURN_IF_ERROR(UqRemove(ctx, inst, view));
  }
  return Status::OK();
}

Status UqUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("unique payload");
  char op = in[0];
  in.remove_prefix(1);
  uint32_t instance;
  if (!GetVarint32(&in, &instance)) {
    return Status::Corruption("unique instance id");
  }
  UniqueState::Of(ctx)->With(instance, [&](UniqueCounts* counts) {
    if (counts == nullptr) return;  // instance dropped since
    if (op == 'I') {
      CountRemove(counts, in.ToString());
    } else {
      ++(*counts)[in.ToString()];
    }
  });
  return Status::OK();
}

// Verify re-derives key multiplicities straight from the base relation, so
// it catches both genuine duplicate data and a drifted live table.
Status UqVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  UniqueState* st = UniqueState::Of(ctx);
  const UniqueInstance* inst = st->instances().Find(instance_no);
  if (inst == nullptr) return UniqueList::NotFound(instance_no);
  const std::string tag = "unique#" + std::to_string(instance_no) + ": ";

  UniqueCounts seen;
  DMX_RETURN_IF_ERROR(ScanRelation(ctx, [&](const ScanItem& item) {
    std::string key;
    if (!KeyOf(item.view, inst->fields, &key)) return Status::OK();
    if (++seen[key] == 2) {
      report->Problem(tag + "duplicate value for unique constraint" +
                      (inst->name.empty() ? "" : " '" + inst->name + "'"));
    }
    ++report->items;
    return Status::OK();
  }));

  // Cross-check the live count table against the recomputed one.
  if (st->With(instance_no,
               [&](UniqueCounts* live) { return *live != seen; })) {
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
    o.open = &UniqueState::Open<UqAddRecord>;
    o.on_insert = UqOnInsert;
    o.on_update = UqOnUpdate;
    o.on_delete = UqOnDelete;
    o.undo = UqUndo;
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
