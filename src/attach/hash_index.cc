#include "src/attach/hash_index.h"

#include "src/core/attachment_instances.h"
#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/core/key_table.h"
#include "src/sm/btree_sm.h"
#include "src/sm/key_codec.h"

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

using HashState = KeyTableState<HashInstance>;

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

Status HashLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                  std::vector<std::string>* record_keys) {
  record_keys->clear();
  return HashState::Of(ctx)->With(instance_no, [&](KeyTable* table) {
    if (table == nullptr) return HashList::NotFound(instance_no);
    table->Collect(key.ToString(), record_keys);
    return Status::OK();
  });
}

size_t EntriesOf(HashState* st, uint32_t instance_no) {
  return st->With(instance_no,
                  [](KeyTable* table) { return table->entries; });
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

Status HashVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  return KeyTableVerify<HashInstance>(ctx, instance_no, "hash_index", report);
}

}  // namespace

const AtOps& HashIndexOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "hash_index";
    o.create_instance = HashCreateInstance;
    o.drop_instance = &DropInstanceOf<HashInstance>;
    o.open = &HashState::Open<AddFieldKey<HashInstance>>;
    o.on_insert = &KeyTableOnInsert<HashInstance>;
    o.on_update = &KeyTableOnUpdate<HashInstance>;
    o.on_delete = &KeyTableOnDelete<HashInstance>;
    o.lookup = HashLookup;
    o.cost = HashCost;
    o.undo = &KeyTableUndo<HashInstance>;
    o.instance_count = &InstanceCountOf<HashInstance>;
    o.list_instances = &ListInstancesOf<HashInstance>;
    o.instance_fields = &InstanceFieldsOf<HashInstance>;
    o.verify = HashVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
