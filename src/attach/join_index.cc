#include "src/attach/join_index.h"

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/core/key_table.h"
#include "src/sm/btree_sm.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

struct JiInstance {
  static constexpr const char* kType = "join index";
  uint32_t no = 0;
  std::string name;
  int side = 1;
  std::vector<int> fields;

  void EncodeTo(std::string* dst) const {
    PutLengthPrefixedSlice(dst, name);
    dst->push_back(static_cast<char>(side));
    PutFieldList(dst, fields);
  }
  static Status DecodeFrom(Slice* in, JiInstance* inst) {
    Slice name;
    if (!GetLengthPrefixedSlice(in, &name) || in->empty()) {
      return Status::Corruption("join index instance");
    }
    inst->name = name.ToString();
    inst->side = (*in)[0];
    in->remove_prefix(1);
    return GetFieldList(in, &inst->fields, "join index fields",
                        "join index field");
  }
};
using JiList = InstanceList<JiInstance>;

// This relation's side of each instance: join key -> its record keys.
using JiState = KeyTableState<JiInstance>;

Status JiCreateInstance(AtContext& ctx, const AttrList& attrs,
                        std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"name", "side", "fields"}));
  JiInstance inst;
  inst.name = attrs.Get("name");
  if (inst.name.empty()) {
    return Status::InvalidArgument("join_index requires name=<shared name>");
  }
  const std::string side = attrs.Get("side");
  if (side == "1") {
    inst.side = 1;
  } else if (side == "2") {
    inst.side = 2;
  } else {
    return Status::InvalidArgument("join_index requires side=1|2");
  }
  DMX_RETURN_IF_ERROR(
      ParseFieldList(ctx.desc->schema, attrs.Get("fields"), &inst.fields));
  JiList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

// Each relation keeps only its own side. A lookup therefore reads the
// state of every relation with a same-name instance on the other side
// (opening it from its base at its first touch, as after a restart) and
// collects that relation's record keys under the join key. It locks such a
// relation IS, as Database::Lookup locks its own, so that DDL there cannot
// drop the state while it is read.
Status JiLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                std::vector<std::string>* record_keys) {
  record_keys->clear();
  const JiInstance* inst = JiState::Of(ctx)->instances().Find(instance_no);
  if (inst == nullptr) return JiList::NotFound(instance_no);
  const std::string jk = key.ToString();
  Catalog* catalog = ctx.db->catalog();
  for (RelationId id : catalog->AllRelationIds()) {
    const RelationDescriptor* desc = catalog->Find(id);
    if (desc == nullptr || !desc->HasAttachment(ctx.at_id)) continue;
    std::vector<uint32_t> others;
    DMX_RETURN_IF_ERROR(
        JiList::Visit(desc->at_desc[ctx.at_id], [&](JiInstance& other) {
          if (other.name == inst->name && other.side != inst->side) {
            others.push_back(other.no);
          }
        }));
    if (others.empty()) continue;
    DMX_RETURN_IF_ERROR(ctx.txn->LockRelation(id, LockMode::kIS));
    desc = catalog->Find(id);  // DDL on it now waits for this transaction
    if (desc == nullptr) continue;
    AtContext other_ctx;
    DMX_RETURN_IF_ERROR(
        ctx.db->MakeAtContext(ctx.txn, desc, ctx.at_id, &other_ctx));
    JiState* other = JiState::Of(other_ctx);
    for (uint32_t no : others) {
      other->With(no, [&](KeyTable* table) {
        if (table != nullptr) table->Collect(jk, record_keys);
      });
    }
  }
  return Status::OK();
}

Status JiVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  return KeyTableVerify<JiInstance>(ctx, instance_no, "join_index", report);
}

}  // namespace

const AtOps& JoinIndexOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "join_index";
    o.create_instance = JiCreateInstance;
    o.drop_instance = &DropInstanceOf<JiInstance>;
    o.open = &JiState::Open<AddFieldKey<JiInstance>>;
    o.on_insert = &KeyTableOnInsert<JiInstance>;
    o.on_update = &KeyTableOnUpdate<JiInstance>;
    o.on_delete = &KeyTableOnDelete<JiInstance>;
    o.lookup = JiLookup;
    o.undo = &KeyTableUndo<JiInstance>;
    o.instance_count = &InstanceCountOf<JiInstance>;
    o.list_instances = &ListInstancesOf<JiInstance>;
    o.verify = JiVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
