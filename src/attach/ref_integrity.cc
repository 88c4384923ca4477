#include "src/attach/ref_integrity.h"

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/sm/btree_sm.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

struct RiInstance {
  static constexpr const char* kType = "refint";
  uint32_t no = 0;
  bool is_parent = false;
  bool cascade = false;  // parent role: cascade vs restrict
  RelationId other = kInvalidRelationId;
  std::vector<int> fields;        // on this relation
  std::vector<int> other_fields;  // on the other relation

  void EncodeTo(std::string* dst) const {
    dst->push_back(is_parent ? 1 : 0);
    dst->push_back(cascade ? 1 : 0);
    PutFixed32(dst, other);
    PutFieldList(dst, fields);
    PutFieldList(dst, other_fields);
  }
  static Status DecodeFrom(Slice* in, RiInstance* inst) {
    if (in->size() < 2) return Status::Corruption("refint instance");
    inst->is_parent = (*in)[0] != 0;
    inst->cascade = (*in)[1] != 0;
    in->remove_prefix(2);
    if (!GetFixed32(in, &inst->other)) {
      return Status::Corruption("refint other");
    }
    DMX_RETURN_IF_ERROR(
        GetFieldList(in, &inst->fields, "refint other", "refint field"));
    return GetFieldList(in, &inst->other_fields, "refint ofields",
                        "refint field");
  }
};
using RiList = InstanceList<RiInstance>;

using RiState = InstanceState<RiInstance>;

// Extract the key values of `fields`; false if any is NULL.
bool KeyValues(const RecordView& view, const std::vector<int>& fields,
               std::vector<Value>* out) {
  out->clear();
  for (int f : fields) {
    if (view.IsNull(static_cast<size_t>(f))) return false;
    out->push_back(view.GetValue(static_cast<size_t>(f)));
  }
  return true;
}

// Equality predicate "other_fields == values" for probing the other side.
ExprPtr MatchPredicate(const std::vector<int>& fields,
                       const std::vector<Value>& values) {
  std::vector<ExprPtr> conjuncts;
  for (size_t i = 0; i < fields.size(); ++i) {
    conjuncts.push_back(Expr::Cmp(ExprOp::kEq, fields[i], values[i]));
  }
  return JoinConjuncts(conjuncts);
}

// Find record keys on the other relation matching `values`.
Status FindMatches(AtContext& ctx, const RiInstance& inst,
                   const std::vector<Value>& values, bool first_only,
                   std::vector<std::string>* keys) {
  keys->clear();
  const RelationDescriptor* other = ctx.db->catalog()->Find(inst.other);
  if (other == nullptr) {
    return Status::Corruption("refint references dropped relation");
  }
  ScanSpec spec;
  spec.filter = MatchPredicate(inst.other_fields, values);
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, other, AccessPathId::StorageMethod(), spec, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    keys->push_back(item.record_key);
    if (first_only) break;
  }
  return Status::OK();
}

Status RiCreateInstance(AtContext& ctx, const AttrList& attrs,
                        std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed(
      {"role", "other", "fields", "other_fields", "action"}));
  RiInstance inst;
  const std::string role = attrs.Get("role");
  if (role == "parent") {
    inst.is_parent = true;
  } else if (role != "child") {
    return Status::InvalidArgument("refint requires role=parent|child");
  }
  const std::string action = attrs.Get("action");
  if (inst.is_parent) {
    if (action == "cascade") {
      inst.cascade = true;
    } else if (!action.empty() && action != "restrict") {
      return Status::InvalidArgument("refint action=cascade|restrict");
    }
  }
  const RelationDescriptor* other;
  DMX_RETURN_IF_ERROR(ctx.db->FindRelation(attrs.Get("other"), &other));
  inst.other = other->id;
  DMX_RETURN_IF_ERROR(
      ParseFieldList(ctx.desc->schema, attrs.Get("fields"), &inst.fields));
  DMX_RETURN_IF_ERROR(ParseFieldList(other->schema,
                                     attrs.Get("other_fields"),
                                     &inst.other_fields));
  if (inst.fields.size() != inst.other_fields.size()) {
    return Status::InvalidArgument("refint field lists differ in length");
  }

  RiList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

// Child-side check: the parent must contain a matching record.
Status RiCheckParentExists(AtContext& ctx, const RiInstance& inst,
                           const RecordView& view) {
  std::vector<Value> values;
  if (!KeyValues(view, inst.fields, &values)) return Status::OK();  // NULL fk
  std::vector<std::string> matches;
  DMX_RETURN_IF_ERROR(FindMatches(ctx, inst, values, true, &matches));
  if (matches.empty()) {
    return Status::Constraint("no parent record for foreign key");
  }
  return Status::OK();
}

Status RiOnInsert(AtContext& ctx, const Slice&, const Slice& new_record) {
  RecordView view(new_record, &ctx.desc->schema);
  for (const RiInstance& inst : RiState::Of(ctx)->instances()) {
    if (inst.is_parent) continue;
    DMX_RETURN_IF_ERROR(RiCheckParentExists(ctx, inst, view));
  }
  return Status::OK();
}

Status RiOnUpdate(AtContext& ctx, const Slice&, const Slice&,
                  const Slice& old_record, const Slice& new_record) {
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const RiInstance& inst : RiState::Of(ctx)->instances()) {
    if (!inst.is_parent) {
      DMX_RETURN_IF_ERROR(RiCheckParentExists(ctx, inst, new_view));
      continue;
    }
    // Parent update: changing referenced fields is restricted while
    // children point at them.
    std::vector<Value> old_vals, new_vals;
    bool had = KeyValues(old_view, inst.fields, &old_vals);
    KeyValues(new_view, inst.fields, &new_vals);
    bool changed = old_vals.size() != new_vals.size();
    for (size_t i = 0; !changed && i < old_vals.size(); ++i) {
      changed = old_vals[i].Compare(new_vals[i]) != 0;
    }
    if (had && changed) {
      std::vector<std::string> children;
      DMX_RETURN_IF_ERROR(FindMatches(ctx, inst, old_vals, true, &children));
      if (!children.empty()) {
        return Status::Constraint(
            "cannot change referenced fields: child records exist");
      }
    }
  }
  return Status::OK();
}

Status RiOnDelete(AtContext& ctx, const Slice&, const Slice& old_record) {
  RecordView view(old_record, &ctx.desc->schema);
  for (const RiInstance& inst : RiState::Of(ctx)->instances()) {
    if (!inst.is_parent) continue;
    std::vector<Value> values;
    if (!KeyValues(view, inst.fields, &values)) continue;
    std::vector<std::string> children;
    DMX_RETURN_IF_ERROR(
        FindMatches(ctx, inst, values, /*first_only=*/!inst.cascade,
                    &children));
    if (children.empty()) continue;
    if (!inst.cascade) {
      return Status::Constraint("child records exist (restrict)");
    }
    // Cascade: delete matching children through the full two-step
    // machinery, so their own attachments fire — "modifications may
    // cascade in the database".
    const RelationDescriptor* child_rel = ctx.db->catalog()->Find(inst.other);
    if (child_rel == nullptr) {
      return Status::Corruption("refint child relation vanished");
    }
    for (const std::string& key : children) {
      Status s = ctx.db->DeleteRecord(ctx.txn, child_rel, Slice(key));
      // A concurrentless same-transaction cascade may find the record
      // already deleted by a sibling cascade path.
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }
  return Status::OK();
}

// Child-side verify: every non-NULL foreign key must have a parent row.
// Parent-side instances are passive (the child side holds the invariant),
// so they verify trivially.
Status RiVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  const RiInstance* inst = RiState::Of(ctx)->instances().Find(instance_no);
  if (inst == nullptr) return RiList::NotFound(instance_no);
  if (inst->is_parent) return Status::OK();
  const std::string tag = "refint#" + std::to_string(instance_no) + ": ";

  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, ctx.desc, AccessPathId::StorageMethod(), ScanSpec{}, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    std::vector<Value> values;
    if (!KeyValues(item.view, inst->fields, &values)) continue;  // NULL fk
    std::vector<std::string> matches;
    DMX_RETURN_IF_ERROR(FindMatches(ctx, *inst, values, true, &matches));
    if (matches.empty()) {
      report->Problem(tag + "orphaned foreign key: no parent record");
    }
    ++report->items;
  }
  return Status::OK();
}

}  // namespace

const AtOps& RefIntegrityOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "refint";
    o.create_instance = RiCreateInstance;
    o.drop_instance = &DropInstanceOf<RiInstance>;
    o.open = &RiState::Open;
    o.on_insert = RiOnInsert;
    o.on_update = RiOnUpdate;
    o.on_delete = RiOnDelete;
    o.instance_count = &InstanceCountOf<RiInstance>;
    o.list_instances = &ListInstancesOf<RiInstance>;
    o.verify = RiVerify;
    // Child-side refint guards integrity: while quarantined its
    // parent-exists veto is skipped, so writes are refused. Parent-side
    // instances enforce nothing on this relation's own writes that the
    // child side can't recheck, but dangling children could still be
    // created through them — guard both.
    o.guards_integrity = &GuardsIntegrityOf<RiInstance>;
    return o;
  }();
  return ops;
}

}  // namespace dmx
