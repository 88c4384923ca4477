#include "src/attach/check_constraint.h"

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/util/coding.h"

namespace dmx {

std::string EncodePredicateAttr(const ExprPtr& predicate) {
  std::string out;
  predicate->EncodeTo(&out);
  return out;
}

namespace {

struct CheckInstance {
  static constexpr const char* kType = "check";
  uint32_t no = 0;
  std::string name;
  ExprPtr predicate;
  std::string predicate_bytes;

  void EncodeTo(std::string* dst) const {
    PutLengthPrefixedSlice(dst, name);
    PutLengthPrefixedSlice(dst, predicate_bytes);
  }
  static Status DecodeFrom(Slice* in, CheckInstance* inst) {
    Slice name, pred;
    if (!GetLengthPrefixedSlice(in, &name) ||
        !GetLengthPrefixedSlice(in, &pred)) {
      return Status::Corruption("check instance");
    }
    inst->name = name.ToString();
    inst->predicate_bytes = pred.ToString();
    Slice pin(inst->predicate_bytes);
    return Expr::DecodeFrom(&pin, &inst->predicate);
  }
};
using CheckList = InstanceList<CheckInstance>;

using CheckState = InstanceState<CheckInstance>;

Status ChkCreateInstance(AtContext& ctx, const AttrList& attrs,
                         std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"predicate", "name"}));
  if (!attrs.Has("predicate")) {
    return Status::InvalidArgument("check requires predicate=<encoded expr>");
  }
  CheckInstance inst;
  inst.name = attrs.Get("name");
  inst.predicate_bytes = attrs.Get("predicate");
  Slice pin(inst.predicate_bytes);
  DMX_RETURN_IF_ERROR(Expr::DecodeFrom(&pin, &inst.predicate));
  // Validate field references against the schema.
  std::vector<int> fields;
  inst.predicate->CollectFields(&fields);
  for (int f : fields) {
    if (f < 0 || static_cast<size_t>(f) >= ctx.desc->schema.num_columns()) {
      return Status::InvalidArgument("check predicate references field " +
                                     std::to_string(f));
    }
  }
  // Existing records must already satisfy the constraint.
  ScanSpec spec;
  spec.filter = Expr::Unary(ExprOp::kNot, inst.predicate);
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, ctx.desc, AccessPathId::StorageMethod(), spec, &scan));
  ScanItem item;
  Status s = scan->Next(&item);
  if (s.ok()) {
    return Status::Constraint("existing record violates check constraint" +
                              (inst.name.empty() ? "" : " '" + inst.name +
                                                            "'"));
  }
  if (!s.IsNotFound()) return s;

  CheckList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status ChkTest(AtContext& ctx, const Slice& record) {
  RecordView view(record, &ctx.desc->schema);
  for (const CheckInstance& inst : CheckState::Of(ctx)->instances()) {
    bool passes = false;
    DMX_RETURN_IF_ERROR(
        ctx.db->evaluator()->EvalPredicate(*inst.predicate, view, &passes));
    if (!passes) {
      return Status::Constraint(
          "check constraint" +
          (inst.name.empty() ? "" : " '" + inst.name + "'") + " violated: " +
          inst.predicate->ToString());
    }
  }
  return Status::OK();
}

Status ChkOnInsert(AtContext& ctx, const Slice&, const Slice& new_record) {
  return ChkTest(ctx, new_record);
}

Status ChkOnUpdate(AtContext& ctx, const Slice&, const Slice&, const Slice&,
                   const Slice& new_record) {
  return ChkTest(ctx, new_record);
}

// Verify re-evaluates the predicate over every base record — catches rows
// that slipped in while the constraint was quarantined or before it existed.
Status ChkVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  const CheckInstance* inst =
      CheckState::Of(ctx)->instances().Find(instance_no);
  if (inst == nullptr) return CheckList::NotFound(instance_no);
  const std::string tag = "check#" + std::to_string(instance_no) + ": ";

  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, ctx.desc, AccessPathId::StorageMethod(), ScanSpec{}, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    bool passes = false;
    DMX_RETURN_IF_ERROR(ctx.db->evaluator()->EvalPredicate(*inst->predicate,
                                                           item.view,
                                                           &passes));
    if (!passes) {
      report->Problem(tag + "record violates check constraint" +
                      (inst->name.empty() ? "" : " '" + inst->name + "'"));
    }
    ++report->items;
  }
  return Status::OK();
}

}  // namespace

const AtOps& CheckConstraintOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "check";
    o.create_instance = ChkCreateInstance;
    o.drop_instance = &DropInstanceOf<CheckInstance>;
    o.open = &CheckState::Open;
    o.on_insert = ChkOnInsert;
    o.on_update = ChkOnUpdate;
    o.instance_count = &InstanceCountOf<CheckInstance>;
    o.list_instances = &ListInstancesOf<CheckInstance>;
    o.verify = ChkVerify;
    // A quarantined check constraint stops vetoing writes, so writes must
    // be refused until REPAIR re-validates the data.
    o.guards_integrity = &GuardsIntegrityOf<CheckInstance>;
    return o;
  }();
  return ops;
}

}  // namespace dmx
