#include "src/attach/deferred_check.h"

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

// Reuses the check-constraint descriptor shape: instances with a name and
// an encoded predicate.
struct DcInstance {
  static constexpr const char* kType = "deferred check";
  uint32_t no = 0;
  std::string name;
  ExprPtr predicate;
  std::string predicate_bytes;

  void EncodeTo(std::string* dst) const {
    PutLengthPrefixedSlice(dst, name);
    PutLengthPrefixedSlice(dst, predicate_bytes);
  }
  static Status DecodeFrom(Slice* in, DcInstance* inst) {
    Slice name, pred;
    if (!GetLengthPrefixedSlice(in, &name) ||
        !GetLengthPrefixedSlice(in, &pred)) {
      return Status::Corruption("deferred check instance");
    }
    inst->name = name.ToString();
    inst->predicate_bytes = pred.ToString();
    Slice pin(inst->predicate_bytes);
    return Expr::DecodeFrom(&pin, &inst->predicate);
  }
};

using DcState = InstanceState<DcInstance>;

Status DcCreateInstance(AtContext& ctx, const AttrList& attrs,
                        std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"predicate", "name"}));
  if (!attrs.Has("predicate")) {
    return Status::InvalidArgument(
        "deferred_check requires predicate=<encoded expr>");
  }
  DcInstance inst;
  inst.name = attrs.Get("name");
  inst.predicate_bytes = attrs.Get("predicate");
  Slice pin(inst.predicate_bytes);
  DMX_RETURN_IF_ERROR(Expr::DecodeFrom(&pin, &inst.predicate));
  InstanceList<DcInstance> desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

// Enqueue the commit-time evaluation of all instances against the record's
// final state. This is the paper's deferred-action-queue protocol: the
// entry carries "the address of the attachment routine that should be
// invoked ... and a pointer to data" — here, a closure over (relation id,
// record key).
Status DcDefer(AtContext& ctx, const Slice& record_key) {
  Database* db = ctx.db;
  RelationId rel = ctx.desc->id;
  std::string key = record_key.ToString();
  ctx.txn->Defer(TxnEvent::kBeforePrepare, [db, rel,
                                            key](Transaction* txn) -> Status {
    const RelationDescriptor* desc = db->catalog()->Find(rel);
    if (desc == nullptr) return Status::OK();  // relation dropped
    int at = db->registry()->FindAttachmentType("deferred_check");
    AtContext actx;
    DMX_RETURN_IF_ERROR(
        db->MakeAtContext(txn, desc, static_cast<AtId>(at), &actx));
    DcState* st = DcState::Of(actx);
    if (st == nullptr || st->instances().empty()) return Status::OK();
    std::string record;
    Status fs = db->FetchRecord(txn, desc, Slice(key), &record);
    if (fs.IsNotFound()) return Status::OK();  // deleted later in the txn
    DMX_RETURN_IF_ERROR(fs);
    RecordView view(Slice(record), &desc->schema);
    for (const DcInstance& inst : st->instances()) {
      bool passes = false;
      DMX_RETURN_IF_ERROR(
          db->evaluator()->EvalPredicate(*inst.predicate, view, &passes));
      if (!passes) {
        return Status::Constraint(
            "deferred constraint" +
            (inst.name.empty() ? "" : " '" + inst.name + "'") +
            " violated at commit");
      }
    }
    return Status::OK();
  });
  return Status::OK();
}

Status DcOnInsert(AtContext& ctx, const Slice& record_key, const Slice&) {
  return DcDefer(ctx, record_key);
}

Status DcOnUpdate(AtContext& ctx, const Slice&, const Slice& new_key,
                  const Slice&, const Slice&) {
  return DcDefer(ctx, new_key);
}

}  // namespace

const AtOps& DeferredCheckOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "deferred_check";
    o.create_instance = DcCreateInstance;
    o.drop_instance = &DropInstanceOf<DcInstance>;
    o.open = &DcState::Open;
    o.on_insert = DcOnInsert;
    o.on_update = DcOnUpdate;
    o.instance_count = &InstanceCountOf<DcInstance>;
    return o;
  }();
  return ops;
}

}  // namespace dmx
