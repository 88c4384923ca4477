#include "src/attach/stats.h"

#include <algorithm>
#include <cmath>

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/core/derived_state.h"
#include "src/core/extension_log.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

struct StatsInstance {
  static constexpr const char* kType = "stats";
  uint32_t no = 0;
  int field = -1;

  void EncodeTo(std::string* dst) const {
    PutVarint32(dst, static_cast<uint32_t>(field));
  }
  static Status DecodeFrom(Slice* in, StatsInstance* inst) {
    uint32_t field;
    if (!GetVarint32(in, &field)) return Status::Corruption("stats instance");
    inst->field = static_cast<int>(field);
    return Status::OK();
  }
};
using StatsList = InstanceList<StatsInstance>;

using StatsState = DerivedState<StatsInstance, StatsSnapshot>;

// Delta payload: 'A'(apply) varint instance | i64 dcount | double dsum.
Status StLog(AtContext& ctx, uint32_t instance, int64_t dcount, double dsum) {
  std::string payload(1, 'A');
  PutVarint32(&payload, instance);
  PutFixed64(&payload, static_cast<uint64_t>(dcount));
  PutDouble(&payload, dsum);
  return LogExtensionUpdate(ctx, std::move(payload));
}

void ApplyDelta(StatsSnapshot* snap, int64_t dcount, double dsum) {
  snap->count = static_cast<uint64_t>(static_cast<int64_t>(snap->count) +
                                      dcount);
  snap->sum += dsum;
}

// Applies the delta to instance `no` and logs it.
Status StChange(AtContext& ctx, uint32_t no, int64_t dcount, double dsum) {
  StatsState::Of(ctx)->With(
      no, [&](StatsSnapshot* snap) { ApplyDelta(snap, dcount, dsum); });
  return StLog(ctx, no, dcount, dsum);
}

double FieldValue(const RecordView& view, int field) {
  if (view.IsNull(static_cast<size_t>(field))) return 0;
  return view.GetValue(static_cast<size_t>(field)).AsDouble();
}

Status StAddRecord(const StatsInstance& inst, const ScanItem& item,
                   StatsSnapshot* snap) {
  ApplyDelta(snap, 1, FieldValue(item.view, inst.field));
  return Status::OK();
}

Status StCreateInstance(AtContext& ctx, const AttrList& attrs,
                        std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"field"}));
  if (!attrs.Has("field")) {
    return Status::InvalidArgument("stats requires field=<column>");
  }
  StatsInstance inst;
  inst.field = ctx.desc->schema.FindColumn(attrs.Get("field"));
  if (inst.field < 0) {
    return Status::InvalidArgument("no column '" + attrs.Get("field") + "'");
  }
  TypeId t = ctx.desc->schema.column(static_cast<size_t>(inst.field)).type;
  if (t != TypeId::kInt64 && t != TypeId::kDouble) {
    return Status::InvalidArgument("stats field must be numeric");
  }
  StatsList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  *instance_no = desc.Add(inst);
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status StOnInsert(AtContext& ctx, const Slice&, const Slice& new_record) {
  RecordView view(new_record, &ctx.desc->schema);
  for (const StatsInstance& inst : StatsState::Of(ctx)->instances()) {
    DMX_RETURN_IF_ERROR(
        StChange(ctx, inst.no, 1, FieldValue(view, inst.field)));
  }
  return Status::OK();
}

Status StOnUpdate(AtContext& ctx, const Slice&, const Slice&,
                  const Slice& old_record, const Slice& new_record) {
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const StatsInstance& inst : StatsState::Of(ctx)->instances()) {
    double dv = FieldValue(new_view, inst.field) -
                FieldValue(old_view, inst.field);
    if (dv == 0) continue;
    DMX_RETURN_IF_ERROR(StChange(ctx, inst.no, 0, dv));
  }
  return Status::OK();
}

Status StOnDelete(AtContext& ctx, const Slice&, const Slice& old_record) {
  RecordView view(old_record, &ctx.desc->schema);
  for (const StatsInstance& inst : StatsState::Of(ctx)->instances()) {
    DMX_RETURN_IF_ERROR(
        StChange(ctx, inst.no, -1, -FieldValue(view, inst.field)));
  }
  return Status::OK();
}

// The snapshot of instance `no` into *out; NotFound names the instance.
Status SnapshotOf(AtContext& ctx, uint32_t no, StatsSnapshot* out) {
  return StatsState::Of(ctx)->With(no, [&](StatsSnapshot* snap) {
    if (snap == nullptr) return StatsList::NotFound(no);
    *out = *snap;
    return Status::OK();
  });
}

Status StLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                std::vector<std::string>* record_keys) {
  record_keys->clear();
  StatsSnapshot snap;
  DMX_RETURN_IF_ERROR(SnapshotOf(ctx, instance_no, &snap));
  char buf[64];
  if (key == Slice("count")) {
    snprintf(buf, sizeof(buf), "%llu",
             static_cast<unsigned long long>(snap.count));
  } else if (key == Slice("sum")) {
    snprintf(buf, sizeof(buf), "%.17g", snap.sum);
  } else if (key == Slice("avg")) {
    snprintf(buf, sizeof(buf), "%.17g", snap.avg());
  } else {
    return Status::InvalidArgument("stats lookup key: count|sum|avg");
  }
  record_keys->push_back(buf);
  return Status::OK();
}

Status StUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  Slice in(rec.payload);
  if (in.empty() || in[0] != 'A') return Status::Corruption("stats payload");
  in.remove_prefix(1);
  uint32_t instance;
  uint64_t dcount_bits;
  double dsum;
  if (!GetVarint32(&in, &instance) || !GetFixed64(&in, &dcount_bits) ||
      !GetDouble(&in, &dsum)) {
    return Status::Corruption("stats payload body");
  }
  StatsState::Of(ctx)->With(instance, [&](StatsSnapshot* snap) {
    if (snap == nullptr) return;  // instance dropped since
    ApplyDelta(snap, -static_cast<int64_t>(dcount_bits), -dsum);
  });
  return Status::OK();
}

// Verify recomputes count/sum from the base relation and compares against
// the live snapshot. Sums tolerate float rounding from delta maintenance.
Status StVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  StatsState* st = StatsState::Of(ctx);
  const StatsInstance* inst = st->instances().Find(instance_no);
  if (inst == nullptr) return StatsList::NotFound(instance_no);
  const std::string tag = "stats#" + std::to_string(instance_no) + ": ";

  uint64_t count = 0;
  double sum = 0;
  DMX_RETURN_IF_ERROR(ScanRelation(ctx, [&](const ScanItem& item) {
    ++count;
    sum += FieldValue(item.view, inst->field);
    ++report->items;
    return Status::OK();
  }));

  StatsSnapshot snap;
  DMX_RETURN_IF_ERROR(SnapshotOf(ctx, instance_no, &snap));
  if (snap.count != count) {
    report->Problem(tag + "row count drifted: stats say " +
                    std::to_string(snap.count) + ", base relation has " +
                    std::to_string(count));
  }
  double tol = 1e-9 * std::max({std::fabs(sum), std::fabs(snap.sum), 1.0});
  if (std::fabs(snap.sum - sum) > tol) {
    report->Problem(tag + "sum drifted beyond rounding tolerance");
  }
  return Status::OK();
}

}  // namespace

Status ReadStats(Database* db, Transaction* txn, const std::string& rel,
                 uint32_t instance_no, StatsSnapshot* out) {
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(db->FindRelation(rel, &desc));
  int at = db->registry()->FindAttachmentType("stats");
  if (at < 0) return Status::Internal("stats attachment not registered");
  AtContext ctx;
  DMX_RETURN_IF_ERROR(
      db->MakeAtContext(txn, desc, static_cast<AtId>(at), &ctx));
  if (ctx.state == nullptr || !SnapshotOf(ctx, instance_no, out).ok()) {
    return Status::NotFound("stats instance");
  }
  return Status::OK();
}

const AtOps& StatsOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "stats";
    o.create_instance = StCreateInstance;
    o.drop_instance = &DropInstanceOf<StatsInstance>;
    o.open = &StatsState::Open<StAddRecord>;
    o.on_insert = StOnInsert;
    o.on_update = StOnUpdate;
    o.on_delete = StOnDelete;
    o.lookup = StLookup;
    o.undo = StUndo;
    o.instance_count = &InstanceCountOf<StatsInstance>;
    o.list_instances = &ListInstancesOf<StatsInstance>;
    o.verify = StVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
