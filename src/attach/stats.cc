#include "src/attach/stats.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
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

struct StatsState : public ExtState {
  StatsList desc;
  std::map<uint32_t, StatsSnapshot> values;
};

StatsState* StateOf(AtContext& ctx) {
  return static_cast<StatsState*>(ctx.state);
}

// Delta payload: 'A'(apply) varint instance | i64 dcount | double dsum.
Status StLog(AtContext& ctx, uint32_t instance, int64_t dcount, double dsum) {
  std::string payload(1, 'A');
  PutVarint32(&payload, instance);
  PutFixed64(&payload, static_cast<uint64_t>(dcount));
  PutDouble(&payload, dsum);
  return LogExtensionUpdate(ctx, std::move(payload));
}

void ApplyDelta(StatsState* st, uint32_t instance, int64_t dcount,
                double dsum) {
  StatsSnapshot& snap = st->values[instance];
  snap.count = static_cast<uint64_t>(static_cast<int64_t>(snap.count) +
                                     dcount);
  snap.sum += dsum;
}

double FieldValue(const RecordView& view, int field) {
  if (view.IsNull(static_cast<size_t>(field))) return 0;
  return view.GetValue(static_cast<size_t>(field)).AsDouble();
}

Status StRebuild(AtContext& ctx);

Status StOpen(AtContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<StatsState>();
  DMX_RETURN_IF_ERROR(st->desc.Decode(ctx.at_desc));
  AtContext prime = ctx;
  prime.state = st.get();
  DMX_RETURN_IF_ERROR(StRebuild(prime));
  *state = std::move(st);
  return Status::OK();
}

Status StRebuild(AtContext& ctx) {
  StatsState* st = StateOf(ctx);
  st->values.clear();
  if (st->desc.empty()) return Status::OK();
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
    for (const StatsInstance& inst : st->desc) {
      ApplyDelta(st, inst.no, 1, FieldValue(item.view, inst.field));
    }
  }
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
  StatsState* st = StateOf(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  for (const StatsInstance& inst : st->desc) {
    double v = FieldValue(view, inst.field);
    ApplyDelta(st, inst.no, 1, v);
    DMX_RETURN_IF_ERROR(StLog(ctx, inst.no, 1, v));
  }
  return Status::OK();
}

Status StOnUpdate(AtContext& ctx, const Slice&, const Slice&,
                  const Slice& old_record, const Slice& new_record) {
  StatsState* st = StateOf(ctx);
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const StatsInstance& inst : st->desc) {
    double dv = FieldValue(new_view, inst.field) -
                FieldValue(old_view, inst.field);
    if (dv == 0) continue;
    ApplyDelta(st, inst.no, 0, dv);
    DMX_RETURN_IF_ERROR(StLog(ctx, inst.no, 0, dv));
  }
  return Status::OK();
}

Status StOnDelete(AtContext& ctx, const Slice&, const Slice& old_record) {
  StatsState* st = StateOf(ctx);
  RecordView view(old_record, &ctx.desc->schema);
  for (const StatsInstance& inst : st->desc) {
    double v = FieldValue(view, inst.field);
    ApplyDelta(st, inst.no, -1, -v);
    DMX_RETURN_IF_ERROR(StLog(ctx, inst.no, -1, -v));
  }
  return Status::OK();
}

Status StLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                std::vector<std::string>* record_keys) {
  StatsState* st = StateOf(ctx);
  record_keys->clear();
  if (st->desc.Find(instance_no) == nullptr) {
    return StatsList::NotFound(instance_no);
  }
  const StatsSnapshot& snap = st->values[instance_no];
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

Status StApply(AtContext& ctx, const LogRecord& rec, bool undo) {
  StatsState* st = StateOf(ctx);
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
  int64_t dcount = static_cast<int64_t>(dcount_bits);
  if (undo) {
    dcount = -dcount;
    dsum = -dsum;
  }
  ApplyDelta(st, instance, dcount, dsum);
  return Status::OK();
}

Status StUndo(AtContext& ctx, const LogRecord& rec, Lsn) {
  return StApply(ctx, rec, /*undo=*/true);
}

Status StRedo(AtContext&, const LogRecord&, Lsn) { return Status::OK(); }

// Verify recomputes count/sum from the base relation and compares against
// the live snapshot. Sums tolerate float rounding from delta maintenance.
Status StVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  StatsState* st = StateOf(ctx);
  const StatsInstance* inst = st->desc.Find(instance_no);
  if (inst == nullptr) {
    return StatsList::NotFound(instance_no);
  }
  const std::string tag = "stats#" + std::to_string(instance_no) + ": ";

  uint64_t count = 0;
  double sum = 0;
  std::unique_ptr<Scan> scan;
  DMX_RETURN_IF_ERROR(ctx.db->OpenScanOn(
      ctx.txn, ctx.desc, AccessPathId::StorageMethod(), ScanSpec{}, &scan));
  ScanItem item;
  while (true) {
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    ++count;
    sum += FieldValue(item.view, inst->field);
    ++report->items;
  }

  const StatsSnapshot& snap = st->values[instance_no];
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
  StatsState* st = StateOf(ctx);
  if (st == nullptr || st->desc.Find(instance_no) == nullptr) {
    return Status::NotFound("stats instance");
  }
  *out = st->values[instance_no];
  return Status::OK();
}

const AtOps& StatsOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "stats";
    o.create_instance = StCreateInstance;
    o.drop_instance = &DropInstanceOf<StatsInstance>;
    o.open = StOpen;
    o.on_insert = StOnInsert;
    o.on_update = StOnUpdate;
    o.on_delete = StOnDelete;
    o.lookup = StLookup;
    o.undo = StUndo;
    o.redo = StRedo;
    o.rebuild = StRebuild;
    o.instance_count = &InstanceCountOf<StatsInstance>;
    o.list_instances = &ListInstancesOf<StatsInstance>;
    o.verify = StVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
