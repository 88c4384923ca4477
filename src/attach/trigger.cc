#include "src/attach/trigger.h"

#include <map>

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/util/coding.h"

namespace dmx {

namespace {

Mutex g_trigger_mu;
std::map<std::string, TriggerFn>& TriggerRegistry() {
  static auto* registry = new std::map<std::string, TriggerFn>();
  return *registry;
}

TriggerFn FindTrigger(const std::string& name) {
  MutexLock lock(&g_trigger_mu);
  auto it = TriggerRegistry().find(name);
  return it == TriggerRegistry().end() ? nullptr : it->second;
}

struct TriggerInstance {
  static constexpr const char* kType = "trigger";
  uint32_t no = 0;
  std::string call;
  bool on_insert = true, on_update = true, on_delete = true;

  void EncodeTo(std::string* dst) const {
    PutLengthPrefixedSlice(dst, call);
    dst->push_back(static_cast<char>((on_insert ? 1 : 0) |
                                     (on_update ? 2 : 0) |
                                     (on_delete ? 4 : 0)));
  }
  static Status DecodeFrom(Slice* in, TriggerInstance* inst) {
    Slice call;
    if (!GetLengthPrefixedSlice(in, &call) || in->empty()) {
      return Status::Corruption("trigger instance");
    }
    inst->call = call.ToString();
    char mask = (*in)[0];
    in->remove_prefix(1);
    inst->on_insert = mask & 1;
    inst->on_update = mask & 2;
    inst->on_delete = mask & 4;
    return Status::OK();
  }
};

using TriggerState = InstanceState<TriggerInstance>;

Status TrCreateInstance(AtContext& ctx, const AttrList& attrs,
                        std::string* new_desc, uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"call", "on"}));
  TriggerInstance inst;
  inst.call = attrs.Get("call");
  if (inst.call.empty()) {
    return Status::InvalidArgument("trigger requires call=<function>");
  }
  if (FindTrigger(inst.call) == nullptr) {
    return Status::InvalidArgument("no trigger function '" + inst.call +
                                   "' registered");
  }
  auto events = attrs.GetAll("on");
  if (!events.empty()) {
    inst.on_insert = inst.on_update = inst.on_delete = false;
    for (const std::string& e : events) {
      if (e == "insert") {
        inst.on_insert = true;
      } else if (e == "update") {
        inst.on_update = true;
      } else if (e == "delete") {
        inst.on_delete = true;
      } else {
        return Status::InvalidArgument("trigger on=insert|update|delete");
      }
    }
  }
  InstanceList<TriggerInstance> desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  *instance_no = desc.Add(std::move(inst));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status TrFire(AtContext& ctx, TriggerEvent::Op op, const Slice& old_key,
              const Slice& new_key, const Slice& old_rec,
              const Slice& new_rec) {
  TriggerEvent event;
  event.db = ctx.db;
  event.txn = ctx.txn;
  event.relation = ctx.desc;
  event.op = op;
  event.old_key = old_key;
  event.new_key = new_key;
  if (!old_rec.empty()) event.old_record = RecordView(old_rec,
                                                      &ctx.desc->schema);
  if (!new_rec.empty()) event.new_record = RecordView(new_rec,
                                                      &ctx.desc->schema);
  for (const TriggerInstance& inst : TriggerState::Of(ctx)->instances()) {
    bool fires = (op == TriggerEvent::Op::kInsert && inst.on_insert) ||
                 (op == TriggerEvent::Op::kUpdate && inst.on_update) ||
                 (op == TriggerEvent::Op::kDelete && inst.on_delete);
    if (!fires) continue;
    TriggerFn fn = FindTrigger(inst.call);
    if (fn == nullptr) {
      return Status::Internal("trigger function '" + inst.call +
                              "' disappeared");
    }
    DMX_RETURN_IF_ERROR(fn(event));  // non-OK vetoes the modification
  }
  return Status::OK();
}

Status TrOnInsert(AtContext& ctx, const Slice& record_key,
                  const Slice& new_record) {
  return TrFire(ctx, TriggerEvent::Op::kInsert, Slice(), record_key, Slice(),
                new_record);
}

Status TrOnUpdate(AtContext& ctx, const Slice& old_key, const Slice& new_key,
                  const Slice& old_record, const Slice& new_record) {
  return TrFire(ctx, TriggerEvent::Op::kUpdate, old_key, new_key, old_record,
                new_record);
}

Status TrOnDelete(AtContext& ctx, const Slice& record_key,
                  const Slice& old_record) {
  return TrFire(ctx, TriggerEvent::Op::kDelete, record_key, Slice(),
                old_record, Slice());
}

}  // namespace

void RegisterTriggerFunction(const std::string& name, TriggerFn fn) {
  MutexLock lock(&g_trigger_mu);
  TriggerRegistry()[name] = std::move(fn);
}

const AtOps& TriggerOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "trigger";
    o.create_instance = TrCreateInstance;
    o.drop_instance = &DropInstanceOf<TriggerInstance>;
    o.open = &TriggerState::Open;
    o.on_insert = TrOnInsert;
    o.on_update = TrOnUpdate;
    o.on_delete = TrOnDelete;
    o.instance_count = &InstanceCountOf<TriggerInstance>;
    return o;
  }();
  return ops;
}

}  // namespace dmx
