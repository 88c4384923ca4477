#include "src/attach/join_index.h"

#include <map>
#include <memory>
#include <set>

#include "src/core/attachment_instances.h"
#include "src/core/database.h"
#include "src/core/derived_state.h"
#include "src/core/extension_log.h"
#include "src/sm/btree_sm.h"
#include "src/sm/key_codec.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

// Shared pair table, keyed by join-index name. Both sides' instances (and
// both relations' opens) converge on the same object.
struct JoinData {
  Mutex mu;
  // join key -> record keys present on each side.
  std::map<std::string, std::pair<std::set<std::string>,
                                  std::set<std::string>>>
      sides GUARDED_BY(mu);

  void Add(int side, const std::string& jk, const std::string& rkey) {
    MutexLock lock(&mu);
    auto& entry = sides[jk];
    (side == 1 ? entry.first : entry.second).insert(rkey);
  }
  void Remove(int side, const std::string& jk, const std::string& rkey) {
    MutexLock lock(&mu);
    auto it = sides.find(jk);
    if (it == sides.end()) return;
    (side == 1 ? it->second.first : it->second.second).erase(rkey);
    if (it->second.first.empty() && it->second.second.empty()) {
      sides.erase(it);
    }
  }
  void ClearSide(int side) {
    MutexLock lock(&mu);
    for (auto it = sides.begin(); it != sides.end();) {
      (side == 1 ? it->second.first : it->second.second).clear();
      if (it->second.first.empty() && it->second.second.empty()) {
        it = sides.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::vector<std::string> OtherSide(int side, const std::string& jk) {
    MutexLock lock(&mu);
    auto it = sides.find(jk);
    if (it == sides.end()) return {};
    const auto& others = side == 1 ? it->second.second : it->second.first;
    return std::vector<std::string>(others.begin(), others.end());
  }
  size_t PairCount() {
    MutexLock lock(&mu);
    size_t n = 0;
    for (const auto& [jk, entry] : sides) {
      n += entry.first.size() * entry.second.size();
    }
    return n;
  }
  bool Contains(int side, const std::string& jk, const std::string& rkey) {
    MutexLock lock(&mu);
    auto it = sides.find(jk);
    if (it == sides.end()) return false;
    const auto& s = side == 1 ? it->second.first : it->second.second;
    return s.contains(rkey);
  }
  size_t SideCount(int side) {
    MutexLock lock(&mu);
    size_t n = 0;
    for (const auto& [jk, entry] : sides) {
      n += side == 1 ? entry.first.size() : entry.second.size();
    }
    return n;
  }
};

Mutex g_join_mu;
std::map<std::string, std::shared_ptr<JoinData>>& JoinRegistry() {
  static auto* registry =
      new std::map<std::string, std::shared_ptr<JoinData>>();
  return *registry;
}

std::shared_ptr<JoinData> JoinDataOf(const std::string& name) {
  MutexLock lock(&g_join_mu);
  auto& slot = JoinRegistry()[name];
  if (slot == nullptr) slot = std::make_shared<JoinData>();
  return slot;
}

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

struct JiState : public ExtState {
  JiList desc;
  std::map<uint32_t, std::shared_ptr<JoinData>> data;
};

JiState* StateOf(AtContext& ctx) { return static_cast<JiState*>(ctx.state); }

Status JiLog(AtContext& ctx, char op, const JiInstance& inst,
             const Slice& jk, const Slice& rkey) {
  std::string payload(1, op);
  PutVarint32(&payload, inst.no);
  PutLengthPrefixedSlice(&payload, inst.name);
  payload.push_back(static_cast<char>(inst.side));
  PutLengthPrefixedSlice(&payload, jk);
  payload.append(rkey.data(), rkey.size());
  return LogExtensionUpdate(ctx, std::move(payload));
}

// Rescans this relation's side of every named join structure.
Status JiOpen(AtContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<JiState>();
  DMX_RETURN_IF_ERROR(st->desc.Decode(ctx.at_desc));
  for (const JiInstance& inst : st->desc) {
    st->data[inst.no] = JoinDataOf(inst.name);
    st->data[inst.no]->ClearSide(inst.side);
  }
  if (!st->desc.empty()) {
    DMX_RETURN_IF_ERROR(ScanBaseRelation(ctx, [&st](const ScanItem& item) {
      for (const JiInstance& inst : st->desc) {
        std::string jk;
        DMX_RETURN_IF_ERROR(EncodeFieldKey(item.view, inst.fields, &jk));
        st->data[inst.no]->Add(inst.side, jk, item.record_key);
      }
      return Status::OK();
    }));
  }
  *state = std::move(st);
  return Status::OK();
}

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

// Dropping an instance also empties this relation's side of its shared
// pair table.
Status JiDropInstance(AtContext& ctx, uint32_t instance_no,
                      std::string* new_desc) {
  JiList desc;
  DMX_RETURN_IF_ERROR(desc.Decode(ctx.at_desc));
  const JiInstance* inst = desc.Find(instance_no);
  if (inst == nullptr) return JiList::NotFound(instance_no);
  JoinDataOf(inst->name)->ClearSide(inst->side);
  DMX_RETURN_IF_ERROR(desc.Drop(instance_no));
  desc.EncodeTo(new_desc);
  return Status::OK();
}

Status JiOnInsert(AtContext& ctx, const Slice& record_key,
                  const Slice& new_record) {
  JiState* st = StateOf(ctx);
  RecordView view(new_record, &ctx.desc->schema);
  for (const JiInstance& inst : st->desc) {
    std::string jk;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &jk));
    st->data[inst.no]->Add(inst.side, jk, record_key.ToString());
    DMX_RETURN_IF_ERROR(JiLog(ctx, 'I', inst, Slice(jk), record_key));
  }
  return Status::OK();
}

Status JiOnUpdate(AtContext& ctx, const Slice& old_key, const Slice& new_key,
                  const Slice& old_record, const Slice& new_record) {
  JiState* st = StateOf(ctx);
  RecordView old_view(old_record, &ctx.desc->schema);
  RecordView new_view(new_record, &ctx.desc->schema);
  for (const JiInstance& inst : st->desc) {
    std::string ojk, njk;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(old_view, inst.fields, &ojk));
    DMX_RETURN_IF_ERROR(EncodeFieldKey(new_view, inst.fields, &njk));
    if (ojk == njk && old_key == new_key) continue;
    st->data[inst.no]->Remove(inst.side, ojk, old_key.ToString());
    DMX_RETURN_IF_ERROR(JiLog(ctx, 'D', inst, Slice(ojk), old_key));
    st->data[inst.no]->Add(inst.side, njk, new_key.ToString());
    DMX_RETURN_IF_ERROR(JiLog(ctx, 'I', inst, Slice(njk), new_key));
  }
  return Status::OK();
}

Status JiOnDelete(AtContext& ctx, const Slice& record_key,
                  const Slice& old_record) {
  JiState* st = StateOf(ctx);
  RecordView view(old_record, &ctx.desc->schema);
  for (const JiInstance& inst : st->desc) {
    std::string jk;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(view, inst.fields, &jk));
    st->data[inst.no]->Remove(inst.side, jk, record_key.ToString());
    DMX_RETURN_IF_ERROR(JiLog(ctx, 'D', inst, Slice(jk), record_key));
  }
  return Status::OK();
}

// Each relation fills its side of a pair table when its own state opens,
// at its first touch. Opens the states of the relations on the other side
// of `inst` (a no-op for those already open), so that a lookup never reads
// a side no open has filled yet, as after a restart.
Status OpenOtherSides(AtContext& ctx, const JiInstance& inst) {
  Catalog* catalog = ctx.db->catalog();
  for (RelationId id : catalog->AllRelationIds()) {
    const RelationDescriptor* desc = catalog->Find(id);
    if (desc == nullptr || id == ctx.desc->id ||
        !desc->HasAttachment(ctx.at_id)) {
      continue;
    }
    bool other_side = false;
    DMX_RETURN_IF_ERROR(
        JiList::Visit(desc->at_desc[ctx.at_id], [&](JiInstance& other) {
          other_side = other_side ||
                       (other.name == inst.name && other.side != inst.side);
        }));
    if (!other_side) continue;
    AtContext other_ctx;
    DMX_RETURN_IF_ERROR(
        ctx.db->MakeAtContext(ctx.txn, desc, ctx.at_id, &other_ctx));
  }
  return Status::OK();
}

Status JiLookup(AtContext& ctx, uint32_t instance_no, const Slice& key,
                std::vector<std::string>* record_keys) {
  JiState* st = StateOf(ctx);
  const JiInstance* inst = st->desc.Find(instance_no);
  if (inst == nullptr) {
    return JiList::NotFound(instance_no);
  }
  DMX_RETURN_IF_ERROR(OpenOtherSides(ctx, *inst));
  *record_keys = st->data[instance_no]->OtherSide(inst->side, key.ToString());
  return Status::OK();
}

Status JiUndo(AtContext&, const LogRecord& rec, Lsn) {
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("join index payload");
  char op = in[0];
  in.remove_prefix(1);
  uint32_t instance;
  Slice name, jk;
  if (!GetVarint32(&in, &instance) || !GetLengthPrefixedSlice(&in, &name) ||
      in.empty()) {
    return Status::Corruption("join index payload body");
  }
  int side = in[0];
  in.remove_prefix(1);
  if (!GetLengthPrefixedSlice(&in, &jk)) {
    return Status::Corruption("join index jk");
  }
  auto data = JoinDataOf(name.ToString());
  if (op == 'I') {
    data->Remove(side, jk.ToString(), in.ToString());
  } else {
    data->Add(side, jk.ToString(), in.ToString());
  }
  return Status::OK();
}

// Verify covers this relation's side of the shared pair table: every base
// record must appear under its join key, and the side's entry count must
// match the base row count (the other side is verified by its own relation).
Status JiVerify(AtContext& ctx, uint32_t instance_no, VerifyReport* report) {
  JiState* st = StateOf(ctx);
  const JiInstance* inst = st->desc.Find(instance_no);
  if (inst == nullptr) {
    return JiList::NotFound(instance_no);
  }
  const std::string tag = "join_index#" + std::to_string(instance_no) + ": ";
  JoinData* data = st->data[instance_no].get();

  uint64_t base_rows = 0;
  DMX_RETURN_IF_ERROR(ScanRelation(ctx, [&](const ScanItem& item) {
    std::string jk;
    DMX_RETURN_IF_ERROR(EncodeFieldKey(item.view, inst->fields, &jk));
    if (!data->Contains(inst->side, jk, item.record_key)) {
      report->Problem(tag + "base record '" + item.record_key +
                      "' missing from join pair table");
    }
    ++base_rows;
    return Status::OK();
  }));
  size_t side_count = data->SideCount(inst->side);
  report->items += side_count;
  if (side_count != base_rows) {
    report->Problem(tag + "side entry count " + std::to_string(side_count) +
                    " != base rows " + std::to_string(base_rows));
  }
  return Status::OK();
}

}  // namespace

size_t JoinIndexPairCount(const std::string& name) {
  return JoinDataOf(name)->PairCount();
}

const AtOps& JoinIndexOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "join_index";
    o.create_instance = JiCreateInstance;
    o.drop_instance = JiDropInstance;
    o.open = JiOpen;
    o.on_insert = JiOnInsert;
    o.on_update = JiOnUpdate;
    o.on_delete = JiOnDelete;
    o.lookup = JiLookup;
    o.undo = JiUndo;
    o.instance_count = &InstanceCountOf<JiInstance>;
    o.list_instances = &ListInstancesOf<JiInstance>;
    o.verify = JiVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
