#include "src/sm/memory.h"

#include <map>

#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/core/extension_log.h"
#include "src/util/coding.h"

namespace dmx {
namespace {

struct MemState : public ExtState {
  std::map<std::string, std::string> rows;  // key -> record image
  uint64_t next = 1;
};

MemState* StateOf(SmContext& ctx) { return static_cast<MemState*>(ctx.state); }

std::string EncodeMemKey(uint64_t n) {
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[i] = static_cast<char>(n & 0xff);
    n >>= 8;
  }
  return out;
}

uint64_t DecodeMemKey(const Slice& key) {
  uint64_t n = 0;
  for (size_t i = 0; i < key.size() && i < 8; ++i) {
    n = (n << 8) | static_cast<uint8_t>(key[i]);
  }
  return n;
}

Status MemValidate(const Schema&, const AttrList& attrs,
                   std::string* sm_desc) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({}));
  sm_desc->clear();
  return Status::OK();
}

Status MemCreate(SmContext&, std::string*) { return Status::OK(); }
Status MemDrop(SmContext&) { return Status::OK(); }

Status MemOpen(SmContext&, std::unique_ptr<ExtState>* state) {
  *state = std::make_unique<MemState>();
  return Status::OK();
}

// -- mainmemory snapshots (checkpoint support) --------------------------------

std::string SnapshotPath(SmContext& ctx) {
  return ctx.db->dir() + "/mm_" + std::to_string(ctx.desc->id) + ".snapshot";
}

// Snapshot encoding: fixed64 next-counter | varint row count |
// per row: lps(key) lps(record).
Status MainMemCheckpoint(SmContext& ctx) {
  MemState* st = StateOf(ctx);
  std::string data;
  PutFixed64(&data, st->next);
  PutVarint32(&data, static_cast<uint32_t>(st->rows.size()));
  for (const auto& [key, record] : st->rows) {
    PutLengthPrefixedSlice(&data, key);
    PutLengthPrefixedSlice(&data, record);
  }
  return ctx.db->env()->WriteFileAtomic(SnapshotPath(ctx), data);
}

Status MainMemOpen(SmContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<MemState>();
  std::string data;
  if (ctx.db->env()->ReadFileToString(SnapshotPath(ctx), &data).ok()) {
    Slice s(data);
    uint64_t next;
    uint32_t count;
    if (!GetFixed64(&s, &next) || !GetVarint32(&s, &count)) {
      return Status::Corruption("mainmemory snapshot header");
    }
    st->next = next;
    for (uint32_t i = 0; i < count; ++i) {
      Slice key, record;
      if (!GetLengthPrefixedSlice(&s, &key) ||
          !GetLengthPrefixedSlice(&s, &record)) {
        return Status::Corruption("mainmemory snapshot row");
      }
      st->rows[key.ToString()] = record.ToString();
    }
  }
  *state = std::move(st);
  return Status::OK();
}

Status MainMemDrop(SmContext& ctx) {
  ctx.db->env()->DeleteFile(SnapshotPath(ctx)).ok();  // may not exist
  return Status::OK();
}

// Core table operations shared by both methods; `logged` selects whether
// changes flow through the common recovery log.

template <bool kLogged>
Status MemInsert(SmContext& ctx, const Slice& record,
                 std::string* record_key) {
  MemState* st = StateOf(ctx);
  std::string key = EncodeMemKey(st->next++);
  st->rows[key] = record.ToString();
  if (kLogged) {
    std::string payload = "I";
    PutLengthPrefixedSlice(&payload, key);
    payload.append(record.data(), record.size());
    DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload)));
  }
  *record_key = std::move(key);
  return Status::OK();
}

template <bool kLogged>
Status MemUpdate(SmContext& ctx, const Slice& record_key,
                 const Slice& old_record, const Slice& new_record,
                 std::string* new_key) {
  MemState* st = StateOf(ctx);
  auto it = st->rows.find(record_key.ToString());
  if (it == st->rows.end()) return Status::NotFound("record");
  it->second = new_record.ToString();
  if (kLogged) {
    std::string payload = "U";
    PutLengthPrefixedSlice(&payload, record_key);
    PutLengthPrefixedSlice(&payload, old_record);
    PutLengthPrefixedSlice(&payload, new_record);
    DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload)));
  }
  *new_key = record_key.ToString();
  return Status::OK();
}

template <bool kLogged>
Status MemErase(SmContext& ctx, const Slice& record_key,
                const Slice& old_record) {
  MemState* st = StateOf(ctx);
  auto it = st->rows.find(record_key.ToString());
  if (it == st->rows.end()) return Status::NotFound("record");
  st->rows.erase(it);
  if (kLogged) {
    std::string payload = "D";
    PutLengthPrefixedSlice(&payload, record_key);
    payload.append(old_record.data(), old_record.size());
    DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload)));
  }
  return Status::OK();
}

Status MemFetch(SmContext& ctx, const Slice& record_key,
                std::string* record) {
  MemState* st = StateOf(ctx);
  auto it = st->rows.find(record_key.ToString());
  if (it == st->rows.end()) return Status::NotFound("record");
  *record = it->second;
  return Status::OK();
}

class MemScan : public Scan {
 public:
  MemScan(Database* db, const RelationDescriptor* desc, MemState* st,
          const ScanSpec& spec)
      : db_(db), desc_(desc), st_(st), spec_(spec) {
    if (spec_.low_key.has_value()) {
      pos_ = *spec_.low_key;
      exclusive_ = !spec_.low_inclusive;
    }
  }

  Status Next(ScanItem* out) override {
    while (true) {
      auto it = exclusive_ ? st_->rows.upper_bound(pos_)
                           : st_->rows.lower_bound(pos_);
      if (it == st_->rows.end()) return Status::NotFound("end of scan");
      pos_ = it->first;
      exclusive_ = true;
      if (spec_.high_key.has_value()) {
        int cmp = Slice(it->first).compare(Slice(*spec_.high_key));
        if (cmp > 0 || (cmp == 0 && !spec_.high_inclusive)) {
          return Status::NotFound("end of scan");
        }
      }
      RecordView view(Slice(it->second), &desc_->schema);
      if (spec_.filter != nullptr) {
        bool passes = false;
        DMX_RETURN_IF_ERROR(db_->evaluator()->EvalPredicate(
            *spec_.filter, view, &passes, spec_.params));
        if (!passes) continue;
      }
      out->record_key = it->first;
      out->view = view;
      return Status::OK();
    }
  }

  Status SavePosition(std::string* out) const override {
    out->assign(1, exclusive_ ? 1 : 0);
    out->append(pos_);
    return Status::OK();
  }

  Status RestorePosition(const Slice& pos) override {
    if (pos.empty()) return Status::InvalidArgument("empty position");
    exclusive_ = pos[0] != 0;
    pos_.assign(pos.data() + 1, pos.size() - 1);
    return Status::OK();
  }

 private:
  Database* db_;
  const RelationDescriptor* desc_;
  MemState* st_;
  ScanSpec spec_;
  std::string pos_;
  bool exclusive_ = false;
};

Status MemOpenScan(SmContext& ctx, const ScanSpec& spec,
                   std::unique_ptr<Scan>* scan) {
  *scan = std::make_unique<MemScan>(ctx.db, ctx.desc, StateOf(ctx), spec);
  return Status::OK();
}

Status MemCost(SmContext& ctx, const std::vector<ExprPtr>& predicates,
               AccessCost* out) {
  MemState* st = StateOf(ctx);
  out->usable = true;
  out->io_cost = 0;  // memory-resident: the intro's motivation
  out->cpu_cost = static_cast<double>(st->rows.size());
  out->selectivity = EstimateSelectivity(predicates);
  out->handled_predicates.clear();
  for (size_t i = 0; i < predicates.size(); ++i) {
    out->handled_predicates.push_back(static_cast<int>(i));
  }
  return Status::OK();
}

Status MemCount(SmContext& ctx, uint64_t* records) {
  *records = StateOf(ctx)->rows.size();
  return Status::OK();
}

// In-memory table sweep: every row must decode against the schema and no
// key may exceed the insertion counter (a stale counter would hand out
// duplicate record keys).
Status MemVerify(SmContext& ctx, VerifyReport* report) {
  MemState* st = StateOf(ctx);
  for (const auto& [key, record] : st->rows) {
    RecordView view(Slice(record), &ctx.desc->schema);
    Status vs = view.Validate();
    if (!vs.ok()) {
      report->Problem("memory row " + std::to_string(DecodeMemKey(Slice(key))) +
                      " fails to decode: " + vs.ToString());
      continue;
    }
    if (DecodeMemKey(Slice(key)) >= st->next) {
      report->Problem("memory row key " +
                      std::to_string(DecodeMemKey(Slice(key))) +
                      " at or above the insertion counter " +
                      std::to_string(st->next));
    }
    ++report->items;
  }
  return Status::OK();
}

Status MemNoUndo(SmContext&, const LogRecord&, Lsn) { return Status::OK(); }
Status MemNoRedo(SmContext&, const LogRecord&, Lsn) { return Status::OK(); }

// Logged (mainmemory) recovery: logical replay into the in-memory table.
Status MainMemApply(SmContext& ctx, const LogRecord& rec, bool undo) {
  MemState* st = StateOf(ctx);
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("mainmemory payload");
  char op = in[0];
  in.remove_prefix(1);
  Slice key;
  if (!GetLengthPrefixedSlice(&in, &key)) {
    return Status::Corruption("mainmemory key");
  }
  // Keep the insertion counter ahead of every key ever seen so replayed
  // tables continue numbering correctly.
  uint64_t kn = DecodeMemKey(key);
  if (kn >= st->next) st->next = kn + 1;
  switch (op) {
    case 'I':
      if (undo) {
        st->rows.erase(key.ToString());
      } else {
        st->rows[key.ToString()] = in.ToString();
      }
      return Status::OK();
    case 'D':
      if (undo) {
        st->rows[key.ToString()] = in.ToString();
      } else {
        st->rows.erase(key.ToString());
      }
      return Status::OK();
    case 'U': {
      Slice old_rec, new_rec;
      if (!GetLengthPrefixedSlice(&in, &old_rec) ||
          !GetLengthPrefixedSlice(&in, &new_rec)) {
        return Status::Corruption("mainmemory update payload");
      }
      st->rows[key.ToString()] = undo ? old_rec.ToString()
                                      : new_rec.ToString();
      return Status::OK();
    }
    default:
      return Status::Corruption("mainmemory op");
  }
}

Status MainMemUndo(SmContext& ctx, const LogRecord& rec, Lsn) {
  return MainMemApply(ctx, rec, /*undo=*/true);
}

Status MainMemRedo(SmContext& ctx, const LogRecord& rec, Lsn) {
  return MainMemApply(ctx, rec, /*undo=*/false);
}

}  // namespace

const SmOps& TempStorageMethodOps() {
  static const SmOps ops = [] {
    SmOps o;
    o.name = "temp";
    o.validate = MemValidate;
    o.create = MemCreate;
    o.drop = MemDrop;
    o.open = MemOpen;
    o.insert = MemInsert<false>;
    o.update = MemUpdate<false>;
    o.erase = MemErase<false>;
    o.fetch = MemFetch;
    o.open_scan = MemOpenScan;
    o.cost = MemCost;
    o.undo = MemNoUndo;
    o.redo = MemNoRedo;
    o.count = MemCount;
    o.verify = MemVerify;
    return o;
  }();
  return ops;
}

const SmOps& MainMemoryStorageMethodOps() {
  static const SmOps ops = [] {
    SmOps o;
    o.name = "mainmemory";
    o.validate = MemValidate;
    o.create = MemCreate;
    o.drop = MainMemDrop;
    o.open = MainMemOpen;
    o.checkpoint = MainMemCheckpoint;
    o.insert = MemInsert<true>;
    o.update = MemUpdate<true>;
    o.erase = MemErase<true>;
    o.fetch = MemFetch;
    o.open_scan = MemOpenScan;
    o.cost = MemCost;
    o.undo = MainMemUndo;
    o.redo = MainMemRedo;
    o.count = MemCount;
    o.verify = MemVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
