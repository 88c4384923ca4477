// Extension authoring: adding a new storage method and a new attachment
// type "at the factory". Demonstrates the architecture's central claim —
// that a data management extension only has to supply the generic
// operation tables, and the common services (logging, locking, descriptor
// management, two-step dispatch, recovery) do the rest.
//
// The storage method here is a toy "striped" store that keeps odd and even
// records in two in-memory vectors. The attachment is an audit log that
// counts modifications per relation and vetoes deletes of "protected"
// rows — neither needs changes anywhere else in the system.

#include <cstdio>
#include <map>

#include "src/core/database.h"
#include "src/util/coding.h"

using namespace dmx;

namespace {

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "FATAL %s: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

// ---------------------------------------------------------------------------
// A user-defined storage method: "striped" (odd/even in-memory stripes).
// Keys: 1 byte stripe + 8 byte big-endian counter. Unlogged (temporary
// semantics) to keep the example focused on the plumbing.
// ---------------------------------------------------------------------------

struct StripedState : public ExtState {
  std::map<std::string, std::string> stripes[2];
  uint64_t next = 1;
};

std::string StripedKey(int stripe, uint64_t n) {
  std::string key(1, static_cast<char>(stripe));
  for (int i = 7; i >= 0; --i) key.push_back(static_cast<char>(n >> (8 * i)));
  return key;
}

Status StripedValidate(const Schema&, const AttrList& attrs,
                       std::string* sm_desc) {
  Status s = attrs.CheckAllowed({});
  if (!s.ok()) return s;
  sm_desc->clear();
  return Status::OK();
}

Status StripedCreate(SmContext&, std::string*) { return Status::OK(); }
Status StripedDrop(SmContext&) { return Status::OK(); }

Status StripedOpen(SmContext&, std::unique_ptr<ExtState>* state) {
  *state = std::make_unique<StripedState>();
  return Status::OK();
}

Status StripedInsert(SmContext& ctx, const Slice& record,
                     std::string* record_key) {
  auto* st = static_cast<StripedState*>(ctx.state);
  int stripe = static_cast<int>(st->next % 2);
  std::string key = StripedKey(stripe, st->next++);
  st->stripes[stripe][key] = record.ToString();
  *record_key = std::move(key);
  return Status::OK();
}

Status StripedFetch(SmContext& ctx, const Slice& record_key,
                    std::string* record) {
  auto* st = static_cast<StripedState*>(ctx.state);
  if (record_key.empty()) return Status::InvalidArgument("bad key");
  auto& stripe = st->stripes[record_key[0] & 1];
  auto it = stripe.find(record_key.ToString());
  if (it == stripe.end()) return Status::NotFound("record");
  *record = it->second;
  return Status::OK();
}

Status StripedErase(SmContext& ctx, const Slice& record_key, const Slice&) {
  auto* st = static_cast<StripedState*>(ctx.state);
  auto& stripe = st->stripes[record_key[0] & 1];
  if (stripe.erase(record_key.ToString()) == 0) {
    return Status::NotFound("record");
  }
  return Status::OK();
}

Status StripedUpdate(SmContext& ctx, const Slice& record_key, const Slice&,
                     const Slice& new_record, std::string* new_key) {
  auto* st = static_cast<StripedState*>(ctx.state);
  auto& stripe = st->stripes[record_key[0] & 1];
  auto it = stripe.find(record_key.ToString());
  if (it == stripe.end()) return Status::NotFound("record");
  it->second = new_record.ToString();
  *new_key = record_key.ToString();
  return Status::OK();
}

class StripedScan : public Scan {
 public:
  StripedScan(Database* db, const RelationDescriptor* desc, StripedState* st,
              ExprPtr filter, const std::vector<Value>* params)
      : db_(db),
        desc_(desc),
        st_(st),
        filter_(std::move(filter)),
        params_(params) {}

  Status Next(ScanItem* out) override {
    while (true) {
      auto& stripe = st_->stripes[stripe_];
      auto it = stripe.upper_bound(pos_);
      if (it == stripe.end()) {
        if (stripe_ == 1) return Status::NotFound("end");
        ++stripe_;
        pos_.clear();
        continue;
      }
      pos_ = it->first;
      RecordView view{Slice(it->second), &desc_->schema};
      if (filter_ != nullptr) {
        bool passes = false;
        Status s =
            db_->evaluator()->EvalPredicate(*filter_, view, &passes, params_);
        if (!s.ok()) return s;
        if (!passes) continue;
      }
      out->record_key = it->first;
      out->view = view;
      return Status::OK();
    }
  }

  Status SavePosition(std::string* out) const override {
    out->assign(1, static_cast<char>(stripe_));
    out->append(pos_);
    return Status::OK();
  }

  Status RestorePosition(const Slice& pos) override {
    if (pos.empty()) return Status::InvalidArgument("bad position");
    stripe_ = pos[0];
    pos_.assign(pos.data() + 1, pos.size() - 1);
    return Status::OK();
  }

 private:
  Database* db_;
  const RelationDescriptor* desc_;
  StripedState* st_;
  ExprPtr filter_;
  const std::vector<Value>* params_;  // the statement's `?` values, or null
  int stripe_ = 0;
  std::string pos_;
};

Status StripedOpenScan(SmContext& ctx, const ScanSpec& spec,
                       std::unique_ptr<Scan>* scan) {
  *scan = std::make_unique<StripedScan>(
      ctx.db, ctx.desc, static_cast<StripedState*>(ctx.state), spec.filter,
      spec.params);
  return Status::OK();
}

Status StripedCost(SmContext& ctx, const std::vector<ExprPtr>&,
                   AccessCost* out) {
  auto* st = static_cast<StripedState*>(ctx.state);
  out->usable = true;
  out->io_cost = 0;
  out->cpu_cost =
      static_cast<double>(st->stripes[0].size() + st->stripes[1].size());
  return Status::OK();
}

Status StripedNoRecovery(SmContext&, const LogRecord&, Lsn) {
  return Status::OK();
}

Status StripedCount(SmContext& ctx, uint64_t* n) {
  auto* st = static_cast<StripedState*>(ctx.state);
  *n = st->stripes[0].size() + st->stripes[1].size();
  return Status::OK();
}

// Consistency sweep: every key must carry its stripe's tag byte and a
// counter the allocator has actually handed out. Findings go into the
// report — a verify pass surveys the whole structure instead of
// stopping at the first bad entry.
Status StripedVerify(SmContext& ctx, VerifyReport* report) {
  auto* st = static_cast<StripedState*>(ctx.state);
  for (int stripe = 0; stripe < 2; ++stripe) {
    for (const auto& [key, record] : st->stripes[stripe]) {
      ++report->items;
      if (key.size() != 9 || key[0] != static_cast<char>(stripe)) {
        report->Problem("malformed key in stripe " +
                        std::to_string(stripe));
        continue;
      }
      uint64_t n = 0;
      for (int i = 1; i < 9; ++i) {
        n = (n << 8) | static_cast<unsigned char>(key[i]);
      }
      if (n >= st->next) {
        report->Problem("key counter " + std::to_string(n) +
                        " beyond allocator high-water mark");
      }
    }
  }
  return Status::OK();
}

const SmOps& StripedOps() {
  static const SmOps ops = [] {
    SmOps o;
    o.name = "striped";
    o.validate = StripedValidate;
    o.create = StripedCreate;
    o.drop = StripedDrop;
    o.open = StripedOpen;
    o.insert = StripedInsert;
    o.update = StripedUpdate;
    o.erase = StripedErase;
    o.fetch = StripedFetch;
    o.open_scan = StripedOpenScan;
    o.cost = StripedCost;
    o.undo = StripedNoRecovery;
    o.redo = StripedNoRecovery;
    o.count = StripedCount;
    o.verify = StripedVerify;
    return o;
  }();
  return ops;
}

// ---------------------------------------------------------------------------
// A user-defined attachment: an audit counter that vetoes deleting id 0.
// Stateless apart from a global counter map; descriptor = 1-byte marker.
// ---------------------------------------------------------------------------

std::map<RelationId, int>& AuditCounts() {
  static auto* counts = new std::map<RelationId, int>();
  return *counts;
}

Status AuditCreateInstance(AtContext&, const AttrList& attrs,
                           std::string* new_desc, uint32_t* instance_no) {
  Status s = attrs.CheckAllowed({});
  if (!s.ok()) return s;
  *new_desc = "A";  // non-empty = present
  *instance_no = 1;
  return Status::OK();
}

Status AuditDropInstance(AtContext&, uint32_t, std::string* new_desc) {
  new_desc->clear();
  return Status::OK();
}

// The counter map is global, so the per-relation state is just a marker
// (a null state would make the engine re-run open on every dispatch).
Status AuditOpen(AtContext&, std::unique_ptr<ExtState>* state) {
  *state = std::make_unique<ExtState>();
  return Status::OK();
}

uint32_t AuditInstanceCount(const Slice& at_desc) {
  return at_desc.empty() ? 0 : 1;  // "A" marker = the one instance
}

Status AuditOnInsert(AtContext& ctx, const Slice&, const Slice&) {
  ++AuditCounts()[ctx.desc->id];
  return Status::OK();
}

Status AuditOnUpdate(AtContext& ctx, const Slice&, const Slice&,
                     const Slice&, const Slice&) {
  ++AuditCounts()[ctx.desc->id];
  return Status::OK();
}

Status AuditOnDelete(AtContext& ctx, const Slice&, const Slice& old_record) {
  RecordView view{old_record, &ctx.desc->schema};
  if (!view.IsNull(0) && view.GetInt(0) == 0) {
    return Status::Veto("record id 0 is protected by the audit attachment");
  }
  ++AuditCounts()[ctx.desc->id];
  return Status::OK();
}

const AtOps& AuditOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "audit";
    o.create_instance = AuditCreateInstance;
    o.drop_instance = AuditDropInstance;
    o.open = AuditOpen;
    o.instance_count = AuditInstanceCount;
    o.on_insert = AuditOnInsert;
    o.on_update = AuditOnUpdate;
    o.on_delete = AuditOnDelete;
    return o;
  }();
  return ops;
}

}  // namespace

int main() {
  DatabaseOptions options;
  options.dir = "/tmp/dmx_authoring";
  system(("rm -rf " + options.dir).c_str());
  // "At the factory": user extensions register before recovery runs.
  options.register_extensions = [](ExtensionRegistry* registry) {
    SmId sm = registry->RegisterStorageMethod(StripedOps());
    AtId at = registry->RegisterAttachmentType(AuditOps());
    printf("registered storage method 'striped' as id %u, attachment "
           "'audit' as id %u\n",
           sm, at);
  };
  std::unique_ptr<Database> db;
  Check(Database::Open(options, &db), "open");

  Schema schema({{"id", TypeId::kInt64, false},
                 {"payload", TypeId::kString, true}});
  Transaction* txn = db->Begin();
  Check(db->CreateRelation(txn, "things", schema, "striped", {}), "create");
  Check(db->CreateAttachment(txn, "things", "audit", {}), "attach audit");
  Check(db->Commit(txn), "commit ddl");

  printf("\n== the new extensions participate in the full machinery ==\n");
  txn = db->Begin();
  std::string key0;
  Check(db->Insert(txn, "things", {Value::Int(0), Value::String("keep me")},
                   &key0),
        "insert 0");
  for (int i = 1; i <= 6; ++i) {
    Check(db->Insert(txn, "things",
                     {Value::Int(i), Value::String("row " +
                                                   std::to_string(i))}),
          "insert");
  }
  Check(db->Commit(txn), "commit rows");

  // Scan through the generic interface: the executor cannot tell this is
  // not a built-in storage method.
  txn = db->Begin();
  std::unique_ptr<Scan> scan;
  ScanSpec spec;
  spec.filter = Expr::Cmp(ExprOp::kGe, 0, Value::Int(4));
  Check(db->OpenScanOn(
            txn,
            [&] {
              const RelationDescriptor* d;
              Check(db->FindRelation("things", &d), "find");
              return d;
            }(),
            AccessPathId::StorageMethod(), spec, &scan),
        "scan");
  printf("records with id >= 4 via the striped storage method:");
  ScanItem item;
  while (scan->Next(&item).ok()) {
    printf(" %lld", (long long)item.view.GetInt(0));
  }
  printf("\n");
  scan.reset();

  // Veto from the user attachment triggers a partial rollback exactly as
  // for the built-ins.
  Status veto = db->Delete(txn, "things", Slice(key0));
  printf("deleting the protected row -> %s\n", veto.ToString().c_str());
  Check(db->Commit(txn), "commit");

  const RelationDescriptor* d;
  Check(db->FindRelation("things", &d), "find");
  printf("audit counted %d modifications on 'things'\n",
         AuditCounts()[d->id]);
  printf("\nOK\n");
  return 0;
}
