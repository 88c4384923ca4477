#include "src/sm/foreign.h"

#include <map>

#include "src/core/costing.h"
#include "src/core/database.h"
#include "src/core/extension_log.h"
#include "src/util/coding.h"

namespace dmx {

namespace {

Mutex g_servers_mu;
std::map<std::string, Database*>& Servers() {
  static auto* servers = new std::map<std::string, Database*>();
  return *servers;
}

}  // namespace

void RegisterForeignServer(const std::string& name, Database* db) {
  MutexLock lock(&g_servers_mu);
  Servers()[name] = db;
}

void UnregisterForeignServer(const std::string& name) {
  MutexLock lock(&g_servers_mu);
  Servers().erase(name);
}

Database* FindForeignServer(const std::string& name) {
  MutexLock lock(&g_servers_mu);
  auto it = Servers().find(name);
  return it == Servers().end() ? nullptr : it->second;
}

namespace {

struct ForeignState : public ExtState {
  std::string server;
  std::string relation;
};

ForeignState* StateOf(SmContext& ctx) {
  return static_cast<ForeignState*>(ctx.state);
}

Status DecodeDesc(const Slice& sm_desc, std::string* server,
                  std::string* relation) {
  Slice in = sm_desc;
  Slice s, r;
  if (!GetLengthPrefixedSlice(&in, &s) || !GetLengthPrefixedSlice(&in, &r)) {
    return Status::Corruption("foreign descriptor");
  }
  *server = s.ToString();
  *relation = r.ToString();
  return Status::OK();
}

// Resolve the foreign database and its relation descriptor.
Status Resolve(ForeignState* st, Database** fdb,
               const RelationDescriptor** fdesc) {
  *fdb = FindForeignServer(st->server);
  if (*fdb == nullptr) {
    // An unreachable foreign server is transient-fatal-to-op: the local
    // environment is healthy, so this IOError is deliberately
    // non-retryable and never trips degraded mode.
    // deeplint: allow(status-discipline, no Env beneath)
    return Status::IOError(
        "foreign server '" + st->server + "' unreachable");
  }
  return (*fdb)->FindRelation(st->relation, fdesc);
}

Status ForeignValidate(const Schema& schema, const AttrList& attrs,
                       std::string* sm_desc) {
  DMX_RETURN_IF_ERROR(attrs.CheckAllowed({"server", "relation"}));
  if (!attrs.Has("server") || !attrs.Has("relation")) {
    return Status::InvalidArgument(
        "foreign storage requires server=<name>, relation=<name>");
  }
  Database* fdb = FindForeignServer(attrs.Get("server"));
  if (fdb == nullptr) {
    return Status::InvalidArgument("unknown foreign server '" +
                                   attrs.Get("server") + "'");
  }
  const RelationDescriptor* fdesc;
  DMX_RETURN_IF_ERROR(fdb->FindRelation(attrs.Get("relation"), &fdesc));
  if (!(fdesc->schema == schema)) {
    return Status::InvalidArgument(
        "local schema does not match the foreign relation's schema");
  }
  sm_desc->clear();
  PutLengthPrefixedSlice(sm_desc, attrs.Get("server"));
  PutLengthPrefixedSlice(sm_desc, attrs.Get("relation"));
  return Status::OK();
}

Status ForeignCreate(SmContext&, std::string*) { return Status::OK(); }
Status ForeignDrop(SmContext&) { return Status::OK(); }  // foreign data stays

Status ForeignOpen(SmContext& ctx, std::unique_ptr<ExtState>* state) {
  auto st = std::make_unique<ForeignState>();
  DMX_RETURN_IF_ERROR(
      DecodeDesc(Slice(ctx.desc->sm_desc), &st->server, &st->relation));
  *state = std::move(st);
  return Status::OK();
}

// Run `fn` in an auto-commit foreign transaction.
template <typename Fn>
Status WithForeignTxn(Database* fdb, Fn&& fn) {
  Transaction* ftxn = fdb->Begin();
  Status s = fn(ftxn);
  if (s.ok()) return fdb->Commit(ftxn);
  (void)fdb->Abort(ftxn);  // the operation's own failure takes precedence
  return s;
}

Status ForeignInsert(SmContext& ctx, const Slice& record,
                     std::string* record_key) {
  ForeignState* st = StateOf(ctx);
  Database* fdb;
  const RelationDescriptor* fdesc;
  DMX_RETURN_IF_ERROR(Resolve(st, &fdb, &fdesc));
  std::string fkey;
  DMX_RETURN_IF_ERROR(WithForeignTxn(fdb, [&](Transaction* ftxn) {
    return fdb->InsertRecord(ftxn, fdesc, record, &fkey);
  }));
  std::string payload = "I";
  PutLengthPrefixedSlice(&payload, fkey);
  payload.append(record.data(), record.size());
  DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload)));
  *record_key = std::move(fkey);
  return Status::OK();
}

Status ForeignUpdate(SmContext& ctx, const Slice& record_key,
                     const Slice& old_record, const Slice& new_record,
                     std::string* new_key) {
  ForeignState* st = StateOf(ctx);
  Database* fdb;
  const RelationDescriptor* fdesc;
  DMX_RETURN_IF_ERROR(Resolve(st, &fdb, &fdesc));
  std::string nkey;
  DMX_RETURN_IF_ERROR(WithForeignTxn(fdb, [&](Transaction* ftxn) {
    return fdb->UpdateRecord(ftxn, fdesc, record_key, new_record, &nkey);
  }));
  std::string payload = "U";
  PutLengthPrefixedSlice(&payload, record_key);
  PutLengthPrefixedSlice(&payload, old_record);
  PutLengthPrefixedSlice(&payload, nkey);
  PutLengthPrefixedSlice(&payload, new_record);
  DMX_RETURN_IF_ERROR(LogExtensionUpdate(ctx, std::move(payload)));
  *new_key = std::move(nkey);
  return Status::OK();
}

Status ForeignErase(SmContext& ctx, const Slice& record_key,
                    const Slice& old_record) {
  ForeignState* st = StateOf(ctx);
  Database* fdb;
  const RelationDescriptor* fdesc;
  DMX_RETURN_IF_ERROR(Resolve(st, &fdb, &fdesc));
  DMX_RETURN_IF_ERROR(WithForeignTxn(fdb, [&](Transaction* ftxn) {
    return fdb->DeleteRecord(ftxn, fdesc, record_key);
  }));
  std::string payload = "D";
  PutLengthPrefixedSlice(&payload, record_key);
  payload.append(old_record.data(), old_record.size());
  return LogExtensionUpdate(ctx, std::move(payload));
}

Status ForeignFetch(SmContext& ctx, const Slice& record_key,
                    std::string* record) {
  ForeignState* st = StateOf(ctx);
  Database* fdb;
  const RelationDescriptor* fdesc;
  DMX_RETURN_IF_ERROR(Resolve(st, &fdb, &fdesc));
  return WithForeignTxn(fdb, [&](Transaction* ftxn) {
    return fdb->FetchRecord(ftxn, fdesc, record_key, record);
  });
}

// A scan holds its own foreign transaction open for its lifetime.
class ForeignScan : public Scan {
 public:
  ForeignScan(Database* fdb, Transaction* ftxn, std::unique_ptr<Scan> inner)
      : fdb_(fdb), ftxn_(ftxn), inner_(std::move(inner)) {}

  ~ForeignScan() override {
    inner_.reset();  // deregister before the foreign txn ends
    // Read-only foreign txn; a commit failure is unreportable here.
    (void)fdb_->Commit(ftxn_);
  }

  Status Next(ScanItem* out) override { return inner_->Next(out); }
  Status SavePosition(std::string* out) const override {
    return inner_->SavePosition(out);
  }
  Status RestorePosition(const Slice& pos) override {
    return inner_->RestorePosition(pos);
  }

 private:
  Database* fdb_;
  Transaction* ftxn_;
  std::unique_ptr<Scan> inner_;
};

Status ForeignOpenScan(SmContext& ctx, const ScanSpec& spec,
                       std::unique_ptr<Scan>* scan) {
  ForeignState* st = StateOf(ctx);
  Database* fdb;
  const RelationDescriptor* fdesc;
  DMX_RETURN_IF_ERROR(Resolve(st, &fdb, &fdesc));
  Transaction* ftxn = fdb->Begin();
  std::unique_ptr<Scan> inner;
  Status s = fdb->OpenScanOn(ftxn, fdesc, AccessPathId::StorageMethod(),
                             spec, &inner);
  if (!s.ok()) {
    (void)fdb->Abort(ftxn);  // the open failure takes precedence
    return s;
  }
  *scan = std::make_unique<ForeignScan>(fdb, ftxn, std::move(inner));
  return Status::OK();
}

Status ForeignCost(SmContext& ctx, const std::vector<ExprPtr>& predicates,
                   AccessCost* out) {
  ForeignState* st = StateOf(ctx);
  Database* fdb;
  const RelationDescriptor* fdesc;
  DMX_RETURN_IF_ERROR(Resolve(st, &fdb, &fdesc));
  uint64_t n = 0;
  Transaction* ftxn = fdb->Begin();
  // Best-effort: an unreachable count leaves n = 0, which only skews the
  // cost estimate — never correctness.
  (void)fdb->CountRecords(ftxn, fdesc, &n);
  (void)fdb->Commit(ftxn);  // read-only txn; nothing to undo
  out->usable = true;
  // Remote accesses are charged a per-record messaging premium.
  out->io_cost = static_cast<double>(n) * 0.1;
  out->cpu_cost = static_cast<double>(n) * 2.0;
  out->selectivity = EstimateSelectivity(predicates);
  out->handled_predicates.clear();
  for (size_t i = 0; i < predicates.size(); ++i) {
    out->handled_predicates.push_back(static_cast<int>(i));
  }
  return Status::OK();
}

Status ForeignCount(SmContext& ctx, uint64_t* records) {
  ForeignState* st = StateOf(ctx);
  Database* fdb;
  const RelationDescriptor* fdesc;
  DMX_RETURN_IF_ERROR(Resolve(st, &fdb, &fdesc));
  Transaction* ftxn = fdb->Begin();
  Status s = fdb->CountRecords(ftxn, fdesc, records);
  Status c = fdb->Commit(ftxn);
  return s.ok() ? c : s;
}

// Undo = compensating operation against the foreign database. Redo is a
// no-op: the foreign database has its own durability.
Status ForeignUndo(SmContext& ctx, const LogRecord& rec, Lsn) {
  ForeignState* st = StateOf(ctx);
  Database* fdb;
  const RelationDescriptor* fdesc;
  Status rs = Resolve(st, &fdb, &fdesc);
  if (!rs.ok()) return Status::OK();  // server gone: nothing to compensate
  Slice in(rec.payload);
  if (in.empty()) return Status::Corruption("foreign payload");
  char op = in[0];
  in.remove_prefix(1);
  Slice key;
  if (!GetLengthPrefixedSlice(&in, &key)) {
    return Status::Corruption("foreign key");
  }
  switch (op) {
    case 'I':
      return WithForeignTxn(fdb, [&](Transaction* ftxn) {
        Status s = fdb->DeleteRecord(ftxn, fdesc, key);
        return s.IsNotFound() ? Status::OK() : s;
      });
    case 'D':
      return WithForeignTxn(fdb, [&](Transaction* ftxn) {
        std::string ignored;
        return fdb->InsertRecord(ftxn, fdesc, in, &ignored);
      });
    case 'U': {
      Slice old_rec, nkey, new_rec;
      if (!GetLengthPrefixedSlice(&in, &old_rec) ||
          !GetLengthPrefixedSlice(&in, &nkey) ||
          !GetLengthPrefixedSlice(&in, &new_rec)) {
        return Status::Corruption("foreign update payload");
      }
      return WithForeignTxn(fdb, [&](Transaction* ftxn) {
        std::string ignored;
        return fdb->UpdateRecord(ftxn, fdesc, nkey, old_rec, &ignored);
      });
    }
    default:
      return Status::Corruption("foreign op");
  }
}

Status ForeignRedo(SmContext&, const LogRecord&, Lsn) { return Status::OK(); }

// Consistency sweep: the foreign database owns its own storage, so the
// local structure to check is the binding — server reachable, relation
// present, schemas still in agreement — plus a scan to confirm every
// remote record is actually readable through the link.
Status ForeignVerify(SmContext& ctx, VerifyReport* report) {
  ForeignState* st = StateOf(ctx);
  Database* fdb = FindForeignServer(st->server);
  if (fdb == nullptr) {
    report->Problem("foreign server '" + st->server + "' unreachable");
    return Status::OK();
  }
  const RelationDescriptor* fdesc;
  Status s = fdb->FindRelation(st->relation, &fdesc);
  if (!s.ok()) {
    report->Problem("foreign relation '" + st->relation +
                    "' missing on server '" + st->server + "'");
    return Status::OK();
  }
  if (!(fdesc->schema == ctx.desc->schema)) {
    report->Problem("schema drift: foreign relation '" + st->relation +
                    "' no longer matches the local schema");
  }
  return WithForeignTxn(fdb, [&](Transaction* ftxn) {
    std::unique_ptr<Scan> scan;
    DMX_RETURN_IF_ERROR(fdb->OpenScanOn(ftxn, fdesc,
                                        AccessPathId::StorageMethod(),
                                        ScanSpec{}, &scan));
    ScanItem item;
    while (true) {
      Status n = scan->Next(&item);
      if (n.IsNotFound()) break;
      if (!n.ok()) {
        report->Problem("foreign scan failed: " + n.ToString());
        break;
      }
      ++report->items;
    }
    return Status::OK();
  });
}

}  // namespace

const SmOps& ForeignStorageMethodOps() {
  static const SmOps ops = [] {
    SmOps o;
    o.name = "foreign";
    o.validate = ForeignValidate;
    o.create = ForeignCreate;
    o.drop = ForeignDrop;
    o.open = ForeignOpen;
    o.insert = ForeignInsert;
    o.update = ForeignUpdate;
    o.erase = ForeignErase;
    o.fetch = ForeignFetch;
    o.open_scan = ForeignOpenScan;
    o.cost = ForeignCost;
    o.undo = ForeignUndo;
    o.redo = ForeignRedo;
    o.count = ForeignCount;
    o.verify = ForeignVerify;
    return o;
  }();
  return ops;
}

}  // namespace dmx
