#include "src/core/database.h"

#include <cassert>
#include <thread>

#include "src/util/thread_pool.h"
#include "src/wal/archiver.h"

namespace dmx {

namespace {
constexpr uint32_t kAllInstances = UINT32_MAX;

std::string ComponentName(const AtOps& ops, uint32_t instance) {
  return std::string(ops.name != nullptr ? ops.name : "attachment") + "#" +
         std::to_string(instance);
}
}  // namespace

Status Database::Open(const DatabaseOptions& options,
                      std::unique_ptr<Database>* out) {
  auto db = std::unique_ptr<Database>(new Database());
  db->dir_ = options.dir;
  db->worker_threads_ = options.worker_threads != 0
                            ? options.worker_threads
                            : std::thread::hardware_concurrency();
  if (db->worker_threads_ == 0) db->worker_threads_ = 1;
  // All durable I/O goes through the retry wrapper: short transient bursts
  // (EINTR, ENOSPC, injected transient faults) are absorbed here and never
  // surface as operation failures.
  RetryPolicy retry_policy;
  retry_policy.max_attempts = options.io_retry_attempts > 0
                                  ? options.io_retry_attempts
                                  : 1;
  db->retry_env_ = std::make_unique<RetryingEnv>(
      options.env != nullptr ? options.env : Env::Default(), retry_policy);
  db->env_ = db->retry_env_.get();
  db->lock_mgr_.set_timeout(
      std::chrono::milliseconds(options.lock_timeout_ms));
  DMX_RETURN_IF_ERROR(db->env_->CreateDir(options.dir));

  DMX_RETURN_IF_ERROR(
      db->page_file_.Open(options.dir + "/db.pages", true, db->env_));
  // Retention must be decided before Open() so segment discovery keeps
  // (rather than discards) sealed segments left by a prior incarnation.
  db->log_.SetRetainSegments(!options.wal_archive_dir.empty());
  DMX_RETURN_IF_ERROR(db->log_.Open(options.dir + "/wal", true, db->env_));
  LogManager* log = &db->log_;
  db->buffer_pool_ = std::make_unique<BufferPool>(
      &db->page_file_, options.buffer_pool_pages,
      [log](Lsn lsn) { return log->FlushTo(lsn); });
  db->txn_mgr_ =
      std::make_unique<TransactionManager>(&db->log_, &db->lock_mgr_);
  db->txn_mgr_->set_default_relaxed_durability(options.durability ==
                                               Durability::kRelaxed);
  Database* raw = db.get();
  db->txn_mgr_->SetApplyFn(
      [raw](const LogRecord& rec, bool undo, Lsn apply_lsn) {
        return raw->ApplyLogRecord(rec, undo, apply_lsn);
      });
  db->txn_mgr_->AddObserver(&db->scan_mgr_);

  // Graceful degradation: transient write-path outages flip the database
  // into read-only degraded mode; the background thread probes the fault
  // and restores full service in place.
  ErrorHandler::Options eh_opts;
  eh_opts.initial_backoff_ms = options.recovery_initial_backoff_ms;
  eh_opts.max_backoff_ms = options.recovery_max_backoff_ms;
  db->error_handler_ = std::make_unique<ErrorHandler>(eh_opts);
  db->error_handler_->SetRecoverFn([raw] { return raw->RecoverWritePath(); });
  db->txn_mgr_->set_wal_failure_handler(
      [raw](const std::string& where, const Status& cause) {
        raw->error_handler_->ReportWriteFailure(where, cause);
      });

  // "At the factory": install procedure vectors before any dispatch.
  RegisterBuiltinExtensions(&db->registry_);
  if (options.register_extensions) options.register_extensions(&db->registry_);
  db->ResolveDispatchMetrics();

  DMX_RETURN_IF_ERROR(db->catalog_.Load(options.dir + "/catalog", db->env_));

  // Restart recovery: redo (page-LSN gated), then undo losers. Attachments
  // without redo sit it out and build their state at first touch.
  db->restarting_ = true;
  DMX_RETURN_IF_ERROR(db->txn_mgr_->driver()->Restart());
  db->restarting_ = false;
  // Transaction ids continue above everything in the log: reusing an id of
  // a committed transaction would make a future crash treat an unfinished
  // transaction as a winner.
  db->txn_mgr_->EnsureTxnIdAbove(db->txn_mgr_->driver()->max_txn_seen());

  if (options.auto_recovery) db->error_handler_->Start();

  // Background group flusher: makes relaxed-durability commits durable on
  // a short cadence; a flush failure degrades the database through the
  // same ErrorHandler path as a failed strict commit force.
  if (options.group_flush_interval_us > 0) {
    db->log_.StartFlusher(
        options.group_flush_interval_us, [raw](const Status& cause) {
          raw->error_handler_->ReportWriteFailure("wal group flush", cause);
        });
  }

  // WAL archiver: rotates the live log into sealed segments and copies
  // them (CRC-verified) into the archive before checkpoint truncation may
  // reclaim them. An archive failure degrades the database like any other
  // write-path outage; RecoverWritePath drains the backlog.
  if (!options.wal_archive_dir.empty()) {
    WalArchiver::Options arch_opts;
    arch_opts.archive_dir = options.wal_archive_dir;
    arch_opts.segment_target_bytes = options.wal_segment_bytes;
    arch_opts.poll_interval_us = options.wal_archive_poll_us;
    db->archiver_ =
        std::make_unique<WalArchiver>(&db->log_, db->env_, arch_opts);
    DMX_RETURN_IF_ERROR(
        db->archiver_->Start([raw](const Status& cause) {
          raw->error_handler_->ReportWriteFailure("wal archive", cause);
        }));
  }

  *out = std::move(db);
  return Status::OK();
}

Database::Database() : txn_mgr_(nullptr) {}

Database::~Database() {
  // Stop the background threads before tearing anything down: the group
  // flusher's failure callback touches the error handler, and the
  // recovery thread's callback touches the log manager.
  if (archiver_) archiver_->Stop();
  log_.StopFlusher();
  if (error_handler_) error_handler_->Stop();
  // Best-effort write-back; errors are unreportable in a destructor.
  if (!crash_on_close_) (void)Flush();
}

void Database::ResolveDispatchMetrics() {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  auto resolve = [metrics](const char* kind, size_t id, const char* name) {
    std::string base = std::string(kind) + "." + std::to_string(id) + "." +
                       (name != nullptr ? name : "anonymous");
    return DispatchMetrics{metrics->GetCounter(base + ".calls"),
                           metrics->GetHistogram(base + ".call_ns")};
  };
  sm_metrics_.clear();
  for (SmId id = 0; id < registry_.num_storage_methods(); ++id) {
    sm_metrics_.push_back(resolve("sm", id, registry_.sm_ops(id).name));
  }
  at_metrics_.clear();
  for (AtId id = 0; id < registry_.num_attachment_types(); ++id) {
    at_metrics_.push_back(resolve("at", id, registry_.at_ops(id).name));
  }
  metric_vetoes_ = metrics->GetCounter("db.vetoes");
  metric_partial_rollbacks_ = metrics->GetCounter("db.partial_rollbacks");
  metric_parallel_partitions_ = metrics->GetCounter("parallel.partitions");
  metric_check_runs_ = metrics->GetCounter("check.runs");
  metric_check_failures_ = metrics->GetCounter("check.failures");
  metric_repair_runs_ = metrics->GetCounter("repair.runs");
  metric_repair_rebuilt_ = metrics->GetCounter("repair.rebuilt_instances");
  metric_quarantine_events_ = metrics->GetCounter("quarantine.events");
  metric_quarantine_save_failures_ =
      metrics->GetCounter("quarantine.save_failures");
}

template <typename Fn>
Status Database::Dispatch(ExtKind kind, uint32_t id, Fn&& call) {
  const bool sm = kind == ExtKind::kStorageMethod;
  (sm ? stats_.sm_calls : stats_.at_calls).Increment();
  const DispatchMetrics& metrics = (sm ? sm_metrics_ : at_metrics_)[id];
  metrics.calls->Increment();
  ScopedTimer timer(metrics.call_ns);
  return call();
}

ThreadPool* Database::thread_pool() {
  std::call_once(pool_once_, [this] {
    thread_pool_ = std::make_unique<ThreadPool>(worker_threads_);
  });
  return thread_pool_.get();
}

Status Database::PartitionScan(Transaction* txn,
                               const RelationDescriptor* desc,
                               const ScanSpec& spec, int target,
                               std::vector<ScanSpec>* partitions) {
  const SmOps& sm = registry_.sm_ops(desc->sm_id);
  if (sm.partition_scan == nullptr) {
    return Status::NotSupported("storage method cannot partition scans");
  }
  SmContext ctx;
  DMX_RETURN_IF_ERROR(MakeSmContext(txn, desc, &ctx));
  DMX_RETURN_IF_ERROR(Dispatch(ExtKind::kStorageMethod, desc->sm_id, [&] {
    return sm.partition_scan(ctx, spec, target, partitions);
  }));
  metric_parallel_partitions_->Increment(partitions->size());
  return Status::OK();
}

Status Database::Flush() {
  DMX_RETURN_IF_ERROR(log_.FlushAll());
  if (buffer_pool_) DMX_RETURN_IF_ERROR(buffer_pool_->FlushAll());
  return catalog_.Save();
}

Status Database::Checkpoint() {
  // A checkpoint while degraded would re-drive the failing write path (and
  // Truncate a log the recovery thread is mid-repair on).
  DMX_RETURN_IF_ERROR(error_handler_->CheckWritable());
  // Phase 1 — incremental: push out the bulk of the dirty state (WAL,
  // pages, catalog, storage-method snapshots) while writers keep running.
  // The group-commit log releases its mutex during the fsync, so
  // committers append and form their next batch behind this flush instead
  // of stalling on it.
  Status s = DoCheckpointFlush();
  if (!s.ok()) {
    // A checkpoint's own write failure is a write-path outage like any
    // other: degrade instead of leaving the next caller to trip over it.
    error_handler_->ReportWriteFailure("checkpoint", s);
    return s;
  }
  // Phase 2 — the only step that needs quiescence is the log truncation
  // (no record an active transaction might still undo may be discarded).
  // The phase-1 work is kept either way, so a Busy retry only has the
  // small delta accumulated since to flush.
  if (txn_mgr_->ActiveTransactionCount() > 0) {
    return Status::Busy("active transactions block the checkpoint");
  }
  s = DoCheckpoint();
  if (!s.ok()) error_handler_->ReportWriteFailure("checkpoint", s);
  return s;
}

Status Database::DoCheckpointFlush() {
  DMX_RETURN_IF_ERROR(log_.FlushAll());
  DMX_RETURN_IF_ERROR(buffer_pool_->FlushAll());
  DMX_RETURN_IF_ERROR(catalog_.Save());
  // Give every storage method a chance to snapshot state the buffer pool
  // does not cover (the mainmemory method writes its table image).
  for (RelationId rel : catalog_.AllRelationIds()) {
    const RelationDescriptor* desc = catalog_.Find(rel);
    if (desc == nullptr) continue;
    const SmOps& ops = registry_.sm_ops(desc->sm_id);
    if (ops.checkpoint == nullptr) continue;
    SmContext ctx;
    DMX_RETURN_IF_ERROR(MakeSmContext(nullptr, desc, &ctx));
    DMX_RETURN_IF_ERROR(ops.checkpoint(ctx));
  }
  return Status::OK();
}

Status Database::DoCheckpoint() {
  DMX_RETURN_IF_ERROR(DoCheckpointFlush());
  // With archiving on this seals the live log into a segment and reclaims
  // only the already-archived prefix (archive-before-truncate); without
  // archiving it is the plain truncation.
  return log_.CheckpointTruncate();
}

Status Database::FindRelation(const std::string& name,
                              const RelationDescriptor** desc) const {
  const RelationDescriptor* d = catalog_.Find(name);
  if (d == nullptr) {
    return Status::InvalidArgument("no relation named '" + name + "'");
  }
  *desc = d;
  return Status::OK();
}

Status Database::FindRelation(
    const std::string& name,
    std::shared_ptr<const RelationDescriptor>* desc) const {
  *desc = catalog_.Snapshot(name);
  if (*desc == nullptr) {
    return Status::InvalidArgument("no relation named '" + name + "'");
  }
  return Status::OK();
}

Database::RelationRuntime* Database::GetRuntime(RelationId id) {
  MutexLock lock(&runtime_mu_);
  auto it = runtimes_.find(id);
  if (it != runtimes_.end()) return it->second.get();
  auto rt = std::make_unique<RelationRuntime>();
  RelationRuntime* raw = rt.get();
  runtimes_[id] = std::move(rt);
  return raw;
}

void Database::InvalidateRuntime(RelationId id) {
  MutexLock lock(&runtime_mu_);
  runtimes_.erase(id);
}

void Database::InvalidateAttachmentRuntime(RelationId id) {
  RelationRuntime* rt;
  {
    MutexLock lock(&runtime_mu_);
    auto it = runtimes_.find(id);
    if (it == runtimes_.end()) return;
    rt = it->second.get();
  }
  // Not under runtime_mu_: an open in progress holds its slot's lock and
  // may take runtime_mu_ (re-entering MakeSmContext).
  for (ExtSlot& slot : rt->at) slot.Reset();
}

void Database::ExtSlot::Reset() {
  MutexLock lock(&open_mu_);
  state_.store(nullptr, std::memory_order_release);
  owned_.reset();
}

template <typename Ctx>
Status Database::ExtSlot::Get(
    Status (*open)(Ctx&, std::unique_ptr<ExtState>*), Ctx* ctx) {
  ctx->state = state_.load(std::memory_order_acquire);
  if (ctx->state != nullptr || open == nullptr) return Status::OK();
  MutexLock lock(&open_mu_);
  ctx->state = state_.load(std::memory_order_acquire);
  if (ctx->state != nullptr) return Status::OK();  // another user opened it
  DMX_RETURN_IF_ERROR(open(*ctx, &owned_));
  ctx->state = owned_.get();
  state_.store(ctx->state, std::memory_order_release);
  return Status::OK();
}

Status Database::MakeSmContext(Transaction* txn,
                               const RelationDescriptor* desc,
                               SmContext* ctx) {
  ctx->db = this;
  ctx->txn = txn;
  ctx->desc = desc;
  return GetRuntime(desc->id)->sm.Get(registry_.sm_ops(desc->sm_id).open,
                                      ctx);
}

Status Database::MakeAtContext(Transaction* txn,
                               const RelationDescriptor* desc, AtId at,
                               AtContext* ctx) {
  ctx->db = this;
  ctx->txn = txn;
  ctx->desc = desc;
  ctx->at_id = at;
  ctx->at_desc = Slice(desc->at_desc[at]);
  return GetRuntime(desc->id)->at[at].Get(registry_.at_ops(at).open, ctx);
}

Status Database::ApplyLogRecord(const LogRecord& rec, bool undo,
                                Lsn apply_lsn) {
  const RelationDescriptor* desc = catalog_.Find(rec.relation);
  if (desc == nullptr) return Status::OK();  // relation dropped since
  if (rec.ext_kind == ExtKind::kStorageMethod) {
    const SmOps& ops = registry_.sm_ops(rec.ext_id);
    SmContext ctx;
    DMX_RETURN_IF_ERROR(MakeSmContext(nullptr, desc, &ctx));
    return undo ? ops.undo(ctx, rec, apply_lsn)
                : ops.redo(ctx, rec, apply_lsn);
  }
  const AtOps& ops = registry_.at_ops(rec.ext_id);
  // An attachment without redo keeps nothing durable: restart neither
  // redoes nor undoes it, and its first touch afterwards builds its state
  // from the recovered base. Opening it here would scan a base that the
  // rest of redo and undo go on to change.
  if (restarting_ && ops.redo == nullptr) return Status::OK();
  AtContext ctx;
  DMX_RETURN_IF_ERROR(
      MakeAtContext(nullptr, desc, static_cast<AtId>(rec.ext_id), &ctx));
  if (undo) {
    return ops.undo ? ops.undo(ctx, rec, apply_lsn) : Status::OK();
  }
  return ops.redo ? ops.redo(ctx, rec, apply_lsn) : Status::OK();
}

// -- data definition -----------------------------------------------------------

Status Database::CreateRelation(Transaction* txn, const std::string& name,
                                const Schema& schema,
                                const std::string& sm_name,
                                const AttrList& attrs) {
  DMX_RETURN_IF_ERROR(CheckTxnWritable());
  int sm = registry_.FindStorageMethod(sm_name);
  if (sm < 0) {
    return Status::InvalidArgument("no storage method '" + sm_name + "'");
  }
  const SmOps& ops = registry_.sm_ops(static_cast<SmId>(sm));

  RelationDescriptor desc;
  desc.name = name;
  desc.schema = schema;
  desc.sm_id = static_cast<SmId>(sm);
  DMX_RETURN_IF_ERROR(ops.validate(schema, attrs, &desc.sm_desc));

  RelationId id;
  DMX_RETURN_IF_ERROR(catalog_.AddRelation(desc, &id));
  const RelationDescriptor* stored = catalog_.Find(id);

  DMX_RETURN_IF_ERROR(txn->LockRelation(id, LockMode::kX));

  // Build initial storage; the storage method may refine its descriptor
  // (e.g. record an allocated anchor page). The context carries no runtime
  // state yet — state can only be derived once the descriptor is final.
  SmContext ctx;
  ctx.db = this;
  ctx.txn = txn;
  ctx.desc = stored;
  ctx.state = nullptr;
  std::string sm_desc = stored->sm_desc;
  Status s = ops.create(ctx, &sm_desc);
  if (!s.ok()) {
    // Undo our own just-added entry; the create failure takes precedence.
    (void)catalog_.RemoveRelation(id, nullptr);
    InvalidateRuntime(id);
    return s;
  }
  RelationDescriptor updated = *stored;
  updated.sm_desc = sm_desc;
  DMX_RETURN_IF_ERROR(catalog_.UpdateRelation(updated));
  InvalidateRuntime(id);  // state derived from the old descriptor

  // Undoable DDL: abort destroys the storage and the catalog entry;
  // commit persists the catalog.
  txn->Defer(TxnEvent::kAbort, [this, id](Transaction* t) {
    const RelationDescriptor* d = catalog_.Find(id);
    if (d == nullptr) return Status::OK();
    const SmOps& sm_ops = registry_.sm_ops(d->sm_id);
    SmContext drop_ctx;
    Status st = MakeSmContext(t, d, &drop_ctx);
    if (st.ok() && sm_ops.drop != nullptr) st = sm_ops.drop(drop_ctx);
    // Undoing our own add: the entry is present, so this cannot fail in a
    // way the abort could act on.
    (void)catalog_.RemoveRelation(id, nullptr);
    InvalidateRuntime(id);
    return st;
  });
  txn->Defer(TxnEvent::kCommit,
             [this](Transaction*) { return catalog_.Save(); });
  return Status::OK();
}

Status Database::DropRelation(Transaction* txn, const std::string& name) {
  DMX_RETURN_IF_ERROR(CheckTxnWritable());
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(name, &desc));
  RelationId id = desc->id;
  DMX_RETURN_IF_ERROR(txn->LockRelation(id, LockMode::kX));
  RelationDescriptor saved;
  DMX_RETURN_IF_ERROR(catalog_.RemoveRelation(id, &saved));

  // "The actual release of the relation or access path state is deferred
  // until the transaction commits", making the drop undoable without
  // logging the relation's entire state.
  txn->Defer(TxnEvent::kCommit, [this, saved](Transaction* t) {
    // Release attachment storage first, then the relation storage.
    // A temporary descriptor is restored into the catalog so contexts can
    // be built, then finally removed.
    RelationDescriptor tmp = saved;
    tmp.name = "#dropping#" + std::to_string(saved.id);
    // Reuse the original id so runtime state and log records line up.
    Status st = catalog_.RestoreRelation(tmp);
    // First release failure; surfaced through Commit's deferred-action
    // status so a storage leak is never silent.
    Status release = Status::OK();
    if (st.ok()) {
      const RelationDescriptor* d = catalog_.Find(saved.id);
      for (AtId at = 0; at < registry_.num_attachment_types(); ++at) {
        if (!d->HasAttachment(at)) continue;
        Status rs = ReleaseInstance(t, d, at, kAllInstances, d->at_desc[at]);
        if (release.ok()) release = rs;
      }
      const SmOps& sops = registry_.sm_ops(d->sm_id);
      if (sops.drop != nullptr) {
        SmContext sctx;
        if (MakeSmContext(t, d, &sctx).ok()) {
          Status ds = sops.drop(sctx);
          if (release.ok()) release = ds;
        }
      }
      // Removing the #dropping# descriptor we just restored cannot fail
      // in a way the commit could act on.
      (void)catalog_.RemoveRelation(saved.id, nullptr);
    }
    auth_.Clear(saved.id);
    InvalidateRuntime(saved.id);
    Status save = catalog_.Save();
    return release.ok() ? save : release;
  });
  txn->Defer(TxnEvent::kAbort, [this, saved](Transaction*) {
    return catalog_.RestoreRelation(saved);
  });
  InvalidateRuntime(id);
  return Status::OK();
}

Status Database::CreateAttachment(Transaction* txn, const std::string& rel,
                                  const std::string& at_name,
                                  const AttrList& attrs,
                                  uint32_t* instance_no) {
  DMX_RETURN_IF_ERROR(CheckTxnWritable());
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  int found = registry_.FindAttachmentType(at_name);
  if (found < 0) {
    return Status::InvalidArgument("no attachment type '" + at_name + "'");
  }
  const AtId at = static_cast<AtId>(found);
  const AtOps& ops = registry_.at_ops(at);
  DMX_RETURN_IF_ERROR(txn->LockRelation(desc->id, LockMode::kX));

  AtContext ctx;
  DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
  std::string new_desc;
  uint32_t inst = 0;
  DMX_RETURN_IF_ERROR(ops.create_instance(ctx, attrs, &new_desc, &inst));
  if (instance_no != nullptr) *instance_no = inst;
  DMX_RETURN_IF_ERROR(SwapAttachmentDesc(txn, desc->id, at, desc->at_desc[at],
                                         new_desc, inst));
  txn->Defer(TxnEvent::kCommit,
             [this](Transaction*) { return catalog_.Save(); });
  return Status::OK();
}

Status Database::DropAttachment(Transaction* txn, const std::string& rel,
                                const std::string& at_name,
                                uint32_t instance_no) {
  DMX_RETURN_IF_ERROR(CheckTxnWritable());
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  int found = registry_.FindAttachmentType(at_name);
  if (found < 0) {
    return Status::InvalidArgument("no attachment type '" + at_name + "'");
  }
  const AtId at = static_cast<AtId>(found);
  if (!desc->HasAttachment(at)) {
    return Status::NotFound("no '" + at_name + "' attachment on " + rel);
  }
  const AtOps& ops = registry_.at_ops(at);
  DMX_RETURN_IF_ERROR(txn->LockRelation(desc->id, LockMode::kX));

  std::string old_desc = desc->at_desc[at];
  AtContext ctx;
  DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
  std::string new_desc;
  DMX_RETURN_IF_ERROR(ops.drop_instance(ctx, instance_no, &new_desc));
  const RelationId id = desc->id;
  DMX_RETURN_IF_ERROR(
      SwapAttachmentDesc(txn, id, at, old_desc, new_desc, std::nullopt));

  // Deferred release at commit, handed the *pre-drop* descriptor so it can
  // locate the dropped instance's storage. Dropping a quarantined instance
  // is a remediation path: the walk may trip over the damage itself, and
  // the drop must still commit — a failed release only leaks pages.
  txn->Defer(TxnEvent::kCommit,
             [this, id, at, instance_no, old_desc](Transaction* t) {
               const RelationDescriptor* d = catalog_.Find(id);
               if (d != nullptr) {
                 // Leak-only on failure (see above).
                 (void)ReleaseInstance(t, d, at, instance_no, old_desc);
               }
               return catalog_.Save();
             });
  return Status::OK();
}

Status Database::SwapAttachmentDesc(Transaction* txn, RelationId id, AtId at,
                                    std::string old_desc,
                                    std::string new_desc,
                                    std::optional<uint32_t> fresh,
                                    std::optional<std::string> lifted) {
  DMX_RETURN_IF_ERROR(catalog_.MutateRelation(id, [&](RelationDescriptor& d) {
    d.at_desc[at] = new_desc;
    if (lifted) d.ClearQuarantine(at, *fresh);
    return true;
  }));
  InvalidateAttachmentRuntime(id);
  txn->Defer(TxnEvent::kAbort, [this, id, at, old_desc = std::move(old_desc),
                                new_desc = std::move(new_desc), fresh,
                                lifted = std::move(lifted)](Transaction* t) {
    const RelationDescriptor* d = catalog_.Find(id);
    if (d == nullptr) return Status::OK();
    // Abort-path cleanup: the new storage was never published, so a failed
    // release only leaks it.
    if (fresh) (void)ReleaseInstance(t, d, at, *fresh, new_desc);
    Status st = catalog_.MutateRelation(id, [&](RelationDescriptor& r) {
      r.at_desc[at] = old_desc;
      if (lifted) r.Quarantine(at, *fresh, *lifted);
      return true;
    });
    InvalidateAttachmentRuntime(id);
    return st;
  });
  return Status::OK();
}

Status Database::ReleaseInstance(Transaction* txn,
                                 const RelationDescriptor* desc, AtId at,
                                 uint32_t instance,
                                 const std::string& at_desc) {
  const AtOps& ops = registry_.at_ops(at);
  AtContext ctx;
  if (ops.release_instance == nullptr ||
      !MakeAtContext(txn, desc, at, &ctx).ok()) {
    return Status::OK();
  }
  ctx.at_desc = Slice(at_desc);
  return ops.release_instance(ctx, instance);
}

Status Database::ChangeStorageMethod(Transaction* txn,
                                     const std::string& rel,
                                     const std::string& new_sm,
                                     const AttrList& attrs) {
  const RelationDescriptor* old_desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &old_desc));
  const std::string tmp_name = "#migrate#" + rel;
  DMX_RETURN_IF_ERROR(
      CreateRelation(txn, tmp_name, old_desc->schema, new_sm, attrs));
  const RelationDescriptor* new_desc;
  DMX_RETURN_IF_ERROR(FindRelation(tmp_name, &new_desc));

  // Copy every record through the generic interfaces.
  {
    std::unique_ptr<Scan> scan;
    DMX_RETURN_IF_ERROR(OpenScanOn(txn, old_desc,
                                   AccessPathId::StorageMethod(), ScanSpec{},
                                   &scan));
    ScanItem item;
    while (true) {
      Status s = scan->Next(&item);
      if (s.IsNotFound()) break;
      DMX_RETURN_IF_ERROR(s);
      std::string key;
      DMX_RETURN_IF_ERROR(
          InsertRecord(txn, new_desc, item.view.raw(), &key));
    }
  }

  // Swap: drop the old relation (deferred release; abort restores it),
  // then take over its name. On abort the rename reverts harmlessly: the
  // new relation is destroyed by CreateRelation's abort action, which runs
  // first (deferred actions execute in enqueue order).
  DMX_RETURN_IF_ERROR(DropRelation(txn, rel));
  RelationId new_id = new_desc->id;
  DMX_RETURN_IF_ERROR(catalog_.RenameRelation(new_id, rel));
  InvalidateAttachmentRuntime(new_id);
  txn->Defer(TxnEvent::kCommit,
             [this](Transaction*) { return catalog_.Save(); });
  return Status::OK();
}

// -- relation modification -------------------------------------------------------

Status Database::Insert(Transaction* txn, const std::string& rel,
                        const std::vector<Value>& values,
                        std::string* record_key) {
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  Record rec;
  DMX_RETURN_IF_ERROR(Record::Encode(desc->schema, values, &rec));
  return InsertRecord(txn, desc, rec.slice(), record_key);
}

Status Database::InsertRecord(Transaction* txn,
                              const RelationDescriptor* desc,
                              const Slice& record, std::string* record_key) {
  return ModifyRecord(txn, desc, Privilege::kInsert, Slice(), record,
                      record_key);
}

Status Database::Update(Transaction* txn, const std::string& rel,
                        const Slice& record_key,
                        const std::vector<Value>& new_values,
                        std::string* new_key) {
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  Record rec;
  DMX_RETURN_IF_ERROR(Record::Encode(desc->schema, new_values, &rec));
  return UpdateRecord(txn, desc, record_key, rec.slice(), new_key);
}

Status Database::UpdateRecord(Transaction* txn,
                              const RelationDescriptor* desc,
                              const Slice& record_key,
                              const Slice& new_record, std::string* new_key) {
  return ModifyRecord(txn, desc, Privilege::kUpdate, record_key, new_record,
                      new_key);
}

Status Database::Delete(Transaction* txn, const std::string& rel,
                        const Slice& record_key) {
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  return DeleteRecord(txn, desc, record_key);
}

Status Database::DeleteRecord(Transaction* txn,
                              const RelationDescriptor* desc,
                              const Slice& record_key) {
  return ModifyRecord(txn, desc, Privilege::kDelete, record_key, Slice(),
                      nullptr);
}

Status Database::ModifyRecord(Transaction* txn,
                              const RelationDescriptor* desc, Privilege op,
                              const Slice& old_key, const Slice& new_record,
                              std::string* new_key) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  DMX_RETURN_IF_ERROR(CheckTxnWritable());
  DMX_RETURN_IF_ERROR(CheckWritable(desc));
  DMX_RETURN_IF_ERROR(auth_.Check(txn->user(), desc->id, op));
  const bool insert = op == Privilege::kInsert;
  DMX_RETURN_IF_ERROR(insert
                          ? txn->LockRelation(desc->id, LockMode::kIX)
                          : txn->LockRecord(desc->id, old_key, LockMode::kX));
  DMX_RETURN_IF_ERROR(EnsureAttachmentStates(txn, desc));

  const SmOps& sm = registry_.sm_ops(desc->sm_id);
  SmContext ctx;
  DMX_RETURN_IF_ERROR(MakeSmContext(txn, desc, &ctx));
  // The old record value is needed by the attached procedures.
  std::string old_record;
  if (!insert) {
    DMX_RETURN_IF_ERROR(Dispatch(ExtKind::kStorageMethod, desc->sm_id, [&] {
      return sm.fetch(ctx, old_key, &old_record);
    }));
  }
  const Lsn before = txn->last_lsn();

  // Step 1: storage method, via the procedure vectors.
  std::string key;
  Status s = Dispatch(ExtKind::kStorageMethod, desc->sm_id, [&] {
    if (insert) return sm.insert(ctx, new_record, &key);
    if (op == Privilege::kUpdate) {
      return sm.update(ctx, old_key, Slice(old_record), new_record, &key);
    }
    return sm.erase(ctx, old_key, Slice(old_record));
  });
  // The record's new key, an insert's or an update's that moved it.
  if (s.ok() && op != Privilege::kDelete && (insert || Slice(key) != old_key)) {
    s = txn->LockRecord(desc->id, Slice(key), LockMode::kX);
  }
  // Step 2: attached procedures (once per attachment type with instances).
  if (s.ok()) {
    if (insert) {
      s = NotifyAttachments(txn, desc, &AtOps::on_insert, Slice(key),
                            new_record);
    } else if (op == Privilege::kUpdate) {
      s = NotifyAttachments(txn, desc, &AtOps::on_update, old_key,
                            Slice(key), Slice(old_record), new_record);
    } else {
      s = NotifyAttachments(txn, desc, &AtOps::on_delete, old_key,
                            Slice(old_record));
    }
  }
  if (!s.ok()) {
    // Veto or failure: common log drives undo of the partial effects.
    if (s.IsVeto()) {
      stats_.vetoes.Increment();
      metric_vetoes_->Increment();
    }
    stats_.partial_rollbacks.Increment();
    metric_partial_rollbacks_->Increment();
    MaybeReportWriteFailure(insert                     ? "relation insert"
                            : op == Privilege::kUpdate ? "relation update"
                                                       : "relation delete",
                            s);
    Status rb = txn_mgr_->RollbackTo(txn, before);
    return rb.ok() ? s : rb;
  }
  if (new_key != nullptr) *new_key = std::move(key);
  return Status::OK();
}

Status Database::EnsureAttachmentStates(Transaction* txn,
                                        const RelationDescriptor* desc) {
  for (AtId at = 0; at < registry_.num_attachment_types(); ++at) {
    if (!desc->HasAttachment(at)) continue;
    AtContext ctx;
    DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
  }
  return Status::OK();
}

template <typename Hook, typename... Args>
Status Database::NotifyAttachments(Transaction* txn,
                                   const RelationDescriptor* desc,
                                   Hook AtOps::*hook, const Args&... args) {
  // "The relation descriptor is consulted to determine which attachment
  // types have instances on the relation and must, therefore, be notified
  // of the relation modification." Each type is invoked at most once and
  // services all of its instances.
  for (AtId at = 0; at < registry_.num_attachment_types(); ++at) {
    if (!desc->HasAttachment(at)) continue;
    const AtOps& ops = registry_.at_ops(at);
    AtContext ctx;
    DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
    if (ops.*hook == nullptr) continue;
    DMX_RETURN_IF_ERROR(Dispatch(ExtKind::kAttachment, at,
                                 [&] { return (ops.*hook)(ctx, args...); }));
  }
  return Status::OK();
}

// -- data access ------------------------------------------------------------------

Status Database::Fetch(Transaction* txn, const std::string& rel,
                       const Slice& record_key, Record* out) {
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  std::string rec;
  DMX_RETURN_IF_ERROR(FetchRecord(txn, desc, record_key, &rec));
  *out = Record(std::move(rec));
  return Status::OK();
}

Status Database::FetchRecord(Transaction* txn,
                             const RelationDescriptor* desc,
                             const Slice& record_key, std::string* record) {
  DMX_RETURN_IF_ERROR(auth_.Check(txn->user(), desc->id, Privilege::kSelect));
  DMX_RETURN_IF_ERROR(txn->LockRecord(desc->id, record_key, LockMode::kS));
  const SmOps& sm = registry_.sm_ops(desc->sm_id);
  SmContext ctx;
  DMX_RETURN_IF_ERROR(MakeSmContext(txn, desc, &ctx));
  return Dispatch(ExtKind::kStorageMethod, desc->sm_id,
                  [&] { return sm.fetch(ctx, record_key, record); });
}

Status Database::OpenScan(Transaction* txn, const std::string& rel,
                          const AccessPathId& path, const ScanSpec& spec,
                          std::unique_ptr<Scan>* out) {
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  return OpenScanOn(txn, desc, path, spec, out);
}

Status Database::OpenScanOn(Transaction* txn, const RelationDescriptor* desc,
                            const AccessPathId& path, const ScanSpec& spec,
                            std::unique_ptr<Scan>* out) {
  DMX_RETURN_IF_ERROR(auth_.Check(txn->user(), desc->id, Privilege::kSelect));
  DMX_RETURN_IF_ERROR(txn->LockRelation(desc->id, LockMode::kS));
  std::unique_ptr<Scan> inner;
  if (path.is_storage_method()) {
    const SmOps& sm = registry_.sm_ops(desc->sm_id);
    SmContext ctx;
    DMX_RETURN_IF_ERROR(MakeSmContext(txn, desc, &ctx));
    DMX_RETURN_IF_ERROR(Dispatch(ExtKind::kStorageMethod, desc->sm_id, [&] {
      return sm.open_scan(ctx, spec, &inner);
    }));
  } else {
    DMX_RETURN_IF_ERROR(AccessAttachment(txn, desc, path, &AtOps::open_scan,
                                         "attachment is not an access path",
                                         spec, &inner));
  }
  *out = std::make_unique<ManagedScan>(&scan_mgr_, txn, std::move(inner));
  return Status::OK();
}

Status Database::Lookup(Transaction* txn, const std::string& rel,
                        const AccessPathId& path, const Slice& key,
                        std::vector<std::string>* record_keys) {
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  return LookupOn(txn, desc, path, key, record_keys);
}

Status Database::LookupOn(Transaction* txn, const RelationDescriptor* desc,
                          const AccessPathId& path, const Slice& key,
                          std::vector<std::string>* record_keys) {
  DMX_RETURN_IF_ERROR(auth_.Check(txn->user(), desc->id, Privilege::kSelect));
  if (path.is_storage_method()) {
    return Status::InvalidArgument("Lookup requires an access path");
  }
  DMX_RETURN_IF_ERROR(txn->LockRelation(desc->id, LockMode::kIS));
  return AccessAttachment(txn, desc, path, &AtOps::lookup,
                          "attachment has no direct-by-key access", key,
                          record_keys);
}

template <typename Entry, typename... Args>
Status Database::AccessAttachment(Transaction* txn,
                                  const RelationDescriptor* desc,
                                  const AccessPathId& path,
                                  Entry AtOps::*entry, const char* missing,
                                  const Args&... args) {
  AtId at = path.at_id();
  if (at >= registry_.num_attachment_types() || !desc->HasAttachment(at)) {
    return Status::InvalidArgument("no such access path");
  }
  const AtOps& ops = registry_.at_ops(at);
  if (ops.*entry == nullptr) return Status::NotSupported(missing);
  // The planner already skips quarantined paths; a direct probe must be
  // refused the same way, or a damaged-but-readable structure that fell
  // behind its base relation would answer with stale rows and OK.
  if (desc->IsQuarantined(at, path.instance)) {
    return Status::Corruption(
        "access path " + ComponentName(ops, path.instance) + " on '" +
        desc->name + "' is quarantined; run REPAIR " + desc->name +
        " to rebuild it");
  }
  AtContext ctx;
  DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
  Status s = Dispatch(ExtKind::kAttachment, at, [&] {
    return (ops.*entry)(ctx, path.instance, args...);
  });
  if (s.IsCorruption()) {
    QuarantineOnAccess(desc, at, path.instance, s.ToString());
  }
  return s;
}

Status Database::EstimateCost(Transaction* txn,
                              const RelationDescriptor* desc,
                              const AccessPathId& path,
                              const std::vector<ExprPtr>& predicates,
                              AccessCost* out) {
  if (path.is_storage_method()) {
    const SmOps& sm = registry_.sm_ops(desc->sm_id);
    SmContext ctx;
    DMX_RETURN_IF_ERROR(MakeSmContext(txn, desc, &ctx));
    if (sm.cost == nullptr) {
      return Status::NotSupported("storage method has no cost estimator");
    }
    return sm.cost(ctx, predicates, out);
  }
  AtId at = path.at_id();
  if (at >= registry_.num_attachment_types() || !desc->HasAttachment(at)) {
    out->usable = false;
    return Status::OK();
  }
  const AtOps& ops = registry_.at_ops(at);
  if (ops.cost == nullptr) {
    out->usable = false;
    return Status::OK();
  }
  AtContext ctx;
  DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
  return ops.cost(ctx, path.instance, predicates, out);
}

Status Database::CountRecords(Transaction* txn,
                              const RelationDescriptor* desc,
                              uint64_t* count) {
  const SmOps& sm = registry_.sm_ops(desc->sm_id);
  if (sm.count == nullptr) {
    *count = 0;
    return Status::OK();
  }
  SmContext ctx;
  DMX_RETURN_IF_ERROR(MakeSmContext(txn, desc, &ctx));
  return sm.count(ctx, count);
}

// -- corruption containment ------------------------------------------------------

Status Database::CheckWritable(const RelationDescriptor* desc) {
  if (!desc->AnyQuarantined()) return Status::OK();
  if (desc->sm_quarantined) {
    return Status::Corruption(
        "relation '" + desc->name + "' storage is quarantined (" +
        desc->sm_quarantine_reason + "); writes refused until REPAIR " +
        desc->name + " succeeds");
  }
  for (const RelationDescriptor::QuarantineEntry& q : desc->quarantined) {
    AtId at = static_cast<AtId>(q.at);
    if (at >= registry_.num_attachment_types()) continue;
    if (!desc->HasAttachment(at)) continue;
    const AtOps& ops = registry_.at_ops(at);
    if (ops.guards_integrity == nullptr ||
        !ops.guards_integrity(Slice(desc->at_desc[at]), q.instance)) {
      continue;  // plain index/stats: maintenance skips it; writes proceed
    }
    return Status::Corruption(
        "relation '" + desc->name + "' has quarantined integrity guard " +
        ComponentName(ops, q.instance) + " (" + q.reason +
        "); writes refused until REPAIR " + desc->name + " succeeds");
  }
  return Status::OK();
}

// -- graceful degradation --------------------------------------------------------

Status Database::CheckTxnWritable() const {
  // A poisoned log refuses every append; say so with the original cause —
  // more specific than the generic degraded-mode Busy below.
  DMX_RETURN_IF_ERROR(log_.PoisonStatus());
  // Degraded read-only mode: new write work is refused with Busy while
  // reads keep serving.
  return error_handler_->CheckWritable();
}

void Database::MaybeReportWriteFailure(const char* where, const Status& s) {
  // Only a retry-exhausted transient fault proves the *local* environment
  // is the problem. A plain IOError may come from anywhere — notably a
  // foreign server attachment — and must stay scoped to the operation.
  if (s.IsIOError() && s.IsRetryable()) {
    error_handler_->ReportWriteFailure(where, s);
  }
}

Status Database::RecoverWritePath() {
  // Un-poison / probe the log in place (header rewrite or stale-tail
  // truncation as needed), then prove the write path works end to end by
  // forcing out everything still buffered.
  DMX_RETURN_IF_ERROR(log_.Resume());
  DMX_RETURN_IF_ERROR(log_.FlushAll());
  if (archiver_) {
    // If the degradation came from an unreachable archive, recovery is not
    // done until the sealed-segment backlog has actually landed there.
    DMX_RETURN_IF_ERROR(archiver_->ArchivePending());
    archiver_->Kick();  // un-park the background loop
  }
  return Status::OK();
}

Status Database::PersistQuarantineRecord() {
  Status save = catalog_.Save();
  if (save.ok()) {
    quarantine_save_pending_.store(false, std::memory_order_relaxed);
    return save;
  }
  metric_quarantine_save_failures_->Increment();
  quarantine_save_pending_.store(true, std::memory_order_relaxed);
  return save;
}

void Database::QuarantineOnAccess(const RelationDescriptor* desc, AtId at,
                                  uint32_t instance,
                                  const std::string& reason) {
  // Callers hold only a shared relation lock, so the descriptor is flipped
  // through the catalog's copy-on-write mutate: concurrent scans keep
  // reading their (now retired) snapshot, and concurrent quarantines merge
  // instead of overwriting each other.
  bool added = false;
  Status us = catalog_.MutateRelation(
      desc->id, [&](RelationDescriptor& d) {
        if (d.IsQuarantined(at, instance)) return false;
        d.Quarantine(at, instance, reason);
        added = true;
        return true;
      });
  if (!us.ok()) return;
  if (added) metric_quarantine_events_->Increment();
  // A maintenance action, persisted immediately — if the process dies the
  // damage record must survive so the planner keeps avoiding the path.
  if (added || quarantine_save_pending_.load(std::memory_order_relaxed)) {
    PersistQuarantineRecord().ok();
  }
}

Status Database::CheckRelation(Transaction* txn, const std::string& rel,
                               CheckResult* out) {
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  DMX_RETURN_IF_ERROR(auth_.Check(txn->user(), desc->id, Privilege::kSelect));
  DMX_RETURN_IF_ERROR(txn->LockRelation(desc->id, LockMode::kS));
  metric_check_runs_->Increment();
  out->clean = true;
  out->items = 0;
  out->findings.clear();
  out->quarantined.clear();
  out->cleared.clear();

  // CHECK runs under a shared lock, so concurrent readers may hold
  // pointers into the live descriptor and a concurrent access may
  // quarantine a path mid-sweep. Decisions are therefore buffered against
  // the snapshot and applied at the end through the catalog's atomic
  // copy-on-write mutate, which merges with concurrently-recorded entries
  // instead of overwriting them.
  struct PendingOp {
    bool storage;  // storage-method flag vs. attachment entry
    bool set;      // quarantine vs. clear
    AtId at;
    uint32_t instance;
    std::string reason;
  };
  std::vector<PendingOp> pending;
  // One verify outcome: its findings, and a quarantine to record for a
  // component that failed or to lift for one that verified consistent
  // again (repair finished, or the damage record was stale).
  auto record = [&](const std::string& component, const Status& vs,
                    const VerifyReport& report, bool storage, AtId at,
                    uint32_t inst, bool quarantined) {
    if (!vs.ok()) {
      out->findings.push_back(
          {component, "verify could not run: " + vs.ToString()});
      return;
    }
    out->items += report.items;
    for (const std::string& p : report.problems) {
      out->findings.push_back({component, p});
    }
    if (report.clean() != quarantined) return;
    if (quarantined) {
      out->cleared.push_back(component);
      pending.push_back({storage, false, at, inst, ""});
      return;
    }
    metric_quarantine_events_->Increment();
    out->quarantined.push_back(component);
    pending.push_back({storage, true, at, inst, report.problems.front()});
  };

  // Storage-method structural sweep.
  const SmOps& sm = registry_.sm_ops(desc->sm_id);
  if (sm.verify != nullptr) {
    SmContext ctx;
    DMX_RETURN_IF_ERROR(MakeSmContext(txn, desc, &ctx));
    VerifyReport report;
    Status vs = Dispatch(ExtKind::kStorageMethod, desc->sm_id,
                         [&] { return sm.verify(ctx, &report); });
    record("storage", vs, report, /*storage=*/true, 0, 0,
           desc->sm_quarantined);
  }

  // Per-attachment, per-instance cross-checks.
  for (AtId at = 0; at < registry_.num_attachment_types(); ++at) {
    if (!desc->HasAttachment(at)) continue;
    const AtOps& ops = registry_.at_ops(at);
    if (ops.verify == nullptr) continue;
    std::vector<uint32_t> instances;
    if (ops.list_instances != nullptr) {
      Status ls = ops.list_instances(Slice(desc->at_desc[at]), &instances);
      if (!ls.ok()) {
        out->findings.push_back(
            {std::string(ops.name != nullptr ? ops.name : "attachment"),
             "cannot enumerate instances: " + ls.ToString()});
        continue;
      }
    } else if (ops.instance_count != nullptr &&
               ops.instance_count(Slice(desc->at_desc[at])) == 0) {
      continue;
    } else {
      instances.push_back(kAllInstances);
    }
    AtContext ctx;
    DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
    for (uint32_t inst : instances) {
      VerifyReport report;
      Status vs = Dispatch(ExtKind::kAttachment, at,
                           [&] { return ops.verify(ctx, inst, &report); });
      record(ComponentName(ops, inst), vs, report, /*storage=*/false, at,
             inst, desc->IsQuarantined(at, inst));
    }
  }

  out->clean = out->findings.empty();
  if (!out->clean) metric_check_failures_->Increment();

  bool changed = false;
  DMX_RETURN_IF_ERROR(catalog_.MutateRelation(
      desc->id, [&](RelationDescriptor& d) {
        for (const PendingOp& op : pending) {
          if (op.storage) {
            if (op.set == d.sm_quarantined) continue;
            d.sm_quarantined = op.set;
            d.sm_quarantine_reason = op.reason;
            changed = true;
          } else if (op.set) {
            if (d.IsQuarantined(op.at, op.instance)) continue;
            d.Quarantine(op.at, op.instance, op.reason);
            changed = true;
          } else if (d.IsQuarantined(op.at, op.instance)) {
            d.ClearQuarantine(op.at, op.instance);
            changed = true;
          }
        }
        // Drop damage records whose attachment type/instances no longer
        // exist.
        for (size_t i = d.quarantined.size(); i-- > 0;) {
          AtId qat = static_cast<AtId>(d.quarantined[i].at);
          if (qat >= registry_.num_attachment_types() ||
              !d.HasAttachment(qat)) {
            d.quarantined.erase(d.quarantined.begin() +
                                static_cast<ptrdiff_t>(i));
            changed = true;
          }
        }
        return changed;
      }));
  if (changed) {
    // Quarantine is a maintenance action, not transactional state: persist
    // immediately so a crash cannot lose the damage record.
    DMX_RETURN_IF_ERROR(PersistQuarantineRecord());
  } else if (quarantine_save_pending_.load(std::memory_order_relaxed)) {
    PersistQuarantineRecord().ok();  // retry an earlier failed save
  }
  return Status::OK();
}

Status Database::RepairRelation(Transaction* txn, const std::string& rel,
                                RepairResult* out) {
  DMX_RETURN_IF_ERROR(CheckTxnWritable());
  const RelationDescriptor* desc;
  DMX_RETURN_IF_ERROR(FindRelation(rel, &desc));
  DMX_RETURN_IF_ERROR(auth_.Check(txn->user(), desc->id, Privilege::kUpdate));
  DMX_RETURN_IF_ERROR(txn->LockRelation(desc->id, LockMode::kX));
  metric_repair_runs_->Increment();
  out->repaired.clear();
  out->unrepaired.clear();
  const RelationId id = desc->id;

  // Base storage: there is no redundant copy to rebuild from; re-verify
  // and lift the quarantine only if the sweep now comes back clean.
  if (desc->sm_quarantined) {
    const SmOps& sm = registry_.sm_ops(desc->sm_id);
    VerifyReport report;
    Status vs = Status::NotSupported("storage method has no verify");
    if (sm.verify != nullptr) {
      SmContext ctx;
      DMX_RETURN_IF_ERROR(MakeSmContext(txn, desc, &ctx));
      vs = sm.verify(ctx, &report);
    }
    if (vs.ok() && report.clean()) {
      DMX_RETURN_IF_ERROR(LiftQuarantine(txn, id, /*storage=*/true,
                                         {0, 0, desc->sm_quarantine_reason}));
      out->repaired.push_back("storage");
    } else {
      out->unrepaired.push_back(
          "storage: base relation storage cannot be rebuilt from itself; "
          "restore from backup");
    }
  }

  // Quarantined attachment instances: rebuild each from the base relation.
  const std::vector<RelationDescriptor::QuarantineEntry> targets =
      desc->quarantined;
  for (const RelationDescriptor::QuarantineEntry& q : targets) {
    const AtId at = static_cast<AtId>(q.at);
    const uint32_t inst = q.instance;
    // Catalog mutations retire the previous descriptor object; re-fetch
    // the live one so this entry sees any swap an earlier iteration made.
    desc = catalog_.Find(id);
    if (desc == nullptr) break;
    if (at >= registry_.num_attachment_types() || !desc->HasAttachment(at)) {
      // The damaged instance is gone; nothing left to repair.
      DMX_RETURN_IF_ERROR(LiftQuarantine(txn, id, /*storage=*/false, q));
      out->repaired.push_back("attachment " + std::to_string(q.at) + "#" +
                              std::to_string(inst) + " (dropped)");
      continue;
    }
    const AtOps& ops = registry_.at_ops(at);
    const std::string component = ComponentName(ops, inst);

    if (ops.repair_instance != nullptr) {
      // Persistent storage: build a fresh structure off the base relation.
      // The old storage stays untouched until commit, so an abort (or a
      // crash before the deferred catalog save) recovers to the old, still
      // quarantined state and REPAIR can simply run again.
      const std::string old_desc = desc->at_desc[at];
      AtContext ctx;
      DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
      std::string new_desc;
      Status rs = Dispatch(ExtKind::kAttachment, at, [&] {
        return ops.repair_instance(ctx, inst, &new_desc);
      });
      if (!rs.ok()) {
        out->unrepaired.push_back(component + ": rebuild failed: " +
                                  rs.ToString());
        continue;
      }
      DMX_RETURN_IF_ERROR(
          SwapAttachmentDesc(txn, id, at, old_desc, new_desc, inst, q.reason));
      metric_repair_rebuilt_->Increment();
      out->repaired.push_back(component);
      txn->Defer(TxnEvent::kCommit,
                 [this, id, at, inst, old_desc](Transaction* t) {
                   // The rebuilt structure's pages are not WAL-logged;
                   // flush them (and sync), then durably publish the new
                   // anchor, and only then free the old storage. A crash
                   // before the save recovers to the old, still-
                   // quarantined descriptor with its pages intact; a
                   // crash after the save merely leaks the old pages. The
                   // old storage must never be freed before the save: the
                   // flushed frees would outlive a crash whose recovery
                   // still points at them, double-freeing on the next
                   // release.
                   DMX_RETURN_IF_ERROR(buffer_pool_->FlushAll());
                   DMX_RETURN_IF_ERROR(catalog_.Save());
                   const RelationDescriptor* d = catalog_.Find(id);
                   if (d != nullptr) {
                     // Hand the release the *pre-repair* descriptor so it
                     // can locate the damaged storage. The walk may trip
                     // over the very corruption being repaired; the
                     // rebuild is already durably published, so a failed
                     // release only leaks the damaged pages.
                     (void)ReleaseInstance(t, d, at, inst, old_desc);
                   }
                   // Make the frees durable too; losing them in a crash
                   // only leaks pages.
                   return buffer_pool_->FlushAll();
                 });
    } else {
      // Purely derived in-memory state: drop the runtime and reopen (open
      // re-primes from the base relation), then demand a clean re-verify.
      InvalidateAttachmentRuntime(id);
      AtContext ctx;
      DMX_RETURN_IF_ERROR(MakeAtContext(txn, desc, at, &ctx));
      VerifyReport report;
      Status vs = ops.verify != nullptr
                      ? ops.verify(ctx, inst, &report)
                      : Status::NotSupported("no verify procedure");
      if (vs.ok() && report.clean()) {
        DMX_RETURN_IF_ERROR(LiftQuarantine(txn, id, /*storage=*/false, q));
        out->repaired.push_back(component);
      } else if (!vs.ok()) {
        out->unrepaired.push_back(component + ": " + vs.ToString());
      } else {
        out->unrepaired.push_back(component +
                                  ": still inconsistent after rebuild: " +
                                  report.problems.front());
      }
    }
  }
  return Status::OK();
}

Status Database::LiftQuarantine(Transaction* txn, RelationId id,
                                bool storage,
                                RelationDescriptor::QuarantineEntry q) {
  const AtId at = static_cast<AtId>(q.at);
  DMX_RETURN_IF_ERROR(catalog_.MutateRelation(id, [&](RelationDescriptor& d) {
    if (storage) {
      d.sm_quarantined = false;
      d.sm_quarantine_reason.clear();
    } else {
      d.ClearQuarantine(at, q.instance);
    }
    return true;
  }));
  txn->Defer(TxnEvent::kCommit,
             [this](Transaction*) { return catalog_.Save(); });
  // A rollback must resurrect the damage record, or the in-memory catalog
  // would say clean while the durable one still says quarantined — and the
  // quarantine would silently return on restart.
  txn->Defer(TxnEvent::kAbort, [this, id, storage, at,
                                q = std::move(q)](Transaction*) {
    Status st = catalog_.MutateRelation(id, [&](RelationDescriptor& d) {
      if (storage ? d.sm_quarantined : d.IsQuarantined(at, q.instance)) {
        return false;
      }
      if (storage) {
        d.sm_quarantined = true;
        d.sm_quarantine_reason = q.reason;
      } else {
        d.Quarantine(at, q.instance, q.reason);
      }
      return true;
    });
    // A re-primed derived state may reflect rolled-back data; drop it so
    // the next open re-derives.
    if (!storage) InvalidateAttachmentRuntime(id);
    return st;
  });
  return Status::OK();
}

}  // namespace dmx
