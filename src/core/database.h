// Database: the data management facility — the paper's central dispatcher
// plus the common services environment (log, locks, buffer pool, catalog,
// predicate evaluation, scan coordination, deferred actions).
//
// Relation modifications execute in the paper's two steps: (1) the storage
// method routine, selected through the storage-method procedure vectors by
// the identifier in the relation descriptor header; (2) the attached
// procedures of every attachment type with instances on the relation,
// selected through the attachment procedure vectors by descriptor field
// presence. Any step may veto; the common log then drives the partial
// rollback of the already-executed effects.

#ifndef DMX_CORE_DATABASE_H_
#define DMX_CORE_DATABASE_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/core/authorization.h"
#include "src/core/error_handler.h"
#include "src/core/extension.h"
#include "src/core/registry.h"
#include "src/core/scan_manager.h"
#include "src/expr/evaluator.h"
#include "src/storage/buffer_pool.h"
#include "src/txn/transaction_manager.h"
#include "src/util/env_retry.h"
#include "src/wal/log_manager.h"

namespace dmx {

class ThreadPool;
class WalArchiver;

/// Commit-durability contract. kStrict: COMMIT returns only after the
/// commit record is fsynced (shared with concurrent committers via group
/// commit). kRelaxed: COMMIT returns at WAL-append; a background group
/// flusher makes it durable within ~group_flush_interval_us, and a crash
/// inside that window loses the commit. Overridable per session with
/// `SET DURABILITY { STRICT | RELAXED }`.
enum class Durability : uint8_t { kStrict = 0, kRelaxed = 1 };

struct DatabaseOptions {
  /// Directory holding db.pages, wal, and catalog files. Created if absent.
  std::string dir;
  size_t buffer_pool_pages = 256;
  /// Worker threads available for intra-query parallel scans (the shared
  /// ThreadPool, created lazily on first parallel scan). 0 = hardware
  /// concurrency. 1 disables parallelism entirely.
  size_t worker_threads = 0;
  /// Environment for all file I/O (Env::Default() when null). Not owned;
  /// must outlive the Database. Tests plug in a FaultInjectionEnv here.
  Env* env = nullptr;
  /// How long a lock request waits before giving up with Busy. The timeout
  /// message names the first conflicting holder's transaction id.
  uint64_t lock_timeout_ms = 2000;
  /// Hook to register user extensions "at the factory" — runs after the
  /// built-ins are registered and before restart recovery, so recovery can
  /// dispatch into them.
  std::function<void(ExtensionRegistry*)> register_extensions;
  /// Bounded retry for transient I/O failures (ENOSPC bursts, injected
  /// transient faults) at the Env layer; options.env is wrapped in a
  /// RetryingEnv with this many total attempts. 1 disables retrying.
  int io_retry_attempts = 4;
  /// Backoff schedule of the background auto-recovery thread while the
  /// database is degraded (doubles per failed attempt). Tests shrink these
  /// to keep the degrade → recover cycle fast.
  uint64_t recovery_initial_backoff_ms = 10;
  uint64_t recovery_max_backoff_ms = 1000;
  /// When false, no background recovery thread is started: the database
  /// stays degraded until reopened. Benches and unit tests use this to
  /// hold the degraded state steady.
  bool auto_recovery = true;
  /// Default commit-durability contract for new transactions. Strict
  /// commits always use group commit: concurrent committers share one
  /// fsync, and batches form from fsync latency alone (no timer).
  Durability durability = Durability::kStrict;
  /// Cadence of the background flusher that makes relaxed commits
  /// durable. 0 disables the flusher thread (relaxed commits then become
  /// durable only when a strict flush or checkpoint happens to run).
  uint64_t group_flush_interval_us = 500;
  /// WAL archiving: when non-empty, sealed log segments are copied
  /// (CRC-verified) into this directory by a background archiver before
  /// checkpoint truncation may reclaim them, enabling point-in-time
  /// recovery from a backup. Empty (default) keeps the pre-archiving
  /// behavior: checkpoints discard log history.
  std::string wal_archive_dir;
  /// Rotate the live WAL into a sealed segment once its flushed frames
  /// exceed this many bytes (only meaningful with archiving on).
  uint64_t wal_segment_bytes = 4ull << 20;
  /// Poll cadence of the background archiver thread.
  uint64_t wal_archive_poll_us = 20000;
};

/// Summary of a completed online backup (Database::Backup).
struct BackupResult {
  Lsn begin_lsn = 0;  // WAL replay available from here
  Lsn end_lsn = 0;    // backup is consistent as of this LSN
  uint32_t pages = 0;
  uint64_t files = 0;  // files recorded in the manifest
};

/// Inputs to offline point-in-time recovery (Database::Restore).
struct RestoreOptions {
  std::string backup_dir;
  std::string target_dir;  // created; must be empty
  /// Optional WAL archive to roll forward past the backup's end LSN.
  std::string archive_dir;
  /// Replay through this LSN (a record whose frame ends past it is not
  /// applied). 0 = everything available. Must be >= the backup's end LSN
  /// — page copies can already contain updates up to that point.
  Lsn target_lsn = 0;
  /// Env for all restore I/O (Env::Default() when null).
  Env* env = nullptr;
  /// User extensions the WAL may dispatch into during replay (same
  /// contract as DatabaseOptions::register_extensions).
  std::function<void(ExtensionRegistry*)> register_extensions;
};

/// Identifies an access path for data access operations. "Access path
/// extensions are selected using their attachment identifier plus an
/// instance number (e.g. access via B-tree number 3). Access path zero is
/// interpreted as an access to the storage method."
struct AccessPathId {
  uint16_t path = 0;  // 0 = storage method, else attachment type id + 1
  uint32_t instance = 0;

  static AccessPathId StorageMethod() { return {}; }
  static AccessPathId Attachment(AtId at, uint32_t instance) {
    return {static_cast<uint16_t>(at + 1), instance};
  }
  bool is_storage_method() const { return path == 0; }
  AtId at_id() const { return static_cast<AtId>(path - 1); }
  bool operator==(const AccessPathId&) const = default;
};

/// One problem surfaced by a consistency check. `component` names the
/// structure ("storage" for the storage method, "<at_name>#<instance>" for
/// an attachment instance); `detail` is the extension's finding text.
struct CheckFinding {
  std::string component;
  std::string detail;
};

/// Result of CheckRelation: every finding across the storage method and all
/// attachment instances, plus the components newly quarantined by this run.
struct CheckResult {
  bool clean = true;
  uint64_t items = 0;  // entries/records swept (scale indicator)
  std::vector<CheckFinding> findings;
  std::vector<std::string> quarantined;  // components quarantined this run
  std::vector<std::string> cleared;      // quarantines lifted (verified clean)
};

/// Result of RepairRelation over the currently-quarantined components.
struct RepairResult {
  std::vector<std::string> repaired;    // components restored + cleared
  std::vector<std::string> unrepaired;  // components still quarantined (why)
};

/// Dispatch counters (the tuple-at-a-time call-volume experiments).
/// Atomic so concurrent workers can bump them while another thread reads;
/// existing comparisons keep working through Counter's uint64_t conversion.
struct DatabaseStats {
  Counter sm_calls;       // storage-method entry-point activations
  Counter at_calls;       // attached-procedure activations
  Counter vetoes;         // relation modifications vetoed
  Counter partial_rollbacks;

  void Reset() {
    sm_calls.Reset();
    at_calls.Reset();
    vetoes.Reset();
    partial_rollbacks.Reset();
  }
};

class Database {
 public:
  /// Open (creating if necessary) the database in options.dir, register
  /// built-in and user extensions, and run restart recovery.
  static Status Open(const DatabaseOptions& options,
                     std::unique_ptr<Database>* out);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- transactions ----------------------------------------------------------
  Transaction* Begin() { return txn_mgr_->Begin(); }
  /// Begin as a specific user (uniform authorization facility); the empty
  /// user is the superuser.
  Transaction* BeginAs(const std::string& user) {
    Transaction* txn = txn_mgr_->Begin();
    txn->set_user(user);
    return txn;
  }
  Status Commit(Transaction* txn) { return txn_mgr_->Commit(txn); }
  Status Abort(Transaction* txn) { return txn_mgr_->Abort(txn); }
  Status Savepoint(Transaction* txn, const std::string& name) {
    return txn_mgr_->Savepoint(txn, name);
  }
  Status RollbackToSavepoint(Transaction* txn, const std::string& name) {
    return txn_mgr_->RollbackToSavepoint(txn, name);
  }

  // -- data definition --------------------------------------------------------
  /// CREATE TABLE ... USING <sm_name> WITH (<attrs>).
  Status CreateRelation(Transaction* txn, const std::string& name,
                        const Schema& schema, const std::string& sm_name,
                        const AttrList& attrs);
  /// DROP TABLE. Storage release is deferred to commit; an abort restores
  /// the catalog entry (the paper's undoable drop without state logging).
  Status DropRelation(Transaction* txn, const std::string& name);
  /// CREATE INDEX / CONSTRAINT / TRIGGER ... ON rel USING <at_name>
  /// WITH (<attrs>). Returns the new instance number.
  Status CreateAttachment(Transaction* txn, const std::string& rel,
                          const std::string& at_name, const AttrList& attrs,
                          uint32_t* instance_no = nullptr);
  /// DROP the given instance of attachment type `at_name` on `rel`.
  Status DropAttachment(Transaction* txn, const std::string& rel,
                        const std::string& at_name, uint32_t instance_no);

  /// Migrate a relation to a different storage method in place — the
  /// paper's motivation of installing "improved, but representation
  /// incompatible, versions of data storage ... without impacting existing
  /// applications". Data is copied row by row through the generic
  /// interfaces; the relation keeps its name (bound plans invalidate via
  /// the dependency versions). Attachments are NOT carried over — recreate
  /// them on the new relation as needed.
  Status ChangeStorageMethod(Transaction* txn, const std::string& rel,
                             const std::string& new_sm,
                             const AttrList& attrs);

  // -- relation modification (direct generic operations) ----------------------
  Status Insert(Transaction* txn, const std::string& rel,
                const std::vector<Value>& values,
                std::string* record_key = nullptr);
  Status Update(Transaction* txn, const std::string& rel,
                const Slice& record_key, const std::vector<Value>& new_values,
                std::string* new_key = nullptr);
  Status Delete(Transaction* txn, const std::string& rel,
                const Slice& record_key);

  /// Raw-record variants used by executors and cascading attachments.
  Status InsertRecord(Transaction* txn, const RelationDescriptor* desc,
                      const Slice& record, std::string* record_key);
  Status UpdateRecord(Transaction* txn, const RelationDescriptor* desc,
                      const Slice& record_key, const Slice& new_record,
                      std::string* new_key);
  Status DeleteRecord(Transaction* txn, const RelationDescriptor* desc,
                      const Slice& record_key);

  // -- data access -------------------------------------------------------------
  /// Direct-by-key fetch through the storage method.
  Status Fetch(Transaction* txn, const std::string& rel,
               const Slice& record_key, Record* out);
  Status FetchRecord(Transaction* txn, const RelationDescriptor* desc,
                     const Slice& record_key, std::string* record);

  /// Key-sequential access via the selected access path (0 = storage
  /// method). The returned scan participates in savepoint save/restore and
  /// is closed at transaction termination.
  Status OpenScan(Transaction* txn, const std::string& rel,
                  const AccessPathId& path, const ScanSpec& spec,
                  std::unique_ptr<Scan>* out);
  Status OpenScanOn(Transaction* txn, const RelationDescriptor* desc,
                    const AccessPathId& path, const ScanSpec& spec,
                    std::unique_ptr<Scan>* out);

  /// Split a storage-method scan into up to `target` disjoint sub-specs
  /// via the method's optional `partition_scan` entry point (NotSupported
  /// when the method has none). Open each returned spec with OpenScanOn;
  /// a single-element result means the method declined to partition.
  Status PartitionScan(Transaction* txn, const RelationDescriptor* desc,
                       const ScanSpec& spec, int target,
                       std::vector<ScanSpec>* partitions);

  // -- corruption containment --------------------------------------------------
  /// CHECK <relation>: run the storage method's `verify` sweep and every
  /// attachment instance's `verify` cross-check. Components that fail are
  /// quarantined in the catalog (persisted immediately — a maintenance
  /// action, not part of the transaction); components that verify clean
  /// have any stale quarantine lifted. Requires kSelect.
  Status CheckRelation(Transaction* txn, const std::string& rel,
                       CheckResult* out);

  /// REPAIR <relation>: rebuild every quarantined attachment instance from
  /// the base relation (via the type's `repair_instance` op, or by
  /// re-priming + re-verifying derived in-memory state) and lift the
  /// quarantines that now verify clean. The descriptor swap commits with
  /// the transaction; a crash mid-rebuild recovers to the old (still
  /// quarantined) state. Requires kUpdate.
  Status RepairRelation(Transaction* txn, const std::string& rel,
                        RepairResult* out);

  /// Direct access-path probe: map an access-path key to record keys.
  Status Lookup(Transaction* txn, const std::string& rel,
                const AccessPathId& path, const Slice& key,
                std::vector<std::string>* record_keys);
  Status LookupOn(Transaction* txn, const RelationDescriptor* desc,
                  const AccessPathId& path, const Slice& key,
                  std::vector<std::string>* record_keys);

  /// Cost estimation for the planner: ask one access path to judge the
  /// eligible predicates.
  Status EstimateCost(Transaction* txn, const RelationDescriptor* desc,
                      const AccessPathId& path,
                      const std::vector<ExprPtr>& predicates, AccessCost* out);
  /// Approximate record count via the storage method.
  Status CountRecords(Transaction* txn, const RelationDescriptor* desc,
                      uint64_t* count);

  // -- common services exposed to extensions -----------------------------------
  Catalog* catalog() { return &catalog_; }
  BufferPool* buffer_pool() { return buffer_pool_.get(); }
  LogManager* log() { return &log_; }
  LockManager* lock_manager() { return &lock_mgr_; }
  TransactionManager* txn_manager() { return txn_mgr_.get(); }
  ExtensionRegistry* registry() { return &registry_; }
  ScanManager* scan_manager() { return &scan_mgr_; }
  ExprEvaluator* evaluator() { return &evaluator_; }
  /// The uniform authorization facility: privileges are granted per
  /// (user, relation) and enforced identically for every storage method
  /// and access path. Checks also apply to cascaded modifications.
  AuthorizationManager* authorization() { return &auth_; }
  /// The environment all durable state goes through (never null once open).
  /// Extensions writing snapshots must use this instead of raw file APIs.
  /// It is the RetryingEnv wrapper, so extension I/O shares the transient
  /// retry budget.
  Env* env() { return env_; }
  /// The fault taxonomy / degraded-mode / auto-recovery subsystem.
  ErrorHandler* error_handler() { return error_handler_.get(); }
  /// True while the database is in degraded read-only mode.
  bool degraded() const { return error_handler_->degraded(); }
  /// Relaxed-durability commits acknowledged but not yet on disk (the
  /// window a crash would lose; DESCRIBE shows it as
  /// db.unflushed_commits).
  uint64_t unflushed_commits() const { return log_.unflushed_commits(); }
  /// Size of the intra-query worker pool (resolved from
  /// DatabaseOptions::worker_threads at open; >= 1).
  size_t worker_threads() const { return worker_threads_; }
  /// The shared worker pool, created on first use.
  ThreadPool* thread_pool();
  const DatabaseStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// JSON document of every process-wide counter and latency histogram
  /// (buffer pool, WAL, locks, transactions, per-extension dispatch).
  /// Safe to call while transactions are running.
  std::string MetricsSnapshot() const {
    return MetricsRegistry::Global()->ToJson();
  }

  /// Flush everything (buffer pool, log, catalog) — a clean shutdown point.
  Status Flush();

  /// Incremental checkpoint. Phase 1 flushes all state (pages, catalog,
  /// memory-resident storage-method snapshots) WITHOUT quiescing writers —
  /// the group-commit log never holds its mutex across the fsync, so
  /// committers keep running behind the flush. Phase 2 truncates the
  /// common log — bounding restart-recovery work — and is the only step
  /// that returns Busy while transactions are active; the phase-1 work is
  /// kept, so a retry only flushes the delta.
  Status Checkpoint();

  // -- backup / point-in-time recovery -----------------------------------------
  /// Online fuzzy backup into `dest_dir` (created; must be empty). Writers
  /// keep running: the WAL is pinned (rotation/truncation return Busy for
  /// the duration), a phase-1 checkpoint flush bounds replay work, the
  /// page file is copied with per-page checksum-retry, and every retained
  /// WAL segment plus the live log's durable prefix is captured. A MANIFEST
  /// with per-file sizes and CRC32Cs (itself checksummed) is written last,
  /// so an interrupted backup is never mistaken for a complete one.
  /// Implemented in core/backup.cc.
  Status Backup(const std::string& dest_dir, BackupResult* result = nullptr);

  /// Offline restore: rebuild a database directory from a backup, rolling
  /// the WAL forward through archived segments to `target_lsn` (point-in-
  /// time recovery), then run normal restart recovery on the result.
  /// Refuses — with a descriptive Status and without writing a usable
  /// target — on manifest/CRC mismatches, a non-empty target, a target LSN
  /// before the backup's end, or a gap in the archived segment chain.
  static Status Restore(const RestoreOptions& options,
                        Lsn* replayed_to = nullptr);

  /// End LSN of the most recent successful Backup() of this instance
  /// (0 = none this process lifetime). DESCRIBE shows it as
  /// db.last_backup_lsn.
  Lsn last_backup_lsn() const {
    return last_backup_lsn_.load(std::memory_order_acquire);
  }
  /// Sealed-but-unarchived WAL segments (archive lag). Nonzero while the
  /// archiver is behind or its volume is unreachable; those segments are
  /// retained — never reclaimed — until archived.
  uint64_t archive_lag() const { return log_.sealed_unarchived(); }
  /// The background segment archiver (null when wal_archive_dir is unset).
  WalArchiver* archiver() { return archiver_.get(); }

  /// Database directory (extensions derive snapshot paths from it).
  const std::string& dir() const { return dir_; }

  /// Test hook: when set, the destructor performs no flush at all, so
  /// closing the Database behaves like a process crash (the log keeps only
  /// what was explicitly forced).
  void SimulateCrashOnClose() { crash_on_close_ = true; }

  /// Descriptor lookup helper returning InvalidArgument for unknown names.
  Status FindRelation(const std::string& name,
                      const RelationDescriptor** desc) const;
  /// The same, sharing the catalog's immutable descriptor object (what a
  /// bound plan embeds; see Catalog::Snapshot).
  Status FindRelation(const std::string& name,
                      std::shared_ptr<const RelationDescriptor>* desc) const;

  /// Build an SmContext/AtContext for `desc` with lazily-opened state.
  /// Public so extension implementations can reach other relations (e.g.
  /// referential-integrity cascades) and the recovery path can dispatch.
  Status MakeSmContext(Transaction* txn, const RelationDescriptor* desc,
                       SmContext* ctx);
  Status MakeAtContext(Transaction* txn, const RelationDescriptor* desc,
                       AtId at, AtContext* ctx);

  /// Drop all cached runtime state for a relation (relation created or
  /// dropped). For memory-resident storage methods the SM state *is* the
  /// data, so this is only safe when the relation's storage itself is new
  /// or gone.
  void InvalidateRuntime(RelationId id);

  /// Drop only the cached attachment states (attachment DDL): descriptors
  /// changed, but the storage method's state — possibly the data itself —
  /// remains valid.
  void InvalidateAttachmentRuntime(RelationId id);

 private:
  Database();

  /// The recovery driver's dispatch callback.
  Status ApplyLogRecord(const LogRecord& rec, bool undo, Lsn apply_lsn);

  /// The paper's two-step modification, written once for InsertRecord
  /// (`op` kInsert, `old_key` empty), UpdateRecord and DeleteRecord
  /// (`new_record` empty): the gate and the lock, the old record's fetch,
  /// the storage-method step, the attached procedures, and on a veto or
  /// failure the partial rollback through the common log.
  Status ModifyRecord(Transaction* txn, const RelationDescriptor* desc,
                      Privilege op, const Slice& old_key,
                      const Slice& new_record, std::string* new_key);

  /// Ensure every attachment type with instances on the relation has its
  /// runtime state open *before* the storage-method step runs — states
  /// that prime themselves by scanning the relation (unique, hash, rtree,
  /// stats, join) must not first open mid-modification, or they would see
  /// the half-applied operation.
  Status EnsureAttachmentStates(Transaction* txn,
                                const RelationDescriptor* desc);

  /// Invoke the attached procedure `hook` (&AtOps::on_insert, on_update or
  /// on_delete) of every attachment type with instances on the relation,
  /// with `args` after the context.
  template <typename Hook, typename... Args>
  Status NotifyAttachments(Transaction* txn, const RelationDescriptor* desc,
                           Hook AtOps::*hook, const Args&... args);

  /// The attachment access path of OpenScanOn and Lookup, after the
  /// caller's relation lock: validate `path`, refuse a quarantined
  /// instance, dispatch `entry` (&AtOps::open_scan or &AtOps::lookup) with
  /// the instance number and `args`, and quarantine the instance when it
  /// reports Corruption. `missing` is the NotSupported text for a type
  /// without `entry`.
  template <typename Entry, typename... Args>
  Status AccessAttachment(Transaction* txn, const RelationDescriptor* desc,
                          const AccessPathId& path, Entry AtOps::*entry,
                          const char* missing, const Args&... args);

  /// The preamble of DDL on an existing relation: the write gate, the
  /// lookup of `rel`, its X lock, and its descriptor as it stands under
  /// that lock.
  Status LockForDdl(Transaction* txn, const std::string& rel,
                    const RelationDescriptor** desc);

  /// The preamble of attachment DDL: the type `at_name`, LockForDdl on
  /// `rel`, and a context for the type on the locked descriptor.
  Status AttachmentDdl(Transaction* txn, const std::string& rel,
                       const std::string& at_name, AtContext* ctx);

  /// One instance of attachment type `at`.
  struct InstanceRef {
    AtId at;
    uint32_t no;
  };

  /// The one place a DDL changes the catalog: replace the relation's
  /// descriptor `before` (null: add a relation) with `after` (nullopt:
  /// remove it; its runtime stays until commit or abort), drop attachment
  /// states derived from a replaced one, and queue the step's undo and
  /// its commit step. `fresh` is an instance whose
  /// storage the step built, `superseded` one whose old storage it
  /// replaced (REPAIR's rebuild names one instance in both); a removed
  /// relation supersedes all of its storage, and an added one is fresh.
  ///
  /// Abort (or ROLLBACK TO an earlier savepoint) releases the fresh
  /// storage under `after` and puts `before` back under a new version,
  /// keeping quarantine flips made since. Commit flushes the buffer pool,
  /// saves the catalog, then releases the superseded storage under
  /// `before` and flushes again. A relation whose add fails is not added.
  Status CatalogStep(Transaction* txn, const RelationDescriptor* before,
                     std::optional<RelationDescriptor> after,
                     std::optional<InstanceRef> fresh = std::nullopt,
                     std::optional<InstanceRef> superseded = std::nullopt);

  /// Release `instance`'s storage (all of the relation's without one) as
  /// `desc` locates it, and drop the runtime states derived from it. A
  /// failed release only leaks pages.
  void ReleaseStorage(Transaction* txn, const RelationDescriptor& desc,
                      std::optional<InstanceRef> instance);

  /// Refuse the modification when the relation's storage is quarantined or
  /// a quarantined attachment instance guards integrity (its maintenance
  /// would be skipped, silently breaking the guarantee it enforces).
  Status CheckWritable(const RelationDescriptor* desc);

  /// Gate every write and DDL path: a poisoned log's error (with its
  /// original cause) and Busy while the database is degraded surface
  /// here, before any page changes — not as a failed append afterwards.
  Status CheckTxnWritable() const;

  /// Route a failed relation-modification Status to the ErrorHandler when
  /// it shows the local environment failing (a retry-exhausted transient
  /// IOError). Plain IOErrors stay with the operation — e.g. an
  /// unreachable foreign server must not degrade the local database.
  void MaybeReportWriteFailure(const char* where, const Status& s);

  /// The ErrorHandler's recovery callback: repair/probe the WAL in place
  /// (LogManager::Resume), then push out everything still buffered.
  Status RecoverWritePath();

  /// Checkpoint phase 1: flush WAL/pages/catalog/storage-method snapshots
  /// without quiescing writers (the incremental bulk of the work).
  Status DoCheckpointFlush();

  /// Full checkpoint body (phase 1 + log truncation), after the
  /// degraded-mode gate; the truncation requires quiescence.
  Status DoCheckpoint();

  /// Persist a quarantine for (at, instance) after kCorruption surfaced
  /// during normal access — the planner skips the path from now on.
  void QuarantineOnAccess(const RelationDescriptor* desc, AtId at,
                          uint32_t instance, const std::string& reason);

  /// Durably save the catalog after a quarantine change. A failure leaves
  /// the damage record memory-only: it is counted
  /// (`quarantine.save_failures`) and retried on the next
  /// quarantine-related access so the record eventually reaches disk.
  Status PersistQuarantineRecord();

  /// One extension's runtime state on one relation, opened once: the
  /// first user opens it holding `open_mu_` and publishes it in `state_`;
  /// everyone after reads `state_` without a lock. The lock is per slot
  /// because an open may re-enter MakeSmContext/MakeAtContext for another
  /// slot (a hash index builds its state by scanning its relation's
  /// storage method), so neither runtime_mu_ nor one lock per relation can
  /// be held across it.
  class ExtSlot {
   public:
    /// Sets ctx->state, opening the state with `open` on first use.
    template <typename Ctx>
    Status Get(Status (*open)(Ctx&, std::unique_ptr<ExtState>*), Ctx* ctx);
    /// Drops the state; the next Get opens it again.
    void Reset();

   private:
    Mutex open_mu_;
    std::unique_ptr<ExtState> owned_ GUARDED_BY(open_mu_);
    std::atomic<ExtState*> state_{nullptr};
  };
  struct RelationRuntime {
    ExtSlot sm;
    std::array<ExtSlot, kMaxAttachmentTypes> at;
  };
  RelationRuntime* GetRuntime(RelationId id);

  /// Per-extension dispatch metrics ("sm.<id>.<name>.*" /
  /// "at.<id>.<name>.*"), indexed by the small-integer extension id —
  /// resolved once in Open() after all procedure vectors are installed, so
  /// dispatch pays an array index, never a registry lookup.
  struct DispatchMetrics {
    Counter* calls;
    Histogram* call_ns;
  };
  void ResolveDispatchMetrics();

  /// One counted, timed activation through a procedure vector: bumps
  /// stats_.{sm,at}_calls and extension `id`'s calls counter, and times
  /// `call` into its call_ns histogram. Entry points that are not dispatch
  /// volume (cost, count, checkpoint, undo/redo, create/drop, release,
  /// REPAIR's re-verify) call their procedure directly.
  template <typename Fn>
  Status Dispatch(ExtKind kind, uint32_t id, Fn&& call);

  std::string dir_;
  Env* env_ = nullptr;  // == retry_env_.get() once open
  std::unique_ptr<RetryingEnv> retry_env_;
  std::unique_ptr<ErrorHandler> error_handler_;
  PageFile page_file_;
  LogManager log_;
  std::unique_ptr<BufferPool> buffer_pool_;
  LockManager lock_mgr_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  std::unique_ptr<WalArchiver> archiver_;
  std::atomic<Lsn> last_backup_lsn_{0};
  Catalog catalog_;
  ExtensionRegistry registry_;
  AuthorizationManager auth_;
  ScanManager scan_mgr_;
  ExprEvaluator evaluator_;
  DatabaseStats stats_;
  std::vector<DispatchMetrics> sm_metrics_;  // indexed by SmId
  std::vector<DispatchMetrics> at_metrics_;  // indexed by AtId
  Counter* metric_vetoes_ = nullptr;
  Counter* metric_partial_rollbacks_ = nullptr;
  Counter* metric_check_runs_ = nullptr;
  Counter* metric_check_failures_ = nullptr;
  Counter* metric_repair_runs_ = nullptr;
  Counter* metric_repair_rebuilt_ = nullptr;
  Counter* metric_quarantine_events_ = nullptr;
  Counter* metric_quarantine_save_failures_ = nullptr;
  /// Set when a quarantine's catalog save failed; the next
  /// quarantine-related access retries the save.
  std::atomic<bool> quarantine_save_pending_{false};

  size_t worker_threads_ = 1;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> thread_pool_;
  Counter* metric_parallel_partitions_ = nullptr;

  Mutex runtime_mu_;
  std::map<RelationId, std::unique_ptr<RelationRuntime>> runtimes_
      GUARDED_BY(runtime_mu_);
  bool crash_on_close_ = false;
  /// True while Open runs restart recovery, before any other thread
  /// exists: ApplyLogRecord then skips attachments without redo.
  bool restarting_ = false;
};

/// Registers the built-in storage methods and attachment types shipped with
/// the library (heap, temp, mainmemory, btree, appendonly, foreign; btree
/// index, hash index, rtree index, check constraint, unique, refint,
/// trigger, join index, stats, deferred check). Implemented across the
/// sm/ and attach/ modules.
void RegisterBuiltinExtensions(ExtensionRegistry* registry);

}  // namespace dmx

#endif  // DMX_CORE_DATABASE_H_
