// The generic abstractions of the data management extension architecture.
//
// Two extension families, exactly as the paper defines them:
//
//   * Storage methods (SmOps) — alternative implementations of relation
//     storage. "A storage method implementation must support a well-defined
//     set of relation operations such as delete, insert, destroy relation,
//     and estimate access costs... must define the notion of a record key
//     and support direct-by-key and key-sequential record accesses."
//
//   * Attachments (AtOps) — access paths, integrity constraints, and
//     triggers. "Attachment modification interfaces are invoked only as
//     side effects of modification operations on relations... Any
//     attachment can abort the relation operation."
//
// Implementations register their operation tables with the
// ExtensionRegistry (registry.h); dispatch happens by indexing vectors of
// entry points with the small-integer extension identifiers stored in the
// relation descriptor.
//
// Entry points are plain function pointers (not virtual members) to mirror
// the paper's "vector of addresses for the procedures that implement the
// corresponding operation". Per-relation runtime state is opaque
// (void*-style, owned via the open/close pair); descriptors carry all
// persistent extension metadata.

#ifndef DMX_CORE_EXTENSION_H_
#define DMX_CORE_EXTENSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/catalog/attr_list.h"
#include "src/catalog/descriptor.h"
#include "src/expr/expr.h"
#include "src/types/record.h"
#include "src/txn/transaction.h"
#include "src/util/common.h"
#include "src/wal/log_record.h"

namespace dmx {

class Database;

/// Opaque per-relation extension runtime state. Extensions subclass this;
/// the core owns instances and destroys them via the virtual destructor.
class ExtState {
 public:
  virtual ~ExtState() = default;
};

/// Execution context for a storage-method entry point.
struct SmContext {
  Database* db = nullptr;
  Transaction* txn = nullptr;  // null during restart redo/undo dispatch
  const RelationDescriptor* desc = nullptr;
  ExtState* state = nullptr;
};

/// Execution context for an attachment entry point.
struct AtContext {
  Database* db = nullptr;
  Transaction* txn = nullptr;  // null during restart redo/undo dispatch
  const RelationDescriptor* desc = nullptr;
  AtId at_id = 0;
  ExtState* state = nullptr;
  /// This attachment type's field of the relation descriptor.
  Slice at_desc;
};

/// Cost estimate returned to the query planner. "Given a list of 'eligible'
/// predicates supplied by the query planner, the storage method or access
/// attachment can determine the 'relevance' of the predicates to the access
/// path instance and then estimate the I/O and CPU costs."
struct AccessCost {
  bool usable = false;      // can this path serve the access at all?
  double io_cost = 0;       // estimated page reads
  double cpu_cost = 0;      // estimated per-record work
  double selectivity = 1.0; // fraction of the relation expected to qualify
  /// Portion of io_cost attributable to fetching qualifying records from
  /// the storage method; the planner subtracts it when an index-only
  /// access can answer from the access-path key alone.
  double fetch_cost = 0;
  /// Indexes (into the eligible-predicate list) of predicates this path
  /// evaluates itself; the executor need not re-check them.
  std::vector<int> handled_predicates;
  /// Set by an estimator whose estimate read the value of a literal
  /// operand (a constant, not a `?`): the same predicate with other values
  /// may cost differently, so a plan chosen on it holds for these values
  /// only.
  bool value_dependent = false;

  double total() const { return io_cost + cpu_cost; }
};

/// Parameters of a key-sequential or direct access.
struct ScanSpec {
  /// Optional key range in the extension's own key encoding. Unset bounds
  /// are open.
  std::optional<std::string> low_key;
  bool low_inclusive = true;
  std::optional<std::string> high_key;
  bool high_inclusive = true;

  /// Filter predicate evaluated by the extension against records still in
  /// its buffer pool (common predicate-evaluation service). May be null.
  ExprPtr filter;
  /// Values for the filter's `?` parameters, owned by the executing
  /// statement and valid for the life of the scan; null when the statement
  /// has none. Pass it to ExprEvaluator::EvalPredicate with the filter.
  const std::vector<Value>* params = nullptr;

  /// Fields the caller needs (projection pushdown); empty = all.
  std::vector<int> fields;

  /// Opaque partition descriptor produced by the same storage method's
  /// `partition_scan` and interpreted only by it (e.g. a page-chain
  /// segment for heaps). Unset = scan the whole key range. Callers never
  /// construct these; they pass back what partition_scan returned.
  std::optional<std::string> partition;
};

/// One item returned by a scan.
struct ScanItem {
  /// The storage-method record key (for access-path scans this is the
  /// *mapped* record key, used to fetch the record from the storage
  /// method).
  std::string record_key;
  /// Zero-copy view of the record, valid only until the next Next()/close;
  /// invalid() for access-path scans that return keys only.
  RecordView view;
  /// For access-path scans: the access-path key of the entry (e.g. the
  /// encoded index key). Enables index-only access — "some access path
  /// attachments may be able to return record fields when the access path
  /// key is a multi-field value".
  std::string access_key;
};

/// A key-sequential access. "A scan may be on, after, or before an item...
/// If an item at the scan position is deleted, the scan will be positioned
/// just after the deleted item. Key-sequential access operations always
/// access the next item after the current scan position."
///
/// Implementations realize those semantics by keying the position on the
/// last-returned item's ordering value, so deletions at the position
/// naturally leave the scan "just after" it.
class Scan {
 public:
  virtual ~Scan() = default;

  /// Advance to and return the next item after the current position.
  /// Returns NotFound at end of scan.
  virtual Status Next(ScanItem* out) = 0;

  /// Serialize the current position (savepoint support: "the storage
  /// methods and attachments are driven by the system to obtain their
  /// key-sequential access positions").
  virtual Status SavePosition(std::string* out) const = 0;

  /// Restore a previously saved position after a partial rollback.
  virtual Status RestorePosition(const Slice& pos) = 0;
};

/// Findings of a consistency sweep (SmOps::verify / AtOps::verify).
/// Implementations record structural damage as problems instead of
/// returning kCorruption: a verify pass must survey the whole structure,
/// not stop at the first bad page.
struct VerifyReport {
  /// Human-readable findings; empty = structure is consistent.
  std::vector<std::string> problems;
  /// Items inspected (records, index entries) — for progress/metrics.
  uint64_t items = 0;

  void Problem(std::string p) { problems.push_back(std::move(p)); }
  bool clean() const { return problems.empty(); }
};

/// Storage method operation vector ("generic operations ... must be
/// provided in order to add a new storage method to the system").
struct SmOps {
  const char* name = nullptr;

  /// DDL: validate the CREATE attribute list and produce the initial
  /// storage-method descriptor encoding (no storage built yet).
  Status (*validate)(const Schema& schema, const AttrList& attrs,
                     std::string* sm_desc) = nullptr;

  /// DDL: build initial storage for a new relation instance. May rewrite
  /// *sm_desc (e.g. to record an allocated anchor page).
  Status (*create)(SmContext& ctx, std::string* sm_desc) = nullptr;

  /// DDL: release all storage (invoked as a deferred action at commit of
  /// the dropping transaction).
  Status (*drop)(SmContext& ctx) = nullptr;

  /// Derive runtime state from the descriptor (file handles, cached
  /// anchors). Called when the relation is first touched after open/DDL.
  Status (*open)(SmContext& ctx, std::unique_ptr<ExtState>* state) = nullptr;

  /// Relation modification. Implementations log their changes through the
  /// common log so the recovery driver can undo/redo them.
  Status (*insert)(SmContext& ctx, const Slice& record,
                   std::string* record_key) = nullptr;
  /// Update may move the record; the (possibly changed) key is returned in
  /// *new_key ("the old record and record key will be used to determine
  /// which key to delete ... the new record and record key ... form the key
  /// to be inserted").
  Status (*update)(SmContext& ctx, const Slice& record_key,
                   const Slice& old_record, const Slice& new_record,
                   std::string* new_key) = nullptr;
  Status (*erase)(SmContext& ctx, const Slice& record_key,
                  const Slice& old_record) = nullptr;

  /// Direct-by-key access: selected fields (here: whole record image) of
  /// the record with `record_key`.
  Status (*fetch)(SmContext& ctx, const Slice& record_key,
                  std::string* record) = nullptr;

  /// Key-sequential access over the stored relation.
  Status (*open_scan)(SmContext& ctx, const ScanSpec& spec,
                      std::unique_ptr<Scan>* scan) = nullptr;

  /// Optional intra-query parallelism hook: split `spec` into up to
  /// `target` disjoint sub-specs whose scans together return exactly the
  /// records of a serial scan of `spec` (each record in exactly one
  /// partition; no cross-partition ordering promised). A method that
  /// cannot partition the given spec returns OK with a single element
  /// (the caller falls back to a serial scan). Null = the method never
  /// partitions; every scan is serial. Implementations encode any
  /// physical placement hints in ScanSpec::partition.
  Status (*partition_scan)(SmContext& ctx, const ScanSpec& spec, int target,
                           std::vector<ScanSpec>* partitions) = nullptr;

  /// Planner support: cost of scanning via this storage method given the
  /// eligible predicates.
  Status (*cost)(SmContext& ctx, const std::vector<ExprPtr>& predicates,
                 AccessCost* out) = nullptr;

  /// Recovery: reverse / reapply one logged action of this storage method.
  /// `apply_lsn` stamps any page images touched (CLR LSN for undo).
  Status (*undo)(SmContext& ctx, const LogRecord& rec, Lsn apply_lsn) = nullptr;
  Status (*redo)(SmContext& ctx, const LogRecord& rec, Lsn apply_lsn) = nullptr;

  /// Approximate record count for costing (0 if unknown).
  Status (*count)(SmContext& ctx, uint64_t* records) = nullptr;

  /// Checkpoint hook: make the current committed state durable without the
  /// log (page-based methods are covered by the buffer-pool flush; memory-
  /// resident methods snapshot their state, enabling log truncation).
  /// Null = nothing to do.
  Status (*checkpoint)(SmContext& ctx) = nullptr;

  /// Consistency sweep over the stored relation (CHECK): walk the physical
  /// structure — page chains, slot directories, tree invariants — and
  /// record every inconsistency in `report`. Internal kCorruption from
  /// page reads is recorded as a problem, not propagated; a non-OK return
  /// means the sweep itself could not run. Null = no structural check.
  Status (*verify)(SmContext& ctx, VerifyReport* report) = nullptr;
};

/// Attachment operation vector. The modification hooks (`on_*`) are the
/// paper's procedurally attached, indirect operations: invoked once per
/// attachment *type* per relation modification, servicing every instance of
/// the type on that relation; any may veto (Status::Veto / ::Constraint).
struct AtOps {
  const char* name = nullptr;

  /// DDL: validate CREATE attributes for a new instance and merge it into
  /// the (possibly empty) existing type descriptor, producing the new
  /// field-N encoding. `instance_no` receives the new instance's number.
  Status (*create_instance)(AtContext& ctx, const AttrList& attrs,
                            std::string* new_desc,
                            uint32_t* instance_no) = nullptr;

  /// DDL: remove instance `instance_no` from the type descriptor. Storage
  /// release is deferred to commit via `release_instance`.
  Status (*drop_instance)(AtContext& ctx, uint32_t instance_no,
                          std::string* new_desc) = nullptr;

  /// Deferred storage release for a dropped instance (or all instances
  /// when the relation is dropped: instance_no = UINT32_MAX).
  Status (*release_instance)(AtContext& ctx, uint32_t instance_no) = nullptr;

  /// Runtime state lifecycle (parse descriptor, open auxiliary storage).
  Status (*open)(AtContext& ctx, std::unique_ptr<ExtState>* state) = nullptr;

  /// Attached procedures: side effects of relation modification. The old
  /// record value is available on updates and deletes, the new value on
  /// updates and inserts, and the record key on all (paper, Mechanisms).
  Status (*on_insert)(AtContext& ctx, const Slice& record_key,
                      const Slice& new_record) = nullptr;
  Status (*on_update)(AtContext& ctx, const Slice& old_key,
                      const Slice& new_key, const Slice& old_record,
                      const Slice& new_record) = nullptr;
  Status (*on_delete)(AtContext& ctx, const Slice& record_key,
                      const Slice& old_record) = nullptr;

  /// Access-path interface (null for pure constraints/triggers). Scans
  /// yield storage-method record keys; "access path zero is interpreted as
  /// an access to the storage method" (selection happens in the core).
  Status (*open_scan)(AtContext& ctx, uint32_t instance_no,
                      const ScanSpec& spec,
                      std::unique_ptr<Scan>* scan) = nullptr;

  /// Direct-by-key probe: map an access-path key to record keys.
  Status (*lookup)(AtContext& ctx, uint32_t instance_no, const Slice& key,
                   std::vector<std::string>* record_keys) = nullptr;

  /// Planner support for access-path selection.
  Status (*cost)(AtContext& ctx, uint32_t instance_no,
                 const std::vector<ExprPtr>& predicates,
                 AccessCost* out) = nullptr;

  /// Recovery dispatch, as for storage methods. `undo` serves both
  /// transaction rollback and restart. A type may leave `redo` null when it
  /// keeps nothing durable and derives its state from the base relation
  /// whenever the state opens (the paper's "wide latitude in the selection
  /// of recovery techniques"; DerivedState in src/core/derived_state.h is
  /// the holder for such state). Restart then dispatches nothing to it,
  /// neither redo nor undo, and never opens its state: the first touch
  /// afterwards builds it from the recovered base. Its `undo` still runs
  /// for rollbacks outside restart.
  Status (*undo)(AtContext& ctx, const LogRecord& rec, Lsn apply_lsn) = nullptr;
  Status (*redo)(AtContext& ctx, const LogRecord& rec, Lsn apply_lsn) = nullptr;

  /// Number of instances encoded in a type descriptor (for iteration).
  uint32_t (*instance_count)(const Slice& at_desc) = nullptr;

  /// Enumerate the instance numbers in a type descriptor (the query
  /// planner probes each as a candidate access path). Null = attachment is
  /// never an access path.
  Status (*list_instances)(const Slice& at_desc,
                           std::vector<uint32_t>* out) = nullptr;

  /// Record fields composing an instance's access-path key, in key order
  /// (for key-range construction, probe-key composition, and index-only
  /// access). Null if the access key is not composed from record fields.
  Status (*instance_fields)(const Slice& at_desc, uint32_t instance,
                            std::vector<int>* fields) = nullptr;

  /// Consistency cross-check of one instance against the base relation
  /// (CHECK): dual enumeration for indexes (every entry maps to a live
  /// record with matching key fields and vice versa), re-validation for
  /// constraints, recount for statistics. Findings go into `report`;
  /// internal kCorruption is recorded, not propagated. Null = no check.
  Status (*verify)(AtContext& ctx, uint32_t instance_no,
                   VerifyReport* report) = nullptr;

  /// Rebuild one damaged instance from scratch off the base relation
  /// (REPAIR): allocate fresh storage, bulk-load via the storage method's
  /// scan, and return the updated type-descriptor encoding in *new_desc.
  /// Must NOT touch the old storage — the caller swaps the descriptor in
  /// transactionally and releases the old storage (via release_instance
  /// with the pre-repair descriptor) only at commit, so an abort or crash
  /// mid-rebuild leaves the old state intact. Null = instance is repaired
  /// by reopening its state alone (purely derived in-memory state) or is
  /// not repairable.
  Status (*repair_instance)(AtContext& ctx, uint32_t instance_no,
                            std::string* new_desc) = nullptr;

  /// Does this instance guard data integrity (unique/check/referential
  /// constraints)? While such an instance is quarantined the core refuses
  /// writes to the relation — the constraint can no longer be enforced.
  /// Quarantined non-guarding instances (plain indexes, stats) merely stop
  /// serving reads and skip maintenance until repaired. Null = false.
  bool (*guards_integrity)(const Slice& at_desc, uint32_t instance_no) =
      nullptr;
};

}  // namespace dmx

#endif  // DMX_CORE_EXTENSION_H_
