// Tuple-at-a-time execution operators over the generic data management
// interfaces. "The interfaces to storage methods and attachments are
// tuple-at-a-time interfaces" — each operator pulls one row at a time, and
// access-path operators follow the paper's protocol: probe the access path
// for a record key, then fetch the record through the storage method.

#ifndef DMX_QUERY_EXECUTOR_H_
#define DMX_QUERY_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>

#include "src/query/plan_cache.h"

namespace dmx {

/// One materialized row flowing between operators.
struct Row {
  std::vector<Value> values;
  std::string record_key;  // of the base record (single-relation sources)
};

/// Pull-based operator interface.
class RowSource {
 public:
  virtual ~RowSource() = default;
  /// Produce the next row; NotFound at end of stream.
  virtual Status Next(Row* row) = 0;
};

/// Executes a planned single-relation access: storage-method scan with
/// pushed filter, ordered access-path scan + fetch, or direct probe +
/// fetch; applies the residual predicate.
///
/// `params` (every source below takes it) are the executing statement's
/// `?` values, or null when it has none. They are not copied: the
/// statement keeps them alive until its sources are destroyed.
class AccessSource : public RowSource {
 public:
  /// `plan` must outlive the source (hold the shared_ptr at the call site).
  AccessSource(Database* db, Transaction* txn, const BoundPlan* plan,
               const std::vector<Value>* params = nullptr);
  Status Next(Row* row) override;

 private:
  /// Binds the plan's key operands to `params_` (BindAccessKey), then
  /// opens the scan or runs the probe.
  Status Open();

  Database* db_;
  Transaction* txn_;
  const BoundPlan* plan_;
  const std::vector<Value>* params_;
  bool opened_ = false;
  bool empty_ = false;  // a NULL key operand: nothing can qualify
  std::unique_ptr<Scan> scan_;               // scan-shaped paths
  std::vector<std::string> probe_results_;   // probe-shaped paths
  size_t probe_pos_ = 0;
};

/// Keeps rows satisfying `predicate` (field indexes refer to child rows).
class FilterSource : public RowSource {
 public:
  FilterSource(Database* db, std::unique_ptr<RowSource> child,
               ExprPtr predicate, const std::vector<Value>* params = nullptr)
      : db_(db),
        child_(std::move(child)),
        predicate_(std::move(predicate)),
        params_(params) {}
  Status Next(Row* row) override;

 private:
  Database* db_;
  std::unique_ptr<RowSource> child_;
  ExprPtr predicate_;
  const std::vector<Value>* params_;
};

/// Projects child rows onto the given column indexes.
class ProjectSource : public RowSource {
 public:
  ProjectSource(std::unique_ptr<RowSource> child, std::vector<int> columns)
      : child_(std::move(child)), columns_(std::move(columns)) {}
  Status Next(Row* row) override;

 private:
  std::unique_ptr<RowSource> child_;
  std::vector<int> columns_;
};

/// Nested-loop join: re-opens the inner source for every outer row (the
/// join that "can easily result in thousands of calls to storage method and
/// attachment routines"). The join predicate sees outer columns first, then
/// inner columns.
class NestedLoopJoinSource : public RowSource {
 public:
  using InnerFactory = std::function<Status(std::unique_ptr<RowSource>*)>;

  NestedLoopJoinSource(Database* db, std::unique_ptr<RowSource> outer,
                       InnerFactory inner_factory, ExprPtr predicate,
                       const std::vector<Value>* params = nullptr)
      : db_(db),
        outer_(std::move(outer)),
        inner_factory_(std::move(inner_factory)),
        predicate_(std::move(predicate)),
        params_(params) {}
  Status Next(Row* row) override;

 private:
  Database* db_;
  std::unique_ptr<RowSource> outer_;
  InnerFactory inner_factory_;
  ExprPtr predicate_;
  const std::vector<Value>* params_;
  Row outer_row_;
  bool outer_valid_ = false;
  std::unique_ptr<RowSource> inner_;
};

/// Index nested-loop join: for each outer row, probes an access path on the
/// inner relation with a key composed from outer columns, fetches the
/// matching records, and emits combined rows. The probe key is built like
/// every other access key (AppendKeyOperand): outer column i is compared
/// against inner field `inner_key_fields[i]`, and a NULL never matches.
class IndexJoinSource : public RowSource {
 public:
  IndexJoinSource(Database* db, Transaction* txn,
                  std::unique_ptr<RowSource> outer,
                  const RelationDescriptor* inner, AccessPathId inner_path,
                  std::vector<int> outer_key_columns,
                  std::vector<int> inner_key_fields)
      : db_(db),
        txn_(txn),
        outer_(std::move(outer)),
        inner_(inner),
        inner_path_(inner_path),
        outer_key_columns_(std::move(outer_key_columns)),
        inner_key_fields_(std::move(inner_key_fields)) {}
  Status Next(Row* row) override;

 private:
  Database* db_;
  Transaction* txn_;
  std::unique_ptr<RowSource> outer_;
  const RelationDescriptor* inner_;
  AccessPathId inner_path_;
  std::vector<int> outer_key_columns_;
  std::vector<int> inner_key_fields_;
  Row outer_row_;
  std::vector<std::string> matches_;
  size_t match_pos_ = 0;
  bool outer_valid_ = false;
};

/// Simple aggregates over the whole child stream.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

class AggregateSource : public RowSource {
 public:
  /// `column` is ignored for kCount.
  AggregateSource(std::unique_ptr<RowSource> child, AggKind kind, int column)
      : child_(std::move(child)), kind_(kind), column_(column) {}
  Status Next(Row* row) override;

 private:
  std::unique_ptr<RowSource> child_;
  AggKind kind_;
  int column_;
  bool done_ = false;
};

struct PlanProfile;

/// Morsel-driven parallel storage-method scan: an exchange operator. The
/// storage method's optional `partition_scan` entry point splits the scan
/// spec into disjoint sub-specs; one ManagedScan per partition runs on the
/// Database's shared ThreadPool, filtering (and optionally pre-aggregating)
/// below the exchange, and the consumer merges fixed-size morsels through a
/// bounded queue. The first non-OK worker Status cancels the siblings and
/// surfaces from Next(). Row order across partitions is nondeterministic.
///
/// Falls back to a single worker when the method declines to partition
/// (single-element result) or has no partition_scan at all.
class ParallelScanSource : public RowSource {
 public:
  /// `plan` must outlive the source. `workers` is the planner's target
  /// partition count (>= 2); the storage method may return fewer. Every
  /// worker's scan filters with `params` (see AccessSource).
  ParallelScanSource(Database* db, Transaction* txn, const BoundPlan* plan,
                     int workers, const std::vector<Value>* params = nullptr);
  ~ParallelScanSource() override;

  /// Push a simple aggregate below the exchange: each worker emits one
  /// partial row [count(all rows), sum(non-null), min, max] instead of its
  /// scan output. Merge with ParallelAggregateMergeSource. Must be called
  /// before the first Next().
  void EnablePartialAggregate(AggKind kind, int column);

  /// EXPLAIN ANALYZE: worker i records its produced rows and wall time
  /// into profile->ops[worker_nodes[i]] (one node per worker, single
  /// writer; results are published by the queue mutex before the consumer
  /// reads them). Must be called before the first Next().
  void EnableProfile(PlanProfile* profile, std::vector<size_t> worker_nodes);

  Status Next(Row* row) override;

 private:
  struct Morsel {
    std::vector<Row> rows;
  };

  Status Open();
  void RunWorker(size_t idx);
  /// Blocks until the queue has room; returns false when cancelled.
  bool PushMorsel(Morsel m);

  Database* db_;
  Transaction* txn_;
  const BoundPlan* plan_;
  const int target_workers_;
  const std::vector<Value>* params_;
  bool opened_ = false;

  bool agg_enabled_ = false;
  AggKind agg_kind_ = AggKind::kCount;
  int agg_column_ = 0;

  PlanProfile* profile_ = nullptr;
  std::vector<size_t> profile_nodes_;

  std::vector<std::unique_ptr<Scan>> scans_;  // one per partition

  Mutex mu_;
  CondVar not_empty_{&mu_};
  CondVar not_full_{&mu_};
  std::deque<Morsel> queue_ GUARDED_BY(mu_);
  size_t active_ GUARDED_BY(mu_) = 0;  // workers not yet finished
  std::atomic<bool> cancel_{false};
  Status error_ GUARDED_BY(mu_);  // first worker failure wins

  std::vector<Row> current_;  // morsel being drained by the consumer
  size_t current_pos_ = 0;
};

/// Merges the per-worker partial aggregate rows a ParallelScanSource emits
/// (EnablePartialAggregate) into the single row AggregateSource would have
/// produced over the same input — byte-identical, including null handling.
class ParallelAggregateMergeSource : public RowSource {
 public:
  ParallelAggregateMergeSource(std::unique_ptr<RowSource> child, AggKind kind)
      : child_(std::move(child)), kind_(kind) {}
  Status Next(Row* row) override;

 private:
  std::unique_ptr<RowSource> child_;
  AggKind kind_;
  bool done_ = false;
};

/// Drain a source into a vector (tests, examples).
Status CollectRows(RowSource* source, std::vector<Row>* rows);

// -- EXPLAIN ANALYZE ----------------------------------------------------------

/// Runtime statistics for one operator in an executed plan.
struct OperatorStats {
  std::string name;       // e.g. "access(parts): heap scan"
  uint64_t rows_in = 0;   // rows consumed from children (FinalizeRowsIn)
  uint64_t rows_out = 0;  // rows produced
  uint64_t wall_ns = 0;   // inclusive wall time inside Next()
  std::vector<size_t> children;  // indices into PlanProfile::ops
};

/// Profile of one executed plan tree. Children are added before their
/// parents, so the last node is the root. A nested-loop inner that is
/// re-created per outer row shares one node, accumulating across rescans.
struct PlanProfile {
  std::vector<OperatorStats> ops;

  size_t Add(std::string name, std::vector<size_t> children = {});
  /// Derive every node's rows_in as the sum of its children's rows_out.
  void FinalizeRowsIn();
};

/// Wraps an operator, recording produced rows and inclusive wall time into
/// profile->ops[index]. Created only under EXPLAIN ANALYZE, so normal
/// execution pays nothing.
class ProfiledSource : public RowSource {
 public:
  ProfiledSource(std::unique_ptr<RowSource> inner, PlanProfile* profile,
                 size_t index)
      : inner_(std::move(inner)), profile_(profile), index_(index) {}
  Status Next(Row* row) override;

 private:
  std::unique_ptr<RowSource> inner_;
  PlanProfile* profile_;
  size_t index_;
};

}  // namespace dmx

#endif  // DMX_QUERY_EXECUTOR_H_
