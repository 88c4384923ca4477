#include "src/query/executor.h"

#include "src/sm/key_codec.h"
#include "src/util/thread_pool.h"

namespace dmx {

AccessSource::AccessSource(Database* db, Transaction* txn,
                           const BoundPlan* plan,
                           const std::vector<Value>* params)
    : db_(db), txn_(txn), plan_(plan), params_(params) {}

Status AccessSource::Open() {
  opened_ = true;
  const AccessPlan& access = plan_->access;
  const RelationDescriptor* desc = plan_->relation.get();
  ScanSpec spec = access.spec;
  spec.params = params_;
  std::string probe_key;
  DMX_RETURN_IF_ERROR(BindAccessKey(*db_->evaluator(), access, desc->schema,
                                    params_, &spec, &probe_key, &empty_));
  if (empty_) return Status::OK();
  if (access.probe) {
    probe_results_.clear();
    probe_pos_ = 0;
    return db_->LookupOn(txn_, desc, access.path, Slice(probe_key),
                         &probe_results_);
  }
  return db_->OpenScanOn(txn_, desc, access.path, spec, &scan_);
}

Status AccessSource::Next(Row* row) {
  if (!opened_) DMX_RETURN_IF_ERROR(Open());
  if (empty_) return Status::NotFound("no key qualifies");
  const AccessPlan& access = plan_->access;
  const Schema* schema = &plan_->relation->schema;
  while (true) {
    std::string record_key;
    std::string access_key;
    RecordView direct_view;
    if (access.probe) {
      if (probe_pos_ >= probe_results_.size()) {
        return Status::NotFound("end of probe");
      }
      record_key = probe_results_[probe_pos_++];
    } else {
      ScanItem item;
      Status s = scan_->Next(&item);
      if (s.IsNotFound()) return Status::NotFound("end of scan");
      DMX_RETURN_IF_ERROR(s);
      record_key = std::move(item.record_key);
      access_key = std::move(item.access_key);
      direct_view = item.view;
    }

    if (direct_view.valid() && !access.needs_fetch) {
      // Storage-method scan: the filter already ran in the buffer pool.
      // Materialize only the fields the query reads ("returns selected
      // data fields"); unread fields stay NULL.
      if (access.needed_fields.empty()) {
        row->values = direct_view.GetValues();
      } else {
        row->values.assign(schema->num_columns(), Value());
        for (int f : access.needed_fields) {
          row->values[static_cast<size_t>(f)] =
              direct_view.GetValue(static_cast<size_t>(f));
        }
      }
      row->record_key = std::move(record_key);
      return Status::OK();
    }

    if (access.index_only) {
      // Decode the needed fields straight from the access-path key — the
      // storage method is never touched.
      std::vector<TypeId> types;
      types.reserve(access.key_fields.size());
      for (int f : access.key_fields) {
        types.push_back(
            schema->column(static_cast<size_t>(f)).type);
      }
      std::vector<Value> decoded;
      DMX_RETURN_IF_ERROR(
          DecodeFieldKey(Slice(access_key), types, &decoded));
      std::vector<Value> values(schema->num_columns());
      for (size_t i = 0; i < access.key_fields.size(); ++i) {
        values[static_cast<size_t>(access.key_fields[i])] =
            std::move(decoded[i]);
      }
      if (access.residual != nullptr) {
        bool passes = false;
        DMX_RETURN_IF_ERROR(db_->evaluator()->EvalPredicate(
            *access.residual, values, &passes, params_));
        if (!passes) continue;
      }
      row->values = std::move(values);
      row->record_key = std::move(record_key);
      return Status::OK();
    }

    // Access-path protocol: fetch the record via the storage method, then
    // re-check the residual predicate.
    std::string record;
    Status fs = db_->FetchRecord(txn_, plan_->relation.get(),
                                 Slice(record_key), &record);
    if (fs.IsNotFound()) continue;  // key raced a delete; skip
    DMX_RETURN_IF_ERROR(fs);
    RecordView view{Slice(record), schema};
    if (access.residual != nullptr) {
      bool passes = false;
      DMX_RETURN_IF_ERROR(db_->evaluator()->EvalPredicate(
          *access.residual, view, &passes, params_));
      if (!passes) continue;
    }
    row->values = view.GetValues();
    row->record_key = std::move(record_key);
    return Status::OK();
  }
}

Status FilterSource::Next(Row* row) {
  while (true) {
    Status s = child_->Next(row);
    if (!s.ok()) return s;
    if (predicate_ == nullptr) return Status::OK();
    bool passes = false;
    DMX_RETURN_IF_ERROR(db_->evaluator()->EvalPredicate(
        *predicate_, row->values, &passes, params_));
    if (passes) return Status::OK();
  }
}

Status ProjectSource::Next(Row* row) {
  Row child_row;
  Status s = child_->Next(&child_row);
  if (!s.ok()) return s;
  row->values.clear();
  row->values.reserve(columns_.size());
  for (int c : columns_) {
    row->values.push_back(child_row.values[static_cast<size_t>(c)]);
  }
  row->record_key = std::move(child_row.record_key);
  return Status::OK();
}

Status NestedLoopJoinSource::Next(Row* row) {
  while (true) {
    if (!outer_valid_) {
      Status s = outer_->Next(&outer_row_);
      if (!s.ok()) return s;  // NotFound ends the join
      outer_valid_ = true;
      DMX_RETURN_IF_ERROR(inner_factory_(&inner_));
    }
    Row inner_row;
    Status s = inner_->Next(&inner_row);
    if (s.IsNotFound()) {
      outer_valid_ = false;  // next outer row
      continue;
    }
    DMX_RETURN_IF_ERROR(s);
    row->values = outer_row_.values;
    row->values.insert(row->values.end(), inner_row.values.begin(),
                       inner_row.values.end());
    row->record_key.clear();
    if (predicate_ != nullptr) {
      bool passes = false;
      DMX_RETURN_IF_ERROR(db_->evaluator()->EvalPredicate(
          *predicate_, row->values, &passes, params_));
      if (!passes) continue;
    }
    return Status::OK();
  }
}

Status IndexJoinSource::Next(Row* row) {
  while (true) {
    if (!outer_valid_) {
      Status s = outer_->Next(&outer_row_);
      if (!s.ok()) return s;
      outer_valid_ = true;
      // Compose the probe key from the outer row's join columns.
      std::string key;
      bool null = false;
      for (size_t i = 0; i < outer_key_columns_.size() && !null; ++i) {
        const Value& v =
            outer_row_.values[static_cast<size_t>(outer_key_columns_[i])];
        const TypeId type =
            inner_->schema.column(static_cast<size_t>(inner_key_fields_[i]))
                .type;
        DMX_RETURN_IF_ERROR(AppendKeyOperand(v, type, &key, &null));
      }
      matches_.clear();
      match_pos_ = 0;
      if (!null) {
        DMX_RETURN_IF_ERROR(
            db_->LookupOn(txn_, inner_, inner_path_, Slice(key), &matches_));
      }
    }
    if (match_pos_ >= matches_.size()) {
      outer_valid_ = false;
      continue;
    }
    const std::string& record_key = matches_[match_pos_++];
    std::string record;
    Status fs = db_->FetchRecord(txn_, inner_, Slice(record_key), &record);
    if (fs.IsNotFound()) continue;
    DMX_RETURN_IF_ERROR(fs);
    RecordView view{Slice(record), &inner_->schema};
    row->values = outer_row_.values;
    std::vector<Value> inner_values = view.GetValues();
    row->values.insert(row->values.end(), inner_values.begin(),
                       inner_values.end());
    row->record_key.clear();
    return Status::OK();
  }
}

Status AggregateSource::Next(Row* row) {
  if (done_) return Status::NotFound("aggregate consumed");
  done_ = true;
  uint64_t count = 0;
  double sum = 0;
  Value min_v, max_v;
  Row child_row;
  while (true) {
    Status s = child_->Next(&child_row);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    ++count;
    if (kind_ == AggKind::kCount) continue;
    const Value& v = child_row.values[static_cast<size_t>(column_)];
    if (v.is_null()) continue;
    sum += v.AsDouble();
    if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
    if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
  }
  row->record_key.clear();
  row->values.clear();
  switch (kind_) {
    case AggKind::kCount:
      row->values.push_back(Value::Int(static_cast<int64_t>(count)));
      break;
    case AggKind::kSum:
      row->values.push_back(Value::Double(sum));
      break;
    case AggKind::kAvg:
      row->values.push_back(
          count == 0 ? Value::Null()
                     : Value::Double(sum / static_cast<double>(count)));
      break;
    case AggKind::kMin:
      row->values.push_back(min_v);
      break;
    case AggKind::kMax:
      row->values.push_back(max_v);
      break;
  }
  return Status::OK();
}

// -- parallel scan ------------------------------------------------------------

namespace {

// Tuning: morsels big enough to amortise a queue handoff, queue bounded so
// fast workers cannot run arbitrarily ahead of a slow consumer.
constexpr size_t kMorselRows = 256;
constexpr size_t kMaxQueuedMorsels = 16;

Counter* ParallelScansCounter() {
  static Counter* c = MetricsRegistry::Global()->GetCounter("parallel.scans");
  return c;
}

Counter* ParallelMorselsCounter() {
  static Counter* c =
      MetricsRegistry::Global()->GetCounter("parallel.morsels");
  return c;
}

Histogram* QueueWaitHistogram() {
  static Histogram* h =
      MetricsRegistry::Global()->GetHistogram("parallel.queue_wait_ns");
  return h;
}

}  // namespace

ParallelScanSource::ParallelScanSource(Database* db, Transaction* txn,
                                       const BoundPlan* plan, int workers,
                                       const std::vector<Value>* params)
    : db_(db),
      txn_(txn),
      plan_(plan),
      target_workers_(workers),
      params_(params) {}

ParallelScanSource::~ParallelScanSource() {
  MutexLock lock(&mu_);
  cancel_.store(true, std::memory_order_relaxed);
  not_full_.NotifyAll();
  not_empty_.NotifyAll();
  while (active_ != 0) not_empty_.Wait();
}

void ParallelScanSource::EnablePartialAggregate(AggKind kind, int column) {
  agg_enabled_ = true;
  agg_kind_ = kind;
  agg_column_ = column;
}

void ParallelScanSource::EnableProfile(PlanProfile* profile,
                                       std::vector<size_t> worker_nodes) {
  profile_ = profile;
  profile_nodes_ = std::move(worker_nodes);
}

Status ParallelScanSource::Open() {
  opened_ = true;
  const AccessPlan& access = plan_->access;
  const RelationDescriptor* desc = plan_->relation.get();
  // Bound exactly as AccessSource binds it; the partitions inherit the
  // parameters, so every worker's filter sees this execution's values.
  ScanSpec spec = access.spec;
  spec.params = params_;
  std::string probe_key;  // storage-method scans never probe
  bool empty = false;
  DMX_RETURN_IF_ERROR(BindAccessKey(*db_->evaluator(), access, desc->schema,
                                    params_, &spec, &probe_key, &empty));
  if (empty) return Status::OK();  // no workers: Next reports the end
  std::vector<ScanSpec> partitions;
  Status ps =
      db_->PartitionScan(txn_, desc, spec, target_workers_, &partitions);
  if (ps.IsNotSupported() || partitions.empty()) {
    partitions.assign(1, spec);  // serial fallback, same machinery
  } else if (!ps.ok()) {
    return ps;
  }
  // Scans open serially on the consumer thread: OpenScanOn takes
  // transaction locks, and the lock manager tracks them per transaction,
  // not per thread.
  scans_.clear();
  for (const ScanSpec& sub : partitions) {
    std::unique_ptr<Scan> scan;
    DMX_RETURN_IF_ERROR(db_->OpenScanOn(txn_, desc, access.path, sub, &scan));
    scans_.push_back(std::move(scan));
  }
  ParallelScansCounter()->Increment();
  {
    MutexLock lock(&mu_);
    active_ = scans_.size();
  }
  for (size_t i = 0; i < scans_.size(); ++i) {
    db_->thread_pool()->Submit([this, i] { RunWorker(i); });
  }
  return Status::OK();
}

bool ParallelScanSource::PushMorsel(Morsel m) {
  {
    MutexLock lock(&mu_);
    if (queue_.size() >= kMaxQueuedMorsels) {
      const uint64_t start = MetricsNowNanos();
      while (!cancel_.load(std::memory_order_relaxed) &&
             queue_.size() >= kMaxQueuedMorsels) {
        not_full_.Wait();
      }
      QueueWaitHistogram()->Record(MetricsNowNanos() - start);
    }
    if (cancel_.load(std::memory_order_relaxed)) return false;
    queue_.push_back(std::move(m));
  }
  not_empty_.NotifyOne();
  ParallelMorselsCounter()->Increment();
  return true;
}

void ParallelScanSource::RunWorker(size_t idx) {
  const uint64_t start = MetricsNowNanos();
  Scan* scan = scans_[idx].get();
  const AccessPlan& access = plan_->access;
  const Schema* schema = &plan_->relation->schema;
  uint64_t produced = 0;

  // Partial-aggregate state, mirroring AggregateSource exactly: count
  // counts every row, sum/min/max skip nulls.
  uint64_t count = 0;
  double sum = 0;
  Value min_v, max_v;

  Morsel morsel;
  Status error;
  while (!cancel_.load(std::memory_order_relaxed)) {
    ScanItem item;
    Status s = scan->Next(&item);
    if (s.IsNotFound()) break;
    if (!s.ok()) {
      error = s;
      break;
    }
    // Materialize exactly as AccessSource does for storage-method scans:
    // the filter already ran in the buffer pool; only needed fields.
    Row row;
    if (access.needed_fields.empty()) {
      row.values = item.view.GetValues();
    } else {
      row.values.assign(schema->num_columns(), Value());
      for (int f : access.needed_fields) {
        row.values[static_cast<size_t>(f)] =
            item.view.GetValue(static_cast<size_t>(f));
      }
    }
    row.record_key = std::move(item.record_key);
    if (agg_enabled_) {
      ++count;
      if (agg_kind_ != AggKind::kCount) {
        const Value& v = row.values[static_cast<size_t>(agg_column_)];
        if (!v.is_null()) {
          sum += v.AsDouble();
          if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
          if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
        }
      }
      continue;
    }
    ++produced;
    morsel.rows.push_back(std::move(row));
    if (morsel.rows.size() >= kMorselRows) {
      if (!PushMorsel(std::move(morsel))) break;
      morsel = Morsel();
    }
  }
  if (error.ok() && agg_enabled_ &&
      !cancel_.load(std::memory_order_relaxed)) {
    Row partial;
    partial.values = {Value::Int(static_cast<int64_t>(count)),
                      Value::Double(sum), min_v, max_v};
    morsel.rows.push_back(std::move(partial));
    produced = count;  // profile the scan side, not the 1-row partial
  }
  if (error.ok() && !morsel.rows.empty()) PushMorsel(std::move(morsel));

  if (profile_ != nullptr && idx < profile_nodes_.size()) {
    // One node per worker, this worker the only writer; the queue mutex
    // below publishes the stores before the consumer reads the profile.
    OperatorStats& st = profile_->ops[profile_nodes_[idx]];
    st.rows_out = produced;
    st.wall_ns = MetricsNowNanos() - start;
  }

  {
    MutexLock lock(&mu_);
    if (!error.ok() && error_.ok()) {
      error_ = error;
      cancel_.store(true, std::memory_order_relaxed);
    }
    --active_;
    // Wake the consumer (stream may be over) and siblings blocked on a
    // full queue after a cancel. Notified under the mutex: once active_
    // hits zero the destructor may tear the condvars down, so the last
    // worker must not touch them outside the lock.
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }
}

Status ParallelScanSource::Next(Row* row) {
  if (!opened_) DMX_RETURN_IF_ERROR(Open());
  while (true) {
    if (current_pos_ < current_.size()) {
      *row = std::move(current_[current_pos_++]);
      return Status::OK();
    }
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && active_ != 0 && error_.ok()) {
        not_empty_.Wait();
      }
      if (!error_.ok()) return error_;  // first worker failure wins
      if (queue_.empty()) return Status::NotFound("end of parallel scan");
      current_ = std::move(queue_.front().rows);
      queue_.pop_front();
      current_pos_ = 0;
    }
    not_full_.NotifyOne();
  }
}

Status ParallelAggregateMergeSource::Next(Row* row) {
  if (done_) return Status::NotFound("aggregate consumed");
  done_ = true;
  uint64_t count = 0;
  double sum = 0;
  Value min_v, max_v;
  Row partial;
  while (true) {
    Status s = child_->Next(&partial);
    if (s.IsNotFound()) break;
    DMX_RETURN_IF_ERROR(s);
    count += static_cast<uint64_t>(partial.values[0].int_value());
    sum += partial.values[1].AsDouble();
    const Value& pmin = partial.values[2];
    const Value& pmax = partial.values[3];
    if (!pmin.is_null() && (min_v.is_null() || pmin.Compare(min_v) < 0)) {
      min_v = pmin;
    }
    if (!pmax.is_null() && (max_v.is_null() || pmax.Compare(max_v) > 0)) {
      max_v = pmax;
    }
  }
  row->record_key.clear();
  row->values.clear();
  switch (kind_) {
    case AggKind::kCount:
      row->values.push_back(Value::Int(static_cast<int64_t>(count)));
      break;
    case AggKind::kSum:
      row->values.push_back(Value::Double(sum));
      break;
    case AggKind::kAvg:
      row->values.push_back(
          count == 0 ? Value::Null()
                     : Value::Double(sum / static_cast<double>(count)));
      break;
    case AggKind::kMin:
      row->values.push_back(min_v);
      break;
    case AggKind::kMax:
      row->values.push_back(max_v);
      break;
  }
  return Status::OK();
}

Status CollectRows(RowSource* source, std::vector<Row>* rows) {
  rows->clear();
  Row row;
  while (true) {
    Status s = source->Next(&row);
    if (s.IsNotFound()) return Status::OK();
    DMX_RETURN_IF_ERROR(s);
    rows->push_back(std::move(row));
  }
}

size_t PlanProfile::Add(std::string name, std::vector<size_t> children) {
  OperatorStats st;
  st.name = std::move(name);
  st.children = std::move(children);
  ops.push_back(std::move(st));
  return ops.size() - 1;
}

void PlanProfile::FinalizeRowsIn() {
  for (OperatorStats& op : ops) {
    op.rows_in = 0;
    for (size_t child : op.children) op.rows_in += ops[child].rows_out;
  }
}

Status ProfiledSource::Next(Row* row) {
  OperatorStats& st = profile_->ops[index_];
  const uint64_t start = MetricsNowNanos();
  Status s = inner_->Next(row);
  st.wall_ns += MetricsNowNanos() - start;
  if (s.ok()) ++st.rows_out;
  return s;
}

}  // namespace dmx
