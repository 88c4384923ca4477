#include "src/query/planner.h"

#include <algorithm>
#include <limits>

#include "src/sm/key_codec.h"

namespace dmx {

namespace {
// Parallel scans only pay off past a cardinality floor, and each worker
// needs enough rows that partitioning beats the exchange overhead.
constexpr uint64_t kParallelRowThreshold = 8192;
constexpr uint64_t kParallelMinRowsPerWorker = 4096;
}  // namespace

std::string AccessPlan::DebugString(const ExtensionRegistry* registry) const {
  if (path.is_storage_method()) return "storage-method scan";
  std::string name = registry->at_ops(path.at_id()).name;
  std::string out = name + "#" + std::to_string(path.instance);
  if (index_only) out += " (index-only)";
  return out;
}

Status EnumerateAccessPaths(Database* db, Transaction* txn,
                            const RelationDescriptor* desc,
                            const std::vector<ExprPtr>& conjuncts,
                            std::vector<AccessCandidate>* out) {
  out->clear();
  // Access path zero: the storage method.
  {
    AccessCandidate c;
    c.path = AccessPathId::StorageMethod();
    DMX_RETURN_IF_ERROR(db->EstimateCost(txn, desc, c.path, conjuncts,
                                         &c.cost));
    out->push_back(std::move(c));
  }
  // Every instance of every access-path attachment type present.
  const ExtensionRegistry* registry = db->registry();
  for (AtId at = 0; at < registry->num_attachment_types(); ++at) {
    if (!desc->HasAttachment(at)) continue;
    const AtOps& ops = registry->at_ops(at);
    if (ops.cost == nullptr || ops.list_instances == nullptr) continue;
    std::vector<uint32_t> instances;
    DMX_RETURN_IF_ERROR(
        ops.list_instances(Slice(desc->at_desc[at]), &instances));
    for (uint32_t inst : instances) {
      // Quarantined instances never become access paths: queries degrade
      // to the base-relation scan until REPAIR clears the damage record.
      if (desc->IsQuarantined(at, inst)) continue;
      AccessCandidate c;
      c.path = AccessPathId::Attachment(at, inst);
      DMX_RETURN_IF_ERROR(
          db->EstimateCost(txn, desc, c.path, conjuncts, &c.cost));
      if (c.cost.usable) out->push_back(std::move(c));
    }
  }
  return Status::OK();
}

namespace {

// Record the key operands of an attachment path: the longest equality
// prefix over the leading key fields, then the range operands on the next
// field (the paper's partial-key access).
void CollectKeyOperands(const std::vector<ExprPtr>& conjuncts,
                        const std::vector<int>& key_fields, KeyOperands* key) {
  auto eq_operand = [&](int field) -> ExprPtr {
    for (const ExprPtr& c : conjuncts) {
      int f;
      ExprOp op;
      ExprPtr operand;
      if (MatchFieldCompare(c, &f, &op, &operand) && f == field &&
          op == ExprOp::kEq) {
        return operand;
      }
    }
    return nullptr;
  };
  for (int field : key_fields) {
    ExprPtr operand = eq_operand(field);
    if (operand == nullptr) break;
    key->eq.push_back(std::move(operand));
  }
  if (key->eq.size() == key_fields.size()) return;
  const int next = key_fields[key->eq.size()];
  for (const ExprPtr& c : conjuncts) {
    int f;
    ExprOp op;
    ExprPtr operand;
    if (!MatchFieldCompare(c, &f, &op, &operand) || f != next) continue;
    switch (op) {
      case ExprOp::kGt:
      case ExprOp::kGe:
        key->low.push_back(std::move(operand));
        break;
      case ExprOp::kLt:
      case ExprOp::kLe:
        key->high.push_back(std::move(operand));
        break;
      default:
        break;
    }
  }
}

// Does `needed` (field indexes) fall entirely inside `key_fields`?
bool CoveredBy(const std::vector<int>& needed,
               const std::vector<int>& key_fields) {
  for (int f : needed) {
    bool found = false;
    for (int k : key_fields) found |= (k == f);
    if (!found) return false;
  }
  return true;
}

}  // namespace

Status PlanAccess(Database* db, Transaction* txn,
                  const RelationDescriptor* desc, const ExprPtr& predicate,
                  AccessPlan* out, const std::vector<int>* needed_fields,
                  const AccessPathId* only_path) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(predicate, &conjuncts);

  std::vector<AccessCandidate> candidates;
  DMX_RETURN_IF_ERROR(
      EnumerateAccessPaths(db, txn, desc, conjuncts, &candidates));

  const ExtensionRegistry* registry = db->registry();

  // Effective cost of a candidate: index-only plans (all needed fields in
  // the access key) skip the record fetches.
  auto key_fields_of = [&](const AccessCandidate& c,
                           std::vector<int>* fields) {
    if (c.path.is_storage_method()) return false;
    const AtOps& ops = registry->at_ops(c.path.at_id());
    if (ops.instance_fields == nullptr) return false;
    return ops.instance_fields(Slice(desc->at_desc[c.path.at_id()]),
                               c.path.instance, fields)
        .ok();
  };
  auto can_cover = [&](const AccessCandidate& c) {
    if (needed_fields == nullptr || c.path.is_storage_method()) return false;
    std::vector<int> key_fields;
    if (!key_fields_of(c, &key_fields)) return false;
    // The residual predicate also runs against the decoded key fields, so
    // every field the predicate touches must be covered too.
    std::vector<int> all_needed = *needed_fields;
    if (predicate != nullptr) predicate->CollectFields(&all_needed);
    return CoveredBy(all_needed, key_fields);
  };
  auto effective_total = [&](const AccessCandidate& c) {
    double total = c.cost.total();
    if (can_cover(c)) total -= c.cost.fetch_cost;
    return total;
  };

  const AccessCandidate* best = nullptr;
  double best_total = std::numeric_limits<double>::infinity();
  for (const AccessCandidate& c : candidates) {
    if (!c.cost.usable) continue;
    if (only_path != nullptr && !(c.path == *only_path)) continue;
    double total = effective_total(c);
    if (best == nullptr || total < best_total) {
      best = &c;
      best_total = total;
    }
  }
  if (best == nullptr) {
    return Status::Internal("no usable access path");
  }

  out->path = best->path;
  out->cost = best->cost;
  out->spec = ScanSpec();
  out->key = KeyOperands();
  out->probe = false;
  out->residual = nullptr;
  out->needs_fetch = false;
  out->index_only = false;
  out->key_fields.clear();
  out->needed_fields.clear();
  out->parallel_workers = 0;
  out->value_dependent = false;
  for (const AccessCandidate& c : candidates) {
    out->value_dependent |= c.cost.value_dependent;
  }
  if (needed_fields != nullptr) {
    out->needed_fields = *needed_fields;
    if (predicate != nullptr) predicate->CollectFields(&out->needed_fields);
    out->spec.fields = out->needed_fields;
  }

  if (best->path.is_storage_method()) {
    // The storage-method scan evaluates the whole predicate itself, while
    // the record bytes are still in the buffer pool.
    out->spec.filter = predicate;
    // Parallel eligibility: the method must know how to partition, the
    // pool must have at least two threads, and the scan must be large
    // enough that the exchange overhead amortises. cpu_cost for a full
    // storage-method scan is the record count.
    const SmOps& sm = db->registry()->sm_ops(desc->sm_id);
    uint64_t est_rows = static_cast<uint64_t>(best->cost.cpu_cost);
    if (sm.partition_scan != nullptr && db->worker_threads() >= 2 &&
        est_rows >= kParallelRowThreshold) {
      out->parallel_workers = static_cast<int>(
          std::min<uint64_t>(db->worker_threads(),
                             est_rows / kParallelMinRowsPerWorker));
    }
    return Status::OK();
  }

  // Access-path scans return keys; the executor re-checks the whole
  // predicate (correct even where the key range already guarantees some
  // conjuncts).
  out->residual = predicate;
  std::vector<int> key_fields;
  key_fields_of(*best, &key_fields);
  out->key_fields = key_fields;
  if (can_cover(*best)) {
    out->index_only = true;
    out->needs_fetch = false;
  } else {
    out->needs_fetch = true;
  }

  const AtOps& ops = registry->at_ops(best->path.at_id());
  const std::string name = ops.name;
  if (name == "rtree_index") {
    // The rtree scan extracts its query rectangle from the pushed filter;
    // it returns record keys only.
    out->spec.filter = predicate;
    out->index_only = false;
    out->needs_fetch = true;
    return Status::OK();
  }
  CollectKeyOperands(conjuncts, key_fields, &out->key);
  if (name == "hash_index") {
    if (out->key.eq.size() != key_fields.size()) {
      return Status::Internal("hash path chosen without equality cover");
    }
    out->probe = true;
    // Probe results carry no access key, so hash paths always fetch.
    out->index_only = false;
    out->needs_fetch = true;
  }
  // Ordered paths (btree_index and future ordered access paths) scan the
  // key range BindAccessKey builds from the operands.
  return Status::OK();
}

Status BindAccessKey(const ExprEvaluator& evaluator, const AccessPlan& plan,
                     const Schema& schema,
                     const std::vector<Value>* params, ScanSpec* spec,
                     std::string* probe_key, bool* empty) {
  *empty = false;
  const KeyOperands& key = plan.key;
  if (key.eq.empty() && key.low.empty() && key.high.empty()) {
    return Status::OK();  // nothing to bound: a full scan of the path
  }
  auto eval = [&](const std::vector<ExprPtr>& operands,
                  std::vector<Value>* values) -> Status {
    values->resize(operands.size());
    for (size_t i = 0; i < operands.size(); ++i) {
      DMX_RETURN_IF_ERROR(
          evaluator.EvalConst(*operands[i], &(*values)[i], params));
    }
    return Status::OK();
  };
  KeyOperandValues values;
  DMX_RETURN_IF_ERROR(eval(key.eq, &values.eq));
  if (!plan.probe) {
    DMX_RETURN_IF_ERROR(eval(key.low, &values.low));
    DMX_RETURN_IF_ERROR(eval(key.high, &values.high));
  }
  std::vector<TypeId> types;
  for (int f : plan.key_fields) {
    types.push_back(schema.column(static_cast<size_t>(f)).type);
  }
  std::string prefix;
  std::optional<std::string> low, high;
  DMX_RETURN_IF_ERROR(
      EncodeKeyRange(values, types, &prefix, &low, &high, empty));
  if (*empty) return Status::OK();
  if (plan.probe) {
    *probe_key = std::move(prefix);
    return Status::OK();
  }
  spec->low_key = std::move(low);
  spec->low_inclusive = true;
  spec->high_key = std::move(high);
  spec->high_inclusive = true;
  return Status::OK();
}

}  // namespace dmx
