// E8 — deferred actions. "Certain integrity constraints cannot be
// evaluated when a single modification occurs but must be evaluated after
// all of the modifications have been made in the transaction."
//
// Batch-updates N rows under (a) an immediate check constraint re-evaluated
// per modification and (b) a deferred check evaluated once per touched row
// at the before-prepare event. Also shows the semantic difference: a batch
// that is transiently invalid commits under (b) and fails under (a).

#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_util.h"
#include "src/attach/check_constraint.h"

namespace dmx {
namespace bench {
namespace {

constexpr uint64_t kRows = 2000;

ScopedDb* DbWith(const char* attachment) {
  static std::map<std::string, std::unique_ptr<ScopedDb>>* dbs =
      new std::map<std::string, std::unique_ptr<ScopedDb>>();
  auto it = dbs->find(attachment);
  if (it != dbs->end()) return it->second.get();
  auto holder = std::make_unique<ScopedDb>(kRows);
  Database* db = holder->db();
  if (std::string(attachment) != "none") {
    Transaction* txn = db->Begin();
    auto pred = Expr::Cmp(ExprOp::kGe, 2, Value::Double(0.0));
    BenchCheck(
        db->CreateAttachment(txn, "bench", attachment,
                             {{"predicate", EncodePredicateAttr(pred)}}),
        "attach");
    BenchCheck(db->Commit(txn), "ddl");
  }
  ScopedDb* raw = holder.get();
  (*dbs)[attachment] = std::move(holder);
  return raw;
}

void RunBatchUpdate(benchmark::State& state, const char* attachment) {
  ScopedDb* holder = DbWith(attachment);
  Database* db = holder->db();
  const RelationDescriptor* desc = holder->desc();
  const int64_t batch = state.range(0);
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    // Touch `batch` rows via a scan collecting keys, then update each.
    std::vector<std::pair<std::string, std::vector<Value>>> targets;
    {
      std::unique_ptr<Scan> scan;
      BenchCheck(db->OpenScanOn(txn, desc, AccessPathId::StorageMethod(),
                                ScanSpec{}, &scan),
                 "scan");
      ScanItem item;
      while (static_cast<int64_t>(targets.size()) < batch &&
             scan->Next(&item).ok()) {
        targets.emplace_back(item.record_key, item.view.GetValues());
      }
    }
    for (auto& [key, values] : targets) {
      values[2] = Value::Double(values[2].AsDouble() + 1.0);
      std::string new_key;
      BenchCheck(db->UpdateRecord(
                     txn, desc,
                     Slice(key),
                     [&] {
                       Record rec;
                       BenchCheck(Record::Encode(desc->schema, values, &rec),
                                  "encode");
                       return rec;
                     }()
                         .slice(),
                     &new_key),
                 "update");
    }
    BenchCheck(db->Commit(txn), "commit");
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_NoConstraint(benchmark::State& state) {
  RunBatchUpdate(state, "none");
}
BENCHMARK(BM_NoConstraint)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_ImmediateCheck(benchmark::State& state) {
  RunBatchUpdate(state, "check");
}
BENCHMARK(BM_ImmediateCheck)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_DeferredCheck(benchmark::State& state) {
  RunBatchUpdate(state, "deferred_check");
}
BENCHMARK(BM_DeferredCheck)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// Semantics: a transiently-invalid batch (debit then credit) only commits
// under the deferred constraint. Reported as counters: 1 = committed.
void BM_TransientViolationSemantics(benchmark::State& state) {
  const char* attachment = state.range(0) == 0 ? "check" : "deferred_check";
  state.SetLabel(attachment);
  ScopedDb* holder = DbWith(attachment);
  Database* db = holder->db();
  const RelationDescriptor* desc = holder->desc();
  double committed = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    std::string key;
    std::vector<Value> row;
    {
      std::unique_ptr<Scan> scan;
      BenchCheck(db->OpenScanOn(txn, desc, AccessPathId::StorageMethod(),
                                ScanSpec{}, &scan),
                 "scan");
      ScanItem item;
      BenchCheck(scan->Next(&item), "first");
      key = item.record_key;
      row = item.view.GetValues();
    }
    auto update_score = [&](double score) -> Status {
      row[2] = Value::Double(score);
      Record rec;
      BenchCheck(Record::Encode(desc->schema, row, &rec), "encode");
      std::string new_key;
      Status s = db->UpdateRecord(txn, desc, Slice(key), rec.slice(),
                                  &new_key);
      if (s.ok()) key = new_key;
      return s;
    };
    Status s = update_score(-5.0);         // transiently invalid
    if (s.ok()) s = update_score(100.0);   // fixed before commit
    if (s.ok()) {
      s = db->Commit(txn);
    } else {
      (void)db->Abort(txn);  // the failed update is what is measured
    }
    committed = s.ok() ? 1 : 0;
  }
  state.counters["committed"] = committed;
}
BENCHMARK(BM_TransientViolationSemantics)->Arg(0)->Arg(1);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("deferred")
