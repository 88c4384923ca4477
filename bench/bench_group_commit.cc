// Group commit — commit throughput vs committer count under the two
// durability contracts:
//
//   * strict (the default): leader/follower group commit — one leader
//     fsyncs the whole buffered batch while followers wait on the flush
//     condvar, so N concurrent committers share ~1 fsync.
//   * relaxed (DatabaseOptions::durability = kRelaxed): commit
//     acknowledges at WAL-append; the background flusher makes the tail
//     durable within its cadence.
//
// The interesting read is items_per_second at Threads(16)/Threads(32):
// strict commit should scale near-linearly with committers, and
// Threads(1) is the single-writer strict latency (one fsync per commit,
// see EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>

#include "bench/bench_util.h"

namespace dmx {
namespace bench {
namespace {

/// One database per durability contract, shared by every thread count so
/// repeated runs keep appending fresh keys.
class ModeDb {
 public:
  explicit ModeDb(Durability durability) : dir_("group_commit") {
    DatabaseOptions options;
    options.dir = dir_.path() + "/db";
    options.durability = durability;
    BenchCheck(Database::Open(options, &db_), "open");
    Transaction* ddl = db_->Begin();
    Schema schema({{"k", TypeId::kInt64, false},
                   {"v", TypeId::kString, true}});
    BenchCheck(db_->CreateRelation(ddl, "t", schema, "heap", {}), "create");
    BenchCheck(db_->Commit(ddl), "ddl");
  }

  Database* db() { return db_.get(); }
  int64_t NextKey() { return next_key_.fetch_add(1); }

 private:
  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::atomic<int64_t> next_key_{0};
};

ModeDb* GroupDb() {
  // Pure leader/follower batching — the batch is whatever accumulated
  // during the previous leader's fsync.
  static ModeDb* fixture = new ModeDb(Durability::kStrict);
  return fixture;
}

ModeDb* RelaxedDb() {
  static ModeDb* fixture = new ModeDb(Durability::kRelaxed);
  return fixture;
}

void CommitLoop(benchmark::State& state, ModeDb* fixture) {
  Database* db = fixture->db();
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    BenchCheck(db->Insert(txn, "t",
                          {Value::Int(fixture->NextKey()),
                           Value::String("payload")}),
               "insert");
    BenchCheck(db->Commit(txn), "commit");
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CommitGroup(benchmark::State& state) {
  CommitLoop(state, GroupDb());
}
BENCHMARK(BM_CommitGroup)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->Threads(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CommitRelaxed(benchmark::State& state) {
  CommitLoop(state, RelaxedDb());
}
BENCHMARK(BM_CommitRelaxed)
    ->Threads(1)
    ->Threads(16)
    ->Threads(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("group_commit")
