// Fault-free overhead of the graceful-degradation machinery: the
// per-operation degraded-mode gate (one atomic load when healthy), the
// Busy construction cost when degraded, fault classification, and the
// end-to-end insert+commit path now that every durable byte goes through
// the RetryingEnv and every write is gated on the ErrorHandler. Compare
// BM_InsertCommitDegradedGate against faultfree_overhead's
// BM_InsertCommitDurable: the delta is the price of this subsystem.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "src/core/error_handler.h"

namespace dmx {
namespace bench {
namespace {

// The hot-path cost every relation modification now pays: one acquire
// load on the healthy fast path.
void BM_WritableGateHealthy(benchmark::State& state) {
  ErrorHandler eh;  // never started, never degraded
  for (auto _ : state) {
    benchmark::DoNotOptimize(eh.CheckWritable());
  }
}
BENCHMARK(BM_WritableGateHealthy);

// The refusal path while degraded: builds the descriptive Busy. Cold by
// definition (writes are being refused), benchmarked to keep it from
// accidentally becoming pathological.
void BM_WritableGateDegraded(benchmark::State& state) {
  ErrorHandler eh;  // no recovery thread: stays degraded
  eh.ReportWriteFailure("wal commit force",
                        // deeplint: allow(status-discipline, fault input)
                        Status::RetryableIOError("no space left on device"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eh.CheckWritable());
  }
}
BENCHMARK(BM_WritableGateDegraded);

// Taxonomy classification of a failed Status (runs on every reported
// write failure).
void BM_ClassifyStatus(benchmark::State& state) {
  // deeplint: allow(status-discipline, bench fabricates classifier inputs)
  const Status transient = Status::RetryableIOError("enospc");
  const Status hard = Status::Corruption("bad crc");
  // deeplint: allow(status-discipline, bench fabricates classifier inputs)
  const Status fatal = Status::IOError("foreign server unreachable");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ErrorHandler::Classify(transient));
    benchmark::DoNotOptimize(ErrorHandler::Classify(hard));
    benchmark::DoNotOptimize(ErrorHandler::Classify(fatal));
  }
}
BENCHMARK(BM_ClassifyStatus);

// End-to-end durable insert+commit with the full degradation machinery in
// place: RetryingEnv wrapping every file operation, the write gate on the
// insert path, and the recovery thread parked on its condvar.
void BM_InsertCommitDegradedGate(benchmark::State& state) {
  ScopedDb sdb(0);
  int64_t id = 0;
  for (auto _ : state) {
    Transaction* txn = sdb.db()->Begin();
    BenchCheck(sdb.db()->Insert(txn, "bench",
                                {Value::Int(id), Value::String("c1"),
                                 Value::Double(0.5),
                                 Value::String(std::string(64, 'p'))}),
               "insert");
    BenchCheck(sdb.db()->Commit(txn), "commit");
    ++id;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_InsertCommitDegradedGate);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("degraded_overhead")
