// Fault-free overhead of the robustness machinery: CRC32C throughput
// (hardware vs software), the per-page checksum cost on PageFile
// read/write, WAL frame checksumming on append, and the end-to-end
// durable-commit path. Everything here runs on the default Env with no
// faults injected — the numbers are the price paid on the happy path.

#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <string>

#include "bench/bench_util.h"
#include "src/storage/page_file.h"
#include "src/util/crc32c.h"
#include "src/wal/log_manager.h"

namespace dmx {
namespace bench {
namespace {

std::string RandomBuffer(size_t n) {
  std::mt19937_64 rng(42);
  std::string buf(n, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  return buf;
}

void BM_Crc32c(benchmark::State& state) {
  const std::string buf = RandomBuffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(Crc32cHardwareAccelerated() ? "sse4.2" : "software");
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(8192)->Arg(65536);

void BM_Crc32cSoftware(benchmark::State& state) {
  const std::string buf = RandomBuffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        internal::Crc32cExtendSoftware(0, buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cSoftware)->Arg(8192)->Arg(65536);

// One page write + read back: two CRC computations plus the pwrite/pread
// through the Env, no sync.
void BM_PageWriteReadRoundtrip(benchmark::State& state) {
  TempDir dir("ffpage");
  PageFile pf;
  BenchCheck(pf.Open(dir.path() + "/db", true), "open");
  PageId id;
  BenchCheck(pf.Allocate(&id), "alloc");
  Page p;
  memset(p.data, 0x5A, kPageSize);
  Page q;
  for (auto _ : state) {
    BenchCheck(pf.Write(id, p), "write");
    BenchCheck(pf.Read(id, &q), "read");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_PageWriteReadRoundtrip);

// WAL append only: record encode + frame CRC into the in-memory buffer.
void BM_WalAppend(benchmark::State& state) {
  TempDir dir("ffwal");
  LogManager log;
  BenchCheck(log.Open(dir.path() + "/wal", true), "open");
  const std::string payload = RandomBuffer(128);
  uint64_t n = 0;
  for (auto _ : state) {
    // deeplint: allow(status-discipline, a bare LogManager, no database)
    LogRecord rec = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1,
                                     payload);
    BenchCheck(log.Append(&rec), "append");
    if (++n % 4096 == 0) {
      state.PauseTiming();
      BenchCheck(log.FlushAll(), "flush");
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WalAppend);

// Durable WAL append: one record, one flush, one fsync per iteration.
void BM_WalAppendFlushSync(benchmark::State& state) {
  TempDir dir("ffwals");
  LogManager log;
  BenchCheck(log.Open(dir.path() + "/wal", true), "open");
  const std::string payload = RandomBuffer(128);
  for (auto _ : state) {
    // deeplint: allow(status-discipline, a bare LogManager, no database)
    LogRecord rec = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1,
                                     payload);
    BenchCheck(log.Append(&rec), "append");
    BenchCheck(log.FlushAll(), "flush");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WalAppendFlushSync);

// End-to-end: insert one row and commit (commit forces the checksummed log
// to disk). The full fault-free tax of the robustness layer in context.
void BM_InsertCommitDurable(benchmark::State& state) {
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
BENCHMARK(BM_InsertCommitDurable);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("faultfree_overhead")
