// Ablation benchmarks for design choices called out in DESIGN.md §5:
//
//  A1. B-tree iterator: a full 20k-entry key-sequential scan. The
//      iterator reads each entry in the pinned leaf and keeps its place by
//      the frame's change counter, with no decoded copy of the leaf (the
//      name is the historical baseline key). The comparator that
//      re-descended and re-parsed on every Next() was removed; its last
//      measurement is kept in EXPERIMENTS.md.
//  A2. Buffer pool size: heap scans under eviction pressure (pool smaller
//      than the relation) vs fully cached.
//  A3. Two-step dispatch bookkeeping: raw storage-method insert through
//      the procedure vector vs the full Database::Insert path (locks,
//      attachment iteration over an empty descriptor, stats).

#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_util.h"
#include "src/sm/btree_core.h"

namespace dmx {
namespace bench {
namespace {

// -- A1 ------------------------------------------------------------------------

struct BtreeFixture {
  BtreeFixture() : dir("abl") {
    BenchCheck(pf.Open(dir.path() + "/db", true), "open");
    bp = std::make_unique<BufferPool>(&pf, 1024);
    BenchCheck(BTree::Create(bp.get(), &anchor), "create");
    BTree tree(bp.get(), anchor);
    for (int i = 0; i < 20000; ++i) {
      char key[16];
      snprintf(key, sizeof(key), "k%08d", i);
      BenchCheck(tree.Insert(Slice(key), Slice("value-payload")), "insert");
    }
  }
  TempDir dir;
  PageFile pf;
  std::unique_ptr<BufferPool> bp;
  PageId anchor;
};

BtreeFixture* BF() {
  static BtreeFixture* fixture = new BtreeFixture();
  return fixture;
}

void BM_IteratorWithLeafCache(benchmark::State& state) {
  BTree tree(BF()->bp.get(), BF()->anchor);
  uint64_t n = 0;
  for (auto _ : state) {
    std::unique_ptr<BTreeIterator> it;
    BenchCheck(tree.NewIterator(&it), "iterator");
    std::string key, value;
    n = 0;
    while (it->Next(&key, &value).ok()) ++n;
  }
  state.counters["entries"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IteratorWithLeafCache)->Unit(benchmark::kMillisecond);

// -- A2 ------------------------------------------------------------------------

void RunHeapScan(benchmark::State& state, size_t pool_pages) {
  // ~40k rows of ~100B = ~550 data pages; a 64-page pool thrashes.
  static std::map<size_t, std::unique_ptr<ScopedDb>>* dbs =
      new std::map<size_t, std::unique_ptr<ScopedDb>>();
  auto it = dbs->find(pool_pages);
  if (it == dbs->end()) {
    auto holder = std::make_unique<ScopedDb>(0, "heap", pool_pages);
    holder->Load(0, 40000);
    it = dbs->emplace(pool_pages, std::move(holder)).first;
  }
  Database* db = it->second->db();
  const RelationDescriptor* desc = it->second->desc();
  uint64_t n = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    std::unique_ptr<Scan> scan;
    BenchCheck(db->OpenScanOn(txn, desc, AccessPathId::StorageMethod(),
                              ScanSpec{}, &scan),
               "scan");
    n = 0;
    ScanItem item;
    while (scan->Next(&item).ok()) ++n;
    scan.reset();
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["rows"] = static_cast<double>(n);
  state.counters["pool_pages"] = static_cast<double>(pool_pages);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_HeapScanCachedPool(benchmark::State& state) {
  RunHeapScan(state, 2048);
}
BENCHMARK(BM_HeapScanCachedPool)->Unit(benchmark::kMillisecond);

void BM_HeapScanThrashingPool(benchmark::State& state) {
  RunHeapScan(state, 64);
}
BENCHMARK(BM_HeapScanThrashingPool)->Unit(benchmark::kMillisecond);

// -- A3 ------------------------------------------------------------------------

void BM_RawStorageMethodInsert(benchmark::State& state) {
  static ScopedDb* holder = new ScopedDb(0);
  Database* db = holder->db();
  const RelationDescriptor* desc = holder->desc();
  const SmOps& sm = db->registry()->sm_ops(desc->sm_id);
  Transaction* txn = db->Begin();
  SmContext ctx;
  BenchCheck(db->MakeSmContext(txn, desc, &ctx), "ctx");
  Record rec;
  BenchCheck(Record::Encode(desc->schema,
                            {Value::Int(1), Value::String("c"),
                             Value::Double(1.0), Value::String("p")},
                            &rec),
             "encode");
  for (auto _ : state) {
    std::string key;
    BenchCheck(sm.insert(ctx, rec.slice(), &key), "raw insert");
  }
  BenchCheck(db->Abort(txn), "abort");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RawStorageMethodInsert);

void BM_FullDispatchInsert(benchmark::State& state) {
  static ScopedDb* holder = new ScopedDb(0);
  Database* db = holder->db();
  const RelationDescriptor* desc = holder->desc();
  Record rec;
  BenchCheck(Record::Encode(desc->schema,
                            {Value::Int(1), Value::String("c"),
                             Value::Double(1.0), Value::String("p")},
                            &rec),
             "encode");
  Transaction* txn = db->Begin();
  for (auto _ : state) {
    std::string key;
    BenchCheck(db->InsertRecord(txn, desc, rec.slice(), &key),
               "dispatch insert");
  }
  BenchCheck(db->Abort(txn), "abort");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullDispatchInsert);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("ablation")
