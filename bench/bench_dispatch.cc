// E1 — "vectors of routine entry points ... makes the activation of the
// appropriate extension quite efficient."
//
// Compares the cost of activating an extension entry point through:
//   * the paper's mechanism: a small-integer id indexing a vector of
//     operation tables (what ExtensionRegistry does),
//   * a std::map keyed by extension name,
//   * a std::unordered_map keyed by extension name,
//   * a virtual interface call (the common OO alternative).
//
// Expected shape: vector indexing beats name lookups by a wide margin and
// matches or beats virtual dispatch.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/registry.h"

namespace dmx {
namespace {

// A trivial entry point with the same calling shape as real SmOps entries.
Status NoopInsert(SmContext&, const Slice&, std::string*) {
  return Status::OK();
}

SmOps MakeOps(const char* name) {
  // deeplint: allow(vector-dispatch, dispatch-cost rig: only insert fires)
  SmOps ops;
  ops.name = name;
  ops.insert = NoopInsert;
  return ops;
}

constexpr int kNumExtensions = 8;

const char* kNames[kNumExtensions] = {"heap",   "temp",   "mainmem",
                                      "btree",  "append", "foreign",
                                      "striped", "custom"};

void BM_ProcedureVector(benchmark::State& state) {
  ExtensionRegistry registry;
  for (const char* name : kNames) registry.RegisterStorageMethod(MakeOps(name));
  SmContext ctx;
  std::string key;
  SmId id = 0;
  for (auto _ : state) {
    // The descriptor-held small integer indexes the vector directly.
    const SmOps& ops = registry.sm_ops(id);
    benchmark::DoNotOptimize(ops.insert(ctx, Slice(), &key));
    id = static_cast<SmId>((id + 1) % kNumExtensions);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcedureVector);

void BM_NameMapLookup(benchmark::State& state) {
  std::map<std::string, SmOps> table;
  for (const char* name : kNames) table[name] = MakeOps(name);
  SmContext ctx;
  std::string key;
  int i = 0;
  for (auto _ : state) {
    const SmOps& ops = table.find(kNames[i])->second;
    benchmark::DoNotOptimize(ops.insert(ctx, Slice(), &key));
    i = (i + 1) % kNumExtensions;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameMapLookup);

void BM_NameHashLookup(benchmark::State& state) {
  std::unordered_map<std::string, SmOps> table;
  for (const char* name : kNames) table[name] = MakeOps(name);
  SmContext ctx;
  std::string key;
  int i = 0;
  for (auto _ : state) {
    const SmOps& ops = table.find(kNames[i])->second;
    benchmark::DoNotOptimize(ops.insert(ctx, Slice(), &key));
    i = (i + 1) % kNumExtensions;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameHashLookup);

class VirtualSm {
 public:
  virtual ~VirtualSm() = default;
  virtual Status Insert(SmContext&, const Slice&, std::string*) = 0;
};

class NoopVirtualSm : public VirtualSm {
 public:
  Status Insert(SmContext&, const Slice&, std::string*) override {
    return Status::OK();
  }
};

void BM_VirtualDispatch(benchmark::State& state) {
  std::vector<std::unique_ptr<VirtualSm>> table;
  for (int i = 0; i < kNumExtensions; ++i) {
    table.push_back(std::make_unique<NoopVirtualSm>());
  }
  SmContext ctx;
  std::string key;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table[static_cast<size_t>(i)]->Insert(
        ctx, Slice(), &key));
    i = (i + 1) % kNumExtensions;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VirtualDispatch);

}  // namespace
}  // namespace dmx

DMX_BENCH_MAIN("dispatch")
