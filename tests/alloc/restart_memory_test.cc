// Restart's memory does not grow with the log. This is its own executable
// because it replaces the global operator new and delete with counting
// versions, which must not touch the rest of the suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/database.h"
#include "tests/test_util.h"

namespace {

// Bytes handed out by operator new and not yet deleted, and their high
// water mark. Each block carries its size in a 16-byte prefix, which keeps
// malloc's alignment.
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
constexpr size_t kPrefix = 16;

void* CountedNew(size_t n) {
  void* block = std::malloc(n + kPrefix);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(block) = n;
  const int64_t size = static_cast<int64_t>(n);
  const int64_t live = g_live_bytes.fetch_add(size) + size;
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kPrefix;
}

void CountedDelete(void* p) {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kPrefix;
  const size_t n = *reinterpret_cast<size_t*>(block);
  g_live_bytes.fetch_sub(static_cast<int64_t>(n));
  std::free(block);
}

}  // namespace

void* operator new(size_t n) { return CountedNew(n); }
void* operator new[](size_t n) { return CountedNew(n); }
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, size_t) noexcept { CountedDelete(p); }

namespace dmx {
namespace {

using testing::TempDir;

// Logs `writes` autocommit updates of one row, crashes, and returns the
// peak of live heap bytes above the starting level while Database::Open
// runs restart over that log.
int64_t RestartPeakAfter(int writes) {
  TempDir dir("restartmem");
  DatabaseOptions options;
  options.dir = dir.path();
  options.buffer_pool_pages = 64;
  // One row rewritten in place keeps the data the same size however long
  // the log grows; relaxed commits spare a sync per write.
  options.durability = Durability::kRelaxed;
  std::unique_ptr<Database> db;
  Status s = Database::Open(options, &db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return -1;
  const Schema schema({{"k", TypeId::kInt64, false},
                       {"v", TypeId::kInt64, false}});
  Transaction* txn = db->Begin();
  std::string key;
  EXPECT_TRUE(db->CreateRelation(txn, "t", schema, "heap", {}).ok());
  EXPECT_TRUE(db->Insert(txn, "t", {Value::Int(1), Value::Int(0)}, &key).ok());
  EXPECT_TRUE(db->Commit(txn).ok());
  for (int i = 1; i <= writes; ++i) {
    txn = db->Begin();
    EXPECT_TRUE(
        db->Update(txn, "t", Slice(key), {Value::Int(1), Value::Int(i)}, &key)
            .ok());
    EXPECT_TRUE(db->Commit(txn).ok());
  }
  EXPECT_TRUE(db->log()->FlushAll().ok());
  db->SimulateCrashOnClose();
  db.reset();

  const int64_t start = g_live_bytes.load();
  g_peak_bytes.store(start);
  s = Database::Open(options, &db);
  const int64_t peak = g_peak_bytes.load() - start;
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return -1;
  // Restart replayed every write: the row holds the last value.
  txn = db->Begin();
  Record rec;
  EXPECT_TRUE(db->Fetch(txn, "t", Slice(key), &rec).ok());
  EXPECT_EQ(rec.View(&schema).GetInt(1), writes);
  EXPECT_TRUE(db->Commit(txn).ok());
  return peak;
}

TEST(RestartMemoryTest, PeakDoesNotGrowWithTheLog) {
  constexpr int kWrites = 2000;
  // Headroom for allocations whose size restart does not choose (string
  // and container growth steps); far below the ~10x growth of a log held
  // in memory.
  constexpr int64_t kSlackBytes = 256 << 10;
  const int64_t short_log = RestartPeakAfter(kWrites);
  const int64_t long_log = RestartPeakAfter(10 * kWrites);
  RecordProperty("peak_bytes_short_log", std::to_string(short_log));
  RecordProperty("peak_bytes_long_log", std::to_string(long_log));
  ASSERT_GT(short_log, 0);
  ASSERT_GT(long_log, 0);
  EXPECT_LE(long_log, short_log + kSlackBytes)
      << "restart peak " << short_log << " B after " << kWrites
      << " writes, " << long_log << " B after " << 10 * kWrites;
}

}  // namespace
}  // namespace dmx
