// Unit tests for PageFile, BufferPool, and SlottedPage.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>

#include "src/storage/buffer_pool.h"
#include "src/storage/page_file.h"
#include "src/storage/slotted_page.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

TEST(PageFileTest, CreateAllocateReadWrite) {
  TempDir dir("pagefile");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", /*create=*/true).ok());
  EXPECT_EQ(pf.page_count(), 1u);  // header only

  PageId a, b;
  ASSERT_TRUE(pf.Allocate(&a).ok());
  ASSERT_TRUE(pf.Allocate(&b).ok());
  EXPECT_NE(a, b);
  EXPECT_NE(a, kInvalidPageId);

  Page p;
  memset(p.data, 0xAB, kPageSize);
  SetPageLsn(&p, 77);
  ASSERT_TRUE(pf.Write(a, p).ok());

  Page q;
  ASSERT_TRUE(pf.Read(a, &q).ok());
  EXPECT_EQ(PageLsn(q), 77u);
  EXPECT_EQ(memcmp(p.data, q.data, kPageSize), 0);
}

TEST(PageFileTest, PersistsAcrossReopen) {
  TempDir dir("pagefile2");
  std::string path = dir.path() + "/db";
  PageId a;
  {
    PageFile pf;
    ASSERT_TRUE(pf.Open(path, true).ok());
    ASSERT_TRUE(pf.Allocate(&a).ok());
    Page p;
    memset(p.data, 0, kPageSize);
    memcpy(p.data + 100, "hello", 5);
    ASSERT_TRUE(pf.Write(a, p).ok());
    ASSERT_TRUE(pf.Close().ok());
  }
  PageFile pf;
  ASSERT_TRUE(pf.Open(path, false).ok());
  EXPECT_EQ(pf.page_count(), 2u);
  Page q;
  ASSERT_TRUE(pf.Read(a, &q).ok());
  EXPECT_EQ(memcmp(q.data + 100, "hello", 5), 0);
}

TEST(PageFileTest, FreeListReusesPages) {
  TempDir dir("pagefile3");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  PageId a, b, c;
  ASSERT_TRUE(pf.Allocate(&a).ok());
  ASSERT_TRUE(pf.Allocate(&b).ok());
  uint32_t count = pf.page_count();
  ASSERT_TRUE(pf.Free(a).ok());
  ASSERT_TRUE(pf.Allocate(&c).ok());
  EXPECT_EQ(c, a);                      // reused
  EXPECT_EQ(pf.page_count(), count);    // no growth
}

TEST(PageFileTest, InvalidAccessRejected) {
  TempDir dir("pagefile4");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  Page p;
  EXPECT_FALSE(pf.Read(kInvalidPageId, &p).ok());
  EXPECT_FALSE(pf.Read(999, &p).ok());
  EXPECT_FALSE(pf.Free(999).ok());
}

TEST(PageFileTest, ChecksumDetectsFlippedByteInPageImage) {
  TempDir dir("pagefile4");
  std::string path = dir.path() + "/db";
  PageId a, b;
  {
    PageFile pf;
    ASSERT_TRUE(pf.Open(path, true).ok());
    ASSERT_TRUE(pf.Allocate(&a).ok());
    ASSERT_TRUE(pf.Allocate(&b).ok());
    Page p;
    memset(p.data, 0x5C, kPageSize);
    ASSERT_TRUE(pf.Write(a, p).ok());
    ASSERT_TRUE(pf.Write(b, p).ok());
    ASSERT_TRUE(pf.Close().ok());
  }
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long off = static_cast<long>(a * kDiskPageSize + 1234);
    fseek(f, off, SEEK_SET);
    int c = fgetc(f);
    fseek(f, off, SEEK_SET);
    fputc(c ^ 0x01, f);
    fclose(f);
  }
  PageFile pf;
  ASSERT_TRUE(pf.Open(path, false).ok());
  Page q;
  Status s = pf.Read(a, &q);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(pf.Read(b, &q).ok());  // sibling page unharmed
}

TEST(PageFileTest, ChecksumTrailerCorruptionAlsoDetected) {
  TempDir dir("pagefile5");
  std::string path = dir.path() + "/db";
  PageId a;
  {
    PageFile pf;
    ASSERT_TRUE(pf.Open(path, true).ok());
    ASSERT_TRUE(pf.Allocate(&a).ok());
    Page p;
    memset(p.data, 0x11, kPageSize);
    ASSERT_TRUE(pf.Write(a, p).ok());
    ASSERT_TRUE(pf.Close().ok());
  }
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long off = static_cast<long>(a * kDiskPageSize + kPageSize);
    fseek(f, off, SEEK_SET);
    int c = fgetc(f);
    fseek(f, off, SEEK_SET);
    fputc(c ^ 0x80, f);
    fclose(f);
  }
  PageFile pf;
  ASSERT_TRUE(pf.Open(path, false).ok());
  Page q;
  EXPECT_TRUE(pf.Read(a, &q).IsCorruption());
}

TEST(PageFileTest, InjectedReadFaultSurfacesAsIOError) {
  TempDir dir("pagefile6");
  FaultInjectionEnv env;
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true, &env).ok());
  PageId a;
  ASSERT_TRUE(pf.Allocate(&a).ok());
  Page p;
  memset(p.data, 0x22, kPageSize);
  ASSERT_TRUE(pf.Write(a, p).ok());
  env.SetReadErrorProb(1.0);
  Page q;
  EXPECT_TRUE(pf.Read(a, &q).IsIOError());
  env.ClearFaults();
  EXPECT_TRUE(pf.Read(a, &q).ok());
}

TEST(BufferPoolTest, FetchCachesPages) {
  TempDir dir("bp1");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  BufferPool bp(&pf, 4);

  PageId id;
  {
    PageHandle h;
    ASSERT_TRUE(bp.New(&id, &h).ok());
    memcpy(h.page()->data + 64, "cached", 6);
    h.MarkDirty();
  }
  {
    PageHandle h;
    ASSERT_TRUE(bp.Fetch(id, &h).ok());
    EXPECT_EQ(memcmp(h.page()->data + 64, "cached", 6), 0);
  }
  EXPECT_GE(bp.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  TempDir dir("bp2");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  BufferPool bp(&pf, 2);

  PageId first;
  {
    PageHandle h;
    ASSERT_TRUE(bp.New(&first, &h).ok());
    memcpy(h.page()->data + 10, "dirty!", 6);
    h.MarkDirty();
  }
  // Force eviction of `first` by cycling more pages than capacity.
  for (int i = 0; i < 4; ++i) {
    PageId id;
    PageHandle h;
    ASSERT_TRUE(bp.New(&id, &h).ok());
    h.MarkDirty();
  }
  EXPECT_GE(bp.stats().evictions, 1u);
  // Read back through a fresh fetch: content must have been written back.
  PageHandle h;
  ASSERT_TRUE(bp.Fetch(first, &h).ok());
  EXPECT_EQ(memcmp(h.page()->data + 10, "dirty!", 6), 0);
}

TEST(BufferPoolTest, AllPinnedFails) {
  TempDir dir("bp3");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  BufferPool bp(&pf, 2);
  PageId a, b, c;
  PageHandle ha, hb, hc;
  ASSERT_TRUE(bp.New(&a, &ha).ok());
  ASSERT_TRUE(bp.New(&b, &hb).ok());
  EXPECT_TRUE(bp.New(&c, &hc).IsBusy());
}

TEST(BufferPoolTest, WalFlushCalledBeforeWriteBack) {
  TempDir dir("bp4");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  Lsn flushed_to = 0;
  BufferPool bp(&pf, 2, [&](Lsn lsn) {
    flushed_to = std::max(flushed_to, lsn);
    return Status::OK();
  });
  PageId id;
  {
    PageHandle h;
    ASSERT_TRUE(bp.New(&id, &h).ok());
    SetPageLsn(h.page(), 42);
    h.MarkDirty();
  }
  ASSERT_TRUE(bp.FlushAll().ok());
  EXPECT_EQ(flushed_to, 42u);
}

TEST(BufferPoolTest, FreePageRejectsPinned) {
  TempDir dir("bp5");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  BufferPool bp(&pf, 4);
  PageId id;
  PageHandle h;
  ASSERT_TRUE(bp.New(&id, &h).ok());
  EXPECT_TRUE(bp.FreePage(id).IsBusy());
  h.Release();
  EXPECT_TRUE(bp.FreePage(id).ok());
}

// -- BufferPool under concurrency ---------------------------------------------

/// The POSIX Env, calling `after_write` (when set) after every successful
/// file write, on the writing thread: a hook between a write-back and what
/// the pool does next.
class WriteHookEnv : public Env {
 public:
  std::function<void(uint64_t offset)> after_write;

  Status NewRandomAccessFile(const std::string& path, bool create,
                             std::unique_ptr<RandomAccessFile>* out) override {
    std::unique_ptr<RandomAccessFile> file;
    DMX_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, create, &file));
    *out = std::make_unique<File>(std::move(file), this);
    return Status::OK();
  }
  Status FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status GetFileSize(const std::string& path, uint64_t* out) override {
    return base_->GetFileSize(path, out);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* out) override {
    return base_->ListDir(path, out);
  }

 private:
  class File : public RandomAccessFile {
   public:
    File(std::unique_ptr<RandomAccessFile> file, WriteHookEnv* env)
        : file_(std::move(file)), env_(env) {}
    Status Read(uint64_t offset, size_t n, char* scratch,
                size_t* out_n) override {
      return file_->Read(offset, n, scratch, out_n);
    }
    Status Write(uint64_t offset, const char* data, size_t n) override {
      Status s = file_->Write(offset, data, n);
      if (s.ok() && env_->after_write) env_->after_write(offset);
      return s;
    }
    Status Truncate(uint64_t size) override { return file_->Truncate(size); }
    Status Sync(bool data_only) override { return file_->Sync(data_only); }
    Status Size(uint64_t* out) override { return file_->Size(out); }
    Status Close() override { return file_->Close(); }

   private:
    std::unique_ptr<RandomAccessFile> file_;
    WriteHookEnv* env_;
  };

  Env* const base_ = Env::Default();
};

// Test pages carry their own id and a value that only their writer changes.
constexpr size_t kStampAt = 64;
constexpr size_t kValueAt = 72;

void Stamp(Page* page, PageId id, uint64_t value) {
  memcpy(page->data + kStampAt, &id, sizeof(id));
  memcpy(page->data + kValueAt, &value, sizeof(value));
}
PageId StampOf(const Page* page) {
  PageId id;
  memcpy(&id, page->data + kStampAt, sizeof(id));
  return id;
}
uint64_t ValueOf(const Page* page) {
  uint64_t value;
  memcpy(&value, page->data + kValueAt, sizeof(value));
  return value;
}

// Pins `id`, retrying while every frame is pinned.
Status PinRetrying(BufferPool* bp, PageId id, PageHandle* h) {
  Status s;
  while ((s = bp->Fetch(id, h)).IsBusy()) std::this_thread::yield();
  return s;
}

TEST(BufferPoolConcurrencyTest, MarkDirtyDuringWriteBackIsNotLost) {
  TempDir dir("bpc_markdirty");
  WriteHookEnv env;
  const std::string path = dir.path() + "/db";
  PageFile pf;
  ASSERT_TRUE(pf.Open(path, true, &env).ok());
  PageId id;
  {
    BufferPool bp(&pf, 4);
    PageHandle h;
    ASSERT_TRUE(bp.New(&id, &h).ok());
    Stamp(h.page(), id, 1);
    h.MarkDirty();
    // The pin holder changes the page again just after FlushAll wrote the
    // old image, before the flush returns.
    const uint64_t at = uint64_t{id} * kDiskPageSize;
    int hooked = 0;
    env.after_write = [&](uint64_t offset) {
      if (offset != at || hooked++ > 0) return;
      Stamp(h.page(), id, 2);
      h.MarkDirty();
    };
    ASSERT_TRUE(bp.FlushAll().ok());
    env.after_write = nullptr;
    ASSERT_EQ(hooked, 1);
    h.Release();
    ASSERT_TRUE(bp.FlushAll().ok());
    EXPECT_EQ(bp.stats().flushes, 2u);
  }
  ASSERT_TRUE(pf.Close().ok());
  PageFile reopened;
  ASSERT_TRUE(reopened.Open(path, false).ok());
  BufferPool fresh(&reopened, 4);
  PageHandle h;
  ASSERT_TRUE(fresh.Fetch(id, &h).ok());
  EXPECT_EQ(StampOf(h.page()), id);
  EXPECT_EQ(ValueOf(h.page()), 2u);
}

TEST(BufferPoolConcurrencyTest, SmallPoolUnderFetchNewFreeAndFlush) {
  // Each worker changes its own two hot pages; a scanner reads cold pages
  // through the frames left over, so the clock keeps evicting, hot pages
  // too, while their owners pin them again.
  constexpr int kWorkers = 4;
  constexpr int kHotPerWorker = 2;
  constexpr int kCold = 32;
  constexpr size_t kFrames = 12;
  constexpr int kRounds = 20000;
  TempDir dir("bpc_stress");
  PageFile pf;
  ASSERT_TRUE(pf.Open(dir.path() + "/db", true).ok());
  std::vector<PageId> hot(kWorkers * kHotPerWorker);
  std::vector<uint64_t> values(hot.size(), 0);  // slot i: its worker's
  std::vector<PageId> cold(kCold);
  {
    BufferPool bp(&pf, kFrames);
    for (std::vector<PageId>* pages : {&hot, &cold}) {
      for (PageId& id : *pages) {
        PageHandle h;
        ASSERT_TRUE(bp.New(&id, &h).ok());
        Stamp(h.page(), id, 0);
        h.MarkDirty();
      }
    }
    // Pages have no latch (that is the caller's concern), so changes take
    // `modify` shared and FlushAll takes it exclusive: a write-back never
    // reads an image while its pin holder changes it.
    std::shared_mutex modify;
    std::atomic<int> workers_left{kWorkers};
    std::atomic<int> errors{0}, foreign{0}, lost{0}, stuck{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        for (int r = 0; r < kRounds; ++r) {
          const size_t slot =
              static_cast<size_t>(w * kHotPerWorker + r % kHotPerWorker);
          const PageId id = hot[slot];
          PageHandle h;
          if (!PinRetrying(&bp, id, &h).ok()) {
            ++errors;
            continue;
          }
          if (StampOf(h.page()) != id) ++foreign;
          if (ValueOf(h.page()) != values[slot]) ++lost;
          const uint64_t before = h.version();
          {
            std::shared_lock<std::shared_mutex> g(modify);
            Stamp(h.page(), id, ++values[slot]);
            h.MarkDirty();
          }
          std::this_thread::yield();
          // A second pin finds the same frame, still this page's, with the
          // counter moved by MarkDirty.
          PageHandle again;
          if (!PinRetrying(&bp, id, &again).ok()) {
            ++errors;
            continue;
          }
          if (again.page() != h.page() || StampOf(h.page()) != id ||
              ValueOf(h.page()) != values[slot]) {
            ++foreign;
          }
          if (again.version() <= before) ++stuck;
        }
        --workers_left;
      });
    }
    threads.emplace_back([&] {
      while (workers_left.load() > 0) {
        for (PageId id : cold) {
          PageHandle h;
          if (!PinRetrying(&bp, id, &h).ok()) {
            ++errors;
            return;
          }
          if (StampOf(h.page()) != id) ++foreign;
        }
      }
    });
    threads.emplace_back([&] {
      for (int n = 1; workers_left.load() > 0; ++n) {
        PageId id;
        PageHandle h;
        Status s = bp.New(&id, &h);
        if (s.IsBusy()) continue;
        if (!s.ok()) {
          ++errors;
          return;
        }
        Stamp(h.page(), id, 0);
        h.MarkDirty();
        h.Release();
        if (!bp.FreePage(id).ok()) ++errors;
        if (n % 8 == 0) {
          std::unique_lock<std::shared_mutex> g(modify);
          if (!bp.FlushAll().ok()) ++errors;
        }
      }
    });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(foreign.load(), 0) << "a pinned frame was evicted";
    EXPECT_EQ(lost.load(), 0) << "a write-back lost a change";
    EXPECT_EQ(stuck.load(), 0) << "MarkDirty did not move the counter";
    EXPECT_GT(bp.stats().evictions, 0u);

    // A reload moves the counter too: evict hot[0], then fetch it again.
    PageHandle h;
    ASSERT_TRUE(bp.Fetch(hot[0], &h).ok());
    const uint64_t loaded = h.version();
    h.Release();
    for (int pass = 0; pass < 3; ++pass) {
      for (PageId id : cold) {
        PageHandle other;
        ASSERT_TRUE(bp.Fetch(id, &other).ok());
      }
    }
    const uint64_t misses = bp.stats().misses;
    ASSERT_TRUE(bp.Fetch(hot[0], &h).ok());
    EXPECT_EQ(bp.stats().misses, misses + 1);
    EXPECT_GT(h.version(), loaded);
    h.Release();
    ASSERT_TRUE(bp.FlushAll().ok());
  }
  // A fresh pool reads back every write.
  BufferPool fresh(&pf, 4);
  for (size_t i = 0; i < hot.size(); ++i) {
    PageHandle h;
    ASSERT_TRUE(fresh.Fetch(hot[i], &h).ok());
    EXPECT_EQ(StampOf(h.page()), hot[i]);
    EXPECT_EQ(ValueOf(h.page()), values[i]) << "page " << hot[i];
  }
}

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : sp_(&page_) { sp_.Init(); }
  Page page_;
  SlottedPage sp_;
};

TEST_F(SlottedPageTest, InsertGetRoundTrip) {
  uint16_t s1, s2;
  ASSERT_TRUE(sp_.Insert(Slice("alpha"), &s1).ok());
  ASSERT_TRUE(sp_.Insert(Slice("beta"), &s2).ok());
  EXPECT_NE(s1, s2);
  Slice out;
  ASSERT_TRUE(sp_.Get(s1, &out).ok());
  EXPECT_EQ(out.ToString(), "alpha");
  ASSERT_TRUE(sp_.Get(s2, &out).ok());
  EXPECT_EQ(out.ToString(), "beta");
}

TEST_F(SlottedPageTest, DeleteTombstonesAndReuses) {
  uint16_t s1, s2, s3;
  ASSERT_TRUE(sp_.Insert(Slice("one"), &s1).ok());
  ASSERT_TRUE(sp_.Insert(Slice("two"), &s2).ok());
  ASSERT_TRUE(sp_.Delete(s1).ok());
  EXPECT_FALSE(sp_.IsLive(s1));
  Slice out;
  EXPECT_TRUE(sp_.Get(s1, &out).IsNotFound());
  // Slot number is reused for the next insert; s2 is untouched.
  ASSERT_TRUE(sp_.Insert(Slice("three"), &s3).ok());
  EXPECT_EQ(s3, s1);
  ASSERT_TRUE(sp_.Get(s2, &out).ok());
  EXPECT_EQ(out.ToString(), "two");
}

TEST_F(SlottedPageTest, UpdateInPlaceAndGrowing) {
  uint16_t s;
  ASSERT_TRUE(sp_.Insert(Slice("aaaaaaaa"), &s).ok());
  // Shrink in place.
  ASSERT_TRUE(sp_.Update(s, Slice("bb")).ok());
  Slice out;
  ASSERT_TRUE(sp_.Get(s, &out).ok());
  EXPECT_EQ(out.ToString(), "bb");
  // Grow (forces relocation within the page).
  std::string big(500, 'z');
  ASSERT_TRUE(sp_.Update(s, Slice(big)).ok());
  ASSERT_TRUE(sp_.Get(s, &out).ok());
  EXPECT_EQ(out.ToString(), big);
}

TEST_F(SlottedPageTest, FillsUntilBusyThenCompactionRecovers) {
  std::string payload(100, 'p');
  std::vector<uint16_t> slots;
  uint16_t s;
  while (sp_.Insert(Slice(payload), &s).ok()) slots.push_back(s);
  ASSERT_GT(slots.size(), 50u);
  EXPECT_TRUE(sp_.Insert(Slice(payload), &s).IsBusy());
  // Delete half, then inserts succeed again (compaction reclaims space).
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp_.Delete(slots[i]).ok());
  }
  EXPECT_TRUE(sp_.Insert(Slice(payload), &s).ok());
  // Survivors intact after compaction.
  Slice out;
  ASSERT_TRUE(sp_.Get(slots[1], &out).ok());
  EXPECT_EQ(out.ToString(), payload);
}

TEST_F(SlottedPageTest, RejectsOversizeRecord) {
  std::string huge(kPageSize, 'x');
  uint16_t s;
  EXPECT_TRUE(sp_.Insert(Slice(huge), &s).IsInvalidArgument());
}

TEST_F(SlottedPageTest, NextPageChain) {
  EXPECT_EQ(sp_.next_page(), kInvalidPageId);
  sp_.set_next_page(17);
  EXPECT_EQ(sp_.next_page(), 17u);
}

// Property test: random insert/delete/update churn preserves a shadow map.
class SlottedPageChurn : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SlottedPageChurn, MatchesShadowMap) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::mt19937 rng(GetParam());
  std::map<uint16_t, std::string> shadow;
  for (int step = 0; step < 2000; ++step) {
    int action = rng() % 3;
    if (action == 0 || shadow.empty()) {
      std::string data(1 + rng() % 120, static_cast<char>('a' + rng() % 26));
      uint16_t s;
      if (sp.Insert(Slice(data), &s).ok()) {
        ASSERT_EQ(shadow.count(s), 0u);
        shadow[s] = data;
      }
    } else if (action == 1) {
      auto it = shadow.begin();
      std::advance(it, rng() % shadow.size());
      ASSERT_TRUE(sp.Delete(it->first).ok());
      shadow.erase(it);
    } else {
      auto it = shadow.begin();
      std::advance(it, rng() % shadow.size());
      std::string data(1 + rng() % 120, static_cast<char>('A' + rng() % 26));
      if (sp.Update(it->first, Slice(data)).ok()) it->second = data;
    }
  }
  for (const auto& [slot, expect] : shadow) {
    Slice out;
    ASSERT_TRUE(sp.Get(slot, &out).ok()) << "slot " << slot;
    EXPECT_EQ(out.ToString(), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlottedPageChurn,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace dmx
