// BufferPool: fixed set of in-memory frames over a PageFile with clock
// eviction, pin counts, and WAL-before-write enforcement.
//
// Extensions (heap and B-tree structures) access pages only through pinned
// PageHandles; RecordViews handed to the common predicate evaluator alias
// the pinned frame, which is how filtering happens "while the field values
// ... are still in the buffer pool" (paper, Common Services).

#ifndef DMX_STORAGE_BUFFER_POOL_H_
#define DMX_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/storage/page_file.h"
#include "src/util/common.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dmx {

class BufferPool;

/// RAII pin on a buffer frame. Move-only; unpins on destruction.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle() { Release(); }

  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }
  /// The frame's change counter as Fetch (or New) saw it. Equal values from
  /// two pins of one page mean the image was neither reloaded nor marked
  /// dirty in between (see BufferPool::Frame::version).
  uint64_t version() const { return version_; }

  /// Mark the frame dirty (call after mutating the page image).
  void MarkDirty();

  /// Unpin early (before destruction).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame, PageId pid, Page* page,
             uint64_t version)
      : pool_(pool),
        frame_(frame),
        page_id_(pid),
        page_(page),
        version_(version) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
  Page* page_ = nullptr;
  uint64_t version_ = 0;
};

/// Statistics counters (for tests and benchmarks). Atomic so concurrent
/// scans can read them while other threads fault pages in.
struct BufferPoolStats {
  Counter hits;
  Counter misses;
  Counter evictions;
  Counter flushes;  // dirty write-backs

  void Reset() {
    hits.Reset();
    misses.Reset();
    evictions.Reset();
    flushes.Reset();
  }
};

/// Buffer manager over one PageFile. Thread-safe; page content latching is
/// the caller's concern (the lock manager serializes record-level access
/// above this layer).
///
/// Concurrency: the page table is split into kPartitions partitions keyed
/// by page id, each with its own mutex, so a hit locks one partition and
/// pins with an atomic increment. A frame's pin count, referenced bit,
/// dirty flag and change counter are atomic: Unpin and
/// PageHandle::MarkDirty take no mutex. Misses, New, FreePage, FlushAll and
/// the one clock sweep over all frames share evict_mu_. Pins are added only
/// under the page's partition mutex, and the sweep re-checks a victim's
/// pin count under that mutex before it unmaps the page, so a pinned frame
/// is never evicted. FlushAll also holds every partition mutex while it
/// writes back, so no new pin starts a change during a checkpoint. Lock
/// order: evict_mu_, then partition mutexes in index order.
class BufferPool {
 public:
  /// `wal_flush` is invoked with a page's LSN before that page is written
  /// back, enforcing write-ahead logging; pass nullptr for WAL-less use.
  BufferPool(PageFile* file, size_t capacity,
             std::function<Status(Lsn)> wal_flush = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pin an existing page.
  Status Fetch(PageId id, PageHandle* out);
  /// Allocate and pin a fresh zeroed page.
  Status New(PageId* id, PageHandle* out);
  /// Drop a page: must not be pinned; discards the frame and frees the page.
  Status FreePage(PageId id);

  /// Write back all dirty frames (does not evict).
  Status FlushAll();

  size_t capacity() const { return capacity_; }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  friend class PageHandle;

  static constexpr size_t kPartitions = 16;

  // Frame i's page image is images_[i]. `pid` and `in_use` change only
  // under evict_mu_, while the frame is unmapped and unpinned; a pin holder
  // may read `pid` because its pin orders it after the mapping.
  struct Frame {
    PageId pid = kInvalidPageId;
    bool in_use = false;
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    std::atomic<bool> referenced{false};
    // Change counter: set from change_seq_ whenever the image may change
    // (load, New, MarkDirty). The sequence is pool-wide, so a value is
    // never reused, even after the page leaves the frame and comes back.
    std::atomic<uint64_t> version{0};
  };

  // One slice of the page table; on its own cache line so that sessions
  // hitting different partitions do not share one.
  struct alignas(64) Partition {
    Mutex mu;
    std::unordered_map<PageId, size_t> table GUARDED_BY(mu);
  };

  Partition& PartitionOf(PageId id) { return partitions_[id % kPartitions]; }
  // Pins `id` if the partition maps it; false on a miss.
  bool PinMapped(Partition& part, PageId id, PageHandle* out)
      REQUIRES(part.mu);
  // Maps `id` to a frame already set up and pinned under evict_mu_.
  void Publish(PageId id, size_t frame, PageHandle* out) REQUIRES(evict_mu_);
  void Unpin(size_t frame, PageId pid);
  uint64_t NextVersion() {
    return change_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  // Finds a victim frame, writing it back if dirty.
  Status GetFreeFrame(size_t* frame) REQUIRES(evict_mu_);
  Status FlushFrame(size_t frame) REQUIRES(evict_mu_);
  // FlushAll's write-back, under every partition mutex (in index order):
  // no page is pinned anew while frames are written, so only a change
  // already in progress can race a checkpoint's write-back (pages have no
  // latch). The partition loop is more than the analysis can follow.
  Status WriteBackAll() REQUIRES(evict_mu_) NO_THREAD_SAFETY_ANALYSIS;

  PageFile* file_;
  size_t capacity_;
  std::function<Status(Lsn)> wal_flush_;
  std::unique_ptr<Frame[]> frames_;
  // Page images, deliberately left uninitialized: Fetch overwrites the
  // whole image and New zeroes it, so a frame's memory is first touched
  // (and becomes resident) only when a page lands in it.
  std::unique_ptr<Page[]> images_;
  Partition partitions_[kPartitions];
  size_t clock_hand_ GUARDED_BY(evict_mu_) = 0;
  std::atomic<uint64_t> change_seq_{0};
  BufferPoolStats stats_;  // atomic counters
  // Process-wide mirrors of stats_ ("bufferpool.*" in the registry).
  Counter* metric_hits_;
  Counter* metric_misses_;
  Counter* metric_evictions_;
  Counter* metric_flushes_;
  Mutex evict_mu_;
};

}  // namespace dmx

#endif  // DMX_STORAGE_BUFFER_POOL_H_
