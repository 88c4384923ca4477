#include "src/storage/buffer_pool.h"

#include <cassert>
#include <cstring>

namespace dmx {

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    page_id_ = o.page_id_;
    page_ = o.page_;
    version_ = o.version_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  if (pool_ == nullptr) return;
  BufferPool::Frame& f = pool_->frames_[frame_];
  // Set before the counter moves: a write-back that cleared the flag
  // before reading the image either saw this change or leaves it dirty.
  f.dirty.store(true, std::memory_order_release);
  f.version.store(pool_->NextVersion(), std::memory_order_release);
}

void PageHandle::Release() {
  if (pool_ == nullptr) return;
  pool_->Unpin(frame_, page_id_);
  pool_ = nullptr;
  page_ = nullptr;
}

BufferPool::BufferPool(PageFile* file, size_t capacity,
                       std::function<Status(Lsn)> wal_flush)
    : file_(file),
      capacity_(capacity),
      wal_flush_(std::move(wal_flush)),
      frames_(std::make_unique<Frame[]>(capacity)),
      images_(std::make_unique_for_overwrite<Page[]>(capacity)) {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_hits_ = metrics->GetCounter("bufferpool.hits");
  metric_misses_ = metrics->GetCounter("bufferpool.misses");
  metric_evictions_ = metrics->GetCounter("bufferpool.evictions");
  metric_flushes_ = metrics->GetCounter("bufferpool.writebacks");
}

BufferPool::~BufferPool() {
  (void)FlushAll();  // best-effort write-back; errors unreportable here
}

void BufferPool::Unpin(size_t frame, PageId pid) {
  Frame& f = frames_[frame];
  assert(f.pid == pid && f.pin_count.load(std::memory_order_relaxed) > 0);
  (void)pid;
  f.referenced.store(true, std::memory_order_relaxed);
  // Release: this pin's reads and writes of the image happen before a
  // sweep that sees the count reach zero reuses the frame.
  f.pin_count.fetch_sub(1, std::memory_order_release);
}

Status BufferPool::FlushFrame(size_t frame) {
  Frame& f = frames_[frame];
  // Clear before the write: a MarkDirty racing the write-back sets the
  // flag again, so its change is written by a later flush, never lost.
  if (!f.dirty.exchange(false, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  Status s;
  if (wal_flush_) {
    Lsn lsn = PageLsn(images_[frame]);
    if (lsn != kInvalidLsn) s = wal_flush_(lsn);
  }
  if (s.ok()) s = file_->Write(f.pid, images_[frame]);
  if (!s.ok()) {
    f.dirty.store(true, std::memory_order_release);
    return s;
  }
  stats_.flushes.Increment();
  metric_flushes_->Increment();
  return Status::OK();
}

Status BufferPool::GetFreeFrame(size_t* frame) {
  // First pass: any unused frame.
  for (size_t i = 0; i < capacity_; ++i) {
    if (!frames_[i].in_use) {
      *frame = i;
      return Status::OK();
    }
  }
  // Clock sweep over unpinned frames; two full rounds then give up.
  for (size_t step = 0; step < 2 * capacity_; ++step) {
    Frame& f = frames_[clock_hand_];
    size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % capacity_;
    if (f.pin_count.load(std::memory_order_acquire) > 0) continue;
    if (f.referenced.exchange(false, std::memory_order_relaxed)) continue;
    Partition& part = PartitionOf(f.pid);
    {
      MutexLock lock(&part.mu);
      // Pinned since the unlocked check: pins are added only under this
      // mutex, so once the page is unmapped here none can follow.
      if (f.pin_count.load(std::memory_order_acquire) > 0) continue;
      part.table.erase(f.pid);
    }
    // Unmapped and unpinned, the image is ours alone. A Fetch of this page
    // now misses and waits for evict_mu_, so it reads the written-back copy.
    Status s = FlushFrame(idx);
    if (!s.ok()) {
      MutexLock lock(&part.mu);
      part.table.emplace(f.pid, idx);
      return s;
    }
    f.in_use = false;
    stats_.evictions.Increment();
    metric_evictions_->Increment();
    *frame = idx;
    return Status::OK();
  }
  return Status::Busy("buffer pool exhausted: all frames pinned");
}

bool BufferPool::PinMapped(Partition& part, PageId id, PageHandle* out) {
  auto it = part.table.find(id);
  if (it == part.table.end()) return false;
  Frame& f = frames_[it->second];
  f.pin_count.fetch_add(1, std::memory_order_acquire);
  f.referenced.store(true, std::memory_order_relaxed);
  stats_.hits.Increment();
  metric_hits_->Increment();
  *out = PageHandle(this, it->second, id, &images_[it->second],
                    f.version.load(std::memory_order_acquire));
  return true;
}

void BufferPool::Publish(PageId id, size_t frame, PageHandle* out) {
  Frame& f = frames_[frame];
  f.pid = id;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.referenced.store(true, std::memory_order_relaxed);
  f.in_use = true;
  const uint64_t version = NextVersion();
  f.version.store(version, std::memory_order_relaxed);
  {
    Partition& part = PartitionOf(id);
    MutexLock lock(&part.mu);
    part.table[id] = frame;
  }
  *out = PageHandle(this, frame, id, &images_[frame], version);
}

Status BufferPool::Fetch(PageId id, PageHandle* out) {
  Partition& part = PartitionOf(id);
  {
    MutexLock lock(&part.mu);
    if (PinMapped(part, id, out)) return Status::OK();
  }
  MutexLock evict(&evict_mu_);
  {
    // A concurrent miss on the same page may have loaded it meanwhile.
    MutexLock lock(&part.mu);
    if (PinMapped(part, id, out)) return Status::OK();
  }
  stats_.misses.Increment();
  metric_misses_->Increment();
  size_t frame;
  DMX_RETURN_IF_ERROR(GetFreeFrame(&frame));
  DMX_RETURN_IF_ERROR(file_->Read(id, &images_[frame]));
  frames_[frame].dirty.store(false, std::memory_order_relaxed);
  Publish(id, frame, out);
  return Status::OK();
}

Status BufferPool::New(PageId* id, PageHandle* out) {
  DMX_RETURN_IF_ERROR(file_->Allocate(id));
  MutexLock evict(&evict_mu_);
  size_t frame;
  DMX_RETURN_IF_ERROR(GetFreeFrame(&frame));
  memset(images_[frame].data, 0, kPageSize);
  frames_[frame].dirty.store(true, std::memory_order_relaxed);
  Publish(*id, frame, out);
  return Status::OK();
}

Status BufferPool::FreePage(PageId id) {
  {
    MutexLock evict(&evict_mu_);
    Partition& part = PartitionOf(id);
    MutexLock lock(&part.mu);
    auto it = part.table.find(id);
    if (it != part.table.end()) {
      Frame& f = frames_[it->second];
      if (f.pin_count.load(std::memory_order_acquire) > 0) {
        return Status::Busy("freeing pinned page " + std::to_string(id));
      }
      f.in_use = false;
      f.dirty.store(false, std::memory_order_relaxed);
      part.table.erase(it);
    }
  }
  return file_->Free(id);
}

Status BufferPool::FlushAll() {
  MutexLock evict(&evict_mu_);
  DMX_RETURN_IF_ERROR(WriteBackAll());
  return file_->Sync();
}

Status BufferPool::WriteBackAll() {
  for (Partition& part : partitions_) part.mu.Lock();
  Status s;
  for (size_t i = 0; s.ok() && i < capacity_; ++i) {
    if (frames_[i].in_use) s = FlushFrame(i);
  }
  for (size_t i = kPartitions; i-- > 0;) partitions_[i].mu.Unlock();
  return s;
}

}  // namespace dmx
