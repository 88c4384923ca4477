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
  MutexLock lock(&pool_->mu_);
  BufferPool::Frame& f = pool_->frames_[frame_];
  f.dirty = true;
  f.version = ++pool_->change_seq_;
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
      images_(std::make_unique_for_overwrite<Page[]>(capacity)) {
  frames_.resize(capacity_);
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
  MutexLock lock(&mu_);
  Frame& f = frames_[frame];
  assert(f.in_use && f.pid == pid && f.pin_count > 0);
  (void)pid;
  --f.pin_count;
  f.referenced = true;
}

Status BufferPool::FlushFrame(size_t frame) {
  Frame& f = frames_[frame];
  if (!f.dirty) return Status::OK();
  if (wal_flush_) {
    Lsn lsn = PageLsn(images_[frame]);
    if (lsn != kInvalidLsn) DMX_RETURN_IF_ERROR(wal_flush_(lsn));
  }
  DMX_RETURN_IF_ERROR(file_->Write(f.pid, images_[frame]));
  f.dirty = false;
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
    if (f.pin_count > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    DMX_RETURN_IF_ERROR(FlushFrame(idx));
    table_.erase(f.pid);
    f.in_use = false;
    stats_.evictions.Increment();
    metric_evictions_->Increment();
    *frame = idx;
    return Status::OK();
  }
  return Status::Busy("buffer pool exhausted: all frames pinned");
}

Status BufferPool::Fetch(PageId id, PageHandle* out) {
  MutexLock lock(&mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    Frame& f = frames_[it->second];
    ++f.pin_count;
    f.referenced = true;
    stats_.hits.Increment();
    metric_hits_->Increment();
    *out =
        PageHandle(this, it->second, id, &images_[it->second], f.version);
    return Status::OK();
  }
  stats_.misses.Increment();
  metric_misses_->Increment();
  size_t frame;
  DMX_RETURN_IF_ERROR(GetFreeFrame(&frame));
  Frame& f = frames_[frame];
  DMX_RETURN_IF_ERROR(file_->Read(id, &images_[frame]));
  f.pid = id;
  f.pin_count = 1;
  f.dirty = false;
  f.referenced = true;
  f.in_use = true;
  f.version = ++change_seq_;
  table_[id] = frame;
  *out = PageHandle(this, frame, id, &images_[frame], f.version);
  return Status::OK();
}

Status BufferPool::New(PageId* id, PageHandle* out) {
  DMX_RETURN_IF_ERROR(file_->Allocate(id));
  MutexLock lock(&mu_);
  size_t frame;
  DMX_RETURN_IF_ERROR(GetFreeFrame(&frame));
  Frame& f = frames_[frame];
  memset(images_[frame].data, 0, kPageSize);
  f.pid = *id;
  f.pin_count = 1;
  f.dirty = true;
  f.referenced = true;
  f.in_use = true;
  f.version = ++change_seq_;
  table_[*id] = frame;
  *out = PageHandle(this, frame, *id, &images_[frame], f.version);
  return Status::OK();
}

Status BufferPool::FreePage(PageId id) {
  {
    MutexLock lock(&mu_);
    auto it = table_.find(id);
    if (it != table_.end()) {
      Frame& f = frames_[it->second];
      if (f.pin_count > 0) {
        return Status::Busy("freeing pinned page " + std::to_string(id));
      }
      f.in_use = false;
      f.dirty = false;
      table_.erase(it);
    }
  }
  return file_->Free(id);
}

Status BufferPool::FlushAll() {
  MutexLock lock(&mu_);
  for (size_t i = 0; i < capacity_; ++i) {
    if (frames_[i].in_use) DMX_RETURN_IF_ERROR(FlushFrame(i));
  }
  return file_->Sync();
}

}  // namespace dmx
