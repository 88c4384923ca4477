#include "src/wal/log_manager.h"

#include <algorithm>
#include <chrono>

namespace dmx {

namespace {

// Unflushed bytes past which Append writes the buffer out without waiting
// for a commit. A bulk load in one transaction otherwise buffers its whole
// log (megabytes): the buffer keeps that capacity for the life of the
// database, and the multi-megabyte flush copy it frees raises malloc's
// dynamic mmap threshold, after which every large allocation in the
// process lands in (and fragments) the heap arenas.
constexpr size_t kMaxBufferedBytes = 256 << 10;

}  // namespace

LogManager::LogManager() {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_appends_ = metrics->GetCounter("wal.appends");
  metric_append_ns_ = metrics->GetHistogram("wal.append_ns");
  metric_syncs_ = metrics->GetCounter("wal.syncs");
  metric_sync_ns_ = metrics->GetHistogram("wal.sync_ns");
  metric_group_commits_ = metrics->GetCounter("wal.group_commits");
  metric_group_size_ = metrics->GetHistogram("wal.group_size");
  metric_relaxed_commits_ = metrics->GetCounter("wal.relaxed_commits");
  metric_segments_sealed_ = metrics->GetCounter("wal.segments_sealed");
  metric_sealed_unarchived_ = metrics->GetCounter("wal.sealed_unarchived");
}

LogManager::~LogManager() {
  StopFlusher();
  (void)Close();  // best-effort final flush; errors unreportable here
}

void LogManager::StartFlusher(uint64_t interval_us,
                              std::function<void(const Status&)> on_failure) {
  if (flusher_.joinable()) return;
  {
    MutexLock lock(&mu_);
    flusher_stop_ = false;
    flusher_interval_us_ = interval_us;
    flusher_on_failure_ = std::move(on_failure);
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void LogManager::StopFlusher() {
  if (!flusher_.joinable()) return;
  {
    MutexLock lock(&mu_);
    flusher_stop_ = true;
  }
  flusher_cv_.NotifyAll();
  flusher_.join();
}

void LogManager::FlusherLoop() {
  mu_.Lock();
  while (!flusher_stop_) {
    if (relaxed_unflushed_.load(std::memory_order_relaxed) == 0 || !file_ ||
        poison_ != PoisonKind::kNone) {
      // Nothing to do (or the log is down — background recovery flushes
      // the pending tail itself via Resume): sleep until the next relaxed
      // commit, a Resume, or Stop wakes us.
      flusher_cv_.Wait();
      continue;
    }
    // Absorb a burst: give other relaxed committers one interval to join
    // this group before paying the sync.
    (void)flusher_cv_.WaitUntil(
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(flusher_interval_us_));
    if (flusher_stop_ || !file_) continue;
    Status s = FlushToLocked(next_lsn_.load(std::memory_order_relaxed) - 1);
    if (!s.ok()) {
      // Report with mu_ released: the ErrorHandler wakes its recovery
      // thread, whose repair path re-enters this LogManager.
      auto cb = flusher_on_failure_;
      mu_.Unlock();
      if (cb) cb(s);
      mu_.Lock();
      if (flusher_stop_) break;
      // Don't spin against a persistent fault; the next relaxed commit or
      // a successful recovery flush wakes us.
      flusher_cv_.Wait();
    }
  }
  mu_.Unlock();
}

// Recovery-time open: the log is not yet shared, and discovery must
// finish before any append.
// deeplint: allow(blocking-under-lock, recovery open precedes sharing)
Status LogManager::Open(const std::string& path, bool create, Env* env) {
  MutexLock lock(&mu_);
  env_ = env != nullptr ? env : Env::Default();
  const bool existed = env_->FileExists(path).ok();
  DMX_RETURN_IF_ERROR(env_->NewRandomAccessFile(path, create, &file_));
  path_ = path;
  SetPoisonLocked(PoisonKind::kNone, Status::OK());
  buffer_.clear();
  flush_active_ = false;
  flush_target_ = 0;
  flush_result_ = Status::OK();
  buffered_commits_ = 0;
  relaxed_unflushed_.store(0, std::memory_order_release);
  uint64_t size = 0;
  Status s = file_->Size(&size);
  if (s.ok() && size == 0) {
    base_lsn_ = 0;
    gen_ = 1;
    s = WriteHeaderLocked();
    if (s.ok()) s = file_->Sync(/*data_only=*/false);
    if (s.ok() && !existed) s = env_->SyncDir(DirnameOf(path));
    size = kLogHeaderSize;
  } else if (s.ok()) {
    char hdr[kLogHeaderSize];
    size_t n = 0;
    s = file_->Read(0, kLogHeaderSize, hdr, &n);
    if (s.ok() && n != kLogHeaderSize) {
      s = Status::Corruption("short log header in '" + path + "'");
    }
    if (s.ok()) {
      s = DecodeLiveHeader(hdr, &base_lsn_, &gen_);
      if (!s.ok()) s = Status::Corruption(s.message() + " in '" + path + "'");
    }
  }
  if (!s.ok()) {
    (void)file_->Close();  // the open failure takes precedence
    file_.reset();
    return s;
  }
  const Lsn next = base_lsn_ + static_cast<Lsn>(size) - kLogHeaderSize + 1;
  next_lsn_.store(next, std::memory_order_release);
  flushed_lsn_.store(next - 1, std::memory_order_release);
  buffer_start_ = next;
  s = DiscoverSegmentsLocked();
  if (!s.ok()) {
    // Surface the discovery error; the close is cleanup.
    (void)file_->Close();
    file_.reset();
    return s;
  }
  return Status::OK();
}

Status LogManager::DiscoverSegmentsLocked() {
  segments_.clear();
  next_seg_seqno_ = 1;
  const std::string dir = DirnameOf(path_);
  const std::string basename = BasenameOf(path_);
  std::vector<std::string> names;
  Status ls = env_->ListDir(dir, &names);
  if (ls.IsNotFound()) return Status::OK();
  DMX_RETURN_IF_ERROR(ls);
  for (const std::string& name : names) {
    uint32_t seqno = 0;
    if (!ParseSegmentName(name, basename, &seqno)) continue;
    const std::string seg_path = dir + "/" + name;
    SegmentHeader hdr;
    if (!ReadSegmentHeader(env_, seg_path, &hdr).ok() ||
        hdr.base_lsn >= base_lsn_) {
      // Either an unreadable header (the partially written product of a
      // rotation that crashed before its segment sync) or a seemingly
      // valid segment whose frames the live log still owns (the rotation
      // crashed after the segment sync but before the live header
      // advanced). Both are duplicates of live content: discard.
      (void)env_->DeleteFile(seg_path);
      continue;
    }
    segments_.push_back(
        {hdr.seqno, hdr.base_lsn, hdr.end_lsn, hdr.gen, seg_path});
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.seqno < b.seqno;
            });
  // The retained chain must be contiguous and end exactly at the live
  // base — reclaim only ever removes a prefix, so any gap means lost WAL.
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Lsn expect_end =
        i + 1 < segments_.size() ? segments_[i + 1].base_lsn : base_lsn_;
    if (segments_[i].end_lsn != expect_end) {
      return Status::Corruption(
          "wal segment chain gap after '" + segments_[i].path +
          "' (ends at lsn " + std::to_string(segments_[i].end_lsn) +
          ", next begins at " + std::to_string(expect_end) + ")");
    }
  }
  if (!segments_.empty()) next_seg_seqno_ = segments_.back().seqno + 1;
  UpdateLagGaugeLocked();
  return Status::OK();
}

void LogManager::UpdateLagGaugeLocked() {
  uint64_t n = 0;
  for (const SegmentInfo& seg : segments_) {
    if (!seg.archived) ++n;
  }
  metric_sealed_unarchived_->Reset();
  metric_sealed_unarchived_->Increment(n);
}

Status LogManager::WriteHeaderLocked() {
  std::string enc;
  EncodeLiveHeader(base_lsn_, gen_, &enc);
  return file_->Write(0, enc.data(), enc.size());
}

// Teardown: final flush after the group-commit leader quiesces; no
// writer can need mu_ again.
// deeplint: allow(blocking-under-lock, teardown flush after quiesce)
Status LogManager::Close() {
  MutexLock lock(&mu_);
  if (!file_) return Status::OK();
  // Let any in-flight group flush finish before the file goes away (its
  // leader holds a raw file pointer across the unlocked fsync).
  while (flush_active_) flush_cv_.Wait();
  Status s =
      FlushToLocked(next_lsn_.load(std::memory_order_relaxed) - 1);
  Status c = file_->Close();
  file_.reset();
  flusher_cv_.NotifyAll();  // flusher re-checks file_ and parks
  return s.ok() ? c : s;
}

Status LogManager::PoisonedLocked() const {
  return Status::IOError("log poisoned by failed truncation (" +
                         poison_cause_.ToString() + ")");
}

void LogManager::SetPoisonLocked(PoisonKind kind, Status cause) {
  poison_ = kind;
  poison_cause_ = std::move(cause);
  poisoned_.store(kind != PoisonKind::kNone, std::memory_order_release);
}

Status LogManager::AppendLocked(LogRecord* rec, const std::string& body) {
  ScopedTimer timer((append_tick_++ & 63) == 0 ? metric_append_ns_ : nullptr);
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  rec->lsn = next_lsn_.load(std::memory_order_relaxed);
  const size_t buffered_before = buffer_.size();
  EncodeWalFrame(gen_, body, &buffer_);
  next_lsn_.store(rec->lsn + (buffer_.size() - buffered_before),
                  std::memory_order_release);
  records_appended_.Increment();
  metric_appends_->Increment();
  if (rec->type == LogRecType::kCommit) ++buffered_commits_;
  return Status::OK();
}

Status LogManager::Append(LogRecord* rec) {
  std::string body;
  rec->EncodeTo(&body);  // before the mutex: the body holds no LSN
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(AppendLocked(rec, body));
  if (buffer_.size() >= kMaxBufferedBytes && file_) {
    // Writing log records early is always allowed. A failure changes
    // nothing (the bytes stay buffered) and the next commit's flush
    // retries and reports it, so the record stays appended either way.
    (void)FlushToLocked(rec->lsn);
  }
  return Status::OK();
}

Status LogManager::AppendAndFlush(LogRecord* rec) {
  std::string body;
  rec->EncodeTo(&body);  // before the mutex: the body holds no LSN
  MutexLock lock(&mu_);
  const size_t buffered_before = buffer_.size();
  DMX_RETURN_IF_ERROR(AppendLocked(rec, body));
  const size_t frame_size = buffer_.size() - buffered_before;
  Status s = FlushToLocked(rec->lsn);
  if (!s.ok() && poison_ == PoisonKind::kNone && !flush_active_ &&
      rec->lsn >= buffer_start_ &&
      rec->lsn + static_cast<Lsn>(frame_size) ==
          next_lsn_.load(std::memory_order_relaxed)) {
    // The failed flush left our frame as the unflushed buffer tail (no
    // concurrent append buried it, no snapshot is in flight): drop it
    // again. The caller's last_lsn chain stays untouched and its Abort
    // rolls back normally. If concurrent committers did append past us,
    // the frame stays buffered — their retry/abort chain replays the
    // transaction to the aborted state, so recovery never resurrects it
    // as committed. Caveat (documented in DESIGN.md §11): if the failed
    // flush's write reached the platter and the process dies before the
    // tail bytes are overwritten by a later flush, replay can still see
    // this record — an errored commit is ambiguous, like every WAL
    // system's.
    buffer_.resize(static_cast<size_t>(rec->lsn - buffer_start_));
    next_lsn_.store(rec->lsn, std::memory_order_release);
    if (buffered_commits_ > 0) --buffered_commits_;
    rec->lsn = kInvalidLsn;
  }
  return s;
}

Status LogManager::AppendCommitRelaxed(LogRecord* rec) {
  std::string body;
  rec->EncodeTo(&body);  // before the mutex: the body holds no LSN
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(AppendLocked(rec, body));
  relaxed_unflushed_.fetch_add(1, std::memory_order_release);
  metric_relaxed_commits_->Increment();
  flusher_cv_.NotifyOne();
  return Status::OK();
}

Status LogManager::FlushTo(Lsn lsn) {
  MutexLock lock(&mu_);
  return FlushToLocked(lsn);
}

Status LogManager::FlushToLocked(Lsn lsn) {
  while (true) {
    if (poison_ != PoisonKind::kNone) return PoisonedLocked();
    if (lsn <= flushed_lsn_.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    if (!flush_active_) break;  // become the leader
    // Follower: wait for the in-flight batch to finish, then learn our
    // fate from its outcome.
    const uint64_t seq = flush_seq_;
    while (flush_active_ && flush_seq_ == seq) flush_cv_.Wait();
    if (lsn <= flushed_lsn_.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    if (!flush_result_.ok() && lsn <= flush_target_) {
      // Our frame was inside the failed batch: report the leader's
      // original failing Status, never a fabricated one.
      return flush_result_;
    }
    // Appended after the snapshot (or the batch failed below us): loop —
    // we will either follow the next leader or lead ourselves.
  }
  if (buffer_.empty()) return Status::OK();
  flush_active_ = true;
  // Snapshot under the lock, then release it for the disk I/O: committers
  // arriving during the write+fsync append freely and form the next
  // batch. The buffer keeps its bytes until the flush succeeds, so
  // ReadRecord (rollback chains) stays serviceable throughout.
  const Lsn target = next_lsn_.load(std::memory_order_relaxed) - 1;
  const std::string batch = buffer_;
  const uint64_t file_off = buffer_start_ - base_lsn_ - 1 + kLogHeaderSize;
  const uint64_t batch_commits = buffered_commits_;
  const uint64_t batch_relaxed =
      relaxed_unflushed_.load(std::memory_order_relaxed);
  RandomAccessFile* file = file_.get();
  mu_.Unlock();
  Status s;
  {
    ScopedTimer timer(metric_sync_ns_);
    metric_syncs_->Increment();
    s = file->Write(file_off, batch.data(), batch.size());
    if (s.ok()) s = file->Sync(/*data_only=*/true);
  }
  mu_.Lock();
  flush_active_ = false;
  ++flush_seq_;
  flush_target_ = target;
  flush_result_ = s;
  if (s.ok()) {
    buffer_.erase(0, batch.size());
    buffer_start_ += batch.size();
    flushed_lsn_.store(target, std::memory_order_release);
    buffered_commits_ -= batch_commits;
    relaxed_unflushed_.fetch_sub(batch_relaxed, std::memory_order_release);
    if (batch_commits > 0) {
      metric_group_commits_->Increment();
      metric_group_size_->Record(static_cast<uint64_t>(batch_commits));
    }
  }
  // On failure nothing moved: the buffer, counters, and flushed_lsn_ are
  // exactly as before the attempt, so the log is still cleanly usable the
  // moment the fault clears (and Resume can flush the same bytes).
  flush_cv_.NotifyAll();
  return s;
}

Status LogManager::FlushAll() {
  MutexLock lock(&mu_);
  if (!file_) return Status::OK();
  return FlushToLocked(next_lsn_.load(std::memory_order_relaxed) - 1);
}

Status LogManager::Scan(const std::function<Status(const LogRecord&)>& fn) {
  DMX_RETURN_IF_ERROR(FlushAll());
  // Restart owns the log (the flusher, the archiver and the error handler
  // start after it), so the frames are read with mu_ released: redo's page
  // write-backs call FlushTo, which takes it.
  std::vector<SegmentInfo> segs;
  SegmentInfo live_info;  // the live file's base, generation and path
  Env* env = nullptr;
  RandomAccessFile* live = nullptr;
  {
    MutexLock lock(&mu_);
    if (!file_) return Status::IOError("log not open");
    segs = segments_;
    live_info = {0, base_lsn_, 0, gen_, path_};
    env = env_;
    live = file_.get();
  }
  // Each frame's LSN is its file's base LSN + its offset past `begin` + 1.
  Lsn file_base = 0;
  uint64_t begin = 0;
  auto decode = [&](uint64_t at, Slice body) {
    LogRecord rec;
    rec.lsn = file_base + (at - begin) + 1;
    if (!LogRecord::DecodeFrom(&body, &rec).ok()) {
      // The bytes are intact (crc passed) yet undecodable: a writer bug or
      // format mismatch, not a torn tail.
      return Status::Corruption("undecodable wal record at lsn " +
                                std::to_string(rec.lsn));
    }
    return fn(rec);
  };
  // Sealed segments first (oldest to newest), then the live file. The
  // chain was verified contiguous at Open, so this replays an unbroken LSN
  // range ending at the live base. Replaying pre-checkpoint segments that
  // merely await archiving is harmless: redo is page-LSN gated and every
  // transaction they contain has ended.
  uint64_t stop = 0;
  for (const SegmentInfo& seg : segs) {
    std::unique_ptr<RandomAccessFile> f;
    DMX_RETURN_IF_ERROR(
        env->NewRandomAccessFile(seg.path, /*create=*/false, &f));
    file_base = seg.base_lsn;
    begin = kSegHeaderSize;
    Status s = ScanWalFrames(f.get(), begin,
                             begin + (seg.end_lsn - seg.base_lsn), seg.gen,
                             /*tail_ok=*/false, seg.path, decode, &stop);
    // Read-only segment handle; the scan status is the outcome.
    (void)f->Close();
    DMX_RETURN_IF_ERROR(s);
  }
  uint64_t size = 0;
  DMX_RETURN_IF_ERROR(live->Size(&size));
  file_base = live_info.base_lsn;
  begin = kLogHeaderSize;
  DMX_RETURN_IF_ERROR(ScanWalFrames(live, begin, size, live_info.gen,
                                    /*tail_ok=*/true, live_info.path, decode,
                                    &stop));
  if (stop >= size) return Status::OK();
  // Self-heal: cut the torn or stale tail off so later appends never
  // interleave with its bytes, before restart's undo appends its first
  // CLR. Propagate failure — continuing with the tail in place risks
  // replaying garbage after the next crash.
  DMX_RETURN_IF_ERROR(live->Truncate(stop));
  DMX_RETURN_IF_ERROR(live->Sync(/*data_only=*/true));
  MutexLock lock(&mu_);
  const Lsn next = base_lsn_ + (stop - kLogHeaderSize) + 1;
  next_lsn_.store(next, std::memory_order_release);
  flushed_lsn_.store(next - 1, std::memory_order_release);
  buffer_start_ = next;
  return Status::OK();
}

// Undo-path point read: mu_ pins the chain so rotation cannot unlink
// the frame mid-read.
// deeplint: allow(blocking-under-lock, point read pins chain vs rotation)
Status LogManager::ReadRecord(Lsn lsn, LogRecord* out) {
  MutexLock lock(&mu_);
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  if (lsn == kInvalidLsn ||
      lsn >= next_lsn_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("bad lsn " + std::to_string(lsn));
  }
  auto decode = [lsn, out](const WalFrame& frame) -> Status {
    if (frame.status != WalFrameStatus::kOk) {
      return Status::Corruption(std::string("wal ") +
                                WalFrameProblem(frame.status) + " at lsn " +
                                std::to_string(lsn));
    }
    Slice in(frame.body);
    DMX_RETURN_IF_ERROR(LogRecord::DecodeFrom(&in, out));
    out->lsn = lsn;
    return Status::OK();
  };
  if (lsn >= buffer_start_) {
    // Not yet flushed: served from the in-memory buffer.
    return decode(DecodeWalFrame(
        buffer_, static_cast<size_t>(lsn - buffer_start_), gen_));
  }
  WalFrame frame;
  if (lsn > base_lsn_) {
    WalFrameReader reader(file_.get(), lsn - base_lsn_ - 1 + kLogHeaderSize,
                          buffer_start_ - base_lsn_ - 1 + kLogHeaderSize,
                          gen_, WalFrameReader::kPointRead);
    DMX_RETURN_IF_ERROR(reader.Next(&frame));
    return decode(frame);
  }
  // Rotated past: a rollback chain reaching across a rotation reads its
  // record from the sealed segment that owns the LSN.
  for (const SegmentInfo& seg : segments_) {
    if (lsn <= seg.base_lsn || lsn > seg.end_lsn) continue;
    std::unique_ptr<RandomAccessFile> f;
    DMX_RETURN_IF_ERROR(
        env_->NewRandomAccessFile(seg.path, /*create=*/false, &f));
    WalFrameReader reader(f.get(), kSegHeaderSize + (lsn - seg.base_lsn - 1),
                          kSegHeaderSize + (seg.end_lsn - seg.base_lsn),
                          seg.gen, WalFrameReader::kPointRead);
    Status s = reader.Next(&frame);
    if (s.ok()) s = decode(frame);
    // Read-only segment handle; the frame status is the outcome.
    (void)f->Close();
    return s;
  }
  return Status::InvalidArgument("bad lsn " + std::to_string(lsn));
}

Status LogManager::ReclaimBlockedLocked() const {
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  if (flush_active_) {
    // A leader is mid-fsync with the file offsets we are about to change.
    return Status::Busy("group flush in progress; retry the truncation");
  }
  if (pins_ > 0) {
    return Status::Busy("wal pinned (online backup in progress)");
  }
  if (!buffer_.empty()) {
    return Status::Busy("flush the log before truncating");
  }
  return Status::OK();
}

Status LogManager::Truncate() {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(ReclaimBlockedLocked());
  return TruncateLocked();
}

Status LogManager::TruncateLocked() {
  const Lsn old_base = base_lsn_;
  const uint32_t old_gen = gen_;
  base_lsn_ = next_lsn_.load(std::memory_order_relaxed) - 1;
  gen_ += 1;
  // Header first: once the new header (advanced base, bumped generation) is
  // durable, any frames still in the file belong to the old generation and
  // replay discards them, so a crash before the shrink below is harmless.
  Status s = WriteHeaderLocked();
  if (s.ok()) s = file_->Sync(/*data_only=*/false);
  if (!s.ok()) {
    base_lsn_ = old_base;
    gen_ = old_gen;
    Status restore = WriteHeaderLocked();
    if (restore.ok()) restore = file_->Sync(/*data_only=*/false);
    // If we cannot tell which header is on disk, refuse all further work.
    if (!restore.ok()) {
      SetPoisonLocked(PoisonKind::kHeaderUnknown, restore);
    }
    return s;
  }
  s = file_->Truncate(kLogHeaderSize);
  if (s.ok()) s = file_->Sync(/*data_only=*/true);
  if (!s.ok()) {
    // The new header is durable but the old frames may linger; in-memory
    // offsets no longer match the file reliably. Refuse further work.
    SetPoisonLocked(PoisonKind::kStaleTail, s);
    return s;
  }
  buffer_start_ = next_lsn_.load(std::memory_order_relaxed);
  flushed_lsn_.store(buffer_start_ - 1, std::memory_order_release);
  return Status::OK();
}

Status LogManager::ReadFlushedLocked(uint64_t offset, std::string* out) {
  const size_t start = out->size();
  const size_t n = static_cast<size_t>(
      kLogHeaderSize +
      (flushed_lsn_.load(std::memory_order_relaxed) - base_lsn_) - offset);
  out->resize(start + n);
  size_t got = 0;
  DMX_RETURN_IF_ERROR(file_->Read(offset, n, out->data() + start, &got));
  return got == n ? Status::OK() : Status::IOError("short live-wal read");
}

std::string LogManager::SegmentPathLocked(uint32_t seqno) const {
  return DirnameOf(path_) + "/" + SegmentFileName(BasenameOf(path_), seqno);
}

void LogManager::SetRetainSegments(bool retain) {
  MutexLock lock(&mu_);
  retain_segments_ = retain;
}

Status LogManager::Rotate() {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(ReclaimBlockedLocked());
  return RotateLocked();
}

Status LogManager::RotateLocked() {
  const Lsn flushed = flushed_lsn_.load(std::memory_order_relaxed);
  if (flushed <= base_lsn_) return Status::OK();  // empty live log: no-op
  // Seal first: the segment must be durable (file + directory entry)
  // before the live header advances past its frames, so a crash at any
  // point leaves at least one complete copy of every flushed record.
  const SegmentInfo info{next_seg_seqno_, base_lsn_, flushed, gen_,
                         SegmentPathLocked(next_seg_seqno_)};
  std::string bytes;  // the segment header, then the flushed frames
  EncodeSegmentHeader({info.seqno, info.base_lsn, info.end_lsn, info.gen},
                      &bytes);
  DMX_RETURN_IF_ERROR(ReadFlushedLocked(kLogHeaderSize, &bytes));
  std::unique_ptr<RandomAccessFile> seg;
  Status s = env_->NewRandomAccessFile(info.path, /*create=*/true, &seg);
  if (s.ok()) s = seg->Truncate(0);
  if (s.ok()) s = seg->Write(0, bytes.data(), bytes.size());
  if (s.ok()) s = seg->Sync(/*data_only=*/false);
  if (s.ok()) s = seg->Close();
  if (s.ok()) s = env_->SyncDir(DirnameOf(path_));
  if (!s.ok()) {
    // The live log is untouched and fully usable; discard the partial
    // segment so a later rotation starts clean.
    if (seg) (void)seg->Close();
    // Best-effort: a leftover partial segment is garbage either way.
    (void)env_->DeleteFile(info.path);
    return s;
  }
  segments_.push_back(info);
  ++next_seg_seqno_;
  Status ts = TruncateLocked();
  if (!ts.ok() && base_lsn_ < info.end_lsn) {
    // The live header never advanced (kHeaderUnknown window or an early
    // failure with the old header restored): the live file still owns
    // these frames, so the sealed copy is a duplicate — exactly what
    // DiscoverSegmentsLocked would delete after a crash here. In the
    // kStaleTail window the header did advance and the segment is the
    // only complete copy; it stays registered.
    segments_.pop_back();
    --next_seg_seqno_;
    // Best-effort: the duplicate copy is re-deleted at next discovery.
    (void)env_->DeleteFile(info.path);
    return ts;
  }
  DMX_RETURN_IF_ERROR(ts);
  metric_segments_sealed_->Increment();
  UpdateLagGaugeLocked();
  return Status::OK();
}

// Truncation must be atomic with respect to appends; the rewrite is
// small and checkpoint-rate.
// deeplint: allow(blocking-under-lock, truncate is atomic vs appends)
Status LogManager::CheckpointTruncate() {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(ReclaimBlockedLocked());
  if (!retain_segments_) {
    DMX_RETURN_IF_ERROR(TruncateLocked());
    // No archiver: sealed segments (left over from a config change) are
    // dead history like everything else the checkpoint discards.
    for (const SegmentInfo& seg : segments_) (void)env_->DeleteFile(seg.path);
    segments_.clear();
    UpdateLagGaugeLocked();
    return Status::OK();
  }
  DMX_RETURN_IF_ERROR(RotateLocked());
  // Archive-before-truncate: only segments with a verified archive copy
  // are reclaimable. An unreachable archive stalls reclaim (WAL grows),
  // never costs history.
  while (!segments_.empty() && segments_.front().archived) {
    Status s = env_->DeleteFile(segments_.front().path);
    if (!s.ok() && !s.IsNotFound()) return s;  // retry at next checkpoint
    segments_.erase(segments_.begin());
  }
  UpdateLagGaugeLocked();
  return Status::OK();
}

std::vector<LogManager::SegmentInfo> LogManager::segments() const {
  MutexLock lock(&mu_);
  return segments_;
}

void LogManager::MarkArchived(uint32_t seqno) {
  MutexLock lock(&mu_);
  for (SegmentInfo& seg : segments_) {
    if (seg.seqno == seqno) seg.archived = true;
  }
  UpdateLagGaugeLocked();
}

uint64_t LogManager::sealed_unarchived() const {
  MutexLock lock(&mu_);
  uint64_t n = 0;
  for (const SegmentInfo& seg : segments_) {
    if (!seg.archived) ++n;
  }
  return n;
}

void LogManager::PinWal() {
  MutexLock lock(&mu_);
  ++pins_;
}

void LogManager::UnpinWal() {
  MutexLock lock(&mu_);
  if (pins_ > 0) --pins_;
}

Lsn LogManager::base_lsn() const {
  MutexLock lock(&mu_);
  return base_lsn_;
}

// Backup copies a frozen durable prefix; mu_ keeps rotation and
// truncation out for the copy.
// deeplint: allow(blocking-under-lock, backup copies a frozen prefix)
Status LogManager::SnapshotLiveTo(const std::string& dest_path) {
  MutexLock lock(&mu_);
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  if (!file_) return Status::IOError("log not open");
  // Wait out an in-flight group flush so the durable prefix is stable
  // (the leader writes the file with mu_ released).
  while (flush_active_) flush_cv_.Wait();
  std::string bytes;
  DMX_RETURN_IF_ERROR(ReadFlushedLocked(0, &bytes));
  std::unique_ptr<RandomAccessFile> dest;
  DMX_RETURN_IF_ERROR(
      env_->NewRandomAccessFile(dest_path, /*create=*/true, &dest));
  DMX_RETURN_IF_ERROR(dest->Truncate(0));
  DMX_RETURN_IF_ERROR(dest->Write(0, bytes.data(), bytes.size()));
  DMX_RETURN_IF_ERROR(dest->Sync(/*data_only=*/false));
  return dest->Close();
}

// Poison recovery: the log is quiesced by the poison gate, and repair
// I/O must be exclusive.
// deeplint: allow(blocking-under-lock, poison repair I/O is exclusive)
Status LogManager::Resume() {
  MutexLock lock(&mu_);
  if (!file_) return Status::IOError("log not open");
  switch (poison_) {
    case PoisonKind::kNone:
      break;
    case PoisonKind::kHeaderUnknown:
      // Neither the new nor the restored (current in-memory) header is
      // known to be on disk: rewrite ours and make it durable. Until this
      // succeeds the poison stays set and we keep returning the fault.
      DMX_RETURN_IF_ERROR(WriteHeaderLocked());
      DMX_RETURN_IF_ERROR(file_->Sync(/*data_only=*/false));
      break;
    case PoisonKind::kStaleTail:
      // The advanced header is durable; finish the interrupted shrink so
      // old-generation frames cannot linger past the next crash.
      DMX_RETURN_IF_ERROR(file_->Truncate(kLogHeaderSize));
      DMX_RETURN_IF_ERROR(file_->Sync(/*data_only=*/true));
      buffer_start_ = next_lsn_.load(std::memory_order_relaxed);
      flushed_lsn_.store(buffer_start_ - 1, std::memory_order_release);
      break;
  }
  SetPoisonLocked(PoisonKind::kNone, Status::OK());
  // Probe the full append/force path before declaring the log healthy: a
  // pending buffer is the real thing to flush; otherwise rewrite + sync
  // the header as a same-shape write.
  if (!buffer_.empty()) {
    return FlushToLocked(next_lsn_.load(std::memory_order_relaxed) - 1);
  }
  DMX_RETURN_IF_ERROR(WriteHeaderLocked());
  return file_->Sync(/*data_only=*/false);
}

}  // namespace dmx
