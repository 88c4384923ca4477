#include "src/wal/archiver.h"

#include <chrono>

namespace dmx {

WalArchiver::WalArchiver(LogManager* log, Env* env, Options options)
    : log_(log), env_(env), options_(std::move(options)) {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_archived_ = metrics->GetCounter("wal.archived_segments");
  metric_failures_ = metrics->GetCounter("wal.archive_failures");
}

WalArchiver::~WalArchiver() { Stop(); }

Status WalArchiver::Start(std::function<void(const Status&)> on_failure) {
  DMX_RETURN_IF_ERROR(env_->CreateDir(options_.archive_dir));
  DMX_RETURN_IF_ERROR(env_->SyncDir(DirnameOf(options_.archive_dir)));
  if (thread_.joinable()) return Status::OK();
  {
    MutexLock lock(&mu_);
    stop_ = false;
    parked_ = false;
    on_failure_ = std::move(on_failure);
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void WalArchiver::Stop() {
  if (!thread_.joinable()) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
}

void WalArchiver::Kick() {
  {
    MutexLock lock(&mu_);
    kicked_ = true;
    parked_ = false;
  }
  cv_.NotifyAll();
}

void WalArchiver::Loop() {
  while (true) {
    {
      MutexLock lock(&mu_);
      if (!stop_ && !kicked_) {
        if (parked_) {
          cv_.Wait();
        } else {
          // Timed poll; a timeout wake is the normal case.
          (void)cv_.WaitUntil(
              std::chrono::steady_clock::now() +
              std::chrono::microseconds(options_.poll_interval_us));
        }
      }
      if (stop_) return;
      kicked_ = false;
      if (parked_) continue;
    }
    Status s = Poll();
    if (!s.ok() && !s.IsBusy()) {
      metric_failures_->Increment();
      std::function<void(const Status&)> cb;
      {
        MutexLock lock(&mu_);
        parked_ = true;  // recovery (or Stop) wakes us
        cb = on_failure_;
      }
      if (cb) cb(s);
    }
  }
}

Status WalArchiver::Poll() {
  // Rotate when the flushed frames of the live log pass the size target
  // (LSNs are byte offsets, so no file stat is needed). Busy — a pin, an
  // in-flight group flush, or freshly appended bytes — just means "not
  // now"; the next poll retries.
  if (log_->flushed_lsn() >
      log_->base_lsn() + options_.segment_target_bytes) {
    Status fs = log_->FlushAll();
    if (fs.ok()) {
      Status rs = log_->Rotate();
      if (!rs.ok() && !rs.IsBusy()) return rs;
    } else if (!fs.IsBusy()) {
      return fs;
    }
  }
  return ArchivePending();
}

Status WalArchiver::ArchivePending() {
  for (const LogManager::SegmentInfo& seg : log_->segments()) {
    if (seg.archived) continue;
    DMX_RETURN_IF_ERROR(ArchiveOne(seg));
    log_->MarkArchived(seg.seqno);
    metric_archived_->Increment();
  }
  return Status::OK();
}

Status WalArchiver::ArchiveOne(const LogManager::SegmentInfo& seg) {
  // Verify the source before a single byte leaves the database directory:
  // the archive must never launder local corruption into "safe" history.
  SegmentHeader hdr;
  DMX_RETURN_IF_ERROR(VerifySegmentFile(env_, seg.path, &hdr));
  if (hdr.seqno != seg.seqno || hdr.base_lsn != seg.base_lsn ||
      hdr.end_lsn != seg.end_lsn) {
    return Status::Corruption("segment '" + seg.path +
                              "' header disagrees with the wal registry");
  }
  const std::string final_path =
      options_.archive_dir + "/" + BasenameOf(seg.path);
  if (env_->FileExists(final_path).ok()) {
    // A previous pass (or a pre-crash incarnation) already published this
    // segment. Trust it only if it verifies identically; otherwise
    // replace it.
    SegmentHeader existing;
    Status v = VerifySegmentFile(env_, final_path, &existing);
    if (v.ok() && existing == hdr) return Status::OK();
    DMX_RETURN_IF_ERROR(env_->DeleteFile(final_path));
  }
  // Copy under a temporary name, then publish with rename + dir sync, so
  // a reader of the archive never observes a partial segment and a crash
  // mid-copy leaves only a harmless .tmp the next pass overwrites.
  const std::string tmp_path = final_path + ".tmp";
  if (env_->FileExists(tmp_path).ok()) {
    DMX_RETURN_IF_ERROR(env_->DeleteFile(tmp_path));
  }
  DMX_RETURN_IF_ERROR(env_->LinkOrCopyFile(seg.path, tmp_path));
  // Re-verify the landed bytes: the copy path itself (a flaky NFS mount,
  // a lying controller) is part of what the archive guards against.
  SegmentHeader copied;
  DMX_RETURN_IF_ERROR(VerifySegmentFile(env_, tmp_path, &copied));
  if (copied != hdr) {
    // Best-effort: the mismatched copy is garbage either way.
    (void)env_->DeleteFile(tmp_path);
    return Status::Corruption("archived copy of '" + seg.path +
                              "' does not match its source");
  }
  DMX_RETURN_IF_ERROR(env_->RenameFile(tmp_path, final_path));
  return env_->SyncDir(options_.archive_dir);
}

}  // namespace dmx
