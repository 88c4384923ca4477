// LogManager: append-only write-ahead log with group buffering and
// per-record checksums.
//
// The file layout and the frame codec are wal_format.h's. The frame crc
// mixes in the header's generation number, so replay can tell three
// situations apart:
//   * torn tail — the final frame is incomplete or fails its crc: the write
//     never finished before a crash; replay stops cleanly and the tail is
//     truncated away;
//   * stale frames — a crc that matches a *previous* generation marks bytes
//     left over from before a checkpoint truncation that crashed between
//     writing the new header and shrinking the file; replay discards them;
//   * corruption — a crc mismatch anywhere else (e.g. a flipped bit in the
//     middle of the log) is real damage: Scan returns kCorruption rather
//     than silently replaying a prefix.
//
// LSN = base_lsn + (file offset - header) + 1, so kInvalidLsn = 0 is never a
// real LSN and LSNs keep increasing across checkpoint truncations (page LSNs
// stamped before a checkpoint must stay smaller than every post-checkpoint
// LSN for redo gating to work). A frame occupies 8 + length bytes of LSN
// space.
//
// Checkpoint truncation is crash-safe: Truncate writes and syncs the new
// header (advanced base, bumped generation) before shrinking the file, so a
// crash at any point leaves either the old log or the new empty log, never a
// file whose header disagrees with its frames. If Truncate fails after the
// point of no return the manager poisons itself — every later operation
// returns IOError (carrying the original failing Status) until the log is
// reopened or Resume() repairs it in place.
//
// Resume() is the un-poison contract for the ErrorHandler's background
// recovery: it finishes whichever half of the failed truncation is
// outstanding (rewrite the restored header, or complete the shrink), then
// probes the full append+sync path, and only clears the poison when every
// step succeeds. While the fault persists, Resume keeps failing and the
// manager stays poisoned; callers retry on their own schedule.
//
// Group commit (the only flush protocol): a committer that needs lsn N
// durable becomes the *leader* if no flush is running — it snapshots the
// whole buffer, releases the mutex, and pays one write+fsync for every
// record appended so far; committers that arrive while that fsync is in
// flight append their frames (the mutex is free) and wait as *followers*
// on the condvar. When the leader finishes it acknowledges every follower
// whose LSN the batch covered; an uncovered follower becomes the next
// leader, so batches form naturally from fsync latency without any timer.
// A lone committer is its own leader and pays one fsync per commit. On a
// failed group flush nothing is acknowledged: the buffer and counters are
// left intact, every follower inside the failed batch gets the leader's
// original failing Status (never a fabricated one), and strict committers
// can abort cleanly.
//
// Segments and archiving: Rotate() freezes the flushed frames of the live
// file into an immutable sealed segment (`<wal>.NNNNNN.seg`, wal_format.h)
// and resets the live file, so LSNs keep increasing while history becomes a
// chain of verifiable files an archiver can copy off-box. With
// SetRetainSegments(true), CheckpointTruncate() reclaims only segments the
// archiver has confirmed archived — archive-before-truncate — and Scan /
// ReadRecord transparently serve records from sealed segments, so restart
// recovery and rollback chains are unaware of rotation. PinWal() (held by
// online backup) makes rotation/truncation/reclaim return Busy so the WAL
// range a backup needs cannot vanish mid-copy.
//
// Relaxed durability: AppendCommitRelaxed acknowledges a commit at
// append; a background flusher thread (StartFlusher) groups such commits
// and makes them durable within ~flush_interval. unflushed_commits()
// exposes how many acknowledged-but-not-yet-durable commits exist (the
// window a crash may lose — by design, and only in relaxed mode).
//
// All I/O goes through a pluggable Env (fault injection in tests).

#ifndef DMX_WAL_LOG_MANAGER_H_
#define DMX_WAL_LOG_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/util/common.h"
#include "src/util/env.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/wal/log_record.h"
#include "src/wal/wal_format.h"

namespace dmx {

class LogManager {
 public:
  LogManager();
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Open (or create) the log file through `env` (Env::Default() when
  /// null). Creation syncs the file and its parent directory.
  Status Open(const std::string& path, bool create, Env* env = nullptr);
  Status Close();

  /// Append a record; assigns rec->lsn. Does not force to disk — call
  /// FlushTo (the buffer-pool WAL hook and commits do) — except that once
  /// the unflushed buffer passes 256 KiB it is written out here, so one
  /// large transaction cannot grow the buffer without bound.
  Status Append(LogRecord* rec);

  /// Append + force in one unit (the strict commit record). The force
  /// joins the leader/follower protocol, so concurrent callers share one
  /// fsync. If the flush fails and the frame is still the unflushed
  /// buffer tail, it is removed again and rec->lsn reset to
  /// kInvalidLsn, so the caller's rollback chain never crosses an
  /// unacknowledged commit record and a clean Abort remains possible
  /// while the disk misbehaves. When concurrent appends have already
  /// buried the frame, it stays in the buffer — harmless, because the
  /// caller's abort chain (kAbort + CLRs + kEnd) replays the transaction
  /// to the aborted state (see DESIGN.md §11/§12).
  Status AppendAndFlush(LogRecord* rec);

  /// Relaxed-durability commit: append the commit record and return at
  /// once. Durability is deferred to the background flusher (or to any
  /// later flush). A crash before that flush loses the commit — the
  /// contract the caller opted into with Durability::kRelaxed.
  Status AppendCommitRelaxed(LogRecord* rec);

  /// Commits acknowledged under relaxed durability whose records are not
  /// yet on disk (DESCRIBE surfaces this as db.unflushed_commits).
  uint64_t unflushed_commits() const {
    return relaxed_unflushed_.load(std::memory_order_acquire);
  }

  /// Start the background group flusher for relaxed commits: wakes when
  /// relaxed commits are pending, batches them for `interval_us`, and
  /// forces the log. `on_failure` is invoked (without the log mutex) with
  /// the failing Status so the ErrorHandler can degrade the database.
  void StartFlusher(uint64_t interval_us,
                    std::function<void(const Status&)> on_failure);

  /// Stop and join the background flusher (idempotent).
  void StopFlusher();

  /// Ensure all records with lsn <= `lsn` are durable.
  Status FlushTo(Lsn lsn);
  /// Flush everything appended so far.
  Status FlushAll();

  Lsn flushed_lsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }
  Lsn next_lsn() const { return next_lsn_.load(std::memory_order_acquire); }

  /// Restart's forward scan: `fn` sees every retained record, oldest first,
  /// read through a fixed-size window. A torn or stale live tail ends the
  /// scan and is cut off the file before Scan returns; mid-log damage is
  /// kCorruption. `fn` runs with no mutex held and may call FlushTo; no
  /// other thread may append, rotate, truncate or close the log meanwhile.
  Status Scan(const std::function<Status(const LogRecord&)>& fn);

  /// Read a single record by LSN (for rollback chains), verifying its crc.
  Status ReadRecord(Lsn lsn, LogRecord* out);

  /// Discard every record (checkpoint): the file becomes an empty log
  /// whose base is the current end, so future LSNs continue from here.
  /// The caller must ensure nothing in the discarded range is still
  /// needed (no active transactions; all pages/snapshots flushed).
  /// Sealed segments are untouched. Busy while the WAL is pinned.
  Status Truncate();

  // -- segmentation / archiving ---------------------------------------------

  /// A sealed, immutable log segment produced by Rotate() — see
  /// wal_format.h for the on-disk layout. Frames cover (base_lsn, end_lsn].
  struct SegmentInfo {
    uint32_t seqno = 0;
    Lsn base_lsn = 0;
    Lsn end_lsn = 0;
    uint32_t gen = 0;  // generation the frames were crc'd with
    std::string path;
    bool archived = false;  // a verified archive copy exists
  };

  /// Retain sealed segments across checkpoints for an archiver. Off (the
  /// pre-archiving behavior) CheckpointTruncate discards history exactly
  /// like Truncate. Set once at open, before concurrent use.
  void SetRetainSegments(bool retain);

  /// Seal the flushed frames of the live log into a new segment file
  /// (written and synced before the live file is touched) and reset the
  /// live file to an empty log continuing at the same LSN/new generation.
  /// Busy when unflushed bytes, an in-flight group flush, or a WAL pin
  /// make sealing unsafe right now; OK no-op on an empty live log. A crash
  /// at any point leaves either the old live log (a duplicate segment is
  /// deleted at the next Open) or the sealed segment + empty live log.
  Status Rotate();

  /// The checkpoint-time reclaim. With segment retention on: rotate the
  /// live log, then delete only segments already confirmed archived — the
  /// "archive before truncate" invariant; an unarchived segment is never
  /// reclaimed, so WAL space grows while the archive is unreachable
  /// instead of losing history. Retention off: plain Truncate() plus
  /// removal of any leftover segments. Same Busy conditions as Truncate.
  Status CheckpointTruncate();

  /// Snapshot of the sealed-segment registry, oldest first.
  std::vector<SegmentInfo> segments() const;

  /// Record that a verified copy of segment `seqno` exists in the archive
  /// (makes it reclaimable at the next checkpoint).
  void MarkArchived(uint32_t seqno);

  /// Sealed segments not yet confirmed archived — the archive-lag gauge
  /// DESCRIBE surfaces. Always 0 when retention is off.
  uint64_t sealed_unarchived() const;

  /// Block rotation, truncation, and segment reclaim (Busy) while held —
  /// online backup pins the WAL so the history it is copying stays put.
  /// Nestable; every PinWal needs a matching UnpinWal.
  void PinWal();
  void UnpinWal();

  /// LSNs at or below this live in sealed segments (or are gone).
  Lsn base_lsn() const;

  /// Copy the live log's durable prefix (header + flushed frames, never
  /// the unflushed buffer) to `dest_path` through the same Env. The copy
  /// is a valid standalone live-log file for a later Open.
  Status SnapshotLiveTo(const std::string& dest_path);

  /// Statistics: number of records appended this session.
  uint64_t records_appended() const { return records_appended_; }

  /// True while a failed truncation has the log refusing all work.
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// OK while healthy; while poisoned, the Status every append returns
  /// (naming the original cause). Writers check it before touching pages.
  /// Takes no mutex while the log is healthy: every write checks it.
  Status PoisonStatus() const {
    if (!poisoned()) return Status::OK();
    MutexLock lock(&mu_);
    return poison_ == PoisonKind::kNone ? Status::OK() : PoisonedLocked();
  }

  /// Repair a poisoned log in place (the background-recovery contract):
  /// finish the interrupted truncation, probe the write path (flush any
  /// buffered frames, or rewrite + sync the header when the buffer is
  /// empty), and clear the poison. Also usable on a healthy log as a pure
  /// write-path probe. Fails — and leaves the poison set — while the
  /// underlying fault persists.
  Status Resume();

 private:
  /// Why the log is refusing work (see Truncate's two failure windows).
  enum class PoisonKind : uint8_t {
    kNone = 0,
    kHeaderUnknown,  // neither new nor restored header made it to disk
    kStaleTail,      // new header durable; old frames still in the file
  };

  Status WriteHeaderLocked() REQUIRES(mu_);
  /// Truncate's body (header-first advance + shrink + poison windows);
  /// callers have already verified the Busy preconditions.
  Status TruncateLocked() REQUIRES(mu_);
  /// Rotate's body; same contract.
  Status RotateLocked() REQUIRES(mu_);
  /// Shared Busy preconditions for Truncate/Rotate/CheckpointTruncate.
  Status ReclaimBlockedLocked() const REQUIRES(mu_);
  /// Discover sealed segments next to the live log at Open: delete
  /// crashed-rotation leftovers, verify the retained chain ends at the
  /// live base, and seed the seqno counter.
  Status DiscoverSegmentsLocked() REQUIRES(mu_);
  std::string SegmentPathLocked(uint32_t seqno) const REQUIRES(mu_);
  /// Append the live file's bytes from `offset` through its last flushed
  /// frame to `*out`.
  Status ReadFlushedLocked(uint64_t offset, std::string* out) REQUIRES(mu_);
  /// Refresh the wal.sealed_unarchived gauge from segments_.
  void UpdateLagGaugeLocked() REQUIRES(mu_);
  /// Group flush: leader/follower protocol. Releases mu_ around the disk
  /// I/O (re-acquired before returning), so concurrent appenders form the
  /// next batch while the leader's fsync is in flight.
  Status FlushToLocked(Lsn lsn) REQUIRES(mu_);
  /// Frames `body` (rec's encoding, made before taking mu_) into buffer_
  /// at the next LSN, which it assigns to rec->lsn.
  Status AppendLocked(LogRecord* rec, const std::string& body) REQUIRES(mu_);
  /// Sets poison_ and its cause, and their lock-free copy poisoned_.
  void SetPoisonLocked(PoisonKind kind, Status cause) REQUIRES(mu_);
  /// Body of the background flusher thread.
  void FlusherLoop();
  /// The error every operation returns while poisoned; names the original
  /// failing operation and errno so operators see the root cause.
  Status PoisonedLocked() const REQUIRES(mu_);

  Env* env_ GUARDED_BY(mu_) = nullptr;
  std::unique_ptr<RandomAccessFile> file_ GUARDED_BY(mu_);
  std::string path_ GUARDED_BY(mu_);
  Lsn base_lsn_ GUARDED_BY(mu_) = 0;  // LSNs below this were truncated away
  uint32_t gen_ GUARDED_BY(mu_) = 1;  // bumped on every truncation
  // next_lsn_ / flushed_lsn_ are written only under mu_ but read lock-free
  // by the public accessors (stats, tests) while appenders run, so they are
  // atomics, not GUARDED_BY members.
  std::atomic<Lsn> next_lsn_{1};
  std::atomic<Lsn> flushed_lsn_{0};  // highest durable LSN
  std::string buffer_ GUARDED_BY(mu_);    // unflushed bytes
  Lsn buffer_start_ GUARDED_BY(mu_) = 1;  // LSN of buffer_[0]
  Counter records_appended_;  // atomic: read by stats while writers append
  // Set on unrecoverable Truncate failure; cause keeps the first failing
  // Status for PoisonedLocked() and the operators reading it.
  PoisonKind poison_ GUARDED_BY(mu_) = PoisonKind::kNone;
  Status poison_cause_ GUARDED_BY(mu_);
  // poison_ != kNone: written with it under mu_, read without mu_.
  std::atomic<bool> poisoned_{false};
  // --- sealed segments ---
  std::vector<SegmentInfo> segments_ GUARDED_BY(mu_);  // oldest first
  uint32_t next_seg_seqno_ GUARDED_BY(mu_) = 1;
  bool retain_segments_ GUARDED_BY(mu_) = false;
  uint64_t pins_ GUARDED_BY(mu_) = 0;  // backup holds these
  // Registry metrics ("wal.*"), resolved once at construction. Appends are
  // a few hundred ns, so their latency is sampled 1-in-64; fsyncs are µs+
  // and every one is timed. The sampling tick is guarded by mu_ like the
  // rest of the append path, so it needs no atomicity of its own.
  Counter* metric_appends_;
  Histogram* metric_append_ns_;
  Counter* metric_syncs_;
  Histogram* metric_sync_ns_;
  Counter* metric_group_commits_;
  Histogram* metric_group_size_;
  Counter* metric_relaxed_commits_;
  Counter* metric_segments_sealed_;
  /// Gauge mirror of sealed_unarchived() for MetricsSnapshot
  /// ("wal.sealed_unarchived"); refreshed whenever the registry changes.
  Counter* metric_sealed_unarchived_;
  uint64_t append_tick_ GUARDED_BY(mu_) = 0;

  // --- group-commit state ---
  // One flush at a time; followers wait for flush_seq_ to advance, then
  // consult flush_target_/flush_result_ to learn whether the batch that
  // covered their LSN succeeded (and with which original Status).
  bool flush_active_ GUARDED_BY(mu_) = false;
  uint64_t flush_seq_ GUARDED_BY(mu_) = 0;
  Lsn flush_target_ GUARDED_BY(mu_) = 0;
  Status flush_result_ GUARDED_BY(mu_);
  // Commit records currently buffered (feeds wal.group_size).
  uint64_t buffered_commits_ GUARDED_BY(mu_) = 0;
  // Relaxed commits acknowledged but not yet durable. Written under mu_,
  // read lock-free by unflushed_commits() (DESCRIBE, stats).
  std::atomic<uint64_t> relaxed_unflushed_{0};
  CondVar flush_cv_{&mu_};

  // --- background flusher (relaxed durability) ---
  bool flusher_stop_ GUARDED_BY(mu_) = false;
  uint64_t flusher_interval_us_ GUARDED_BY(mu_) = 500;
  std::function<void(const Status&)> flusher_on_failure_ GUARDED_BY(mu_);
  CondVar flusher_cv_{&mu_};
  // The thread object itself is only touched by StartFlusher/StopFlusher/
  // ~LogManager, which the Database serializes (open/close path).
  std::thread flusher_;

  mutable Mutex mu_;
};

}  // namespace dmx

#endif  // DMX_WAL_LOG_MANAGER_H_
