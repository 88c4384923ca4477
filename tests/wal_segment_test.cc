// Tests for WAL segmentation: rotation sealing flushed frames into
// immutable segments, segment discovery and chain verification at reopen,
// the archive-before-truncate reclaim rule, the background archiver, and
// the fault matrix where rotation, the relaxed-durability flusher, and
// LogManager::Resume race under transient-ENOSPC bursts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/util/fault_env.h"
#include "src/wal/archiver.h"
#include "src/wal/log_manager.h"
#include "src/wal/wal_format.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::ScanAll;
using testing::TempDir;

LogRecord Rec(TxnId txn, const std::string& payload) {
  return MakeUpdateRecord(txn, ExtKind::kStorageMethod, 0, 1, payload);
}

/// Append + flush `n` records with payloads `<tag>0..<tag>n-1`; returns
/// the LSN of the first one.
Lsn AppendFlushed(LogManager* log, int n, const std::string& tag) {
  Lsn first = kInvalidLsn;
  for (int i = 0; i < n; ++i) {
    LogRecord r = Rec(1, tag + std::to_string(i));
    EXPECT_TRUE(log->Append(&r).ok());
    if (i == 0) first = r.lsn;
  }
  EXPECT_TRUE(log->FlushAll().ok());
  return first;
}

TEST(WalFormatTest, SegmentNameRoundTrip) {
  EXPECT_EQ(SegmentFileName("wal", 7), "wal.000007.seg");
  uint32_t seqno = 0;
  EXPECT_TRUE(ParseSegmentName("wal.000007.seg", "wal", &seqno));
  EXPECT_EQ(seqno, 7u);
  EXPECT_FALSE(ParseSegmentName("wal.000007.seg", "other", &seqno));
  EXPECT_FALSE(ParseSegmentName("wal.000007.seg.tmp", "wal", &seqno));
  EXPECT_FALSE(ParseSegmentName("wal", "wal", &seqno));
}

TEST(WalFormatTest, LiveHeaderRoundTripAndCorruptionDetected) {
  std::string enc;
  EncodeLiveHeader(/*base_lsn=*/12345, /*gen=*/7, &enc);
  ASSERT_EQ(enc.size(), kLogHeaderSize);
  Lsn base = 0;
  uint32_t gen = 0;
  ASSERT_TRUE(DecodeLiveHeader(enc.data(), &base, &gen).ok());
  EXPECT_EQ(base, 12345u);
  EXPECT_EQ(gen, 7u);
  enc[5] = static_cast<char>(enc[5] ^ 0x40);
  EXPECT_FALSE(DecodeLiveHeader(enc.data(), &base, &gen).ok());
}

TEST(WalSegmentTest, RotateSealsFlushedFramesAndPreservesHistory) {
  TempDir dir("seg1");
  LogManager log;
  log.SetRetainSegments(true);
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true).ok());
  const Lsn first = AppendFlushed(&log, 3, "a");
  const Lsn sealed_end = log.flushed_lsn();

  ASSERT_TRUE(log.Rotate().ok());
  std::vector<LogManager::SegmentInfo> segs = log.segments();
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].seqno, 1u);
  EXPECT_EQ(segs[0].base_lsn, 0u);
  EXPECT_EQ(segs[0].end_lsn, sealed_end);
  EXPECT_FALSE(segs[0].archived);
  EXPECT_EQ(log.base_lsn(), sealed_end);
  // An empty live log rotates as a no-op.
  ASSERT_TRUE(log.Rotate().ok());
  EXPECT_EQ(log.segments().size(), 1u);

  // The sealed file verifies offline.
  SegmentHeader hdr;
  ASSERT_TRUE(VerifySegmentFile(Env::Default(), segs[0].path, &hdr).ok());
  EXPECT_EQ(hdr.end_lsn, sealed_end);

  // LSNs keep increasing across the rotation, and both Scan and
  // ReadRecord serve rotated history transparently.
  AppendFlushed(&log, 2, "b");
  std::vector<LogRecord> all;
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].payload, "a0");
  EXPECT_EQ(all[3].payload, "b0");
  for (size_t i = 1; i < all.size(); ++i) EXPECT_GT(all[i].lsn, all[i - 1].lsn);
  LogRecord out;
  ASSERT_TRUE(log.ReadRecord(first, &out).ok());
  EXPECT_EQ(out.payload, "a0");
}

TEST(WalSegmentTest, RotationAndReclaimRefuseWhileUnsafe) {
  TempDir dir("seg2");
  LogManager log;
  log.SetRetainSegments(true);
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true).ok());
  LogRecord r = Rec(1, "buffered");
  ASSERT_TRUE(log.Append(&r).ok());
  EXPECT_TRUE(log.Rotate().IsBusy());  // unflushed bytes
  ASSERT_TRUE(log.FlushAll().ok());

  log.PinWal();
  EXPECT_TRUE(log.Rotate().IsBusy());
  EXPECT_TRUE(log.Truncate().IsBusy());
  EXPECT_TRUE(log.CheckpointTruncate().IsBusy());
  log.UnpinWal();
  EXPECT_TRUE(log.Rotate().ok());
}

TEST(WalSegmentTest, CheckpointTruncateReclaimsOnlyArchivedSegments) {
  TempDir dir("seg3");
  LogManager log;
  log.SetRetainSegments(true);
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true).ok());
  AppendFlushed(&log, 2, "a");
  ASSERT_TRUE(log.Rotate().ok());
  AppendFlushed(&log, 2, "b");
  ASSERT_TRUE(log.Rotate().ok());
  ASSERT_EQ(log.segments().size(), 2u);
  EXPECT_EQ(log.sealed_unarchived(), 2u);

  // Nothing archived: the checkpoint reclaims nothing.
  ASSERT_TRUE(log.CheckpointTruncate().ok());
  ASSERT_EQ(log.segments().size(), 2u);

  // Archiving the *second* segment alone reclaims nothing either —
  // reclaim only ever removes an archived prefix, never punches a hole
  // in the chain.
  log.MarkArchived(2);
  ASSERT_TRUE(log.CheckpointTruncate().ok());
  ASSERT_EQ(log.segments().size(), 2u);
  EXPECT_EQ(log.sealed_unarchived(), 1u);

  const std::string first_path = log.segments()[0].path;
  log.MarkArchived(1);
  ASSERT_TRUE(log.CheckpointTruncate().ok());
  EXPECT_TRUE(log.segments().empty());
  EXPECT_EQ(log.sealed_unarchived(), 0u);
  EXPECT_TRUE(Env::Default()->FileExists(first_path).IsNotFound());
}

TEST(WalSegmentTest, SegmentsSurviveReopenAndRetentionOffDiscardsThem) {
  TempDir dir("seg4");
  const std::string path = dir.path() + "/wal";
  {
    LogManager log;
    log.SetRetainSegments(true);
    ASSERT_TRUE(log.Open(path, true).ok());
    AppendFlushed(&log, 3, "a");
    ASSERT_TRUE(log.Rotate().ok());
    AppendFlushed(&log, 1, "b");
    ASSERT_TRUE(log.Close().ok());
  }
  {
    // Reopen with retention on: the segment is rediscovered and replayed.
    LogManager log;
    log.SetRetainSegments(true);
    ASSERT_TRUE(log.Open(path, false).ok());
    ASSERT_EQ(log.segments().size(), 1u);
    std::vector<LogRecord> all;
    ASSERT_TRUE(ScanAll(&log, &all).ok());
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].payload, "a0");
    EXPECT_EQ(all[3].payload, "b0");
    ASSERT_TRUE(log.Close().ok());
  }
  {
    // Retention off (archiving disabled again): the checkpoint treats the
    // leftover segments as dead history.
    LogManager log;
    ASSERT_TRUE(log.Open(path, false).ok());
    const std::string seg_path = log.segments()[0].path;
    ASSERT_TRUE(log.CheckpointTruncate().ok());
    EXPECT_TRUE(log.segments().empty());
    EXPECT_TRUE(Env::Default()->FileExists(seg_path).IsNotFound());
    ASSERT_TRUE(log.Close().ok());
  }
}

TEST(WalSegmentTest, DiscoveryDeletesCrashedRotationLeftovers) {
  TempDir dir("seg5");
  const std::string path = dir.path() + "/wal";
  Lsn flushed;
  {
    LogManager log;
    log.SetRetainSegments(true);
    ASSERT_TRUE(log.Open(path, true).ok());
    AppendFlushed(&log, 2, "a");
    flushed = log.flushed_lsn();
    ASSERT_TRUE(log.Close().ok());
  }
  // A rotation that crashed after sealing but before the live header
  // advanced leaves a segment duplicating frames the live log still owns
  // (base == live base); a rotation that crashed mid-seal leaves garbage.
  std::string dup;
  EncodeSegmentHeader(SegmentHeader{1, 0, flushed, 1}, &dup);
  ASSERT_TRUE(
      Env::Default()->WriteFileAtomic(path + ".000001.seg", dup).ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteFileAtomic(path + ".000002.seg", "not a segment")
                  .ok());
  {
    LogManager log;
    log.SetRetainSegments(true);
    ASSERT_TRUE(log.Open(path, false).ok());
    EXPECT_TRUE(log.segments().empty());
    EXPECT_TRUE(
        Env::Default()->FileExists(path + ".000001.seg").IsNotFound());
    EXPECT_TRUE(
        Env::Default()->FileExists(path + ".000002.seg").IsNotFound());
    std::vector<LogRecord> all;
    ASSERT_TRUE(ScanAll(&log, &all).ok());
    EXPECT_EQ(all.size(), 2u);  // the live log lost nothing
    ASSERT_TRUE(log.Close().ok());
  }
}

TEST(WalSegmentTest, ChainGapRefusedAtOpen) {
  TempDir dir("seg6");
  const std::string path = dir.path() + "/wal";
  std::string second_path;
  {
    LogManager log;
    log.SetRetainSegments(true);
    ASSERT_TRUE(log.Open(path, true).ok());
    AppendFlushed(&log, 2, "a");
    ASSERT_TRUE(log.Rotate().ok());
    AppendFlushed(&log, 2, "b");
    ASSERT_TRUE(log.Rotate().ok());
    second_path = log.segments()[1].path;
    ASSERT_TRUE(log.Close().ok());
  }
  // Losing a middle/tail segment leaves a chain that no longer reaches
  // the live base — replay would silently skip records, so Open refuses.
  ASSERT_TRUE(Env::Default()->DeleteFile(second_path).ok());
  LogManager log;
  log.SetRetainSegments(true);
  EXPECT_TRUE(log.Open(path, false).IsCorruption());
}

// -- archiver ----------------------------------------------------------------

TEST(WalArchiverTest, PollRotatesArchivesAndEnablesReclaim) {
  TempDir dir("arch1");
  const std::string archive = dir.path() + "/archive";
  LogManager log;
  log.SetRetainSegments(true);
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true).ok());
  WalArchiver::Options opts;
  opts.archive_dir = archive;
  opts.segment_target_bytes = 1;  // every flushed frame triggers rotation
  WalArchiver arch(&log, Env::Default(), opts);
  ASSERT_TRUE(Env::Default()->CreateDir(archive).ok());
  // No background thread: drive it synchronously with Poll().
  AppendFlushed(&log, 4, "a");
  ASSERT_TRUE(arch.Poll().ok());
  std::vector<LogManager::SegmentInfo> segs = log.segments();
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_TRUE(segs[0].archived);
  EXPECT_EQ(log.sealed_unarchived(), 0u);

  // The archived copy is a byte-faithful, verifiable segment.
  const std::string archived_path =
      archive + "/" + SegmentFileName("wal", segs[0].seqno);
  SegmentHeader hdr;
  ASSERT_TRUE(VerifySegmentFile(Env::Default(), archived_path, &hdr).ok());
  EXPECT_EQ(hdr.end_lsn, segs[0].end_lsn);

  // Archived segments are reclaimable; the archive copy stays.
  ASSERT_TRUE(log.CheckpointTruncate().ok());
  EXPECT_TRUE(log.segments().empty());
  EXPECT_TRUE(Env::Default()->FileExists(archived_path).ok());
  ASSERT_TRUE(log.Close().ok());
}

TEST(WalArchiverFaultInjectionTest, UnreachableArchiveRetainsHistory) {
  TempDir dir("arch2");
  FaultInjectionEnv env;
  LogManager log;
  log.SetRetainSegments(true);
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true, &env).ok());
  WalArchiver::Options opts;
  opts.archive_dir = dir.path() + "/archive";
  opts.segment_target_bytes = 1;
  WalArchiver arch(&log, &env, opts);
  ASSERT_TRUE(env.CreateDir(opts.archive_dir).ok());

  AppendFlushed(&log, 3, "a");
  ASSERT_TRUE(log.Rotate().ok());

  // The archive volume rejects every write: the pass fails, the segment
  // stays unarchived, and the checkpoint must not reclaim it.
  env.SetTransientWriteFaults(1000);
  EXPECT_FALSE(arch.ArchivePending().ok());
  EXPECT_EQ(log.sealed_unarchived(), 1u);
  env.ClearFaults();
  const std::string seg_path = log.segments()[0].path;
  ASSERT_TRUE(log.CheckpointTruncate().ok());
  ASSERT_EQ(log.segments().size(), 1u);
  EXPECT_TRUE(env.FileExists(seg_path).ok());
  std::vector<LogRecord> all;
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  EXPECT_EQ(all.size(), 3u);

  // The volume comes back: the backlog drains and reclaim proceeds.
  ASSERT_TRUE(arch.ArchivePending().ok());
  EXPECT_EQ(log.sealed_unarchived(), 0u);
  ASSERT_TRUE(log.CheckpointTruncate().ok());
  EXPECT_TRUE(log.segments().empty());
  ASSERT_TRUE(log.Close().ok());
}

TEST(WalSegmentFaultInjectionTest, CrashMidRotationNeverLosesFlushedRecords) {
  // Kill the disk at every possible point inside Rotate() (segment write,
  // segment sync, directory sync, live-header rewrite, live shrink), then
  // power-loss and reopen: every record flushed before the rotation must
  // replay, exactly once, in order.
  for (int64_t fail_after = 0; fail_after < 8; ++fail_after) {
    TempDir dir("segcrash");
    const std::string path = dir.path() + "/wal";
    FaultInjectionEnv env;
    int appended = 0;
    {
      LogManager log;
      log.SetRetainSegments(true);
      ASSERT_TRUE(log.Open(path, true, &env).ok());
      AppendFlushed(&log, 2, "pre");
      ASSERT_TRUE(log.Rotate().ok());  // one healthy sealed segment
      AppendFlushed(&log, 3, "x");
      appended = 5;
      env.SetSyncFailAfter(fail_after);
      (void)log.Rotate();  // may succeed or die anywhere inside
      // Process crash: the destructor's flush goes to the dead disk (or
      // is a no-op); nothing new becomes durable.
    }
    ASSERT_TRUE(env.DropUnsyncedWrites().ok());
    env.ClearFaults();

    LogManager log;
    log.SetRetainSegments(true);
    ASSERT_TRUE(log.Open(path, false).ok())
        << "reopen failed at fail_after=" << fail_after;
    std::vector<LogRecord> all;
    ASSERT_TRUE(ScanAll(&log, &all).ok()) << "fail_after=" << fail_after;
    ASSERT_EQ(all.size(), static_cast<size_t>(appended))
        << "fail_after=" << fail_after;
    EXPECT_EQ(all[0].payload, "pre0");
    EXPECT_EQ(all[2].payload, "x0");
    EXPECT_EQ(all[4].payload, "x2");
    for (size_t i = 1; i < all.size(); ++i) {
      EXPECT_GT(all[i].lsn, all[i - 1].lsn);
    }
    ASSERT_TRUE(log.Close().ok());
  }
}

// -- fault matrix ------------------------------------------------------------

TEST(WalFaultMatrixTortureTest, FlusherResumeRotationUnderTransientEnospc) {
  // Three write-path actors race while the disk sputters with transient
  // ENOSPC bursts: the background relaxed-durability flusher, a rotation +
  // checkpoint loop, and a Resume() loop (the auto-recovery probe). The
  // invariant: once the bursts pass, every successfully appended record —
  // relaxed commits included — is durable, decodable, and in LSN order.
  uint64_t seed = 0xD3F4A17;
  if (const char* s = std::getenv("DMX_TORTURE_SEED")) {
    seed = std::strtoull(s, nullptr, 10);
  }
  TempDir dir("matrix");
  FaultInjectionEnv env;
  env.SetSeed(seed);
  LogManager log;
  log.SetRetainSegments(true);
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true, &env).ok());
  std::atomic<uint64_t> flusher_failures{0};
  log.StartFlusher(200, [&](const Status&) { ++flusher_failures; });

  constexpr int kRecords = 240;
  std::atomic<int> appended{0};
  std::atomic<bool> done{false};

  std::thread appender([&] {
    // The bursts are finite, so a refused append must get through once
    // they pass; a deadline turns a stuck log into a failure carrying its
    // status instead of a hang.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (int i = 0; i < kRecords; ++i) {
      const bool commit = (i % 4) == 3;
      LogRecord r;
      if (commit) {
        r.type = LogRecType::kCommit;
        r.txn = static_cast<TxnId>(i);
      } else {
        r = Rec(static_cast<TxnId>(i), "p" + std::to_string(i));
      }
      // A poisoned log (a rotation's truncation hit a burst) refuses
      // appends until Resume repairs it; keep retrying.
      while (true) {
        Status s = commit ? log.AppendCommitRelaxed(&r) : log.Append(&r);
        if (s.ok()) break;
        if (std::chrono::steady_clock::now() > deadline) {
          ADD_FAILURE() << "append " << i << " still refused after the "
                        << "bursts: " << s.ToString();
          done.store(true);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ++appended;
      // Pace the workload so rotations, background flushes, and fault
      // bursts genuinely interleave with the appends.
      if ((i % 10) == 9) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    done.store(true);
  });
  std::thread rotator([&] {
    while (!done.load()) {
      (void)log.Rotate();
      (void)log.CheckpointTruncate();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread resumer([&] {
    while (!done.load()) {
      (void)log.Resume();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  // Inject a bounded number of bursts while the actors run, arming the
  // next only once the last is used up. Bursts re-armed without end can
  // starve Resume, which needs a truncate and then a sync to succeed, and
  // only the appender, waiting on Resume, would end them.
  constexpr int kBursts = 40;
  std::mt19937_64 rng(seed);
  int bursts = 0;
  while (!done.load()) {
    if (bursts < kBursts && env.transient_faults_remaining() == 0) {
      env.SetTransientWriteFaults(1 + static_cast<int64_t>(rng() % 3));
      env.SetTransientSyncFaults(1 + static_cast<int64_t>(rng() % 3));
      ++bursts;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  appender.join();
  rotator.join();
  resumer.join();
  env.ClearFaults();

  // Drain: repair any leftover poison, then force everything out.
  for (int i = 0; i < 100 && !log.FlushAll().ok(); ++i) {
    (void)log.Resume();
  }
  ASSERT_TRUE(log.FlushAll().ok());
  EXPECT_EQ(log.unflushed_commits(), 0u);
  log.StopFlusher();

  std::vector<LogRecord> all;
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  // CheckpointTruncate never archived anything, so no record was
  // reclaimed: everything appended must still replay.
  ASSERT_EQ(all.size(), static_cast<size_t>(appended.load()));
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].lsn, all[i - 1].lsn);
  }
  ASSERT_TRUE(log.Close().ok());
}

}  // namespace
}  // namespace dmx
