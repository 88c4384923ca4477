// Unit tests for the common recovery log and the log-driven undo/redo
// driver. Uses a toy "extension" — an in-memory key/value map whose undo
// and redo are dispatched through the driver's apply callback, exactly the
// shape real storage methods and attachments use.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <vector>

#include "src/util/coding.h"
#include "src/util/fault_env.h"
#include "src/wal/log_manager.h"
#include "src/wal/recovery.h"
#include "src/wal/wal_format.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::ScanAll;
using testing::TempDir;

TEST(LogRecordTest, EncodeDecodeAllTypes) {
  LogRecord upd = MakeUpdateRecord(7, ExtKind::kAttachment, 3, 12, "payload");
  upd.prev_lsn = 99;
  std::string buf;
  upd.EncodeTo(&buf);
  Slice in(buf);
  LogRecord out;
  ASSERT_TRUE(LogRecord::DecodeFrom(&in, &out).ok());
  EXPECT_EQ(out.type, LogRecType::kUpdate);
  EXPECT_EQ(out.txn, 7u);
  EXPECT_EQ(out.prev_lsn, 99u);
  EXPECT_EQ(out.ext_kind, ExtKind::kAttachment);
  EXPECT_EQ(out.ext_id, 3);
  EXPECT_EQ(out.relation, 12u);
  EXPECT_EQ(out.payload, "payload");

  LogRecord clr;
  clr.type = LogRecType::kClr;
  clr.txn = 7;
  clr.prev_lsn = 100;
  clr.ext_kind = ExtKind::kStorageMethod;
  clr.ext_id = 1;
  clr.relation = 5;
  clr.payload = "undo-info";
  clr.undo_next = 44;
  buf.clear();
  clr.EncodeTo(&buf);
  in = Slice(buf);
  ASSERT_TRUE(LogRecord::DecodeFrom(&in, &out).ok());
  EXPECT_EQ(out.type, LogRecType::kClr);
  EXPECT_EQ(out.undo_next, 44u);

  LogRecord sp;
  sp.type = LogRecType::kSavepoint;
  sp.txn = 2;
  sp.savepoint_name = "sp1";
  buf.clear();
  sp.EncodeTo(&buf);
  in = Slice(buf);
  ASSERT_TRUE(LogRecord::DecodeFrom(&in, &out).ok());
  EXPECT_EQ(out.savepoint_name, "sp1");

  for (LogRecType t : {LogRecType::kBegin, LogRecType::kCommit,
                       LogRecType::kAbort, LogRecType::kEnd}) {
    LogRecord r;
    r.type = t;
    r.txn = 9;
    r.prev_lsn = 1;
    buf.clear();
    r.EncodeTo(&buf);
    in = Slice(buf);
    ASSERT_TRUE(LogRecord::DecodeFrom(&in, &out).ok());
    EXPECT_EQ(out.type, t);
  }
}

TEST(WalFrameTest, DecodeNamesEveryDefect) {
  using S = WalFrameStatus;
  constexpr uint32_t kGen = 5;
  std::string bytes;
  EncodeWalFrame(kGen, Slice("first"), &bytes);
  const size_t second = bytes.size();
  EncodeWalFrame(kGen, Slice("second"), &bytes);

  WalFrame f = DecodeWalFrame(bytes, 0, kGen);
  ASSERT_EQ(f.status, S::kOk);
  EXPECT_EQ(f.body.ToString(), "first");
  EXPECT_EQ(f.next, second);
  f = DecodeWalFrame(bytes, second, kGen);
  ASSERT_EQ(f.status, S::kOk);
  EXPECT_EQ(f.body.ToString(), "second");
  EXPECT_EQ(f.next, bytes.size());
  EXPECT_EQ(DecodeWalFrame(bytes, bytes.size(), kGen).status, S::kEnd);

  // Cut-off frames leave `next` at the frame.
  f = DecodeWalFrame(Slice(bytes.data(), second + 3), second, kGen);
  EXPECT_EQ(f.status, S::kShortHeader);
  EXPECT_EQ(f.next, second);
  f = DecodeWalFrame(Slice(bytes.data(), bytes.size() - 1), second, kGen);
  EXPECT_EQ(f.status, S::kShortBody);
  EXPECT_EQ(f.next, second);
  EXPECT_EQ(DecodeWalFrame(std::string(16, '\0'), 0, kGen).status,
            S::kShortBody);  // zero fill

  // A damaged frame still spans its length, so `next` is past it.
  std::string flipped = bytes;
  flipped[second + kFrameHeaderSize] ^= 0x01;
  f = DecodeWalFrame(flipped, second, kGen);
  EXPECT_EQ(f.status, S::kBadCrc);
  EXPECT_EQ(f.next, bytes.size());

  // A frame of an earlier generation is stale, not damaged; one far older
  // than the 8 previous generations is damage.
  std::string old;
  EncodeWalFrame(kGen - 1, Slice("old"), &old);
  EXPECT_EQ(DecodeWalFrame(old, 0, kGen).status, S::kStaleCrc);
  EXPECT_EQ(DecodeWalFrame(old, 0, kGen + 7).status, S::kStaleCrc);
  EXPECT_EQ(DecodeWalFrame(old, 0, kGen + 8).status, S::kBadCrc);
}

TEST(WalFrameTest, ReaderSlidesItsWindowAndGrowsItForLargeFrames) {
  TempDir dir("walframe");
  const std::string path = dir.path() + "/frames";
  constexpr uint32_t kGen = 2;
  constexpr uint64_t kBegin = 10;  // frames start past a header
  constexpr size_t kWindow = 16;
  // Small frames straddle window boundaries; the large one outgrows the
  // window, and the small ones after it must read as before.
  const std::vector<std::string> bodies = {
      "a", "bcdefghij", std::string(100, 'L'), "k", "lmnopqrstuvwxyz", "z"};
  std::string bytes(kBegin, 'h');
  std::vector<uint64_t> offsets;
  for (const std::string& body : bodies) {
    offsets.push_back(bytes.size());
    EncodeWalFrame(kGen, body, &bytes);
  }
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(
      Env::Default()->NewRandomAccessFile(path, /*create=*/true, &file).ok());
  ASSERT_TRUE(file->Write(0, bytes.data(), bytes.size()).ok());

  WalFrameReader reader(file.get(), kBegin, bytes.size(), kGen, kWindow);
  WalFrame frame;
  for (size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(reader.offset(), offsets[i]);
    ASSERT_TRUE(reader.Next(&frame).ok());
    ASSERT_EQ(frame.status, WalFrameStatus::kOk) << i;
    EXPECT_EQ(frame.body.ToString(), bodies[i]);
    EXPECT_EQ(frame.next, i + 1 < bodies.size() ? offsets[i + 1]
                                                : bytes.size());
  }
  ASSERT_TRUE(reader.Next(&frame).ok());
  EXPECT_EQ(frame.status, WalFrameStatus::kEnd);

  // An end inside the large frame cuts it off; the reader stays at it.
  WalFrameReader cut(file.get(), kBegin, offsets[3] - 1, kGen, kWindow);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(cut.Next(&frame).ok());
  ASSERT_TRUE(cut.Next(&frame).ok());
  EXPECT_EQ(frame.status, WalFrameStatus::kShortBody);
  EXPECT_EQ(frame.next, offsets[2]);
  EXPECT_EQ(cut.offset(), offsets[2]);

  // A point read of one frame in the middle.
  WalFrameReader point(file.get(), offsets[4], bytes.size(), kGen,
                       WalFrameReader::kPointRead);
  ASSERT_TRUE(point.Next(&frame).ok());
  ASSERT_EQ(frame.status, WalFrameStatus::kOk);
  EXPECT_EQ(frame.body.ToString(), bodies[4]);
  ASSERT_TRUE(file->Close().ok());
}

TEST(LogManagerTest, AppendAssignsMonotoneLsns) {
  TempDir dir("log1");
  LogManager log;
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true).ok());
  LogRecord a = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "a");
  LogRecord b = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "bb");
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Append(&b).ok());
  EXPECT_GT(b.lsn, a.lsn);
  EXPECT_EQ(a.lsn, 1u);
}

TEST(LogManagerTest, ReadRecordFromBufferAndDisk) {
  TempDir dir("log2");
  LogManager log;
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true).ok());
  LogRecord a = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "buffered");
  ASSERT_TRUE(log.Append(&a).ok());
  // Still in the buffer.
  LogRecord out;
  ASSERT_TRUE(log.ReadRecord(a.lsn, &out).ok());
  EXPECT_EQ(out.payload, "buffered");
  // After flush, served from disk.
  ASSERT_TRUE(log.FlushAll().ok());
  ASSERT_TRUE(log.ReadRecord(a.lsn, &out).ok());
  EXPECT_EQ(out.payload, "buffered");
  // Invalid LSNs rejected.
  EXPECT_FALSE(log.ReadRecord(kInvalidLsn, &out).ok());
  EXPECT_FALSE(log.ReadRecord(99999, &out).ok());
}

TEST(LogManagerTest, ReadAllSurvivesReopenAndTornTail) {
  TempDir dir("log3");
  std::string path = dir.path() + "/wal";
  Lsn lsn_b;
  {
    LogManager log;
    ASSERT_TRUE(log.Open(path, true).ok());
    LogRecord a = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "one");
    LogRecord b = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "two");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Append(&b).ok());
    lsn_b = b.lsn;
    ASSERT_TRUE(log.Close().ok());
  }
  // Simulate a torn tail: append garbage length prefix.
  {
    FILE* f = fopen(path.c_str(), "ab");
    uint32_t bogus_len = 1000;
    fwrite(&bogus_len, 4, 1, f);
    fwrite("xx", 2, 1, f);
    fclose(f);
  }
  LogManager log;
  ASSERT_TRUE(log.Open(path, false).ok());
  std::vector<LogRecord> all;
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].payload, "one");
  EXPECT_EQ(all[1].payload, "two");
  EXPECT_EQ(all[1].lsn, lsn_b);
}

namespace {
// File offset of the frame for `lsn` (base 0): 24-byte header, then one
// byte of LSN space per file byte. The 8-byte frame header precedes the
// body.
long FrameBodyOffset(Lsn lsn) { return static_cast<long>(lsn + 23 + 8); }

void FlipByteAt(const std::string& path, long offset) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
  int c = fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
  fputc(c ^ 0x04, f);
  fclose(f);
}
}  // namespace

TEST(LogManagerTest, BitFlipMidLogIsCorruption) {
  TempDir dir("logflip1");
  std::string path = dir.path() + "/wal";
  Lsn lsn_a;
  {
    LogManager log;
    ASSERT_TRUE(log.Open(path, true).ok());
    LogRecord a = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "one");
    LogRecord b = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "two");
    LogRecord c = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "three");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Append(&b).ok());
    ASSERT_TRUE(log.Append(&c).ok());
    lsn_a = a.lsn;
    ASSERT_TRUE(log.Close().ok());
  }
  FlipByteAt(path, FrameBodyOffset(lsn_a));  // not the last record
  LogManager log;
  ASSERT_TRUE(log.Open(path, false).ok());
  std::vector<LogRecord> all;
  Status s = ScanAll(&log, &all);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(LogManagerTest, BitFlipInFinalRecordIsTolerableTornTail) {
  TempDir dir("logflip2");
  std::string path = dir.path() + "/wal";
  Lsn lsn_c;
  {
    LogManager log;
    ASSERT_TRUE(log.Open(path, true).ok());
    LogRecord a = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "one");
    LogRecord b = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "two");
    LogRecord c = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "three");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Append(&b).ok());
    ASSERT_TRUE(log.Append(&c).ok());
    lsn_c = c.lsn;
    ASSERT_TRUE(log.Close().ok());
  }
  // A damaged *final* record is indistinguishable from a torn write of that
  // record and must be dropped, not reported as corruption.
  FlipByteAt(path, FrameBodyOffset(lsn_c));
  {
    LogManager log;
    ASSERT_TRUE(log.Open(path, false).ok());
    std::vector<LogRecord> all;
    ASSERT_TRUE(ScanAll(&log, &all).ok());
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[1].payload, "two");
    // The scan healed the file: the torn frame's LSN space is reusable.
    LogRecord d = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "four");
    ASSERT_TRUE(log.Append(&d).ok());
    EXPECT_EQ(d.lsn, lsn_c);
    ASSERT_TRUE(log.Close().ok());
  }
  LogManager log;
  ASSERT_TRUE(log.Open(path, false).ok());
  std::vector<LogRecord> all;
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2].payload, "four");
}

TEST(LogManagerTest, PowerLossRecoversToLastFlushedLsn) {
  TempDir dir("logpower");
  std::string path = dir.path() + "/wal";
  FaultInjectionEnv env;
  Lsn flushed, lsn_b;
  {
    LogManager log;
    ASSERT_TRUE(log.Open(path, true, &env).ok());
    LogRecord a = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "one");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.FlushAll().ok());
    flushed = log.flushed_lsn();
    LogRecord b = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "two");
    ASSERT_TRUE(log.Append(&b).ok());
    lsn_b = b.lsn;
    env.SetSyncFailAfter(0);  // power dies before the close-time flush syncs
    EXPECT_FALSE(log.Close().ok());
  }
  env.ClearFaults();
  ASSERT_TRUE(env.DropUnsyncedWrites().ok());
  LogManager log;
  ASSERT_TRUE(log.Open(path, false, &env).ok());
  std::vector<LogRecord> all;
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].payload, "one");
  EXPECT_EQ(log.flushed_lsn(), flushed);
  // The lost record's LSN space is reused seamlessly.
  LogRecord c = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "again");
  ASSERT_TRUE(log.Append(&c).ok());
  EXPECT_EQ(c.lsn, lsn_b);
}

TEST(LogManagerTest, CrashDuringTruncateDiscardsStaleFrames) {
  TempDir dir("logtrunc");
  std::string path = dir.path() + "/wal";
  FaultInjectionEnv env;
  Lsn old_next;
  {
    LogManager log;
    ASSERT_TRUE(log.Open(path, true, &env).ok());
    LogRecord a = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "one");
    LogRecord b = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "two");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Append(&b).ok());
    ASSERT_TRUE(log.FlushAll().ok());
    old_next = log.next_lsn();
    // The new header write succeeds and syncs, then the disk dies on the
    // ftruncate: the bumped-generation header is durable with the old
    // frames still in the file.
    env.SetWriteFailAfter(1);
    Status ts = log.Truncate();
    EXPECT_TRUE(ts.IsIOError()) << ts.ToString();
    // The log no longer trusts its view of the file: poisoned until reopen.
    LogRecord x = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "x");
    EXPECT_TRUE(log.Append(&x).IsIOError());
    EXPECT_TRUE(log.Truncate().IsIOError());
    log.Close().ok();
  }
  env.ClearFaults();
  ASSERT_TRUE(env.DropUnsyncedWrites().ok());
  LogManager log;
  ASSERT_TRUE(log.Open(path, false, &env).ok());
  std::vector<LogRecord> all;
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  // Previous-generation frames are recognized as stale and discarded: the
  // truncation took effect logically even though the shrink never ran.
  EXPECT_TRUE(all.empty());
  LogRecord c = MakeUpdateRecord(1, ExtKind::kStorageMethod, 0, 1, "fresh");
  ASSERT_TRUE(log.Append(&c).ok());
  EXPECT_EQ(c.lsn, old_next);
  ASSERT_TRUE(log.FlushAll().ok());
  all.clear();
  ASSERT_TRUE(ScanAll(&log, &all).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].payload, "fresh");
}

// -- Toy extension driven by the recovery machinery -------------------------

// Payload: op byte ('I' insert / 'D' delete) + key + value (fixed 1 byte
// each for simplicity).
struct ToyStore {
  std::map<char, char> data;

  Status Apply(const LogRecord& rec, bool undo) {
    char op = rec.payload[0], key = rec.payload[1], val = rec.payload[2];
    bool insert = (op == 'I');
    if (undo) insert = !insert;
    if (insert) {
      data[key] = val;
    } else {
      data.erase(key);
    }
    return Status::OK();
  }
};

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : dir_("recovery") {
    EXPECT_TRUE(log_.Open(dir_.path() + "/wal", true).ok());
    driver_ = std::make_unique<RecoveryDriver>(
        &log_, [this](const LogRecord& rec, bool undo, Lsn) {
          return store_.Apply(rec, undo);
        });
  }

  Lsn LogOp(TxnId txn, Lsn prev, char op, char key, char val) {
    LogRecord rec = MakeUpdateRecord(txn, ExtKind::kStorageMethod, 0, 1,
                                     std::string{op, key, val});
    rec.prev_lsn = prev;
    EXPECT_TRUE(log_.Append(&rec).ok());
    EXPECT_TRUE(store_.Apply(rec, false).ok());
    return rec.lsn;
  }

  Lsn LogBegin(TxnId txn) {
    LogRecord rec;
    rec.type = LogRecType::kBegin;
    rec.txn = txn;
    EXPECT_TRUE(log_.Append(&rec).ok());
    return rec.lsn;
  }

  Lsn LogCommit(TxnId txn, Lsn prev) {
    LogRecord rec;
    rec.type = LogRecType::kCommit;
    rec.txn = txn;
    rec.prev_lsn = prev;
    EXPECT_TRUE(log_.Append(&rec).ok());
    return rec.lsn;
  }

  TempDir dir_;
  LogManager log_;
  ToyStore store_;
  std::unique_ptr<RecoveryDriver> driver_;
};

TEST_F(RecoveryTest, FullRollbackUndoesEverything) {
  Lsn begin = LogBegin(1);
  Lsn l1 = LogOp(1, begin, 'I', 'a', '1');
  Lsn l2 = LogOp(1, l1, 'I', 'b', '2');
  EXPECT_EQ(store_.data.size(), 2u);
  Lsn last = l2;
  ASSERT_TRUE(driver_->Rollback(1, kInvalidLsn, &last).ok());
  EXPECT_TRUE(store_.data.empty());
  EXPECT_EQ(driver_->undo_count(), 2u);
  EXPECT_GT(last, l2);  // chain head now points at the newest CLR
}

TEST_F(RecoveryTest, PartialRollbackStopsAtLsn) {
  Lsn begin = LogBegin(1);
  Lsn l1 = LogOp(1, begin, 'I', 'a', '1');
  Lsn l2 = LogOp(1, l1, 'I', 'b', '2');
  Lsn l3 = LogOp(1, l2, 'I', 'c', '3');
  (void)l3;
  Lsn last = l3;
  // Roll back to just after l1: b and c are undone, a survives.
  ASSERT_TRUE(driver_->Rollback(1, l1, &last).ok());
  EXPECT_EQ(store_.data.size(), 1u);
  EXPECT_EQ(store_.data.count('a'), 1u);
}

TEST_F(RecoveryTest, RollbackIsIdempotentOverClrs) {
  Lsn begin = LogBegin(1);
  Lsn l1 = LogOp(1, begin, 'I', 'a', '1');
  Lsn l2 = LogOp(1, l1, 'I', 'b', '2');
  Lsn last = l2;
  ASSERT_TRUE(driver_->Rollback(1, l1, &last).ok());
  EXPECT_EQ(store_.data.size(), 1u);
  // Rolling back again from the CLR head must skip the compensated work.
  ASSERT_TRUE(driver_->Rollback(1, l1, &last).ok());
  EXPECT_EQ(store_.data.size(), 1u);
  EXPECT_EQ(driver_->undo_count(), 1u);
}

TEST_F(RecoveryTest, RestartRedoesCommittedAndUndoesLosers) {
  // Txn 1 commits; txn 2 does not.
  Lsn b1 = LogBegin(1);
  Lsn l1 = LogOp(1, b1, 'I', 'a', '1');
  LogCommit(1, l1);
  Lsn b2 = LogBegin(2);
  LogOp(2, b2, 'I', 'z', '9');
  ASSERT_TRUE(log_.FlushAll().ok());

  // Simulate restart: empty store, replay from the log.
  store_.data.clear();
  std::vector<TxnId> losers;
  ASSERT_TRUE(driver_->Restart(&losers).ok());
  EXPECT_EQ(store_.data.size(), 1u);
  EXPECT_EQ(store_.data['a'], '1');
  ASSERT_EQ(losers.size(), 1u);
  EXPECT_EQ(losers[0], 2u);

  // A second restart is a no-op (losers already ended).
  store_.data.clear();
  RecoveryDriver driver2(&log_, [this](const LogRecord& rec, bool undo, Lsn) {
    return store_.Apply(rec, undo);
  });
  std::vector<TxnId> losers2;
  ASSERT_TRUE(driver2.Restart(&losers2).ok());
  EXPECT_TRUE(losers2.empty());
  EXPECT_EQ(store_.data.size(), 1u);
}

TEST_F(RecoveryTest, RestartRedoesClrsOfInterruptedRollback) {
  // Txn inserts a and b, then a rollback undoes b... and crashes before
  // finishing (no kEnd). Restart must redo the CLR and finish the undo.
  Lsn begin = LogBegin(1);
  Lsn l1 = LogOp(1, begin, 'I', 'a', '1');
  Lsn l2 = LogOp(1, l1, 'I', 'b', '2');
  Lsn last = l2;
  ASSERT_TRUE(driver_->Rollback(1, l1, &last).ok());  // undoes only b
  ASSERT_TRUE(log_.FlushAll().ok());

  store_.data.clear();
  std::vector<TxnId> losers;
  ASSERT_TRUE(driver_->Restart(&losers).ok());
  // Loser txn 1 fully undone: nothing remains.
  EXPECT_TRUE(store_.data.empty());
  ASSERT_EQ(losers.size(), 1u);
}

}  // namespace
}  // namespace dmx
