// Group commit and relaxed-durability tests.
//
// Three families:
//   * GroupCommitTest / GroupCommitSqlTest — functional: batching
//     accounting, relaxed-commit deferral, the SET DURABILITY toggle and
//     the DESCRIBE db.unflushed_commits row.
//   * GroupCommitFailureTest / GroupCommitTortureTest — fault injection
//     (the `torture` ctest label): a group-flush failure degrades the
//     database through the ErrorHandler with the original cause, and
//     randomized crash cycles prove that no acknowledged strict commit is
//     ever lost while relaxed commits may (only) lose their unflushed
//     tail. Seeds come from DMX_TORTURE_SEED when set (the nightly
//     randomized workflow exports a fresh one per cycle and uploads the
//     failing value as an artifact).
//   * GroupCommitStressTest — 32 committer threads hammering the
//     leader/follower handoff (the `concurrency` ctest label; runs under
//     TSan in CI).
//
// The crash-durability model matches tests/fault_injection_test.cc: sync
// faults are armed as countdowns that kill the disk for the rest of the
// cycle, so a strict Commit that returned OK implies its commit record was
// fsynced, and power loss (DropUnsyncedWrites) can never take it back.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/query/sql.h"
#include "src/util/env.h"
#include "src/util/fault_env.h"
#include "src/util/metrics.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

Schema KvSchema() {
  return Schema({{"k", TypeId::kInt64, false},
                 {"v", TypeId::kString, true}});
}

/// Seed for randomized tests: DMX_TORTURE_SEED if set (reproduce a nightly
/// failure locally), else random. Always logged so a local failure is
/// reproducible too.
uint64_t TortureSeed() {
  if (const char* env = std::getenv("DMX_TORTURE_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return std::random_device{}();
}

/// Scan relation "t" into a key->value map.
std::map<int64_t, std::string> ScanAll(Database* db) {
  std::map<int64_t, std::string> found;
  Transaction* txn = db->Begin();
  std::unique_ptr<Scan> scan;
  EXPECT_TRUE(db->OpenScan(txn, "t", AccessPathId::StorageMethod(),
                           ScanSpec{}, &scan)
                  .ok());
  ScanItem item;
  while (scan->Next(&item).ok()) {
    found[item.view.GetInt(0)] = item.view.GetStringSlice(1).ToString();
  }
  scan.reset();
  EXPECT_TRUE(db->Commit(txn).ok());
  return found;
}

Status InsertRow(Database* db, Transaction* txn, int64_t k,
                 const std::string& v) {
  return db->Insert(txn, "t", {Value::Int(k), Value::String(v)});
}

void CreateKv(Database* db) {
  Transaction* ddl = db->Begin();
  ASSERT_TRUE(db->CreateRelation(ddl, "t", KvSchema(), "heap", {}).ok());
  ASSERT_TRUE(db->Commit(ddl).ok());
}

/// The POSIX Env with every file sync stretched by ~2 ms, so committers
/// that arrive during a leader's fsync reliably pile up as followers.
class SlowSyncFile : public RandomAccessFile {
 public:
  explicit SlowSyncFile(std::unique_ptr<RandomAccessFile> file)
      : file_(std::move(file)) {}
  Status Read(uint64_t offset, size_t n, char* scratch,
              size_t* out_n) override {
    return file_->Read(offset, n, scratch, out_n);
  }
  Status Write(uint64_t offset, const char* data, size_t n) override {
    return file_->Write(offset, data, n);
  }
  Status Truncate(uint64_t size) override { return file_->Truncate(size); }
  Status Sync(bool data_only) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return file_->Sync(data_only);
  }
  Status Size(uint64_t* out) override { return file_->Size(out); }
  Status Close() override { return file_->Close(); }

 private:
  std::unique_ptr<RandomAccessFile> file_;
};

class SlowSyncEnv : public Env {
 public:
  Status NewRandomAccessFile(const std::string& path, bool create,
                             std::unique_ptr<RandomAccessFile>* out) override {
    std::unique_ptr<RandomAccessFile> file;
    DMX_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, create, &file));
    *out = std::make_unique<SlowSyncFile>(std::move(file));
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
  Env* const base_ = Env::Default();
};

// ---------------------------------------------------------------------------
// Functional
// ---------------------------------------------------------------------------

TEST(GroupCommitTest, ConcurrentStrictCommittersShareFsyncs) {
  TempDir dir("group_commit");
  // A slow fsync makes sharing deterministic enough to assert on: while
  // one leader sleeps in its sync, the other committers append and ride
  // along as followers.
  SlowSyncEnv env;
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.env = &env;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  CreateKv(db.get());

  Counter* syncs = MetricsRegistry::Global()->GetCounter("wal.syncs");
  Counter* groups = MetricsRegistry::Global()->GetCounter("wal.group_commits");
  const uint64_t syncs_before = syncs->value();
  const uint64_t groups_before = groups->value();

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 8;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        Transaction* txn = db->Begin();
        Status s = InsertRow(db.get(), txn, t * 100 + i, "strict");
        if (s.ok()) {
          s = db->Commit(txn);
        } else {
          (void)db->Abort(txn);
        }
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_EQ(failures.load(), 0);

  // Every commit durable...
  EXPECT_EQ(ScanAll(db.get()).size(),
            static_cast<size_t>(kThreads * kCommitsPerThread));
  // ...for fewer fsyncs than commits: followers shared their leader's.
  const uint64_t sync_delta = syncs->value() - syncs_before;
  EXPECT_LT(sync_delta, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_GT(groups->value(), groups_before);
}

TEST(GroupCommitTest, RelaxedCommitAcknowledgesBeforeDurability) {
  TempDir dir("group_commit");
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.group_flush_interval_us = 0;  // no background flusher: we drive
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  CreateKv(db.get());
  ASSERT_TRUE(db->log()->FlushAll().ok());

  constexpr int kCommits = 5;
  for (int i = 0; i < kCommits; ++i) {
    Transaction* txn = db->Begin();
    txn->set_relaxed_durability(true);
    ASSERT_TRUE(InsertRow(db.get(), txn, i, "relaxed").ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  // Acknowledged, visible, but not yet on disk.
  EXPECT_EQ(db->unflushed_commits(), static_cast<uint64_t>(kCommits));
  EXPECT_LT(db->log()->flushed_lsn(), db->log()->next_lsn() - 1);
  EXPECT_EQ(ScanAll(db.get()).size(), static_cast<size_t>(kCommits));

  // Any flush drains the acknowledged tail.
  ASSERT_TRUE(db->log()->FlushAll().ok());
  EXPECT_EQ(db->unflushed_commits(), 0u);
}

TEST(GroupCommitTest, BackgroundFlusherDrainsRelaxedCommits) {
  TempDir dir("group_commit");
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.durability = Durability::kRelaxed;  // database-wide default
  options.group_flush_interval_us = 200;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  CreateKv(db.get());

  Transaction* txn = db->Begin();
  EXPECT_TRUE(txn->relaxed_durability());  // inherited the default
  ASSERT_TRUE(InsertRow(db.get(), txn, 1, "bg").ok());
  ASSERT_TRUE(db->Commit(txn).ok());

  // The flusher makes it durable within its cadence.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->unflushed_commits() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(db->unflushed_commits(), 0u);
  // Everything appended so far (including the commit records) is durable.
  EXPECT_EQ(db->log()->flushed_lsn(), db->log()->next_lsn() - 1);
}

TEST(GroupCommitTest, LoneCommitterFsyncsEveryCommit) {
  TempDir dir("group_commit");
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  CreateKv(db.get());
  Counter* syncs = MetricsRegistry::Global()->GetCounter("wal.syncs");
  const uint64_t syncs_before = syncs->value();
  Lsn prev_flushed = db->log()->flushed_lsn();
  for (int i = 0; i < 4; ++i) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(InsertRow(db.get(), txn, i, "lone").ok());
    ASSERT_TRUE(db->Commit(txn).ok());
    // With no one to share with, the committer leads its own batch: every
    // strict commit advances the durable horizon itself (only the
    // post-commit end record may remain buffered).
    EXPECT_GT(db->log()->flushed_lsn(), prev_flushed);
    prev_flushed = db->log()->flushed_lsn();
  }
  EXPECT_GE(syncs->value() - syncs_before, 4u);
  EXPECT_EQ(ScanAll(db.get()).size(), 4u);
}

TEST(GroupCommitSqlTest, SetDurabilityToggleAndDescribeRow) {
  TempDir dir("group_commit");
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.group_flush_interval_us = 0;  // hold the unflushed tail steady
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());

  Session session(db.get());
  QueryResult r;
  ASSERT_TRUE(
      session.Execute("CREATE TABLE t (k INT NOT NULL, v STRING)", &r).ok());
  ASSERT_TRUE(db->log()->FlushAll().ok());

  EXPECT_TRUE(session.Execute("SET DURABILITY BOGUS", &r).IsInvalidArgument());
  ASSERT_TRUE(session.Execute("SET DURABILITY RELAXED", &r).ok());
  EXPECT_EQ(r.message, "SET DURABILITY RELAXED");
  ASSERT_TRUE(
      session.Execute("INSERT INTO t VALUES (1, 'relaxed')", &r).ok());
  EXPECT_GE(db->unflushed_commits(), 1u);

  // DESCRIBE surfaces the acknowledged-but-unflushed window.
  ASSERT_TRUE(session.Execute("DESCRIBE t", &r).ok());
  bool saw_row = false;
  for (const auto& row : r.rows) {
    if (row[0].string_value() == "db.unflushed_commits") saw_row = true;
  }
  EXPECT_TRUE(saw_row);

  // Back to strict: the commit forces, and once the tail is flushed the
  // DESCRIBE row disappears.
  ASSERT_TRUE(session.Execute("SET DURABILITY STRICT", &r).ok());
  ASSERT_TRUE(
      session.Execute("INSERT INTO t VALUES (2, 'strict')", &r).ok());
  EXPECT_EQ(db->unflushed_commits(), 0u);
  ASSERT_TRUE(session.Execute("DESCRIBE t", &r).ok());
  for (const auto& row : r.rows) {
    EXPECT_NE(row[0].string_value(), "db.unflushed_commits");
  }

  // The toggle also applies to an already-open BEGIN block.
  ASSERT_TRUE(session.Execute("BEGIN", &r).ok());
  ASSERT_TRUE(session.Execute("SET DURABILITY RELAXED", &r).ok());
  ASSERT_TRUE(
      session.Execute("INSERT INTO t VALUES (3, 'block')", &r).ok());
  ASSERT_TRUE(session.Execute("COMMIT", &r).ok());
  EXPECT_GE(db->unflushed_commits(), 1u);
}

// ---------------------------------------------------------------------------
// Fault injection (ctest label: torture)
// ---------------------------------------------------------------------------

TEST(GroupCommitFailureTest, GroupFlushFailureDegradesWithOriginalCause) {
  TempDir dir("group_commit");
  FaultInjectionEnv env;
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.env = &env;
  options.io_retry_attempts = 1;  // surface the fault immediately
  options.recovery_initial_backoff_ms = 1;
  options.recovery_max_backoff_ms = 20;
  options.group_flush_interval_us = 200;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  CreateKv(db.get());
  ASSERT_TRUE(db->log()->FlushAll().ok());

  // Kill the disk, then acknowledge a relaxed commit: the append succeeds,
  // the background group flush fails, and the ErrorHandler must degrade
  // the database with the flusher's original cause.
  env.SetSyncFailAfter(0);
  Transaction* txn = db->Begin();
  txn->set_relaxed_durability(true);
  ASSERT_TRUE(InsertRow(db.get(), txn, 1, "doomed").ok());
  ASSERT_TRUE(db->Commit(txn).ok());  // acknowledged at append

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!db->degraded() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(db->degraded());
  EXPECT_NE(db->error_handler()->degraded_reason().find("wal group flush"),
            std::string::npos);

  // Strict committers during the outage never observe a lost ack: their
  // commit either fails (here: Busy gate or the failing force) or is
  // durable. The write gate refuses before any effect happens.
  Transaction* strict = db->Begin();
  Status blocked = InsertRow(db.get(), strict, 2, "blocked");
  EXPECT_FALSE(blocked.ok());
  (void)db->Abort(strict);

  // Fault clears -> background recovery flushes the acknowledged tail and
  // restores service; nothing acknowledged was lost.
  env.ClearFaults();
  ASSERT_TRUE(db->error_handler()->WaitUntilHealthy(
      std::chrono::milliseconds(10000)));
  EXPECT_EQ(db->unflushed_commits(), 0u);
  Transaction* after = db->Begin();
  ASSERT_TRUE(InsertRow(db.get(), after, 3, "recovered").ok());
  ASSERT_TRUE(db->Commit(after).ok());
  std::map<int64_t, std::string> rows = ScanAll(db.get());
  EXPECT_EQ(rows.count(1), 1u);
  EXPECT_EQ(rows.count(3), 1u);
  EXPECT_EQ(rows.count(2), 0u);
}

/// Randomized crash torture around the group-flush window. Each cycle runs
/// a mix of strict and relaxed commits, kills the disk at a random sync
/// countdown (so some cycles crash exactly between a relaxed append and
/// its deferred fsync), simulates power loss, recovers, and verifies:
///   * every strict commit that returned OK survived;
///   * every failed or aborted transaction left nothing behind;
///   * relaxed commits survive all-or-nothing per transaction (atomicity),
///     and those that were flushed before the disk died survived.
TEST(GroupCommitTortureTest, CrashMidGroupFlush) {
  const uint64_t seed = TortureSeed();
  SCOPED_TRACE("DMX_TORTURE_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);

  TempDir dir("group_commit_torture");
  FaultInjectionEnv env;
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.env = &env;
  options.io_retry_attempts = 1;
  options.auto_recovery = false;  // hold failures steady within a cycle
  options.group_flush_interval_us = 100;

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  {
    Transaction* ddl = db->Begin();
    ASSERT_TRUE(db->CreateRelation(ddl, "t", KvSchema(), "heap", {}).ok());
    ASSERT_TRUE(db->Commit(ddl).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  std::map<int64_t, std::string> must_survive;   // strict, acked
  std::map<int64_t, std::string> may_survive;    // relaxed, acked
  std::map<int64_t, std::string> must_be_gone;   // failed or aborted

  constexpr int kCycles = 10;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Arm the crash point: the disk dies permanently at a random
    // upcoming sync — sometimes inside the background flusher's window,
    // sometimes under a strict leader's fsync.
    env.SetSyncFailAfter(static_cast<int64_t>(rng() % 12));

    const int txns = 4 + static_cast<int>(rng() % 8);
    for (int t = 0; t < txns; ++t) {
      const bool relaxed = (rng() % 2) == 0;
      Transaction* txn = db->Begin();
      txn->set_relaxed_durability(relaxed);
      std::map<int64_t, std::string> staged;
      bool failed = false;
      const int rows = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < rows; ++i) {
        const int64_t k = cycle * 10000 + t * 10 + i;
        const std::string v = relaxed ? "r" : "s";
        Status s = InsertRow(db.get(), txn, k, v);
        if (!s.ok()) {
          failed = true;
          break;
        }
        staged[k] = v;
      }
      if (failed || rng() % 5 == 0) {
        (void)db->Abort(txn);
        must_be_gone.insert(staged.begin(), staged.end());
        continue;
      }
      Status cs = db->Commit(txn);
      if (!cs.ok()) {
        // The disk is dead from here on: nothing later can sync the
        // buffered frame, so a failed commit is never durable.
        must_be_gone.insert(staged.begin(), staged.end());
      } else if (relaxed) {
        may_survive.insert(staged.begin(), staged.end());
      } else {
        must_survive.insert(staged.begin(), staged.end());
      }
    }

    // Crash + power loss + recover.
    db->SimulateCrashOnClose();
    db.reset();
    ASSERT_TRUE(env.DropUnsyncedWrites().ok());
    env.ClearFaults();
    ASSERT_TRUE(Database::Open(options, &db).ok());

    std::map<int64_t, std::string> found = ScanAll(db.get());
    for (const auto& [k, v] : must_survive) {
      auto it = found.find(k);
      ASSERT_TRUE(it != found.end())
          << "acked strict commit lost: key " << k << " cycle " << cycle;
      EXPECT_EQ(it->second, v);
    }
    for (const auto& [k, v] : must_be_gone) {
      EXPECT_EQ(found.count(k), 0u)
          << "unacked/aborted row resurrected: key " << k << " cycle "
          << cycle;
    }
    // Relaxed transactions are atomic even when the tail was lost: for
    // each, either every row survived or none did.
    std::map<int64_t, int> relaxed_txn_seen;  // txn base key -> rows found
    std::map<int64_t, int> relaxed_txn_size;
    for (const auto& [k, v] : may_survive) {
      relaxed_txn_size[k / 10] += 1;
      if (found.count(k)) relaxed_txn_seen[k / 10] += 1;
    }
    for (const auto& [base, seen] : relaxed_txn_seen) {
      EXPECT_EQ(seen, relaxed_txn_size[base])
          << "relaxed transaction torn: base " << base << " cycle " << cycle;
    }
    // Relaxed survivors promote to must_survive (now checkpoint-durable
    // or at least flushed by recovery); the lost ones are gone for good.
    for (const auto& [k, v] : may_survive) {
      if (found.count(k)) {
        must_survive[k] = v;
      } else {
        must_be_gone[k] = v;
      }
    }
    may_survive.clear();
  }
}

/// Concurrent strict committers against a disk that dies mid-run: every
/// Commit that returned OK must survive the crash, across whatever group
/// boundaries the leader/follower protocol formed.
TEST(GroupCommitTortureTest, ConcurrentStrictAcksSurviveCrash) {
  const uint64_t seed = TortureSeed();
  SCOPED_TRACE("DMX_TORTURE_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);

  TempDir dir("group_commit_torture");
  FaultInjectionEnv env;
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.env = &env;
  options.io_retry_attempts = 1;
  options.auto_recovery = false;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  {
    Transaction* ddl = db->Begin();
    ASSERT_TRUE(db->CreateRelation(ddl, "t", KvSchema(), "heap", {}).ok());
    ASSERT_TRUE(db->Commit(ddl).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  env.SetSyncFailAfter(static_cast<int64_t>(rng() % 40));

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 12;
  std::vector<std::vector<int64_t>> acked(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const int64_t k = t * 1000 + i;
        Transaction* txn = db->Begin();
        Status s = InsertRow(db.get(), txn, k, "acked");
        if (s.ok()) {
          s = db->Commit(txn);
        } else {
          (void)db->Abort(txn);
        }
        if (!s.ok()) break;  // disk is dead for the rest of the cycle
        acked[t].push_back(k);
      }
    });
  }
  for (auto& w : workers) w.join();

  db->SimulateCrashOnClose();
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedWrites().ok());
  env.ClearFaults();
  ASSERT_TRUE(Database::Open(options, &db).ok());

  std::map<int64_t, std::string> found = ScanAll(db.get());
  for (int t = 0; t < kThreads; ++t) {
    for (int64_t k : acked[t]) {
      EXPECT_EQ(found.count(k), 1u)
          << "acked strict commit lost after crash: key " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Stress (ctest label: concurrency; runs under TSan in CI)
// ---------------------------------------------------------------------------

TEST(GroupCommitStressTest, ThirtyTwoCommittersHammerTheHandoff) {
  TempDir dir("group_commit_stress");
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.group_flush_interval_us = 100;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  CreateKv(db.get());

  constexpr int kThreads = 32;
  constexpr int kTxnsPerThread = 10;
  std::atomic<int> committed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        Transaction* txn = db->Begin();
        // Mix strict and relaxed committers on the same log.
        txn->set_relaxed_durability((t + i) % 3 == 0);
        Status s = InsertRow(db.get(), txn, t * 1000 + i, "stress");
        if (s.ok()) {
          s = db->Commit(txn);
        } else {
          (void)db->Abort(txn);
        }
        if (s.ok()) {
          committed.fetch_add(1);
        } else {
          ADD_FAILURE() << "commit failed: " << s.ToString();
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(committed.load(), kThreads * kTxnsPerThread);
  EXPECT_EQ(ScanAll(db.get()).size(),
            static_cast<size_t>(kThreads * kTxnsPerThread));
  // Strict committers' records are all durable; the relaxed tail drains.
  ASSERT_TRUE(db->log()->FlushAll().ok());
  EXPECT_EQ(db->unflushed_commits(), 0u);
}

}  // namespace
}  // namespace dmx
