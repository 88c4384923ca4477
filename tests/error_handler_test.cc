// Unit tests for the graceful-degradation subsystem: the Status
// retryability bit, the RetryingEnv backoff wrapper, the ErrorHandler
// taxonomy and state machine, the LogManager poison/Resume contract, and
// the deferred begin-append error on transactions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "src/core/database.h"
#include "src/core/error_handler.h"
#include "src/util/env_retry.h"
#include "src/util/fault_env.h"
#include "src/wal/log_manager.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

// -- Status retryability ------------------------------------------------------

TEST(RetryableStatusTest, BitAndRendering) {
  Status plain = Status::IOError("disk detached");
  EXPECT_FALSE(plain.IsRetryable());
  Status transient = Status::RetryableIOError("no space left");
  EXPECT_TRUE(transient.IsRetryable());
  EXPECT_TRUE(transient.IsIOError());
  EXPECT_NE(transient.ToString().find("(retryable)"), std::string::npos)
      << transient.ToString();
  EXPECT_EQ(plain.ToString().find("(retryable)"), std::string::npos);
  // Copies carry the bit: classification must survive propagation through
  // DMX_RETURN_IF_ERROR chains.
  Status copy = transient;
  EXPECT_TRUE(copy.IsRetryable());
}

TEST(ErrorHandlerTest, ClassifyTaxonomy) {
  EXPECT_EQ(ErrorHandler::Classify(Status::RetryableIOError("enospc")),
            FaultClass::kTransientRetryable);
  EXPECT_EQ(ErrorHandler::Classify(Status::IOError("foreign server down")),
            FaultClass::kTransientFatalToOp);
  EXPECT_EQ(ErrorHandler::Classify(Status::Corruption("bad crc")),
            FaultClass::kHard);
}

// -- RetryingEnv --------------------------------------------------------------

TEST(RetryingEnvTest, AbsorbsTransientBurstWithinBudget) {
  TempDir dir("retryenv");
  FaultInjectionEnv faults;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_us = 1;  // keep the test fast
  policy.max_backoff_us = 10;
  RetryingEnv env(&faults, policy);

  Counter* retries = MetricsRegistry::Global()->GetCounter("io.retries");
  const uint64_t retries_before = retries->value();

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile(dir.path() + "/f", true, &f).ok());
  faults.SetTransientWriteFaults(3);  // 3 failures < 4 attempts
  Status s = f->Write(0, "hello", 5);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(faults.transient_faults_remaining(), 0);
  EXPECT_GE(retries->value(), retries_before + 3);

  char back[5];
  size_t n_read = 0;
  ASSERT_TRUE(f->Read(0, 5, back, &n_read).ok());
  EXPECT_EQ(std::string(back, n_read), "hello");
}

TEST(RetryingEnvTest, ExhaustsBudgetAndReportsRetryable) {
  TempDir dir("retryexh");
  FaultInjectionEnv faults;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_us = 1;
  policy.max_backoff_us = 10;
  RetryingEnv env(&faults, policy);

  Counter* exhausted =
      MetricsRegistry::Global()->GetCounter("io.retry_exhausted");
  const uint64_t exhausted_before = exhausted->value();

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile(dir.path() + "/f", true, &f).ok());
  faults.SetTransientWriteFaults(100);  // outlives any budget
  Status s = f->Write(0, "x", 1);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsRetryable()) << s.ToString();  // class survives exhaustion
  EXPECT_EQ(exhausted->value(), exhausted_before + 1);
  // Exactly max_attempts calls were consumed.
  EXPECT_EQ(faults.transient_faults_remaining(), 100 - 3);
  faults.ClearFaults();
}

TEST(RetryingEnvTest, HardFaultsAreNotRetried) {
  TempDir dir("retryhard");
  FaultInjectionEnv faults;
  RetryingEnv env(&faults);

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile(dir.path() + "/f", true, &f).ok());
  const uint64_t injected_before = faults.injected_faults();
  faults.SetWriteFailAfter(0);  // dead disk: a retry would be pointless
  Status s = f->Write(0, "x", 1);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsRetryable());
  // One injection, not max_attempts of them.
  EXPECT_EQ(faults.injected_faults(), injected_before + 1);
  faults.ClearFaults();
}

// -- ErrorHandler state machine (no thread) -----------------------------------

TEST(ErrorHandlerTest, DegradesOnTransientIoErrorOnly) {
  ErrorHandler eh;  // never started: gate-only use
  EXPECT_FALSE(eh.degraded());
  EXPECT_TRUE(eh.CheckWritable().ok());

  // Hard faults route to quarantine, non-I/O statuses to the caller.
  eh.ReportWriteFailure("wal commit force", Status::Corruption("bad crc"));
  eh.ReportWriteFailure("checkpoint", Status::Busy("active transactions"));
  EXPECT_FALSE(eh.degraded());

  eh.ReportWriteFailure("wal commit force",
                        Status::RetryableIOError("no space left"));
  EXPECT_TRUE(eh.degraded());
  Status busy = eh.CheckWritable();
  EXPECT_TRUE(busy.IsBusy());
  EXPECT_NE(busy.ToString().find("wal commit force"), std::string::npos)
      << busy.ToString();
  EXPECT_NE(busy.ToString().find("no space left"), std::string::npos)
      << busy.ToString();
  EXPECT_NE(eh.degraded_reason().find("wal commit force"),
            std::string::npos);
  // Without a recovery thread the state is sticky.
  EXPECT_FALSE(eh.WaitUntilHealthy(std::chrono::milliseconds(20)));
}

TEST(ErrorHandlerTest, PlainIoErrorDegradesViaWalPath) {
  // The WAL-force path treats any IOError as an availability event (the
  // handler filters only corruption and non-I/O codes).
  ErrorHandler eh;
  eh.ReportWriteFailure("wal commit force", Status::IOError("EIO"));
  EXPECT_TRUE(eh.degraded());
}

TEST(ErrorHandlerTest, BackgroundRecoveryRestoresService) {
  ErrorHandler::Options opts;
  opts.initial_backoff_ms = 1;
  opts.max_backoff_ms = 4;
  ErrorHandler eh(opts);

  std::atomic<int> probes{0};
  eh.SetRecoverFn([&probes] {
    // Fail twice, then succeed: exercises the backoff loop.
    if (probes.fetch_add(1) < 2) {
      return Status::RetryableIOError("still no space");
    }
    return Status::OK();
  });

  std::vector<std::pair<bool, uint64_t>> events;
  Mutex events_mu;
  eh.SetRecoveryListener([&](bool success, uint64_t attempt) {
    MutexLock lock(&events_mu);
    events.emplace_back(success, attempt);
  });
  eh.Start();

  Counter* attempts = MetricsRegistry::Global()->GetCounter(
      "recovery.attempts");
  Counter* successes = MetricsRegistry::Global()->GetCounter(
      "recovery.successes");
  Counter* gauge = MetricsRegistry::Global()->GetCounter("db.degraded");
  const uint64_t attempts_before = attempts->value();
  const uint64_t successes_before = successes->value();

  eh.ReportWriteFailure("checkpoint", Status::RetryableIOError("enospc"));
  EXPECT_EQ(gauge->value(), 1u);
  ASSERT_TRUE(eh.WaitUntilHealthy(std::chrono::milliseconds(5000)));
  EXPECT_FALSE(eh.degraded());
  EXPECT_TRUE(eh.CheckWritable().ok());
  EXPECT_EQ(gauge->value(), 0u);
  EXPECT_GE(attempts->value(), attempts_before + 3);
  EXPECT_EQ(successes->value(), successes_before + 1);
  {
    MutexLock lock(&events_mu);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0], (std::pair<bool, uint64_t>{false, 1}));
    EXPECT_EQ(events[1], (std::pair<bool, uint64_t>{false, 2}));
    EXPECT_EQ(events[2], (std::pair<bool, uint64_t>{true, 3}));
  }
  eh.Stop();
}

// -- LogManager poison / Resume ----------------------------------------------

TEST(LogManagerResumeTest, PoisonCarriesCauseAndResumeClears) {
  TempDir dir("resume");
  FaultInjectionEnv faults;

  LogManager log;
  ASSERT_TRUE(log.Open(dir.path() + "/wal", true, &faults).ok());
  LogRecord rec;
  rec.type = LogRecType::kBegin;
  rec.txn = 1;
  rec.prev_lsn = kInvalidLsn;
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.FlushAll().ok());

  faults.SetSyncFailAfter(0);  // the truncation's sync dies
  Status t = log.Truncate();
  ASSERT_FALSE(t.ok());
  ASSERT_TRUE(log.poisoned());

  // Satellite: the poisoned-path error names the original failing Status,
  // not just "poisoned".
  LogRecord rec2 = rec;
  rec2.txn = 2;
  Status blocked = log.Append(&rec2);
  EXPECT_FALSE(blocked.ok());
  EXPECT_NE(blocked.ToString().find("poisoned"), std::string::npos)
      << blocked.ToString();
  EXPECT_NE(blocked.ToString().find("injected"), std::string::npos)
      << "poison error should carry the original cause: "
      << blocked.ToString();

  // While the fault persists, Resume fails and the log stays poisoned.
  EXPECT_FALSE(log.Resume().ok());
  EXPECT_TRUE(log.poisoned());

  faults.ClearFaults();
  Status r = log.Resume();
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_FALSE(log.poisoned());

  // Full service: appends, flushes, reads work again.
  LogRecord rec3 = rec;
  rec3.txn = 3;
  ASSERT_TRUE(log.Append(&rec3).ok());
  ASSERT_TRUE(log.FlushAll().ok());
  LogRecord back;
  ASSERT_TRUE(log.ReadRecord(rec3.lsn, &back).ok());
  EXPECT_EQ(back.txn, 3u);
}

// -- writes gated on the log's poison ---------------------------------------

TEST(DeferredBeginErrorTest, SurfacesOnFirstWriteNotAtCommit) {
  TempDir dir("deferred");
  FaultInjectionEnv faults;
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  options.env = &faults;
  options.auto_recovery = false;  // hold the poisoned state steady
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());

  Transaction* ddl = db->Begin();
  Schema schema({{"k", TypeId::kInt64, false},
                 {"v", TypeId::kString, true}});
  ASSERT_TRUE(db->CreateRelation(ddl, "t", schema, "heap", {}).ok());
  ASSERT_TRUE(db->Commit(ddl).ok());
  Transaction* w = db->Begin();
  ASSERT_TRUE(
      db->Insert(w, "t", {Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(db->Commit(w).ok());
  // Began before the poisoning: must be gated all the same.
  Transaction* early = db->Begin();

  // Poison the log directly (bypassing Checkpoint, so the ErrorHandler
  // stays healthy and the log's own poison is what gates the write). The
  // pending tail must be flushed first or Truncate refuses with Busy
  // before it ever reaches the disk.
  ASSERT_TRUE(db->log()->FlushAll().ok());
  faults.SetSyncFailAfter(0);
  ASSERT_FALSE(db->log()->Truncate().ok());
  ASSERT_TRUE(db->log()->poisoned());
  faults.ClearFaults();

  const Lsn lsn_before = db->log()->next_lsn();
  Transaction* txn = db->Begin();  // appends nothing, so cannot fail
  EXPECT_EQ(db->log()->next_lsn(), lsn_before);

  // Reads still serve, and the read-only commit needs no log write.
  const RelationDescriptor* desc = nullptr;
  ASSERT_TRUE(db->FindRelation("t", &desc).ok());
  uint64_t n = 0;
  EXPECT_TRUE(db->CountRecords(txn, desc, &n).ok());
  EXPECT_EQ(n, 1u);

  // The first write surfaces the deferred Status with the original cause.
  Status blocked = db->Insert(txn, "t", {Value::Int(2), Value::String("b")});
  EXPECT_FALSE(blocked.ok());
  EXPECT_NE(blocked.ToString().find("poisoned"), std::string::npos)
      << blocked.ToString();
  EXPECT_NE(blocked.ToString().find("injected"), std::string::npos)
      << blocked.ToString();
  EXPECT_TRUE(db->Commit(txn).ok());  // nothing logged: commit is trivial

  // The gate reads the log, not the transaction: one that began healthy
  // is refused before it changes a page.
  Status early_blocked =
      db->Insert(early, "t", {Value::Int(4), Value::String("d")});
  EXPECT_NE(early_blocked.ToString().find("poisoned"), std::string::npos)
      << early_blocked.ToString();
  EXPECT_TRUE(db->Commit(early).ok());
  Transaction* reader = db->Begin();
  EXPECT_TRUE(db->CountRecords(reader, desc, &n).ok());
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(db->Commit(reader).ok());

  // Resume repairs in place; fresh transactions write again.
  ASSERT_TRUE(db->log()->Resume().ok());
  Transaction* after = db->Begin();
  EXPECT_TRUE(db->log()->PoisonStatus().ok());
  EXPECT_TRUE(
      db->Insert(after, "t", {Value::Int(3), Value::String("c")}).ok());
  EXPECT_TRUE(db->Commit(after).ok());
}

// Read-only transactions stay off the log entirely: no begin, commit or
// end record, so nothing accumulates in the unflushed buffer.
TEST(ReadOnlyTxnTest, TenThousandReadOnlyTransactionsLeaveTheLogUntouched) {
  TempDir dir("readonly");
  DatabaseOptions options;
  options.dir = dir.path() + "/db";
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Transaction* ddl = db->Begin();
  Schema schema({{"k", TypeId::kInt64, false}});
  ASSERT_TRUE(db->CreateRelation(ddl, "t", schema, "heap", {}).ok());
  ASSERT_TRUE(db->Insert(ddl, "t", {Value::Int(1)}).ok());
  ASSERT_TRUE(db->Commit(ddl).ok());
  const RelationDescriptor* desc = nullptr;
  ASSERT_TRUE(db->FindRelation("t", &desc).ok());

  const Lsn before = db->log()->next_lsn();
  for (int i = 0; i < 10000; ++i) {
    Transaction* txn = db->Begin();
    uint64_t n = 0;
    ASSERT_TRUE(db->CountRecords(txn, desc, &n).ok());
    ASSERT_EQ(n, 1u);
    // Both ways out of a read-only transaction are log-free.
    ASSERT_TRUE((i % 2 == 0 ? db->Commit(txn) : db->Abort(txn)).ok());
  }
  EXPECT_EQ(db->log()->next_lsn(), before);
}

}  // namespace
}  // namespace dmx
