// ErrorHandler: the database-wide fault taxonomy, the degraded read-only
// mode state machine, and the background auto-recovery thread.
//
// Every I/O failure is classified at the Env/WAL/PageFile boundary (the
// only layers allowed to construct IOError — see deeplint's
// status-discipline pass) into one of three classes:
//
//   * transient-retryable — the same call may succeed if repeated (ENOSPC
//     that clears, EAGAIN, injected transient faults). The RetryingEnv
//     absorbs short bursts with bounded backoff; what outlives the retry
//     budget reaches this handler.
//   * transient-fatal-to-op — the operation fails and its transaction must
//     abort, but the database itself is not suspect (e.g. a foreign server
//     that is unreachable).
//   * hard — evidence of data damage (CRC mismatch → kCorruption). These
//     keep routing to the PR 4 quarantine machinery and never trip
//     degraded mode: refusing all writes would not make damaged bytes any
//     safer, and quarantine already fences the damaged component.
//
// State machine (full diagram in DESIGN.md §11):
//
//   kHealthy --ReportWriteFailure(IOError on WAL force / checkpoint)-->
//   kDegraded --recover_fn() succeeds--> kHealthy
//
// While degraded: CheckWritable() returns a descriptive Busy (the Database
// gates every write and DDL path on it), reads and read-only commits keep
// serving, and the recovery thread retries recover_fn() with exponential
// backoff until the fault clears or Stop(). The transition is visible as
// the `db.degraded` gauge, in DESCRIBE output, and to test listeners.

#ifndef DMX_CORE_ERROR_HANDLER_H_
#define DMX_CORE_ERROR_HANDLER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dmx {

/// The error taxonomy (tentpole contract; see file comment).
enum class FaultClass : uint8_t {
  kTransientRetryable,
  kTransientFatalToOp,
  kHard,
};

class ErrorHandler {
 public:
  struct Options {
    /// Backoff between background recovery attempts; doubles per failure
    /// from initial to max. Tests shrink these to keep the torture cycle
    /// fast.
    uint64_t initial_backoff_ms = 10;
    uint64_t max_backoff_ms = 1000;
  };

  /// Repairs the fault and probes the write path; OK means full service
  /// can resume. Runs on the recovery thread with no ErrorHandler lock
  /// held.
  using RecoverFn = std::function<Status()>;

  /// Test hook fired after every recovery attempt (success flag, 1-based
  /// attempt number within the current outage). Called with no lock held,
  /// and for a successful attempt before WaitUntilHealthy callers are
  /// released.
  using RecoveryListener = std::function<void(bool success, uint64_t attempt)>;

  ErrorHandler();  // default Options
  explicit ErrorHandler(Options opts);
  ~ErrorHandler();  // stops the recovery thread

  ErrorHandler(const ErrorHandler&) = delete;
  ErrorHandler& operator=(const ErrorHandler&) = delete;

  /// Classify a non-OK status per the taxonomy above.
  static FaultClass Classify(const Status& s);

  /// Install the recovery callback, then start the background thread.
  /// Without Start() the handler still tracks degraded state (benches and
  /// unit tests exercise the gate without a thread).
  void SetRecoverFn(RecoverFn fn) { recover_ = std::move(fn); }
  void Start();
  /// Idempotent; joins the recovery thread.
  void Stop();

  /// Lock-free fast path for the write gates: one relaxed-ish load when
  /// healthy.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  /// OK when healthy; a descriptive Busy naming the failing operation and
  /// its root cause while degraded.
  Status CheckWritable() const;

  /// Where/why of the current outage ("" when healthy).
  std::string degraded_reason() const;

  /// A WAL force, checkpoint, or relation-modification write path failed
  /// with `cause`. Hard faults (kCorruption) and non-I/O statuses are
  /// ignored — they are the quarantine machinery's and the caller's
  /// business; an IOError enters degraded mode and wakes the recovery
  /// thread.
  void ReportWriteFailure(const std::string& where, const Status& cause);

  void SetRecoveryListener(RecoveryListener l);

  /// Block until the handler leaves degraded mode; false on timeout.
  bool WaitUntilHealthy(std::chrono::milliseconds timeout);

 private:
  void RecoveryLoop();

  const Options opts_;
  RecoverFn recover_;  // set before Start(), then read-only

  std::atomic<bool> degraded_{false};
  mutable Mutex mu_;
  CondVar cv_{&mu_};  // recovery thread + WaitUntilHealthy waiters
  bool stop_ GUARDED_BY(mu_) = false;
  bool started_ GUARDED_BY(mu_) = false;
  std::string reason_ GUARDED_BY(mu_);
  Status cause_ GUARDED_BY(mu_);
  uint64_t attempt_ GUARDED_BY(mu_) = 0;  // within the current outage
  RecoveryListener listener_ GUARDED_BY(mu_);
  std::thread thread_;

  // Registry metrics: db.degraded is a 0/1 gauge (Reset/Increment),
  // db.degraded_entries counts outages, recovery.* count the thread's
  // probe attempts and the ones that restored service.
  Counter* metric_degraded_;
  Counter* metric_degraded_entries_;
  Counter* metric_attempts_;
  Counter* metric_successes_;
};

}  // namespace dmx

#endif  // DMX_CORE_ERROR_HANDLER_H_
