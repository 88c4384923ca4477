#include "src/core/error_handler.h"

#include <algorithm>
#include <utility>

namespace dmx {

ErrorHandler::ErrorHandler() : ErrorHandler(Options()) {}

ErrorHandler::ErrorHandler(Options opts) : opts_(opts) {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_degraded_ = metrics->GetCounter("db.degraded");
  metric_degraded_entries_ = metrics->GetCounter("db.degraded_entries");
  metric_attempts_ = metrics->GetCounter("recovery.attempts");
  metric_successes_ = metrics->GetCounter("recovery.successes");
  // The registry is process-global; a previous Database that died degraded
  // must not leak a stale gauge value into this instance.
  metric_degraded_->Reset();
}

ErrorHandler::~ErrorHandler() { Stop(); }

FaultClass ErrorHandler::Classify(const Status& s) {
  if (s.IsCorruption()) return FaultClass::kHard;
  if (s.IsRetryable()) return FaultClass::kTransientRetryable;
  return FaultClass::kTransientFatalToOp;
}

void ErrorHandler::Start() {
  MutexLock lock(&mu_);
  if (started_ || stop_) return;
  started_ = true;
  thread_ = std::thread([this] { RecoveryLoop(); });
}

void ErrorHandler::Stop() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
}

Status ErrorHandler::CheckWritable() const {
  if (!degraded_.load(std::memory_order_acquire)) return Status::OK();
  MutexLock lock(&mu_);
  return Status::Busy(
      "database is degraded (write-path failure at " + reason_ + ": " +
      cause_.ToString() +
      "); reads keep serving, writes are refused until background recovery "
      "restores the log");
}

std::string ErrorHandler::degraded_reason() const {
  MutexLock lock(&mu_);
  if (!degraded_.load(std::memory_order_relaxed)) return "";
  return reason_ + ": " + cause_.ToString();
}

void ErrorHandler::ReportWriteFailure(const std::string& where,
                                      const Status& cause) {
  if (!cause.IsIOError()) return;  // vetoes, Busy, corruption: not ours
  if (Classify(cause) == FaultClass::kHard) return;  // quarantine's job
  MutexLock lock(&mu_);
  if (stop_ || degraded_.load(std::memory_order_relaxed)) return;
  reason_ = where;
  cause_ = cause;
  attempt_ = 0;
  degraded_.store(true, std::memory_order_release);
  metric_degraded_entries_->Increment();
  metric_degraded_->Reset();
  metric_degraded_->Increment();  // gauge: 1 while degraded
  cv_.NotifyAll();                // wake the recovery thread
}

void ErrorHandler::SetRecoveryListener(RecoveryListener l) {
  MutexLock lock(&mu_);
  listener_ = std::move(l);
}

bool ErrorHandler::WaitUntilHealthy(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(&mu_);
  while (degraded_.load(std::memory_order_relaxed)) {
    if (!cv_.WaitUntil(deadline) &&
        degraded_.load(std::memory_order_relaxed)) {
      return false;
    }
  }
  return true;
}

void ErrorHandler::RecoveryLoop() {
  uint64_t backoff_ms = opts_.initial_backoff_ms;
  while (true) {
    {
      MutexLock lock(&mu_);
      while (!stop_ && !degraded_.load(std::memory_order_relaxed)) {
        backoff_ms = opts_.initial_backoff_ms;  // fresh outage, fresh ramp
        cv_.Wait();
      }
      if (stop_) return;
    }

    metric_attempts_->Increment();
    Status s = recover_ ? recover_()
                        : Status::Internal("no recovery callback installed");

    RecoveryListener listener;
    uint64_t attempt_no;
    {
      MutexLock lock(&mu_);
      attempt_no = ++attempt_;
      listener = listener_;
    }
    // Report the attempt before a success releases WaitUntilHealthy
    // callers: a caller that waited for health has seen every attempt, and
    // may destroy what its listener refers to once the wait returns.
    if (listener) listener(s.ok(), attempt_no);
    if (s.ok()) {
      MutexLock lock(&mu_);
      degraded_.store(false, std::memory_order_release);
      reason_.clear();
      cause_ = Status::OK();
      metric_successes_->Increment();
      metric_degraded_->Reset();  // gauge: back to 0
      cv_.NotifyAll();            // release WaitUntilHealthy callers
      continue;
    }

    // The fault persists: back off (interruptibly) before the next probe.
    {
      MutexLock lock(&mu_);
      if (stop_) return;
      // Timed backoff; a timeout wake is the expected case.
      (void)cv_.WaitUntil(std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(backoff_ms));
      if (stop_) return;
    }
    backoff_ms = std::min(backoff_ms * 2, opts_.max_backoff_ms);
  }
}

}  // namespace dmx
