// Thread-safety annotations and annotated synchronization primitives.
//
// Wraps Clang's Thread Safety Analysis ("C/C++ Thread Safety Analysis",
// Hutchins et al., CGO 2014) so the locking protocols of every concurrent
// subsystem — which mutex guards which members, which functions must be
// called with which locks held — are stated in the code and checked at
// compile time. Under clang with -Wthread-safety (the DMX_THREAD_SAFETY
// CMake option promotes it to -Werror=thread-safety) a read of a
// GUARDED_BY member outside its mutex, a forgotten unlock, or a call to a
// REQUIRES function without the lock is a build error. Under other
// compilers the attributes expand to nothing and the wrappers cost exactly
// what the std primitives they wrap cost.
//
// Conventions (enforced by deeplint's mutex-discipline pass):
//   * Never declare a raw std::mutex member — use dmx::Mutex so the
//     analysis sees lock/unlock operations.
//   * Every Mutex member must have at least one GUARDED_BY companion (or a
//     `deeplint: allow(mutex-discipline, reason)` comment saying why not).
//   * Lock with MutexLock (RAII); internal helpers that assume the lock is
//     held are annotated REQUIRES(mu_) — the historical *Locked suffix
//     becomes machine-checked.

#ifndef DMX_UTIL_THREAD_ANNOTATIONS_H_
#define DMX_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define DMX_TSA_HAS(x) __has_attribute(x)
#else
#define DMX_TSA_HAS(x) 0
#endif

#if DMX_TSA_HAS(guarded_by)
#define DMX_TSA(x) __attribute__((x))
#else
#define DMX_TSA(x)  // no-op outside clang
#endif

/// Declares a type to be a capability (lockable).
#define CAPABILITY(name) DMX_TSA(capability(name))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define SCOPED_CAPABILITY DMX_TSA(scoped_lockable)

/// Member may only be accessed while `mu` is held.
#define GUARDED_BY(mu) DMX_TSA(guarded_by(mu))

/// Pointer member: the *pointee* may only be accessed while `mu` is held.
#define PT_GUARDED_BY(mu) DMX_TSA(pt_guarded_by(mu))

/// Function must be called with the capability held (and it stays held).
#define REQUIRES(...) DMX_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) DMX_TSA(requires_shared_capability(__VA_ARGS__))

/// Historical alias used by existing thread-safety literature.
#define EXCLUSIVE_LOCKS_REQUIRED(...) REQUIRES(__VA_ARGS__)

/// Function acquires / releases the capability.
#define ACQUIRE(...) DMX_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) DMX_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) DMX_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) DMX_TSA(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability when it returns `result`.
#define TRY_ACQUIRE(result, ...) \
  DMX_TSA(try_acquire_capability(result, __VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard).
#define EXCLUDES(...) DMX_TSA(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the calling thread holds the capability.
#define ASSERT_CAPABILITY(x) DMX_TSA(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define RETURN_CAPABILITY(x) DMX_TSA(lock_returned(x))

/// Escape hatch: disable analysis for one function (e.g. lock juggling the
/// analysis cannot follow). Always pair with a comment saying why.
#define NO_THREAD_SAFETY_ANALYSIS DMX_TSA(no_thread_safety_analysis)

namespace dmx {

/// Annotated exclusive mutex. A thin std::mutex wrapper whose lock/unlock
/// operations are visible to the analysis.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// For code paths the analysis cannot follow: tells it (without runtime
  /// cost) that this thread holds the mutex.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for a Mutex; the analysis treats the enclosing scope as
/// holding the mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to one Mutex for its lifetime (the
/// std::condition_variable requirement that all waiters use the same mutex
/// becomes structural). Wait members are annotated REQUIRES(mu) so the
/// analysis checks the caller holds the mutex — and models the fact that
/// the mutex is held again when the wait returns.
class CondVar {
 public:
  explicit CondVar(Mutex* mu) : mu_(mu) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release the mutex and block; re-acquires before returning.
  void Wait() REQUIRES(mu_) {
    std::unique_lock<std::mutex> lock(mu_->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's MutexLock still owns the mutex
  }

  /// Wait with a deadline; false if `deadline` passed without a notify.
  template <class Clock, class Duration>
  bool WaitUntil(const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu_) {
    std::unique_lock<std::mutex> lock(mu_->mu_, std::adopt_lock);
    bool ok = cv_.wait_until(lock, deadline) == std::cv_status::no_timeout;
    lock.release();
    return ok;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
  Mutex* const mu_;
};

}  // namespace dmx

#endif  // DMX_UTIL_THREAD_ANNOTATIONS_H_
