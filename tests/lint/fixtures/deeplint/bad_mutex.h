// deeplint fixture: mutex-discipline violations. Never compiled.

#ifndef DMX_TESTS_LINT_FIXTURES_DEEPLINT_BAD_MUTEX_H_
#define DMX_TESTS_LINT_FIXTURES_DEEPLINT_BAD_MUTEX_H_

#include <mutex>

#include "src/util/thread_annotations.h"

namespace dmx {
// A comment naming std::mutex is no finding; the declaration below is.
std::mutex& RawGlobalMutex();
class RawMutexHolder {
 public:
  void Touch();

 private:
  std::mutex mu_;
  int count_ = 0;
};

// Unguarded: a member Mutex that no GUARDED_BY or REQUIRES names.
class UnguardedMutexHolder {
 public:
  void Touch();

 private:
  Mutex mu_;
  int count_ = 0;
};

// The same defect under a reasoned waiver: silenced.
class CallerSynchronized {
 private:
  Mutex mu_;  // deeplint: allow(mutex-discipline, fixture: caller locks)
  int count_ = 0;
};

}  // namespace dmx

#endif  // DMX_TESTS_LINT_FIXTURES_DEEPLINT_BAD_MUTEX_H_
