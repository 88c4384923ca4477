// deeplint fixture: a lock cycle between a pool mutex and its partition
// mutexes. Never compiled — deeplint_test.py asserts the lock-order pass
// reports it, which it can only do if the frontend survives the
// out-of-class operator= below, names the alignas partition struct, and
// types the partition from a reference-bound local.

#include "src/util/thread_annotations.h"

namespace dmx {

class Pool {
 public:
  Pool& operator=(Pool&& o) noexcept;
  void Evict();
  void Pin();

 private:
  struct alignas(64) Shard {
    Mutex mu;
    int pins GUARDED_BY(mu) = 0;
  };
  Mutex evict_mu_;
  int hand_ GUARDED_BY(evict_mu_) = 0;
  Shard shards_[4];
};

Pool& Pool::operator=(Pool&& o) noexcept {
  if (this != &o) {
    hand_ = 0;
  }
  return *this;
}

// Pool::evict_mu_ -> Pool::Shard::mu ...
void Pool::Evict() {
  MutexLock evict(&evict_mu_);
  Shard& shard = shards_[hand_];
  MutexLock lock(&shard.mu);
}

// ... and Pool::Shard::mu -> Pool::evict_mu_: opposite order, deadlock.
void Pool::Pin() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    MutexLock evict(&evict_mu_);
  }
}

}  // namespace dmx
