// deeplint fixture: Status discipline violations. Never compiled —
// deeplint_test.py asserts the status-discipline pass flags each one.

#include "src/util/status.h"

namespace dmx {

Status FetchBlock();

// Flagged: IOError classification belongs to the Env/WAL boundary
// (src/util, src/wal), not to a file out here.
Status MisclassifiesIo() {
  return Status::IOError("disk says no");
}

// Flagged: a silently discarded Status with no reason comment.
void DropsStatus() {
  (void)FetchBlock();
}

// Flagged: a retry loop that never consults IsRetryable, so it retries
// permanent faults (corruption, not-found) as eagerly as transient ones.
Status RetriesBlindly() {
  Status s;
  for (int attempt = 0; attempt < 3; ++attempt) {
    s = FetchBlock();
    if (s.ok()) return s;
  }
  return s;
}

// Flagged: an update record framed by hand outside the WAL and the
// extension log service — one more copy of the log-append helper.
Status LogsByHand(LogManager* log) {
  LogRecord rec = MakeUpdateRecord(1, ExtKind::kAttachment, 0, 1, "x");
  return log->Append(&rec);
}

}  // namespace dmx
