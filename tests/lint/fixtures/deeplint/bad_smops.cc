// deeplint fixture: deliberately broken registrations. Never compiled —
// deeplint_test.py asserts each defect below is flagged at its line.

#include "src/core/extension.h"

namespace dmx {
namespace {

Status StubValidate(const Schema&, const AttrList&, std::string*) {
  return Status::OK();
}

}  // namespace

// sm-incomplete (erase, fetch, verify unset) + undo-redo-pair (undo only).
const SmOps& BrokenStorageMethodOps() {
  static const SmOps ops = [] {
    SmOps o;
    o.name = "broken";
    o.validate = StubValidate;
    o.create = nullptr;
    o.drop = nullptr;
    o.open = nullptr;
    o.insert = nullptr;
    o.update = nullptr;
    o.open_scan = nullptr;
    o.cost = nullptr;
    o.undo = nullptr;
    o.count = nullptr;
    return o;
  }();
  return ops;
}

// at-incomplete (on_update unset) + lookup-needs-list (lookup, no
// list_instances).
const AtOps& BrokenAttachmentOps() {
  static const AtOps ops = [] {
    AtOps o;
    o.name = "broken_at";
    o.create_instance = nullptr;
    o.drop_instance = nullptr;
    o.open = nullptr;
    o.instance_count = nullptr;
    o.on_insert = nullptr;
    o.lookup = nullptr;
    return o;
  }();
  return ops;
}

// direct-dispatch: calling a sibling's entry point through its accessor
// instead of the registry.
Status BypassRegistry(SmContext& ctx) {
  uint64_t n = 0;
  return HeapStorageMethodOps().count(ctx, &n);
}

// raw-ioerror: only src/util and src/wal may classify I/O failures.
Status FakeDiskFailure() {
  return Status::IOError("disk on fire");
}

// raw-ioerror: the retryable variant is boundary-only too.
Status FakeTransientFailure() {
  return Status::RetryableIOError("disk smoldering");
}

}  // namespace dmx
