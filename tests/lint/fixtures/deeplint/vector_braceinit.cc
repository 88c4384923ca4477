// deeplint fixture: an incomplete procedure vector declared with brace
// initialization split from its field assignments. A line regex
// wanting `SmOps o;` or `SmOps o = SomeOps();` misses this form, which
// is why vector-dispatch works on tokens: deeplint_test.py asserts that
// the pass flags both the missing redo and the unpaired undo at the
// registration line.

#include "src/core/extension.h"

namespace dmx {

// vector-dispatch: missing redo (and undo without redo breaks the
// undo/redo recovery pairing).
SmOps BraceInitializedOps() {
  SmOps ops{};
  ops.name = "braceinit";
  ops.validate = nullptr;
  ops.create = nullptr;
  ops.drop = nullptr;
  ops.open = nullptr;
  ops.insert = nullptr;
  ops.update = nullptr;
  ops.erase = nullptr;
  ops.fetch = nullptr;
  ops.open_scan = nullptr;
  ops.cost = nullptr;
  ops.undo = nullptr;
  ops.count = nullptr;
  ops.verify = nullptr;
  return ops;
}

}  // namespace dmx
