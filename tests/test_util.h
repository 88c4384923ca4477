// Shared test helpers.

#ifndef DMX_TESTS_TEST_UTIL_H_
#define DMX_TESTS_TEST_UTIL_H_

#include <string>
#include <unistd.h>
#include <vector>

#include "src/core/database.h"
#include "src/wal/log_manager.h"

namespace dmx {
namespace testing {

/// Scoped temporary directory, recursively removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag = "t");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Anchor page of btree_index instance `instance_no` on relation `rel`
/// (decoded from the type descriptor layout documented in
/// src/attach/btree_index.h), or kInvalidPageId when there is none.
PageId BTreeIndexAnchor(Database* db, const std::string& rel,
                        uint32_t instance_no);

/// Appends every retained record of `log` to `*out`, oldest first, by way
/// of LogManager::Scan — which, like restart, heals a torn or stale live
/// tail as it ends.
Status ScanAll(LogManager* log, std::vector<LogRecord>* out);

}  // namespace testing
}  // namespace dmx

#endif  // DMX_TESTS_TEST_UTIL_H_
