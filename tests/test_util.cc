#include "tests/test_util.h"

#include <cstdio>
#include <filesystem>

#include "src/util/coding.h"

namespace dmx {
namespace testing {

TempDir::TempDir(const std::string& tag) {
  char buf[256];
  snprintf(buf, sizeof(buf), "/tmp/dmx_test_%s_%d_XXXXXX", tag.c_str(),
           static_cast<int>(getpid()));
  char* p = mkdtemp(buf);
  path_ = p ? p : "/tmp";
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

PageId BTreeIndexAnchor(Database* db, const std::string& rel,
                        uint32_t instance_no) {
  const RelationDescriptor* desc = nullptr;
  const int at = db->registry()->FindAttachmentType("btree_index");
  if (at < 0 || !db->FindRelation(rel, &desc).ok()) return kInvalidPageId;
  Slice in(desc->at_desc[static_cast<size_t>(at)]);
  uint32_t next_no = 0, count = 0;
  if (!GetVarint32(&in, &next_no) || !GetVarint32(&in, &count)) {
    return kInvalidPageId;
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t no = 0, anchor = 0, nfields = 0, field = 0;
    if (!GetVarint32(&in, &no) || !GetFixed32(&in, &anchor) || in.empty()) {
      return kInvalidPageId;
    }
    in.remove_prefix(1);  // unique flag
    if (!GetVarint32(&in, &nfields)) return kInvalidPageId;
    for (uint32_t f = 0; f < nfields; ++f) {
      if (!GetVarint32(&in, &field)) return kInvalidPageId;
    }
    if (no == instance_no) return anchor;
  }
  return kInvalidPageId;
}

Status ScanAll(LogManager* log, std::vector<LogRecord>* out) {
  return log->Scan([out](const LogRecord& rec) {
    out->push_back(rec);
    return Status::OK();
  });
}

}  // namespace testing
}  // namespace dmx
