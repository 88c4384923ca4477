#include "src/core/key_table.h"

namespace dmx {

void KeyTable::Add(const std::string& key, const std::string& record_key) {
  if (buckets[key].insert(record_key).second) ++entries;
}

void KeyTable::Remove(const std::string& key, const std::string& record_key) {
  auto bucket = buckets.find(key);
  if (bucket == buckets.end()) return;
  if (bucket->second.erase(record_key) > 0) --entries;
  if (bucket->second.empty()) buckets.erase(bucket);
}

bool KeyTable::Contains(const std::string& key,
                        const std::string& record_key) const {
  auto bucket = buckets.find(key);
  return bucket != buckets.end() && bucket->second.contains(record_key);
}

void KeyTable::Collect(const std::string& key,
                       std::vector<std::string>* out) const {
  auto bucket = buckets.find(key);
  if (bucket == buckets.end()) return;
  out->insert(out->end(), bucket->second.begin(), bucket->second.end());
}

}  // namespace dmx
