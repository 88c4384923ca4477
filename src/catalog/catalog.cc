#include "src/catalog/catalog.h"

#include "src/util/coding.h"

namespace dmx {

Status Catalog::Load(const std::string& path, Env* env) {
  MutexLock lock(&mu_);
  env_ = env != nullptr ? env : Env::Default();
  path_ = path;
  std::string data;
  // Startup read before the catalog is shared; mu_ only guards against
  // a racing early Save.
  // deeplint: allow(blocking-under-lock, startup read precedes sharing)
  Status read = env_->ReadFileToString(path, &data);
  if (read.IsNotFound()) return Status::OK();  // fresh database
  DMX_RETURN_IF_ERROR(read);
  Slice s(data);
  uint32_t next_id, count;
  if (!GetFixed32(&s, &next_id) || !GetVarint32(&s, &count)) {
    return Status::Corruption("catalog header");
  }
  next_id_ = next_id;
  for (uint32_t i = 0; i < count; ++i) {
    auto desc = std::make_shared<RelationDescriptor>();
    DMX_RETURN_IF_ERROR(RelationDescriptor::DecodeFrom(&s, desc.get()));
    by_name_[desc->name] = desc->id;
    by_id_[desc->id] = std::move(desc);
  }
  return Status::OK();
}

Status Catalog::Save() const {
  MutexLock lock(&mu_);
  // Never opened (e.g. Database::Open failed before Catalog::Open and the
  // half-built Database's destructor flushes): nothing to save.
  if (env_ == nullptr) return Status::OK();
  std::string data;
  PutFixed32(&data, next_id_);
  PutVarint32(&data, static_cast<uint32_t>(by_id_.size()));
  for (const auto& [id, desc] : by_id_) {
    desc->EncodeTo(&data);
  }
  // Rename order must match snapshot order: two unlocked Saves could
  // land their renames newest-first.
  // deeplint: allow(blocking-under-lock, rename order must match mu_)
  return env_->WriteFileAtomic(path_, data);
}

Status Catalog::AddRelation(RelationDescriptor desc, RelationId* id) {
  MutexLock lock(&mu_);
  if (by_name_.contains(desc.name)) {
    return Status::InvalidArgument("relation '" + desc.name +
                                   "' already exists");
  }
  desc.id = next_id_++;
  desc.version = 1;
  *id = desc.id;
  by_name_[desc.name] = desc.id;
  by_id_[desc.id] = std::make_shared<RelationDescriptor>(std::move(desc));
  return Status::OK();
}

Status Catalog::RemoveRelation(RelationId id, RelationDescriptor* removed) {
  MutexLock lock(&mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("relation id " + std::to_string(id));
  }
  if (removed) *removed = *it->second;
  by_name_.erase(it->second->name);
  by_id_.erase(it);
  return Status::OK();
}

Status Catalog::RestoreRelation(RelationDescriptor desc) {
  MutexLock lock(&mu_);
  if (by_id_.contains(desc.id) || by_name_.contains(desc.name)) {
    return Status::InvalidArgument("restore collides");
  }
  by_name_[desc.name] = desc.id;
  RelationId id = desc.id;
  by_id_[id] = std::make_shared<RelationDescriptor>(std::move(desc));
  return Status::OK();
}

Status Catalog::UpdateRelation(const RelationDescriptor& desc) {
  MutexLock lock(&mu_);
  auto it = by_id_.find(desc.id);
  if (it == by_id_.end()) {
    return Status::NotFound("relation id " + std::to_string(desc.id));
  }
  // Copy-on-write: retire the old object instead of assigning over it, so
  // readers holding its pointer (or Slices into its strings) never race
  // with the replacement.
  auto fresh = std::make_shared<RelationDescriptor>(desc);
  fresh->version = it->second->version + 1;
  retired_.push_back(std::move(it->second));
  it->second = std::move(fresh);
  return Status::OK();
}

Status Catalog::MutateRelation(
    RelationId id, const std::function<bool(RelationDescriptor&)>& fn) {
  MutexLock lock(&mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("relation id " + std::to_string(id));
  }
  auto fresh = std::make_shared<RelationDescriptor>(*it->second);
  if (!fn(*fresh)) return Status::OK();
  ++fresh->version;
  retired_.push_back(std::move(it->second));
  it->second = std::move(fresh);
  return Status::OK();
}

Status Catalog::RenameRelation(RelationId id, const std::string& new_name) {
  MutexLock lock(&mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("relation id " + std::to_string(id));
  }
  if (by_name_.contains(new_name)) {
    return Status::InvalidArgument("relation '" + new_name +
                                   "' already exists");
  }
  auto fresh = std::make_shared<RelationDescriptor>(*it->second);
  fresh->name = new_name;
  ++fresh->version;
  by_name_.erase(it->second->name);
  retired_.push_back(std::move(it->second));
  it->second = std::move(fresh);
  by_name_[new_name] = id;
  return Status::OK();
}

const RelationDescriptor* Catalog::Find(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return by_id_.at(it->second).get();
}

const RelationDescriptor* Catalog::Find(RelationId id) const {
  MutexLock lock(&mu_);
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const RelationDescriptor> Catalog::Snapshot(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return by_id_.at(it->second);
}

uint64_t Catalog::VersionOf(RelationId id) const {
  MutexLock lock(&mu_);
  auto it = by_id_.find(id);
  return it == by_id_.end() ? 0 : it->second->version;
}

std::vector<RelationId> Catalog::AllRelationIds() const {
  MutexLock lock(&mu_);
  std::vector<RelationId> out;
  out.reserve(by_id_.size());
  for (const auto& [id, desc] : by_id_) out.push_back(id);
  return out;
}

}  // namespace dmx
