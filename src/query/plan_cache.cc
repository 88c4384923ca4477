#include "src/query/plan_cache.h"

namespace dmx {

PlanCache::PlanCache(Database* db) : db_(db) {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_hits_ = metrics->GetCounter("plancache.hits");
  metric_misses_ = metrics->GetCounter("plancache.misses");
  metric_retranslations_ = metrics->GetCounter("plancache.retranslations");
}

bool PlanCache::IsValid(const BoundPlan& plan) const {
  for (const auto& [rel, version] : plan.dependencies) {
    if (db_->catalog()->VersionOf(rel) != version) return false;
  }
  return true;
}

std::shared_ptr<const BoundPlan> PlanCache::Lookup(const std::string& key) {
  MutexLock lock(&mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    stats_.misses.Increment();
    metric_misses_->Increment();
    return nullptr;
  }
  if (!IsValid(*it->second)) {
    // Stale: drop it; the caller re-translates.
    plans_.erase(it);
    stats_.retranslations.Increment();
    metric_retranslations_->Increment();
    return nullptr;
  }
  stats_.hits.Increment();
  metric_hits_->Increment();
  return it->second;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const BoundPlan> plan) {
  MutexLock lock(&mu_);
  plans_[key] = std::move(plan);
}

Status PlanCache::GetAccessPlan(Transaction* txn, const std::string& relation,
                                const ExprPtr& predicate,
                                const std::string& key,
                                std::shared_ptr<const BoundPlan>* out,
                                const std::vector<int>* needed_fields) {
  *out = Lookup(key);
  if (*out != nullptr) return Status::OK();
  auto plan = std::make_shared<BoundPlan>();
  DMX_RETURN_IF_ERROR(db_->FindRelation(relation, &plan->relation));
  const RelationDescriptor* desc = plan->relation.get();
  plan->dependencies = {{desc->id, desc->version}};
  DMX_RETURN_IF_ERROR(PlanAccess(db_, txn, desc, predicate, &plan->access,
                                 needed_fields));
  Insert(key, plan);
  *out = std::move(plan);
  return Status::OK();
}

size_t PlanCache::size() const {
  MutexLock lock(&mu_);
  return plans_.size();
}

}  // namespace dmx
