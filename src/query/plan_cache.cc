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

Status PlanCache::Get(const std::string& key, const Builder& builder,
                      std::shared_ptr<const BoundPlan>* out) {
  {
    MutexLock lock(&mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      if (IsValid(*it->second)) {
        stats_.hits.Increment();
        metric_hits_->Increment();
        *out = it->second;
        return Status::OK();
      }
      // Stale: drop and re-translate below.
      plans_.erase(it);
      stats_.retranslations.Increment();
      metric_retranslations_->Increment();
    } else {
      stats_.misses.Increment();
      metric_misses_->Increment();
    }
  }
  auto plan = std::make_shared<BoundPlan>();
  DMX_RETURN_IF_ERROR(builder(plan.get()));
  MutexLock lock(&mu_);
  plans_[key] = plan;
  *out = std::move(plan);
  return Status::OK();
}

Status PlanCache::GetAccessPlan(Transaction* txn, const std::string& relation,
                                const ExprPtr& predicate,
                                const std::string& key,
                                std::shared_ptr<const BoundPlan>* out,
                                const std::vector<int>* needed_fields) {
  return Get(key, [&](BoundPlan* plan) -> Status {
    DMX_RETURN_IF_ERROR(db_->FindRelation(relation, &plan->relation));
    const RelationDescriptor* desc = plan->relation.get();
    plan->dependencies = {{desc->id, desc->version}};
    return PlanAccess(db_, txn, desc, predicate, &plan->access,
                      needed_fields);
  }, out);
}

size_t PlanCache::size() const {
  MutexLock lock(&mu_);
  return plans_.size();
}

}  // namespace dmx
