// PlanCache: compiled plans by batch-shape bucket, covering lookup and LRU
// eviction. See plan/plan.h.
#include "plan/plan.h"

namespace tpuperf::plan {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {}

std::pair<int, int> PlanCache::Bucket(int num_kernels, int total_nodes) {
  const auto next_pow2 = [](int v) {
    int p = 1;
    while (p < v) p *= 2;
    return p;
  };
  // node_capacity must cover at least one node per kernel (CompilePlan
  // rejects max_total_nodes < max_kernels).
  const int b = next_pow2(num_kernels < 1 ? 1 : num_kernels);
  const int n = next_pow2(total_nodes < b ? b : total_nodes);
  return {b, n};
}

std::shared_ptr<const CompiledPlan> PlanCache::Lookup(int num_kernels,
                                                      int total_nodes) {
  std::lock_guard lock(mu_);
  // A plan's schedule does not depend on its capacities, so any plan whose
  // bucket covers the shape replays it bit-identically; take the smallest.
  auto best = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const auto [b, n] = it->bucket;
    if (b < num_kernels || n < total_nodes) continue;
    if (best == entries_.end() ||
        std::pair{n, b} < std::pair{best->bucket.second, best->bucket.first}) {
      best = it;
    }
  }
  if (best == entries_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  entries_.splice(entries_.begin(), entries_, best);
  return entries_.front().plan;
}

void PlanCache::Insert(int num_kernels, int total_nodes,
                       std::shared_ptr<const CompiledPlan> plan) {
  if (capacity_ == 0) return;
  const std::pair<int, int> bucket = Bucket(num_kernels, total_nodes);
  std::lock_guard lock(mu_);
  ++counters_.compiles;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->bucket == bucket) {
      it->plan = std::move(plan);
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
  }
  entries_.push_front(Entry{bucket, std::move(plan)});
  while (entries_.size() > capacity_) entries_.pop_back();
}

void PlanCache::Clear() {
  std::lock_guard lock(mu_);
  entries_.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

PlanCache::Counters PlanCache::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

}  // namespace tpuperf::plan
