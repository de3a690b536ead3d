#include "engine/plan_cache.h"

namespace sqlcm::engine {

std::shared_ptr<CachedPlan> PlanCache::Get(const std::string& sql_text) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(sql_text);
  if (it == map_.end()) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.plan;
}

common::Result<std::shared_ptr<CachedPlan>> PlanCache::GetOrCompile(
    const std::string& sql_text, const Compiler& compile) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto it = map_.find(sql_text); it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.plan;
    }
    auto in_flight = in_flight_.find(sql_text);
    if (in_flight == in_flight_.end()) break;
    const std::shared_ptr<Flight> flight = in_flight->second;
    flight_done_.wait(lock, [&flight] { return flight->done; });
    if (flight->plan != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return flight->plan;
    }
    // The compile failed or Clear() abandoned it: look again.
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  const auto flight = std::make_shared<Flight>();
  in_flight_.emplace(sql_text, flight);
  lock.unlock();
  common::Result<std::shared_ptr<CachedPlan>> result = compile();
  lock.lock();
  // Clear() detaches (and completes) the flights it abandons.
  auto it = in_flight_.find(sql_text);
  if (it != in_flight_.end() && it->second == flight) {
    in_flight_.erase(it);
    flight->done = true;
    if (result.ok()) {
      flight->plan = *result;
      lru_.push_front(sql_text);
      map_.emplace(sql_text, Slot{flight->plan, lru_.begin()});
      while (map_.size() > capacity_ && !lru_.empty()) {
        map_.erase(lru_.back());
        lru_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  lock.unlock();
  flight_done_.notify_all();
  return result;
}

void PlanCache::Clear() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
    for (auto& [_, flight] : in_flight_) flight->done = true;
    in_flight_.clear();
  }
  flight_done_.notify_all();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

}  // namespace sqlcm::engine
