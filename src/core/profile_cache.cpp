#include "core/profile_cache.hpp"

namespace kami::core {

namespace {

/// Events land in the registry current on the calling thread when they
/// happen, so a lookup inside an engine task counts in that task's shard.
void count(const char* name) { obs::MetricRegistry::current().counter(name).increment(); }

}  // namespace

ProfileCache::ProfileCache(std::size_t capacity) : capacity_(capacity) {
  KAMI_REQUIRE(capacity_ >= 1, "cache capacity must be positive");
}

std::optional<CachedProfile> ProfileCache::find(const ProfileKey& key) {
  const std::scoped_lock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    count("profile_cache.misses");
    return std::nullopt;
  }
  count("profile_cache.hits");
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return it->second->second;
}

void ProfileCache::insert(const ProfileKey& key, const CachedProfile& value) {
  const std::scoped_lock lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (index_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    count("profile_cache.evictions");
  }
  lru_.emplace_front(key, value);
  index_.emplace(key, lru_.begin());
  count("profile_cache.inserts");
}

std::optional<CachedProfile> ProfileCache::try_get(const ProfileKey& key) const {
  const std::scoped_lock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second->second;
}

std::vector<std::pair<ProfileKey, CachedProfile>> ProfileCache::snapshot() const {
  const std::scoped_lock lock(mu_);
  std::vector<std::pair<ProfileKey, CachedProfile>> out;
  out.reserve(index_.size());
  for (const auto& [key, it] : index_) out.emplace_back(key, it->second);
  return out;
}

std::size_t ProfileCache::size() const {
  const std::scoped_lock lock(mu_);
  return index_.size();
}

void ProfileCache::clear() {
  const std::scoped_lock lock(mu_);
  lru_.clear();
  index_.clear();
}

ProfileCache& ProfileCache::global() {
  static ProfileCache cache;
  return cache;
}

}  // namespace kami::core
