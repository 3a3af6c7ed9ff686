#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace kami::obs {

double Histogram::sum() const noexcept {
  std::lock_guard lock(mu_);
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double Histogram::mean() const {
  std::lock_guard lock(mu_);
  if (samples_.empty()) return 0.0;
  const double s = std::accumulate(samples_.begin(), samples_.end(), 0.0);
  return s / static_cast<double>(samples_.size());
}

void Histogram::ensure_sorted_locked() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::min() const {
  std::lock_guard lock(mu_);
  if (samples_.empty()) return 0.0;
  ensure_sorted_locked();
  return samples_.front();
}

double Histogram::max() const {
  std::lock_guard lock(mu_);
  if (samples_.empty()) return 0.0;
  ensure_sorted_locked();
  return samples_.back();
}

double Histogram::percentile(double p) const {
  std::lock_guard lock(mu_);
  KAMI_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  if (samples_.empty()) return 0.0;
  ensure_sorted_locked();
  if (samples_.size() == 1) return samples_.front();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

namespace {

/// Find-or-create; the caller holds the registry's mutex. try_emplace:
/// metrics hold an atomic and are not movable.
template <class Map>
typename Map::mapped_type& find_or_create(Map& map, std::string_view name) {
  const auto it = map.find(name);
  if (it != map.end()) return it->second;
  return map.try_emplace(std::string(name)).first->second;
}

}  // namespace

Counter& MetricRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  return find_or_create(counters_, name);
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  return find_or_create(gauges_, name);
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  return find_or_create(histograms_, name);
}

const Counter* MetricRegistry::find_counter(std::string_view name) const noexcept {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricRegistry::find_gauge(std::string_view name) const noexcept {
  std::lock_guard lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricRegistry::find_histogram(std::string_view name) const noexcept {
  std::lock_guard lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::map<std::string, double> MetricRegistry::counter_values() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c.value());
  return out;
}

std::map<std::string, double> MetricRegistry::gauge_values() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out.emplace(name, g.value());
  return out;
}

void MetricRegistry::reset_values() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

void MetricRegistry::merge_from(const MetricRegistry& other) {
  KAMI_REQUIRE(&other != this, "a registry cannot merge into itself");
  // Straight from the other side's maps: both locks at once (scoped_lock
  // orders them deadlock-free), no snapshot copies.
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [name, c] : other.counters_)
    find_or_create(counters_, name).add(c.value());
  for (const auto& [name, g] : other.gauges_) find_or_create(gauges_, name).set_max(g.value());
  for (const auto& [name, h] : other.histograms_) {
    Histogram& into = find_or_create(histograms_, name);
    std::scoped_lock samples(into.mu_, h.mu_);
    into.samples_.insert(into.samples_.end(), h.samples_.begin(), h.samples_.end());
    into.sorted_ = false;
  }
}

Json MetricRegistry::to_json() const {
  std::lock_guard lock(mu_);
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) counters.set(name, c.value());
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, g.value());
  Json hists = Json::object();
  for (const auto& [name, h] : histograms_) {
    // Every stat is emitted for every histogram, including empty ones (a
    // reset or admitted-but-never-completed distribution): NaN-free zeros
    // with count 0, so report consumers never have to branch on presence.
    Json entry = Json::object();
    entry.set("count", static_cast<double>(h.count()));
    entry.set("sum", h.sum());
    entry.set("min", h.min());
    entry.set("max", h.max());
    entry.set("p50", h.percentile(50.0));
    entry.set("p90", h.percentile(90.0));
    entry.set("p99", h.percentile(99.0));
    hists.set(name, std::move(entry));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(hists));
  return out;
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

MetricRegistry*& MetricRegistry::current_slot() {
  thread_local MetricRegistry* slot = nullptr;
  return slot;
}

MetricRegistry& MetricRegistry::current() {
  MetricRegistry* slot = current_slot();
  return slot ? *slot : global();
}

}  // namespace kami::obs
