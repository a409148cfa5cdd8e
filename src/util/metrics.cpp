#include "util/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace fghp::metrics {

Histogram::Histogram(std::vector<std::int64_t> bounds) : bounds_(std::move(bounds)) {
  FGHP_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be ascending");
  counts_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(std::int64_t x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

std::int64_t Histogram::bucket_count(std::size_t i) const {
  return counts_[i].load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& n : counters_)
    if (n.name == name) return *n.metric;
  counters_.push_back({name, std::make_unique<Counter>()});
  return *counters_.back().metric;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& n : gauges_)
    if (n.name == name) return *n.metric;
  gauges_.push_back({name, std::make_unique<Gauge>()});
  return *gauges_.back().metric;
}

Histogram& Registry::histogram(const std::string& name, std::vector<std::int64_t> bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& n : histograms_)
    if (n.name == name) return *n.metric;
  histograms_.push_back({name, std::make_unique<Histogram>(std::move(bounds))});
  return *histograms_.back().metric;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& n : counters_) snap.counters[n.name] = n.metric->value();
  for (const auto& n : gauges_) snap.gauges[n.name] = n.metric->value();
  for (const auto& n : histograms_) {
    HistogramSnapshot s;
    s.bounds = n.metric->bounds();
    for (std::size_t i = 0; i < n.metric->num_buckets(); ++i)
      s.counts.push_back(n.metric->bucket_count(i));
    s.count = n.metric->count();
    s.sum = n.metric->sum();
    snap.histograms[n.name] = std::move(s);
  }
  return snap;
}

void Registry::write_json(std::ostream& out) const {
  json::Writer w(out);
  metrics::write_json(w, snapshot());
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& n : counters_) n.metric->reset();
  for (auto& n : gauges_) n.metric->reset();
  for (auto& n : histograms_) n.metric->reset();
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

void write_json(json::Writer& w, const Snapshot& s) {
  w.begin_object(json::Layout::kLines);
  w.key("counters").begin_object(json::Layout::kLines);
  for (const auto& [name, v] : s.counters) w.member(name, v);
  w.end_object();
  w.key("gauges").begin_object(json::Layout::kLines);
  for (const auto& [name, v] : s.gauges) w.member(name, v);
  w.end_object();
  w.key("histograms").begin_object(json::Layout::kLines);
  for (const auto& [name, h] : s.histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const std::int64_t b : h.bounds) w.value(b);
    w.end_array().key("counts").begin_array();
    for (const std::int64_t c : h.counts) w.value(c);
    w.end_array().member("count", h.count).member("sum", h.sum).end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace fghp::metrics
