#include "obs/metrics.hpp"

namespace dmra::obs {

ScopedTimer::ScopedTimer(MetricsRegistry* registry, std::string name)
    : registry_(registry), name_(std::move(name)),
      start_(std::chrono::steady_clock::now()) {}

ScopedTimer::~ScopedTimer() {
  if (registry_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  registry_->record_timer(
      name_, static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
}

std::uint64_t& MetricsRegistry::counter_entry(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(std::string(name), 0).first;
  return it->second;
}

double& MetricsRegistry::gauge_entry(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.emplace(std::string(name), 0.0).first;
  return it->second;
}

void MetricsRegistry::window_gauge(std::string_view name, double value) {
  if (const auto it = window_gauge_last_.find(name); it != window_gauge_last_.end()) {
    it->second = value;
  } else {
    window_gauge_last_.emplace(std::string(name), value);
  }
  if (const auto it = window_gauge_max_.find(name); it != window_gauge_max_.end()) {
    if (value > it->second) it->second = value;
  } else {
    window_gauge_max_.emplace(std::string(name), value);
  }
}

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
  counter_entry(name) += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  gauge_entry(name) = value;
  if (window_open_) window_gauge(name, value);
}

void MetricsRegistry::begin_windows(std::uint64_t window_len) {
  window_len_ = window_len;
}

void MetricsRegistry::open_window(std::uint64_t logical_index) {
  window_open_ = true;
  window_ordinal_ = logical_index / window_len_;
  window_first_tick_ = logical_index;
  window_last_tick_ = logical_index;
  window_snapshot_ = counters_;
  window_gauge_last_.clear();
  window_gauge_max_.clear();
}

MetricsWindow MetricsRegistry::current_window() const {
  MetricsWindow w;
  w.first_tick = window_first_tick_;
  w.last_tick = window_last_tick_;
  for (const auto& [name, value] : counters_) {
    const auto it = window_snapshot_.find(name);
    const std::uint64_t before = it == window_snapshot_.end() ? 0 : it->second;
    if (value != before) w.counter_deltas.emplace(name, value - before);
  }
  w.gauge_last.insert(window_gauge_last_.begin(), window_gauge_last_.end());
  w.gauge_max.insert(window_gauge_max_.begin(), window_gauge_max_.end());
  return w;
}

void MetricsRegistry::window_tick(std::uint64_t logical_index) {
  if (window_len_ == 0) return;
  if (!window_open_) {
    open_window(logical_index);
    return;
  }
  const std::uint64_t ordinal = logical_index / window_len_;
  if (ordinal == window_ordinal_) {
    window_last_tick_ = logical_index;
    return;
  }
  windows_.push_back(current_window());
  open_window(logical_index);
}

void MetricsRegistry::flush_windows() {
  if (!window_open_) return;
  windows_.push_back(current_window());
  window_open_ = false;
}

std::vector<MetricsWindow> MetricsRegistry::collect_windows() const {
  std::vector<MetricsWindow> out = windows_;
  if (window_open_) out.push_back(current_window());
  return out;
}

void MetricsRegistry::record_timer(std::string_view name, std::uint64_t elapsed_ns) {
  auto it = timers_.find(name);
  if (it == timers_.end()) it = timers_.emplace(std::string(name), TimerStat{}).first;
  TimerStat& t = it->second;
  t.count++;
  t.total_ns += elapsed_ns;
  if (elapsed_ns > t.max_ns) t.max_ns = elapsed_ns;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) add_counter(name, value);
  for (const auto& [name, value] : other.gauges_) set_gauge(name, value);
  for (const auto& [name, stat] : other.timers_) {
    auto it = timers_.find(name);
    if (it == timers_.end()) it = timers_.emplace(name, TimerStat{}).first;
    it->second.count += stat.count;
    it->second.total_ns += stat.total_ns;
    if (stat.max_ns > it->second.max_ns) it->second.max_ns = stat.max_ns;
  }
  // Shard windows append after this registry's own (task order: the
  // caller folds shards in ascending task index).
  const auto theirs = other.collect_windows();
  windows_.insert(windows_.end(), theirs.begin(), theirs.end());
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

JsonObject MetricsRegistry::deterministic_json() const {
  JsonObject counters;
  for (const auto& [name, value] : counters_) counters[name] = value;
  JsonObject gauges;
  for (const auto& [name, value] : gauges_) gauges[name] = value;
  JsonObject out;
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  return out;
}

Table MetricsRegistry::to_table() const {
  Table table({"metric", "kind", "value"});
  for (const auto& [name, value] : counters_)
    table.add_row({name, "counter", std::to_string(value)});
  for (const auto& [name, value] : gauges_)
    table.add_row({name, "gauge", fmt(value, 3)});
  for (const auto& [name, t] : timers_)
    table.add_row({name, "timer",
                   fmt(static_cast<double>(t.total_ns) / 1e6, 3) + " ms / " +
                       std::to_string(t.count) + " calls (max " +
                       fmt(static_cast<double>(t.max_ns) / 1e6, 3) + " ms)"});
  return table;
}

}  // namespace dmra::obs
