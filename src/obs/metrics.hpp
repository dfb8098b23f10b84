// Counters, gauges, and scoped wall-clock timers for the observability
// layer (obs/recorder.hpp owns one registry per recording session).
//
// Counters and gauges are deterministic per seed and are embedded in the
// Chrome trace export; timers measure real time and are deliberately kept
// OUT of the golden-testable surface — they render only in the
// human-readable summary table.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/table.hpp"

namespace dmra::obs {

/// Accumulated wall time of one named scope.
struct TimerStat {
  std::uint64_t count = 0;     ///< completed scopes
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

/// One closed fixed-window rollup (begin_windows/window_tick): what the
/// registry's counters and gauges did over a span of logical ticks
/// (rounds or event indices — never wall clock, so a seeded run yields
/// byte-identical series). Counter deltas keep only the counters that
/// moved; gauges record the last value set and the in-window maximum.
struct MetricsWindow {
  std::uint64_t first_tick = 0;  ///< first logical index observed
  std::uint64_t last_tick = 0;   ///< last logical index observed
  std::map<std::string, std::uint64_t> counter_deltas;
  std::map<std::string, double> gauge_last;
  std::map<std::string, double> gauge_max;
};

class MetricsRegistry;

/// An interned counter of one registry: the first add() finds or creates
/// the named entry, later ones update it in place (std::map nodes never
/// move), so a per-event site pays no name lookup. A handle that is never
/// used leaves no entry, like a name that is never added to. The registry
/// and the name must outlive the handle; a handle built on a null
/// registry must not be used.
class CounterHandle {
 public:
  CounterHandle(MetricsRegistry* registry, std::string_view name)
      : registry_(registry), name_(name) {}
  void add(std::uint64_t delta = 1);

 private:
  MetricsRegistry* registry_;
  std::string_view name_;
  std::uint64_t* value_ = nullptr;  // the entry, once resolved
};

/// An interned gauge: set() writes the entry in place after its first
/// use and, while a window is open, updates the window's last/max like
/// MetricsRegistry::set_gauge.
class GaugeHandle {
 public:
  GaugeHandle(MetricsRegistry* registry, std::string_view name)
      : registry_(registry), name_(name) {}
  void set(double value);

 private:
  MetricsRegistry* registry_;
  std::string_view name_;
  double* value_ = nullptr;
};

/// RAII wall-clock scope feeding a named TimerStat on destruction.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, std::string name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  MetricsRegistry* registry_;  // nullptr = disabled scope, records nothing
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

/// Named counters (monotonic uint64), gauges (last-set double), and
/// timers. Names are created on first use; std::map keeps every export
/// deterministically ordered. A site that updates one name per event
/// holds a CounterHandle or GaugeHandle instead of passing the name.
class MetricsRegistry {
 public:
  void add_counter(std::string_view name, std::uint64_t delta = 1);
  void set_gauge(std::string_view name, double value);
  void record_timer(std::string_view name, std::uint64_t elapsed_ns);

  /// Timed scope: `auto t = registry.scoped_timer("experiment.sweep");`
  ScopedTimer scoped_timer(std::string name) { return {this, std::move(name)}; }

  /// Fold another registry into this one: counters add, gauges take the
  /// other's (last-write) value, timers accumulate count/total and keep
  /// the larger max. Deterministic given a deterministic merge order —
  /// the shard merge (obs/shard.hpp) folds shards in task order.
  void merge_from(const MetricsRegistry& other);

  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  const std::map<std::string, TimerStat, std::less<>>& timers() const { return timers_; }

  bool empty() const { return counters_.empty() && gauges_.empty() && timers_.empty(); }

  /// Arm fixed-window rollups: every window_tick() with a logical index
  /// in a new length-`window_len` span closes the open window (counter
  /// deltas vs the span's start, gauge last/max) and opens the next.
  /// Off by default — unarmed, window_tick() is a single branch and the
  /// registry stays on the zero-allocation path. `window_len` = 0 is a
  /// no-op. Ticks that regress (a new run restarting its round count)
  /// also close the window: window ordinals change, they never merge.
  void begin_windows(std::uint64_t window_len);
  bool windows_armed() const { return window_len_ != 0; }
  std::uint64_t window_len() const { return window_len_; }
  void window_tick(std::uint64_t logical_index);
  /// Close the trailing partial window, if one is open.
  void flush_windows();
  const std::vector<MetricsWindow>& windows() const { return windows_; }
  /// Closed windows plus a virtual close of the open one — what a reader
  /// at this instant should see. Does not mutate (absorb-safe).
  std::vector<MetricsWindow> collect_windows() const;

  /// Deterministic (counters + gauges only; timers excluded on purpose).
  JsonObject deterministic_json() const;

  /// Everything, for human eyes: "name | kind | value" rows.
  Table to_table() const;

 private:
  friend class CounterHandle;
  friend class GaugeHandle;

  MetricsWindow current_window() const;
  void open_window(std::uint64_t logical_index);
  /// The entry of `name`, created at zero on first use.
  std::uint64_t& counter_entry(std::string_view name);
  double& gauge_entry(std::string_view name);
  /// The open window's last/max bookkeeping for one gauge write; it
  /// allocates only the first time a name is written in a window.
  void window_gauge(std::string_view name, double value);

  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, TimerStat, std::less<>> timers_;

  // Windowing state: armed by begin_windows; the snapshot holds counter
  // values at the open of the current window.
  std::uint64_t window_len_ = 0;
  bool window_open_ = false;
  std::uint64_t window_ordinal_ = 0;
  std::uint64_t window_first_tick_ = 0;
  std::uint64_t window_last_tick_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> window_snapshot_;
  std::map<std::string, double, std::less<>> window_gauge_last_;
  std::map<std::string, double, std::less<>> window_gauge_max_;
  std::vector<MetricsWindow> windows_;
};

inline void CounterHandle::add(std::uint64_t delta) {
  if (value_ == nullptr) value_ = &registry_->counter_entry(name_);
  *value_ += delta;
}

inline void GaugeHandle::set(double value) {
  if (value_ == nullptr) value_ = &registry_->gauge_entry(name_);
  *value_ = value;
  if (registry_->window_open_) registry_->window_gauge(name_, value);
}

}  // namespace dmra::obs
