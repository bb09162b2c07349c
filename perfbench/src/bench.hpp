#pragma once

// Shared pieces of the end-to-end benchmark harness: the run configuration,
// the per-item best-time reduction, the metric report, and the span tracer
// used by the traced (per-layer) runs.

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall-clock seconds since the Unix epoch; comparable across processes, so
/// the launcher can hand the harness the moment it spawned it.
double epoch_seconds();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double spawn_epoch = 0.0;  ///< launcher's clock when it started this process
  std::string out_dir = ".bench_out";
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  ///< check failures (printed to stderr)
  std::vector<Metric> metrics;      ///< end-to-end or per-layer, by mode
  double setup_seconds = 0.0;

  void fail_check(std::string message) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(message));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Per-item fastest time over interleaved passes. Each item of a workload's
/// fixed set is timed once per pass; the reduction keeps every item's best
/// time, which a host whose speed drifts for seconds at a time cannot
/// inflate as long as some pass catches the item in a fast stretch. The
/// first kKept samples of each item are also kept for a median printed for
/// reference only.
class BestTimes {
 public:
  static constexpr std::size_t kKept = 64;

  explicit BestTimes(std::size_t items = 0)
      : best_(items, std::numeric_limits<double>::infinity()), kept_(items) {}

  void record(std::size_t item, double seconds) {
    if (seconds < best_[item]) best_[item] = seconds;
    if (kept_[item].size() < kKept) kept_[item].push_back(seconds);
  }
  [[nodiscard]] double best(std::size_t item) const { return best_[item]; }
  [[nodiscard]] std::size_t size() const { return best_.size(); }

  /// Mean over `items` of each item's best time (items never timed are
  /// skipped; returns 0 when none was).
  [[nodiscard]] double mean_best(const std::vector<std::size_t>& items) const;
  /// Median over the kept samples of `items` (reference only).
  [[nodiscard]] double median(const std::vector<std::size_t>& items) const;
  /// Samples kept for `items`.
  [[nodiscard]] std::size_t kept(const std::vector<std::size_t>& items) const;

 private:
  std::vector<double> best_;
  std::vector<std::vector<double>> kept_;
};

/// The three tiers a workload reports: light_ms, medium_ms, heavy_ms are the
/// means of per-item best times (main() scales them to the host's reference
/// speed). Also prints each tier's median and sample count to stderr, for
/// reference only.
void add_tier_metrics(Outcome& out, const char* workload, const BestTimes& times,
                      const std::vector<std::vector<std::size_t>>& tiers, int passes);

/// Runs passes until `seconds` of measuring time are used: a pass starts
/// only when the slowest pass so far would still end inside the window, and
/// at least `min_passes` run regardless.
class PassClock {
 public:
  PassClock(double seconds, int min_passes) : seconds_(seconds), min_passes_(min_passes) {}
  /// True when another pass should start; call once before each pass.
  bool next();
  [[nodiscard]] int passes() const { return passes_; }

 private:
  double seconds_;
  int min_passes_;
  int passes_ = 0;
  double slowest_ = 0.0;
  Clock::time_point start_ = Clock::now();
  Clock::time_point pass_start_ = start_;
};

// ---------------------------------------------------------------------------
// Span tracer. Spans live in memory while the run measures; the traced run
// writes them once at exit and reduces them to self time and count per name.

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  long request = 0;
};

class Tracer {
 public:
  /// Spans kept per run; past it open() records nothing (full() turns true)
  /// so a long traced run stays a few megabytes.
  static constexpr std::size_t kCapacity = 100000;

  bool enabled = false;

  int open(const char* name, long request);
  void close(int id);

  struct LayerTotals {
    long count = 0;
    double self_us = 0.0;
  };
  /// Self time (duration minus direct children) and count per span name.
  [[nodiscard]] LayerTotals totals(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] bool full() const { return spans_.size() >= kCapacity; }
  /// Writes one JSON line per span; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  Clock::time_point origin_ = Clock::now();
};

Tracer& tracer();

/// RAII span around one wrapped public call; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, long request = 0)
      : id_(tracer().enabled && !tracer().full() ? tracer().open(name, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Mean self time per span of `name`, in microseconds (0 when none ran).
double mean_self_us(const std::string& name);

/// Adds the tracer-derived layer time `span` as metric `metric`, scaled to
/// microseconds ("us") or milliseconds ("ms").
void add_layer_time(Outcome& out, const std::string& metric, const std::string& span,
                    const std::string& unit);

// ---------------------------------------------------------------------------
// Process facts.

double peak_rss_mb();
long thread_count();

/// Setup time: from the launcher's spawn of this process to now.
double setup_seconds_since_spawn(const RunConfig& config);

/// Shuffles [0, n) deterministically from `seed`.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
