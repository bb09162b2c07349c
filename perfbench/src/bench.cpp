#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "insched/support/random.hpp"

namespace perfbench {

double epoch_seconds() {
  return std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double BestTimes::mean_best(const std::vector<std::size_t>& items) const {
  double sum = 0.0;
  long n = 0;
  for (std::size_t i : items) {
    if (!std::isfinite(best_[i])) continue;
    sum += best_[i];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double BestTimes::median(const std::vector<std::size_t>& items) const {
  std::vector<double> v;
  for (std::size_t i : items) v.insert(v.end(), kept_[i].begin(), kept_[i].end());
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

std::size_t BestTimes::kept(const std::vector<std::size_t>& items) const {
  std::size_t n = 0;
  for (std::size_t i : items) n += kept_[i].size();
  return n;
}

void add_tier_metrics(Outcome& out, const char* workload, const BestTimes& times,
                      const std::vector<std::vector<std::size_t>>& tiers, int passes) {
  static const char* const kNames[] = {"light_ms", "medium_ms", "heavy_ms"};
  for (std::size_t t = 0; t < tiers.size() && t < 3; ++t) {
    const double best_ms = times.mean_best(tiers[t]) * 1e3;
    std::fprintf(stderr,
                 "%s %-9s %3zu items: raw mean of best %.6g ms; raw median %.6g ms over "
                 "%zu samples; %d passes\n",
                 workload, kNames[t], tiers[t].size(), best_ms, times.median(tiers[t]) * 1e3,
                 times.kept(tiers[t]), passes);
    out.add(kNames[t], best_ms, "ms");
  }
}

bool PassClock::next() {
  const Clock::time_point now = Clock::now();
  if (passes_ > 0) {
    slowest_ = std::max(slowest_, std::chrono::duration<double>(now - pass_start_).count());
  }
  const double elapsed = std::chrono::duration<double>(now - start_).count();
  if (passes_ >= min_passes_ && elapsed + slowest_ > seconds_) return false;
  pass_start_ = now;
  ++passes_;
  return true;
}

// ---------------------------------------------------------------------------

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

int Tracer::open(const char* name, long request) {
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

Tracer::LayerTotals Tracer::totals(const std::string& name) const {
  LayerTotals t;
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    const double d = s.end_us - s.start_us;
    ++t.count;
    t.self_us += d - child_us[i];
  }
  return t;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"request\":%ld}\n",
                 i, s.name, s.start_us, s.end_us, s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

double mean_self_us(const std::string& name) {
  const Tracer::LayerTotals t = tracer().totals(name);
  return t.count > 0 ? t.self_us / static_cast<double>(t.count) : 0.0;
}

void add_layer_time(Outcome& out, const std::string& metric, const std::string& span,
                    const std::string& unit) {
  const double us = mean_self_us(span);
  out.add(metric, unit == "ms" ? us / 1e3 : us, unit);
}

// ---------------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

long thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  return 0;
}

double setup_seconds_since_spawn(const RunConfig& config) {
  return epoch_seconds() - config.spawn_epoch;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  insched::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform_index(i)]);
  return order;
}

}  // namespace perfbench
