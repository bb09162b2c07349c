#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct XorShift {
  std::uint64_t s = 88172645463325252ULL;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// A single random cycle through `n` slots (Sattolo's shuffle, in place);
/// walking it is one dependent load after another, so its time is the
/// latency of the level of the memory hierarchy the `n` slots fit in.
std::vector<std::uint32_t> random_cycle(std::size_t n, XorShift& rng) {
  std::vector<std::uint32_t> next(n);
  std::iota(next.begin(), next.end(), 0U);
  for (std::size_t i = n - 1; i > 0; --i) std::swap(next[i], next[rng.next() % i]);
  return next;
}

std::uint32_t walk(const std::vector<std::uint32_t>& next, long steps) {
  std::uint32_t at = 0;
  for (long i = 0; i < steps; ++i) at = next[at];
  return at;
}

}  // namespace

/// The mix, chosen because together its parts slowed with the solver on
/// this host (per 30 s window, the solver's best time moved 12 %, its ratio
/// to this mix's 3 %): pointer walks within L2, L3 and beyond, a chain of
/// dependent floating-point operations, a sort, and a sparse mat-vec.
struct Reference::Work {
  std::vector<std::uint32_t> l2, l3, dram;
  std::vector<std::uint32_t> keys, scratch;
  std::vector<int> row_start, col;
  std::vector<double> val, x, y;
  double sink = 0.0;

  Work() {
    XorShift rng;
    l2 = random_cycle(std::size_t{1} << 15, rng);
    l3 = random_cycle(std::size_t{1} << 19, rng);
    dram = random_cycle(std::size_t{1} << 21, rng);
    keys.resize(50000);
    for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(rng.next());
    const int rows = 60000;
    row_start.push_back(0);
    for (int i = 0; i < rows; ++i) {
      for (int k = 0; k < 6; ++k) {
        col.push_back(static_cast<int>(rng.next() % rows));
        val.push_back(static_cast<double>(rng.next() % 1000) / 1000.0);
      }
      row_start.push_back(static_cast<int>(col.size()));
    }
    x.assign(rows, 1.0);
    y.assign(rows, 0.0);
  }

  void run() {
    double acc = walk(l2, 1000000) + walk(l3, 150000) + walk(dram, 60000);
    double chain = 1.0;
    for (int i = 0; i < 1500000; ++i) chain = chain * 0.9999999 + 1e-9;
    acc += chain;
    scratch = keys;
    std::sort(scratch.begin(), scratch.end());
    acc += scratch[scratch.size() / 2];
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i + 1 < row_start.size(); ++i) {
        double t = 0.0;
        for (int k = row_start[i]; k < row_start[i + 1]; ++k) t += val[k] * x[col[k]];
        y[i] = t;
      }
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.5 * x[i] + 0.5 * y[i] / (1.0 + y[i]);
    }
    sink += acc + x[7];
  }
};

Reference::Reference() = default;
Reference::~Reference() = default;

void Reference::run_once() {
  if (!work_) work_ = std::make_unique<Work>();
  const double start = now_seconds();
  work_->run();
  last_end_ = now_seconds();
  const double took = last_end_ - start;
  if (runs_ == 0) first_ = took;
  if (runs_ == 0 || took < best_) best_ = took;
  ++runs_;
}

void Reference::maybe_run() {
  if (last_end_ < 0.0 || now_seconds() - last_end_ >= kIntervalSeconds) run_once();
}

void Reference::run_until(int n) {
  while (runs_ < n) run_once();
}

double Reference::factor() const { return best_ > 0.0 ? kNominalSeconds / best_ : 1.0; }

double Reference::first_factor() const {
  return first_ > 0.0 ? kNominalSeconds / first_ : 1.0;
}

Reference& reference() {
  static Reference r;
  return r;
}

}  // namespace perfbench
