#pragma once

// Host-speed reference: a fixed piece of work owned by the benchmark and
// built apart from the library, timed now and then during a run. The speed
// of the host this benchmark was made on drifts by 20-45 % for minutes at a
// time, and every workload slows with it. The reference slows the same way,
// so the ratio of a workload's best times to the reference's best time
// stays put while both drift; a change to the program moves only the
// workload's times.

#include <memory>

namespace perfbench {

class Reference {
 public:
  /// Best reference time of the host the figures are stated for. Every
  /// declared time is scaled by nominal / best, i.e. stated as it would read
  /// on a host where the reference takes this long.
  static constexpr double kNominalSeconds = 0.028;
  /// Least time between two reference runs.
  static constexpr double kIntervalSeconds = 0.5;

  Reference();
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Runs the reference when kIntervalSeconds have passed since the last
  /// run (or it never ran). Call it between timed operations only.
  void maybe_run();
  /// Runs the reference until it has run at least `n` times.
  void run_until(int n);

  [[nodiscard]] int runs() const { return runs_; }
  /// Fastest reference time so far, seconds (0 before the first run).
  [[nodiscard]] double best_seconds() const { return best_; }
  /// Time of the first run, seconds (0 before it).
  [[nodiscard]] double first_seconds() const { return first_; }
  /// kNominalSeconds / best_seconds(): the factor the workload's times are
  /// scaled by.
  [[nodiscard]] double factor() const;
  /// kNominalSeconds / first_seconds(): the factor the set-up time is
  /// scaled by. The set-up runs once, at the start of the process, so the
  /// reference run right after it (before the first timed operation) is the
  /// one that saw the host as the set-up did.
  [[nodiscard]] double first_factor() const;

 private:
  struct Work;
  void run_once();

  std::unique_ptr<Work> work_;
  int runs_ = 0;
  double best_ = 0.0;
  double first_ = 0.0;
  double last_end_ = -1.0;  ///< steady-clock seconds at the end of the last run
};

Reference& reference();

}  // namespace perfbench
