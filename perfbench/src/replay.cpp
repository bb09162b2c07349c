// replay_sweep: the Eq 2-8 recurrence walks over a fixed corpus, with no
// LP or MIP work inside the timed region. The corpus is built during setup:
// the case studies on every machine preset of the scenario sweep plus a
// fixed range of fuzz_problem instances, each with its MILP schedule. The
// seed decides the jitter and the order of every pass.
//
// Tiers, per corpus entry: light = greedy_schedule; medium =
// validate_schedule + predicted_trajectory of the MILP and greedy
// schedules; heavy = replay_schedule with zero and with seeded jitter, plus
// virtual_execute.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "insched/replay/fuzz.hpp"
#include "insched/replay/replay.hpp"
#include "insched/replay/scenario.hpp"
#include "insched/runtime/virtual_exec.hpp"
#include "insched/scheduler/greedy.hpp"
#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/trajectory.hpp"
#include "insched/scheduler/validator.hpp"
#include "instances.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sched = insched::scheduler;
namespace replay = insched::replay;

namespace {

/// fuzz_problem seeds 1..kFuzzCases. The range is the same for every run:
/// on some fuzz instances the program's aggregate MILP claims an optimum
/// that a feasible greedy schedule beats (see the README), and such an
/// entry has to fail in every run, not on some seeds only.
constexpr int kFuzzCases = 500;
constexpr double kJitter = 0.05;

struct Case {
  std::string name;
  ScheduleProblem problem;
  sched::Schedule milp;
  double objective = 0.0;
  double bound = 0.0;
  bool proven = false;
  std::uint64_t jitter_seed = 1;
  double digest = NAN;  ///< outputs of the first, fully checked pass
  bool failed = false;  ///< the program's MILP answer failed its check
};

std::vector<Case> build_corpus(std::uint64_t seed) {
  std::vector<replay::ScenarioBase> bases = {
      {"water", water(0.08)}, {"rhodo", rhodo()}, {"flash", flash(0.08)}};
  std::vector<Case> corpus;
  for (const replay::Scenario& sc : replay::scenario_sweep(bases)) {
    Case c;
    c.name = sc.name;
    c.problem = sc.problem;
    corpus.push_back(std::move(c));
  }
  for (int k = 1; k <= kFuzzCases; ++k) {
    Case c;
    const auto s = static_cast<std::uint64_t>(k);
    c.name = "fuzz" + std::to_string(s);
    c.problem = replay::fuzz_problem(s);
    corpus.push_back(std::move(c));
  }
  // The program's own fuzzer caps its MILP solves the same way.
  sched::SolveOptions options;
  options.mip.threads = 1;
  options.mip.time_limit_s = replay::FuzzOptions{}.milp_time_limit_s;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    Case& c = corpus[i];
    // Every entry of the fixed corpus lints clean and solves; one that stops
    // doing so has no schedule to replay, and the run fails.
    if (sched::lint_problem(c.problem).has_errors())
      throw std::runtime_error(c.name + ": lint rejects the corpus entry");
    const sched::ScheduleSolution sol = sched::solve_schedule(c.problem, options);
    if (!sol.solved || sol.degraded)
      throw std::runtime_error(c.name + ": no MILP schedule for the corpus entry");
    c.milp = sol.schedule;
    c.objective = sol.objective;
    c.bound = sol.objective + sol.diagnostics.gap_abs;
    c.proven = sol.proven_optimal;
    c.jitter_seed = seed * 31 + i;
  }
  return corpus;
}

struct Outputs {
  sched::Schedule greedy;
  sched::ValidationReport milp_report, greedy_report;
  sched::Trajectory milp_trajectory, greedy_trajectory;
  replay::ReplayResult exact, jittered;
  insched::runtime::VirtualRunReport virtual_run;

  [[nodiscard]] double digest() const {
    double d = milp_report.total_analysis_time + milp_report.peak_memory +
               greedy_report.total_analysis_time + greedy_report.peak_memory +
               milp_trajectory.total_seconds + greedy_trajectory.total_seconds +
               exact.replayed.total_seconds + jittered.replayed.total_seconds +
               jittered.replayed.peak_memory + virtual_run.metrics.total_analysis_seconds() +
               static_cast<double>(exact.events + jittered.events);
    for (const auto& a : greedy.analyses()) d += static_cast<double>(a.analysis_count());
    return d;
  }
};

/// The independent checks of one entry's outputs; returns "" when good.
/// `sandwich` gets the bound check's verdict on the program's MILP answer:
/// when it fails, the entry's operation failed (the answer claims a bound
/// that a feasible schedule beats) and the other checks still run.
std::string check_case(const Case& c, const Outputs& o, std::string* sandwich) {
  const check::Walk milp = check::walk(c.problem, check::plain(c.milp));
  const check::Walk greedy = check::walk(c.problem, check::plain(o.greedy));
  std::string e = check::check_feasible(milp);
  if (e.empty()) e = check::check_feasible(greedy);
  if (e.empty()) e = check::check_objective(milp, c.objective);
  if (e.empty())
    *sandwich = check::check_sandwich(greedy.objective, c.objective, c.bound, c.proven);
  if (e.empty()) e = check::check_report(milp, o.milp_report.total_analysis_time,
                                         o.milp_report.peak_memory);
  if (e.empty()) e = check::check_report(greedy, o.greedy_report.total_analysis_time,
                                         o.greedy_report.peak_memory);
  if (e.empty() && (!o.milp_report.feasible || !o.greedy_report.feasible))
    e = "validate_schedule rejects a schedule the walk accepts";
  if (e.empty()) e = check::check_series("predicted cumulative time", milp.cumulative,
                                         o.milp_trajectory.cumulative_seconds);
  if (e.empty()) e = check::check_series("predicted memory", milp.memory_start,
                                         o.milp_trajectory.memory_start);
  if (e.empty()) e = check::check_series("predicted greedy time", greedy.cumulative,
                                         o.greedy_trajectory.cumulative_seconds);
  if (e.empty()) e = check::check_series("zero-jitter replay time",
                                         o.milp_trajectory.cumulative_seconds,
                                         o.exact.replayed.cumulative_seconds);
  if (e.empty()) e = check::check_series("zero-jitter replay memory",
                                         o.milp_trajectory.memory_start,
                                         o.exact.replayed.memory_start);
  if (e.empty() && o.exact.divergence.diverged) e = "zero-jitter replay diverged";
  if (e.empty() && !o.jittered.sound()) e = "jittered replay unsound";
  if (e.empty()) e = check::check_series("virtual_execute step time", milp.step_seconds,
                                         o.virtual_run.step_seconds);
  return e.empty() ? e : c.name + ": " + e;
}

}  // namespace

Outcome run_replay(const RunConfig& config) {
  Outcome out;
  std::vector<Case> corpus = build_corpus(config.seed);
  out.setup_seconds = setup_seconds_since_spawn(config);

  const std::size_t n = corpus.size();
  // Item i of the corpus is timed as items i (light), n + i (medium) and
  // 2n + i (heavy).
  BestTimes times(3 * n), traced_times(3 * n);
  std::vector<std::vector<std::size_t>> tiers(3);
  for (std::size_t t = 0; t < 3; ++t)
    for (std::size_t i = 0; i < n; ++i) tiers[t].push_back(t * n + i);
  long events = 0;
  replay::ReplayOptions exact_options;
  const insched::runtime::VirtualExecConfig virtual_config{};
  PassClock clock(config.seconds, /*min_passes=*/3);
  while (clock.next()) {
    const bool traced = config.trace && clock.passes() % 2 == 0 && !tracer().full();
    tracer().enabled = traced;
    for (const std::size_t i :
         seeded_order(n, config.seed * 7919 + static_cast<std::uint64_t>(clock.passes()))) {
      Case& c = corpus[i];
      reference().maybe_run();
      Outputs o;
      const long request = static_cast<long>(i);
      Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span("scheduler.greedy", request);
        o.greedy = sched::greedy_schedule(c.problem);
      }
      const double t_light = seconds_since(t0);
      t0 = Clock::now();
      {
        ScopedSpan span("scheduler.validate", request);
        o.milp_report = sched::validate_schedule(c.problem, c.milp);
        o.greedy_report = sched::validate_schedule(c.problem, o.greedy);
      }
      {
        ScopedSpan span("scheduler.trajectory", request);
        o.milp_trajectory = sched::predicted_trajectory(c.problem, c.milp);
        o.greedy_trajectory = sched::predicted_trajectory(c.problem, o.greedy);
      }
      const double t_medium = seconds_since(t0);
      t0 = Clock::now();
      {
        ScopedSpan span("replay", request);
        o.exact = replay::replay_schedule(c.problem, c.milp, exact_options);
      }
      {
        replay::ReplayOptions jitter;
        jitter.seed = c.jitter_seed;
        jitter.time_jitter = kJitter;
        jitter.memory_jitter = kJitter;
        ScopedSpan span("replay", request);
        o.jittered = replay::replay_schedule(c.problem, c.milp, jitter);
      }
      {
        ScopedSpan span("runtime.virtual_exec", request);
        o.virtual_run = insched::runtime::virtual_execute(c.problem, c.milp, virtual_config);
      }
      const double t_heavy = seconds_since(t0);
      const bool was = tracer().enabled;
      tracer().enabled = false;
      ++out.attempted;
      BestTimes& record = traced ? traced_times : times;
      record.record(i, t_light);
      record.record(n + i, t_medium);
      record.record(2 * n + i, t_heavy);
      events += o.exact.events + o.jittered.events;
      // Every output is checked independently once; later passes must
      // reproduce the checked outputs exactly.
      const double digest = o.digest();
      if (std::isnan(c.digest)) {
        std::string sandwich;
        const std::string e = check_case(c, o, &sandwich);
        if (!e.empty()) out.fail_check(e);
        if (!sandwich.empty()) {
          c.failed = true;
          std::fprintf(stderr, "replay_sweep %s failed: %s\n", c.name.c_str(),
                       sandwich.c_str());
        }
        c.digest = digest;
      } else if (digest != c.digest) {
        out.fail_check(c.name + ": outputs differ from the checked pass");
      }
      if (c.failed) ++out.failed;
      tracer().enabled = was;
    }
  }
  tracer().enabled = false;

  if (!config.trace) {
    add_tier_metrics(out, "replay_sweep", times, tiers, clock.passes());
    return out;
  }
  add_layer_time(out, "scheduler.greedy_us", "scheduler.greedy", "us");
  add_layer_time(out, "scheduler.validate_us", "scheduler.validate", "us");
  add_layer_time(out, "scheduler.trajectory_us", "scheduler.trajectory", "us");
  add_layer_time(out, "replay.us", "replay", "us");
  add_layer_time(out, "runtime.virtual_exec_us", "runtime.virtual_exec", "us");
  const Tracer::LayerTotals replays = tracer().totals("replay");
  const long replay_calls = 2 * out.attempted;
  out.add("replay.events",
          replay_calls > 0 ? static_cast<double>(events) / static_cast<double>(replay_calls) : 0.0,
          "count");
  // Rate over the traced replays only (their self time is what was timed).
  const double traced_events = replays.count > 0 ? static_cast<double>(events) *
                                                       static_cast<double>(replays.count) /
                                                       static_cast<double>(replay_calls)
                                                 : 0.0;
  out.add("replay.events_per_s",
          replays.self_us > 0 ? traced_events / (replays.self_us / 1e6) : 0.0, "1/s");
  add_trace_metrics(out, traced_times, times);
  return out;
}

}  // namespace perfbench
