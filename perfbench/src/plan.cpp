// plan_staircase: the insched_plan path on the case-study staircase MILPs.
// Each operation takes INI bytes through problem_from_string, lint_problem,
// solve_schedule (time-expanded, one tree-search thread) and
// solution_to_json, and the bytes that come out are checked apart from the
// program.
//
// Tiers: light = root-closed (weight-scaled steps=500, optima 63/78/150),
// medium = dive-bound (unscaled water and flash at steps=500), heavy =
// rhodo at steps=2000 (closed at the root).

#include <cmath>
#include <string>
#include <vector>

#include "check.hpp"
#include "insched/scheduler/greedy.hpp"
#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/problem_io.hpp"
#include "insched/scheduler/serialize.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/scheduler/validator.hpp"
#include "instances.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sched = insched::scheduler;

namespace {

struct PlanItem {
  std::string name;
  int tier = 0;  ///< 0 light, 1 medium, 2 heavy
  ScheduleProblem problem;
  std::string ini;
  sched::SolveOptions options;
  double known_optimum = NAN;  ///< NaN: not pinned
  double greedy = NAN;         ///< greedy objective (filled on first check)
};

std::vector<PlanItem> plan_items() {
  sched::SolveOptions options;
  options.formulation = sched::Formulation::kTimeExpanded;
  options.mip.threads = 1;
  std::vector<PlanItem> items = {
      {"water500", 0, staircase(water(0.08), 500, 1.0), "", options, 63.0},
      {"rhodo500", 0, staircase(rhodo(), 500, 3.0), "", options, 78.0},
      {"flash500", 0, staircase(flash(0.08), 500, 3.0), "", options, 150.0},
      {"water500_unscaled", 1, staircase(water(0.10), 500, 1.0), "", options},
      {"flash500_unscaled", 1, staircase(flash(0.05), 500, 1.0), "", options},
      {"rhodo2000", 2, staircase(rhodo(), 2000, 3.0), "", options},
  };
  for (PlanItem& item : items) item.ini = to_ini(item.problem);
  return items;
}

struct PlanOutput {
  std::string json;
  double bound = 0.0;
  bool ok = false;
};

/// One operation: INI bytes in, solution JSON bytes out.
PlanOutput plan_once(const PlanItem& item, long request) {
  ScopedSpan op("plan.request", request);
  PlanOutput out;
  sched::ScheduleProblem problem;
  {
    ScopedSpan span("io.parse", request);
    problem = sched::problem_from_string(item.ini);
  }
  {
    ScopedSpan span("lint.problem", request);
    if (sched::lint_problem(problem).has_errors()) return out;
  }
  sched::ScheduleSolution solution;
  {
    ScopedSpan span("scheduler.solve", request);
    solution = sched::solve_schedule(problem, item.options);
  }
  {
    ScopedSpan span("scheduler.encode", request);
    out.json = sched::solution_to_json(solution);
  }
  out.bound = solution.objective + solution.diagnostics.gap_abs;
  out.ok = solution.solved && !solution.degraded;
  return out;
}

std::string check_plan_output(PlanItem& item, const PlanOutput& output) {
  if (std::isnan(item.greedy)) {
    const check::Walk g = check::walk(item.problem, check::plain(sched::greedy_schedule(item.problem)));
    if (!g.feasible()) return item.name + ": greedy " + check::check_feasible(g);
    item.greedy = g.objective;
  }
  double objective = 0.0;
  bool proven = false;
  std::string e = check::check_solution_json(item.problem, output.json, &objective, &proven);
  if (e.empty()) e = check::check_sandwich(item.greedy, objective, output.bound, proven);
  if (e.empty() && !std::isnan(item.known_optimum))
    e = check::check_same_objective("known optimum", item.known_optimum, objective);
  return e.empty() ? e : item.name + ": " + e;
}

}  // namespace

Outcome run_plan(const RunConfig& config) {
  Outcome out;
  std::vector<PlanItem> items = plan_items();
  out.setup_seconds = setup_seconds_since_spawn(config);

  const std::size_t n = items.size();
  BestTimes plain_times(n), traced_times(n);
  std::vector<std::vector<std::size_t>> tiers(3);
  for (std::size_t i = 0; i < n; ++i) tiers[static_cast<std::size_t>(items[i].tier)].push_back(i);

  MipTotals solver;
  if (config.trace) {
    // Direct layer calls on the light and medium models (the heavy ones
    // would take most of a run on their own).
    tracer().enabled = true;
    std::vector<sched::TimeExpandedModel> built;
    for (const PlanItem& item : items) {
      if (item.tier == 2) continue;
      ScopedSpan span("scheduler.build");
      built.push_back(sched::build_time_expanded_milp(item.problem));
    }
    std::vector<const insched::lp::Model*> models;
    for (const auto& b : built) models.push_back(&b.model);
    // The cold dive on the water models only (0.1 s and about 9 s); on rhodo
    // and flash it takes 4 to 34 s.
    std::vector<char> dive;
    for (std::size_t k = 0; k < built.size(); ++k)
      dive.push_back(items[k].name.rfind("water", 0) == 0 ? 1 : 0);
    std::vector<std::vector<double>> points;
    probe_solver_layers(models, items.front().options.mip, dive, solver, &points);
    for (std::size_t k = 0; k < built.size(); ++k) {
      sched::Schedule decoded;
      {
        ScopedSpan span("scheduler.decode");
        decoded = sched::decode_time_expanded(items[k].problem, built[k], points[k]);
      }
      ScopedSpan span("scheduler.validate");
      const sched::ValidationReport report = sched::validate_schedule(items[k].problem, decoded);
      if (!report.feasible) out.fail_check(items[k].name + ": decoded MILP point infeasible");
    }
    tracer().enabled = false;
  }

  // A pass runs every medium and heavy item once, in a seeded order, with a
  // round of the light items (in a seeded order too) before each of them and
  // after the last: the light items, 50 ms each, take about a quarter of
  // their best times' samples, and a best time needs many samples on a host
  // that is slow in stretches of seconds. Short passes spread every item's
  // samples over the whole run.
  std::vector<std::size_t> long_items = tiers[1];
  long_items.insert(long_items.end(), tiers[2].begin(), tiers[2].end());
  PassClock clock(config.seconds, /*min_passes=*/2);
  long request = 0;
  while (clock.next()) {
    // Traced and untraced passes alternate.
    const bool traced = config.trace && clock.passes() % 2 == 0 && !tracer().full();
    tracer().enabled = traced;
    const std::uint64_t pass_seed = config.seed * 7919 + static_cast<std::uint64_t>(clock.passes());
    std::vector<std::size_t> sequence;
    const auto light_round = [&](std::uint64_t k) {
      for (const std::size_t r : seeded_order(tiers[0].size(), pass_seed * 31 + k))
        sequence.push_back(tiers[0][r]);
    };
    const std::vector<std::size_t> order = seeded_order(long_items.size(), pass_seed);
    for (std::size_t k = 0; k < order.size(); ++k) {
      light_round(k);
      sequence.push_back(long_items[order[k]]);
    }
    light_round(order.size());
    for (const std::size_t i : sequence) {
      reference().maybe_run();
      const Clock::time_point t0 = Clock::now();
      const PlanOutput output = plan_once(items[i], ++request);
      const double dt = seconds_since(t0);
      ++out.attempted;
      if (!output.ok) {
        ++out.failed;
        continue;
      }
      (traced ? traced_times : plain_times).record(i, dt);
      const bool was = tracer().enabled;
      tracer().enabled = false;
      const std::string e = check_plan_output(items[i], output);
      tracer().enabled = was;
      if (!e.empty()) out.fail_check(e);
    }
  }
  tracer().enabled = false;

  // Metamorphic: a permuted, renamed root-closed instance solves to the same
  // objective.
  insched::Rng rng(config.seed);
  for (const std::size_t i : tiers[0]) {
    PlanItem copy = items[i];
    copy.problem = permute_and_rename(items[i].problem, rng);
    copy.ini = to_ini(copy.problem);
    copy.greedy = NAN;
    const PlanOutput output = plan_once(copy, 0);
    if (!output.ok) {
      out.fail_check(copy.name + ": permuted instance did not solve");
      continue;
    }
    const std::string e = check_plan_output(copy, output);
    if (!e.empty()) out.fail_check("permuted " + e);
  }

  if (!config.trace) {
    add_tier_metrics(out, "plan_staircase", plain_times, tiers, clock.passes());
    return out;
  }
  add_layer_time(out, "io.parse_us", "io.parse", "us");
  add_layer_time(out, "lint.problem_us", "lint.problem", "us");
  add_layer_time(out, "scheduler.build_ms", "scheduler.build", "ms");
  add_layer_time(out, "scheduler.decode_us", "scheduler.decode", "us");
  add_layer_time(out, "scheduler.validate_us", "scheduler.validate", "us");
  add_layer_time(out, "scheduler.encode_us", "scheduler.encode", "us");
  add_solver_metrics(out, solver);
  add_trace_metrics(out, traced_times, plain_times);
  return out;
}

}  // namespace perfbench
