#pragma once

#include <vector>

#include "bench.hpp"
#include "insched/lp/model.hpp"
#include "insched/mip/branch_and_bound.hpp"

namespace perfbench {

Outcome run_plan(const RunConfig& config);
Outcome run_serve(const RunConfig& config);
Outcome run_replay(const RunConfig& config);

/// MIP counters summed over the solves the traced run made directly.
struct MipTotals {
  long solves = 0;
  long root_lp_iterations = 0;
  long nodes = 0;
  long lp_iterations = 0;
  insched::mip::MipCounters counters;
};

/// Times each lp/mip layer on `models` through its public function (spans
/// lp.presolve, lp.crash, lp.root_lp, mip.probing, mip.cuts, mip.dive,
/// mip.solve) and sums the solver counters into `totals`. The cold dive
/// runs only on the models whose `dive` entry is set: from the root point
/// it takes from 0.1 s to over 30 s depending on the model. The incumbent
/// of each solve goes to `incumbents` when given.
void probe_solver_layers(const std::vector<const insched::lp::Model*>& models,
                         const insched::mip::MipOptions& options,
                         const std::vector<char>& dive, MipTotals& totals,
                         std::vector<std::vector<double>>* incumbents = nullptr);

/// Adds the solver-layer metrics from `totals` and the spans.
void add_solver_metrics(Outcome& out, const MipTotals& totals);

/// Tracing overhead (traced minus untraced end-to-end time, each the sum of
/// per-item best times over the items both timed, as a percentage of the
/// untraced one), the span count and the process's thread count.
void add_trace_metrics(Outcome& out, const BestTimes& traced, const BestTimes& untraced);

}  // namespace perfbench
