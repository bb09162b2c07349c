// Per-layer measurements of the traced runs: direct, span-wrapped calls to
// the lp and mip layers' public functions, and the tracing overhead.

#include <cmath>
#include <string>

#include "insched/lp/crash.hpp"
#include "insched/lp/presolve.hpp"
#include "insched/lp/simplex.hpp"
#include "insched/mip/cuts.hpp"
#include "insched/mip/heuristics.hpp"
#include "insched/mip/probing.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

double ms_of(const char* span) { return mean_self_us(span) / 1e3; }

double ratio(long part, long whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

}  // namespace

void probe_solver_layers(const std::vector<const insched::lp::Model*>& models,
                         const insched::mip::MipOptions& options,
                         const std::vector<char>& dive, MipTotals& totals,
                         std::vector<std::vector<double>>* incumbents) {
  namespace lp = insched::lp;
  namespace mip = insched::mip;
  for (std::size_t k = 0; k < models.size(); ++k) {
    const lp::Model* model = models[k];
    {
      ScopedSpan span("lp.presolve");
      const lp::PresolveResult reduced = lp::presolve(*model);
      (void)reduced;
    }
    {
      // The solver's crash start: greedy_fill's point, then a basis over it.
      ScopedSpan span("lp.crash");
      std::vector<double> x(static_cast<std::size_t>(model->num_columns()), 0.0);
      mip::greedy_fill(*model, &x);
      const lp::CrashResult crash = lp::crash_basis(*model, x);
      (void)crash;
    }
    lp::SimplexOptions lp_options = options.lp;
    lp_options.collect_basis = true;
    lp::SimplexResult root;
    {
      ScopedSpan span("lp.root_lp");
      root = lp::solve_lp(*model, lp_options);
    }
    totals.root_lp_iterations += root.iterations;
    mip::ProbingResult probing;
    {
      ScopedSpan span("mip.probing");
      probing = mip::probe_binaries(*model);
    }
    if (root.optimal()) {
      ScopedSpan span("mip.cuts");
      std::size_t cuts = mip::generate_cover_cuts(*model, root.x).size();
      mip::ConflictGraph conflicts(model->num_columns());
      conflicts.build(*model, probing.implications);
      cuts += mip::generate_clique_cuts(*model, root.x, conflicts).size();
      cuts += mip::generate_mir_cuts(*model, root.x).size();
      cuts += mip::generate_gomory_cuts(*model, root.x, root.basis, root.factor.get()).size();
      (void)cuts;
    }
    if (dive[k] && root.optimal()) {
      ScopedSpan span("mip.dive");
      const auto point = mip::dive(*model, root.x, options.lp, options.int_tol);
      (void)point;
    }
    mip::MipResult res;
    {
      ScopedSpan span("mip.solve");
      res = mip::solve_mip(*model, options);
    }
    if (incumbents != nullptr) incumbents->push_back(res.x);
    ++totals.solves;
    totals.nodes += res.nodes;
    totals.lp_iterations += res.lp_iterations;
    const mip::MipCounters& c = res.counters;
    mip::MipCounters& t = totals.counters;
    t.lp_ftran += c.lp_ftran;
    t.lp_btran += c.lp_btran;
    t.lp_refactorizations += c.lp_refactorizations;
    t.lp_eta_pivots += c.lp_eta_pivots;
    t.strong_branch_lps += c.strong_branch_lps;
    t.lp_lu_input_nnz += c.lp_lu_input_nnz;
    t.lp_lu_factor_nnz += c.lp_lu_factor_nnz;
    t.cuts_separated += c.cuts_separated;
    t.cuts_applied += c.cuts_applied;
    t.warm_solves += c.warm_solves;
    t.cold_solves += c.cold_solves;
  }
}

void add_solver_metrics(Outcome& out, const MipTotals& totals) {
  const auto per_solve = [&totals](long v) {
    return totals.solves > 0 ? static_cast<double>(v) / static_cast<double>(totals.solves)
                             : 0.0;
  };
  const insched::mip::MipCounters& c = totals.counters;
  out.add("lp.presolve_ms", ms_of("lp.presolve"), "ms");
  out.add("lp.crash_ms", ms_of("lp.crash"), "ms");
  out.add("lp.root_lp_ms", ms_of("lp.root_lp"), "ms");
  out.add("lp.root_lp_iterations", per_solve(totals.root_lp_iterations), "count");
  out.add("mip.probing_ms", ms_of("mip.probing"), "ms");
  out.add("mip.cuts_ms", ms_of("mip.cuts"), "ms");
  out.add("mip.dive_ms", ms_of("mip.dive"), "ms");
  out.add("mip.solve_ms", ms_of("mip.solve"), "ms");
  out.add("mip.nodes", per_solve(totals.nodes), "count");
  // As the program reports it: the root dive's pivots are not included.
  out.add("mip.lp_iterations", per_solve(totals.lp_iterations), "count");
  out.add("mip.lp_ftran", per_solve(c.lp_ftran), "count");
  out.add("mip.lp_btran", per_solve(c.lp_btran), "count");
  out.add("mip.lp_refactorizations", per_solve(c.lp_refactorizations), "count");
  out.add("mip.lp_eta_pivots", per_solve(c.lp_eta_pivots), "count");
  out.add("mip.strong_branch_lps", per_solve(c.strong_branch_lps), "count");
  out.add("mip.lp_fill_ratio", c.lp_fill_ratio(), "ratio");
  out.add("mip.cut_yield", ratio(c.cuts_applied, c.cuts_separated), "ratio");
  out.add("mip.cuts_separated", per_solve(c.cuts_separated), "count");
  out.add("mip.warm_rate", ratio(c.warm_solves, c.warm_solves + c.cold_solves), "ratio");
  out.add("mip.node_lps", per_solve(c.warm_solves + c.cold_solves), "count");
}

void add_trace_metrics(Outcome& out, const BestTimes& traced, const BestTimes& untraced) {
  double traced_seconds = 0.0, untraced_seconds = 0.0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (!std::isfinite(traced.best(i)) || !std::isfinite(untraced.best(i))) continue;
    traced_seconds += traced.best(i);
    untraced_seconds += untraced.best(i);
  }
  out.add("trace.overhead_pct",
          untraced_seconds > 0 ? 100.0 * (traced_seconds - untraced_seconds) / untraced_seconds
                               : 0.0,
          "%");
  out.add("trace.spans", static_cast<double>(tracer().size()), "count");
  out.add("process.threads", static_cast<double>(thread_count()), "count");
}

}  // namespace perfbench
