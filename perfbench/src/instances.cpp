#include "instances.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"

namespace perfbench {

using insched::scheduler::OutputPolicy;
using insched::scheduler::ThresholdKind;

ScheduleProblem staircase(ScheduleProblem p, long steps, double weight_scale) {
  p.steps = steps;
  p.mth = insched::scheduler::kNoLimit;
  for (auto& a : p.analyses) {
    a.itv = std::max<long>(1, steps / 20);
    a.weight *= weight_scale;
  }
  return p;
}

ScheduleProblem water(double threshold_fraction) {
  return insched::casestudy::water_ions_problem(16384, threshold_fraction);
}

ScheduleProblem rhodo() { return insched::casestudy::rhodopsin_problem(100.0); }

ScheduleProblem flash(double threshold_fraction) {
  return insched::casestudy::flash_problem({2.0, 1.0, 2.0}, threshold_fraction);
}

namespace {

void line(std::string& out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s = %.17g\n", key, value);
  out += buf;
}

const char* kind_text(ThresholdKind kind) {
  switch (kind) {
    case ThresholdKind::kFractionOfSimTime: return "fraction";
    case ThresholdKind::kTotalSeconds: return "total";
    case ThresholdKind::kPerStepSeconds: return "per_step";
  }
  return "fraction";
}

const char* policy_text(OutputPolicy policy) {
  switch (policy) {
    case OutputPolicy::kEveryAnalysis: return "every_analysis";
    case OutputPolicy::kOptimized: return "optimized";
    case OutputPolicy::kNone: return "none";
  }
  return "every_analysis";
}

}  // namespace

std::string to_ini(const ScheduleProblem& p) {
  std::string out = "[run]\n";
  out += "steps = " + std::to_string(p.steps) + "\n";
  line(out, "sim_time_per_step", p.sim_time_per_step);
  line(out, "threshold", p.threshold);
  out += std::string("threshold_kind = ") + kind_text(p.threshold_kind) + "\n";
  if (std::isfinite(p.mth)) line(out, "memory", p.mth);
  if (std::isfinite(p.bw)) line(out, "bandwidth", p.bw);
  out += std::string("output_policy = ") + policy_text(p.output_policy) + "\n";
  for (const auto& a : p.analyses) {
    out += "\n[analysis]\nname = " + a.name + "\n";
    line(out, "ft", a.ft);
    line(out, "it", a.it);
    line(out, "ct", a.ct);
    if (a.ot >= 0.0) line(out, "ot", a.ot);
    line(out, "fm", a.fm);
    line(out, "im", a.im);
    line(out, "cm", a.cm);
    line(out, "om", a.om);
    line(out, "weight", a.weight);
    out += "itv = " + std::to_string(a.itv) + "\n";
  }
  return out;
}

ScheduleProblem permute_and_rename(const ScheduleProblem& p, insched::Rng& rng) {
  std::vector<std::size_t> perm(p.analyses.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
  ScheduleProblem q = p;
  for (std::size_t k = 0; k < perm.size(); ++k) {
    q.analyses[k] = p.analyses[perm[k]];
    q.analyses[k].name = "alias" + std::to_string(rng.next_u64() % 100000) + "_" +
                         std::to_string(k);
  }
  return q;
}

}  // namespace perfbench
