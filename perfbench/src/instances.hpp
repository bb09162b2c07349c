#pragma once

// Inputs of the workloads, built in process from the paper's case studies
// and a seed.

#include <cstdint>
#include <string>
#include <vector>

#include "insched/scheduler/params.hpp"
#include "insched/support/random.hpp"

namespace perfbench {

using insched::scheduler::ScheduleProblem;

/// The steps-heavy time-expanded regime: `steps` simulation steps, no memory
/// limit, itv = steps / 20 (at most 20 analysis slots per analysis), weights
/// scaled by `weight_scale`.
ScheduleProblem staircase(ScheduleProblem p, long steps, double weight_scale);

/// Case-study instances. `water` takes the threshold fraction; `flash` its
/// threshold fraction (the weights are the paper's {2, 1, 2}).
ScheduleProblem water(double threshold_fraction);
ScheduleProblem rhodo();
ScheduleProblem flash(double threshold_fraction);

/// Planner-config text for `p`, written by the benchmark itself with every
/// number at full precision so the program parses back exactly `p`.
std::string to_ini(const ScheduleProblem& p);

/// Isomorph of `p`: analyses shuffled and renamed.
ScheduleProblem permute_and_rename(const ScheduleProblem& p, insched::Rng& rng);

}  // namespace perfbench
