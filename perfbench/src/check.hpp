#pragma once

// Output checks written apart from the program: a small JSON reader of its
// own, a walk of the paper's Eqs 2-9 over a schedule read back from the
// program's output bytes, the objective recomputed from scratch, and the
// comparisons the workloads make against what the program reports. Nothing
// here calls validate_schedule, predicted_trajectory or the program's JSON
// scanners. Each check returns an empty string on success or one line
// saying what is wrong.

#include <map>
#include <string>
#include <vector>

#include "insched/scheduler/params.hpp"
#include "insched/scheduler/schedule.hpp"

namespace perfbench::check {

// --- JSON ------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  /// Field lookup; throws std::runtime_error when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const { return fields.count(key) > 0; }
};

/// Parses one JSON document; throws std::runtime_error on malformed input.
Json parse_json(const std::string& text);

// --- Schedules and the Eq 2-9 walk -----------------------------------------

struct Row {
  std::string name;
  std::vector<long> analysis;
  std::vector<long> output;
};

struct PlainSchedule {
  long steps = 0;
  std::vector<Row> rows;
};

/// Reads {"steps":..,"analyses":[{"name","analysis_steps","output_steps"}]}.
PlainSchedule schedule_from_json(const Json& schedule);
PlainSchedule plain(const insched::scheduler::Schedule& schedule);

struct Walk {
  std::vector<std::string> violations;
  double setup = 0.0;        ///< step 0: fixed setup of active analyses
  double total_time = 0.0;   ///< setup + every step's analysis time
  double peak_memory = 0.0;  ///< max over steps of sum of mStart
  long peak_step = 0;
  double objective = 0.0;    ///< |A| + sum w_i |C_i|
  std::vector<double> step_seconds;  ///< analysis seconds of steps 1..Steps
  std::vector<double> cumulative;
  std::vector<double> memory_start;
  [[nodiscard]] bool feasible() const { return violations.empty(); }
};

/// Walks the schedule against the problem step by step: Eq 9 spacing and
/// counts, the output policy, the Eq 2-4 time budget, and the Eq 5-8
/// memory recurrence with the reset to fm after an output step.
Walk walk(const insched::scheduler::ScheduleProblem& problem, const PlainSchedule& schedule);

/// |A| + sum w_i |C_i|, matched to the problem's analyses by position.
double objective_of(const insched::scheduler::ScheduleProblem& problem,
                    const PlainSchedule& schedule);

[[nodiscard]] bool near(double a, double b, double rel = 1e-9, double abs = 1e-9);

// --- Checks ----------------------------------------------------------------

std::string check_feasible(const Walk& w);
std::string check_objective(const Walk& w, double claimed);
/// greedy <= objective <= bound, with objective == bound when proven.
std::string check_sandwich(double greedy, double objective, double bound, bool proven);
/// The walk and the program's validation report agree.
std::string check_report(const Walk& w, double total_time, double peak_memory);
/// A per-step series the program computed equals the walk's.
std::string check_series(const char* what, const std::vector<double>& expected,
                         const std::vector<double>& got);
/// Two objectives that must match (metamorphic relations).
std::string check_same_objective(const char* what, double a, double b);

/// Solution JSON (solution_to_json) checked against `problem`: parses it,
/// walks the schedule and compares objective and validation fields. Fills
/// `objective` and `proven` from the bytes.
std::string check_solution_json(const insched::scheduler::ScheduleProblem& problem,
                                 const std::string& json, double* objective, bool* proven);
/// The same on an already parsed solution object.
std::string check_solution(const insched::scheduler::ScheduleProblem& problem,
                           const Json& solution, double* objective, bool* proven);

/// Corrupts known-good outputs and confirms each check rejects them.
/// Returns the failures (empty when every check bites).
std::vector<std::string> self_test();

}  // namespace perfbench::check
