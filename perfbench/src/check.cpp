#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench::check {

using insched::scheduler::AnalysisParams;
using insched::scheduler::OutputPolicy;
using insched::scheduler::ScheduleProblem;
using insched::scheduler::ThresholdKind;

namespace {

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

class Reader {
 public:
  explicit Reader(const std::string& text) : s_(text) {}

  Json document() {
    Json v = value();
    space();
    if (pos_ != s_.size()) fail("trailing bytes");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(fmt("json: %s at offset %zu", what, pos_));
  }
  void space() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    space();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void need(char c) {
    if (!eat(c)) fail("unexpected byte");
  }
  bool word(const char* w) {
    const std::string k(w);
    if (s_.compare(pos_, k.size(), k) != 0) return false;
    pos_ += k.size();
    return true;
  }
  std::string string() {
    need('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            c = static_cast<char>(std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          default: c = e;
        }
      }
      out += c;
    }
    need('"');
    return out;
  }
  Json value() {
    space();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = Json::Kind::kObject;
      if (eat('}')) return v;
      do {
        space();
        std::string key = string();
        need(':');
        v.fields[key] = value();
      } while (eat(','));
      need('}');
    } else if (c == '[') {
      ++pos_;
      v.kind = Json::Kind::kArray;
      if (eat(']')) return v;
      do v.items.push_back(value());
      while (eat(','));
      need(']');
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.text = string();
    } else if (word("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (word("false")) {
      v.kind = Json::Kind::kBool;
    } else if (word("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("bad value");
      pos_ += static_cast<std::size_t>(end - begin);
      v.kind = Json::Kind::kNumber;
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::vector<long> longs(const Json& array) {
  if (array.kind != Json::Kind::kArray) throw std::runtime_error("json: expected array");
  std::vector<long> out;
  out.reserve(array.items.size());
  for (const Json& v : array.items) {
    if (v.kind != Json::Kind::kNumber || v.number != std::floor(v.number))
      throw std::runtime_error("json: expected integer step");
    out.push_back(static_cast<long>(v.number));
  }
  return out;
}

double budget_of(const ScheduleProblem& p) {
  const auto steps = static_cast<double>(p.steps);
  switch (p.threshold_kind) {
    case ThresholdKind::kFractionOfSimTime: return p.threshold * p.sim_time_per_step * steps;
    case ThresholdKind::kTotalSeconds: return p.threshold;
    case ThresholdKind::kPerStepSeconds: return p.threshold * steps;
  }
  return 0.0;
}

double output_seconds(const AnalysisParams& a, double bw) {
  if (a.ot >= 0.0) return a.ot;
  return bw > 0.0 && a.om > 0.0 ? a.om / bw : 0.0;
}

}  // namespace

const Json& Json::at(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end()) throw std::runtime_error("json: missing field '" + key + "'");
  return it->second;
}

Json parse_json(const std::string& text) { return Reader(text).document(); }

PlainSchedule schedule_from_json(const Json& schedule) {
  PlainSchedule s;
  s.steps = static_cast<long>(schedule.at("steps").number);
  for (const Json& a : schedule.at("analyses").items) {
    Row r;
    r.name = a.at("name").text;
    r.analysis = longs(a.at("analysis_steps"));
    r.output = longs(a.at("output_steps"));
    s.rows.push_back(std::move(r));
  }
  return s;
}

PlainSchedule plain(const insched::scheduler::Schedule& schedule) {
  PlainSchedule s;
  s.steps = schedule.steps();
  for (const auto& a : schedule.analyses())
    s.rows.push_back(Row{a.name, a.analysis_steps, a.output_steps});
  return s;
}

bool near(double a, double b, double rel, double abs) {
  return std::fabs(a - b) <= abs + rel * std::max(std::fabs(a), std::fabs(b));
}

double objective_of(const ScheduleProblem& problem, const PlainSchedule& schedule) {
  double objective = 0.0;
  for (std::size_t i = 0; i < schedule.rows.size() && i < problem.analyses.size(); ++i) {
    const auto count = static_cast<double>(schedule.rows[i].analysis.size());
    if (count > 0) objective += 1.0 + problem.analyses[i].weight * count;
  }
  return objective;
}

Walk walk(const ScheduleProblem& problem, const PlainSchedule& schedule) {
  Walk w;
  const long steps = problem.steps;
  const std::size_t n = problem.analyses.size();
  if (schedule.steps != steps) {
    w.violations.push_back(fmt("schedule spans %ld steps, problem %ld", schedule.steps, steps));
    return w;
  }
  if (schedule.rows.size() != n) {
    w.violations.push_back(
        fmt("schedule has %zu analyses, problem %zu", schedule.rows.size(), n));
    return w;
  }

  // Per-step membership marks; slot 0 is unused (steps are 1-based).
  const auto width = static_cast<std::size_t>(steps + 1);
  std::vector<std::vector<char>> is_analysis(n, std::vector<char>(width, 0));
  std::vector<std::vector<char>> is_output(n, std::vector<char>(width, 0));
  std::vector<char> active(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const AnalysisParams& a = problem.analyses[i];
    const Row& r = schedule.rows[i];
    const char* name = a.name.c_str();
    long previous = 0;
    for (std::size_t k = 0; k < r.analysis.size(); ++k) {
      const long step = r.analysis[k];
      if (step < 1 || step > steps) {
        w.violations.push_back(fmt("%s: analysis step %ld outside 1..%ld", name, step, steps));
        continue;
      }
      if (k > 0 && step <= previous)
        w.violations.push_back(fmt("%s: analysis steps not increasing at %ld", name, step));
      else if (k > 0 && step - previous < a.itv)
        w.violations.push_back(fmt("%s: steps %ld and %ld closer than itv %ld (Eq 9)", name,
                                   previous, step, a.itv));
      is_analysis[i][static_cast<std::size_t>(step)] = 1;
      previous = step;
    }
    if (static_cast<long>(r.analysis.size()) > steps / a.itv)
      w.violations.push_back(fmt("%s: %zu analysis steps exceed Steps/itv = %ld (Eq 9)", name,
                                 r.analysis.size(), steps / a.itv));
    previous = 0;
    for (const long step : r.output) {
      if (step < 1 || step > steps || !is_analysis[i][static_cast<std::size_t>(step)]) {
        w.violations.push_back(fmt("%s: output step %ld is not an analysis step", name, step));
        continue;
      }
      if (step <= previous)
        w.violations.push_back(fmt("%s: output steps not increasing at %ld", name, step));
      is_output[i][static_cast<std::size_t>(step)] = 1;
      previous = step;
    }
    if (problem.output_policy == OutputPolicy::kEveryAnalysis &&
        r.output.size() != r.analysis.size())
      w.violations.push_back(fmt("%s: policy every_analysis but %zu outputs for %zu analyses",
                                 name, r.output.size(), r.analysis.size()));
    if (problem.output_policy == OutputPolicy::kNone && !r.output.empty())
      w.violations.push_back(fmt("%s: policy none but %zu outputs", name, r.output.size()));
    active[i] = r.analysis.empty() ? 0 : 1;
  }

  // Step 0 carries the fixed setup and mEnd = fm of every active analysis.
  std::vector<double> mem_end(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    w.setup += problem.analyses[i].ft;
    mem_end[i] = problem.analyses[i].fm;
  }
  w.step_seconds.assign(static_cast<std::size_t>(steps), 0.0);
  w.cumulative.assign(static_cast<std::size_t>(steps), 0.0);
  w.memory_start.assign(static_cast<std::size_t>(steps), 0.0);
  double clock = w.setup;
  for (long j = 1; j <= steps; ++j) {
    const auto at = static_cast<std::size_t>(j);
    double seconds = 0.0;
    double memory = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      const AnalysisParams& a = problem.analyses[i];
      const bool analyze = is_analysis[i][at] != 0;
      const bool write = is_output[i][at] != 0;
      seconds += a.it + (analyze ? a.ct : 0.0) + (write ? output_seconds(a, problem.bw) : 0.0);
      const double start = mem_end[i] + a.im + (analyze ? a.cm : 0.0) + (write ? a.om : 0.0);
      memory += start;
      mem_end[i] = write ? a.fm : start;  // the output step frees the analysis' results
    }
    clock += seconds;
    w.step_seconds[at - 1] = seconds;
    w.cumulative[at - 1] = clock;
    w.memory_start[at - 1] = memory;
    if (memory > w.peak_memory) {
      w.peak_memory = memory;
      w.peak_step = j;
    }
  }
  w.total_time = clock;

  const double budget = budget_of(problem);
  if (w.total_time > budget * (1.0 + 1e-9) + 1e-9)
    w.violations.push_back(fmt("analysis time %.9g exceeds budget %.9g (Eq 4)", w.total_time,
                               budget));
  if (std::isfinite(problem.mth) && w.peak_memory > problem.mth * (1.0 + 1e-9) + 1e-6)
    w.violations.push_back(fmt("peak memory %.9g at step %ld exceeds mth %.9g (Eq 8)",
                               w.peak_memory, w.peak_step, problem.mth));
  w.objective = objective_of(problem, schedule);
  return w;
}

std::string check_feasible(const Walk& w) {
  return w.feasible() ? std::string() : "infeasible: " + w.violations.front();
}

std::string check_objective(const Walk& w, double claimed) {
  return near(w.objective, claimed, 1e-9, 1e-6)
             ? std::string()
             : fmt("objective %.9g reported, %.9g recomputed", claimed, w.objective);
}

std::string check_sandwich(double greedy, double objective, double bound, bool proven) {
  const double tol = 1e-6 * std::max(1.0, std::fabs(objective));
  if (greedy > objective + tol)
    return fmt("greedy objective %.9g beats the MILP's %.9g", greedy, objective);
  if (objective > bound + tol) return fmt("objective %.9g above bound %.9g", objective, bound);
  if (proven && bound > objective + tol)
    return fmt("proven optimum %.9g but bound %.9g", objective, bound);
  return {};
}

std::string check_report(const Walk& w, double total_time, double peak_memory) {
  if (!near(w.total_time, total_time))
    return fmt("total time %.12g reported, %.12g walked", total_time, w.total_time);
  if (!near(w.peak_memory, peak_memory))
    return fmt("peak memory %.12g reported, %.12g walked", peak_memory, w.peak_memory);
  return {};
}

std::string check_series(const char* what, const std::vector<double>& expected,
                         const std::vector<double>& got) {
  if (expected.size() != got.size())
    return fmt("%s: %zu entries, expected %zu", what, got.size(), expected.size());
  for (std::size_t k = 0; k < got.size(); ++k)
    if (!near(expected[k], got[k]))
      return fmt("%s: step %zu is %.12g, expected %.12g", what, k + 1, got[k], expected[k]);
  return {};
}

std::string check_same_objective(const char* what, double a, double b) {
  return near(a, b, 1e-9, 1e-6) ? std::string() : fmt("%s: %.9g != %.9g", what, a, b);
}

std::string check_solution(const ScheduleProblem& problem, const Json& solution,
                           double* objective, bool* proven) {
  try {
    if (!solution.at("solved").boolean) return "solution not solved";
    const Walk w = walk(problem, schedule_from_json(solution.at("schedule")));
    *objective = solution.at("objective").number;
    *proven = solution.at("proven_optimal").boolean;
    std::string e = check_feasible(w);
    if (e.empty()) e = check_objective(w, *objective);
    if (e.empty())
      e = check_report(w, solution.at("total_analysis_time").number,
                       solution.at("peak_memory").number);
    return e;
  } catch (const std::exception& e) {
    return e.what();
  }
}

std::string check_solution_json(const ScheduleProblem& problem, const std::string& json,
                                double* objective, bool* proven) {
  try {
    return check_solution(problem, parse_json(json), objective, proven);
  } catch (const std::exception& e) {
    return e.what();
  }
}

// ---------------------------------------------------------------------------

namespace {

ScheduleProblem self_test_problem() {
  ScheduleProblem p;
  p.steps = 20;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 40.0;
  p.mth = 100.0;
  p.output_policy = OutputPolicy::kOptimized;
  AnalysisParams a;
  a.name = "a";
  a.ft = 1.0;
  a.it = 0.1;
  a.ct = 2.0;
  a.ot = 0.5;
  a.fm = 10.0;
  a.im = 1.0;
  a.cm = 5.0;
  a.om = 2.0;
  a.itv = 3;
  a.weight = 2.0;
  AnalysisParams b = a;
  b.name = "b";
  b.ft = 0.0;
  b.ct = 1.5;
  b.ot = -1.0;
  b.om = 4.0;
  b.itv = 5;
  b.weight = 1.0;
  p.bw = 8.0;
  p.analyses = {a, b};
  return p;
}

std::string solution_text(const PlainSchedule& s, double objective, double total,
                          double peak) {
  std::string out = fmt("{\"solved\":true,\"proven_optimal\":true,\"objective\":%.10g,"
                        "\"total_analysis_time\":%.10g,\"peak_memory\":%.10g,"
                        "\"schedule\":{\"steps\":%ld,\"analyses\":[",
                        objective, total, peak, s.steps);
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    out += i ? ",{\"name\":\"" : "{\"name\":\"";
    out += s.rows[i].name + "\",\"analysis_steps\":[";
    for (std::size_t k = 0; k < s.rows[i].analysis.size(); ++k) {
      if (k) out += ',';
      out += std::to_string(s.rows[i].analysis[k]);
    }
    out += "],\"output_steps\":[";
    for (std::size_t k = 0; k < s.rows[i].output.size(); ++k) {
      if (k) out += ',';
      out += std::to_string(s.rows[i].output[k]);
    }
    out += "]}";
  }
  return out + "]}}";
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  const auto expect = [&failures](bool pass, const std::string& error, const char* what) {
    // pass: the check must accept (error empty); otherwise it must reject.
    if (pass != error.empty())
      failures.push_back(fmt("self-test %s: check %s", what,
                             pass ? ("rejected good input: " + error).c_str()
                                  : "accepted corrupted input"));
  };

  const ScheduleProblem p = self_test_problem();
  PlainSchedule good;
  good.steps = 20;
  good.rows = {Row{"a", {3, 6, 9, 12}, {6, 12}}, Row{"b", {5, 10, 15, 20}, {20}}};
  const Walk w = walk(p, good);
  expect(true, check_feasible(w), "good schedule");
  // |A| + sum w|C| = 2 + 2*4 + 1*4.
  expect(true, check_objective(w, 14.0), "good objective");
  // 1 (ft) + 0.1*20*2 (it) + 2*4 + 0.5*2 (a) + 1.5*4 + 4/8*1 (b).
  expect(true, check_report(w, 20.5, w.peak_memory), "good report");

  PlainSchedule moved = good;
  moved.rows[0].analysis[1] = 5;  // 3 -> 5 is closer than itv = 3
  moved.rows[0].output[0] = 12;
  moved.rows[0].output.resize(1);
  expect(false, check_feasible(walk(p, moved)), "moved analysis step");

  PlainSchedule stray = good;
  stray.rows[1].output = {19};  // not an analysis step
  expect(false, check_feasible(walk(p, stray)), "output off an analysis step");

  PlainSchedule crowded = good;
  crowded.rows[1].analysis = {1, 6, 11, 16, 20};  // 5 > Steps/itv = 4
  expect(false, check_feasible(walk(p, crowded)), "count above Steps/itv");

  ScheduleProblem tight_time = p;
  tight_time.threshold = 20.0;
  expect(false, check_feasible(walk(tight_time, good)), "time budget");

  ScheduleProblem tight_memory = p;
  tight_memory.mth = w.peak_memory - 0.5;
  expect(false, check_feasible(walk(tight_memory, good)), "memory budget");

  // Without the reset to fm after an output the memory would keep growing;
  // a schedule that never writes must peak higher than one that does.
  PlainSchedule unwritten = good;
  unwritten.rows[0].output.clear();
  unwritten.rows[1].output.clear();
  expect(true, walk(p, unwritten).peak_memory > w.peak_memory ? std::string() : "no reset",
         "output resets memory");

  expect(false, check_objective(w, 15.0), "inflated objective");
  expect(false, check_report(w, 20.5, w.peak_memory * 1.01), "peak memory disagreement");
  expect(false, check_report(w, 20.6, w.peak_memory), "total time disagreement");

  std::vector<double> series = w.cumulative;
  expect(true, check_series("trajectory", w.cumulative, series), "good trajectory");
  series[7] += 1e-3;
  expect(false, check_series("trajectory", w.cumulative, series), "perturbed trajectory");

  expect(true, check_sandwich(10.0, 14.0, 14.0, true), "good sandwich");
  expect(false, check_sandwich(10.0, 14.0, 13.0, false), "objective above bound");
  expect(false, check_sandwich(15.0, 14.0, 14.0, true), "greedy above objective");
  expect(false, check_sandwich(10.0, 14.0, 15.0, true), "proven with open gap");
  expect(false, check_same_objective("renamed", 14.0, 13.0), "metamorphic mismatch");

  double objective = 0.0;
  bool proven = false;
  const std::string text = solution_text(good, 14.0, 20.5, w.peak_memory);
  expect(true, check_solution_json(p, text, &objective, &proven), "good solution bytes");
  expect(false,
         check_solution_json(p, solution_text(moved, 14.0, 20.5, w.peak_memory), &objective,
                             &proven),
         "moved step in solution bytes");
  expect(false,
         check_solution_json(p, solution_text(good, 16.0, 20.5, w.peak_memory), &objective,
                             &proven),
         "inflated objective in solution bytes");
  expect(false, check_solution_json(p, text.substr(0, text.size() - 3), &objective, &proven),
         "truncated solution bytes");
  return failures;
}

}  // namespace perfbench::check
