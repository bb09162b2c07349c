// serve_mix: protocol JSON lines through request_from_json, one
// ServeEngine::handle and response_to_json, from one client in a closed
// loop. Every pass replays the same request sequence against a new engine,
// so each request meets the same cache state in every pass and its times
// compare across passes.
//
// Tiers: light = cache hits (permuted, renamed isomorphs of instances primed
// at the start of the pass), medium = never-seen aggregate-formulation
// instances over a grid of thresholds (more of them than the cache holds, so
// inserts also evict), heavy = warm steps of reschedule chains that report
// measured-cost drift on steps=500 staircase instances.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "check.hpp"
#include "insched/mip/resolve.hpp"
#include "insched/scheduler/aggregate_milp.hpp"
#include "insched/scheduler/greedy.hpp"
#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/serialize.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/scheduler/validator.hpp"
#include "insched/serve/canonical.hpp"
#include "insched/serve/engine.hpp"
#include "insched/serve/protocol.hpp"
#include "instances.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sched = insched::scheduler;
namespace serve = insched::serve;

namespace {

enum class Kind { kPrime, kHit, kFresh, kCold, kWarm };

const char* handle_span(Kind kind) {
  switch (kind) {
    case Kind::kPrime: return "serve.handle.prime";
    case Kind::kHit: return "serve.handle.hit";
    case Kind::kFresh: return "serve.handle.fresh";
    case Kind::kCold: return "serve.handle.cold";
    case Kind::kWarm: return "serve.handle.reschedule";
  }
  return "serve.handle";
}

struct Request {
  Kind kind = Kind::kFresh;
  std::string line;         ///< request bytes
  ScheduleProblem problem;  ///< what the answer must satisfy (patched, for reschedules)
  std::size_t prime = 0;    ///< primers: their index; hits: the primer they repeat
  std::string handle;       ///< reschedules: the handle the engine must answer with
  double greedy = NAN;      ///< fresh and primer requests: greedy objective
};

constexpr int kHits = 1200;
constexpr int kFreshPerCase = 100;  ///< x3 cases = 300 > cache capacity 256
constexpr int kChainSteps = 8;      ///< warm steps per reschedule chain
constexpr double kDrift = 0.05;     ///< measured costs within +-5% of nominal
constexpr double kPrimeScales[] = {1.0, 0.8};
/// Flash threshold fraction whose time budget, 43.449996 s (the paper's 0.05
/// gives 43.5 s), the aggregate MILP's 43.45 s schedule overruns by a
/// rounding crumb. Budgets from about 43.449992 s to 43.45 s do this.
constexpr double kBudgetCrumbThreshold = 0.05 * 43.449996 / 43.5;

std::vector<ScheduleProblem> aggregate_cases() {
  return {water(0.10), rhodo(), flash(0.05)};
}

/// The reschedule chains: water and rhodo staircases at steps=500, each
/// followed by kChainSteps reports of measured costs. The drift values come
/// from a fixed table, not from the run's seed: a warm re-solve's time
/// depends so much on the exact drift (10 ms to past the deadline on some
/// steps, see the README) that seeded drift would make the tier a draw of
/// the seed. Flash is left out for the same reason.
struct Chain {
  ScheduleProblem base;
  std::vector<ScheduleProblem> steps;
};

std::vector<Chain> reschedule_chains() {
  std::vector<Chain> chains = {{staircase(water(0.08), 500, 1.0), {}},
                               {staircase(rhodo(), 500, 3.0), {}}};
  for (std::size_t c = 0; c < chains.size(); ++c) {
    insched::Rng table(400 + c);
    for (int k = 0; k < kChainSteps; ++k) {
      ScheduleProblem p = chains[c].base;
      for (sched::AnalysisParams& a : p.analyses) {
        a.ct *= 1.0 + kDrift * table.uniform(-1.0, 1.0);
        if (a.ot >= 0.0) a.ot *= 1.0 + kDrift * table.uniform(-1.0, 1.0);
      }
      chains[c].steps.push_back(std::move(p));
    }
  }
  return chains;
}

/// "<prefix><n>": request ids and reschedule handles.
std::string tag(char prefix, std::size_t n) {
  std::string s(1, prefix);
  s += std::to_string(n);
  return s;
}

serve::ServeRequest solve_request(const ScheduleProblem& p, std::string id) {
  serve::ServeRequest r;
  r.op = serve::RequestOp::kSolve;
  r.id = std::move(id);
  r.problem = p;
  r.has_problem = true;
  return r;
}

struct Sequence {
  std::size_t primers = 0;  ///< the first `primers` requests prime the cache
  std::vector<Request> requests;
  std::vector<std::vector<ScheduleProblem>> chain_problems;  ///< per chain: base then steps
};

Sequence build_sequence(std::uint64_t seed) {
  Sequence seq;
  insched::Rng rng(seed);
  const std::vector<ScheduleProblem> cases = aggregate_cases();

  // Primers: the instances the hits repeat, solved fresh at the start of
  // every pass.
  std::vector<ScheduleProblem> primed;
  for (const ScheduleProblem& c : cases)
    for (const double scale : kPrimeScales) {
      ScheduleProblem p = c;
      p.threshold *= scale;
      primed.push_back(p);
    }
  for (std::size_t k = 0; k < primed.size(); ++k) {
    Request r;
    r.kind = Kind::kPrime;
    r.prime = k;
    r.problem = primed[k];
    r.line = serve::request_to_json(solve_request(primed[k], tag('p', k)));
    seq.requests.push_back(std::move(r));
  }
  seq.primers = primed.size();

  // The three streams, interleaved in a seeded order; chains keep their
  // own step order.
  std::vector<int> tags;  // 0 hit, 1 fresh, 2 + c chain c
  tags.insert(tags.end(), kHits, 0);
  tags.insert(tags.end(), kFreshPerCase * cases.size() + 1, 1);
  const std::vector<Chain> chains = reschedule_chains();
  for (std::size_t c = 0; c < chains.size(); ++c)
    tags.insert(tags.end(), 1 + kChainSteps, static_cast<int>(2 + c));
  for (std::size_t i = tags.size(); i > 1; --i) std::swap(tags[i - 1], tags[rng.uniform_index(i)]);

  // The fresh thresholds sit on a fixed grid, the same for every seed: some
  // thresholds make the aggregate MILP's schedule overrun the exact budget
  // check by a rounding crumb and the answer degrade (see the README), and
  // such a request has to fail in every run, not on some seeds only. The
  // threshold this was first seen at is one of the fresh requests, so the
  // fault shows as one failed request per pass.
  std::vector<ScheduleProblem> fresh;
  for (const ScheduleProblem& c : cases)
    for (int k = 0; k < kFreshPerCase; ++k) {
      ScheduleProblem p = c;
      p.threshold *= 0.5 + (k + 0.5) / kFreshPerCase;
      fresh.push_back(p);
    }
  fresh.push_back(flash(kBudgetCrumbThreshold));
  std::size_t next_fresh = 0;
  std::vector<int> chain_step(chains.size(), 0);
  seq.chain_problems.assign(chains.size(), {});
  std::vector<std::string> handles(chains.size());
  std::size_t minted = 0;
  for (std::size_t pos = 0; pos < tags.size(); ++pos) {
    Request r;
    const std::string id = tag('q', pos);
    if (tags[pos] == 0) {
      r.kind = Kind::kHit;
      r.prime = rng.uniform_index(primed.size());
      r.problem = permute_and_rename(primed[r.prime], rng);
      r.line = serve::request_to_json(solve_request(r.problem, id));
    } else if (tags[pos] == 1) {
      r.kind = Kind::kFresh;
      r.problem = fresh[next_fresh++];
      r.line = serve::request_to_json(solve_request(r.problem, id));
    } else {
      const auto c = static_cast<std::size_t>(tags[pos] - 2);
      serve::ServeRequest q;
      q.op = serve::RequestOp::kReschedule;
      q.id = id;
      if (chain_step[c]++ == 0) {
        r.kind = Kind::kCold;
        r.problem = chains[c].base;
        q.problem = chains[c].base;
        q.has_problem = true;
        handles[c] = tag('r', ++minted);
      } else {
        // Each step reports fresh measurements of every analysis' costs.
        r.kind = Kind::kWarm;
        r.problem = chains[c].steps[static_cast<std::size_t>(chain_step[c] - 2)];
        q.handle = handles[c];
        for (const sched::AnalysisParams& a : r.problem.analyses) {
          serve::MeasuredCost m;
          m.name = a.name;
          m.ct = a.ct;
          if (a.ot >= 0.0) m.ot = a.ot;
          q.measured.push_back(m);
        }
      }
      r.handle = handles[c];
      seq.chain_problems[c].push_back(r.problem);
      r.line = serve::request_to_json(q);
    }
    seq.requests.push_back(std::move(r));
  }
  return seq;
}

struct Answer {
  std::string status;
  bool cache_hit = false;
  double objective = 0.0;
  std::string handle;
};

/// Checks one response line against its request; returns "" when good.
std::string check_response(Request& req, const std::string& line, Answer* answer) {
  check::Json doc;
  try {
    doc = check::parse_json(line);
    answer->status = doc.at("status").text;
    answer->cache_hit = doc.at("cache_hit").boolean;
    answer->objective = doc.at("objective").number;
    if (doc.has("handle")) answer->handle = doc.at("handle").text;
    if (answer->status != "ok") return "status " + answer->status;
    double objective = 0.0;
    bool proven = false;
    std::string e = check::check_solution(req.problem, doc.at("solution"), &objective, &proven);
    if (e.empty()) e = check::check_same_objective("response objective", objective,
                                                   answer->objective);
    if (!e.empty()) return e;
  } catch (const std::exception& e) {
    return e.what();
  }
  if ((req.kind == Kind::kCold || req.kind == Kind::kWarm) && answer->handle != req.handle)
    return "handle " + answer->handle + ", expected " + req.handle;
  if (req.kind == Kind::kHit && !answer->cache_hit) return "isomorph missed the cache";
  if (req.kind == Kind::kFresh || req.kind == Kind::kPrime) {
    if (req.greedy > answer->objective + 1e-6)
      return "greedy objective beats the served one";
  }
  return {};
}

serve::EngineOptions engine_options() {
  serve::EngineOptions options;
  options.solve.mip.threads = 1;
  return options;
}

}  // namespace

Outcome run_serve(const RunConfig& config) {
  Outcome out;
  Sequence seq = build_sequence(config.seed);
  const std::size_t n = seq.requests.size();
  std::vector<std::vector<std::size_t>> tiers(3);
  for (std::size_t i = 0; i < n; ++i) {
    const Kind k = seq.requests[i].kind;
    if (k == Kind::kHit) tiers[0].push_back(i);
    if (k == Kind::kFresh) tiers[1].push_back(i);
    if (k == Kind::kWarm) tiers[2].push_back(i);
  }
  // What the checks compare against, made before the first timed request:
  // the greedy objective of every request that is not a hit or a reschedule,
  // and a cold solve of one sampled warm reschedule step.
  for (Request& r : seq.requests)
    if (r.kind == Kind::kFresh || r.kind == Kind::kPrime)
      r.greedy = check::walk(r.problem, check::plain(sched::greedy_schedule(r.problem))).objective;
  const std::size_t sampled_warm =
      tiers[2].empty() ? 0 : tiers[2][config.seed % tiers[2].size()];
  insched::mip::MipResult cold;
  if (!tiers[2].empty())
    cold = insched::mip::solve_mip(
        sched::build_time_expanded_milp(seq.requests[sampled_warm].problem).model,
        engine_options().solve.mip);
  out.setup_seconds = setup_seconds_since_spawn(config);

  MipTotals solver;
  if (config.trace) {
    tracer().enabled = true;
    const serve::EngineOptions options = engine_options();
    std::vector<sched::AggregateModel> built;
    for (std::size_t i = 0; i < n; ++i) {
      const Request& r = seq.requests[i];
      if (r.kind != Kind::kPrime && !(r.kind == Kind::kHit && i < 200)) continue;
      {
        ScopedSpan span("lint.problem");
        (void)sched::lint_problem(r.problem);
      }
      {
        ScopedSpan span("serve.canonicalize");
        (void)serve::canonicalize(r.problem);
      }
      if (r.kind != Kind::kPrime) continue;
      const sched::ScheduleSolution sol = sched::solve_schedule(r.problem, options.solve);
      {
        ScopedSpan span("scheduler.validate");
        (void)sched::validate_schedule(r.problem, sol.schedule);
      }
      {
        ScopedSpan span("scheduler.encode");
        (void)sched::solution_to_json(sol);
      }
      ScopedSpan span("scheduler.build");
      built.push_back(sched::build_aggregate_milp(r.problem));
    }
    std::vector<const insched::lp::Model*> models;
    for (const auto& b : built) models.push_back(&b.model);
    probe_solver_layers(models, options.solve.mip, std::vector<char>(models.size(), 1), solver);

    // The reschedule chains, straight through ReSolveContext.
    long steps = 0;
    insched::mip::ReSolveCounters resolve;
    for (const std::vector<ScheduleProblem>& chain : seq.chain_problems) {
      insched::mip::ReSolveContext ctx;
      for (std::size_t k = 0; k < chain.size(); ++k) {
        const sched::TimeExpandedModel m = sched::build_time_expanded_milp(chain[k]);
        if (k == 0) {
          (void)ctx.solve(m.model, options.solve.mip);
          continue;
        }
        ScopedSpan span("resolve.step");
        (void)ctx.resolve(m.model, options.solve.mip);
        ++steps;
      }
      const insched::mip::ReSolveCounters& c = ctx.counters();
      resolve.warm_resolves += c.warm_resolves;
      resolve.cuts_reused += c.cuts_reused;
      resolve.cuts_dropped += c.cuts_dropped;
      resolve.basis_mapped += c.basis_mapped;
    }
    const double per_step = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
    out.add("resolve.ms", mean_self_us("resolve.step") / 1e3, "ms");
    out.add("resolve.cuts_reused", static_cast<double>(resolve.cuts_reused) * per_step, "count");
    out.add("resolve.cuts_dropped", static_cast<double>(resolve.cuts_dropped) * per_step,
            "count");
    out.add("resolve.basis_mapped", static_cast<double>(resolve.basis_mapped) * per_step,
            "count");
    out.add("resolve.warm_rate", static_cast<double>(resolve.warm_resolves) * per_step, "ratio");
    out.add("resolve.steps", static_cast<double>(steps), "count");
    tracer().enabled = false;
  }

  BestTimes plain_times(n), traced_times(n);
  // This pass's fresh answers to the primers, by primer; NaN when a primer
  // failed, so every hit on it fails its check.
  std::vector<double> prime_objective;
  long solve_requests = 0, hits = 0;
  double sampled_objective = NAN;
  PassClock clock(config.seconds, /*min_passes=*/3);
  while (clock.next()) {
    const bool traced = config.trace && clock.passes() % 2 == 0 && !tracer().full();
    serve::ServeEngine engine(engine_options());
    prime_objective.assign(seq.primers, NAN);
    for (std::size_t i = 0; i < n; ++i) {
      Request& req = seq.requests[i];
      reference().maybe_run();
      tracer().enabled = traced;
      const Clock::time_point t0 = Clock::now();
      std::string response;
      {
        ScopedSpan op("serve.request", static_cast<long>(i));
        serve::ServeRequest request;
        {
          ScopedSpan span("serve.decode", static_cast<long>(i));
          request = serve::request_from_json(req.line);
        }
        serve::ServeResponse answer;
        {
          ScopedSpan span(handle_span(req.kind), static_cast<long>(i));
          answer = engine.handle(request);
        }
        ScopedSpan span("serve.encode", static_cast<long>(i));
        response = serve::response_to_json(answer);
      }
      const double dt = seconds_since(t0);
      tracer().enabled = false;
      ++out.attempted;
      Answer a;
      const std::string e = check_response(req, response, &a);
      if (a.status != "ok") {
        if (out.failed++ < 5)
          std::fprintf(stderr, "serve_mix request %zu failed: %s\n", i, response.c_str());
        continue;
      }
      (traced ? traced_times : plain_times).record(i, dt);
      if (req.kind != Kind::kCold && req.kind != Kind::kWarm) {
        ++solve_requests;
        hits += a.cache_hit ? 1 : 0;
      }
      if (!e.empty()) out.fail_check("request " + std::to_string(i) + ": " + e);
      if (req.kind == Kind::kPrime) prime_objective[req.prime] = a.objective;
      if (req.kind == Kind::kHit) {
        const std::string m = check::check_same_objective(
            "cache hit vs fresh solve", prime_objective.at(req.prime), a.objective);
        if (!m.empty()) out.fail_check("request " + std::to_string(i) + ": " + m);
      }
      if (i == sampled_warm) sampled_objective = a.objective;
    }
  }

  // A sampled warm reschedule step equals a cold solve of the same patched
  // problem.
  if (!tiers[2].empty()) {
    const std::string e = check::check_same_objective("warm reschedule vs cold solve",
                                                      cold.objective, sampled_objective);
    if (!cold.has_solution || !e.empty())
      out.fail_check("request " + std::to_string(sampled_warm) + ": " + e);
  }

  if (!config.trace) {
    add_tier_metrics(out, "serve_mix", plain_times, tiers, clock.passes());
    return out;
  }
  add_layer_time(out, "lint.problem_us", "lint.problem", "us");
  add_layer_time(out, "serve.canonicalize_us", "serve.canonicalize", "us");
  add_layer_time(out, "scheduler.validate_us", "scheduler.validate", "us");
  add_layer_time(out, "scheduler.encode_us", "scheduler.encode", "us");
  add_layer_time(out, "scheduler.build_ms", "scheduler.build", "ms");
  add_layer_time(out, "serve.decode_us", "serve.decode", "us");
  add_layer_time(out, "serve.encode_us", "serve.encode", "us");
  add_layer_time(out, "serve.handle_hit_us", "serve.handle.hit", "us");
  add_layer_time(out, "serve.handle_fresh_us", "serve.handle.fresh", "us");
  add_layer_time(out, "serve.handle_reschedule_us", "serve.handle.reschedule", "us");
  out.add("serve.cache_hit_ratio",
          solve_requests > 0 ? static_cast<double>(hits) / static_cast<double>(solve_requests)
                             : 0.0,
          "ratio");
  out.add("serve.requests", static_cast<double>(solve_requests), "count");
  add_solver_metrics(out, solver);
  add_trace_metrics(out, traced_times, plain_times);
  return out;
}

}  // namespace perfbench
