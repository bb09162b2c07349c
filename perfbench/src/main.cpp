// perfbench_harness — runs one workload of the end-to-end benchmark in this
// process and prints one JSON result line last on stdout:
//
//   perfbench_harness --workload plan_staircase|serve_mix|replay_sweep
//                     --seed N --seconds S --trace 0|1
//                     [--spawn-epoch T] [--out-dir DIR]
//   perfbench_harness --self-test
//
// --spawn-epoch is the launcher's wall clock when it started this process,
// so setup_s covers process start as well. Declared times are scaled to the
// host's reference speed (reference/reference.hpp); the raw ones go to
// stderr. Check failures go to stderr and turn "correct" false. Traced runs
// write their spans to DIR.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "check.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Reference runs a result needs at least (a short run may not reach them
/// between its operations).
constexpr int kMinReferenceRuns = 8;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload W --seed N --seconds S --trace 0|1 "
               "[--spawn-epoch T] [--out-dir DIR] | --self-test\n");
  return 2;
}

int self_test() {
  const std::vector<std::string> failures = check::self_test();
  for (const std::string& f : failures) std::fprintf(stderr, "%s\n", f.c_str());
  std::printf("checker self-test: %s\n", failures.empty() ? "every check rejects its "
                                                            "corrupted input"
                                                          : "FAILED");
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.spawn_epoch = epoch_seconds();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--spawn-epoch") {
      config.spawn_epoch = std::strtod(value, nullptr);
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(config.seconds > 0.0)) return usage();

  Outcome out;
  try {
    if (config.workload == "plan_staircase") out = run_plan(config);
    else if (config.workload == "serve_mix") out = run_serve(config);
    else if (config.workload == "replay_sweep") out = run_replay(config);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  for (const std::string& f : check::self_test()) out.fail_check(f);
  for (const std::string& e : out.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());

  if (config.trace) {
    mkdir(config.out_dir.c_str(), 0755);
    const std::string path = config.out_dir + "/trace_" + config.workload + "_" +
                             std::to_string(config.seed) + ".jsonl";
    if (!tracer().write_jsonl(path))
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  } else {
    // Every declared time is stated at the reference speed of the host.
    reference().run_until(kMinReferenceRuns);
    const double factor = reference().factor();
    std::fprintf(stderr,
                 "host reference: best %.6g s over %d runs; times scaled by %.6g; raw setup "
                 "%.6g s, first reference run %.6g s, setup scaled by %.6g\n",
                 reference().best_seconds(), reference().runs(), factor, out.setup_seconds,
                 reference().first_seconds(), reference().first_factor());
    std::vector<Metric> tiers = std::move(out.metrics);
    out.metrics.clear();
    out.add("setup_s", out.setup_seconds * reference().first_factor(), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    for (Metric& m : tiers) {
      m.value *= factor;
      out.metrics.push_back(std::move(m));
    }
  }

  std::string metrics;
  for (const Metric& m : out.metrics) {
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    metrics += buf;
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
  return 0;
}
