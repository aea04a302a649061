// Tests of the benchmark itself (run with `python3 perfbench/run.py --selftest`):
//
//   * the latency histogram's percentiles match exact ones to within a
//     bucket's width;
//   * on every workload, a deliberately wrong expected value drives
//     success_ratio below 1 and marks the result incorrect, while the same
//     short run with honest expectations passes;
//   * for ui_session and tcl_script, two traced runs with the same seed
//     give identical per-layer counts.

#include <cmath>
#include <cstdio>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

// A short untraced run; long enough to hold the 1000 ops its p99 needs.
perfbench::Report ShortRun(const std::string& name, uint64_t corrupt_every) {
  perfbench::Options options;
  options.workload = name;
  options.seed = 7;
  options.seconds = 4;
  options.corrupt_every = corrupt_every;
  perfbench::Plan plan;
  std::unique_ptr<perfbench::Workload> workload = perfbench::MakeWorkload(options, &plan);
  plan.setups = 1;
  plan.warmup_ops = 5;
  return perfbench::RunEndToEnd(*workload, plan, options);
}

// A one-second traced run; its passes have fixed sizes.
perfbench::Report TracedRun(const std::string& name) {
  perfbench::Options options;
  options.workload = name;
  options.seed = 11;
  options.seconds = 1;
  options.trace = true;
  perfbench::Plan plan;
  std::unique_ptr<perfbench::Workload> workload = perfbench::MakeWorkload(options, &plan);
  plan.setups = 1;
  return perfbench::RunTraced(*workload, plan, options);
}

// The traced run's counts: every metric that is a number of things rather
// than a time.
perfbench::Counts CountMetrics(const perfbench::Report& report) {
  perfbench::Counts counts;
  for (const auto& [name, value] : report.metrics) {
    const std::string& unit = value.second;
    if (unit == "count/op" || unit == "B/op" || unit == "ratio" || unit == "frames") {
      counts[name] = value.first;
    }
  }
  return counts;
}

}  // namespace

int main() {
  perfbench::ScrubEnvironment();
  {
    // 1000 us .. 100 ms, uniformly: each percentile within a bucket's width
    // (0.55%) of the exact nearest-rank value.
    perfbench::LatencyHistogram histogram;
    for (int64_t us = 1000; us <= 100000; ++us) {
      histogram.Add(us * 1000);
    }
    bool close = true;
    for (double p : {0.01, 0.50, 0.99}) {
      double exact = (1000.0 + std::ceil(p * 99001.0) - 1.0) * 1000.0;
      close = close && std::fabs(histogram.Percentile(p) / exact - 1.0) < 0.0055;
    }
    Expect(close && histogram.count() == 99001, "latency histogram percentiles within 0.55%");
  }
  for (const char* name : {"ui_session", "tcl_script", "wire_clients"}) {
    perfbench::Report honest = ShortRun(name, 0);
    Expect(honest.correct && honest.failed == 0 && honest.Get("success_ratio") == 1.0,
           std::string(name) + ": honest expectations give success_ratio 1");
    perfbench::Report wrong = ShortRun(name, 10);
    double ratio = wrong.Get("success_ratio");
    Expect(!wrong.correct && wrong.failed > 0 && ratio < 1.0 && ratio > 0.8,
           std::string(name) + ": every 10th expectation wrong gives success_ratio " +
               std::to_string(ratio));
  }
  for (const char* name : {"ui_session", "tcl_script"}) {
    perfbench::Report first_run = TracedRun(name);
    perfbench::Report second_run = TracedRun(name);
    perfbench::Counts first = CountMetrics(first_run);
    perfbench::Counts second = CountMetrics(second_run);
    for (const auto& [counter, value] : first) {
      if (second[counter] != value) {
        std::printf("  %s: %.6f then %.6f\n", counter.c_str(), value, second[counter]);
      }
    }
    Expect(first_run.correct && second_run.correct && first_run.failed == 0 &&
               first_run.attempted == second_run.attempted && first == second &&
               first["tcl.commands_per_op"] > 0,
           std::string(name) + ": same seed, identical per-layer counts (" +
               std::to_string(first.size()) + " counters)");
  }
  std::printf("%s\n", failures == 0 ? "selftest: all passed" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
