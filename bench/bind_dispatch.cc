// Ablation: event-dispatch cost as the binding table grows.
//
// Tk matches every incoming event against the widget's and its class's
// binding lists (Section 3.2).  This bench measures dispatch latency as a
// function of the number of bindings on a widget, and the cost of
// %-substitution.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "bench/bench_json.h"
#include "bench/bytecode_census.h"
#include "src/tk/app.h"
#include "src/tk/bind.h"
#include "src/tk/widget.h"
#include "src/xsim/server.h"

namespace {

void BM_DispatchVsBindingCount(benchmark::State& state) {
  xsim::Server server;
  tk::App app(server, "bench");
  app.interp().Eval("frame .f -geometry 50x50");
  app.interp().Eval("pack append . .f {top}");
  // N distinct key bindings plus the one we trigger.
  for (int i = 0; i < state.range(0); ++i) {
    char key = static_cast<char>('a' + (i % 26));
    std::string mods = i / 26 == 0 ? "" : "Control-";
    app.interp().Eval("bind .f <" + mods + std::string(1, key) + "> {set x " +
                      std::to_string(i) + "}");
  }
  app.interp().Eval("bind .f <Enter> {set hits 1}");
  app.Update();
  xsim::Event event;
  event.type = xsim::EventType::kEnterNotify;
  event.window = app.FindWidget(".f")->window();
  for (auto _ : state) {
    app.DispatchEvent(event);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DispatchVsBindingCount)->Range(1, 64)->Complexity(benchmark::oN);

void BM_PercentSubstitution(benchmark::State& state) {
  xsim::Event event;
  event.type = xsim::EventType::kButtonPress;
  event.x = 42;
  event.y = 17;
  event.detail = 1;
  std::string script = "handle %W %x %y %b %s";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tk::ExpandPercents(script, event, ".canvas"));
  }
}
BENCHMARK(BM_PercentSubstitution);

void BM_FullClickDispatch(benchmark::State& state) {
  // End to end: injected click -> server routing -> widget handler ->
  // binding match -> Tcl execution.
  xsim::Server server;
  tk::App app(server, "bench");
  app.interp().Eval("set clicks 0");
  app.interp().Eval("frame .f -geometry 50x50");
  app.interp().Eval("pack append . .f {top}");
  app.interp().Eval("bind .f <Button-1> {incr clicks}");
  app.Update();
  server.InjectPointerMove(25, 25);
  app.Update();
  for (auto _ : state) {
    server.InjectClick(1);
    app.Update();
  }
}
BENCHMARK(BM_FullClickDispatch);

void BM_FullClickDispatchUncached(benchmark::State& state) {
  xsim::Server server;
  tk::App app(server, "bench");
  app.interp().set_eval_cache_enabled(false);
  app.interp().Eval("set clicks 0");
  app.interp().Eval("frame .f -geometry 50x50");
  app.interp().Eval("pack append . .f {top}");
  app.interp().Eval("bind .f <Button-1> {incr clicks}");
  app.Update();
  server.InjectPointerMove(25, 25);
  app.Update();
  for (auto _ : state) {
    server.InjectClick(1);
    app.Update();
  }
}
BENCHMARK(BM_FullClickDispatchUncached);

// Machine-readable summary: binding scripts are the hottest Eval callers
// (the same handler runs on every event), so report dispatch throughput in
// three modes -- tree-walker uncached, tree-walker + eval cache, and the
// bytecode VM -- plus deterministic counters that check_bench_regression.py
// gates against bench/baselines/bind_dispatch.json: `req_tcl_*` command
// counts, and `exact_tcl_*` keys that must match exactly (the handler
// loop's inline commands, generic invokes and text-engine expressions, and
// the compiled run's evals during the clicks, every one on the VM).  The
// compiled column runs in the interpreter's default exec mode, which
// TCLK_TCL_EXEC selects; the speedups are printed, not gated.
const char kHandler[] =
    "incr clicks; set i 0; while {$i < 8} {incr i; set msg \"click $clicks item $i\"}; "
    "set last $msg";

void WriteDispatchJson() {
  const int kClicks = 5000;
  // `mode` unset: the interpreter's default.  `stats_out` gets the eval
  // cache's counts for the clicks alone.
  auto run = [](bool cached, std::optional<tcl::ExecMode> mode,
                tcl::EvalCacheStats* stats_out, uint64_t* commands_out) {
    xsim::Server server;
    tk::App app(server, "bench");
    if (mode) {
      app.interp().set_exec_mode(*mode);
    }
    app.interp().set_eval_cache_enabled(cached);
    app.interp().Eval("set clicks 0");
    app.interp().Eval("frame .f -geometry 50x50");
    app.interp().Eval("pack append . .f {top}");
    // A representative handler: bump the counter, then refresh a handful of
    // dependent items the way a real callback updates widget state.  The
    // loop keeps the measurement about script execution rather than pure
    // event routing.
    app.interp().Eval(std::string("bind .f <Button-1> {") + kHandler + "}");
    app.Update();
    server.InjectPointerMove(25, 25);
    app.Update();
    app.interp().ClearEvalCache();
    const tcl::EvalCacheStats stats_before = app.interp().eval_cache_stats();
    uint64_t commands_before = app.interp().command_count();
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kClicks; ++i) {
      server.InjectClick(1);
      app.Update();
    }
    double seconds = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count() /
                     1e9;
    if (stats_out != nullptr) {
      const tcl::EvalCacheStats& after = app.interp().eval_cache_stats();
      stats_out->hits = after.hits - stats_before.hits;
      stats_out->misses = after.misses - stats_before.misses;
      stats_out->invalidations = after.invalidations - stats_before.invalidations;
      stats_out->fallbacks = after.fallbacks - stats_before.fallbacks;
      stats_out->compiles = after.compiles - stats_before.compiles;
      stats_out->compiled_evals = after.compiled_evals - stats_before.compiled_evals;
    }
    if (commands_out != nullptr) {
      *commands_out = app.interp().command_count() - commands_before;
    }
    return kClicks / seconds;
  };

  double uncached_ops = run(false, tcl::ExecMode::kInterp, nullptr, nullptr);
  tcl::EvalCacheStats stats;
  uint64_t interp_commands = 0;
  double cached_ops = run(true, tcl::ExecMode::kInterp, &stats, &interp_commands);
  uint64_t compiled_commands = 0;
  tcl::EvalCacheStats compiled_stats;
  double compiled_ops = run(true, std::nullopt, &compiled_stats, &compiled_commands);
  benchbytecode::LoopCensus census = benchbytecode::CensusFirstWhileLoop(kHandler);
  std::printf("\nFull click dispatch: %.0f/sec compiled, %.0f/sec cached, "
              "%.0f/sec uncached (compiled %.2fx over cached)\n",
              compiled_ops, cached_ops, uncached_ops, compiled_ops / cached_ops);

  benchjson::Writer json("bind_dispatch");
  json.AddNumber("ops_per_sec", cached_ops);
  json.AddNumber("ops_per_sec_uncached", uncached_ops);
  json.AddNumber("ops_per_sec_compiled", compiled_ops);
  json.AddNumber("speedup", cached_ops / uncached_ops);
  json.AddNumber("speedup_compiled_vs_cached", compiled_ops / cached_ops);
  json.AddInteger("cache_hits", stats.hits);
  json.AddInteger("cache_misses", stats.misses);
  // Deterministic per-run command counts; interp and compiled must agree
  // (the VM's cmdcount parity), and growth means handlers started doing
  // more per event.
  json.AddInteger("req_tcl_interp_commands", interp_commands);
  json.AddInteger("req_tcl_compiled_commands", compiled_commands);
  json.AddInteger("exact_tcl_compiled_evals", compiled_stats.compiled_evals);
  json.AddInteger("exact_tcl_evals", compiled_stats.hits + compiled_stats.misses);
  json.AddInteger("exact_tcl_loop_inline_commands", census.inline_commands);
  json.AddInteger("exact_tcl_loop_invokes", census.invokes);
  json.AddInteger("exact_tcl_loop_canonical_exprs", census.canonical_exprs);
  json.WriteFile();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteDispatchJson();
  return 0;
}
