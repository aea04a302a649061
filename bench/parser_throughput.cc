// Ablation: the cost of Tcl's everything-is-a-string design (Section 2).
//
// "There is only one official data type in Tcl: strings ... whenever
// information is passed from one place to another it is as a string."  This
// bench quantifies what that costs (and what stays cheap) by timing the
// interpreter on scripts that stress different paths: plain command
// dispatch, substitution, expression evaluation, list re-parsing, and
// procedure calls.  Supports the Section 7 claim that "the Tcl interpreter
// is fast enough to execute many hundreds of Tcl commands within a human
// response time".

// The eval cache (PR: parsed-script eval cache) changes the headline numbers
// here: scripts evaluated repeatedly -- loop bodies, proc bodies, bindings --
// skip tokenization entirely after the first pass.  Each BM_* case therefore
// runs in cached and uncached variants, and RunEvalCacheComparison measures
// the acceptance workload (a 10k-iteration while loop) end to end, emitting
// BENCH_parser_throughput.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <optional>

#include "bench/bench_json.h"
#include "bench/bytecode_census.h"
#include "src/tcl/interp.h"

namespace {

void BM_CommandDispatch(benchmark::State& state) {
  tcl::Interp interp;
  for (auto _ : state) {
    interp.Eval("set a 1");
  }
}
BENCHMARK(BM_CommandDispatch);

void BM_CommandDispatchUncached(benchmark::State& state) {
  tcl::Interp interp;
  interp.set_eval_cache_enabled(false);
  for (auto _ : state) {
    interp.Eval("set a 1");
  }
}
BENCHMARK(BM_CommandDispatchUncached);

void BM_VariableSubstitution(benchmark::State& state) {
  tcl::Interp interp;
  interp.Eval("set x hello; set y world");
  for (auto _ : state) {
    interp.Eval("set z \"$x $y $x $y\"");
  }
}
BENCHMARK(BM_VariableSubstitution);

void BM_VariableSubstitutionUncached(benchmark::State& state) {
  tcl::Interp interp;
  interp.set_eval_cache_enabled(false);
  interp.Eval("set x hello; set y world");
  for (auto _ : state) {
    interp.Eval("set z \"$x $y $x $y\"");
  }
}
BENCHMARK(BM_VariableSubstitutionUncached);

void BM_CommandSubstitution(benchmark::State& state) {
  tcl::Interp interp;
  for (auto _ : state) {
    interp.Eval("set z [format %d [expr 1+2]]");
  }
}
BENCHMARK(BM_CommandSubstitution);

void BM_ExprArithmetic(benchmark::State& state) {
  tcl::Interp interp;
  interp.Eval("set n 17");
  for (auto _ : state) {
    interp.Eval("expr {($n * 3 + 1) % 10 < 5 && $n != 0}");
  }
}
BENCHMARK(BM_ExprArithmetic);

// The string-design tax: every lindex re-parses the entire list.
void BM_ListReparse(benchmark::State& state) {
  tcl::Interp interp;
  interp.Eval("set l {}");
  for (int i = 0; i < state.range(0); ++i) {
    interp.Eval("lappend l element" + std::to_string(i));
  }
  for (auto _ : state) {
    interp.Eval("lindex $l " + std::to_string(state.range(0) - 1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ListReparse)->Range(8, 512)->Complexity(benchmark::oN);

void BM_ProcCall(benchmark::State& state) {
  tcl::Interp interp;
  interp.Eval("proc add {a b} {expr $a+$b}");
  for (auto _ : state) {
    interp.Eval("add 3 4");
  }
}
BENCHMARK(BM_ProcCall);

void BM_ProcCallUncached(benchmark::State& state) {
  tcl::Interp interp;
  interp.set_eval_cache_enabled(false);
  interp.Eval("proc add {a b} {expr $a+$b}");
  for (auto _ : state) {
    interp.Eval("add 3 4");
  }
}
BENCHMARK(BM_ProcCallUncached);

void BM_ForeachLoop(benchmark::State& state) {
  tcl::Interp interp;
  interp.Eval("set l {a b c d e f g h i j}");
  for (auto _ : state) {
    interp.Eval("foreach x $l {set y $x}");
  }
}
BENCHMARK(BM_ForeachLoop);

void BM_ForeachLoopUncached(benchmark::State& state) {
  tcl::Interp interp;
  interp.set_eval_cache_enabled(false);
  interp.Eval("set l {a b c d e f g h i j}");
  for (auto _ : state) {
    interp.Eval("foreach x $l {set y $x}");
  }
}
BENCHMARK(BM_ForeachLoopUncached);

void PrintHumanResponseCheck() {
  tcl::Interp interp;
  interp.Eval("proc work {} {set sum 0; for {set i 0} {$i<100} {incr i} "
              "{incr sum $i}; return $sum}");
  auto start = std::chrono::steady_clock::now();
  interp.Eval("work");
  double ms = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count() /
              1000.0;
  uint64_t commands = interp.command_count();
  std::printf("\nSection 7 claim check: a %llu-command script ran in %.3f ms\n",
              static_cast<unsigned long long>(commands), ms);
  std::printf("(\"many hundreds of Tcl commands within a human response time\" of "
              "~100 ms: %s)\n",
              ms < 100.0 ? "HOLDS" : "FAILS");
}

// Acceptance workload, now a three-mode sweep: a 10,000-iteration while loop
// whose body carries enough literal text that tokenization dominates the
// uncached run.
//
//   uncached  -- tree-walker, eval cache off: re-tokenizes everything.
//   cached    -- tree-walker + eval cache: parses once, walks every pass.
//   compiled  -- bytecode compiler + stack VM: the loop body is inlined
//                into the while's bytecode and never re-enters Eval.
//
// Besides the timings, the run emits deterministic counters -- exact
// properties of the script, not of the machine -- that
// check_bench_regression.py gates against
// bench/baselines/parser_throughput.json: `req_tcl_*` command counts, and
// `exact_tcl_*` keys that must match exactly, namely the compiled loop
// body's inline commands, generic invokes and text-engine expressions, and
// the compiled run's evals, every one of which must have run on the VM.
// The compiled column runs in the interpreter's default exec mode, so
// TCLK_TCL_EXEC=interp sends it to the tree-walker and fails the gate.
// The speedups are printed, not gated: wall-clock ratios move with the host.
void RunEvalCacheComparison() {
  // The loop body mimics a configuration-heavy Tk callback: a couple of
  // cheap commands plus large literal option strings.  Uncached, every
  // iteration re-scans all of that text; cached, it was tokenized once.
  std::string style_payload;
  for (int i = 0; i < 24; ++i) {
    style_payload +=
        "relief raised borderwidth 2 foreground black background gray "
        "anchor center padx 4 pady 4 font -adobe-courier-medium-r-normal ";
  }
  const std::string script =
      "set total 0\n"
      "set i 0\n"
      "while {$i < 10000} {\n"
      "  incr i\n"
      "  incr total $i\n"
      "  set msg \"item\\t$i\\tof\\tbatch\\n\"\n"
      "  set style {" + style_payload + "}\n"
      "  set layout {" + style_payload + "}\n"
      "}\n"
      "set total";
  const int kIterations = 10000;

  struct ModeResult {
    double ops = 0;
    tcl::EvalCacheStats stats;
    uint64_t commands = 0;
  };
  // `mode` unset: the interpreter's default, which TCLK_TCL_EXEC selects.
  auto run = [&](bool cached, std::optional<tcl::ExecMode> mode) {
    tcl::Interp interp;
    if (mode) {
      interp.set_exec_mode(*mode);
    }
    interp.set_eval_cache_enabled(cached);
    auto start = std::chrono::steady_clock::now();
    interp.Eval(script);
    double seconds = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count() /
                     1e9;
    ModeResult r;
    r.ops = kIterations / seconds;
    r.stats = interp.eval_cache_stats();
    r.commands = interp.command_count();
    return r;
  };

  ModeResult uncached = run(false, tcl::ExecMode::kInterp);
  ModeResult cached = run(true, tcl::ExecMode::kInterp);
  ModeResult compiled = run(true, std::nullopt);
  benchbytecode::LoopCensus census = benchbytecode::CensusFirstWhileLoop(script);
  double hit_rate = static_cast<double>(cached.stats.hits) /
                    static_cast<double>(cached.stats.hits + cached.stats.misses);
  double cached_speedup = cached.ops / uncached.ops;
  double compiled_speedup = compiled.ops / uncached.ops;
  double compiled_vs_cached = compiled.ops / cached.ops;

  std::printf("\nExec-mode comparison (10k-iteration while loop):\n");
  std::printf("  uncached: %12.0f iterations/sec\n", uncached.ops);
  std::printf("  cached:   %12.0f iterations/sec  (%.2fx over uncached)\n", cached.ops,
              cached_speedup);
  std::printf("  compiled: %12.0f iterations/sec  (%.2fx over uncached, %.2fx over cached)\n",
              compiled.ops, compiled_speedup, compiled_vs_cached);
  std::printf("  cache: %llu hits, %llu misses (%.1f%% hit rate), %llu fallbacks\n",
              static_cast<unsigned long long>(cached.stats.hits),
              static_cast<unsigned long long>(cached.stats.misses), hit_rate * 100.0,
              static_cast<unsigned long long>(cached.stats.fallbacks));
  std::printf("  compiled run: %llu compiles, %llu compiled evals, %llu commands\n",
              static_cast<unsigned long long>(compiled.stats.compiles),
              static_cast<unsigned long long>(compiled.stats.compiled_evals),
              static_cast<unsigned long long>(compiled.commands));
  std::printf("  loop body bytecode: %llu inline commands, %llu invokes, "
              "%llu text-engine expressions\n",
              static_cast<unsigned long long>(census.inline_commands),
              static_cast<unsigned long long>(census.invokes),
              static_cast<unsigned long long>(census.canonical_exprs));

  benchjson::Writer json("parser_throughput");
  json.AddNumber("ops_per_sec", cached.ops);
  json.AddNumber("ops_per_sec_uncached", uncached.ops);
  json.AddNumber("ops_per_sec_compiled", compiled.ops);
  json.AddNumber("speedup", cached_speedup);
  json.AddNumber("speedup_compiled", compiled_speedup);
  json.AddNumber("speedup_compiled_vs_cached", compiled_vs_cached);
  json.AddInteger("cache_hits", cached.stats.hits);
  json.AddInteger("cache_misses", cached.stats.misses);
  json.AddNumber("cache_hit_rate", hit_rate);
  // Deterministic counters for the regression gate: exact functions of the
  // script, so any drift is a semantic change, not noise.  The interp and
  // compiled command counts must stay equal -- the VM's cmdcount parity.
  json.AddInteger("req_tcl_interp_commands", cached.commands);
  json.AddInteger("req_tcl_compiled_commands", compiled.commands);
  json.AddInteger("exact_tcl_compiled_compiles", compiled.stats.compiles);
  json.AddInteger("exact_tcl_compiled_evals", compiled.stats.compiled_evals);
  json.AddInteger("exact_tcl_evals", compiled.stats.hits + compiled.stats.misses);
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
  PrintHumanResponseCheck();
  RunEvalCacheComparison();
  return 0;
}
