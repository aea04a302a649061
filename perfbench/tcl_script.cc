// tcl_script: application logic in Tcl on one tcl::Interp, with no Tk.
//
// Set-up sources a generated procedure library and runs its initializer.
// Each op is one seeded job of fixed shape and size: build 24-element lists
// with lappend/append, read them with foreach and with lindex/llength inside a
// loop, format strings, tally into an array, regexp over words, and eval
// freshly generated command text that misses the eval cache.  The result is
// checked against a value computed here in C++ from the job's inputs.
//
// This is parse, compile, the VM and the list/string commands -- including
// the hidden re-parse and copy costs of lists -- and nothing from Tk or
// xsim.  It uses the tcl layer the opposite way from ui_session: long cached
// loops here, one-shot handler scripts there.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr int kVocabulary = 160;
// A job takes about 0.3 ms on the reference host.  The hypervisor takes the
// host's vCPUs away for 1-40 ms at a time, 5-30 times a second; an op of
// length d is caught with a probability of about that rate times d, and the
// p99 holds still only while that share stays well under 1%.  Jobs of 200
// words (3 ms) had 1-4% of them caught, and their p99 jumped between 6 and
// 13 ms from run to run; at 80 words (1 ms) it still ranged 1.5-5.6 ms.
constexpr int kJobWords = 24;
constexpr int kStride = 4;
constexpr int kProcsPerTemplate = 300;

// The job every op runs; only its inputs change.
constexpr char kJobProc[] = R"tcl(
proc job_run {words salt} {
  set lens {}
  set text ""
  foreach w $words {
    lappend lens [string length $w]
    append text $w " "
  }
  set sum 0
  for {set i 0} {$i < [llength $lens]} {incr i 4} {
    incr sum [expr {[lindex $lens $i] * ($i % 7 + 1)}]
  }
  set hits 0
  foreach w $words {
    if {[info exists tally($w)]} {
      incr tally($w)
    } else {
      set tally($w) 1
    }
    if {[regexp {^[a-m][a-z]*e} $w]} {
      incr hits
    }
  }
  set best ""
  set bestn 0
  foreach w [lsort [array names tally]] {
    if {$tally($w) > $bestn} {
      set best $w
      set bestn $tally($w)
    }
  }
  set line [format "%s=%d/%d" $best $bestn [array size tally]]
  set total [eval [format {expr {%d * %d + %d}} $sum $hits $salt]]
  return [format "%d %d %s %d %d" $sum $hits $line $total [string length $text]]
}
)tcl";

// A library of utility procs, as an application would source at start-up,
// and an initializer that calls each one once.
std::string GenerateLibrary(Rng& rng) {
  std::string lib = kJobProc;
  for (int i = 0; i < kProcsPerTemplate; ++i) {
    std::string n = std::to_string(i);
    std::string c = std::to_string(rng.Range(1, 9));
    std::string w = std::to_string(rng.Range(6, 14));
    char last = static_cast<char>('c' + rng.Below(20));
    lib += "proc util_pad_" + n + " {s} {\n  set n [string length $s]\n  if {$n >= " + w +
           "} {return $s}\n  set out $s\n  while {[string length $out] < " + w +
           "} {append out .}\n  return $out\n}\n";
    lib += "proc util_sum_" + n + " {values} {\n  set total " + c +
           "\n  foreach v $values {incr total $v}\n  return $total\n}\n";
    lib += "proc util_table_" + n + " {rows} {\n  set out {}\n  foreach row $rows {\n"
           "    lappend out [format \"%-" + w + "s|%" + c +
           "d\" [lindex $row 0] [lindex $row 1]]\n  }\n  return [join $out \\n]\n}\n";
    lib += "proc util_count_" + n + " {words} {\n  foreach w $words {\n"
           "    if {[info exists seen($w)]} {incr seen($w)} else {set seen($w) 1}\n  }\n"
           "  set best {}\n  foreach name [lsort [array names seen]] {\n"
           "    if {$seen($name) > " + c + "} {lappend best $name}\n  }\n  return $best\n}\n";
    lib += "proc util_match_" + n + " {words} {\n  set hits {}\n  foreach w $words {\n"
           "    if {[regexp {^[a-" + std::string(1, last) +
           "][a-z]*$} $w]} {lappend hits $w}\n  }\n  return $hits\n}\n";
  }
  lib += "proc lib_init {} {\n  global registry\n  set words {alpha beta gamma delta epsilon "
         "zeta eta theta iota kappa lambda mu}\n  for {set i 0} {$i < " +
         std::to_string(kProcsPerTemplate) +
         "} {incr i} {\n"
         "    set registry(pad$i) [util_pad_$i w$i]\n"
         "    set registry(sum$i) [util_sum_$i {1 2 3 4 5 6 7 8}]\n"
         "    set registry(table$i) [util_table_$i {{a 1} {b 2} {c 3}}]\n"
         "    set registry(count$i) [util_count_$i [concat $words $words]]\n"
         "    set registry(match$i) [util_match_$i $words]\n"
         "  }\n  return [array size registry]\n}\n";
  return lib;
}

struct Job {
  std::string script;
  std::string expect;
};

class TclScript : public Workload {
 public:
  explicit TclScript(const Options& options) : options_(options) {
    Rng rng(Mix(options.seed) ^ 0x7c1);
    // Word lengths cycle through 3..9 so every seed's vocabulary has the same
    // length profile; only the letters are seeded.
    for (int i = 0; i < kVocabulary; ++i) {
      std::string word;
      int length = 3 + i % 7;
      for (int c = 0; c < length; ++c) {
        word += static_cast<char>('a' + rng.Below(26));
      }
      vocabulary_.push_back(word);
    }
    library_ = GenerateLibrary(rng);
  }

  std::string Describe() override {
    return std::string("transport=none wire_backend=none tcl_exec=") +
           ExecModeName(interp_->exec_mode());
  }

  void Setup(Tracer& tracer) override {
    interp_ = std::make_unique<tcl::Interp>();
    if (Eval(library_, tracer) != tcl::Code::kOk) {
      Fail("library: " + interp_->result());
    }
    if (Eval("lib_init", tracer) != tcl::Code::kOk ||
        interp_->result() != std::to_string(5 * kProcsPerTemplate)) {
      Fail("lib_init returned " + interp_->result());
    }
  }

  void Teardown() override { interp_.reset(); }

  void Prepare(int /*lane*/, uint64_t index) override {
    Rng rng = Rng::ForOp(options_.seed, 0, index);
    std::vector<const std::string*> words;
    job_.script = "job_run {";
    for (int i = 0; i < kJobWords; ++i) {
      words.push_back(&vocabulary_[rng.Below(kVocabulary)]);
      job_.script += *words.back();
      job_.script += i + 1 < kJobWords ? " " : "} ";
    }
    long long salt = static_cast<long long>(rng.Below(1000000));
    job_.script += std::to_string(salt);
    job_.expect = Expected(words, salt);
    if (options_.corrupt_every != 0 && (index + 1) % options_.corrupt_every == 0) {
      job_.expect += " ";
    }
  }

  void Run(int /*lane*/, Tracer& tracer) override { code_ = Eval(job_.script, tracer); }

  bool Check(int /*lane*/) override {
    return code_ == tcl::Code::kOk && interp_->result() == job_.expect;
  }

  Counts ReadCounts() override {
    const tcl::EvalCacheStats& cache = interp_->eval_cache_stats();
    return {
        {"tcl.commands", static_cast<double>(interp_->command_count())},
        {"tcl.cache_hits", static_cast<double>(cache.hits)},
        {"tcl.cache_misses", static_cast<double>(cache.misses)},
        {"tcl.compiles", static_cast<double>(cache.compiles)},
    };
  }

 private:
  tcl::Code Eval(const std::string& script, Tracer& tracer) {
    Tracer::Scope span(tracer, "tcl.eval");
    uint64_t misses = interp_->eval_cache_stats().misses;
    tcl::Code code = interp_->Eval(script);
    if (interp_->eval_cache_stats().misses != misses) {
      span.MarkFresh();
    }
    return code;
  }

  // job_run's result, computed independently of the interpreter.
  static std::string Expected(const std::vector<const std::string*>& words, long long salt) {
    long long sum = 0;
    long long hits = 0;
    long long text_length = 0;
    std::map<std::string, int> tally;
    for (size_t i = 0; i < words.size(); ++i) {
      const std::string& w = *words[i];
      if (i % kStride == 0) {
        sum += static_cast<long long>(w.size()) * static_cast<long long>(i % 7 + 1);
      }
      text_length += static_cast<long long>(w.size()) + 1;
      ++tally[w];
      if (w[0] >= 'a' && w[0] <= 'm' && w.find('e', 1) != std::string::npos) {
        ++hits;
      }
    }
    std::string best;
    int best_count = 0;
    for (const auto& [word, count] : tally) {
      if (count > best_count) {
        best = word;
        best_count = count;
      }
    }
    char out[256];
    std::snprintf(out, sizeof(out), "%lld %lld %s=%d/%zu %lld %lld", sum, hits, best.c_str(),
                  best_count, tally.size(), sum * hits + salt, text_length);
    return out;
  }

  const Options options_;
  std::vector<std::string> vocabulary_;
  std::string library_;
  std::unique_ptr<tcl::Interp> interp_;
  Job job_;
  tcl::Code code_ = tcl::Code::kOk;
};

}  // namespace

std::unique_ptr<Workload> MakeTclScript(const Options& options, Plan* plan) {
  plan->warmup_ops = 100;
  plan->ops_per_second = 3000;
  return std::make_unique<TclScript>(options);
}

}  // namespace perfbench
