#include "perfbench/harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

// ---------------------------------------------------------------------------
// LanePool

LanePool::LanePool(int lanes) : lanes_(std::max(1, lanes)) {
  for (int lane = 1; lane < lanes_; ++lane) {
    threads_.emplace_back([this, lane] { WorkerMain(lane); });
  }
}

LanePool::~LanePool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void LanePool::RunOnAll(const std::function<void(int lane)>& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    running_ = lanes_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();
  job(0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return running_ == 0; });
  job_ = nullptr;
}

void LanePool::WorkerMain(int lane) {
  uint64_t seen = 0;
  while (true) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) {
        return;
      }
      seen = generation_;
      job = job_;
    }
    (*job)(lane);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    done_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// LatencyHistogram

void LatencyHistogram::Add(int64_t ns) {
  size_t bucket = 0;
  if (ns > 1) {
    bucket = std::min(static_cast<size_t>(std::log2(static_cast<double>(ns)) * kPerOctave),
                      buckets_.size() - 1);
  }
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

void LatencyHistogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  auto rank = static_cast<uint64_t>(std::max(1.0, std::ceil(p * static_cast<double>(count_))));
  uint64_t below = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (below + buckets_[i] >= rank) {
      // The rank's place among the bucket's samples, spread evenly over it.
      double within = (static_cast<double>(rank - below) - 0.5) / static_cast<double>(buckets_[i]);
      return std::exp2((static_cast<double>(i) + within) / kPerOctave);
    }
    below += buckets_[i];
  }
  return std::exp2(static_cast<double>(buckets_.size()) / kPerOctave);
}

// ---------------------------------------------------------------------------
// Helpers

namespace {

// A trial: the stretch of the timed window between two moves of the
// process to another CPU.
constexpr double kTrialSeconds = 0.25;

int64_t CpuNs(int who) {
  rusage usage{};
  getrusage(who, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Delta(const Counts& before, const Counts& after, const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) {
    return 0.0;
  }
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

// The CPUs the process could run on when it first asked, in ascending
// order; later runs in the same process start from the same set.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> found;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          found.push_back(cpu);
        }
      }
    }
    return found;
  }();
  return cpus;
}

// Restricts every thread of the process to `cpu`.  Threads created later
// inherit the mask of the thread that creates them.
void MoveProcessTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    throw std::runtime_error("cannot list /proc/self/task");
  }
  while (dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] != '.') {
      // A thread that exited since the listing is gone; nothing to move.
      sched_setaffinity(static_cast<pid_t>(std::atoi(entry->d_name)), sizeof(one), &one);
    }
  }
  closedir(tasks);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("cannot move to CPU " + std::to_string(cpu));
  }
}

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t passed = 0;
  int64_t wall_ns = 0;
  int64_t process_cpu_ns = 0;
  int64_t lane_cpu_ns = 0;  // Sum of the lanes' own threads.
  LatencyHistogram latency;
  bool phase_ok = true;
  std::string why;

  double throughput() const {
    return wall_ns > 0 ? static_cast<double>(attempted) * 1e9 / static_cast<double>(wall_ns) : 0.0;
  }
  double cpu_us_per_op() const {
    double ops = static_cast<double>(attempted);
    return attempted > 0 ? static_cast<double>(process_cpu_ns) / 1e3 / ops : 0.0;
  }
};

struct LaneState {
  Tracer tracer;
  uint64_t next_index = 0;
  uint64_t attempted = 0;
  uint64_t passed = 0;
  int64_t cpu_ns = 0;
  LatencyHistogram latency;  // This phase's ops.
};

// Owns the lane threads and runs the phases of one benchmark run.
class Runner {
 public:
  explicit Runner(Workload& workload)
      : workload_(workload),
        lanes_(static_cast<size_t>(std::max(1, workload.lanes()))),
        cpus_(AllowedCpus()) {}
  ~Runner() { TearDown(); }

  // Moves the whole process to the next CPU in turn; the set-up, trial or
  // pass that follows runs there.  On a shared host each vCPU slows down on
  // its own, for a fraction of a second to minutes, when another tenant
  // busies its core; a run that visits every CPU rides no one CPU's luck.
  // Keeping the threads on one CPU spares the wire's cross-thread hand-offs
  // a wait for a vCPU the hypervisor has taken away.
  void Place() {
    if (!cpus_.empty()) {
      MoveProcessTo(cpus_[next_cpu_++ % cpus_.size()]);
    }
  }

  // Builds everything up to the first op; returns its wall time in seconds.
  double SetUp(bool traced) {
    Place();
    for (LaneState& lane : lanes_) {
      lane.tracer.set_enabled(traced);
      lane.tracer.set_op(kSetupOp);
      lane.next_index = 0;
    }
    int64_t start = NowNs();
    workload_.Setup(lanes_[0].tracer);
    pool_ = std::make_unique<LanePool>(workload_.lanes());
    pool_->RunOnAll([this](int lane) {
      workload_.SetupLane(lane, lanes_[static_cast<size_t>(lane)].tracer);
    });
    int64_t end = NowNs();
    for (LaneState& lane : lanes_) {
      lane.tracer.set_enabled(false);
    }
    up_ = true;
    return static_cast<double>(end - start) / 1e9;
  }

  void TearDown() {
    if (up_) {
      pool_.reset();
      workload_.Teardown();
      up_ = false;
    }
  }

  // Runs ops on every lane until each lane did `ops` (if nonzero) or the
  // window of `duration_ns` (if nonzero) has passed.
  PhaseResult RunPhase(uint64_t ops, int64_t duration_ns, bool traced) {
    PhaseResult result;
    for (LaneState& lane : lanes_) {
      lane.attempted = 0;
      lane.passed = 0;
      lane.latency.Clear();
      lane.tracer.set_enabled(traced);
    }
    int64_t cpu_start = CpuNs(RUSAGE_SELF);
    int64_t start = NowNs();
    int64_t deadline = duration_ns > 0 ? start + duration_ns : 0;
    pool_->RunOnAll([&](int lane_index) {
      LaneState& lane = lanes_[static_cast<size_t>(lane_index)];
      int64_t thread_cpu_start = CpuNs(RUSAGE_THREAD);
      for (uint64_t n = 0; ops == 0 || n < ops; ++n) {
        if (deadline != 0 && NowNs() >= deadline) {
          break;
        }
        uint64_t index = lane.next_index++;
        workload_.Prepare(lane_index, index);
        lane.tracer.set_op(static_cast<uint32_t>(index));
        int64_t begin = NowNs();
        {
          Tracer::Scope op(lane.tracer, "op");
          workload_.Run(lane_index, lane.tracer);
        }
        lane.latency.Add(NowNs() - begin);
        ++lane.attempted;
        if (workload_.Check(lane_index)) {
          ++lane.passed;
        }
      }
      lane.cpu_ns = CpuNs(RUSAGE_THREAD) - thread_cpu_start;
    });
    result.wall_ns = NowNs() - start;
    result.process_cpu_ns = CpuNs(RUSAGE_SELF) - cpu_start;
    for (LaneState& lane : lanes_) {
      lane.tracer.set_enabled(false);
      result.attempted += lane.attempted;
      result.passed += lane.passed;
      result.lane_cpu_ns += lane.cpu_ns;
      result.latency.Merge(lane.latency);
    }
    pool_->RunOnAll([this](int lane) { workload_.FinishPhase(lane); });
    result.phase_ok = workload_.CheckPhase(&result.why);
    return result;
  }

  std::vector<LaneState>& lanes() { return lanes_; }

 private:
  Workload& workload_;
  std::vector<LaneState> lanes_;
  const std::vector<int> cpus_;
  size_t next_cpu_ = 0;
  std::unique_ptr<LanePool> pool_;
  bool up_ = false;
};

void NotePhase(const PhaseResult& phase, const char* what, Report* report) {
  if (!phase.phase_ok) {
    report->correct = false;
    report->problems.push_back(std::string(what) + ": " + phase.why);
  }
  if (phase.passed != phase.attempted) {
    report->correct = false;
    report->problems.push_back(std::string(what) + ": " +
                               std::to_string(phase.attempted - phase.passed) +
                               " ops failed their check");
  }
}

// (q3 - q1) / median, with quartiles by the exclusive method of Python's
// statistics.quantiles (clamped at the ends).
double QuartileSpread(std::vector<double> values) {
  size_t n = values.size();
  if (n < 2) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  auto quantile = [&](double p) {
    double pos = p * static_cast<double>(n + 1) - 1.0;
    pos = std::clamp(pos, 0.0, static_cast<double>(n - 1));
    size_t low = static_cast<size_t>(pos);
    size_t high = std::min(low + 1, n - 1);
    return values[low] + (pos - static_cast<double>(low)) * (values[high] - values[low]);
  };
  double median = Median(values);
  return median == 0.0 ? 0.0 : (quantile(0.75) - quantile(0.25)) / std::fabs(median);
}

// Self time per layer: each span's duration minus its children's.  The layer
// is the span name without its last component ("tk.dispatch" -> "tk"); the
// op span's own time is the benchmark's ("bench").
std::map<std::string, double> SelfTimeNsByLayer(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.op == kSetupOp) {
      continue;
    }
    std::string name = span.name;
    std::string layer = name == "op" ? "bench" : name.substr(0, name.rfind('.'));
    self[layer] += static_cast<double>(span.end_ns - span.start_ns - child_ns[i]);
  }
  return self;
}

void WriteSpans(const std::vector<LaneState>& lanes, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  // The first ops of the traced passes, every span: enough to replay a
  // waterfall by hand without writing hundreds of megabytes.
  constexpr size_t kSpansPerLane = 20000;
  out << "lane\top\tspan\tparent\tname\tstart_us\tdur_us\tfresh\n";
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    const std::vector<Span>& spans = lanes[lane].tracer.spans();
    int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (size_t i = 0; i < spans.size() && i < kSpansPerLane; ++i) {
      const Span& s = spans[i];
      out << lane << '\t' << s.op << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
          << static_cast<double>(s.start_ns - origin) / 1e3 << '\t'
          << static_cast<double>(s.end_ns - s.start_ns) / 1e3 << '\t' << (s.fresh ? 1 : 0)
          << '\n';
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points

double Percentile(std::vector<int64_t> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return static_cast<double>(samples[std::min(index, samples.size() - 1)]);
}

void ScrubEnvironment() {
  for (const char* name : {"TCLK_TRANSPORT", "TCLK_WIRE_BACKEND", "TCLK_TCL_EXEC",
                           "TCLK_REACTOR_LOOPS", "TCLK_REACTOR_WORKERS"}) {
    unsetenv(name);
  }
}

double Report::Get(const std::string& name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) {
      return value.first;
    }
  }
  return 0.0;
}

std::string Report::ToJson() const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", std::isfinite(value.first) ? value.first : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" + value.second + "\"}";
    first = false;
  }
  json += "}}";
  return json;
}

Report RunEndToEnd(Workload& workload, const Plan& plan, const Options& options) {
  Report report;
  Runner runner(workload);
  // Half the set-ups run before the trials and half after, so setup_s
  // samples the host at both ends of the run.
  std::vector<double> setup_s;
  auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      runner.TearDown();
      setup_s.push_back(runner.SetUp(false));
    }
  };
  set_up(plan.setups - plan.setups / 2);
  std::printf("perfbench %s seed=%llu: %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), workload.Describe().c_str());

  NotePhase(runner.RunPhase(plan.warmup_ops, 0, false), "warm-up", &report);

  // The timed window: every op of every trial counts.
  int count = std::max(1, static_cast<int>(std::lround(options.seconds / kTrialSeconds)));
  auto trial_ns = static_cast<int64_t>(kTrialSeconds * 1e9);
  LatencyHistogram latency;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t passed = 0;
  std::vector<double> trial_throughput, trial_p50, trial_p99, trial_cpu;
  for (int t = 0; t < count; ++t) {
    runner.Place();
    PhaseResult trial = runner.RunPhase(0, trial_ns, false);
    NotePhase(trial, "trial", &report);
    report.attempted += trial.attempted;
    passed += trial.passed;
    wall_ns += trial.wall_ns;
    cpu_ns += trial.process_cpu_ns;
    latency.Merge(trial.latency);
    trial_throughput.push_back(trial.throughput());
    trial_p50.push_back(trial.latency.Percentile(0.50) / 1e3);
    trial_p99.push_back(trial.latency.Percentile(0.99) / 1e3);
    trial_cpu.push_back(trial.cpu_us_per_op());
  }
  double rss = PeakRssMb();
  set_up(plan.setups / 2);
  runner.TearDown();

  if (latency.count() < 1000) {
    report.correct = false;
    report.problems.push_back("the run holds " + std::to_string(latency.count()) +
                              " timed ops; fewer than ten lie beyond its p99");
  }
  report.failed = report.attempted - passed;
  double ops = static_cast<double>(report.attempted);
  double throughput = wall_ns > 0 ? ops * 1e9 / static_cast<double>(wall_ns) : 0.0;
  double cpu_us = ops > 0 ? static_cast<double>(cpu_ns) / 1e3 / ops : 0.0;
  double p50_us = latency.Percentile(0.50) / 1e3;
  double p99_us = latency.Percentile(0.99) / 1e3;
  double success = ops > 0 ? static_cast<double>(passed) / ops : 0.0;
  report.Add("throughput_ops_s", throughput, "1/s");
  report.Add("latency_p50_us", p50_us, "us");
  report.Add("latency_p99_us", p99_us, "us");
  report.Add("cpu_us_per_op", cpu_us, "us");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", rss, "MB");
  report.Add("success_ratio", success, "ratio");

  std::printf("  %d trials of %.2f s, %llu ops, every one counted.  Spread: (q3 - q1) /\n"
              "  median over the trials (over the set-ups for setup_s); a diagnostic only.\n",
              count, kTrialSeconds, static_cast<unsigned long long>(report.attempted));
  std::printf("  %-18s %14s %-6s %8s\n", "metric", "value", "unit", "spread");
  auto row = [](const char* name, double value, const char* unit,
                const std::vector<double>& samples) {
    std::printf("  %-18s %14.4f %-6s %7.1f%%\n", name, value, unit,
                100.0 * QuartileSpread(samples));
  };
  row("throughput_ops_s", throughput, "1/s", trial_throughput);
  row("latency_p50_us", p50_us, "us", trial_p50);
  row("latency_p99_us", p99_us, "us", trial_p99);
  row("cpu_us_per_op", cpu_us, "us", trial_cpu);
  row("setup_s", Median(setup_s), "s", setup_s);
  std::printf("  %-18s %14.4f %-6s\n", "peak_rss_mb", rss, "MB");
  std::printf("  %-18s %14.4f %-6s\n", "success_ratio", success, "ratio");
  return report;
}

namespace {

// The traced run's per-layer metrics, in BENCHMARK.json order.
void AddLayerMetrics(const std::vector<LaneState>& lanes, const Counts& deltas, uint64_t ops,
                     const PhaseResult& plain, const std::vector<int64_t>& text_load_ns,
                     Report* report) {
  std::map<std::string, std::vector<int64_t>> durations;
  std::vector<int64_t> fresh_evals;
  for (const LaneState& lane : lanes) {
    for (const Span& span : lane.tracer.spans()) {
      if (span.op == kSetupOp) {
        continue;
      }
      int64_t ns = span.end_ns - span.start_ns;
      durations[span.name].push_back(ns);
      if (span.fresh) {
        fresh_evals.push_back(ns);
      }
    }
  }
  double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  auto span_us = [&](const char* name, double p) { return Percentile(durations[name], p) / 1e3; };
  auto delta = [&](const char* name) {
    auto it = deltas.find(name);
    return it == deltas.end() ? 0.0 : it->second;
  };
  auto count = [&](const char* name) { return delta(name) * per_op; };

  double hits = delta("tcl.cache_hits");
  double misses = delta("tcl.cache_misses");
  report->Add("tcl.eval_p50_us", span_us("tcl.eval", 0.50), "us");
  report->Add("tcl.eval_p99_us", span_us("tcl.eval", 0.99), "us");
  report->Add("tcl.fresh_eval_p50_us", Percentile(fresh_evals, 0.50) / 1e3, "us");
  report->Add("tcl.commands_per_op", count("tcl.commands"), "count/op");
  report->Add("tcl.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report->Add("tcl.compiles_per_op", count("tcl.compiles"), "count/op");
  report->Add("tk.dispatch_p50_us", span_us("tk.dispatch", 0.50), "us");
  report->Add("tk.dispatch_p99_us", span_us("tk.dispatch", 0.99), "us");
  report->Add("tk.idle_p50_us", span_us("tk.idle", 0.50), "us");
  report->Add("tk.idle_p99_us", span_us("tk.idle", 0.99), "us");
  report->Add("tk.events_per_op", count("tk.events"), "count/op");
  report->Add("tk.redraws_per_op", count("tk.redraws"), "count/op");
  report->Add("tk.repacks_per_op", count("tk.repacks"), "count/op");
  report->Add("tk.binding_matches_per_op", count("tk.binding_matches"), "count/op");
  report->Add("tk.text.lines_laid_out_per_op", count("tk.text.lines_laid_out"), "count/op");
  report->Add("tk.text.load_ms", Percentile(text_load_ns, 0.50) / 1e6, "ms");
  report->Add("xsim.display.poll_p50_us", span_us("xsim.display.poll", 0.50), "us");
  report->Add("xsim.display.enqueue_p50_us", span_us("xsim.display.enqueue", 0.50), "us");
  report->Add("xsim.display.flushes_per_op", count("xsim.display.flushes"), "count/op");
  report->Add("xsim.server.inject_p50_us", span_us("xsim.server.inject", 0.50), "us");
  report->Add("xsim.server.requests_per_op", count("xsim.server.requests"), "count/op");
  report->Add("xsim.server.draw_requests_per_op", count("xsim.server.draw_requests"), "count/op");
  report->Add("xsim.server.round_trips_per_op", count("xsim.server.round_trips"), "count/op");
  report->Add("xsim.wire.sync_p50_us", span_us("xsim.wire.sync", 0.50), "us");
  report->Add("xsim.wire.sync_p99_us", span_us("xsim.wire.sync", 0.99), "us");
  report->Add("xsim.wire.query_p50_us", span_us("xsim.wire.query", 0.50), "us");
  report->Add("xsim.wire.query_p99_us", span_us("xsim.wire.query", 0.99), "us");
  report->Add("xsim.wire.frames_per_op", count("xsim.wire.frames"), "count/op");
  report->Add("xsim.wire.bytes_per_op", count("xsim.wire.bytes"), "B/op");
  report->Add("xsim.wire.peak_outbound_depth", delta("xsim.wire.peak_outbound_depth"), "frames");
  // The client/server CPU split only means something when the lanes are wire
  // clients; it is taken from the untraced passes, which spans do not slow.
  bool wire = delta("xsim.wire.frames") > 0;
  double plain_per_op = plain.attempted > 0 ? 1.0 / static_cast<double>(plain.attempted) : 0.0;
  double client_us = wire ? static_cast<double>(plain.lane_cpu_ns) / 1e3 * plain_per_op : 0.0;
  double server_us =
      wire ? static_cast<double>(plain.process_cpu_ns - plain.lane_cpu_ns) / 1e3 * plain_per_op
           : 0.0;
  report->Add("xsim.wire.client_cpu_us_per_op", client_us, "us");
  report->Add("xsim.wire.server_cpu_us_per_op", server_us, "us");

  // Parent indices are per lane, so self time is summed lane by lane.
  std::map<std::string, double> self;
  for (const LaneState& lane : lanes) {
    for (const auto& [layer, ns] : SelfTimeNsByLayer(lane.tracer.spans())) {
      self[layer] += ns;
    }
  }
  static const char* const kLayers[] = {"bench", "tcl", "tk", "xsim.display", "xsim.server",
                                        "xsim.wire"};
  double total = 0.0;
  for (const char* layer : kLayers) {
    total += self[layer];
  }
  std::printf("  self-time waterfall, us per op (traced passes):\n");
  for (const char* layer : kLayers) {
    double us = self[layer] / 1e3 * per_op;
    report->Add(std::string("waterfall.") + layer + "_us_per_op", us, "us");
    int bar = total > 0 ? static_cast<int>(std::lround(40.0 * self[layer] / total)) : 0;
    std::printf("    %-13s %10.3f  %s\n", layer, us,
                std::string(static_cast<size_t>(bar), '#').c_str());
  }
}

}  // namespace

Report RunTraced(Workload& workload, const Plan& plan, const Options& options) {
  Report report;
  Runner runner(workload);
  std::vector<int64_t> text_load_ns;
  for (int i = 0; i < plan.setups; ++i) {
    runner.TearDown();
    runner.SetUp(true);
    for (const Span& span : runner.lanes()[0].tracer.spans()) {
      if (std::string(span.name) == "tk.text.load") {
        text_load_ns.push_back(span.end_ns - span.start_ns);
      }
    }
    for (LaneState& lane : runner.lanes()) {
      lane.tracer.Clear();
    }
  }
  std::printf("perfbench %s seed=%llu (traced): %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), workload.Describe().c_str());
  NotePhase(runner.RunPhase(plan.warmup_ops, 0, false), "warm-up", &report);

  // Untraced and traced passes of equal, fixed size, alternated so that a
  // drift in the host's speed falls on both; their throughput gap is the
  // tracing overhead.  Together they hold half a run's ops.
  constexpr int kRounds = 4;
  auto ops = std::max<uint64_t>(
      1, static_cast<uint64_t>(plan.ops_per_second * options.seconds / (4.0 * kRounds)));
  PhaseResult plain, traced;
  Counts deltas;
  workload.ResetGauges();
  for (int round = 0; round < kRounds; ++round) {
    for (bool trace : {false, true}) {
      runner.Place();
      Counts before = workload.ReadCounts();
      PhaseResult pass = runner.RunPhase(ops, 0, trace);
      NotePhase(pass, trace ? "traced pass" : "untraced pass", &report);
      PhaseResult& sum = trace ? traced : plain;
      sum.attempted += pass.attempted;
      sum.passed += pass.passed;
      sum.wall_ns += pass.wall_ns;
      sum.process_cpu_ns += pass.process_cpu_ns;
      sum.lane_cpu_ns += pass.lane_cpu_ns;
      if (trace) {
        Counts after = workload.ReadCounts();
        for (const auto& [name, value] : after) {
          deltas[name] += Delta(before, after, name);
        }
      }
    }
  }
  // A gauge is its value at the end, not a sum of deltas.
  Counts gauges = workload.ReadCounts();
  if (auto it = gauges.find("xsim.wire.peak_outbound_depth"); it != gauges.end()) {
    deltas[it->first] = it->second;
  }

  report.attempted = plain.attempted + traced.attempted;
  report.failed = report.attempted - plain.passed - traced.passed;
  AddLayerMetrics(runner.lanes(), deltas, traced.attempted, plain, text_load_ns, &report);
  double overhead = plain.throughput() > 0
                        ? 100.0 * (1.0 - traced.throughput() / plain.throughput())
                        : 0.0;
  report.Add("trace.overhead_pct", overhead, "%");
  std::printf("  tracing overhead: %.2f%% (%.1f ops/s untraced, %.1f traced, %llu ops each)\n",
              overhead, plain.throughput(), traced.throughput(),
              static_cast<unsigned long long>(traced.attempted));
  for (const auto& [name, value] : report.metrics) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), value.first, value.second.c_str());
  }
  if (!options.trace_out.empty()) {
    WriteSpans(runner.lanes(), options.trace_out);
  }
  return report;
}

}  // namespace perfbench
