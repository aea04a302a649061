// The benchmark harness: seeded inputs, closed-loop lanes, spans, and the
// metric arithmetic shared by every workload.
//
// A workload is driven as K closed-loop lanes (one per simulated user or
// client); each lane issues its next op only after the previous one
// finished.  Lane 0 runs on the calling thread, lanes 1..K-1 on threads the
// harness creates during set-up, so thread creation counts in setup_s and
// never lands in a timed window.
//
// Spans are recorded by the benchmark's own code around its calls into each
// layer (src/tcl, src/tk, src/xsim, src/xsim/wire); nothing inside the
// program is instrumented.  A tracer that is off costs one branch per call.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64: a seed names the same inputs on every platform and library.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  // The generator for op `index` of `lane` under run seed `seed`.
  static Rng ForOp(uint64_t seed, int lane, uint64_t index) {
    return Rng(Mix(seed) ^ Mix((static_cast<uint64_t>(lane) << 48) ^ index));
  }

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return Mix(state_);
  }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [lo, hi].
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

 private:
  uint64_t state_;
};

// Ops of set-up carry this id in their spans.
constexpr uint32_t kSetupOp = 0xffffffffu;

struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // Index into the same tracer's spans; -1 for a root.
  uint32_t op = 0;
  bool fresh = false;  // tcl.eval only: the Eval missed the eval cache.
};

// Per-thread span recorder.  Spans stay in memory until the run ends.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) {
        index_ = tracer_->Open(name);
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->Close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void MarkFresh() {
      if (tracer_ != nullptr) {
        tracer_->spans_[static_cast<size_t>(index_)].fresh = true;
      }
    }

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_op(uint32_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  int32_t Open(const char* name) {
    spans_.push_back(Span{name, NowNs(), 0, open_, op_, false});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void Close(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    open_ = span.parent;
  }

  bool enabled_ = false;
  uint32_t op_ = 0;
  int32_t open_ = -1;
  std::vector<Span> spans_;
};

// Per-op latencies in log-spaced buckets, kPerOctave to a doubling (each
// about 0.5% wide), so its memory is the same however many ops a run holds.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kPerOctave * kOctaves, 0) {}

  void Add(int64_t ns);
  void Merge(const LatencyHistogram& other);
  void Clear();
  uint64_t count() const { return count_; }
  // The nearest-rank percentile in ns, interpolated within its bucket.
  double Percentile(double p) const;

 private:
  static constexpr int kPerOctave = 128;
  static constexpr int kOctaves = 40;  // Up to 2^40 ns, about 18 minutes.

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// Cumulative per-layer counters, keyed by name (e.g. "tk.events").
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Closed-loop lanes driven concurrently (1 = one user).
  virtual int lanes() const { return 1; }
  // One line naming what was measured: transport, wire backend, exec mode.
  virtual std::string Describe() = 0;

  // Builds the shared state (servers, apps, interpreters).  Timed as part
  // of setup_s, together with SetupLane on every lane.
  virtual void Setup(Tracer& tracer) = 0;
  // Per-lane set-up, run on the lane's own thread.
  virtual void SetupLane(int /*lane*/, Tracer& /*tracer*/) {}
  // Destroys what Setup built (lane threads are already joined).
  virtual void Teardown() = 0;

  // Generates op `index`'s inputs and expected outputs (untimed).
  virtual void Prepare(int lane, uint64_t index) = 0;
  // Issues the op and waits for it to complete (the timed part).
  virtual void Run(int lane, Tracer& tracer) = 0;
  // Checks the op's outputs against Prepare's expectations (untimed).
  virtual bool Check(int lane) = 0;

  // Runs on every lane after each phase, once all lanes have stopped.
  virtual void FinishPhase(int /*lane*/) {}
  // Whole-phase checks (e.g. every broadcast reached every client).
  virtual bool CheckPhase(std::string* /*why*/) { return true; }

  // Cumulative counters, read while every lane is idle.
  virtual Counts ReadCounts() = 0;
  // Counters that are gauges rather than running totals; reset before a
  // measured pass.  Default: none.
  virtual void ResetGauges() {}
};

// Runs one job on every lane and waits for all of them: lane 0 on the
// calling thread, the others on threads created by the constructor.
class LanePool {
 public:
  explicit LanePool(int lanes);
  ~LanePool();
  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  void RunOnAll(const std::function<void(int lane)>& job);

 private:
  void WorkerMain(int lane);

  const int lanes_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t generation_ = 0;
  int running_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // Last: joined before the rest dies.
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans ("" = nowhere).
  std::string trace_out;
  // Test hook: every Nth op's expected output is deliberately wrong (0 = off).
  uint64_t corrupt_every = 0;
};

// The result line's numbers.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // name -> (value, unit), in the order they are printed.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  double Get(const std::string& name) const;
  std::string ToJson() const;
};

// Per-workload sizing of a run.
struct Plan {
  int setups = 11;            // Set-ups timed; setup_s is their median.
  uint64_t warmup_ops = 100;  // Per lane, untimed, before any window.
  // Per lane, roughly what the reference host completes in a second.  Sizes
  // the traced passes, so the per-layer counts do not depend on how fast
  // the host is.
  double ops_per_second = 100;
};

// Untraced run: end-to-end metrics over the whole timed window.  Traced
// run: per-layer metrics.  Both keep every thread of the process on one
// CPU, and move them all to the next CPU the process may use before each
// set-up, trial (a quarter second of the timed window) and traced pass, so
// that a run samples every CPU alike.
Report RunEndToEnd(Workload& workload, const Plan& plan, const Options& options);
Report RunTraced(Workload& workload, const Plan& plan, const Options& options);

// Unsets every variable that selects a transport, backend or exec mode, so
// the benchmark measures the defaults whatever the environment holds.
void ScrubEnvironment();

// Nearest-rank percentile of unsorted samples (sorts a copy).
double Percentile(std::vector<int64_t> samples, double p);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
