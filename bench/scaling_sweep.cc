// Scaling sweep: what one common operation costs next to 100 and next to
// 10,000 existing windows or widgets.
//
// Section 3.3 of the paper counts on each Tk operation doing a small, fixed
// amount of work, so an application of "many tens of widgets" stays
// interactive.  A per-operation cost that grows with the size of the session
// breaks that as soon as the session is large.  For each operation this
// bench builds two sessions, one of each size, and times the operation in
// both, interleaving the repeats and alternating which size runs first; the
// gated figure is the median over repeats of the 10k/100 cost ratio.  A
// cost that stays flat reads about 1x, a logarithmic one a little more, and
// a linear one 50x or more over this range.
//
//   * xsim requests, on the direct and the wire transport: create+destroy
//     of a leaf, reparent, configure, map/unmap, raise, change/delete
//     property, GetProperty.  The session is a container holding N leaf
//     windows that each carry a property; every operation ends with a flush
//     (GetProperty is a round trip of its own), so the server's share of
//     the work is inside the timing.
//   * Tk commands on the direct transport: `frame` followed by `destroy`
//     next to N sibling frames, `configure` of one frame, `winfo children`
//     of a small parent, and the per-widget cost of creating N frames before
//     one `update`.
//
// Writes BENCH_scaling.json: `scaling_<case>` (the gated ratio) plus
// `us_<case>_100` / `us_<case>_10k` (median microseconds per operation).
// scripts/check_bench_regression.py caps every ratio through
// MAX_SCALING_RATIOS.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/tk/app.h"
#include "src/xsim/display.h"
#include "src/xsim/server.h"

namespace {

constexpr int kSmall = 100;
constexpr int kLarge = 10000;
constexpr int kRepeats = 9;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
      .count();
}

// One operation, ready to run against one pre-built session.
class Session {
 public:
  virtual ~Session() = default;
  // Times one batch of the operation; returns microseconds per operation.
  virtual double Run() = 0;
};

// An operation timed as `iterations` back-to-back steps.
class LoopSession : public Session {
 public:
  explicit LoopSession(int iterations) : iterations_(iterations) {}

  double Run() override {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations_; ++i) {
      Step(i);
    }
    return MicrosSince(start) / iterations_;
  }

 protected:
  virtual void Step(int i) = 0;

 private:
  int iterations_;
};

// --- xsim requests -----------------------------------------------------------

enum class XOp { kCreateDestroy, kReparent, kConfigure, kMapUnmap, kRaise, kProperty,
                 kGetProperty };

class XsimSession : public LoopSession {
 public:
  XsimSession(int windows, xsim::wire::TransportKind transport, XOp op, int iterations)
      : LoopSession(iterations), op_(op) {
    display_ = xsim::Display::Open(server_, "sweep", transport);
    xsim::Display& d = *display_;
    container_ = d.CreateWindow(d.root(), 0, 0, 400, 400);
    other_ = d.CreateWindow(d.root(), 0, 0, 400, 400);
    moving_ = d.CreateWindow(container_, 0, 0, 10, 10);
    held_ = d.InternAtom("HELD");
    churn_ = d.InternAtom("CHURN");
    std::vector<xsim::WindowId> leaves;
    leaves.reserve(windows);
    for (int i = 0; i < windows; ++i) {
      xsim::WindowId leaf = d.CreateWindow(container_, i % 97, i % 89, 10, 10);
      d.ChangeProperty(leaf, held_, "leaf " + std::to_string(i));
      leaves.push_back(leaf);
    }
    // The operations touch the same few leaves, spread over the tree, at
    // every size: the sweep measures what a request costs beside the rest
    // of the session, not how many cold windows it can visit.
    for (size_t i = 0; i < kTouched; ++i) {
      touched_.push_back(leaves[i * leaves.size() / kTouched]);
    }
    d.Sync();
  }

 protected:
  void Step(int i) override {
    xsim::Display& d = *display_;
    xsim::WindowId leaf = touched_[static_cast<size_t>(i) % kTouched];
    switch (op_) {
      case XOp::kCreateDestroy:
        d.DestroyWindow(d.CreateWindow(container_, 1, 1, 10, 10));
        break;
      case XOp::kReparent:
        d.ReparentWindow(moving_, i % 2 == 0 ? other_ : container_, 0, 0);
        break;
      case XOp::kConfigure:
        d.MoveResizeWindow(leaf, i % 7, i % 5, 10 + i % 2, 10);
        break;
      case XOp::kMapUnmap:
        d.MapWindow(leaf);
        d.UnmapWindow(leaf);
        break;
      case XOp::kRaise:
        // Alternately the two bottom-most leaves: after the first round
        // each raise lifts the lower of the two top windows.
        d.RaiseWindow(touched_[i % 2]);
        break;
      case XOp::kProperty:
        d.ChangeProperty(leaf, churn_, "churn");
        d.DeleteProperty(leaf, churn_);
        break;
      case XOp::kGetProperty:
        benchmark::DoNotOptimize(d.GetProperty(leaf, held_));
        return;  // A round trip: nothing left to flush.
    }
    d.Flush();
  }

 private:
  xsim::Server server_;
  std::unique_ptr<xsim::Display> display_;
  XOp op_;
  xsim::WindowId container_ = xsim::kNone;
  xsim::WindowId other_ = xsim::kNone;
  xsim::WindowId moving_ = xsim::kNone;
  xsim::Atom held_ = 0;
  xsim::Atom churn_ = 0;
  static constexpr size_t kTouched = 16;
  std::vector<xsim::WindowId> touched_;
};

// --- Tk commands ---------------------------------------------------------------

// Runs one script per step in an app whose ".f" holds N frames and whose
// ".small" holds three.
class TkSession : public LoopSession {
 public:
  TkSession(int widgets, std::vector<std::string> scripts, int iterations)
      : LoopSession(iterations),
        app_(server_, "sweep", xsim::wire::TransportKind::kDirect),
        scripts_(std::move(scripts)) {
    Eval("frame .f; for {set i 0} {$i < " + std::to_string(widgets) +
         "} {incr i} {frame .f.c$i}; frame .small; frame .small.a; frame .small.b; "
         "frame .small.c; update");
  }

 protected:
  void Step(int i) override { Eval(scripts_[static_cast<size_t>(i) % scripts_.size()]); }

  void Eval(const std::string& script) {
    if (app_.interp().Eval(script) != tcl::Code::kOk) {
      std::fprintf(stderr, "scaling_sweep: %s: %s\n", script.c_str(),
                   app_.interp().result().c_str());
      std::exit(1);
    }
  }

 private:
  xsim::Server server_;
  tk::App app_;
  std::vector<std::string> scripts_;
};

// Creates N frames in an empty app and updates once, timed per frame; the
// frames are destroyed again after the timing.
class TkCreateManySession : public Session {
 public:
  explicit TkCreateManySession(int widgets)
      : app_(server_, "sweep", xsim::wire::TransportKind::kDirect),
        create_("frame .k; for {set i 0} {$i < " + std::to_string(widgets) +
                "} {incr i} {frame .k.w$i}; update"),
        widgets_(widgets) {}

  double Run() override {
    auto start = std::chrono::steady_clock::now();
    Eval(create_);
    double us = MicrosSince(start);
    Eval("destroy .k; update");
    return us / widgets_;
  }

 private:
  void Eval(const std::string& script) {
    if (app_.interp().Eval(script) != tcl::Code::kOk) {
      std::fprintf(stderr, "scaling_sweep: %s\n", app_.interp().result().c_str());
      std::exit(1);
    }
  }

  xsim::Server server_;
  tk::App app_;
  std::string create_;
  int widgets_;
};

// --- The sweep ---------------------------------------------------------------------

struct Point {
  std::string name;
  double us_small = 0;
  double us_large = 0;
  double ratio = 0;
};

// Runs an operation against a small and a large session, kRepeats times
// each, interleaved and alternating which size goes first.
Point Measure(const std::string& name,
              const std::function<std::unique_ptr<Session>(int)>& make) {
  std::unique_ptr<Session> small = make(kSmall);
  std::unique_ptr<Session> large = make(kLarge);
  small->Run();  // Warm-up: caches, allocator, the eval cache.
  large->Run();
  std::vector<double> smalls;
  std::vector<double> larges;
  std::vector<double> ratios;
  for (int r = 0; r < kRepeats; ++r) {
    double s = 0;
    double l = 0;
    if (r % 2 == 0) {
      s = small->Run();
      l = large->Run();
    } else {
      l = large->Run();
      s = small->Run();
    }
    smalls.push_back(s);
    larges.push_back(l);
    ratios.push_back(l / s);
  }
  Point point{name, Median(smalls), Median(larges), Median(ratios)};
  std::printf("  %-28s %9.2f us %9.2f us %7.2fx\n", name.c_str(), point.us_small,
              point.us_large, point.ratio);
  std::fflush(stdout);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  // Strips --benchmark_* flags (run_benches.sh passes them to every bench).
  benchmark::Initialize(&argc, argv);

  std::printf("scaling_sweep: per-operation cost next to %d and %d windows/widgets "
              "(median of %d interleaved repeats)\n\n",
              kSmall, kLarge, kRepeats);
  std::printf("  %-28s %12s %12s %8s\n", "operation", "at 100", "at 10k", "10k/100");
  std::vector<Point> points;

  struct XCase {
    const char* name;
    XOp op;
  };
  const XCase xcases[] = {
      {"create_destroy", XOp::kCreateDestroy}, {"reparent", XOp::kReparent},
      {"configure", XOp::kConfigure},          {"map_unmap", XOp::kMapUnmap},
      {"raise", XOp::kRaise},                  {"property", XOp::kProperty},
      {"get_property", XOp::kGetProperty},
  };
  struct Transport {
    const char* name;
    xsim::wire::TransportKind kind;
    int iterations;  // Enough for a few milliseconds per timing.
  };
  const Transport transports[] = {{"direct", xsim::wire::TransportKind::kDirect, 2000},
                                  {"wire", xsim::wire::TransportKind::kWire, 200}};
  for (const Transport& transport : transports) {
    for (const XCase& xcase : xcases) {
      points.push_back(Measure(std::string(transport.name) + "_" + xcase.name,
                               [&](int n) {
                                 return std::make_unique<XsimSession>(
                                     n, transport.kind, xcase.op, transport.iterations);
                               }));
    }
  }

  auto tk_case = [&](const std::string& name, std::vector<std::string> scripts,
                     int iterations) {
    points.push_back(Measure(name, [&](int n) {
      return std::make_unique<TkSession>(n, scripts, iterations);
    }));
  };
  tk_case("tk_frame_destroy", {"frame .f.x; update; destroy .f.x; update"}, 200);
  tk_case("tk_configure",
          {".f.c0 configure -background red; update",
           ".f.c0 configure -background blue; update"},
          400);
  tk_case("tk_winfo_children", {"winfo children .small"}, 2000);
  points.push_back(Measure("tk_create_per_widget",
                           [](int n) { return std::make_unique<TkCreateManySession>(n); }));

  benchjson::Writer json("scaling");
  json.AddInteger("size_small", kSmall);
  json.AddInteger("size_large", kLarge);
  json.AddInteger("repeats", kRepeats);
  for (const Point& point : points) {
    json.AddNumber("us_" + point.name + "_100", point.us_small);
    json.AddNumber("us_" + point.name + "_10k", point.us_large);
    json.AddNumber("scaling_" + point.name, point.ratio);
  }
  json.WriteFile();
  return 0;
}
