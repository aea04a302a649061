// ui_session: one user at one Tk app on the direct transport.
//
// The app is the Section 7 app of bench/app_startup.cc plus a text pane
// preloaded with a seeded buffer of tens of thousands of lines, a canvas,
// and bindings that write %-substituted fields into the status label.  Each
// op is one seeded user action injected through Server::Inject*; it ends
// when the app is quiescent and its display flushed.  This is the paper's
// use case: Tk dispatch, bindings, the packer, redraw and the text B-tree do
// the work, Tcl runs short handler scripts (many of them one-shot, so they
// overflow the eval cache), and the wire does nothing.

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "perfbench/workloads.h"
#include "src/tk/app.h"
#include "src/tk/widgets/button.h"
#include "src/tk/widgets/listbox.h"
#include "src/tk/widgets/scrollbar.h"
#include "src/tk/widgets/text.h"
#include "src/xsim/server.h"
#include "src/xsim/wire/wire_server.h"

namespace perfbench {
namespace {

constexpr int kBufferLines = 60000;
constexpr int kTools = 8;
constexpr int kDragMotions = 4;

constexpr char kAppScript[] = R"tcl(
  frame .menubar -relief raised -borderwidth 1
  pack append . .menubar {top fillx}
  foreach m {File Edit View Help} {
    set lower [string tolower $m]
    menubutton .menubar.$lower -text $m -menu .menu$lower
    menu .menu$lower
    .menu$lower add command -label "$m item 1"
    .menu$lower add command -label "$m item 2"
    pack append .menubar .menubar.$lower {left}
  }
  proc pick {i} {
    global tool
    set tool $i
    set bars [lindex {| || ||| |||| ||||| |||||| ||||||| ||||||||} $i]
    .toolbar.info configure -text "tool $i $bars"
    .status configure -text "tool $i"
  }
  frame .toolbar
  pack append . .toolbar {top fillx}
  for {set i 0} {$i < 8} {incr i} {
    button .toolbar.b$i -text "T$i" -command "pick $i"
    pack append .toolbar .toolbar.b$i {left}
  }
  label .toolbar.info -text "no tool"
  pack append .toolbar .toolbar.info {right}
  frame .form
  pack append . .form {top fillx}
  foreach field {name address city state zip} {
    frame .form.$field
    label .form.$field.label -text $field -width 8 -anchor e
    entry .form.$field.entry -width 24
    pack append .form.$field .form.$field.label {left} .form.$field.entry {left expand fillx}
    pack append .form .form.$field {top fillx}
  }
  frame .pane
  pack append . .pane {top expand fill}
  scrollbar .pane.scroll -command ".pane.list view"
  listbox .pane.list -scroll ".pane.scroll set" -geometry 30x8
  pack append .pane .pane.scroll {right filly} .pane.list {left expand fill}
  for {set i 0} {$i < 40} {incr i} {
    .pane.list insert end "row $i"
  }
  frame .edit
  pack append . .edit {top expand fill}
  scrollbar .edit.scroll -command ".edit.text yview"
  text .edit.text -width 64 -height 20 -scroll ".edit.scroll set"
  pack append .edit .edit.scroll {right filly} .edit.text {left expand fill}
  canvas .sketch -width 240 -height 120
  pack append . .sketch {top}
  set dot [.sketch create rectangle 10 10 18 18]
  checkbutton .opt1 -text "Option one" -variable opt1
  radiobutton .opt2 -text "Mode A" -variable mode -value a
  radiobutton .opt3 -text "Mode B" -variable mode -value b
  scale .volume -from 0 -to 100 -label Volume
  pack append . .opt1 {top} .opt2 {top} .opt3 {top} .volume {top fillx}
  label .status -text Ready -relief sunken -anchor w
  pack append . .status {bottom fillx}
  bind .edit.text <KeyPress> {.status configure -text "key %K at %x,%y"}
  bind .sketch <B1-Motion> {
    .sketch coords $dot [expr {%x - 4}] [expr {%y - 4}] [expr {%x + 4}] [expr {%y + 4}]
    .status configure -text "drag %x %y"
  }
)tcl";

// A scrollbar's trough geometry as the user sees it (Scrollbar's default
// 15-pixel arrows inside a 2-pixel border), used to aim page clicks.
constexpr int kScrollArrow = 15;
constexpr int kScrollBorder = 2;

enum class Action { kType, kTool, kDrag, kScroll };

struct Point {
  int x = 0;
  int y = 0;
};

class UiSession : public Workload {
 public:
  explicit UiSession(const Options& options) : options_(options) {
    // The seeded buffer: kBufferLines lines of 2-11 words.
    Rng rng(Mix(options.seed) ^ 0x7e47);
    static const char* const kWords[] = {"proc", "set", "window", "pack", "bind", "event",
                                         "widget", "label", "button", "canvas", "text",
                                         "list", "option", "frame", "server", "display"};
    for (int line = 0; line < kBufferLines; ++line) {
      int words = rng.Range(2, 11);
      for (int w = 0; w < words; ++w) {
        buffer_ += kWords[rng.Below(16)];
        buffer_ += w + 1 < words ? " " : "\n";
      }
    }
  }

  std::string Describe() override {
    return std::string("transport=") + app_->display().transport_name() +
           " wire_backend=none tcl_exec=" + ExecModeName(app_->interp().exec_mode());
  }

  void Setup(Tracer& tracer) override {
    server_ = std::make_unique<xsim::Server>();
    app_ = std::make_unique<tk::App>(*server_, "perfbench");
    tcl::Interp& interp = app_->interp();
    if (interp.Eval(kAppScript) != tcl::Code::kOk) {
      Fail("app script: " + interp.result());
    }
    interp.SetVar("buffer", buffer_);
    {
      Tracer::Scope load(tracer, "tk.text.load");
      if (interp.Eval(".edit.text insert end $buffer") != tcl::Code::kOk) {
        Fail("buffer load: " + interp.result());
      }
    }
    interp.Eval("unset buffer");
    Pump(tracer);  // The first full display.

    editor_ = Find<tk::Text>(".edit.text");
    editor_bar_ = Find<tk::Scrollbar>(".edit.scroll");
    list_ = Find<tk::Listbox>(".pane.list");
    list_bar_ = Find<tk::Scrollbar>(".pane.scroll");
    sketch_ = Find<tk::Widget>(".sketch");
    status_ = Find<tk::Widget>(".status");
    for (int i = 0; i < kTools; ++i) {
      tools_[i] = Find<tk::Widget>(".toolbar.b" + std::to_string(i));
    }
    lines_ = editor_->tree().LineCount();
  }

  void Teardown() override {
    app_.reset();
    server_.reset();
  }

  void Prepare(int /*lane*/, uint64_t index) override {
    Rng rng = Rng::ForOp(options_.seed, 0, index);
    plan_ = OpPlan();
    uint64_t pick = rng.Below(10);
    if (pick < 4) {
      // Click into the text at a visible spot, type a letter, erase it.
      plan_.action = Action::kType;
      plan_.at = {rng.Range(4, editor_->width() * 3 / 4), rng.Range(4, editor_->height() * 3 / 4)};
      plan_.key = static_cast<xsim::KeySym>('a' + rng.Below(26));
      plan_.expect_status = "key BackSpace at " + std::to_string(plan_.at.x) + "," +
                            std::to_string(plan_.at.y);
    } else if (pick < 6) {
      plan_.action = Action::kTool;
      plan_.tool = static_cast<int>(rng.Below(kTools));
      plan_.expect_status = "tool " + std::to_string(plan_.tool);
    } else if (pick < 8) {
      plan_.action = Action::kDrag;
      plan_.at = {rng.Range(8, sketch_->width() - 8), rng.Range(8, sketch_->height() - 8)};
      for (Point& p : plan_.path) {
        p = {rng.Range(8, sketch_->width() - 8), rng.Range(8, sketch_->height() - 8)};
      }
      plan_.expect_status =
          "drag " + std::to_string(plan_.path.back().x) + " " + std::to_string(plan_.path.back().y);
    } else {
      PlanScroll(rng);
    }
    if (options_.corrupt_every != 0 && (index + 1) % options_.corrupt_every == 0) {
      plan_.expect_status += "?";
      plan_.expect_top += 1;
    }
    errors_before_ = app_->display().error_count();
    background_before_ = app_->background_error_count();
  }

  void Run(int /*lane*/, Tracer& tracer) override {
    switch (plan_.action) {
      case Action::kType: {
        MoveTo(Origin(editor_), plan_.at, tracer);
        Click(tracer);
        Inject(tracer, [&] { server_->InjectKeystroke(plan_.key); });
        Inject(tracer, [&] { server_->InjectKeystroke(xsim::kKeyBackSpace); });
        Pump(tracer);
        break;
      }
      case Action::kTool: {
        tk::Widget* tool = tools_[plan_.tool];
        MoveTo(Origin(tool), {tool->width() / 2, tool->height() / 2}, tracer);
        Click(tracer);
        break;
      }
      case Action::kDrag: {
        Point origin = Origin(sketch_);
        MoveTo(origin, plan_.at, tracer);
        Inject(tracer, [&] { server_->InjectButton(1, true); });
        Pump(tracer);
        for (const Point& p : plan_.path) {
          MoveTo(origin, p, tracer);
        }
        Inject(tracer, [&] { server_->InjectButton(1, false); });
        Pump(tracer);
        break;
      }
      case Action::kScroll: {
        tk::Scrollbar* bar = plan_.in_text ? editor_bar_ : list_bar_;
        MoveTo(Origin(bar), {bar->width() / 2, plan_.at.y}, tracer);
        Click(tracer);
        break;
      }
    }
  }

  bool Check(int /*lane*/) override {
    if (app_->display().error_count() != errors_before_ ||
        app_->background_error_count() != background_before_ ||
        editor_->tree().LineCount() != lines_) {
      return false;
    }
    if (plan_.action == Action::kScroll) {
      int top = plan_.in_text ? editor_->top_line() : list_->top_index();
      return top == plan_.expect_top;
    }
    std::vector<xsim::TextItem> shown = server_->WindowText(status_->window());
    return !shown.empty() && shown.back().text == plan_.expect_status;
  }

  Counts ReadCounts() override {
    tcl::Interp& interp = app_->interp();
    const tk::EventLoopStats& loop = app_->loop_stats();
    xsim::RequestCounters requests = server_->counters();
    xsim::WireCounters wire = server_->wire_counters();
    Counts counts = {
        {"tcl.commands", static_cast<double>(interp.command_count())},
        {"tcl.cache_hits", static_cast<double>(interp.eval_cache_stats().hits)},
        {"tcl.cache_misses", static_cast<double>(interp.eval_cache_stats().misses)},
        {"tcl.compiles", static_cast<double>(interp.eval_cache_stats().compiles)},
        {"tk.events", static_cast<double>(loop.events_dispatched)},
        {"tk.redraws", static_cast<double>(loop.redraws_drawn)},
        {"tk.repacks", static_cast<double>(loop.repacks_done)},
        {"tk.binding_matches", static_cast<double>(app_->bindings().match_count())},
        {"tk.text.lines_laid_out", static_cast<double>(editor_->layout().lines_laid_out())},
        {"xsim.display.flushes", static_cast<double>(app_->display().flush_count())},
        {"xsim.server.requests", static_cast<double>(requests.total)},
        {"xsim.server.draw_requests", static_cast<double>(requests.draw)},
        {"xsim.server.round_trips", static_cast<double>(requests.round_trips)},
        {"xsim.wire.frames", static_cast<double>(wire.frames_in + wire.frames_out)},
        {"xsim.wire.bytes", static_cast<double>(wire.bytes_in + wire.bytes_out)},
    };
    // Server::wire() would create a WireServer; only read it if one exists.
    if (server_->has_wire()) {
      counts["xsim.wire.peak_outbound_depth"] =
          static_cast<double>(server_->wire().stats().peak_outbound_depth);
    }
    return counts;
  }

 private:
  struct OpPlan {
    Action action = Action::kType;
    Point at;
    xsim::KeySym key = 0;
    int tool = 0;
    std::array<Point, kDragMotions> path;
    bool in_text = false;
    std::string expect_status;
    int expect_top = 0;
  };

  template <typename T>
  T* Find(const std::string& path) {
    T* widget = dynamic_cast<T*>(app_->FindWidget(path));
    if (widget == nullptr) {
      Fail("no widget " + path);
    }
    return widget;
  }

  // A page click on a scrollbar trough, above the slider to page back or
  // below it to page forward.  The direction is seeded but turned away from
  // an end of the view or of the trough, so the page never needs clamping.
  void PlanScroll(Rng& rng) {
    plan_.action = Action::kScroll;
    plan_.in_text = rng.Below(2) == 0;
    tk::Scrollbar* bar = plan_.in_text ? editor_bar_ : list_bar_;
    int first = bar->first_unit();
    int page = std::max(1, bar->window_units() - 1);
    int trough_start = kScrollBorder + kScrollArrow;
    int trough_end = bar->height() - kScrollBorder - kScrollArrow;
    double per_unit = static_cast<double>(std::max(trough_end - trough_start, 1)) /
                      std::max(bar->total_units(), 1);
    int slider_start = trough_start + static_cast<int>(first * per_unit);
    int slider_end = std::max(trough_start + static_cast<int>((bar->last_unit() + 1) * per_unit),
                              slider_start + 4);
    bool can_go_back = first - page >= 1 && slider_start - trough_start >= 2;
    bool can_go_forward = first + bar->window_units() + 2 * page <= bar->total_units() &&
                          trough_end - slider_end >= 2;
    int dir = rng.Below(2) == 0 ? -1 : 1;
    if (!can_go_back) {
      dir = 1;
    } else if (!can_go_forward) {
      dir = -1;
    }
    plan_.at.y = dir < 0 ? (trough_start + slider_start) / 2 : (slider_end + trough_end) / 2;
    // The scrollbar asks for unit first +/- page.  The listbox takes it as
    // an element index; the text takes it as a Tk line number, which counts
    // from 1, so its 0-based top line lands one lower.
    plan_.expect_top = first + dir * page - (plan_.in_text ? 1 : 0);
  }

  Point Origin(tk::Widget* widget) {
    std::optional<xsim::Point> origin = server_->AbsolutePosition(widget->window());
    return origin ? Point{origin->x, origin->y} : Point{};
  }

  template <typename F>
  void Inject(Tracer& tracer, F inject) {
    Tracer::Scope span(tracer, "xsim.server.inject");
    inject();
  }

  void MoveTo(Point origin, Point at, Tracer& tracer) {
    Inject(tracer, [&] { server_->InjectPointerMove(origin.x + at.x, origin.y + at.y); });
    Pump(tracer);
  }

  void Click(Tracer& tracer) {
    Inject(tracer, [&] { server_->InjectButton(1, true); });
    Inject(tracer, [&] { server_->InjectButton(1, false); });
    Pump(tracer);
  }

  // Dispatches events and runs idle work until nothing is pending and the
  // display is flushed.
  void Pump(Tracer& tracer) {
    xsim::Display& display = app_->display();
    while (true) {
      while (true) {
        xsim::Event event;
        bool got = false;
        {
          Tracer::Scope span(tracer, "xsim.display.poll");
          got = display.PollEvent(&event);
        }
        if (!got) {
          break;
        }
        Tracer::Scope span(tracer, "tk.dispatch");
        app_->DispatchEvent(event);
      }
      {
        Tracer::Scope span(tracer, "tk.idle");
        app_->UpdateIdleTasks();
      }
      Tracer::Scope span(tracer, "xsim.display.poll");
      if (!display.Pending()) {
        return;
      }
    }
  }

  const Options options_;
  std::string buffer_;
  std::unique_ptr<xsim::Server> server_;
  std::unique_ptr<tk::App> app_;
  tk::Text* editor_ = nullptr;
  tk::Scrollbar* editor_bar_ = nullptr;
  tk::Listbox* list_ = nullptr;
  tk::Scrollbar* list_bar_ = nullptr;
  tk::Widget* sketch_ = nullptr;
  tk::Widget* status_ = nullptr;
  tk::Widget* tools_[kTools] = {};
  int lines_ = 0;
  OpPlan plan_;
  uint64_t errors_before_ = 0;
  uint64_t background_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeUiSession(const Options& options, Plan* plan) {
  plan->warmup_ops = 2000;
  plan->ops_per_second = 5000;
  return std::make_unique<UiSession>(options);
}

}  // namespace perfbench
