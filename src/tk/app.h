// tk::App -- one Tk-based application: a Tcl interpreter wired to an X
// display, a tree of widgets rooted at ".", an event loop, and a name
// registered on the display so other applications can `send` to it.
//
// Multiple Apps can share one xsim::Server; each opens its own Display
// connection.  That reproduces the paper's environment where independent
// processes cooperate on one display: the `send` command, ICCCM selection
// transfers and the interpreter registry all flow through server-side state
// exactly as they would between real processes.

#ifndef SRC_TK_APP_H_
#define SRC_TK_APP_H_

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/tcl/interp.h"
#include "src/xsim/display.h"
#include "src/tk/bind.h"
#include "src/tk/option_db.h"
#include "src/tk/resource_cache.h"

namespace tk {

class Widget;
class Packer;
class Placer;
class SendChannel;
class SelectionManager;

// Event-loop observability: where the loop's time goes and how much work each
// kind of handler did.  Read from Tcl via `info latency`; reset with
// `info latency reset`.
struct EventLoopStats {
  // Dispatch-latency histogram buckets (upper bounds, exponential):
  // <1us, <4us, <16us, <64us, <256us, <1ms, <4ms, >=4ms.
  static constexpr size_t kHistogramBuckets = 8;
  static constexpr uint64_t kBucketBoundsNs[kHistogramBuckets - 1] = {
      1'000, 4'000, 16'000, 64'000, 256'000, 1'000'000, 4'000'000};

  uint64_t histogram[kHistogramBuckets] = {};
  uint64_t events_dispatched = 0;
  uint64_t dispatch_total_ns = 0;
  uint64_t dispatch_max_ns = 0;
  uint64_t timers_fired = 0;
  uint64_t idle_handlers_run = 0;
  uint64_t redraws_drawn = 0;
  uint64_t repacks_done = 0;
  // Deepest the client's event queue has been when the loop looked at it.
  size_t queue_depth_high_water = 0;

  void RecordDispatch(uint64_t ns) {
    ++events_dispatched;
    dispatch_total_ns += ns;
    if (ns > dispatch_max_ns) {
      dispatch_max_ns = ns;
    }
    size_t bucket = 0;
    while (bucket < kHistogramBuckets - 1 && ns >= kBucketBoundsNs[bucket]) {
      ++bucket;
    }
    ++histogram[bucket];
  }

  void NoteQueueDepth(size_t depth) {
    if (depth > queue_depth_high_water) {
      queue_depth_high_water = depth;
    }
  }
};

class App {
 public:
  // Creates the application: opens a display connection, creates the main
  // window ".", registers all Tk commands in a fresh interpreter, and
  // registers `name` in the display's interpreter registry (uniquified with
  // " #2" style suffixes if taken).
  App(xsim::Server& server, std::string name);
  // Same, but with an explicit transport choice; the two-argument form picks
  // it from the TCLK_TRANSPORT environment variable (direct by default).
  App(xsim::Server& server, std::string name, xsim::wire::TransportKind transport);
  ~App();

  App(const App&) = delete;
  App& operator=(const App&) = delete;

  tcl::Interp& interp() { return *interp_; }
  xsim::Display& display() { return *display_; }
  xsim::Server& server() { return display_->server(); }
  const std::string& name() const { return name_; }

  ResourceCache& resources() { return *resources_; }
  OptionDb& options() { return *options_; }
  BindingTable& bindings() { return *bindings_; }
  Packer& packer() { return *packer_; }
  Placer& placer() { return *placer_; }
  SendChannel& send_channel() { return *send_; }
  SelectionManager& selection() { return *selection_; }

  // --- Widget registry (Section 3.1: window path names) -----------------------

  Widget* main_window() { return FindWidget("."); }
  Widget* FindWidget(std::string_view path);
  // Takes ownership; registers the widget command named after the path.
  Widget* AddWidget(std::unique_ptr<Widget> widget);
  // Destroys `path` and its whole subtree (deepest first).
  bool DestroyWidget(std::string_view path);
  std::vector<std::string> WidgetPaths() const;
  // Children paths of `path`, in path order.
  std::vector<std::string> ChildPaths(std::string_view path) const;

  // --- Event loop (Section 3.2) -------------------------------------------------

  // Processes one pending X event, due timer, or idle handler.  Returns
  // false if nothing was ready.
  bool DoOneEvent();
  // Processes events until none are pending (the `update` command).
  void Update();
  // Runs only idle callbacks (the `update idletasks` command).
  void UpdateIdleTasks();

  uint64_t CreateTimerMs(int64_t ms, std::function<void()> callback);
  void DeleteTimer(uint64_t id);
  void DoWhenIdle(std::function<void()> callback);

  // Dispatches an X event to widget handlers and the binding table.  Public
  // so tests can synthesize events without the server.
  void DispatchEvent(const xsim::Event& event);

  // Pumps the event loops of every App registered in this process until
  // `done` returns true (used by send and selection retrieval, standing in
  // for the blocking-with-dispatch loops of real Tk).  Returns false once
  // `timeout_ms` of wall-clock time passes without `done` becoming true
  // (negative = kDefaultWaitTimeoutMs).  While nothing is pending anywhere
  // the loop sleeps until the next timer is due instead of spinning.
  static constexpr int64_t kDefaultWaitTimeoutMs = 2000;
  bool WaitFor(const std::function<bool()>& done, int64_t timeout_ms = -1);

  // All live Apps in this process (the in-process stand-in for "all clients
  // of the display").
  static const std::vector<App*>& AllApps();

  // Reports an error from a callback with no caller to return it to (a
  // binding, an `after` script, a scrollbar command): invokes the Tcl
  // `tkerror` procedure if the application defined one, else prints to
  // stderr -- Tk's background-error convention.  Guards against recursion
  // (a tkerror that itself errors falls back to stderr) and counts every
  // report for `info faults`.
  void BackgroundError(const std::string& message);
  uint64_t background_error_count() const { return background_errors_; }
  void reset_background_error_count() { background_errors_ = 0; }

  // Schedules `widget` for a full-window redraw at idle time (coalesced).
  void ScheduleRedraw(Widget* widget);
  // Schedules a partial redraw: `area` (window coordinates) is unioned into
  // the widget's pending damage, so however many rects arrive before the
  // idle pass the widget repaints its damaged region exactly once.
  void ScheduleRedraw(Widget* widget, const xsim::Rect& area);
  // Schedules a relayout of geometry management in `parent` at idle time.
  void ScheduleRepack(Widget* parent);

  // True once the destructor has begun (widgets check this to skip X calls
  // during teardown).
  bool closing() const { return closing_; }

  // --- Connection resilience (PR 7) ---------------------------------------
  //
  // The event loop heartbeats the display every `heartbeat_interval_ms`
  // (wire transports only; 0 disables).  A missed pong trips the display's
  // io-error path, which reconnects, replays the session journal, and then
  // calls back into the App -- which schedules a full redraw of every
  // widget, since replay restores structure but not pixels.
  static constexpr int64_t kDefaultHeartbeatIntervalMs = 3000;
  void set_heartbeat_interval_ms(int64_t ms) { heartbeat_interval_ms_ = ms; }
  int64_t heartbeat_interval_ms() const { return heartbeat_interval_ms_; }
  // Pong deadline for each heartbeat probe.
  void set_heartbeat_timeout_ms(uint64_t ms) { heartbeat_timeout_ms_ = ms; }
  uint64_t heartbeat_timeout_ms() const { return heartbeat_timeout_ms_; }
  // Reconnects observed by this App (the display counts attempts; this
  // counts recoveries that reached the redraw stage).
  uint64_t reconnects_seen() const { return reconnects_seen_; }

  // Storage for `wm title` (the simulated window manager's title bars).
  std::map<std::string, std::string>& wm_titles() { return wm_titles_; }

  EventLoopStats& loop_stats() { return loop_stats_; }
  const EventLoopStats& loop_stats() const { return loop_stats_; }
  void ResetLoopStats() { loop_stats_ = EventLoopStats(); }

 private:
  // One pending redraw: the widget plus the bounding box of all damage
  // reported for it since the last idle pass (`full` overrides the box with
  // a whole-window repaint).
  struct DamageEntry {
    Widget* widget = nullptr;
    xsim::Rect area;
    bool full = false;
  };

  using WidgetMap = std::map<std::string, std::unique_ptr<Widget>, std::less<>>;
  using WidgetRange = std::pair<WidgetMap::const_iterator, WidgetMap::const_iterator>;

  // The registry entries that descend from `path` (plus `path` itself when
  // it is "."), so subtree walks cost the subtree, not the registry.
  WidgetRange SubtreeRange(std::string_view path) const;
  void RegisterCommands();
  void ProcessIdle();
  // Installed as the display's reconnect handler: full redraw of the tree.
  void HandleReconnect();
  // Sends a heartbeat when the interval has elapsed.
  void MaybeHeartbeat();

  std::unique_ptr<tcl::Interp> interp_;
  std::unique_ptr<xsim::Display> display_;
  std::string name_;

  WidgetMap widgets_;
  std::map<xsim::WindowId, Widget*> window_to_widget_;

  std::unique_ptr<ResourceCache> resources_;
  std::unique_ptr<OptionDb> options_;
  std::unique_ptr<BindingTable> bindings_;
  std::unique_ptr<Packer> packer_;
  std::unique_ptr<Placer> placer_;
  std::unique_ptr<SendChannel> send_;
  std::unique_ptr<SelectionManager> selection_;

  // Pending `after` timers in firing order: due time, then id (creation
  // order).  timer_due_ finds a timer's key for DeleteTimer.
  using TimerKey = std::pair<std::chrono::steady_clock::time_point, uint64_t>;
  std::map<TimerKey, std::function<void()>> timers_;
  std::map<uint64_t, std::chrono::steady_clock::time_point> timer_due_;
  uint64_t next_timer_id_ = 1;
  std::deque<std::function<void()>> idle_;
  // The idle queues, in scheduling order.  Each queued widget records its
  // entry's position (Widget::redraw_slot_ / repack_slot_), so scheduling
  // dedups in O(1) and a destroy nulls the entry out in place.  The repack
  // queue is consumed from repack_head_ and cleared once drained.
  std::vector<DamageEntry> redraw_queue_;
  std::vector<Widget*> repack_queue_;
  size_t repack_head_ = 0;
  std::map<std::string, std::string> wm_titles_;  // Per-toplevel `wm title`.
  bool closing_ = false;
  uint64_t background_errors_ = 0;
  bool in_background_error_ = false;
  EventLoopStats loop_stats_;
  int64_t heartbeat_interval_ms_ = kDefaultHeartbeatIntervalMs;
  uint64_t heartbeat_timeout_ms_ = 1000;
  std::chrono::steady_clock::time_point last_heartbeat_;
  uint64_t reconnects_seen_ = 0;

  friend class Widget;
};

}  // namespace tk

#endif  // SRC_TK_APP_H_
