#include "src/tk/app.h"

#include <algorithm>
#include <thread>

#include "src/tk/pack.h"
#include "src/tk/selection.h"
#include "src/tk/send.h"
#include "src/tk/widget.h"
#include "src/tk/widgets/frame.h"

namespace tk {
namespace {

std::vector<App*>& MutableAppRegistry() {
  static std::vector<App*> apps;
  return apps;
}

}  // namespace

const std::vector<App*>& App::AllApps() { return MutableAppRegistry(); }

App::App(xsim::Server& server, std::string name)
    : App(server, std::move(name), xsim::wire::TransportKindFromEnv()) {}

App::App(xsim::Server& server, std::string name, xsim::wire::TransportKind transport) {
  interp_ = std::make_unique<tcl::Interp>();
  display_ = xsim::Display::Open(server, name, transport);
  display_->set_reconnect_handler([this] { HandleReconnect(); });
  last_heartbeat_ = std::chrono::steady_clock::now();
  resources_ = std::make_unique<ResourceCache>(*display_);
  options_ = std::make_unique<OptionDb>();
  bindings_ = std::make_unique<BindingTable>(*this);
  packer_ = std::make_unique<Packer>(*this);
  placer_ = std::make_unique<Placer>(*this);
  selection_ = std::make_unique<SelectionManager>(*this);
  send_ = std::make_unique<SendChannel>(*this);

  MutableAppRegistry().push_back(this);

  // The main window "." -- a frame covering the application's top level.
  // The simulated window manager cascades top-levels so that concurrent
  // applications don't overlap (as twm would place them).
  auto main = std::make_unique<Frame>(*this, ".");
  Widget* main_ptr = AddWidget(std::move(main));
  size_t app_index = MutableAppRegistry().size() - 1;
  int wm_x = static_cast<int>((app_index % 5) * 250);
  int wm_y = static_cast<int>(((app_index / 5) % 4) * 250);
  main_ptr->SetAssignedGeometry(wm_x, wm_y, 200, 200);
  main_ptr->Map();

  RegisterCommands();  // Defined in commands.cc.

  name_ = send_->Register(name);
  interp_->SetVar("tk_appname", name_);
  // Make the comm window and registry entry visible to other applications
  // before this app ever pumps its own queue (they may `send` to us first).
  display_->Flush();
}

App::~App() {
  // Mark teardown: widgets skip per-window X cleanup; the display connection
  // close below releases everything server-side in one sweep.
  closing_ = true;
  std::vector<std::string> paths = WidgetPaths();
  std::sort(paths.begin(), paths.end(), [](const std::string& a, const std::string& b) {
    return a.size() > b.size();
  });
  for (const std::string& path : paths) {
    widgets_.erase(path);
  }
  send_->Unregister();
  auto& registry = MutableAppRegistry();
  registry.erase(std::remove(registry.begin(), registry.end(), this), registry.end());
}

// ---------------------------------------------------------------------------
// Widget registry.

Widget* App::FindWidget(std::string_view path) {
  auto it = widgets_.find(path);
  return it == widgets_.end() ? nullptr : it->second.get();
}

Widget* App::AddWidget(std::unique_ptr<Widget> widget) {
  Widget* ptr = widget.get();
  const std::string path = ptr->path();
  widgets_[path] = std::move(widget);
  window_to_widget_[ptr->window()] = ptr;
  // The widget command: manipulating the widget via its path name
  // (Section 4 of the paper).
  interp_->RegisterCommand(path, [this](tcl::Interp& interp,
                                        std::vector<std::string>& args) {
    Widget* target = FindWidget(args[0]);
    if (target == nullptr) {
      return interp.Error("bad window path name \"" + args[0] + "\"");
    }
    return target->WidgetCommand(args);
  });
  return ptr;
}

bool App::DestroyWidget(std::string_view path) {
  if (FindWidget(path) == nullptr) {
    return false;
  }
  // Collect the subtree: the path itself plus its descendants, which are
  // the range ["path.", "path/") of the ordered registry ('/' follows '.').
  std::vector<std::string> doomed{std::string(path)};
  auto [first, last] = SubtreeRange(path);
  for (auto it = first; it != last; ++it) {
    if (it->first != path) {
      doomed.push_back(it->first);
    }
  }
  std::sort(doomed.begin(), doomed.end(), [](const std::string& a, const std::string& b) {
    return a.size() > b.size();
  });
  for (const std::string& widget_path : doomed) {
    Widget* widget = FindWidget(widget_path);
    if (widget == nullptr) {
      continue;
    }
    if (widget->manager() != nullptr) {
      widget->manager()->WidgetGone(widget);
    }
    packer_->WidgetGone(widget);
    placer_->WidgetGone(widget);
    bindings_->RemoveTag(widget_path);
    interp_->DeleteCommand(widget_path);
    window_to_widget_.erase(widget->window());
    // Leave a hole in each queue the widget sits in; the idle pass skips it.
    if (widget->redraw_slot_ != 0) {
      redraw_queue_[widget->redraw_slot_ - 1].widget = nullptr;
    }
    if (widget->repack_slot_ != 0) {
      repack_queue_[widget->repack_slot_ - 1] = nullptr;
    }
    widgets_.erase(widget_path);
  }
  return true;
}

std::vector<std::string> App::WidgetPaths() const {
  std::vector<std::string> paths;
  paths.reserve(widgets_.size());
  for (const auto& [path, widget] : widgets_) {
    paths.push_back(path);
  }
  return paths;
}

std::vector<std::string> App::ChildPaths(std::string_view path) const {
  const size_t prefix_size = path == "." ? 1 : path.size() + 1;
  std::vector<std::string> children;
  auto [first, last] = SubtreeRange(path);
  for (auto it = first; it != last; ++it) {
    const std::string& widget_path = it->first;
    if (widget_path.size() > prefix_size &&
        widget_path.find('.', prefix_size) == std::string::npos) {
      children.push_back(widget_path);
    }
  }
  return children;
}

App::WidgetRange App::SubtreeRange(std::string_view path) const {
  // Every descendant of "path" starts with "path." and sorts before "path/".
  // The root's descendants are every other path.
  std::string prefix(path);
  if (prefix != ".") {
    prefix += ".";
  }
  std::string end = prefix;
  end.back() = '/';
  return {widgets_.lower_bound(prefix), widgets_.lower_bound(end)};
}

// ---------------------------------------------------------------------------
// Event loop.

void App::DispatchEvent(const xsim::Event& event) {
  // Time the whole dispatch (protocol handlers, widget handler, bindings)
  // regardless of which early-return path it takes.
  struct DispatchTimer {
    App* app;
    std::chrono::steady_clock::time_point start;
    ~DispatchTimer() {
      app->loop_stats_.RecordDispatch(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
  } timer{this, std::chrono::steady_clock::now()};
  // Protocol handlers first (send comm window, selection traffic).
  if (send_->HandleEvent(event)) {
    return;
  }
  if (selection_->HandleEvent(event)) {
    return;
  }
  auto it = window_to_widget_.find(event.window);
  if (it == window_to_widget_.end()) {
    return;
  }
  Widget* widget = it->second;
  const std::string path = widget->path();
  const std::string clazz = widget->clazz();
  // Class behaviour (C handlers), then user bindings -- mirroring Tk, where
  // widget internals and bind scripts both see events.
  widget->HandleEvent(event);
  // The widget may have been destroyed by its own handler.
  if (FindWidget(path) != widget) {
    return;
  }
  bindings_->Dispatch(event, path, clazz);
}

void App::MaybeHeartbeat() {
  if (closing_ || heartbeat_interval_ms_ <= 0 ||
      display_->transport_kind() != xsim::wire::TransportKind::kWire) {
    return;
  }
  auto now = std::chrono::steady_clock::now();
  if (now - last_heartbeat_ < std::chrono::milliseconds(heartbeat_interval_ms_)) {
    return;
  }
  last_heartbeat_ = now;
  display_->CheckLiveness(heartbeat_timeout_ms_);
}

void App::HandleReconnect() {
  if (closing_) {
    return;
  }
  ++reconnects_seen_;
  // Replay restored the window tree and server-side state; the pixels are
  // this side's job.  Repaint everything, exactly like a storm of exposes.
  for (auto& [path, widget] : widgets_) {
    ScheduleRedraw(widget.get());
  }
}

bool App::DoOneEvent() {
  MaybeHeartbeat();
  loop_stats_.NoteQueueDepth(display_->PendingCount());
  xsim::Event event;
  if (display_->PollEvent(&event)) {
    DispatchEvent(event);
    return true;
  }
  // The earliest timer, if it has come due (ties fire in creation order).
  if (!timers_.empty() && timers_.begin()->first.first <= std::chrono::steady_clock::now()) {
    auto timer = timers_.begin();
    std::function<void()> callback = std::move(timer->second);
    timer_due_.erase(timer->first.second);
    timers_.erase(timer);
    ++loop_stats_.timers_fired;
    callback();
    return true;
  }
  // Idle work: layout, redraw, when-idle handlers.
  if (repack_head_ < repack_queue_.size() || !redraw_queue_.empty() || !idle_.empty()) {
    ProcessIdle();
    return true;
  }
  return false;
}

void App::Update() {
  // Bounded: a redraw that schedules another redraw must not spin forever.
  for (int i = 0; i < 10000 && DoOneEvent(); ++i) {
  }
}

void App::UpdateIdleTasks() { ProcessIdle(); }

void App::ProcessIdle() {
  // Layout first (it may move/resize windows and trigger redraws), then
  // paint, then generic idle callbacks.
  int guard = 0;
  while (repack_head_ < repack_queue_.size() && guard < 1000) {
    Widget* parent = repack_queue_[repack_head_++];
    if (parent == nullptr) {
      continue;  // Destroyed while queued.
    }
    ++guard;
    parent->repack_slot_ = 0;
    packer_->Arrange(parent);
    placer_->Arrange(parent);
    ++loop_stats_.repacks_done;
  }
  if (repack_head_ == repack_queue_.size()) {
    repack_queue_.clear();
    repack_head_ = 0;
  }
  std::vector<DamageEntry> to_draw;
  to_draw.swap(redraw_queue_);
  for (const DamageEntry& damage : to_draw) {
    if (damage.widget != nullptr) {
      damage.widget->redraw_slot_ = 0;
    }
  }
  for (const DamageEntry& damage : to_draw) {
    if (damage.widget == nullptr) {
      continue;  // Destroyed while queued.
    }
    xsim::Rect area = damage.full
                          ? xsim::Rect{0, 0, damage.widget->width(), damage.widget->height()}
                          : damage.area;
    damage.widget->Draw(area);
    ++loop_stats_.redraws_drawn;
  }
  std::deque<std::function<void()>> idle;
  idle.swap(idle_);
  for (const std::function<void()>& callback : idle) {
    callback();
    ++loop_stats_.idle_handlers_run;
  }
  // One flush covers the whole idle pass: every repaint above went into the
  // output buffer, and `update idletasks` promises the display is current.
  display_->Flush();
}

uint64_t App::CreateTimerMs(int64_t ms, std::function<void()> callback) {
  const uint64_t id = next_timer_id_++;
  const auto due = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  timers_.emplace(std::make_pair(due, id), std::move(callback));
  timer_due_.emplace(id, due);
  return id;
}

void App::DeleteTimer(uint64_t id) {
  auto it = timer_due_.find(id);
  if (it == timer_due_.end()) {
    return;
  }
  timers_.erase({it->second, id});
  timer_due_.erase(it);
}

void App::DoWhenIdle(std::function<void()> callback) { idle_.push_back(std::move(callback)); }

bool App::WaitFor(const std::function<bool()>& done, int64_t timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = kDefaultWaitTimeoutMs;
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    bool progress = false;
    for (App* app : MutableAppRegistry()) {
      if (app->DoOneEvent()) {
        progress = true;
      }
    }
    if (progress) {
      continue;
    }
    // About to block: flush every connection's output buffer first, like
    // Xlib before waiting for events -- a request this client buffered may
    // be exactly what another app's `done` condition is waiting on.
    for (App* app : MutableAppRegistry()) {
      app->display_->Flush();
    }
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    // Nothing pending anywhere: sleep until the earliest timer anywhere
    // comes due (capped by the deadline and a 1ms re-check tick) instead of
    // burning the CPU.
    auto wake = now + std::chrono::milliseconds(1);
    for (App* app : MutableAppRegistry()) {
      if (!app->timers_.empty() && app->timers_.begin()->first.first < wake) {
        wake = app->timers_.begin()->first.first;
      }
    }
    if (wake > deadline) {
      wake = deadline;
    }
    if (wake > now) {
      std::this_thread::sleep_until(wake);
    }
  }
  return true;
}

void App::BackgroundError(const std::string& message) {
  ++background_errors_;
  // A tkerror that provokes another background error (directly or through a
  // nested callback) must not recurse forever; report the inner error the
  // plain way.
  if (!in_background_error_ && interp_->HasCommand("tkerror")) {
    in_background_error_ = true;
    std::vector<std::string> call = {"tkerror", message};
    tcl::Code code = interp_->EvalWords(call);
    in_background_error_ = false;
    if (code == tcl::Code::kOk) {
      return;
    }
    // Fall through if tkerror itself failed.
  }
  fprintf(stderr, "%s: background error: %s\n", name_.c_str(), message.c_str());
}

void App::ScheduleRedraw(Widget* widget) {
  if (closing_) {
    return;
  }
  if (widget->redraw_slot_ != 0) {
    // Whole-window damage subsumes any partial rects.
    redraw_queue_[widget->redraw_slot_ - 1].full = true;
    return;
  }
  redraw_queue_.push_back(DamageEntry{widget, xsim::Rect{}, true});
  widget->redraw_slot_ = redraw_queue_.size();
}

void App::ScheduleRedraw(Widget* widget, const xsim::Rect& area) {
  if (closing_) {
    return;
  }
  if (area.Empty()) {
    return;
  }
  if (widget->redraw_slot_ != 0) {
    DamageEntry& entry = redraw_queue_[widget->redraw_slot_ - 1];
    if (!entry.full) {
      entry.area = entry.area.Union(area);
    }
    return;
  }
  redraw_queue_.push_back(DamageEntry{widget, area, false});
  widget->redraw_slot_ = redraw_queue_.size();
}

void App::ScheduleRepack(Widget* parent) {
  if (closing_ || parent->repack_slot_ != 0) {
    return;
  }
  repack_queue_.push_back(parent);
  parent->repack_slot_ = repack_queue_.size();
}

}  // namespace tk
