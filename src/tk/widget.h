// Widget base class and the configuration-option framework (Section 4 of the
// paper).
//
// Every widget:
//   * owns one X window, named by a path like ".a.b.c" (Section 3.1);
//   * declares a table of configuration options (-background, -text, ...)
//     whose unspecified values fall back to the option database and then to
//     class defaults;
//   * is manipulated at runtime through its *widget command* -- a Tcl
//     command named after the window path, created when the widget is
//     (".hello configure -bg red", ".hello flash", ...);
//   * requests a preferred size but lets a geometry manager decide its
//     actual geometry (Section 3.4).

#ifndef SRC_TK_WIDGET_H_
#define SRC_TK_WIDGET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/tcl/interp.h"
#include "src/xsim/display.h"

namespace tk {

class App;
class GeometryManager;

// One configuration option of a widget.
struct OptionSpec {
  std::string flag;       // Command-line flag, e.g. "-background".
  std::string db_name;    // Option database name, e.g. "background".
  std::string db_class;   // Option database class, e.g. "Background".
  std::string default_value;
  // Applies a new value (parses, stores, may request redraw/resize).
  std::function<tcl::Code(const std::string& value)> set;
  // Reads back the current value.
  std::function<std::string()> get;
  std::vector<std::string> aliases;  // Abbreviations, e.g. "-bg".
};

// Relief styles for the 3-D borders the Tk widgets draw.
enum class Relief { kFlat, kRaised, kSunken, kGroove, kRidge };
const char* ReliefName(Relief relief);
bool ParseRelief(const std::string& text, Relief* out);

// Anchor positions (n, ne, e, ..., center).
enum class Anchor { kN, kNe, kE, kSe, kS, kSw, kW, kNw, kCenter };
const char* AnchorName(Anchor anchor);
bool ParseAnchor(const std::string& text, Anchor* out);

class Widget {
 public:
  // Creates the widget and its X window as a child of `parent_path`'s
  // window ("." has no parent and uses a top-level window).  With
  // `override_redirect` the X window is created as a child of the *root*
  // window instead, escaping the parent's clipping -- how menus pop up over
  // everything (real Tk uses override-redirect top-levels for this).
  Widget(App& app, std::string path, std::string clazz, bool override_redirect = false);
  virtual ~Widget();

  Widget(const Widget&) = delete;
  Widget& operator=(const Widget&) = delete;

  App& app() { return app_; }
  const std::string& path() const { return path_; }
  const std::string& clazz() const { return clazz_; }
  // The last path component ("c" for ".a.b.c").
  std::string name() const;
  // The parent widget's path ("." for ".a"; "" for ".").
  std::string parent_path() const;
  xsim::WindowId window() const { return window_; }

  // --- Geometry (Section 3.4) ------------------------------------------------

  // Preferred size, as requested by the widget's own code.
  int req_width() const { return req_width_; }
  int req_height() const { return req_height_; }
  // Sets the preferred size and notifies the geometry manager.
  void RequestSize(int width, int height);
  // Internal border the geometry manager must keep clear.
  int internal_border() const { return internal_border_; }

  // Called by geometry managers to assign actual geometry (parent-relative).
  void SetAssignedGeometry(int x, int y, int width, int height);
  int x() const { return x_; }
  int y() const { return y_; }
  int width() const { return width_; }
  int height() const { return height_; }
  bool mapped() const { return mapped_; }
  void Map();
  void Unmap();

  GeometryManager* manager() const { return manager_; }
  void set_manager(GeometryManager* manager) { manager_ = manager; }

  // --- Configuration ------------------------------------------------------------

  // Applies -flag value pairs from `args[first]` onward; unknown flags are
  // errors.  Called at creation and by `configure`.
  tcl::Code ConfigureFromArgs(const std::vector<std::string>& args, size_t first);
  // Fills defaults for options never explicitly set: option database first,
  // then the spec's default (Section 4: "the widget checks in the option
  // database for a value; if none is found then it uses a default").
  tcl::Code ApplyDefaults();
  // The `configure` widget subcommand, including introspection forms.
  tcl::Code ConfigureCommand(std::vector<std::string>& args, size_t first);
  const std::vector<OptionSpec>& options() const { return specs_; }

  // --- Behaviour -------------------------------------------------------------------

  // The widget command (".hello flash ...").  args[0] is the path.
  virtual tcl::Code WidgetCommand(std::vector<std::string>& args);
  // Repaints window contents, called from the idle-time redraw pass with the
  // coalesced damage region (window coordinates).  Most widgets repaint in
  // full regardless; widgets with structured content (listbox) repaint only
  // the damaged region via ClearArea instead of a full-window clear.
  virtual void Draw(const xsim::Rect& damage) { (void)damage; }
  // C-level event handling for the widget's class behaviour.
  virtual void HandleEvent(const xsim::Event& event);

  // Schedules a full-window Draw() at idle time.
  void ScheduleRedraw();
  // Schedules a partial redraw; damage rects coalesce per widget (bounding
  // box) until the idle pass runs.
  void ScheduleRedraw(const xsim::Rect& area);

 protected:
  // Registers an option; widgets call this from their constructors.
  void AddOption(OptionSpec spec);
  // The most recently added option (for attaching aliases like "-bg").
  OptionSpec& last_option() { return specs_.back(); }
  // Mutable access for subclasses that adjust inherited defaults.
  std::vector<OptionSpec>& mutable_options() { return specs_; }
  // Convenience factories for common option kinds.  Each stores into the
  // given field and schedules a redraw on change.
  OptionSpec ColorOption(const std::string& flag, const std::string& db_name,
                         const std::string& db_class, const std::string& default_value,
                         xsim::Pixel* field, std::string* name_field);
  OptionSpec IntOption(const std::string& flag, const std::string& db_name,
                       const std::string& db_class, const std::string& default_value,
                       int* field);
  OptionSpec StringOption(const std::string& flag, const std::string& db_name,
                          const std::string& db_class, const std::string& default_value,
                          std::string* field);
  OptionSpec ReliefOption(const std::string& default_value, Relief* field);
  OptionSpec FontOption(const std::string& default_value, xsim::FontId* field,
                        std::string* name_field);
  OptionSpec AnchorOption(const std::string& default_value, Anchor* field);
  OptionSpec BoolOption(const std::string& flag, const std::string& db_name,
                        const std::string& db_class, const std::string& default_value,
                        bool* field);

  // Draws the standard Tk 3-D border into the window edge.
  void DrawRelief(xsim::Pixel background, Relief relief, int border_width);
  // Clears the window to `background`.
  void ClearWindow(xsim::Pixel background);
  // A per-widget graphics context (lazily created).
  xsim::GcId gc();
  xsim::Display& display();
  void set_internal_border(int width) { internal_border_ = width; }

  // Hook called after any configure change (recompute requested size etc.).
  virtual void OnConfigured() {}

  tcl::Interp& interp();

 private:
  App& app_;
  std::string path_;
  std::string clazz_;
  xsim::WindowId window_ = xsim::kNone;
  xsim::GcId gc_ = xsim::kNone;

  int req_width_ = 1;
  int req_height_ = 1;
  int internal_border_ = 0;
  int x_ = 0;
  int y_ = 0;
  int width_ = 1;
  int height_ = 1;
  bool mapped_ = false;

  GeometryManager* manager_ = nullptr;
  std::vector<OptionSpec> specs_;
  std::vector<bool> explicitly_set_;

  // Position + 1 of this widget's entry in the App's redraw / repack queue;
  // 0 while not queued.
  size_t redraw_slot_ = 0;
  size_t repack_slot_ = 0;
  friend class App;
};

// Abstract geometry manager (Section 3.4): Tk routes widget size requests to
// the manager controlling the widget's parent.
class GeometryManager {
 public:
  virtual ~GeometryManager() = default;
  virtual const char* name() const = 0;
  // Called when a managed widget (or a child of a managed parent) changes
  // its requested size.
  virtual void RequestChanged(Widget* widget) = 0;
  // Called when a managed widget is destroyed.
  virtual void WidgetGone(Widget* widget) = 0;
};

}  // namespace tk

#endif  // SRC_TK_WIDGET_H_
