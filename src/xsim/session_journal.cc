#include "src/xsim/session_journal.h"

#include <algorithm>

namespace xsim {

void SessionJournal::Note(const Request& request) {
  ++noted_;
  switch (request.op) {
    case RequestOpcode::kCreateWindow: {
      if (request.resource == request.window) {
        break;  // The server refuses a window as its own parent.
      }
      WindowState state;
      state.parent = request.window;
      state.x = request.x;
      state.y = request.y;
      state.width = request.width;
      state.height = request.height;
      state.border_width = request.border_width;
      state.serial = ++next_serial_;
      if (auto [it, inserted] = windows_.emplace(request.resource, state); inserted) {
        LinkChild(request.resource, it->second);
      }
      break;
    }
    case RequestOpcode::kDestroyWindow:
      EraseWindowTree(request.window);
      break;
    case RequestOpcode::kMapWindow:
      if (auto it = windows_.find(request.window); it != windows_.end()) {
        it->second.mapped = true;
      }
      break;
    case RequestOpcode::kUnmapWindow:
      if (auto it = windows_.find(request.window); it != windows_.end()) {
        it->second.mapped = false;
      }
      break;
    case RequestOpcode::kConfigureWindow:
      if (auto it = windows_.find(request.window); it != windows_.end()) {
        // Mirrors Server::ConfigureWindow: a position of -1 and a size
        // below 1 mean "leave alone"; any other position applies, negative
        // ones included.
        if (request.x != -1) {
          it->second.x = request.x;
        }
        if (request.y != -1) {
          it->second.y = request.y;
        }
        if (request.width > 0) {
          it->second.width = request.width;
        }
        if (request.height > 0) {
          it->second.height = request.height;
        }
        if (request.border_width >= 0) {
          it->second.border_width = request.border_width;
        }
      }
      break;
    case RequestOpcode::kRaiseWindow:
      if (auto it = windows_.find(request.window); it != windows_.end()) {
        it->second.serial = ++next_serial_;
      }
      break;
    case RequestOpcode::kSelectInput:
      if (auto it = windows_.find(request.window); it != windows_.end()) {
        it->second.has_mask = true;
        it->second.mask = request.mask;
      }
      break;
    case RequestOpcode::kSetWindowBackground:
      if (auto it = windows_.find(request.window); it != windows_.end()) {
        it->second.has_background = true;
        it->second.background = request.pixel;
      }
      break;
    case RequestOpcode::kCreateGc:
      gcs_.emplace(request.resource, GcState());
      break;
    case RequestOpcode::kFreeGc:
      gcs_.erase(request.gc);
      break;
    case RequestOpcode::kChangeGc:
      if (auto it = gcs_.find(request.gc); it != gcs_.end()) {
        it->second.changed = true;
        it->second.values = request.gc_values;
      }
      break;
    case RequestOpcode::kChangeProperty:
      properties_[{request.window, request.atom}] = request.text;
      break;
    case RequestOpcode::kDeleteProperty:
      properties_.erase({request.window, request.atom});
      break;
    case RequestOpcode::kSetSelectionOwner:
      if (request.window == kNone) {
        selections_.erase(request.atom);
      } else {
        selections_[request.atom] = request.window;
      }
      break;
    case RequestOpcode::kSetInputFocus:
      has_focus_ = true;
      focus_ = request.window;
      break;
    case RequestOpcode::kSetCloseDownMode:
      has_close_down_ = true;
      close_down_ = request.mask;
      break;
    case RequestOpcode::kReparentWindow:
      if (auto it = windows_.find(request.window); it != windows_.end()) {
        // The server refuses to move a window under its own subtree; so does
        // the journal, whose children links must stay a forest.
        if (Descends(request.resource, request.window)) {
          break;
        }
        UnlinkChild(it->second);
        it->second.parent = request.resource;
        it->second.x = request.x;
        it->second.y = request.y;
        // Like a raise, a reparent stacks the window on top of its new
        // siblings.
        it->second.serial = ++next_serial_;
        LinkChild(request.window, it->second);
      }
      break;
    // Pixels and transient traffic: regenerated or irrelevant after replay.
    case RequestOpcode::kClearWindow:
    case RequestOpcode::kClearArea:
    case RequestOpcode::kFillRectangle:
    case RequestOpcode::kDrawRectangle:
    case RequestOpcode::kDrawLine:
    case RequestOpcode::kDrawString:
    case RequestOpcode::kConvertSelection:
    case RequestOpcode::kSendSelectionNotify:
    case RequestOpcode::kSendEvent:
    case RequestOpcode::kReplayMark:
      break;
  }
}

bool SessionJournal::Descends(WindowId window, WindowId ancestor) const {
  // Bounded: windows created under ids that did not exist yet can leave a
  // cycle of parent ids, which must not hang the walk.
  size_t steps = 0;
  for (auto it = windows_.find(window); steps <= windows_.size(); ++steps) {
    if (window == ancestor) {
      return true;
    }
    if (it == windows_.end()) {
      return false;
    }
    window = it->second.parent;
    it = windows_.find(window);
  }
  return false;
}

void SessionJournal::LinkChild(WindowId id, WindowState& state) {
  auto parent = windows_.find(state.parent);
  if (parent == windows_.end()) {
    return;
  }
  state.prev_sibling = kNone;
  state.next_sibling = parent->second.first_child;
  if (state.next_sibling != kNone) {
    windows_.at(state.next_sibling).prev_sibling = id;
  }
  parent->second.first_child = id;
  state.linked = true;
}

void SessionJournal::UnlinkChild(WindowState& state) {
  if (!state.linked) {
    return;
  }
  if (state.prev_sibling != kNone) {
    windows_.at(state.prev_sibling).next_sibling = state.next_sibling;
  } else {
    windows_.at(state.parent).first_child = state.next_sibling;
  }
  if (state.next_sibling != kNone) {
    windows_.at(state.next_sibling).prev_sibling = state.prev_sibling;
  }
  state.prev_sibling = kNone;
  state.next_sibling = kNone;
  state.linked = false;
}

void SessionJournal::EraseWindowTree(WindowId window) {
  auto it = windows_.find(window);
  if (it == windows_.end()) {
    return;
  }
  // Only the subtree's root hangs off a surviving window; everything below
  // it goes, links and all.
  UnlinkChild(it->second);
  std::vector<WindowId> doomed{window};
  for (size_t i = 0; i < doomed.size(); ++i) {
    for (WindowId child = windows_.at(doomed[i]).first_child; child != kNone;
         child = windows_.at(child).next_sibling) {
      doomed.push_back(child);
    }
  }
  for (WindowId id : doomed) {
    windows_.erase(id);
    auto first = properties_.lower_bound({id, 0});
    auto last = first;
    while (last != properties_.end() && last->first.first == id) {
      ++last;
    }
    properties_.erase(first, last);
    for (auto sel = selections_.begin(); sel != selections_.end();) {
      sel = sel->second == id ? selections_.erase(sel) : std::next(sel);
    }
    if (has_focus_ && focus_ == id) {
      has_focus_ = false;
    }
  }
}

std::vector<Request> SessionJournal::ReplayBatch(WindowId root) const {
  std::vector<Request> batch;
  auto known_or_root = [&](WindowId w) { return w == root || Knows(w); };

  // 0. Close-down mode first: if the replay itself is interrupted by another
  //    drop, the half-rebuilt session is already retained under the right
  //    mode.
  if (has_close_down_) {
    Request mode;
    mode.op = RequestOpcode::kSetCloseDownMode;
    mode.mask = close_down_;
    batch.push_back(std::move(mode));
  }

  // 1. Windows in pre-order -- parents before children, siblings bottom to
  //    top by serial -- so each create lands where the live server stacks
  //    it.  Each is followed by the attributes that must be set before the
  //    map generates an expose.
  auto above = [this](WindowId a, WindowId b) {
    return windows_.at(a).serial > windows_.at(b).serial;
  };
  std::vector<WindowId> order;
  order.reserve(windows_.size());
  std::vector<WindowId> pending;  // Popped from the back: lowest serial first.
  for (const auto& [id, state] : windows_) {
    if (!state.linked) {
      pending.push_back(id);
    }
  }
  std::sort(pending.begin(), pending.end(), above);
  while (!pending.empty()) {
    WindowId id = pending.back();
    pending.pop_back();
    order.push_back(id);
    const size_t mark = pending.size();
    for (WindowId child = windows_.at(id).first_child; child != kNone;
         child = windows_.at(child).next_sibling) {
      pending.push_back(child);
    }
    std::sort(pending.begin() + static_cast<std::ptrdiff_t>(mark), pending.end(), above);
  }
  for (WindowId id : order) {
    const WindowState& state = windows_.at(id);
    Request create;
    create.op = RequestOpcode::kCreateWindow;
    create.window = state.parent;
    create.resource = id;
    create.x = state.x;
    create.y = state.y;
    create.width = state.width;
    create.height = state.height;
    create.border_width = state.border_width;
    batch.push_back(std::move(create));
    if (state.has_background) {
      Request background;
      background.op = RequestOpcode::kSetWindowBackground;
      background.window = id;
      background.pixel = state.background;
      batch.push_back(std::move(background));
    }
    if (state.has_mask) {
      Request select;
      select.op = RequestOpcode::kSelectInput;
      select.window = id;
      select.mask = state.mask;
      batch.push_back(std::move(select));
    }
  }
  // 2. Maps, same order: a parent maps before its children, so every
  //    viewable window gets its expose.
  for (WindowId id : order) {
    if (windows_.at(id).mapped) {
      Request map;
      map.op = RequestOpcode::kMapWindow;
      map.window = id;
      batch.push_back(std::move(map));
    }
  }
  // 3. GCs and their accumulated values.
  for (const auto& [id, state] : gcs_) {
    Request create;
    create.op = RequestOpcode::kCreateGc;
    create.resource = id;
    batch.push_back(std::move(create));
    if (state.changed) {
      Request change;
      change.op = RequestOpcode::kChangeGc;
      change.gc = id;
      change.gc_values = state.values;
      batch.push_back(std::move(change));
    }
  }
  // 4. Properties and selection ownership (windows all exist by now).  Skip
  //    entries on windows the journal does not know (another client's window
  //    may be gone after the bounce; replaying it would just raise BadWindow).
  for (const auto& [key, value] : properties_) {
    if (!known_or_root(key.first)) {
      continue;
    }
    Request property;
    property.op = RequestOpcode::kChangeProperty;
    property.window = key.first;
    property.atom = key.second;
    property.text = value;
    batch.push_back(std::move(property));
  }
  for (const auto& [selection, owner] : selections_) {
    if (!known_or_root(owner)) {
      continue;
    }
    Request own;
    own.op = RequestOpcode::kSetSelectionOwner;
    own.atom = selection;
    own.window = owner;
    batch.push_back(std::move(own));
  }
  if (has_focus_ && known_or_root(focus_)) {
    Request focus;
    focus.op = RequestOpcode::kSetInputFocus;
    focus.window = focus_;
    batch.push_back(std::move(focus));
  }
  return batch;
}

void SessionJournal::Clear() {
  windows_.clear();
  next_serial_ = 0;
  gcs_.clear();
  properties_.clear();
  selections_.clear();
  has_focus_ = false;
  focus_ = kNone;
  has_close_down_ = false;
  close_down_ = 0;
}

}  // namespace xsim
