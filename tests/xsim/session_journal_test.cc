// Session journal tests: replaying the journal into a fresh server must
// rebuild exactly what the live server holds for the client -- parents,
// sibling stacking, geometry, map state, properties, selections, focus and
// GCs -- after any mix of requests, and only the wire transport journals.

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/xsim/display.h"
#include "src/xsim/request.h"
#include "src/xsim/server.h"
#include "src/xsim/session_journal.h"
#include "src/xsim/wire/transport.h"

namespace xsim {
namespace {

Request Make(RequestOpcode op, WindowId window, XId resource = kNone, int x = 0,
             int y = 0) {
  Request request;
  request.op = op;
  request.window = window;
  request.resource = resource;
  request.x = x;
  request.y = y;
  request.width = 8;
  request.height = 8;
  return request;
}

// A live server and a journal fed the same requests, and a fresh server
// to replay the journal into.  Both servers start with no atoms, so atom
// numbers agree.
struct LiveAndReplay {
  Server live;
  Server replay;
  SessionJournal journal;
  ClientId live_client = live.RegisterClient("live");
  ClientId replay_client = replay.RegisterClient("replay");

  void Apply(const Request& request) {
    live.ApplyRequest(live_client, request);
    journal.Note(request);
  }
  // Returns how many replayed requests failed.
  size_t Replay() {
    std::vector<Request> batch = journal.ReplayBatch(replay.root());
    return batch.size() - replay.ApplyBatch(replay_client, batch);
  }
};

TEST(SessionJournalTest, JournalReplayOrdersReparentedWindowAfterLaterParent) {
  // Create P1, then W under P1, then P2, then reparent W under P2.  W's
  // recorded parent P2 was created after W, so a replay in creation order
  // would create W before its parent exists.
  const WindowId p1 = 0x201, w = 0x202, p2 = 0x203;
  SessionJournal journal;
  Server replay_target;
  const WindowId root = replay_target.root();

  journal.Note(Make(RequestOpcode::kCreateWindow, root, p1));
  journal.Note(Make(RequestOpcode::kCreateWindow, p1, w));
  journal.Note(Make(RequestOpcode::kCreateWindow, root, p2));
  journal.Note(Make(RequestOpcode::kReparentWindow, w, p2, 3, 4));

  ClientId client = replay_target.RegisterClient("replayer");
  std::vector<Request> batch = journal.ReplayBatch(root);
  size_t applied = replay_target.ApplyBatch(client, batch);
  EXPECT_EQ(applied, batch.size());  // No create referenced a missing parent.
  EXPECT_TRUE(replay_target.WindowExists(w));
  EXPECT_EQ(replay_target.WindowParent(w), p2);
  auto geometry = replay_target.WindowGeometry(w);
  ASSERT_TRUE(geometry.has_value());
  EXPECT_EQ(geometry->x, 3);
  EXPECT_EQ(geometry->y, 4);
}

TEST(SessionJournalTest, ReparentStacksOnTopLikeARaise) {
  // P1 and P2 under the root, W under P1, C and E under P2; raise C, then
  // move W under P2.  The live server stacks P2's children E C W: the
  // reparented window lands on top, above the earlier raise.
  LiveAndReplay s;
  const WindowId root = s.live.root();
  const WindowId p1 = 0x301, p2 = 0x302, w = 0x303, c = 0x304, e = 0x305;
  s.Apply(Make(RequestOpcode::kCreateWindow, root, p1));
  s.Apply(Make(RequestOpcode::kCreateWindow, root, p2));
  s.Apply(Make(RequestOpcode::kCreateWindow, p1, w));
  s.Apply(Make(RequestOpcode::kCreateWindow, p2, c));
  s.Apply(Make(RequestOpcode::kCreateWindow, p2, e));
  s.Apply(Make(RequestOpcode::kRaiseWindow, c));
  s.Apply(Make(RequestOpcode::kReparentWindow, w, p2, 1, 1));
  ASSERT_EQ(s.live.WindowChildren(p2), (std::vector<WindowId>{e, c, w}));
  EXPECT_EQ(s.Replay(), 0u);
  EXPECT_EQ(s.replay.WindowChildren(p2), s.live.WindowChildren(p2));
}

TEST(SessionJournalTest, WindowCreatedAfterARaiseStacksAboveIt) {
  // A, B; raise A; create C: the live server stacks B A C.
  LiveAndReplay s;
  const WindowId root = s.live.root();
  const WindowId a = 0x401, b = 0x402, c = 0x403;
  s.Apply(Make(RequestOpcode::kCreateWindow, root, a));
  s.Apply(Make(RequestOpcode::kCreateWindow, root, b));
  s.Apply(Make(RequestOpcode::kRaiseWindow, a));
  s.Apply(Make(RequestOpcode::kCreateWindow, root, c));
  ASSERT_EQ(s.live.WindowChildren(root), (std::vector<WindowId>{b, a, c}));
  EXPECT_EQ(s.Replay(), 0u);
  EXPECT_EQ(s.replay.WindowChildren(root), s.live.WindowChildren(root));
}

TEST(SessionJournalTest, ReparentIntoOwnSubtreeIsIgnoredLikeTheServerDoes) {
  LiveAndReplay s;
  const WindowId root = s.live.root();
  const WindowId a = 0x501, b = 0x502, c = 0x503;
  s.Apply(Make(RequestOpcode::kCreateWindow, root, a));
  s.Apply(Make(RequestOpcode::kCreateWindow, a, b));
  s.Apply(Make(RequestOpcode::kCreateWindow, b, c));
  s.Apply(Make(RequestOpcode::kReparentWindow, a, c));  // BadValue at the server.
  s.Apply(Make(RequestOpcode::kReparentWindow, a, a));
  EXPECT_EQ(s.live.WindowParent(a), root);
  EXPECT_EQ(s.Replay(), 0u);
  EXPECT_EQ(s.replay.WindowParent(a), root);
  EXPECT_EQ(s.replay.WindowParent(c), b);
  EXPECT_EQ(s.journal.window_count(), 3u);
}

TEST(SessionJournalTest, DestroyForgetsTheSubtreeAndItsPropertiesOnly) {
  LiveAndReplay s;
  const WindowId root = s.live.root();
  const WindowId a = 0x601, b = 0x602, c = 0x603, d = 0x604;
  const Atom atom = s.live.InternAtom(s.live_client, "NAME");
  s.replay.InternAtom(s.replay_client, "NAME");
  s.Apply(Make(RequestOpcode::kCreateWindow, root, a));
  s.Apply(Make(RequestOpcode::kCreateWindow, a, b));
  s.Apply(Make(RequestOpcode::kCreateWindow, b, c));
  s.Apply(Make(RequestOpcode::kCreateWindow, root, d));
  for (WindowId w : {a, b, c, d}) {
    Request property = Make(RequestOpcode::kChangeProperty, w);
    property.atom = atom;
    property.text = "v" + std::to_string(w);
    s.Apply(property);
  }
  s.Apply(Make(RequestOpcode::kDestroyWindow, b));
  EXPECT_EQ(s.journal.window_count(), 2u);
  EXPECT_EQ(s.journal.property_count(), 2u);
  EXPECT_EQ(s.Replay(), 0u);
  EXPECT_EQ(s.replay.GetProperty(s.replay_client, a, atom), "v" + std::to_string(a));
  EXPECT_EQ(s.replay.GetProperty(s.replay_client, d, atom), "v" + std::to_string(d));
  EXPECT_FALSE(s.replay.WindowExists(b));
  EXPECT_FALSE(s.replay.WindowExists(c));
}

TEST(SessionJournalTest, OnlyTheWireTransportJournals) {
  Server server;
  auto direct = Display::Open(server, "direct", wire::TransportKind::kDirect);
  WindowId w = direct->CreateWindow(direct->root(), 0, 0, 10, 10);
  direct->MapWindow(w);
  direct->Sync();
  EXPECT_EQ(direct->journal().noted(), 0u);
  EXPECT_EQ(direct->journal().window_count(), 0u);

  auto wired = Display::Open(server, "wired", wire::TransportKind::kWire);
  WindowId v = wired->CreateWindow(wired->root(), 0, 0, 10, 10);
  wired->MapWindow(v);
  wired->Sync();
  EXPECT_EQ(wired->journal().noted(), 2u);
  EXPECT_EQ(wired->journal().window_count(), 1u);
}

// --- Seeded differential against the live server ------------------------------

// Everything a replay must reproduce for one client, read from a server.
struct Snapshot {
  struct Window {
    WindowId parent = kNone;
    Rect geometry;
    bool mapped = false;
    std::vector<WindowId> children;
    std::vector<std::pair<Atom, std::string>> properties;
    bool operator==(const Window&) const = default;
  };
  std::map<WindowId, Window> windows;  // The root included.
  std::vector<std::pair<Atom, WindowId>> selections;
  WindowId focus = kNone;
  ResourceCounts resources;
  bool operator==(const Snapshot&) const = default;
};

Snapshot Take(Server& server, ClientId client, const std::vector<Atom>& atoms) {
  Snapshot snapshot;
  std::vector<WindowId> pending{server.root()};
  while (!pending.empty()) {
    WindowId id = pending.back();
    pending.pop_back();
    Snapshot::Window& window = snapshot.windows[id];
    window.parent = server.WindowParent(id).value_or(kNone);
    window.geometry = server.WindowGeometry(id).value_or(Rect{});
    window.mapped = server.IsMapped(id);
    window.children = server.WindowChildren(id);
    for (Atom atom : atoms) {
      if (auto value = server.GetProperty(client, id, atom)) {
        window.properties.emplace_back(atom, *value);
      }
    }
    pending.insert(pending.end(), window.children.begin(), window.children.end());
  }
  for (Atom atom : atoms) {
    snapshot.selections.emplace_back(atom, server.GetSelectionOwner(client, atom));
  }
  snapshot.focus = server.GetInputFocus();
  snapshot.resources = server.ClientResources(client);
  return snapshot;
}

std::string Describe(const Snapshot& snapshot) {
  std::string out;
  for (const auto& [id, window] : snapshot.windows) {
    out += std::to_string(id) + " parent=" + std::to_string(window.parent) + " geom=" +
           std::to_string(window.geometry.x) + "," + std::to_string(window.geometry.y) + "," +
           std::to_string(window.geometry.width) + "x" + std::to_string(window.geometry.height) +
           (window.mapped ? " mapped" : "") + " children=";
    for (WindowId child : window.children) {
      out += std::to_string(child) + " ";
    }
    out += "props=" + std::to_string(window.properties.size()) + "\n";
  }
  out += "focus=" + std::to_string(snapshot.focus) +
         " gcs=" + std::to_string(snapshot.resources.gcs) + "\n";
  return out;
}

void RunSeededSession(uint32_t seed, int ops) {
  Server live;
  auto display = Display::Open(live, "journaled", wire::TransportKind::kWire);
  uint64_t errors = 0;
  display->set_error_handler([&errors](const XError&) { ++errors; });
  std::mt19937 rng(seed);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  auto coord = [&rng]() { return static_cast<int>(rng() % 41) - 10; };

  const std::vector<std::string> atom_names = {"WM_NAME", "PRIMARY", "SECONDARY", "CLIPBOARD",
                                               "_TK_STATE"};
  std::vector<Atom> atoms;
  for (const std::string& name : atom_names) {
    atoms.push_back(display->InternAtom(name));
  }
  const WindowId root = display->root();
  std::vector<WindowId> alive;  // This client's windows, as far as it knows.
  std::vector<GcId> gcs;
  auto any_window = [&]() { return alive.empty() ? root : alive[pick(alive.size())]; };
  auto own_window = [&]() { return alive[pick(alive.size())]; };

  for (int op = 0; op < ops; ++op) {
    switch (pick(16)) {
      case 0:
      case 1:
      case 2: {
        // Creates lean towards existing windows so the tree grows deep.
        WindowId parent = pick(4) == 0 ? root : any_window();
        alive.push_back(display->CreateWindow(parent, coord(), coord(),
                                              1 + static_cast<int>(pick(60)),
                                              1 + static_cast<int>(pick(60)),
                                              static_cast<int>(pick(3))));
        break;
      }
      // Window state requests stay off the root, which the journal does
      // not own (unmapping or moving the root would change the live
      // server only).
      case 3:
        if (!alive.empty()) {
          display->MapWindow(own_window());
        }
        break;
      case 4:
        if (!alive.empty()) {
          display->UnmapWindow(own_window());
        }
        break;
      case 5:
        if (alive.empty()) {
          break;
        }
        if (pick(2) == 0) {
          display->MoveResizeWindow(own_window(), coord(), coord(),
                                    static_cast<int>(pick(50)) - 1,
                                    static_cast<int>(pick(50)) - 1);
        } else {
          display->ResizeWindow(own_window(), 1 + static_cast<int>(pick(50)),
                                static_cast<int>(pick(50)) - 1);
        }
        break;
      case 6:
        if (!alive.empty()) {
          display->RaiseWindow(own_window());
        }
        break;
      case 7:
        // Often into the window's own subtree: the server refuses those.
        if (!alive.empty()) {
          display->ReparentWindow(own_window(), pick(3) == 0 ? root : any_window(), coord(),
                                  coord());
        }
        break;
      case 8:
        if (!alive.empty() && pick(3) == 0) {
          display->DestroyWindow(own_window());
          display->Sync();
          std::erase_if(alive, [&](WindowId w) { return !live.WindowExists(w); });
        }
        break;
      case 9:
      case 10:
        display->ChangeProperty(pick(5) == 0 ? root : any_window(), atoms[pick(atoms.size())],
                                "value" + std::to_string(op));
        break;
      case 11:
        display->DeleteProperty(pick(5) == 0 ? root : any_window(), atoms[pick(atoms.size())]);
        break;
      case 12:
        display->SetSelectionOwner(atoms[pick(atoms.size())],
                                   pick(4) == 0 || alive.empty() ? kNone : any_window());
        break;
      case 13:
        display->SetInputFocus(pick(4) == 0 ? kNone : any_window());
        break;
      case 14:
        if (gcs.empty() || pick(3) != 0) {
          gcs.push_back(display->CreateGc());
        } else {
          size_t i = pick(gcs.size());
          display->FreeGc(gcs[i]);
          gcs.erase(gcs.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 15:
        if (!gcs.empty()) {
          Server::Gc values;
          values.foreground = static_cast<Pixel>(rng() & 0xffffff);
          values.line_width = 1 + static_cast<int>(pick(4));
          display->ChangeGc(gcs[pick(gcs.size())], values);
        }
        break;
    }
    if (op % 128 == 0) {
      // Selection changes queue SelectionClear events for this client.
      Event event;
      while (display->PollEvent(&event)) {
      }
    }
  }
  display->Sync();
  ASSERT_GT(alive.size(), 20u) << "the session should end with a real tree";
  ASSERT_GT(errors, 0u) << "the mix should include requests the server refuses";

  Server replay;
  ClientId replay_client = replay.RegisterClient("replay");
  for (const std::string& name : atom_names) {
    replay.InternAtom(replay_client, name);
  }
  std::vector<Request> batch = display->journal().ReplayBatch(replay.root());
  EXPECT_EQ(replay.ApplyBatch(replay_client, batch), batch.size())
      << "a replayed request failed";

  Snapshot expected = Take(live, display->client_id(), atoms);
  Snapshot actual = Take(replay, replay_client, atoms);
  EXPECT_EQ(expected.windows.size(), display->journal().window_count() + 1);
  EXPECT_TRUE(expected == actual) << "live:\n"
                                  << Describe(expected) << "replay:\n"
                                  << Describe(actual);
}

TEST(SessionJournalTest, SeededSessionReplaysToTheLiveServerState) {
  for (uint32_t seed : {1u, 2u, 918273u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSeededSession(seed, 10000);
  }
}

}  // namespace
}  // namespace xsim
