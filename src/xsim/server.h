// The xsim X server: the authoritative window tree, resource stores, event
// router and framebuffer shared by every in-process client (Display).
//
// The server implements the protocol-visible behaviour Tk depends on:
//
//   * hierarchical windows with geometry, stacking, map state;
//   * per-(window, client) event selection and per-client event queues;
//   * properties on any window, including the root window (this is where
//     Tk's `send` keeps its interpreter registry);
//   * atoms, named colors, synthetic fonts, cursors, bitmaps, GCs;
//   * ICCCM-shaped selections (ownership, SelectionClear/Request/Notify);
//   * input: pointer/keyboard injection, crossing (Enter/Leave) event
//     generation, implicit pointer grab on button press, input focus;
//   * drawing into an in-memory raster plus a per-window text journal that
//     replaces Figure 10's screen dump;
//   * request counters, so the traffic-saving claims of Section 3.3 can be
//     measured rather than asserted.

#ifndef SRC_XSIM_SERVER_H_
#define SRC_XSIM_SERVER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/xsim/color.h"
#include "src/xsim/error.h"
#include "src/xsim/event.h"
#include "src/xsim/fault.h"
#include "src/xsim/font.h"
#include "src/xsim/keysym.h"
#include "src/xsim/raster.h"
#include "src/xsim/request.h"
#include "src/xsim/shard.h"
#include "src/xsim/trace.h"
#include "src/xsim/types.h"

namespace xsim {

// A string drawn into a window; kept so tests and dumps can inspect
// rendered text without glyph recognition.
struct TextItem {
  int x = 0;
  int y = 0;  // Baseline.
  std::string text;
  Pixel pixel = 0;
  FontId font = kNone;
};

// Per-request-category traffic counters.
struct RequestCounters {
  uint64_t total = 0;
  uint64_t round_trips = 0;  // Requests that block for a server reply.
  uint64_t create_window = 0;
  uint64_t destroy_window = 0;
  uint64_t map_window = 0;
  uint64_t configure_window = 0;
  uint64_t alloc_color = 0;
  uint64_t load_font = 0;
  uint64_t change_property = 0;
  uint64_t get_property = 0;
  uint64_t draw = 0;
  uint64_t send_event = 0;
  // Batch-apply traffic (the buffered request pipeline).
  uint64_t flushes = 0;           // ApplyBatch calls (client-side flushes).
  uint64_t batched_requests = 0;  // Requests that arrived inside a batch.
  uint64_t max_batch = 0;         // Largest single batch seen.
};

// Counters for generated errors and injected faults (`info faults`).
struct FaultCounters {
  uint64_t errors_generated = 0;   // X error events raised by validation.
  uint64_t injected_failures = 0;  // Requests failed by the FaultInjector.
  uint64_t injected_drops = 0;     // Requests silently dropped.
  uint64_t injected_delays = 0;    // Requests delayed.
  uint64_t killed_clients = 0;     // KillClient calls (simulated crashes).
};

// Connection-lifecycle counters (session retention and resumption).
struct SessionCounters {
  uint64_t disconnects = 0;  // DisconnectClient calls (any reason).
  uint64_t retained = 0;     // Disconnects that retained the session.
  uint64_t resumed = 0;      // Successful ResumeSession reattaches.
  uint64_t reaped = 0;       // Retained sessions torn down by the reaper.
};

// Per-client resource census, for replay-idempotence checks: a reconnect
// that replays the session journal must land on exactly these counts.
struct ResourceCounts {
  size_t windows = 0;     // Windows owned by the client (root excluded).
  size_t gcs = 0;         // GCs created by the client.
  size_t properties = 0;  // Properties on the client's own windows.
  size_t selections = 0;  // Selections the client owns.

  bool operator==(const ResourceCounts&) const = default;
};

// Wire-transport traffic counters (always-on, like RequestCounters; reset by
// Server::ResetCounters so a measurement window starts clean across every
// counter family).
struct WireCounters {
  uint64_t connections = 0;       // Wire connections accepted.
  uint64_t frames_in = 0;         // Frames received from wire clients.
  uint64_t frames_out = 0;        // Frames sent to wire clients.
  uint64_t bytes_in = 0;          // Payload+header bytes received.
  uint64_t bytes_out = 0;         // Payload+header bytes sent.
  uint64_t batches = 0;           // kBatch frames dispatched.
  uint64_t malformed_frames = 0;  // Frames the decoder rejected.
  uint64_t dropped_frames = 0;    // Frames lost to frame-layer faults.
  uint64_t truncated_frames = 0;  // Frames truncated by frame-layer faults.
  uint64_t delayed_frames = 0;    // Frames delayed by frame-layer faults.
};

namespace wire {
class WireServer;
}  // namespace wire

class Server {
 public:
  // Creates a server with a root window of the given size.
  explicit Server(int width = 1280, int height = 1024);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  WindowId root() const { return kRootWindow; }

  // --- Clients ---------------------------------------------------------------

  ClientId RegisterClient(std::string name);
  void UnregisterClient(ClientId client);
  bool HasPendingEvents(ClientId client) const;
  // Depth of the client's event queue (event-loop observability).
  size_t PendingEventCount(ClientId client) const;
  // Pops the next queued event for `client`; false if the queue is empty.
  bool NextEvent(ClientId client, Event* out);

  // Simulates an application crash: the client's windows, selections and
  // event queue are torn down exactly as if the connection closed, and all
  // further requests from the client are silently dropped.  The ClientRec
  // itself survives (marked dead) so a Display handle held by the "crashed"
  // application stays safe to use.
  void KillClient(ClientId client);
  bool ClientAlive(ClientId client) const;

  // --- Connection lifecycle (close-down modes, sessions, resumption) ---------
  //
  // Every client gets a session token at registration (carried back in the
  // kHelloAck).  When the client's *connection* dies -- rather than the
  // client unregistering orderly with DestroyAll semantics -- the wire layer
  // calls DisconnectClient, which applies the client's close-down mode: with
  // kDestroyAll the session is torn down on the spot; with a Retain mode the
  // ClientRec and every resource survive, waiting for a ResumeSession with
  // the same token.  RetainTemporary sessions are reaped after a grace
  // period; RetainPermanent sessions persist until KillClient.

  void SetCloseDownMode(ClientId client, CloseDownMode mode);
  CloseDownMode ClientCloseDownMode(ClientId client) const;
  uint64_t ClientSessionToken(ClientId client) const;

  // Connection teardown honoring the close-down mode.  Records the
  // disconnect (with `reason`) in the trace.
  void DisconnectClient(ClientId client, DisconnectReason reason);
  // Reattaches to the session the token names -- retained, or still
  // nominally connected (a client can redial a broken wire before the
  // server's reader notices the old connection die; the token proves it is
  // the same client).  0 when the token matches nothing alive (caller falls
  // back to RegisterClient).
  ClientId ResumeSession(uint64_t token);
  bool ClientRetained(ClientId client) const;
  size_t RetainedSessionCount() const;
  // Tears down RetainTemporary sessions disconnected at least `grace_ms`
  // ago; returns how many were reaped.  RetainPermanent sessions are
  // untouched unless `include_permanent` forces a full sweep (end-of-run
  // leak accounting).
  size_t ReapRetainedSessions(uint64_t grace_ms, bool include_permanent = false);

  SessionCounters session_counters() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return session_counters_;
  }
  // Census of the client's live server-side resources.
  ResourceCounts ClientResources(ClientId client) const;
  // Resources whose owning client no longer has a ClientRec -- the leak the
  // no-orphan-leak soak invariant gates on.
  size_t OrphanResourceCount() const;

  // Registers the callback that receives X error events for `client`
  // (installed by Display::Open; one sink per client).
  using ErrorSink = std::function<void(const XError&)>;
  void SetErrorSink(ClientId client, ErrorSink sink);
  // Sequence number of the last request the client issued.
  uint64_t ClientSequence(ClientId client) const;

  // --- Buffered request pipeline -----------------------------------------------

  // Applies one encoded request immediately (the path behind a synchronous
  // Display, and the per-record step of ApplyBatch).  The request's
  // client-assigned sequence number is honoured, so errors raised during
  // dispatch carry it.  With `synchronous` set the request additionally
  // costs a full round trip (XSynchronize semantics: every request waits
  // for the server's reply).  Returns the entry point's success status.
  bool ApplyRequest(ClientId client, const Request& request, bool synchronous = false);
  // Applies a whole output-buffer flush: every request in order, then one
  // per-batch flush record in the trace.  Returns how many requests
  // executed successfully.  Holds the server mutex for the whole batch (the
  // direct transport's atomic-flush semantics).
  size_t ApplyBatch(ClientId client, const std::vector<Request>& requests);

  // --- Sharded batch dispatch (the reactor-era concurrency path) -------------
  //
  // Same request-level semantics as ApplyBatch, but the batch-wide exclusion
  // is per-*shard* rather than server-wide: the batch is classified into the
  // resource shards it touches (window subtrees, GC table, atoms, global)
  // and only those shard locks are held batch-wide, while the server mutex
  // drops to per-request holds.  Two clients mutating disjoint window
  // subtrees apply concurrently; a cross-shard reparent takes both subtree
  // locks in ShardTable's canonical order.  This is what the wire front-ends
  // call for every kBatch frame.

  size_t ApplyBatchSharded(ClientId client, const std::vector<Request>& requests);
  // The shard set a batch would lock, canonically ordered and deduplicated
  // (public so the contention tests can pin classification down).
  std::vector<ShardKey> ClassifyBatchShards(ClientId client,
                                            const std::vector<Request>& requests) const;
  ShardTable& shards() { return shard_table_; }
  // Test hook: ApplyBatchSharded sleeps this long while holding its shard
  // locks (before applying), so contention tests can measure whether two
  // batches' shard holds overlap in wall-clock time.
  void SetShardHoldDelayMs(uint64_t ms) {
    shard_hold_delay_ms_.store(ms, std::memory_order_relaxed);
  }

  // --- Windows -----------------------------------------------------------------

  // With `id` == kNone the server allocates the window id; otherwise the
  // client-chosen id is used (Xlib allocates ids client-side so CreateWindow
  // needs no reply).  A duplicate id raises BadValue.
  WindowId CreateWindow(ClientId client, WindowId parent, int x, int y, int width, int height,
                        int border_width, WindowId id = kNone);
  bool DestroyWindow(ClientId client, WindowId window);
  bool MapWindow(ClientId client, WindowId window);
  bool UnmapWindow(ClientId client, WindowId window);
  // Negative fields mean "leave unchanged".
  bool ConfigureWindow(ClientId client, WindowId window, int x, int y, int width, int height,
                       int border_width);
  bool RaiseWindow(ClientId client, WindowId window);
  // XReparentWindow: moves `window` (and its subtree) under `new_parent` at
  // (x, y), preserving map state.  BadWindow for unknown windows or the
  // root; BadValue when `new_parent` lies inside `window`'s own subtree.
  bool ReparentWindow(ClientId client, WindowId window, WindowId new_parent, int x, int y);
  void SelectInput(ClientId client, WindowId window, uint32_t mask);
  bool SetWindowBackground(ClientId client, WindowId window, Pixel pixel);

  bool WindowExists(WindowId window) const;
  // Geometry in parent coordinates; nullopt for unknown windows.
  std::optional<Rect> WindowGeometry(WindowId window) const;
  std::optional<WindowId> WindowParent(WindowId window) const;
  std::vector<WindowId> WindowChildren(WindowId window) const;
  bool IsMapped(WindowId window) const;
  bool IsViewable(WindowId window) const;  // Mapped, with all ancestors mapped.
  // Absolute (root-relative) position of the window's origin.
  std::optional<Point> AbsolutePosition(WindowId window) const;

  // --- Atoms and properties ------------------------------------------------------

  Atom InternAtom(ClientId client, std::string_view name);
  std::string AtomName(Atom atom) const;
  bool ChangeProperty(ClientId client, WindowId window, Atom property, std::string value);
  std::optional<std::string> GetProperty(ClientId client, WindowId window, Atom property);
  bool DeleteProperty(ClientId client, WindowId window, Atom property);

  // --- Colors, fonts, cursors, bitmaps ---------------------------------------------

  std::optional<Pixel> AllocNamedColor(ClientId client, std::string_view name);
  Pixel AllocColor(ClientId client, Rgb rgb);
  std::optional<FontId> LoadFont(ClientId client, std::string_view name);
  const FontMetrics* QueryFont(FontId font) const;
  CursorId CreateNamedCursor(ClientId client, std::string_view name);
  std::optional<std::string> CursorName(CursorId cursor) const;
  BitmapId CreateBitmap(ClientId client, std::string_view name, int width, int height);
  std::optional<Rect> BitmapSize(BitmapId bitmap) const;

  // --- Graphics contexts and drawing --------------------------------------------------

  using Gc = GcValues;  // Declared in request.h so requests can carry it.
  // As with CreateWindow, `id` lets the client allocate the GC id itself.
  GcId CreateGc(ClientId client, GcId id = kNone);
  void FreeGc(ClientId client, GcId gc);
  bool ChangeGc(ClientId client, GcId gc, const Gc& values);
  const Gc* GetGc(GcId gc) const;

  void ClearWindow(ClientId client, WindowId window);
  // Clears `area` (window coordinates) to the window background and drops
  // journal text whose baseline anchor lies inside it -- the primitive
  // behind damage-coalesced partial repaints.
  void ClearArea(ClientId client, WindowId window, const Rect& area);
  void FillRectangle(ClientId client, WindowId window, GcId gc, const Rect& rect);
  void DrawRectangle(ClientId client, WindowId window, GcId gc, const Rect& rect);
  void DrawLine(ClientId client, WindowId window, GcId gc, int x0, int y0, int x1, int y1);
  void DrawString(ClientId client, WindowId window, GcId gc, int x, int y,
                  std::string_view text);
  // The text journal of a window (most recent draws last).
  std::vector<TextItem> WindowText(WindowId window) const;

  // --- Focus and selections --------------------------------------------------------------

  void SetInputFocus(ClientId client, WindowId window);
  WindowId GetInputFocus() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return focus_window_;
  }

  void SetSelectionOwner(ClientId client, Atom selection, WindowId owner);
  WindowId GetSelectionOwner(ClientId client, Atom selection);
  // Asks the selection owner to convert; the reply arrives as a
  // SelectionNotify event on `requestor`.
  void ConvertSelection(ClientId client, Atom selection, Atom target, Atom property,
                        WindowId requestor);
  // Used by owners replying to a SelectionRequest.
  void SendSelectionNotify(ClientId client, WindowId requestor, Atom selection, Atom target,
                           Atom property);

  // --- Events ------------------------------------------------------------------------------

  // Sends `event` to the clients selecting `mask` on `destination`; with
  // mask 0, to the client that created the window (X11 SendEvent semantics).
  void SendEvent(ClientId client, WindowId destination, const Event& event, uint32_t mask);

  // --- Input injection (the test/benchmark stand-in for a physical user) -------------------

  void InjectPointerMove(int x, int y);
  void InjectButton(int button, bool press);
  void InjectKey(KeySym keysym, bool press);
  // Convenience: press+release.
  void InjectClick(int button) {
    InjectButton(button, true);
    InjectButton(button, false);
  }
  void InjectKeystroke(KeySym keysym) {
    InjectKey(keysym, true);
    InjectKey(keysym, false);
  }
  Point pointer_position() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return pointer_;
  }
  // Deepest viewable window containing the point.
  WindowId WindowAt(int x, int y) const;

  // --- Wire transport ----------------------------------------------------------------------

  // The threaded socket front-end (created on first use).  Wire clients
  // connect through it instead of calling the Server directly; see
  // src/xsim/wire/wire_server.h.
  wire::WireServer& wire();
  bool has_wire() const;

  // Traffic accounting called by the wire layer.  Frame traffic also feeds
  // the TraceBuffer's cumulative wire counters while tracing is active.
  void CountWireConnection();
  // Raises an X error against `client` for a frame-layer failure that never
  // became a request (malformed or truncated frame): BadLength/BadRequest
  // with the client's current sequence number, since the damaged frame never
  // earned one.
  void RaiseTransportError(ClientId client, ErrorCode code);
  void CountWireFrameIn(uint64_t bytes);
  void CountWireFrameOut(uint64_t bytes);
  void CountWireBatch();
  void CountWireMalformed();
  void CountWireFault(bool dropped, bool truncated, bool delayed);

  // --- Introspection -----------------------------------------------------------------------

  // Counter accessors return by-value snapshots taken under the server lock:
  // wire dispatch threads mutate these concurrently with script-side reads.
  RequestCounters counters() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return counters_;
  }
  WireCounters wire_counters() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return wire_counters_;
  }
  // Unified reset: a measurement window starts clean across *all* counter
  // families.  (Regression fix: fault counters used to survive
  // ResetCounters, so traffic measurements taken after a reset still saw
  // stale fault totals; wire counters joined the same reset in PR 5.)
  void ResetCounters() {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    counters_ = RequestCounters();
    fault_counters_ = FaultCounters();
    wire_counters_ = WireCounters();
    session_counters_ = SessionCounters();
  }

  // Fault injection and failure observability.
  FaultInjector& fault_injector() { return fault_injector_; }
  FaultCounters fault_counters() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return fault_counters_;
  }
  void ResetFaultCounters() {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    fault_counters_ = FaultCounters();
  }

  // Protocol trace (xscope-style): start/stop/filter/export via the
  // TraceBuffer itself; the server records into it on every request it
  // admits and every event it queues.
  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }

  // Simulated transport cost: every request costs `request_ns` and every
  // synchronous round trip an additional `round_trip_ns` of busy-waiting.
  // Models the inter-process X connection of the paper's environment (a few
  // hundred microseconds per round trip on 1990 hardware); zero by default.
  void SetSimulatedLatency(uint64_t request_ns, uint64_t round_trip_ns) {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    request_latency_ns_ = request_ns;
    round_trip_latency_ns_ = round_trip_ns;
  }
  // The raster is read without locking (golden-raster hashing); callers must
  // quiesce wire clients first -- the synchronous batch acks make "my last
  // flush returned" a sufficient barrier.
  const Raster& raster() const { return raster_; }
  Timestamp now() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return time_;
  }

  // Multi-line dump of the window tree with geometry, map state and text
  // content -- the reproduction's version of Figure 10's screen dump.
  std::string DumpTree() const;

 private:
  static constexpr WindowId kRootWindow = 1;

  struct WindowRec {
    WindowId id = kNone;
    WindowId parent = kNone;
    ClientId owner = 0;
    Rect geometry;
    int border_width = 0;
    bool mapped = false;
    Pixel background = 0xffffff;
    // Children in stacking order, bottom to top, as a doubly-linked sibling
    // list (the X.org server's firstChild/lastChild/prevSib/nextSib): a
    // window leaves or restacks without a scan of its siblings.
    WindowRec* first_child = nullptr;   // Bottom of the stack.
    WindowRec* last_child = nullptr;    // Top of the stack.
    WindowRec* prev_sibling = nullptr;  // The sibling just below.
    WindowRec* next_sibling = nullptr;  // The sibling just above.
    std::map<ClientId, uint32_t> event_masks;
    std::map<Atom, std::string> properties;
    std::vector<TextItem> text_items;
  };

  struct ClientRec {
    ClientId id = 0;
    std::string name;
    std::deque<Event> queue;
    uint64_t sequence = 0;  // Number of requests issued so far.
    bool dead = false;      // KillClient was called; requests are dropped.
    ErrorSink error_sink;
    // Connection lifecycle (PR 7).
    uint64_t session_token = 0;
    CloseDownMode close_down = CloseDownMode::kDestroyAll;
    bool retained = false;  // Disconnected with a Retain mode; resumable.
    std::chrono::steady_clock::time_point retained_at{};
    bool replaying = false;  // Inside a kReplayMark bracket: creates upsert.
  };

  WindowRec* FindWindow(WindowId id);
  const WindowRec* FindWindow(WindowId id) const;
  // Top-level ancestor (direct child of the root) of `window`; kNone for the
  // root itself or unknown windows.  Caller holds mu_.
  WindowId SubtreeRootLocked(WindowId window) const;
  ClientRec* FindClient(ClientId id);
  const ClientRec* FindClient(ClientId id) const;
  // Shared teardown for UnregisterClient and KillClient: destroys the
  // client's windows, releases its selections, clears its queue.
  void CloseDownClient(ClientRec* rec);

  // Queues `event` on a client (skipping dead clients) and traces the
  // delivery; every path that feeds a client queue goes through here.
  void EnqueueEvent(ClientRec* rec, const Event& event);
  // Delivers `event` to every client that selected `mask` on `window`.
  void Deliver(WindowId window, const Event& event, uint32_t mask);
  // Walks from `window` towards the root, delivering to the first window
  // with a client selecting `mask` (pointer-event propagation).  Adjusts
  // coordinates to the delivery window.  Returns the delivery window.
  WindowId DeliverWithPropagation(WindowId window, Event event, uint32_t mask);

  // Stacks `rec` on top of `parent`'s children / takes it out of them.
  static void LinkOnTop(WindowRec* parent, WindowRec* rec);
  static void Unlink(WindowRec* parent, WindowRec* rec);
  void DestroyWindowInternal(WindowRec* rec);
  void GenerateExpose(WindowId window);
  // Ancestor chain root->window inclusive.
  std::vector<WindowId> AncestorChain(WindowId window) const;
  void UpdateCrossing(WindowId old_window, WindowId new_window);
  // The visible region of a window in root coordinates (intersection of its
  // rect with all ancestors').
  Rect VisibleRegion(const WindowRec& rec) const;
  Rect AbsoluteRect(const WindowRec& rec) const;
  // Validates the window/GC pair of a drawing request, raising BadWindow or
  // BadGC as appropriate.  True when both resources exist.
  bool CheckDrawable(ClientId client, WindowId window, const WindowRec* rec, GcId gc,
                     const Gc* context);
  void PaintBackground(WindowRec& rec);
  Timestamp Tick() { return ++time_; }
  // Per-request bookkeeping: bumps the total counter and the client's
  // sequence number, applies simulated transport latency, consults the
  // fault injector, and appends a trace record when tracing is active
  // (`resource` is the request's primary resource id, for the record).
  // Returns false when the request must not execute (the client is dead, or
  // the injector failed/dropped it); an injected failure also raises a
  // BadImplementation error on the client.
  bool BeginRequest(ClientId client, RequestType type, XId resource = kNone);
  void CountRoundTrip();
  // Generates an X error event on `client` for the request in flight.
  void RaiseError(ClientId client, ErrorCode code, XId resource, RequestType request);

  std::map<WindowId, std::unique_ptr<WindowRec>> windows_;
  std::map<ClientId, std::unique_ptr<ClientRec>> clients_;
  std::map<GcId, Gc> gcs_;
  // GC ownership, so close-down can free a client's GCs (they used to leak)
  // and the orphan census can attribute them.
  std::map<GcId, ClientId> gc_owners_;
  std::map<FontId, FontMetrics> fonts_;
  std::map<std::string, FontId, std::less<>> font_ids_;
  std::map<CursorId, std::string> cursors_;
  std::map<BitmapId, std::pair<std::string, Rect>> bitmaps_;
  std::vector<std::string> atoms_;  // atoms_[atom - 1] == name.
  std::map<Atom, std::pair<WindowId, ClientId>> selections_;

  XId next_id_ = 2;  // 1 is the root window.
  ClientId next_client_ = 1;
  Timestamp time_ = 0;

  // Input state.
  Point pointer_;
  uint32_t modifier_state_ = 0;
  uint32_t button_state_ = 0;
  WindowId pointer_window_ = kRootWindow;
  WindowId grab_window_ = kNone;  // Implicit grab while a button is down.
  WindowId focus_window_ = kNone;

  // Batch-level shard locks (see shard.h); orthogonal to mu_ and always
  // acquired before it, never while holding it.
  ShardTable shard_table_;
  std::atomic<uint64_t> shard_hold_delay_ms_{0};

  RequestCounters counters_;
  FaultCounters fault_counters_;
  WireCounters wire_counters_;
  SessionCounters session_counters_;
  FaultInjector fault_injector_;
  TraceBuffer trace_;
  // True while BeginRequest is running: an injected failure's RaiseError
  // must not re-mark the previous request's trace record.
  bool in_begin_request_ = false;
  uint64_t request_latency_ns_ = 0;
  uint64_t round_trip_latency_ns_ = 0;
  Raster raster_;

  // Serializes all server state against concurrent wire dispatch threads.
  // Recursive because public methods compose (ApplyRequest -> CreateWindow,
  // DumpTree -> WindowGeometry) and error sinks may re-enter.
  mutable std::recursive_mutex mu_;
  // Declared last so ~Server tears the wire front-end down (joining its
  // threads, which may still call public methods) while the rest of the
  // server is intact.
  std::unique_ptr<wire::WireServer> wire_server_;
};

}  // namespace xsim

#endif  // SRC_XSIM_SERVER_H_
