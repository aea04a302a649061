// Display: the client-side connection handle, shaped like Xlib's Display*.
//
// Each Tk application opens its own Display on a shared Server, which is how
// multiple "applications" coexist on one display for the `send` command and
// the ICCCM selection protocol, exactly as in the paper's environment.
//
// Like Xlib, the Display buffers one-way requests in an output queue instead
// of delivering them to the server immediately.  The queue drains into
// the transport when:
//   * Flush() or Sync() is called explicitly,
//   * the queue reaches its capacity (automatic flush),
//   * a reply-bearing query is issued (InternAtom, GetProperty, ...), or
//   * the client asks for events (Pending/PollEvent -- XPending semantics).
// Only queries block for a reply, so only queries (and Sync) count as round
// trips.  Errors raised by buffered requests surface at the next flush, each
// tagged with the sequence number the client assigned at enqueue time --
// Xlib's deferred asynchronous error model.  SetSynchronous(true) restores
// the old call-through behaviour (XSynchronize): every request applies
// immediately, returns its real status, and costs a full round trip.
//
// Since PR 5 the delivery step itself is a wire::Transport: either the
// in-process direct path or a real byte stream of encoded frames to the
// threaded wire server (TCLK_TRANSPORT=wire).  The Display's observable
// behaviour is identical on both.

#ifndef SRC_XSIM_DISPLAY_H_
#define SRC_XSIM_DISPLAY_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/xsim/error.h"
#include "src/xsim/event.h"
#include "src/xsim/request.h"
#include "src/xsim/server.h"
#include "src/xsim/session_journal.h"
#include "src/xsim/types.h"
#include "src/xsim/wire/transport.h"

namespace xsim {

class Display {
 public:
  // Default output-queue capacity before an automatic flush.
  static constexpr size_t kDefaultOutputCapacity = 64;

  // Opens a connection to `server`.  The server must outlive the Display.
  // The two-argument form picks the transport from TCLK_TRANSPORT.
  static std::unique_ptr<Display> Open(Server& server, std::string client_name);
  static std::unique_ptr<Display> Open(Server& server, std::string client_name,
                                       wire::TransportKind transport);
  ~Display();

  Display(const Display&) = delete;
  Display& operator=(const Display&) = delete;

  // The shared server object.  Tests and the Tk test harness use this for
  // input injection and raster inspection; protocol traffic goes through the
  // transport.
  Server& server() { return server_; }
  ClientId client_id() const { return client_; }
  WindowId root() const { return root_; }
  wire::TransportKind transport_kind() const { return transport_->kind(); }
  const char* transport_name() const { return wire::TransportKindName(transport_->kind()); }

  // --- Output buffer (XFlush / XSync / XSynchronize) ---

  // Ships every queued request to the server as one batch.
  void Flush();
  // Flush, then one no-op round trip so the client has seen the server
  // process (and report errors for) everything it sent.
  void Sync();
  // XSynchronize: apply each request immediately with a per-request round
  // trip; buffered methods then return real statuses instead of optimism.
  void SetSynchronous(bool on);
  bool synchronous() const { return synchronous_; }
  size_t pending_requests() const { return queue_.size(); }
  size_t output_capacity() const { return output_capacity_; }
  void set_output_capacity(size_t capacity) {
    output_capacity_ = capacity == 0 ? 1 : capacity;
    MaybeAutoFlush();
  }
  uint64_t flush_count() const { return flush_count_; }
  uint64_t auto_flush_count() const { return auto_flush_count_; }

  // --- Error handling ---
  //
  // The server delivers X errors for this connection here (the Display
  // installs itself as the connection's error sink on Open).  With
  // buffering, delivery happens while a flush or query drains the queue; the
  // error's `sequence` identifies the offending request.  Without a handler
  // the Display just records the error, mirroring Xlib's default of not
  // crashing the client for non-fatal errors.
  using ErrorHandler = std::function<void(const XError&)>;
  void set_error_handler(ErrorHandler handler) { error_handler_ = std::move(handler); }
  const XError& last_error() const { return last_error_; }
  uint64_t error_count() const { return error_count_; }
  void reset_error_count() { error_count_ = 0; }
  // Sequence number of the most recent request on this connection
  // (including requests still sitting in the output queue).
  uint64_t request_sequence() const { return next_sequence_; }

  // --- Connection lifecycle (PR 7) ---
  //
  // The XSetIOErrorHandler analogue -- except the handler may recover.  When
  // the transport dies without an orderly Disconnect (EOF, server bounce,
  // missed heartbeat), the Display invokes the handler; without one it
  // attempts Reconnect() itself.  A handler returning false leaves the
  // Display closed, Xlib's fatal behaviour.
  using IOErrorHandler = std::function<bool(Display&)>;
  void set_io_error_handler(IOErrorHandler handler) {
    io_error_handler_ = std::move(handler);
  }
  // Invoked after every successful reconnect + journal replay; the toolkit
  // hangs a full-redraw here (replay restores structure, not pixels).
  void set_reconnect_handler(std::function<void()> handler) {
    reconnect_handler_ = std::move(handler);
  }

  // Orderly close: drains the output queue to exhaustion (error handlers
  // may enqueue fresh requests mid-flush, so one Flush is not enough), then
  // sends the farewell.  Idempotent; the destructor calls it too.
  void Disconnect();
  // Re-dials the server with exponential backoff + deterministic jitter,
  // resumes the retained session when the token still names one, and
  // replays the session journal.  False when every attempt failed, the
  // Display is closing, or the transport is direct (nothing to re-dial).
  bool Reconnect();
  // Heartbeat: pings the server and waits up to `timeout_ms` for the pong.
  // On a missed deadline the connection is declared dead and the io-error
  // path (reconnect by default) runs; returns the final liveness.
  bool CheckLiveness(uint64_t timeout_ms = 1000);
  // X11 SetCloseDownMode: what the server does with this client's resources
  // when the connection drops.
  bool SetCloseDownMode(CloseDownMode mode);

  // Lifecycle introspection (surfaced by Tk's `info connection`).
  bool io_error() const { return transport_->io_error(); }
  uint64_t session_token() const { return transport_->session_token(); }
  bool resumed() const { return transport_->resumed(); }
  uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  uint64_t reconnect_attempts() const { return reconnect_attempts_; }
  uint64_t reconnects() const { return reconnects_; }
  uint64_t resumes() const { return resumes_; }
  uint64_t replayed_requests() const { return replayed_requests_; }
  const char* last_disconnect_reason() const { return last_disconnect_reason_; }
  // The session journal replayed by Reconnect.  Only the wire transport
  // journals; on the direct transport it stays empty.
  const SessionJournal& journal() const { return journal_; }

  // Backoff tuning (tests dial these down; the jitter is a deterministic
  // hash of (client, attempt), so reconnect storms stay reproducible).
  void set_max_reconnect_attempts(int attempts) {
    max_reconnect_attempts_ = attempts < 1 ? 1 : attempts;
  }
  void set_backoff_base_ms(uint64_t ms) { backoff_base_ms_ = ms; }
  uint64_t BackoffDelayMs(int attempt) const;

  // Windows.
  WindowId CreateWindow(WindowId parent, int x, int y, int width, int height,
                        int border_width = 0);
  bool DestroyWindow(WindowId w);
  bool MapWindow(WindowId w);
  bool UnmapWindow(WindowId w);
  bool MoveResizeWindow(WindowId w, int x, int y, int width, int height);
  bool ResizeWindow(WindowId w, int width, int height);
  bool RaiseWindow(WindowId w);
  // XReparentWindow: moves `w` (with its subtree) under `parent` at (x, y).
  bool ReparentWindow(WindowId w, WindowId parent, int x, int y);
  void SelectInput(WindowId w, uint32_t mask);
  bool SetWindowBackground(WindowId w, Pixel p);

  // Atoms and properties.  InternAtom and GetProperty need replies: they
  // flush and block for the reply (one round trip each).
  Atom InternAtom(std::string_view name);
  std::string AtomName(Atom atom);
  bool ChangeProperty(WindowId w, Atom property, std::string value);
  std::optional<std::string> GetProperty(WindowId w, Atom property);
  bool DeleteProperty(WindowId w, Atom property);

  // Resources (reply-bearing queries: flush + round trip).
  std::optional<Pixel> AllocNamedColor(std::string_view name);
  Pixel AllocColor(Rgb rgb);
  std::optional<FontId> LoadFont(std::string_view name);
  // Metrics live in a per-connection cache (over the wire the reply is
  // copied into it), so the pointer stays valid for the Display's lifetime.
  const FontMetrics* QueryFont(FontId font);
  CursorId CreateNamedCursor(std::string_view name);
  BitmapId CreateBitmap(std::string_view name, int width, int height);

  // GCs and drawing (one-way: buffered).  CreateGc allocates the id
  // client-side, so it needs no reply -- as in Xlib.
  GcId CreateGc();
  void FreeGc(GcId gc);
  bool ChangeGc(GcId gc, const Server::Gc& values);
  void ClearWindow(WindowId w);
  void ClearArea(WindowId w, const Rect& area);
  void FillRectangle(WindowId w, GcId gc, const Rect& rect);
  void DrawRectangle(WindowId w, GcId gc, const Rect& rect);
  void DrawLine(WindowId w, GcId gc, int x0, int y0, int x1, int y1);
  void DrawString(WindowId w, GcId gc, int x, int y, std::string_view text);

  // Focus and selections.
  void SetInputFocus(WindowId w);
  WindowId GetInputFocus();  // Query: flush + round trip.
  void SetSelectionOwner(Atom selection, WindowId owner);
  WindowId GetSelectionOwner(Atom selection);  // Query: flush + round trip.
  void ConvertSelection(Atom selection, Atom target, Atom property, WindowId requestor);
  void SendSelectionNotify(WindowId requestor, Atom selection, Atom target, Atom property);
  void SendEvent(WindowId destination, const Event& event, uint32_t mask = 0);

  // Events.  Asking for events flushes the output queue first (XPending /
  // XNextEvent semantics: the request buffer never starves the server while
  // the client waits for a response to work it hasn't sent).
  bool Pending();
  size_t PendingCount();
  bool PollEvent(Event* out);

 private:
  Display(Server& server, std::string client_name, wire::TransportKind kind);

  void HandleError(const XError& error);
  // Transport died outside an orderly Disconnect: run the io-error handler
  // (default: Reconnect).  Returns true when the connection is usable again.
  bool HandleIOError();
  // Ships the session journal through the fresh transport, bracketed by
  // kReplayMark so re-creates upsert instead of BadValue.
  void ReplayJournal();
  // Assigns the next sequence number and either queues the request or (in
  // synchronous mode) applies it immediately.  Returns the request's status
  // in synchronous mode; true (optimistically, like Xlib) when buffered.
  bool Enqueue(Request&& request);
  void MaybeAutoFlush();
  // Flush + query + resync: the shape of every reply-bearing call.
  wire::WireReply RoundTrip(const wire::WireQuery& query);
  // After a query the server-side sequence counter has advanced past the
  // client's; adopt it.
  void Resync() { next_sequence_ = transport_->SequenceSync(); }
  XId AllocResourceId() { return resource_id_base_ + next_resource_offset_++; }

  Server& server_;
  std::unique_ptr<wire::Transport> transport_;
  ClientId client_ = 0;
  WindowId root_ = kNone;
  ErrorHandler error_handler_;
  XError last_error_;
  uint64_t error_count_ = 0;

  // Connection lifecycle.
  std::string client_name_;  // Kept for the reconnect re-handshake.
  wire::TransportKind kind_ = wire::TransportKind::kDirect;
  SessionJournal journal_;
  IOErrorHandler io_error_handler_;
  std::function<void()> reconnect_handler_;
  bool closing_ = false;        // Orderly Disconnect in progress / done.
  bool reconnecting_ = false;   // Re-entrancy guard for Reconnect.
  bool handling_io_error_ = false;
  int max_reconnect_attempts_ = 8;
  uint64_t backoff_base_ms_ = 1;
  uint64_t ping_nonce_ = 0;
  uint64_t heartbeats_sent_ = 0;
  uint64_t reconnect_attempts_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t resumes_ = 0;
  uint64_t replayed_requests_ = 0;
  const char* last_disconnect_reason_ = "none";

  std::vector<Request> queue_;
  size_t output_capacity_ = kDefaultOutputCapacity;
  bool synchronous_ = false;
  bool flushing_ = false;  // Re-entrancy guard (error handlers may issue requests).
  uint64_t next_sequence_ = 0;
  uint64_t flush_count_ = 0;
  uint64_t auto_flush_count_ = 0;
  std::map<FontId, FontMetrics> font_cache_;
  // Client-side resource-id allocation (Xlib's XAllocID): each connection
  // owns a disjoint id range, so CreateWindow/CreateGc need no reply.
  XId resource_id_base_ = 0;
  XId next_resource_offset_ = 0;
};

}  // namespace xsim

#endif  // SRC_XSIM_DISPLAY_H_
