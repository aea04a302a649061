#include "src/xsim/display.h"

#include <chrono>
#include <thread>

#include "src/xsim/color.h"

namespace xsim {

namespace {
// Each connection owns a disjoint client-side resource-id range, like the
// resource-id-base/mask the real server hands Xlib at connection setup.
constexpr XId kResourceIdRange = 0x00100000;

// splitmix64: the deterministic jitter source for reconnect backoff.  Keyed
// by (client, attempt) so a storm of reconnecting clients de-synchronizes
// reproducibly -- same seed, same schedule, run after run.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

std::unique_ptr<Display> Display::Open(Server& server, std::string client_name) {
  return Open(server, std::move(client_name), wire::TransportKindFromEnv());
}

std::unique_ptr<Display> Display::Open(Server& server, std::string client_name,
                                       wire::TransportKind transport) {
  return std::unique_ptr<Display>(
      new Display(server, std::move(client_name), transport));
}

Display::Display(Server& server, std::string client_name, wire::TransportKind kind)
    : server_(server), client_name_(std::move(client_name)), kind_(kind) {
  transport_ = wire::Connect(server, kind, client_name_,
                             [this](const XError& error) { HandleError(error); });
  client_ = transport_->client_id();
  root_ = transport_->root();
  next_sequence_ = transport_->SequenceSync();
  resource_id_base_ = client_ * kResourceIdRange;
}

Display::~Display() { Disconnect(); }

void Display::Disconnect() {
  if (closing_) {
    return;
  }
  // Drain to exhaustion, not just once: a deferred error delivered by the
  // flush may run a handler that enqueues fresh requests (the re-entrancy
  // guard parks them in the queue), and the farewell must not strand them.
  // Bounded so a pathological handler that enqueues forever still ends.
  for (int round = 0; round < 16 && !queue_.empty(); ++round) {
    if (!transport_->Alive() || transport_->io_error()) {
      break;
    }
    Flush();
  }
  closing_ = true;
  last_disconnect_reason_ = "bye";
  transport_->Close();
}

void Display::HandleError(const XError& error) {
  last_error_ = error;
  ++error_count_;
  if (error_handler_) {
    error_handler_(error);
  }
}

// ---------------------------------------------------------------------------
// Connection lifecycle.

bool Display::HandleIOError() {
  if (closing_ || reconnecting_ || handling_io_error_) {
    return false;
  }
  if (!transport_->io_error()) {
    // Dead-but-connected (KillClient) is not an IO error; the connection
    // stays down on purpose.
    return false;
  }
  last_disconnect_reason_ = "io";
  handling_io_error_ = true;
  bool recovered = io_error_handler_ ? io_error_handler_(*this) : Reconnect();
  handling_io_error_ = false;
  return recovered;
}

uint64_t Display::BackoffDelayMs(int attempt) const {
  // Exponential with a cap: base, 2*base, 4*base, ... up to 64*base.
  int shift = attempt < 6 ? attempt : 6;
  uint64_t base = backoff_base_ms_ << shift;
  uint64_t jitter = Mix64((static_cast<uint64_t>(client_) << 16) |
                          static_cast<uint64_t>(attempt));
  return base + jitter % (base + 1);
}

bool Display::Reconnect() {
  if (closing_ || reconnecting_ || kind_ == wire::TransportKind::kDirect) {
    return false;
  }
  reconnecting_ = true;
  uint64_t token = transport_->session_token();
  bool dialed = false;
  for (int attempt = 0; attempt < max_reconnect_attempts_; ++attempt) {
    ++reconnect_attempts_;
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffDelayMs(attempt - 1)));
    }
    auto fresh = wire::Connect(server_, kind_, client_name_,
                               [this](const XError& error) { HandleError(error); }, token);
    if (fresh->client_id() != 0 && !fresh->io_error()) {
      transport_ = std::move(fresh);
      dialed = true;
      break;
    }
  }
  if (!dialed) {
    reconnecting_ = false;
    return false;
  }
  ++reconnects_;
  if (transport_->resumed()) {
    ++resumes_;
  }
  // A non-resumed handshake registered a fresh ClientId; adopt it, but keep
  // the original resource-id range: every id in the journal (and in the
  // toolkit's widgets) lives there, and the server accepts any client-chosen
  // id that is free -- which they all are after a DestroyAll teardown.
  client_ = transport_->client_id();
  if (resource_id_base_ == 0) {
    // The display never dialed successfully (opened while the server was
    // bouncing): this is its first real client id, so adopt its range.
    resource_id_base_ = client_ * kResourceIdRange;
  }
  root_ = transport_->root();
  next_sequence_ = transport_->SequenceSync();
  ReplayJournal();
  // Requests queued before the drop were never delivered (their batch died
  // with the old socket) but are already folded into the journal the replay
  // just shipped; drop them rather than double-applying the non-idempotent
  // ones.
  queue_.clear();
  reconnecting_ = false;
  if (reconnect_handler_) {
    reconnect_handler_();
  }
  return true;
}

void Display::ReplayJournal() {
  std::vector<Request> batch = journal_.ReplayBatch(root_);
  Request begin;
  begin.op = RequestOpcode::kReplayMark;
  begin.mask = 1;
  batch.insert(batch.begin(), std::move(begin));
  Request end;
  end.op = RequestOpcode::kReplayMark;
  end.mask = 0;
  batch.push_back(std::move(end));
  for (Request& request : batch) {
    request.sequence = ++next_sequence_;
  }
  // Straight through the transport, not Enqueue: replay must not be
  // re-journaled, re-counted, or batched behind anything else.
  transport_->SendBatch(batch);
  replayed_requests_ += batch.size() - 2;  // The marks are framing, not state.
  Resync();
}

bool Display::CheckLiveness(uint64_t timeout_ms) {
  if (closing_) {
    return false;
  }
  if (transport_->io_error()) {
    return HandleIOError();
  }
  ++heartbeats_sent_;
  if (transport_->Ping(++ping_nonce_, timeout_ms)) {
    return true;
  }
  return HandleIOError();
}

bool Display::SetCloseDownMode(CloseDownMode mode) {
  Request request;
  request.op = RequestOpcode::kSetCloseDownMode;
  request.mask = static_cast<uint32_t>(mode);
  return Enqueue(std::move(request));
}

// ---------------------------------------------------------------------------
// Output buffer.

void Display::Flush() {
  if (queue_.empty() || flushing_) {
    return;
  }
  flushing_ = true;
  // Swap out the queue first: the batch may deliver errors whose handlers
  // issue fresh requests, which then land in a clean queue.
  std::vector<Request> batch;
  batch.swap(queue_);
  transport_->SendBatch(batch);
  ++flush_count_;
  flushing_ = false;
  if (transport_->io_error()) {
    // The connection died under the batch (server bounce, half-close).  The
    // requests are already folded into the session journal, so the default
    // reconnect handler re-asserts them via replay.
    HandleIOError();
  }
}

void Display::Sync() {
  Flush();
  // The no-op query is the round trip: once it returns, every request ahead
  // of it has been processed and its errors delivered (XSync semantics; real
  // Xlib uses GetInputFocus as the throwaway request).
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kNoOpRoundTrip;
  transport_->Query(query);
  if (transport_->io_error()) {
    HandleIOError();
  }
  Resync();
}

void Display::SetSynchronous(bool on) {
  if (on) {
    Flush();  // Preserve ordering across the mode switch.
  }
  synchronous_ = on;
}

bool Display::Enqueue(Request&& request) {
  if (!transport_->Alive()) {
    // Distinguish a broken wire (recoverable: reconnect and carry on) from a
    // KillClient'ed connection (dead on purpose: swallow requests).
    if (!(transport_->io_error() && HandleIOError() && transport_->Alive())) {
      return false;
    }
  }
  request.sequence = ++next_sequence_;
  // Only a transport that can reconnect replays the journal, so only it
  // keeps one: the direct transport never reconnects (see Reconnect).
  if (kind_ != wire::TransportKind::kDirect) {
    journal_.Note(request);
  }
  if (synchronous_) {
    bool ok = transport_->SendRequestSync(request);
    if (!ok && transport_->io_error() && HandleIOError()) {
      // The reconnect replayed the journal (this request included); one
      // retry delivers its synchronous status.
      request.sequence = ++next_sequence_;
      ok = transport_->SendRequestSync(request);
    }
    return ok;
  }
  queue_.push_back(std::move(request));
  MaybeAutoFlush();
  return true;
}

void Display::MaybeAutoFlush() {
  if (!flushing_ && queue_.size() >= output_capacity_) {
    ++auto_flush_count_;
    Flush();
  }
}

wire::WireReply Display::RoundTrip(const wire::WireQuery& query) {
  Flush();
  wire::WireReply reply = transport_->Query(query);
  if (transport_->io_error() && HandleIOError()) {
    reply = transport_->Query(query);  // Retry once on the fresh connection.
  }
  Resync();
  return reply;
}

// ---------------------------------------------------------------------------
// Windows (one-way: buffered).

WindowId Display::CreateWindow(WindowId parent, int x, int y, int width, int height,
                               int border_width) {
  WindowId id = AllocResourceId();
  Request request;
  request.op = RequestOpcode::kCreateWindow;
  request.window = parent;
  request.resource = id;
  request.x = x;
  request.y = y;
  request.width = width;
  request.height = height;
  request.border_width = border_width;
  return Enqueue(std::move(request)) ? id : kNone;
}

bool Display::DestroyWindow(WindowId w) {
  Request request;
  request.op = RequestOpcode::kDestroyWindow;
  request.window = w;
  return Enqueue(std::move(request));
}

bool Display::MapWindow(WindowId w) {
  Request request;
  request.op = RequestOpcode::kMapWindow;
  request.window = w;
  return Enqueue(std::move(request));
}

bool Display::UnmapWindow(WindowId w) {
  Request request;
  request.op = RequestOpcode::kUnmapWindow;
  request.window = w;
  return Enqueue(std::move(request));
}

bool Display::MoveResizeWindow(WindowId w, int x, int y, int width, int height) {
  Request request;
  request.op = RequestOpcode::kConfigureWindow;
  request.window = w;
  request.x = x;
  request.y = y;
  request.width = width;
  request.height = height;
  request.border_width = -1;
  return Enqueue(std::move(request));
}

bool Display::ResizeWindow(WindowId w, int width, int height) {
  Request request;
  request.op = RequestOpcode::kConfigureWindow;
  request.window = w;
  request.x = -1;
  request.y = -1;
  request.width = width;
  request.height = height;
  request.border_width = -1;
  return Enqueue(std::move(request));
}

bool Display::RaiseWindow(WindowId w) {
  Request request;
  request.op = RequestOpcode::kRaiseWindow;
  request.window = w;
  return Enqueue(std::move(request));
}

bool Display::ReparentWindow(WindowId w, WindowId parent, int x, int y) {
  Request request;
  request.op = RequestOpcode::kReparentWindow;
  request.window = w;
  request.resource = parent;
  request.x = x;
  request.y = y;
  return Enqueue(std::move(request));
}

void Display::SelectInput(WindowId w, uint32_t mask) {
  Request request;
  request.op = RequestOpcode::kSelectInput;
  request.window = w;
  request.mask = mask;
  Enqueue(std::move(request));
}

bool Display::SetWindowBackground(WindowId w, Pixel p) {
  Request request;
  request.op = RequestOpcode::kSetWindowBackground;
  request.window = w;
  request.pixel = p;
  return Enqueue(std::move(request));
}

// ---------------------------------------------------------------------------
// Atoms and properties.

Atom Display::InternAtom(std::string_view name) {
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kInternAtom;
  query.text = std::string(name);
  return static_cast<Atom>(RoundTrip(query).value);
}

std::string Display::AtomName(Atom atom) {
  // Free introspection in the direct path, so no flush and no round-trip
  // accounting; the wire path pays a frame exchange that only the wire
  // counters see.
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kAtomName;
  query.a = atom;
  return transport_->Query(query).text;
}

bool Display::ChangeProperty(WindowId w, Atom property, std::string value) {
  Request request;
  request.op = RequestOpcode::kChangeProperty;
  request.window = w;
  request.atom = property;
  request.text = std::move(value);
  return Enqueue(std::move(request));
}

std::optional<std::string> Display::GetProperty(WindowId w, Atom property) {
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kGetProperty;
  query.a = w;
  query.b = property;
  wire::WireReply reply = RoundTrip(query);
  if (!reply.ok) {
    return std::nullopt;
  }
  return std::move(reply.text);
}

bool Display::DeleteProperty(WindowId w, Atom property) {
  Request request;
  request.op = RequestOpcode::kDeleteProperty;
  request.window = w;
  request.atom = property;
  return Enqueue(std::move(request));
}

// ---------------------------------------------------------------------------
// Resources (queries).

std::optional<Pixel> Display::AllocNamedColor(std::string_view name) {
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kAllocNamedColor;
  query.text = std::string(name);
  wire::WireReply reply = RoundTrip(query);
  if (!reply.ok) {
    return std::nullopt;
  }
  return static_cast<Pixel>(reply.value);
}

Pixel Display::AllocColor(Rgb rgb) {
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kAllocColor;
  query.a = PackPixel(rgb);
  return static_cast<Pixel>(RoundTrip(query).value);
}

std::optional<FontId> Display::LoadFont(std::string_view name) {
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kLoadFont;
  query.text = std::string(name);
  wire::WireReply reply = RoundTrip(query);
  if (!reply.ok) {
    return std::nullopt;
  }
  return static_cast<FontId>(reply.value);
}

const FontMetrics* Display::QueryFont(FontId font) {
  auto it = font_cache_.find(font);
  if (it != font_cache_.end()) {
    return &it->second;
  }
  // Like AtomName: free introspection, no flush, no round-trip accounting.
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kQueryFont;
  query.a = font;
  wire::WireReply reply = transport_->Query(query);
  if (!reply.ok) {
    return nullptr;
  }
  FontMetrics metrics;
  metrics.name = std::move(reply.text);
  metrics.char_width = static_cast<int>(reply.value);
  metrics.ascent = reply.c;
  metrics.descent = reply.d;
  return &font_cache_.emplace(font, std::move(metrics)).first->second;
}

CursorId Display::CreateNamedCursor(std::string_view name) {
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kCreateCursor;
  query.text = std::string(name);
  return static_cast<CursorId>(RoundTrip(query).value);
}

BitmapId Display::CreateBitmap(std::string_view name, int width, int height) {
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kCreateBitmap;
  query.text = std::string(name);
  query.c = width;
  query.d = height;
  return static_cast<BitmapId>(RoundTrip(query).value);
}

// ---------------------------------------------------------------------------
// GCs and drawing (one-way: buffered).

GcId Display::CreateGc() {
  GcId id = AllocResourceId();
  Request request;
  request.op = RequestOpcode::kCreateGc;
  request.resource = id;
  return Enqueue(std::move(request)) ? id : kNone;
}

void Display::FreeGc(GcId gc) {
  Request request;
  request.op = RequestOpcode::kFreeGc;
  request.gc = gc;
  Enqueue(std::move(request));
}

bool Display::ChangeGc(GcId gc, const Server::Gc& values) {
  Request request;
  request.op = RequestOpcode::kChangeGc;
  request.gc = gc;
  request.gc_values = values;
  return Enqueue(std::move(request));
}

void Display::ClearWindow(WindowId w) {
  Request request;
  request.op = RequestOpcode::kClearWindow;
  request.window = w;
  Enqueue(std::move(request));
}

void Display::ClearArea(WindowId w, const Rect& area) {
  Request request;
  request.op = RequestOpcode::kClearArea;
  request.window = w;
  request.rect = area;
  Enqueue(std::move(request));
}

void Display::FillRectangle(WindowId w, GcId gc, const Rect& rect) {
  Request request;
  request.op = RequestOpcode::kFillRectangle;
  request.window = w;
  request.gc = gc;
  request.rect = rect;
  Enqueue(std::move(request));
}

void Display::DrawRectangle(WindowId w, GcId gc, const Rect& rect) {
  Request request;
  request.op = RequestOpcode::kDrawRectangle;
  request.window = w;
  request.gc = gc;
  request.rect = rect;
  Enqueue(std::move(request));
}

void Display::DrawLine(WindowId w, GcId gc, int x0, int y0, int x1, int y1) {
  Request request;
  request.op = RequestOpcode::kDrawLine;
  request.window = w;
  request.gc = gc;
  request.x = x0;
  request.y = y0;
  request.x1 = x1;
  request.y1 = y1;
  Enqueue(std::move(request));
}

void Display::DrawString(WindowId w, GcId gc, int x, int y, std::string_view text) {
  Request request;
  request.op = RequestOpcode::kDrawString;
  request.window = w;
  request.gc = gc;
  request.x = x;
  request.y = y;
  request.text = std::string(text);
  Enqueue(std::move(request));
}

// ---------------------------------------------------------------------------
// Focus, selections, events.

void Display::SetInputFocus(WindowId w) {
  Request request;
  request.op = RequestOpcode::kSetInputFocus;
  request.window = w;
  Enqueue(std::move(request));
}

WindowId Display::GetInputFocus() {
  Flush();
  // Focus introspection has never counted a round trip (no Resync either);
  // keep that shape on both transports.
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kGetInputFocus;
  return static_cast<WindowId>(transport_->Query(query).value);
}

void Display::SetSelectionOwner(Atom selection, WindowId owner) {
  Request request;
  request.op = RequestOpcode::kSetSelectionOwner;
  request.atom = selection;
  request.window = owner;
  Enqueue(std::move(request));
}

WindowId Display::GetSelectionOwner(Atom selection) {
  wire::WireQuery query;
  query.op = wire::QueryOpcode::kGetSelectionOwner;
  query.a = selection;
  return static_cast<WindowId>(RoundTrip(query).value);
}

void Display::ConvertSelection(Atom selection, Atom target, Atom property,
                               WindowId requestor) {
  Request request;
  request.op = RequestOpcode::kConvertSelection;
  request.atom = selection;
  request.target = target;
  request.property = property;
  request.requestor = requestor;
  Enqueue(std::move(request));
}

void Display::SendSelectionNotify(WindowId requestor, Atom selection, Atom target,
                                  Atom property) {
  Request request;
  request.op = RequestOpcode::kSendSelectionNotify;
  request.requestor = requestor;
  request.atom = selection;
  request.target = target;
  request.property = property;
  Enqueue(std::move(request));
}

void Display::SendEvent(WindowId destination, const Event& event, uint32_t mask) {
  Request request;
  request.op = RequestOpcode::kSendEvent;
  request.window = destination;
  request.event = event;
  request.mask = mask;
  Enqueue(std::move(request));
}

// ---------------------------------------------------------------------------
// Events.

bool Display::Pending() {
  Flush();
  bool pending = transport_->HasPendingEvents();
  if (transport_->io_error() && HandleIOError()) {
    pending = transport_->HasPendingEvents();
  }
  return pending;
}

size_t Display::PendingCount() {
  Flush();
  size_t count = transport_->PendingEventCount();
  if (transport_->io_error() && HandleIOError()) {
    count = transport_->PendingEventCount();
  }
  return count;
}

bool Display::PollEvent(Event* out) {
  Flush();
  bool got = transport_->NextEvent(out);
  if (!got && transport_->io_error() && HandleIOError()) {
    got = transport_->NextEvent(out);
  }
  return got;
}

}  // namespace xsim
