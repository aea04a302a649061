#include "src/xsim/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "src/xsim/wire/wire_server.h"

namespace xsim {

Server::Server(int width, int height) : raster_(width, height, 0x00c0c0c0) {
  auto root = std::make_unique<WindowRec>();
  root->id = kRootWindow;
  root->parent = kNone;
  root->geometry = Rect{0, 0, width, height};
  root->mapped = true;
  root->background = 0x00c0c0c0;
  windows_[kRootWindow] = std::move(root);
}


// ---------------------------------------------------------------------------
// Request accounting with optional simulated transport latency, sequence
// numbering, error generation and fault injection.

namespace {

// Short waits (sub-50us simulated wire latency) spin, because OS sleep
// granularity would distort the latency model; anything longer sleeps so
// that fault-injection delays and slow-transport tests don't burn a core.
void WaitNs(uint64_t ns) {
  if (ns == 0) {
    return;
  }
  constexpr uint64_t kSpinThresholdNs = 50000;
  if (ns >= kSpinThresholdNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

}  // namespace

bool Server::BeginRequest(ClientId client, RequestType type, XId resource) {
  ClientRec* rec = FindClient(client);
  if (rec != nullptr && rec->dead) {
    return false;  // Requests from a crashed client vanish (and go untraced).
  }
  ++counters_.total;
  if (rec != nullptr) {
    ++rec->sequence;
  }
  const bool tracing = trace_.active();
  std::chrono::steady_clock::time_point start;
  if (tracing) {
    start = std::chrono::steady_clock::now();
  }
  TraceOutcome outcome = TraceOutcome::kOk;
  bool execute = true;
  in_begin_request_ = true;
  WaitNs(request_latency_ns_);
  if (fault_injector_.active()) {
    FaultInjector::Decision decision = fault_injector_.Decide(type);
    if (decision.delay_ns != 0) {
      ++fault_counters_.injected_delays;
      WaitNs(decision.delay_ns);
      outcome = TraceOutcome::kDelayed;
    }
    if (decision.drop) {
      ++fault_counters_.injected_drops;
      outcome = TraceOutcome::kDropped;
      execute = false;
    } else if (decision.fail) {
      ++fault_counters_.injected_failures;
      RaiseError(client, ErrorCode::kBadImplementation, kNone, type);
      outcome = TraceOutcome::kFailed;
      execute = false;
    }
  }
  if (tracing) {
    uint64_t duration_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count());
    trace_.RecordRequest(client, type, resource, duration_ns, outcome);
  }
  in_begin_request_ = false;
  return execute;
}

void Server::CountRoundTrip() {
  ++counters_.round_trips;
  WaitNs(round_trip_latency_ns_);
  trace_.MarkLastRequestRoundTrip(round_trip_latency_ns_);
}

void Server::RaiseError(ClientId client, ErrorCode code, XId resource, RequestType request) {
  ++fault_counters_.errors_generated;
  // A validation error discovered after the request was admitted rewrites
  // the in-flight trace record; an injected failure is recorded by
  // BeginRequest itself.
  if (!in_begin_request_) {
    trace_.MarkLastRequestError();
  }
  ClientRec* rec = FindClient(client);
  if (rec == nullptr || rec->dead || !rec->error_sink) {
    return;
  }
  XError error;
  error.code = code;
  error.sequence = rec->sequence;
  error.resource = resource;
  error.request = request;
  rec->error_sink(error);
}

// wire_server_ is the last-declared member, so the default destructor tears
// it down first: its connection threads join while the server they call back
// into is still whole.
Server::~Server() = default;

// ---------------------------------------------------------------------------
// Wire transport plumbing.

wire::WireServer& Server::wire() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (wire_server_ == nullptr) {
    wire_server_ = std::make_unique<wire::WireServer>(*this);
  }
  return *wire_server_;
}

bool Server::has_wire() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return wire_server_ != nullptr;
}

void Server::CountWireConnection() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ++wire_counters_.connections;
}

void Server::CountWireFrameIn(uint64_t bytes) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ++wire_counters_.frames_in;
  wire_counters_.bytes_in += bytes;
  trace_.RecordWireTraffic(1, bytes);
}

void Server::CountWireFrameOut(uint64_t bytes) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ++wire_counters_.frames_out;
  wire_counters_.bytes_out += bytes;
  trace_.RecordWireTraffic(1, bytes);
}

void Server::CountWireBatch() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ++wire_counters_.batches;
}

void Server::CountWireMalformed() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ++wire_counters_.malformed_frames;
}

void Server::RaiseTransportError(ClientId client, ErrorCode code) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ClientRec* rec = FindClient(client);
  if (rec == nullptr || rec->dead || !rec->error_sink) {
    return;
  }
  ++fault_counters_.errors_generated;
  XError error;
  error.code = code;
  error.sequence = rec->sequence;
  error.resource = kNone;
  error.request = RequestType::kOther;
  rec->error_sink(error);
}

void Server::CountWireFault(bool dropped, bool truncated, bool delayed) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (dropped) {
    ++wire_counters_.dropped_frames;
  }
  if (truncated) {
    ++wire_counters_.truncated_frames;
  }
  if (delayed) {
    ++wire_counters_.delayed_frames;
  }
}


// ---------------------------------------------------------------------------
// Lookup helpers.

Server::WindowRec* Server::FindWindow(WindowId id) {
  auto it = windows_.find(id);
  return it == windows_.end() ? nullptr : it->second.get();
}

const Server::WindowRec* Server::FindWindow(WindowId id) const {
  auto it = windows_.find(id);
  return it == windows_.end() ? nullptr : it->second.get();
}

Server::ClientRec* Server::FindClient(ClientId id) {
  auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : it->second.get();
}

const Server::ClientRec* Server::FindClient(ClientId id) const {
  auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Clients.

namespace {

// splitmix64: deterministic, well-mixed session tokens (same registration
// order, same tokens -- what the reconnect benches gate on).
uint64_t MixToken(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ClientId Server::RegisterClient(std::string name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ClientId id = next_client_++;
  auto client = std::make_unique<ClientRec>();
  client->id = id;
  client->name = std::move(name);
  client->session_token = MixToken(id);
  clients_[id] = std::move(client);
  return id;
}

void Server::CloseDownClient(ClientRec* rec) {
  // Destroy windows owned by the client (top-level ones; descendants go with
  // them), release selections, drop the queue.
  ClientId client = rec->id;
  std::vector<WindowId> owned;
  for (const auto& [id, window] : windows_) {
    if (window->owner == client && window->parent != kNone) {
      const WindowRec* parent = FindWindow(window->parent);
      if (parent == nullptr || parent->owner != client) {
        owned.push_back(id);
      }
    }
  }
  for (WindowId id : owned) {
    if (WindowRec* window = FindWindow(id)) {
      DestroyWindowInternal(window);
    }
  }
  for (auto it = selections_.begin(); it != selections_.end();) {
    if (it->second.second == client) {
      it = selections_.erase(it);
    } else {
      ++it;
    }
  }
  // Free the client's GCs (pre-PR-7 they leaked: gcs_ had no owner map).
  for (auto it = gc_owners_.begin(); it != gc_owners_.end();) {
    if (it->second == client) {
      gcs_.erase(it->first);
      it = gc_owners_.erase(it);
    } else {
      ++it;
    }
  }
  rec->queue.clear();
  rec->error_sink = nullptr;
}

void Server::UnregisterClient(ClientId client) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (ClientRec* rec = FindClient(client)) {
    if (!rec->dead) {
      CloseDownClient(rec);
    }
    clients_.erase(client);
  }
}

void Server::KillClient(ClientId client) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ClientRec* rec = FindClient(client);
  if (rec == nullptr || rec->dead) {
    return;
  }
  ++fault_counters_.killed_clients;
  CloseDownClient(rec);
  rec->dead = true;
}

bool Server::ClientAlive(ClientId client) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const ClientRec* rec = FindClient(client);
  return rec != nullptr && !rec->dead;
}

// ---------------------------------------------------------------------------
// Connection lifecycle: close-down modes, session retention, resumption.

void Server::SetCloseDownMode(ClientId client, CloseDownMode mode) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (ClientRec* rec = FindClient(client)) {
    rec->close_down = mode;
  }
}

CloseDownMode Server::ClientCloseDownMode(ClientId client) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const ClientRec* rec = FindClient(client);
  return rec == nullptr ? CloseDownMode::kDestroyAll : rec->close_down;
}

uint64_t Server::ClientSessionToken(ClientId client) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const ClientRec* rec = FindClient(client);
  return rec == nullptr ? 0 : rec->session_token;
}

void Server::DisconnectClient(ClientId client, DisconnectReason reason) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ClientRec* rec = FindClient(client);
  if (rec == nullptr) {
    return;
  }
  ++session_counters_.disconnects;
  trace_.RecordDisconnect(client, reason);
  // The connection is gone either way; the error sink captured it.
  rec->error_sink = nullptr;
  if (rec->dead || rec->close_down == CloseDownMode::kDestroyAll) {
    if (!rec->dead) {
      CloseDownClient(rec);
    }
    clients_.erase(client);
    return;
  }
  rec->retained = true;
  rec->retained_at = std::chrono::steady_clock::now();
  ++session_counters_.retained;
}

ClientId Server::ResumeSession(uint64_t token) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (token == 0) {
    return 0;
  }
  for (auto& [id, rec] : clients_) {
    if (rec->session_token == token && !rec->dead) {
      // The token proves identity, so a session that is still nominally
      // connected is adoptable too: the client can redial a broken wire
      // (half-open socket, blackholed pings) before the server's reader
      // notices the old connection die.  Without adoption the re-register
      // would collide with the live session's resource ids.  The wire layer
      // tracks which connection owns the client, so the stale connection's
      // eventual teardown no-ops instead of destroying the adopted session.
      rec->retained = false;
      ++session_counters_.resumed;
      return id;
    }
  }
  return 0;
}

bool Server::ClientRetained(ClientId client) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const ClientRec* rec = FindClient(client);
  return rec != nullptr && rec->retained;
}

size_t Server::RetainedSessionCount() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [id, rec] : clients_) {
    if (rec->retained) {
      ++count;
    }
  }
  return count;
}

size_t Server::ReapRetainedSessions(uint64_t grace_ms, bool include_permanent) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  std::vector<ClientId> expired;
  for (const auto& [id, rec] : clients_) {
    if (!rec->retained) {
      continue;
    }
    if (rec->close_down == CloseDownMode::kRetainPermanent && !include_permanent) {
      continue;
    }
    const auto age =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - rec->retained_at);
    if (static_cast<uint64_t>(age.count()) >= grace_ms) {
      expired.push_back(id);
    }
  }
  for (ClientId id : expired) {
    if (ClientRec* rec = FindClient(id)) {
      if (!rec->dead) {
        CloseDownClient(rec);
      }
      clients_.erase(id);
      ++session_counters_.reaped;
    }
  }
  return expired.size();
}

ResourceCounts Server::ClientResources(ClientId client) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ResourceCounts counts;
  for (const auto& [id, window] : windows_) {
    if (window->owner == client && id != kRootWindow) {
      ++counts.windows;
      counts.properties += window->properties.size();
    }
  }
  for (const auto& [gc, owner] : gc_owners_) {
    if (owner == client) {
      ++counts.gcs;
    }
  }
  for (const auto& [atom, owner] : selections_) {
    if (owner.second == client) {
      ++counts.selections;
    }
  }
  return counts;
}

size_t Server::OrphanResourceCount() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  size_t orphans = 0;
  for (const auto& [id, window] : windows_) {
    if (id != kRootWindow && window->owner != 0 &&
        clients_.find(window->owner) == clients_.end()) {
      ++orphans;
    }
  }
  for (const auto& [gc, owner] : gc_owners_) {
    if (clients_.find(owner) == clients_.end()) {
      ++orphans;
    }
  }
  for (const auto& [atom, owner] : selections_) {
    if (clients_.find(owner.second) == clients_.end()) {
      ++orphans;
    }
  }
  return orphans;
}

void Server::SetErrorSink(ClientId client, ErrorSink sink) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (ClientRec* rec = FindClient(client)) {
    rec->error_sink = std::move(sink);
  }
}

uint64_t Server::ClientSequence(ClientId client) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const ClientRec* rec = FindClient(client);
  return rec == nullptr ? 0 : rec->sequence;
}

// ---------------------------------------------------------------------------
// Buffered request pipeline: decoding the output queue a Display flushes.

bool Server::ApplyRequest(ClientId client, const Request& request, bool synchronous) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ClientRec* rec = FindClient(client);
  if (rec == nullptr || rec->dead) {
    return false;
  }
  // The request carries the sequence number the client assigned at enqueue
  // time; BeginRequest's increment must land exactly on it so a deferred
  // error identifies the offending request.
  if (request.sequence != 0) {
    rec->sequence = request.sequence - 1;
  }
  bool ok = true;
  switch (request.op) {
    case RequestOpcode::kCreateWindow:
      ok = CreateWindow(client, request.window, request.x, request.y, request.width,
                        request.height, request.border_width, request.resource) != kNone;
      break;
    case RequestOpcode::kDestroyWindow:
      ok = DestroyWindow(client, request.window);
      break;
    case RequestOpcode::kMapWindow:
      ok = MapWindow(client, request.window);
      break;
    case RequestOpcode::kUnmapWindow:
      ok = UnmapWindow(client, request.window);
      break;
    case RequestOpcode::kConfigureWindow:
      ok = ConfigureWindow(client, request.window, request.x, request.y, request.width,
                           request.height, request.border_width);
      break;
    case RequestOpcode::kRaiseWindow:
      ok = RaiseWindow(client, request.window);
      break;
    case RequestOpcode::kSelectInput:
      SelectInput(client, request.window, request.mask);
      break;
    case RequestOpcode::kSetWindowBackground:
      ok = SetWindowBackground(client, request.window, request.pixel);
      break;
    case RequestOpcode::kChangeProperty:
      ok = ChangeProperty(client, request.window, request.atom, request.text);
      break;
    case RequestOpcode::kDeleteProperty:
      ok = DeleteProperty(client, request.window, request.atom);
      break;
    case RequestOpcode::kCreateGc:
      ok = CreateGc(client, request.resource) != kNone;
      break;
    case RequestOpcode::kFreeGc:
      FreeGc(client, request.gc);
      break;
    case RequestOpcode::kChangeGc:
      ok = ChangeGc(client, request.gc, request.gc_values);
      break;
    case RequestOpcode::kClearWindow:
      ClearWindow(client, request.window);
      break;
    case RequestOpcode::kClearArea:
      ClearArea(client, request.window, request.rect);
      break;
    case RequestOpcode::kFillRectangle:
      FillRectangle(client, request.window, request.gc, request.rect);
      break;
    case RequestOpcode::kDrawRectangle:
      DrawRectangle(client, request.window, request.gc, request.rect);
      break;
    case RequestOpcode::kDrawLine:
      DrawLine(client, request.window, request.gc, request.x, request.y, request.x1, request.y1);
      break;
    case RequestOpcode::kDrawString:
      DrawString(client, request.window, request.gc, request.x, request.y, request.text);
      break;
    case RequestOpcode::kSetInputFocus:
      SetInputFocus(client, request.window);
      break;
    case RequestOpcode::kSetSelectionOwner:
      SetSelectionOwner(client, request.atom, request.window);
      break;
    case RequestOpcode::kConvertSelection:
      ConvertSelection(client, request.atom, request.target, request.property,
                       request.requestor);
      break;
    case RequestOpcode::kSendSelectionNotify:
      SendSelectionNotify(client, request.requestor, request.atom, request.target,
                          request.property);
      break;
    case RequestOpcode::kSendEvent:
      SendEvent(client, request.window, request.event, request.mask);
      break;
    case RequestOpcode::kSetCloseDownMode:
      if (BeginRequest(client, RequestType::kOther)) {
        if (request.mask <= static_cast<uint32_t>(CloseDownMode::kRetainPermanent)) {
          rec->close_down = static_cast<CloseDownMode>(request.mask);
        } else {
          RaiseError(client, ErrorCode::kBadValue, kNone, RequestType::kOther);
          ok = false;
        }
      } else {
        ok = false;
      }
      break;
    case RequestOpcode::kReplayMark:
      if (BeginRequest(client, RequestType::kOther)) {
        rec->replaying = request.mask != 0;
      } else {
        ok = false;
      }
      break;
    case RequestOpcode::kReparentWindow:
      ok = ReparentWindow(client, request.window, request.resource, request.x, request.y);
      break;
  }
  if (synchronous) {
    // XSynchronize: the client waits out a full round trip per request to
    // learn its status immediately.
    CountRoundTrip();
  }
  return ok;
}

size_t Server::ApplyBatch(ClientId client, const std::vector<Request>& requests) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  size_t applied = 0;
  for (const Request& request : requests) {
    if (ApplyRequest(client, request)) {
      ++applied;
    }
  }
  ++counters_.flushes;
  counters_.batched_requests += requests.size();
  if (requests.size() > counters_.max_batch) {
    counters_.max_batch = requests.size();
  }
  // The flush marker lands after the batch's request records, mirroring the
  // order things hit the wire.
  trace_.RecordFlush(client, requests.size());
  return applied;
}

// ---------------------------------------------------------------------------
// Sharded batch dispatch (see shard.h for the locking model).

WindowId Server::SubtreeRootLocked(WindowId window) const {
  const WindowRec* rec = FindWindow(window);
  if (rec == nullptr || window == kRootWindow) {
    return kNone;
  }
  while (rec->parent != kRootWindow) {
    const WindowRec* parent = FindWindow(rec->parent);
    if (parent == nullptr) {
      // Detached or mid-teardown: treat the highest known ancestor as the
      // subtree root rather than escalating to the global shard.
      break;
    }
    rec = parent;
  }
  return rec->id;
}

std::vector<ShardKey> Server::ClassifyBatchShards(
    ClientId client, const std::vector<Request>& requests) const {
  (void)client;
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<ShardKey> keys;
  keys.reserve(4);
  // Subtree of `window`, degrading to the global shard for the root window
  // (root properties back Tk's send registry -- serialize those) and for
  // windows the classifier cannot place.
  auto subtree_or_global = [&](WindowId window) -> ShardKey {
    WindowId root = SubtreeRootLocked(window);
    if (root == kNone) {
      return ShardKey{ShardClass::kGlobal, 0};
    }
    return ShardKey{ShardClass::kWindowSubtree, root};
  };
  for (const Request& request : requests) {
    switch (request.op) {
      case RequestOpcode::kCreateWindow:
        // `window` is the parent; a top-level create founds a new subtree
        // whose shard is the client-allocated id itself.
        if (request.window == kRootWindow) {
          keys.push_back(ShardKey{ShardClass::kWindowSubtree, request.resource});
        } else {
          keys.push_back(subtree_or_global(request.window));
        }
        break;
      case RequestOpcode::kReparentWindow:
        // The cross-shard case: source subtree plus destination subtree.
        keys.push_back(subtree_or_global(request.window));
        if (request.resource == kRootWindow) {
          // Reparenting directly under the root makes `window` a subtree
          // root of its own.
          keys.push_back(ShardKey{ShardClass::kWindowSubtree, request.window});
        } else {
          keys.push_back(subtree_or_global(request.resource));
        }
        break;
      case RequestOpcode::kDestroyWindow:
      case RequestOpcode::kMapWindow:
      case RequestOpcode::kUnmapWindow:
      case RequestOpcode::kConfigureWindow:
      case RequestOpcode::kRaiseWindow:
      case RequestOpcode::kSelectInput:
      case RequestOpcode::kSetWindowBackground:
      case RequestOpcode::kChangeProperty:
      case RequestOpcode::kDeleteProperty:
      case RequestOpcode::kClearWindow:
      case RequestOpcode::kClearArea:
      // Draw requests read their GC but only mutate the window, so they
      // stay inside the subtree shard (the server mutex guards the actual
      // GC map read).
      case RequestOpcode::kFillRectangle:
      case RequestOpcode::kDrawRectangle:
      case RequestOpcode::kDrawLine:
      case RequestOpcode::kDrawString:
        keys.push_back(subtree_or_global(request.window));
        break;
      case RequestOpcode::kCreateGc:
      case RequestOpcode::kFreeGc:
      case RequestOpcode::kChangeGc:
        keys.push_back(ShardKey{ShardClass::kGc, 0});
        break;
      case RequestOpcode::kSetSelectionOwner:
      case RequestOpcode::kConvertSelection:
      case RequestOpcode::kSendSelectionNotify:
        keys.push_back(ShardKey{ShardClass::kAtom, 0});
        break;
      case RequestOpcode::kSendEvent:
      case RequestOpcode::kSetInputFocus:
      case RequestOpcode::kSetCloseDownMode:
      case RequestOpcode::kReplayMark:
        keys.push_back(ShardKey{ShardClass::kGlobal, 0});
        break;
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

size_t Server::ApplyBatchSharded(ClientId client, const std::vector<Request>& requests) {
  // Classification reads the tree under mu_, released before the shard
  // acquisition: shard locks are always taken with mu_ free, and mu_ is
  // re-taken per request inside -- the lock order that keeps batch
  // concurrency deadlock-free.
  ShardTable::Hold hold = shard_table_.Acquire(ClassifyBatchShards(client, requests));
  const auto start = std::chrono::steady_clock::now();
  uint64_t delay_ms = shard_hold_delay_ms_.load(std::memory_order_relaxed);
  if (delay_ms != 0) {
    // Contention-test hook: stretch the shard hold without touching mu_, so
    // overlap (or its absence) is observable in batch wall-clock.
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  size_t applied = 0;
  for (const Request& request : requests) {
    if (ApplyRequest(client, request)) {
      ++applied;
    }
  }
  uint64_t duration_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    ++counters_.flushes;
    counters_.batched_requests += requests.size();
    if (requests.size() > counters_.max_batch) {
      counters_.max_batch = requests.size();
    }
    trace_.RecordFlush(client, requests.size(), duration_ns);
  }
  return applied;
}

bool Server::HasPendingEvents(ClientId client) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = clients_.find(client);
  return it != clients_.end() && !it->second->queue.empty();
}

size_t Server::PendingEventCount(ClientId client) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const ClientRec* rec = FindClient(client);
  return rec == nullptr ? 0 : rec->queue.size();
}

bool Server::NextEvent(ClientId client, Event* out) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ClientRec* rec = FindClient(client);
  if (rec == nullptr || rec->queue.empty()) {
    return false;
  }
  *out = rec->queue.front();
  rec->queue.pop_front();
  return true;
}

// ---------------------------------------------------------------------------
// Event delivery.

void Server::EnqueueEvent(ClientRec* rec, const Event& event) {
  if (rec == nullptr || rec->dead) {
    return;
  }
  // A retained session has nobody draining its queue; keep the most recent
  // events but bound the memory a long disconnect can pin.
  constexpr size_t kRetainedQueueCap = 1024;
  if (rec->retained && rec->queue.size() >= kRetainedQueueCap) {
    rec->queue.pop_front();
  }
  rec->queue.push_back(event);
  trace_.RecordEvent(rec->id, event.type, event.window);
}

void Server::Deliver(WindowId window, const Event& event, uint32_t mask) {
  const WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    return;
  }
  for (const auto& [client_id, selected] : rec->event_masks) {
    if ((selected & mask) == 0) {
      continue;
    }
    EnqueueEvent(FindClient(client_id), event);
  }
}

WindowId Server::DeliverWithPropagation(WindowId window, Event event, uint32_t mask) {
  WindowId current = window;
  while (current != kNone) {
    const WindowRec* rec = FindWindow(current);
    if (rec == nullptr) {
      return kNone;
    }
    bool selected = false;
    for (const auto& [client_id, selected_mask] : rec->event_masks) {
      if ((selected_mask & mask) != 0) {
        selected = true;
        break;
      }
    }
    if (selected) {
      // Re-express coordinates relative to the delivery window.
      std::optional<Point> abs = AbsolutePosition(current);
      if (abs) {
        event.x = event.x_root - abs->x;
        event.y = event.y_root - abs->y;
      }
      event.window = current;
      Deliver(current, event, mask);
      return current;
    }
    current = rec->parent;
  }
  return kNone;
}

// ---------------------------------------------------------------------------
// Windows.

WindowId Server::CreateWindow(ClientId client, WindowId parent, int x, int y, int width,
                              int height, int border_width, WindowId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kCreateWindow, parent)) {
    return kNone;
  }
  ++counters_.create_window;
  WindowRec* parent_rec = FindWindow(parent);
  if (parent_rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, parent, RequestType::kCreateWindow);
    return kNone;
  }
  if (id != kNone && FindWindow(id) != nullptr) {
    // During a session-journal replay, re-creating a window the retained
    // session still holds is an idempotent upsert, not an error: refresh the
    // geometry and keep the existing record (children, properties, masks).
    WindowRec* existing = FindWindow(id);
    const ClientRec* owner_rec = FindClient(client);
    if (existing->owner == client && owner_rec != nullptr && owner_rec->replaying) {
      existing->geometry = Rect{x, y, std::max(1, width), std::max(1, height)};
      existing->border_width = border_width;
      return id;
    }
    // X raises BadIDChoice for a reused client-allocated id; BadValue is the
    // closest code the simulator has.
    RaiseError(client, ErrorCode::kBadValue, id, RequestType::kCreateWindow);
    return kNone;
  }
  if (width <= 0 || height <= 0) {
    // X would refuse with BadValue; the simulator degrades to a 1x1 window
    // but still reports the error so misbehaving callers are observable.
    RaiseError(client, ErrorCode::kBadValue, parent, RequestType::kCreateWindow);
  }
  if (id == kNone) {
    id = next_id_++;
  }
  auto rec = std::make_unique<WindowRec>();
  rec->id = id;
  rec->parent = parent;
  rec->owner = client;
  rec->geometry = Rect{x, y, std::max(1, width), std::max(1, height)};
  rec->border_width = border_width;
  LinkOnTop(parent_rec, rec.get());
  windows_[id] = std::move(rec);
  return id;
}

void Server::LinkOnTop(WindowRec* parent, WindowRec* rec) {
  rec->prev_sibling = parent->last_child;
  rec->next_sibling = nullptr;
  if (parent->last_child != nullptr) {
    parent->last_child->next_sibling = rec;
  } else {
    parent->first_child = rec;
  }
  parent->last_child = rec;
}

void Server::Unlink(WindowRec* parent, WindowRec* rec) {
  if (rec->prev_sibling != nullptr) {
    rec->prev_sibling->next_sibling = rec->next_sibling;
  } else {
    parent->first_child = rec->next_sibling;
  }
  if (rec->next_sibling != nullptr) {
    rec->next_sibling->prev_sibling = rec->prev_sibling;
  } else {
    parent->last_child = rec->prev_sibling;
  }
  rec->prev_sibling = nullptr;
  rec->next_sibling = nullptr;
}

void Server::DestroyWindowInternal(WindowRec* rec) {
  // Children first, bottom to top, depth-first (X destroys subtrees
  // bottom-up); each destroy unlinks the child, so the bottom one is next.
  while (rec->first_child != nullptr) {
    DestroyWindowInternal(rec->first_child);
  }
  Event event;
  event.type = EventType::kDestroyNotify;
  event.window = rec->id;
  event.time = Tick();
  Deliver(rec->id, event, kStructureNotifyMask);
  if (WindowRec* parent = FindWindow(rec->parent)) {
    Unlink(parent, rec);
    Deliver(parent->id, event, kSubstructureNotifyMask);
  }
  // Release selections owned via this window.
  for (auto it = selections_.begin(); it != selections_.end();) {
    if (it->second.first == rec->id) {
      it = selections_.erase(it);
    } else {
      ++it;
    }
  }
  if (focus_window_ == rec->id) {
    focus_window_ = kNone;
  }
  if (pointer_window_ == rec->id) {
    pointer_window_ = kRootWindow;
  }
  if (grab_window_ == rec->id) {
    grab_window_ = kNone;
  }
  windows_.erase(rec->id);
}

bool Server::DestroyWindow(ClientId client, WindowId window) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kDestroyWindow, window)) {
    return false;
  }
  ++counters_.destroy_window;
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr || window == kRootWindow) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kDestroyWindow);
    return false;
  }
  DestroyWindowInternal(rec);
  return true;
}

bool Server::MapWindow(ClientId client, WindowId window) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kMapWindow, window)) {
    return false;
  }
  ++counters_.map_window;
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kMapWindow);
    return false;
  }
  if (rec->mapped) {
    return true;
  }
  rec->mapped = true;
  Event event;
  event.type = EventType::kMapNotify;
  event.window = window;
  event.time = Tick();
  Deliver(window, event, kStructureNotifyMask);
  if (IsViewable(window)) {
    PaintBackground(*rec);
    GenerateExpose(window);
    // Mapping may reveal already-mapped children.
    for (const WindowRec* child = rec->first_child; child != nullptr;
         child = child->next_sibling) {
      if (IsViewable(child->id)) {
        GenerateExpose(child->id);
      }
    }
  }
  return true;
}

bool Server::UnmapWindow(ClientId client, WindowId window) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kUnmapWindow, window)) {
    return false;
  }
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kUnmapWindow);
    return false;
  }
  if (!rec->mapped) {
    return false;  // Unmapping an unmapped window is not an X error.
  }
  rec->mapped = false;
  Event event;
  event.type = EventType::kUnmapNotify;
  event.window = window;
  event.time = Tick();
  Deliver(window, event, kStructureNotifyMask);
  return true;
}

bool Server::ConfigureWindow(ClientId client, WindowId window, int x, int y, int width,
                             int height, int border_width) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kConfigureWindow, window)) {
    return false;
  }
  ++counters_.configure_window;
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kConfigureWindow);
    return false;
  }
  Rect old = rec->geometry;
  if (x != -1 || y != -1) {
    if (x != -1) {
      rec->geometry.x = x;
    }
    if (y != -1) {
      rec->geometry.y = y;
    }
  }
  bool resized = false;
  if (width > 0 && width != rec->geometry.width) {
    rec->geometry.width = width;
    resized = true;
  }
  if (height > 0 && height != rec->geometry.height) {
    rec->geometry.height = height;
    resized = true;
  }
  if (border_width >= 0) {
    rec->border_width = border_width;
  }
  bool moved = rec->geometry.x != old.x || rec->geometry.y != old.y;
  if (!moved && !resized && border_width < 0) {
    return true;
  }
  Event event;
  event.type = EventType::kConfigureNotify;
  event.window = window;
  event.area = rec->geometry;
  event.border_width = rec->border_width;
  event.time = Tick();
  Deliver(window, event, kStructureNotifyMask);
  if (WindowRec* parent = FindWindow(rec->parent)) {
    Deliver(parent->id, event, kSubstructureNotifyMask);
  }
  if ((resized || moved) && IsViewable(window)) {
    PaintBackground(*rec);
    GenerateExpose(window);
  }
  return true;
}

bool Server::RaiseWindow(ClientId client, WindowId window) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kConfigureWindow, window)) {
    return false;
  }
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kConfigureWindow);
    return false;
  }
  WindowRec* parent = FindWindow(rec->parent);
  if (parent == nullptr) {
    return true;
  }
  Unlink(parent, rec);
  LinkOnTop(parent, rec);
  if (IsViewable(window)) {
    GenerateExpose(window);
  }
  return true;
}

bool Server::ReparentWindow(ClientId client, WindowId window, WindowId new_parent, int x,
                            int y) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kConfigureWindow, window)) {
    return false;
  }
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr || window == kRootWindow) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kConfigureWindow);
    return false;
  }
  WindowRec* parent = FindWindow(new_parent);
  if (parent == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, new_parent, RequestType::kConfigureWindow);
    return false;
  }
  // X11's BadMatch: the new parent must not live inside the window's own
  // subtree (that would orphan the tree).  kBadValue is the closest code the
  // error model has.
  for (WindowId ancestor = new_parent; ancestor != kNone;) {
    if (ancestor == window) {
      RaiseError(client, ErrorCode::kBadValue, new_parent, RequestType::kConfigureWindow);
      return false;
    }
    const WindowRec* walk = FindWindow(ancestor);
    ancestor = walk == nullptr ? kNone : walk->parent;
  }
  if (WindowRec* old_parent = FindWindow(rec->parent); old_parent != nullptr) {
    Unlink(old_parent, rec);
  }
  rec->parent = new_parent;
  rec->geometry.x = x;
  rec->geometry.y = y;
  LinkOnTop(parent, rec);  // Reparenting places the window on top.
  ++counters_.configure_window;
  if (IsViewable(window)) {
    GenerateExpose(window);
  }
  return true;
}

void Server::SelectInput(ClientId client, WindowId window, uint32_t mask) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kSelectInput, window)) {
    return;
  }
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kSelectInput);
    return;
  }
  if (mask == 0) {
    rec->event_masks.erase(client);
  } else {
    rec->event_masks[client] = mask;
  }
}

bool Server::SetWindowBackground(ClientId client, WindowId window, Pixel pixel) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kConfigureWindow, window)) {
    return false;
  }
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kConfigureWindow);
    return false;
  }
  rec->background = pixel;
  return true;
}

bool Server::WindowExists(WindowId window) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return FindWindow(window) != nullptr;
}

std::optional<Rect> Server::WindowGeometry(WindowId window) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    return std::nullopt;
  }
  return rec->geometry;
}

std::optional<WindowId> Server::WindowParent(WindowId window) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    return std::nullopt;
  }
  return rec->parent;
}

std::vector<WindowId> Server::WindowChildren(WindowId window) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<WindowId> children;
  if (const WindowRec* rec = FindWindow(window)) {
    for (const WindowRec* child = rec->first_child; child != nullptr;
         child = child->next_sibling) {
      children.push_back(child->id);
    }
  }
  return children;
}

bool Server::IsMapped(WindowId window) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const WindowRec* rec = FindWindow(window);
  return rec != nullptr && rec->mapped;
}

bool Server::IsViewable(WindowId window) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const WindowRec* rec = FindWindow(window);
  while (rec != nullptr) {
    if (!rec->mapped) {
      return false;
    }
    if (rec->parent == kNone) {
      return true;
    }
    rec = FindWindow(rec->parent);
  }
  return false;
}

std::optional<Point> Server::AbsolutePosition(WindowId window) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    return std::nullopt;
  }
  Point point;
  while (rec != nullptr) {
    point.x += rec->geometry.x;
    point.y += rec->geometry.y;
    rec = FindWindow(rec->parent);
  }
  return point;
}

Rect Server::AbsoluteRect(const WindowRec& rec) const {
  std::optional<Point> abs = AbsolutePosition(rec.id);
  Rect out = rec.geometry;
  out.x = abs ? abs->x : 0;
  out.y = abs ? abs->y : 0;
  return out;
}

Rect Server::VisibleRegion(const WindowRec& rec) const {
  Rect region = AbsoluteRect(rec);
  const WindowRec* current = FindWindow(rec.parent);
  while (current != nullptr) {
    region = region.Intersection(AbsoluteRect(*current));
    current = FindWindow(current->parent);
  }
  return region;
}

void Server::GenerateExpose(WindowId window) {
  const WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    return;
  }
  Event event;
  event.type = EventType::kExpose;
  event.window = window;
  event.area = Rect{0, 0, rec->geometry.width, rec->geometry.height};
  event.count = 0;
  event.time = Tick();
  Deliver(window, event, kExposureMask);
}

// ---------------------------------------------------------------------------
// Atoms and properties.

Atom Server::InternAtom(ClientId client, std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kInternAtom)) {
    return kAtomNone;
  }
  CountRoundTrip();
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (atoms_[i] == name) {
      return static_cast<Atom>(i + 1);
    }
  }
  atoms_.emplace_back(name);
  return static_cast<Atom>(atoms_.size());
}

std::string Server::AtomName(Atom atom) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (atom == 0 || atom > atoms_.size()) {
    return "";
  }
  return atoms_[atom - 1];
}

bool Server::ChangeProperty(ClientId client, WindowId window, Atom property,
                            std::string value) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kChangeProperty, window)) {
    return false;
  }
  ++counters_.change_property;
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kChangeProperty);
    return false;
  }
  if (property == kAtomNone || property > atoms_.size()) {
    RaiseError(client, ErrorCode::kBadAtom, property, RequestType::kChangeProperty);
    return false;
  }
  rec->properties[property] = std::move(value);
  Event event;
  event.type = EventType::kPropertyNotify;
  event.window = window;
  event.atom = property;
  event.time = Tick();
  Deliver(window, event, kPropertyChangeMask);
  return true;
}

std::optional<std::string> Server::GetProperty(ClientId client, WindowId window,
                                               Atom property) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kGetProperty, window)) {
    return std::nullopt;
  }
  ++counters_.get_property;
  CountRoundTrip();
  const WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kGetProperty);
    return std::nullopt;
  }
  auto it = rec->properties.find(property);
  if (it == rec->properties.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool Server::DeleteProperty(ClientId client, WindowId window, Atom property) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kDeleteProperty, window)) {
    return false;
  }
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kDeleteProperty);
    return false;
  }
  if (rec->properties.erase(property) == 0) {
    return false;
  }
  Event event;
  event.type = EventType::kPropertyNotify;
  event.window = window;
  event.atom = property;
  event.time = Tick();
  Deliver(window, event, kPropertyChangeMask);
  return true;
}

// ---------------------------------------------------------------------------
// Colors, fonts, cursors, bitmaps.

std::optional<Pixel> Server::AllocNamedColor(ClientId client, std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kAllocColor)) {
    return std::nullopt;
  }
  ++counters_.alloc_color;
  CountRoundTrip();
  std::optional<Rgb> rgb = LookupColor(name);
  if (!rgb) {
    RaiseError(client, ErrorCode::kBadColor, kNone, RequestType::kAllocColor);
    return std::nullopt;
  }
  return PackPixel(*rgb);
}

Pixel Server::AllocColor(ClientId client, Rgb rgb) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kAllocColor)) {
    return 0;
  }
  ++counters_.alloc_color;
  CountRoundTrip();
  return PackPixel(rgb);
}

std::optional<FontId> Server::LoadFont(ClientId client, std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kLoadFont)) {
    return std::nullopt;
  }
  ++counters_.load_font;
  CountRoundTrip();
  auto it = font_ids_.find(name);
  if (it != font_ids_.end()) {
    return it->second;
  }
  std::optional<FontMetrics> metrics = ResolveFont(name);
  if (!metrics) {
    RaiseError(client, ErrorCode::kBadFont, kNone, RequestType::kLoadFont);
    return std::nullopt;
  }
  FontId id = next_id_++;
  fonts_[id] = *metrics;
  font_ids_[std::string(name)] = id;
  return id;
}

const FontMetrics* Server::QueryFont(FontId font) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = fonts_.find(font);
  return it == fonts_.end() ? nullptr : &it->second;
}

CursorId Server::CreateNamedCursor(ClientId client, std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kCreateCursor)) {
    return kNone;
  }
  CountRoundTrip();
  CursorId id = next_id_++;
  cursors_[id] = std::string(name);
  return id;
}

std::optional<std::string> Server::CursorName(CursorId cursor) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = cursors_.find(cursor);
  if (it == cursors_.end()) {
    return std::nullopt;
  }
  return it->second;
}

BitmapId Server::CreateBitmap(ClientId client, std::string_view name, int width,
                              int height) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kCreateBitmap)) {
    return kNone;
  }
  CountRoundTrip();
  BitmapId id = next_id_++;
  bitmaps_[id] = {std::string(name), Rect{0, 0, width, height}};
  return id;
}

std::optional<Rect> Server::BitmapSize(BitmapId bitmap) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = bitmaps_.find(bitmap);
  if (it == bitmaps_.end()) {
    return std::nullopt;
  }
  return it->second.second;
}

// ---------------------------------------------------------------------------
// GCs and drawing.

GcId Server::CreateGc(ClientId client, GcId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kCreateGc)) {
    return kNone;
  }
  if (id != kNone && gcs_.count(id) != 0) {
    // Replay upsert, as in CreateWindow: the retained session still holds
    // the GC; keep it (the journal replays its values right after).
    auto owner_it = gc_owners_.find(id);
    const ClientRec* owner_rec = FindClient(client);
    if (owner_it != gc_owners_.end() && owner_it->second == client &&
        owner_rec != nullptr && owner_rec->replaying) {
      return id;
    }
    RaiseError(client, ErrorCode::kBadValue, id, RequestType::kCreateGc);
    return kNone;
  }
  if (id == kNone) {
    id = next_id_++;
  }
  gcs_[id] = Gc();
  gc_owners_[id] = client;
  return id;
}

void Server::FreeGc(ClientId client, GcId gc) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kChangeGc, gc)) {
    return;
  }
  if (gcs_.erase(gc) == 0) {
    RaiseError(client, ErrorCode::kBadGC, gc, RequestType::kChangeGc);
  }
  gc_owners_.erase(gc);
}

bool Server::ChangeGc(ClientId client, GcId gc, const Gc& values) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kChangeGc, gc)) {
    return false;
  }
  auto it = gcs_.find(gc);
  if (it == gcs_.end()) {
    RaiseError(client, ErrorCode::kBadGC, gc, RequestType::kChangeGc);
    return false;
  }
  it->second = values;
  return true;
}

const Server::Gc* Server::GetGc(GcId gc) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = gcs_.find(gc);
  return it == gcs_.end() ? nullptr : &it->second;
}

bool Server::CheckDrawable(ClientId client, WindowId window, const WindowRec* rec, GcId gc,
                           const Gc* context) {
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kDraw);
    return false;
  }
  if (context == nullptr) {
    RaiseError(client, ErrorCode::kBadGC, gc, RequestType::kDraw);
    return false;
  }
  return true;
}

void Server::PaintBackground(WindowRec& rec) {
  Rect clip = VisibleRegion(rec);
  raster_.FillRect(AbsoluteRect(rec), rec.background, clip);
}

void Server::ClearWindow(ClientId client, WindowId window) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kDraw, window)) {
    return;
  }
  ++counters_.draw;
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kDraw);
    return;
  }
  rec->text_items.clear();
  if (IsViewable(window)) {
    PaintBackground(*rec);
  }
}

void Server::ClearArea(ClientId client, WindowId window, const Rect& area) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kDraw, window)) {
    return;
  }
  ++counters_.draw;
  WindowRec* rec = FindWindow(window);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kDraw);
    return;
  }
  // The journal anchors each string at its baseline origin; strings anchored
  // inside the cleared area are erased with it.
  rec->text_items.erase(std::remove_if(rec->text_items.begin(), rec->text_items.end(),
                                       [&area](const TextItem& item) {
                                         return area.Contains(item.x, item.y);
                                       }),
                        rec->text_items.end());
  if (IsViewable(window)) {
    std::optional<Point> abs = AbsolutePosition(window);
    Rect target = area;
    target.x += abs->x;
    target.y += abs->y;
    raster_.FillRect(target, rec->background, VisibleRegion(*rec));
  }
}

void Server::FillRectangle(ClientId client, WindowId window, GcId gc, const Rect& rect) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kDraw, window)) {
    return;
  }
  ++counters_.draw;
  WindowRec* rec = FindWindow(window);
  const Gc* context = GetGc(gc);
  if (!CheckDrawable(client, window, rec, gc, context) || !IsViewable(window)) {
    return;
  }
  std::optional<Point> abs = AbsolutePosition(window);
  Rect target = rect;
  target.x += abs->x;
  target.y += abs->y;
  raster_.FillRect(target, context->foreground, VisibleRegion(*rec));
}

void Server::DrawRectangle(ClientId client, WindowId window, GcId gc, const Rect& rect) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kDraw, window)) {
    return;
  }
  ++counters_.draw;
  WindowRec* rec = FindWindow(window);
  const Gc* context = GetGc(gc);
  if (!CheckDrawable(client, window, rec, gc, context) || !IsViewable(window)) {
    return;
  }
  std::optional<Point> abs = AbsolutePosition(window);
  Rect target = rect;
  target.x += abs->x;
  target.y += abs->y;
  raster_.DrawRectOutline(target, context->foreground, VisibleRegion(*rec));
}

void Server::DrawLine(ClientId client, WindowId window, GcId gc, int x0, int y0, int x1,
                      int y1) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kDraw, window)) {
    return;
  }
  ++counters_.draw;
  WindowRec* rec = FindWindow(window);
  const Gc* context = GetGc(gc);
  if (!CheckDrawable(client, window, rec, gc, context) || !IsViewable(window)) {
    return;
  }
  std::optional<Point> abs = AbsolutePosition(window);
  raster_.DrawLine(x0 + abs->x, y0 + abs->y, x1 + abs->x, y1 + abs->y, context->foreground,
                   VisibleRegion(*rec));
}

void Server::DrawString(ClientId client, WindowId window, GcId gc, int x, int y,
                        std::string_view text) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kDraw, window)) {
    return;
  }
  ++counters_.draw;
  WindowRec* rec = FindWindow(window);
  const Gc* context = GetGc(gc);
  if (!CheckDrawable(client, window, rec, gc, context)) {
    return;
  }
  TextItem item;
  item.x = x;
  item.y = y;
  item.text = std::string(text);
  item.pixel = context->foreground;
  item.font = context->font;
  rec->text_items.push_back(item);
  if (!IsViewable(window)) {
    return;
  }
  const FontMetrics* metrics = QueryFont(context->font);
  FontMetrics fallback;
  if (metrics == nullptr) {
    metrics = &fallback;
  }
  std::optional<Point> abs = AbsolutePosition(window);
  raster_.DrawTextBlock(x + abs->x, y + abs->y, metrics->char_width, metrics->ascent,
                        metrics->descent, static_cast<int>(text.size()), context->foreground,
                        VisibleRegion(*rec));
}

std::vector<TextItem> Server::WindowText(WindowId window) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const WindowRec* rec = FindWindow(window);
  return rec == nullptr ? std::vector<TextItem>() : rec->text_items;
}

// ---------------------------------------------------------------------------
// Focus.

void Server::SetInputFocus(ClientId client, WindowId window) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kSetInputFocus, window)) {
    return;
  }
  if (window != kNone && FindWindow(window) == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, window, RequestType::kSetInputFocus);
    return;
  }
  if (window == focus_window_) {
    return;
  }
  if (focus_window_ != kNone) {
    Event event;
    event.type = EventType::kFocusOut;
    event.window = focus_window_;
    event.time = Tick();
    Deliver(focus_window_, event, kFocusChangeMask);
  }
  focus_window_ = window;
  if (window != kNone) {
    Event event;
    event.type = EventType::kFocusIn;
    event.window = window;
    event.time = Tick();
    Deliver(window, event, kFocusChangeMask);
  }
}

// ---------------------------------------------------------------------------
// Selections (ICCCM shape).

void Server::SetSelectionOwner(ClientId client, Atom selection, WindowId owner) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kSetSelectionOwner, owner)) {
    return;
  }
  if (owner != kNone && FindWindow(owner) == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, owner, RequestType::kSetSelectionOwner);
    return;
  }
  auto it = selections_.find(selection);
  if (it != selections_.end() && it->second.first != owner) {
    // Notify the previous owner that it has lost the selection.
    Event event;
    event.type = EventType::kSelectionClear;
    event.window = it->second.first;
    event.atom = selection;
    event.time = Tick();
    EnqueueEvent(FindClient(it->second.second), event);
  }
  if (owner == kNone) {
    selections_.erase(selection);
  } else {
    selections_[selection] = {owner, client};
  }
}

WindowId Server::GetSelectionOwner(ClientId client, Atom selection) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kOther)) {
    return kNone;
  }
  CountRoundTrip();
  auto it = selections_.find(selection);
  return it == selections_.end() ? kNone : it->second.first;
}

void Server::ConvertSelection(ClientId client, Atom selection, Atom target, Atom property,
                              WindowId requestor) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kConvertSelection, requestor)) {
    return;
  }
  if (FindWindow(requestor) == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, requestor, RequestType::kConvertSelection);
    return;
  }
  auto it = selections_.find(selection);
  if (it == selections_.end()) {
    // No owner: refuse with property None.
    Event event;
    event.type = EventType::kSelectionNotify;
    event.window = requestor;
    event.atom = selection;
    event.target = target;
    event.property = kAtomNone;
    event.time = Tick();
    EnqueueEvent(FindClient(client), event);
    return;
  }
  Event event;
  event.type = EventType::kSelectionRequest;
  event.window = it->second.first;
  event.atom = selection;
  event.target = target;
  event.property = property;
  event.requestor = requestor;
  event.time = Tick();
  EnqueueEvent(FindClient(it->second.second), event);
}

void Server::SendSelectionNotify(ClientId client, WindowId requestor, Atom selection,
                                 Atom target, Atom property) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kSendEvent, requestor)) {
    return;
  }
  ++counters_.send_event;
  Event event;
  event.type = EventType::kSelectionNotify;
  event.window = requestor;
  event.atom = selection;
  event.target = target;
  event.property = property;
  event.time = Tick();
  const WindowRec* rec = FindWindow(requestor);
  if (rec != nullptr) {
    EnqueueEvent(FindClient(rec->owner), event);
  }
}

void Server::SendEvent(ClientId client, WindowId destination, const Event& event,
                       uint32_t mask) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!BeginRequest(client, RequestType::kSendEvent, destination)) {
    return;
  }
  ++counters_.send_event;
  const WindowRec* rec = FindWindow(destination);
  if (rec == nullptr) {
    RaiseError(client, ErrorCode::kBadWindow, destination, RequestType::kSendEvent);
    return;
  }
  Event adjusted = event;
  adjusted.window = destination;
  adjusted.time = Tick();
  if (mask == 0) {
    // X11: mask 0 targets the window's creating client.
    EnqueueEvent(FindClient(rec->owner), adjusted);
    return;
  }
  Deliver(destination, adjusted, mask);
}

// ---------------------------------------------------------------------------
// Input injection.

WindowId Server::WindowAt(int x, int y) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const WindowRec* current = FindWindow(kRootWindow);
  if (current == nullptr || !current->geometry.Contains(x, y)) {
    return kRootWindow;
  }
  // Descend into the topmost mapped child containing the point.
  while (true) {
    const WindowRec* next = nullptr;
    for (const WindowRec* child = current->last_child; child != nullptr;
         child = child->prev_sibling) {
      if (!child->mapped) {
        continue;
      }
      Rect abs = AbsoluteRect(*child);
      if (abs.Contains(x, y)) {
        next = child;
        break;
      }
    }
    if (next == nullptr) {
      return current->id;
    }
    current = next;
  }
}

std::vector<WindowId> Server::AncestorChain(WindowId window) const {
  std::vector<WindowId> chain;
  const WindowRec* rec = FindWindow(window);
  while (rec != nullptr) {
    chain.push_back(rec->id);
    rec = FindWindow(rec->parent);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

void Server::UpdateCrossing(WindowId old_window, WindowId new_window) {
  if (old_window == new_window) {
    return;
  }
  std::vector<WindowId> old_chain = AncestorChain(old_window);
  std::vector<WindowId> new_chain = AncestorChain(new_window);
  // Windows being left: in the old chain but not the new one, deepest first.
  for (auto it = old_chain.rbegin(); it != old_chain.rend(); ++it) {
    if (std::find(new_chain.begin(), new_chain.end(), *it) == new_chain.end()) {
      Event event;
      event.type = EventType::kLeaveNotify;
      event.window = *it;
      event.x_root = pointer_.x;
      event.y_root = pointer_.y;
      event.state = modifier_state_ | button_state_;
      event.time = Tick();
      Deliver(*it, event, kLeaveWindowMask);
    }
  }
  // Windows being entered: in the new chain but not the old one, top-down.
  for (WindowId id : new_chain) {
    if (std::find(old_chain.begin(), old_chain.end(), id) == old_chain.end()) {
      Event event;
      event.type = EventType::kEnterNotify;
      event.window = id;
      event.x_root = pointer_.x;
      event.y_root = pointer_.y;
      event.state = modifier_state_ | button_state_;
      event.time = Tick();
      std::optional<Point> abs = AbsolutePosition(id);
      if (abs) {
        event.x = pointer_.x - abs->x;
        event.y = pointer_.y - abs->y;
      }
      Deliver(id, event, kEnterWindowMask);
    }
  }
}

void Server::InjectPointerMove(int x, int y) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  pointer_.x = x;
  pointer_.y = y;
  WindowId new_window = WindowAt(x, y);
  WindowId old_window = pointer_window_;
  pointer_window_ = new_window;
  if (grab_window_ == kNone) {
    UpdateCrossing(old_window, new_window);
  }
  Event event;
  event.type = EventType::kMotionNotify;
  event.x_root = x;
  event.y_root = y;
  event.state = modifier_state_ | button_state_;
  event.time = Tick();
  uint32_t mask = kPointerMotionMask;
  if (button_state_ != 0) {
    mask |= kButtonMotionMask;
  }
  if (grab_window_ != kNone) {
    // Implicit grab: motion goes to the grab window regardless of position.
    std::optional<Point> abs = AbsolutePosition(grab_window_);
    if (abs) {
      event.x = x - abs->x;
      event.y = y - abs->y;
    }
    event.window = grab_window_;
    Deliver(grab_window_, event, mask);
    return;
  }
  event.window = new_window;
  DeliverWithPropagation(new_window, event, mask);
}

void Server::InjectButton(int button, bool press) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint32_t bit = kButton1Mask << (button - 1);
  Event event;
  event.type = press ? EventType::kButtonPress : EventType::kButtonRelease;
  event.x_root = pointer_.x;
  event.y_root = pointer_.y;
  event.detail = static_cast<uint32_t>(button);
  event.state = modifier_state_ | button_state_;  // State *before* the transition.
  event.time = Tick();
  if (press) {
    button_state_ |= bit;
  } else {
    button_state_ &= ~bit;
  }
  WindowId target = grab_window_ != kNone ? grab_window_ : WindowAt(pointer_.x, pointer_.y);
  if (grab_window_ != kNone) {
    std::optional<Point> abs = AbsolutePosition(grab_window_);
    if (abs) {
      event.x = pointer_.x - abs->x;
      event.y = pointer_.y - abs->y;
    }
    event.window = grab_window_;
    Deliver(grab_window_, event, press ? kButtonPressMask : kButtonReleaseMask);
  } else {
    target = DeliverWithPropagation(target, event,
                                    press ? kButtonPressMask : kButtonReleaseMask);
  }
  if (press && grab_window_ == kNone && target != kNone) {
    grab_window_ = target;  // Implicit pointer grab until all buttons release.
  }
  if (!press && button_state_ == 0 && grab_window_ != kNone) {
    WindowId grabbed = grab_window_;
    grab_window_ = kNone;
    // Releasing the grab may reveal that the pointer moved elsewhere.
    (void)grabbed;
    UpdateCrossing(pointer_window_, WindowAt(pointer_.x, pointer_.y));
    pointer_window_ = WindowAt(pointer_.x, pointer_.y);
  }
}

void Server::InjectKey(KeySym keysym, bool press) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint32_t bit = 0;
  switch (keysym) {
    case kKeyShiftL:
    case kKeyShiftR:
      bit = kShiftMask;
      break;
    case kKeyControlL:
    case kKeyControlR:
      bit = kControlMask;
      break;
    case kKeyMetaL:
    case kKeyMetaR:
    case kKeyAltL:
    case kKeyAltR:
      bit = kMod1Mask;
      break;
    default:
      break;
  }
  Event event;
  event.type = press ? EventType::kKeyPress : EventType::kKeyRelease;
  event.detail = keysym;
  event.state = modifier_state_ | button_state_;
  event.x_root = pointer_.x;
  event.y_root = pointer_.y;
  event.time = Tick();
  if (bit != 0) {
    if (press) {
      modifier_state_ |= bit;
    } else {
      modifier_state_ &= ~bit;
    }
  }
  WindowId target = focus_window_ != kNone ? focus_window_ : WindowAt(pointer_.x, pointer_.y);
  std::optional<Point> abs = AbsolutePosition(target);
  if (abs) {
    event.x = pointer_.x - abs->x;
    event.y = pointer_.y - abs->y;
  }
  event.window = target;
  DeliverWithPropagation(target, event, press ? kKeyPressMask : kKeyReleaseMask);
}

// ---------------------------------------------------------------------------
// Introspection.

namespace {

void DumpWindow(const Server& server, WindowId id, int depth, std::ostringstream& out) {
  std::optional<Rect> geometry = server.WindowGeometry(id);
  if (!geometry) {
    return;
  }
  for (int i = 0; i < depth; ++i) {
    out << "  ";
  }
  out << "window " << id << " [" << geometry->width << "x" << geometry->height << "+"
      << geometry->x << "+" << geometry->y << "]" << (server.IsMapped(id) ? "" : " unmapped");
  std::vector<TextItem> text = server.WindowText(id);
  if (!text.empty()) {
    out << " text={";
    for (size_t i = 0; i < text.size(); ++i) {
      if (i > 0) {
        out << ", ";
      }
      out << "\"" << text[i].text << "\"";
    }
    out << "}";
  }
  out << "\n";
  for (WindowId child : server.WindowChildren(id)) {
    DumpWindow(server, child, depth + 1, out);
  }
}

}  // namespace

std::string Server::DumpTree() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::ostringstream out;
  DumpWindow(*this, kRootWindow, 0, out);
  return out.str();
}

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kNone:
      return "None";
    case EventType::kKeyPress:
      return "KeyPress";
    case EventType::kKeyRelease:
      return "KeyRelease";
    case EventType::kButtonPress:
      return "ButtonPress";
    case EventType::kButtonRelease:
      return "ButtonRelease";
    case EventType::kMotionNotify:
      return "MotionNotify";
    case EventType::kEnterNotify:
      return "EnterNotify";
    case EventType::kLeaveNotify:
      return "LeaveNotify";
    case EventType::kFocusIn:
      return "FocusIn";
    case EventType::kFocusOut:
      return "FocusOut";
    case EventType::kExpose:
      return "Expose";
    case EventType::kConfigureNotify:
      return "ConfigureNotify";
    case EventType::kMapNotify:
      return "MapNotify";
    case EventType::kUnmapNotify:
      return "UnmapNotify";
    case EventType::kDestroyNotify:
      return "DestroyNotify";
    case EventType::kCreateNotify:
      return "CreateNotify";
    case EventType::kPropertyNotify:
      return "PropertyNotify";
    case EventType::kSelectionClear:
      return "SelectionClear";
    case EventType::kSelectionRequest:
      return "SelectionRequest";
    case EventType::kSelectionNotify:
      return "SelectionNotify";
    case EventType::kClientMessage:
      return "ClientMessage";
  }
  return "?";
}

}  // namespace xsim
