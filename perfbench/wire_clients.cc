// wire_clients: K raw xsim::Display clients on the wire transport, one
// thread each, against the default WireServer backend.
//
// Set-up connects every client (handshake included) and has each one build
// and map a tree of two thousand windows.  Each op is a buffered burst --
// create, map, select, property write, fill, draw-string, destroy -- then
// InternAtom, GetProperty (checked against the value just written), and
// Sync, after which the client drains its pending events.  Every fourth op
// also writes a property on the root window, which every client watches, so
// its PropertyNotify fans out to all K connections.  The codec, socket,
// reactor, dispatch, server apply and event fan-out do the work; Tcl and Tk
// do none.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/xsim/display.h"
#include "src/xsim/server.h"
#include "src/xsim/wire/transport.h"
#include "src/xsim/wire/wire_server.h"

namespace perfbench {
namespace {

// K = 1.  Every thread of the run shares one CPU (see Runner::Place), so at
// K = 2 the two clients' ops interleave and each lasts twice as long (450 us
// against 210 us); twice as many are then caught by the hypervisor's 1-40 ms
// stalls, and the p99 ranged 0.9-1.8 ms from run to run against 0.40-0.56 ms
// at K = 1.  The code runs any K up to the host's cores.
constexpr int kClients = 1;
// Each client's window tree: kTreeFrames frames of kFrameChildren labelled
// cells, as an application's first display builds them.
constexpr int kTreeFrames = 80;
constexpr int kFrameChildren = 25;
constexpr uint64_t kBroadcastEvery = 4;
constexpr int kMinPayload = 32;
constexpr int kMaxPayload = 4096;

struct Lane {
  std::unique_ptr<xsim::Display> display;
  std::string prop_name;
  xsim::Atom prop = 0;
  xsim::Atom broadcast = 0;
  xsim::GcId gc = 0;
  xsim::WindowId top = 0;
  uint64_t broadcasts_sent = 0;
  uint64_t broadcasts_seen = 0;

  // The op in flight.
  std::string payload;
  std::string expect;
  bool broadcast_op = false;
  int x = 0;
  int y = 0;
  xsim::Atom interned = 0;
  std::optional<std::string> read_back;
  uint64_t errors_before = 0;
};

class WireClients : public Workload {
 public:
  explicit WireClients(const Options& options) : options_(options) {
    Rng rng(Mix(options.seed) ^ 0x317e);
    for (int i = 0; i < 2 * kMaxPayload; ++i) {
      pool_ += static_cast<char>('!' + rng.Below(94));
    }
  }

  int lanes() const override { return kClients; }

  std::string Describe() override {
    return std::string("transport=wire wire_backend=") +
           xsim::wire::WireBackendName(server_->wire().backend()) +
           " tcl_exec=none clients=" + std::to_string(kClients);
  }

  void Setup(Tracer& /*tracer*/) override {
    server_ = std::make_unique<xsim::Server>();
    lanes_ = std::vector<Lane>(kClients);
  }

  void SetupLane(int index, Tracer& /*tracer*/) override {
    Lane& lane = lanes_[static_cast<size_t>(index)];
    lane.display = xsim::Display::Open(*server_, "perfbench-" + std::to_string(index),
                                       xsim::wire::TransportKind::kWire);
    xsim::Display& d = *lane.display;
    lane.prop_name = "PERFBENCH_PROP_" + std::to_string(index);
    lane.prop = d.InternAtom(lane.prop_name);
    lane.broadcast = d.InternAtom("PERFBENCH_BROADCAST");
    d.SelectInput(d.root(), xsim::kPropertyChangeMask);
    lane.gc = d.CreateGc();
    lane.top = d.CreateWindow(d.root(), 300 * index, 0, 290, 520);
    for (int f = 0; f < kTreeFrames; ++f) {
      xsim::WindowId frame = d.CreateWindow(lane.top, (f % 2) * 145, (f / 2) * 26, 145, 26);
      for (int i = 0; i < kFrameChildren; ++i) {
        xsim::WindowId w = d.CreateWindow(frame, (i % 5) * 29, (i / 5) * 5, 27, 5, 1);
        d.ChangeProperty(w, lane.prop, "cell " + std::to_string(f) + "." + std::to_string(i));
        d.MapWindow(w);
        d.FillRectangle(w, lane.gc, xsim::Rect{0, 0, 27, 5});
        d.DrawString(w, lane.gc, 2, 4, std::to_string(i));
      }
      d.MapWindow(frame);
    }
    d.MapWindow(lane.top);
    d.Sync();
    Drain(lane, nullptr);
  }

  void Teardown() override {
    lanes_.clear();  // Orderly disconnects.
    server_.reset();
  }

  void Prepare(int index, uint64_t op) override {
    Lane& lane = lanes_[static_cast<size_t>(index)];
    Rng rng = Rng::ForOp(options_.seed, index, op);
    size_t length = static_cast<size_t>(rng.Range(kMinPayload, kMaxPayload));
    lane.payload = std::to_string(op) + ":" +
                   pool_.substr(static_cast<size_t>(rng.Below(kMaxPayload)), length);
    lane.expect = lane.payload;
    if (options_.corrupt_every != 0 && (op + 1) % options_.corrupt_every == 0) {
      lane.expect += "?";
    }
    lane.broadcast_op = op % kBroadcastEvery == 0;
    lane.x = rng.Range(0, 260);
    lane.y = rng.Range(0, 500);
    lane.interned = 0;
    lane.read_back.reset();
    lane.errors_before = lane.display->error_count();
  }

  void Run(int index, Tracer& tracer) override {
    Lane& lane = lanes_[static_cast<size_t>(index)];
    xsim::Display& d = *lane.display;
    {
      Tracer::Scope span(tracer, "xsim.display.enqueue");
      xsim::WindowId w = d.CreateWindow(lane.top, lane.x, lane.y, 24, 16);
      d.MapWindow(w);
      d.SelectInput(w, xsim::kExposureMask);
      d.ChangeProperty(lane.top, lane.prop, lane.payload);
      d.FillRectangle(w, lane.gc, xsim::Rect{0, 0, 24, 16});
      d.DrawString(w, lane.gc, 2, 12, "wire");
      if (lane.broadcast_op) {
        d.ChangeProperty(d.root(), lane.broadcast, lane.prop_name);
        ++lane.broadcasts_sent;
      }
      d.DestroyWindow(w);
    }
    {
      Tracer::Scope span(tracer, "xsim.wire.query");
      lane.interned = d.InternAtom(lane.prop_name);
    }
    {
      Tracer::Scope span(tracer, "xsim.wire.query");
      lane.read_back = d.GetProperty(lane.top, lane.prop);
    }
    {
      Tracer::Scope span(tracer, "xsim.wire.sync");
      d.Sync();
    }
    Drain(lane, &tracer);
  }

  bool Check(int index) override {
    Lane& lane = lanes_[static_cast<size_t>(index)];
    const xsim::Display& d = *lane.display;
    return lane.interned == lane.prop && lane.read_back && *lane.read_back == lane.expect &&
           d.error_count() == lane.errors_before && !d.io_error() && d.reconnects() == 0;
  }

  // Once every lane has stopped, one more round trip per client guarantees
  // that every broadcast issued so far has reached it.
  void FinishPhase(int index) override {
    Lane& lane = lanes_[static_cast<size_t>(index)];
    lane.display->Sync();
    Drain(lane, nullptr);
  }

  bool CheckPhase(std::string* why) override {
    uint64_t sent = 0;
    for (const Lane& lane : lanes_) {
      sent += lane.broadcasts_sent;
    }
    for (size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].broadcasts_seen != sent) {
        *why = "client " + std::to_string(i) + " saw " +
               std::to_string(lanes_[i].broadcasts_seen) + " of " + std::to_string(sent) +
               " broadcasts";
        return false;
      }
    }
    return true;
  }

  Counts ReadCounts() override {
    xsim::RequestCounters requests = server_->counters();
    xsim::WireCounters wire = server_->wire_counters();
    double flushes = 0;
    for (const Lane& lane : lanes_) {
      flushes += static_cast<double>(lane.display->flush_count());
    }
    return {
        {"xsim.display.flushes", flushes},
        {"xsim.server.requests", static_cast<double>(requests.total)},
        {"xsim.server.draw_requests", static_cast<double>(requests.draw)},
        {"xsim.server.round_trips", static_cast<double>(requests.round_trips)},
        {"xsim.wire.frames", static_cast<double>(wire.frames_in + wire.frames_out)},
        {"xsim.wire.bytes", static_cast<double>(wire.bytes_in + wire.bytes_out)},
        {"xsim.wire.peak_outbound_depth",
         static_cast<double>(server_->wire().stats().peak_outbound_depth)},
    };
  }

  void ResetGauges() override { server_->wire().ResetStats(); }

 private:
  // Reads every event already delivered to the client.
  void Drain(Lane& lane, Tracer* tracer) {
    Tracer idle;
    Tracer& t = tracer != nullptr ? *tracer : idle;
    while (true) {
      xsim::Event event;
      bool got = false;
      {
        Tracer::Scope span(t, "xsim.display.poll");
        got = lane.display->PollEvent(&event);
      }
      if (!got) {
        return;
      }
      if (event.type == xsim::EventType::kPropertyNotify &&
          event.window == lane.display->root() && event.atom == lane.broadcast) {
        ++lane.broadcasts_seen;
      }
    }
  }

  const Options options_;
  std::string pool_;
  std::unique_ptr<xsim::Server> server_;
  std::vector<Lane> lanes_;
};

}  // namespace

std::unique_ptr<Workload> MakeWireClients(const Options& options, Plan* plan) {
  plan->warmup_ops = 500;
  plan->ops_per_second = 4500;
  return std::make_unique<WireClients>(options);
}

}  // namespace perfbench
