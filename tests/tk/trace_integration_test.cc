// Trace-assertion integration tests: the protocol trace observing Tk's
// resource caches (Section 3.3 -- cache hits generate zero server requests,
// misses exactly one), the `xtrace` command, and `info latency`.

#include <gtest/gtest.h>

#include "src/xsim/display.h"
#include "src/xsim/trace.h"
#include "tests/tk/tk_test_util.h"

namespace tk {
namespace {

class TraceIntegrationTest : public TkTest {
 protected:
  xsim::TraceBuffer& trace() { return server_.trace(); }

  uint64_t Count(xsim::RequestType type) { return trace().RequestCount(type); }
};

TEST_F(TraceIntegrationTest, ColorCacheHitIssuesNoServerRequest) {
  // Prime the cache (and flush all pending layout/draw traffic).
  Ok("button .b -foreground red -background blue");
  Pump();
  trace().Start();
  uint64_t before = Count(xsim::RequestType::kAllocColor);
  app_->resources().GetColor("red");   // Hit.
  app_->resources().GetColor("blue");  // Hit.
  EXPECT_EQ(Count(xsim::RequestType::kAllocColor), before);
  app_->resources().GetColor("green");  // Miss: exactly one AllocColor.
  EXPECT_EQ(Count(xsim::RequestType::kAllocColor), before + 1);
  EXPECT_EQ(app_->resources().color_stats().hits, 2u);
}

TEST_F(TraceIntegrationTest, FontCacheHitIssuesNoServerRequest) {
  app_->resources().GetFont("fixed");
  trace().Start();
  app_->resources().GetFont("fixed");  // Hit.
  EXPECT_EQ(Count(xsim::RequestType::kLoadFont), 0u);
  app_->resources().GetFont("8x13");  // Miss.
  EXPECT_EQ(Count(xsim::RequestType::kLoadFont), 1u);
}

TEST_F(TraceIntegrationTest, DisabledCacheAlwaysHitsServer) {
  app_->resources().set_caching_enabled(false);
  trace().Start();
  app_->resources().GetColor("red");
  app_->resources().GetColor("red");
  EXPECT_EQ(Count(xsim::RequestType::kAllocColor), 2u);
}

TEST_F(TraceIntegrationTest, ReconfiguringSameColorIsFreeAtServer) {
  // The acceptance-criterion scenario, from the C++ side: configuring a
  // button twice with the same font/color allocates nothing new.
  Ok("button .b -foreground red -font fixed");
  Pump();
  trace().Start();
  Ok(".b configure -foreground red -font fixed");
  Pump();
  EXPECT_EQ(Count(xsim::RequestType::kAllocColor), 0u);
  EXPECT_EQ(Count(xsim::RequestType::kLoadFont), 0u);
}

TEST_F(TraceIntegrationTest, PerCacheStatsAttributeHitsToTheRightCache) {
  app_->resources().ResetStats();
  app_->resources().GetColor("red");
  app_->resources().GetColor("red");
  app_->resources().GetFont("fixed");
  app_->resources().GetCursor("arrow");
  app_->resources().GetCursor("arrow");
  app_->resources().GetBitmap("gray50");
  const ResourceCache& resources = app_->resources();
  EXPECT_EQ(resources.color_stats().hits, 1u);
  EXPECT_EQ(resources.color_stats().misses, 1u);
  EXPECT_EQ(resources.font_stats().misses, 1u);
  EXPECT_EQ(resources.cursor_stats().hits, 1u);
  EXPECT_EQ(resources.bitmap_stats().misses, 1u);
  // Aggregates stay the sum of the per-cache stats.
  EXPECT_EQ(resources.hits(), 2u);
  EXPECT_EQ(resources.misses(), 4u);
}

TEST_F(TraceIntegrationTest, XtraceExpectPassesAndFailsFromTcl) {
  Ok("button .b -foreground red");
  Pump();
  // Cache hit: zero alloc-color requests -- result is the observed delta.
  EXPECT_EQ(Ok("xtrace expect alloc-color 0 {.b configure -foreground red; update}"), "0");
  // Fresh color: the expectation of zero must fail.
  std::string error =
      Err("xtrace expect alloc-color 0 {.b configure -foreground purple; update}");
  EXPECT_NE(error.find("script issued 1"), std::string::npos) << error;
}

TEST_F(TraceIntegrationTest, XtraceSummaryReportsPerTypeCounts) {
  Ok("xtrace on");
  Ok("frame .f -width 40 -height 40");
  Pump();
  Ok("xtrace off");
  std::string summary = Ok("xtrace summary");
  EXPECT_NE(summary.find("create-window"), std::string::npos) << summary;
  EXPECT_NE(summary.find("requests"), std::string::npos) << summary;
}

TEST_F(TraceIntegrationTest, XtraceSummaryCountsDisconnectsByReason) {
  // Open and close a second client: its farewell records one orderly (kBye)
  // disconnect, which the summary reports both in the total and per reason.
  {
    auto extra = xsim::Display::Open(server_, "extra");
    extra->Sync();
  }
  std::string summary = Ok("xtrace summary");
  EXPECT_NE(summary.find("disconnects"), std::string::npos) << summary;
  EXPECT_NE(summary.find("disconnect-bye"), std::string::npos) << summary;
  // The Tcl-visible count agrees with the trace buffer's.
  EXPECT_GE(trace().DisconnectCount(xsim::DisconnectReason::kBye), 1u);
}

TEST_F(TraceIntegrationTest, InfoConnectionReportsLifecycleState) {
  Ok("button .b -text hi");
  Pump();
  std::string info = Ok("info connection");
  for (const char* key :
       {"transport", "state", "session-token", "heartbeats", "reconnects",
        "replayed-requests", "last-disconnect", "journal-windows",
        "server-disconnects", "server-retained"}) {
    EXPECT_NE(info.find(key), std::string::npos) << "missing " << key << " in: " << info;
  }
  // A live direct-transport app is connected and has never reconnected.
  EXPECT_NE(info.find("state connected"), std::string::npos) << info;
  EXPECT_EQ(Ok("set s [info connection]; lindex $s [expr [lsearch $s reconnects]+1]"), "0");
  // Only a transport that can reconnect keeps a session journal.
  const std::string journal_windows =
      "set s [info connection]; lindex $s [expr [lsearch $s journal-windows]+1]";
  if (app_->display().transport_kind() == xsim::wire::TransportKind::kDirect) {
    EXPECT_EQ(Ok(journal_windows), "0");
  }
  // On the wire the journal mirrors the widget tree: at least the root and
  // .b windows.
  App wired(server_, "wired", xsim::wire::TransportKind::kWire);
  ASSERT_EQ(wired.interp().Eval("button .b -text hi; update; " + journal_windows),
            tcl::Code::kOk);
  EXPECT_GE(std::stoi(wired.interp().result()), 2) << wired.interp().result();
}

TEST_F(TraceIntegrationTest, EventLoopStatsCountDispatchesAndIdleWork) {
  app_->ResetLoopStats();
  Ok("button .b -text hi");
  Ok("pack append . .b {top}");
  Ok("bind .b <Button-1> {set ::clicked 1}");
  ClickWidget(".b");
  const EventLoopStats& stats = app_->loop_stats();
  EXPECT_GT(stats.events_dispatched, 0u);
  EXPECT_GT(stats.redraws_drawn, 0u);
  EXPECT_GT(stats.repacks_done, 0u);
  EXPECT_GE(app_->bindings().match_count(), 1u);
  // Histogram buckets sum to the dispatch count.
  uint64_t histogram_total = 0;
  for (uint64_t bucket : stats.histogram) {
    histogram_total += bucket;
  }
  EXPECT_EQ(histogram_total, stats.events_dispatched);
  EXPECT_EQ(Ok("set ::clicked"), "1");
}

TEST_F(TraceIntegrationTest, TimerAndIdleCountersTick) {
  app_->ResetLoopStats();
  Ok("after 1 {set ::fired 1}");
  ASSERT_TRUE(app_->WaitFor([this] { return interp().GetVar("::fired") != nullptr; }));
  EXPECT_GE(app_->loop_stats().timers_fired, 1u);
}

TEST_F(TraceIntegrationTest, InfoLatencyReportsAndResets) {
  Ok("button .b -foreground red");
  Pump();
  std::string latency = Ok("info latency");
  EXPECT_NE(latency.find("dispatches"), std::string::npos) << latency;
  EXPECT_NE(latency.find("cache-color-misses"), std::string::npos) << latency;
  Ok("info latency reset");
  // After a reset every counter reads zero.
  EXPECT_EQ(Ok("set s [info latency]; lindex $s [expr [lsearch $s repacks]+1]"), "0");
  EXPECT_EQ(app_->resources().misses(), 0u);
}

TEST_F(TraceIntegrationTest, QueueHighWaterTracksBurstDepth) {
  app_->ResetLoopStats();
  Ok("frame .f -width 30 -height 30");
  Pump();
  // A burst of injected motion events queues up before the next poll.
  server_.InjectPointerMove(10, 10);
  server_.InjectPointerMove(12, 12);
  server_.InjectPointerMove(14, 14);
  Pump();
  EXPECT_GE(app_->loop_stats().queue_depth_high_water, 1u);
}

}  // namespace
}  // namespace tk
