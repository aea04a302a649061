// Event loop tests (Section 3.2): timers, idle handlers, update, and the
// resource cache (Section 3.3).

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/tk/resource_cache.h"
#include "tests/tk/tk_test_util.h"

namespace tk {
namespace {

using EventLoopTest = TkTest;

TEST_F(EventLoopTest, AfterSchedulesScript) {
  Ok("after 1 {set fired 1}");
  EXPECT_EQ(Ok("info exists fired"), "0");
  Ok("after 50");  // Synchronous wait pumps the loop past the timer (with
                   // margin: under a loaded ctest -j run, wall-clock timers
                   // a few ms apart can land in either order).
  EXPECT_EQ(Ok("set fired"), "1");
}

TEST_F(EventLoopTest, AfterOrdering) {
  Ok("after 1 {lappend log first}");
  Ok("after 10 {lappend log second}");
  Ok("after 100");  // Generous margin for loaded parallel test runs.
  EXPECT_EQ(Ok("set log"), "first second");
}

TEST_F(EventLoopTest, DueTimersFireInDueTimeOrder) {
  // Timers that have all come due by the time the loop looks fire earliest
  // due first, as in Tk, not in the order they were scheduled; timers due
  // at the same moment fire in the order they were scheduled.
  Ok("after 30 {lappend order a30}; after 10 {lappend order b10}; "
     "after 20 {lappend order c20}");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Ok("update");
  EXPECT_EQ(Ok("set order"), "b10 c20 a30");
  int fired = 0;
  app_->CreateTimerMs(0, [&fired]() { fired = fired * 10 + 1; });
  app_->CreateTimerMs(0, [&fired]() { fired = fired * 10 + 2; });
  Pump();
  EXPECT_EQ(fired, 12);
}

TEST_F(EventLoopTest, TimersViaCApi) {
  int fired = 0;
  app_->CreateTimerMs(0, [&fired]() { ++fired; });
  uint64_t cancelled = app_->CreateTimerMs(0, [&fired]() { fired += 100; });
  app_->DeleteTimer(cancelled);
  Pump();
  EXPECT_EQ(fired, 1);
}

TEST_F(EventLoopTest, DoWhenIdleRuns) {
  bool ran = false;
  app_->DoWhenIdle([&ran]() { ran = true; });
  EXPECT_FALSE(ran);
  app_->UpdateIdleTasks();
  EXPECT_TRUE(ran);
}

TEST_F(EventLoopTest, RedrawsAreCoalesced) {
  Ok("button .b -text hi");
  Ok("pack append . .b {top}");
  Pump();
  server_.ResetCounters();
  // Many configuration changes before one update: drawing happens once.
  for (int i = 0; i < 10; ++i) {
    Ok(".b configure -text label" + std::to_string(i));
  }
  uint64_t draws_before = server_.counters().draw;
  Pump();
  uint64_t draws_after = server_.counters().draw;
  // One coalesced redraw, not ten (a draw issues a handful of requests).
  EXPECT_GT(draws_after, draws_before);
  EXPECT_LT(draws_after - draws_before, 30u);
}

TEST_F(EventLoopTest, UpdateProcessesEverything) {
  Ok("button .b -text x -command {set n 1}");
  Ok("pack append . .b {top}");
  Ok("update");
  // After update the widget has real geometry.
  EXPECT_GT(app_->FindWidget(".b")->width(), 1);
}

// --- Resource cache (Section 3.3) ---------------------------------------------

TEST_F(EventLoopTest, ResourceCacheSharesColors) {
  server_.ResetCounters();
  app_->resources().ResetStats();
  for (int i = 0; i < 10; ++i) {
    app_->resources().GetColor("MediumSeaGreen");
  }
  EXPECT_EQ(app_->resources().misses(), 1u);
  EXPECT_EQ(app_->resources().hits(), 9u);
  EXPECT_EQ(server_.counters().alloc_color, 1u);
}

TEST_F(EventLoopTest, DisabledCacheGoesToServerEveryTime) {
  app_->resources().set_caching_enabled(false);
  server_.ResetCounters();
  for (int i = 0; i < 10; ++i) {
    app_->resources().GetColor("red");
  }
  EXPECT_EQ(server_.counters().alloc_color, 10u);
  app_->resources().set_caching_enabled(true);
}

TEST_F(EventLoopTest, ReverseColorLookup) {
  std::optional<xsim::Pixel> pixel = app_->resources().GetColor("MediumSeaGreen");
  ASSERT_TRUE(pixel);
  std::optional<std::string> name = app_->resources().NameOfColor(*pixel);
  ASSERT_TRUE(name);
  EXPECT_EQ(*name, "MediumSeaGreen");
}

TEST_F(EventLoopTest, FontCacheShares) {
  server_.ResetCounters();
  app_->resources().GetFont("8x13");
  app_->resources().GetFont("8x13");
  EXPECT_EQ(server_.counters().load_font, 1u);
}

TEST_F(EventLoopTest, ManyWidgetsShareOneColor) {
  // The paper's motivating case: "a few resources are used in many
  // different widgets within an application".  The first button allocates
  // its colors (explicit -bg plus class defaults); every later button is
  // served entirely from the cache.
  Ok("button .b0 -bg MediumSeaGreen -text x");
  server_.ResetCounters();
  for (int i = 1; i < 20; ++i) {
    Ok("button .b" + std::to_string(i) + " -bg MediumSeaGreen -text x");
  }
  EXPECT_EQ(server_.counters().alloc_color, 0u);
}

TEST_F(EventLoopTest, TkwaitVariable) {
  Ok("after 1 {set done yes}");
  Ok("tkwait variable done");
  EXPECT_EQ(Ok("set done"), "yes");
}

TEST_F(EventLoopTest, TkwaitWindow) {
  Ok("frame .dialog");
  Ok("after 1 {destroy .dialog}");
  Ok("tkwait window .dialog");
  EXPECT_EQ(Ok("winfo exists .dialog"), "0");
}

TEST_F(EventLoopTest, AfterCancelPreventsFiring) {
  Ok("set id [after 1 {set fired 1}]");
  Ok("after cancel $id");
  Ok("after 5");
  EXPECT_EQ(Ok("info exists fired"), "0");
}

TEST_F(EventLoopTest, WinfoContaining) {
  Ok("frame .f -geometry 60x40");
  Ok("pack append . .f {top}");
  Pump();
  Widget* f = app_->FindWidget(".f");
  std::optional<xsim::Point> abs = server_.AbsolutePosition(f->window());
  EXPECT_EQ(Ok("winfo containing " + std::to_string(abs->x + 5) + " " +
               std::to_string(abs->y + 5)),
            ".f");
  EXPECT_EQ(Ok("winfo containing 1200 1000"), "");
}

}  // namespace
}  // namespace tk
