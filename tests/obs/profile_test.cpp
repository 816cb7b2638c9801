// Tests for the hierarchical span profiler: nesting/aggregation semantics,
// CPU-vs-wall sanity, chrome-trace export validity, and the disabled-state
// cost contract (no state mutation at all).
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath {
namespace {

using obs::JsonValue;
using obs::Profiler;
using obs::ProfileSpan;
using obs::json_parse;

// Burns a little CPU so spans have measurable nonzero durations.
volatile std::uint64_t g_sink = 0;
void spin(int iters = 200000) {
  std::uint64_t acc = 0;
  for (int i = 0; i < iters; ++i) acc += static_cast<std::uint64_t>(i) * 2654435761u;
  g_sink = g_sink + acc;
}

TEST(Profiler, DisabledSpansRecordNothing) {
  Profiler p;
  ASSERT_FALSE(p.enabled());
  {
    ProfileSpan outer("outer", &p);
    ProfileSpan inner("inner", &p);
    spin(1000);
  }
  EXPECT_TRUE(p.nodes().empty());
  EXPECT_EQ(p.events_dropped(), 0u);
}

TEST(Profiler, NestingBuildsATree) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan a("a", &p);
    {
      ProfileSpan b("b", &p);
      spin();
    }
    {
      ProfileSpan c("c", &p);
      spin();
    }
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].name, "a");
  EXPECT_EQ(nodes[0].depth, 0);
  EXPECT_EQ(nodes[1].name, "b");
  EXPECT_EQ(nodes[1].depth, 1);
  EXPECT_EQ(nodes[2].name, "c");
  EXPECT_EQ(nodes[2].depth, 1);
  // Parent wall time covers both children.
  EXPECT_GE(nodes[0].wall_seconds,
            nodes[1].wall_seconds + nodes[2].wall_seconds);
}

TEST(Profiler, RevisitedSpansAggregate) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan root("root", &p);
    for (int i = 0; i < 100; ++i) {
      ProfileSpan child("child", &p);
    }
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 2u);  // 100 visits, one node
  EXPECT_EQ(nodes[1].name, "child");
  EXPECT_EQ(nodes[1].count, 100u);
  EXPECT_EQ(nodes[0].count, 1u);
}

TEST(Profiler, SameNameDifferentParentsAreDistinctNodes) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan a("a", &p);
    ProfileSpan s("setup", &p);
  }
  {
    ProfileSpan b("b", &p);
    ProfileSpan s("setup", &p);
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0].name, "a");
  EXPECT_EQ(nodes[1].name, "setup");
  EXPECT_EQ(nodes[2].name, "b");
  EXPECT_EQ(nodes[3].name, "setup");
}

TEST(Profiler, TotalsKeySpansByPathAcrossThreads) {
  // The timings every report writes: one entry per span path, visits and
  // seconds summed across threads, same-named spans under different
  // parents kept apart.
  Profiler p;
  p.set_enabled(true);
  const auto work = [&p] {
    ProfileSpan a("simulate", &p);
    for (int i = 0; i < 3; ++i) ProfileSpan s("sim/step", &p);
  };
  work();
  std::thread t(work);
  t.join();
  {
    ProfileSpan c("construct", &p);
    ProfileSpan s("sim/step", &p);
  }
  const auto totals = p.totals();
  ASSERT_EQ(totals.size(), 4u);
  EXPECT_EQ(totals.at("simulate").count, 2u);
  EXPECT_EQ(totals.at("simulate/sim/step").count, 6u);
  EXPECT_EQ(totals.at("construct").count, 1u);
  EXPECT_EQ(totals.at("construct/sim/step").count, 1u);
  EXPECT_GE(totals.at("simulate").seconds,
            totals.at("simulate/sim/step").seconds / 2);

  obs::JsonWriter w;
  p.write_timings_json(w);
  const auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.has_value()) << w.str();
  const JsonValue* steps = doc->find("simulate/sim/step");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->find("count")->as_number(), 6);
  EXPECT_NE(steps->find("seconds"), nullptr);
}

TEST(Profiler, CpuTimeIsSaneAgainstWallTime) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan busy("busy", &p);
    // Spin for a fixed wall duration so CPU accounting granularity (which
    // can be several ms) still registers nonzero usage.
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(30)) {
      spin(100000);
    }
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_GT(nodes[0].wall_seconds, 0.0);
  EXPECT_GT(nodes[0].cpu_seconds, 0.0);
  // A pure spin loop cannot use more CPU than ~wall (scheduling noise and
  // getrusage granularity allow some slack).
  EXPECT_LT(nodes[0].cpu_seconds, nodes[0].wall_seconds + 0.05);
}

TEST(Profiler, JsonTreeParsesAndMirrorsNesting) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan outer("construct", &p);
    ProfileSpan inner("guest_walk", &p);
    spin();
  }
  const auto doc = json_parse(p.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* outer = doc->find("construct");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->find("count")->as_number(), 1);
  const JsonValue* inner = outer->find("children", "guest_walk");
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->find("wall_seconds")->as_number(), 0.0);
}

TEST(Profiler, ChromeTraceIsValidAndNested) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan outer("construct", &p);
    spin();
    {
      ProfileSpan inner("bundles", &p);
      spin();
    }
  }
  const auto doc = json_parse(p.chrome_trace_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  double outer_start = 0, outer_end = 0, inner_start = 0, inner_end = 0;
  for (const JsonValue& e : events->as_array()) {
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    const double ts = e.find("ts")->as_number();
    const double dur = e.find("dur")->as_number();
    if (e.find("name")->as_string() == "construct") {
      outer_start = ts;
      outer_end = ts + dur;
    } else {
      EXPECT_EQ(e.find("name")->as_string(), "bundles");
      inner_start = ts;
      inner_end = ts + dur;
    }
  }
  // Complete events nest by interval containment in the trace viewer.
  EXPECT_LE(outer_start, inner_start);
  EXPECT_GE(outer_end, inner_end);
}

TEST(Profiler, PeakRssDeltaLandsOnTheAllocatingSpan) {
  Profiler p;
  p.set_enabled(true);
  struct rusage before, after;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  {
    ProfileSpan span("alloc", &p);
    // Touch every page of a fresh 96 MiB block so the resident set grows.
    std::vector<std::uint8_t> big(96u << 20);
    for (std::size_t i = 0; i < big.size(); i += 4096) big[i] = 1;
    g_sink = g_sink + big[big.size() / 2];
  }
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 1u);
  // The span's delta is exactly the process peak growth it caused (both
  // sides read the same monotone ru_maxrss counter).  If this process had
  // already peaked above the allocation the delta is legitimately zero.
  const std::uint64_t grew =
      after.ru_maxrss > before.ru_maxrss
          ? static_cast<std::uint64_t>(after.ru_maxrss - before.ru_maxrss)
          : 0;
  if (grew > 0) {
    EXPECT_GT(nodes[0].max_rss_delta_kb, 0u);
    EXPECT_LE(nodes[0].max_rss_delta_kb, grew);
  } else {
    EXPECT_EQ(nodes[0].max_rss_delta_kb, 0u);
  }

  // The field is exported in both JSON forms.
  const auto doc = json_parse(p.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* rss = doc->find("alloc", "max_rss_delta_kb");
  ASSERT_NE(rss, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(rss->as_number()),
            nodes[0].max_rss_delta_kb);
  const auto trace = json_parse(p.chrome_trace_json());
  ASSERT_TRUE(trace.has_value());
  const auto& events = trace->find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 1u);
  const JsonValue* args_rss = events[0].find("args", "rss_delta_kb");
  ASSERT_NE(args_rss, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(args_rss->as_number()),
            nodes[0].max_rss_delta_kb);
}

TEST(Profiler, ResetDropsEverything) {
  Profiler p;
  p.set_enabled(true);
  { ProfileSpan a("a", &p); }
  ASSERT_FALSE(p.nodes().empty());
  p.reset();
  EXPECT_TRUE(p.nodes().empty());
  EXPECT_EQ(p.events_dropped(), 0u);
  { ProfileSpan b("b", &p); }
  ASSERT_EQ(p.nodes().size(), 1u);
  EXPECT_EQ(p.nodes()[0].name, "b");
}

TEST(Profiler, EventRingDropsOldestButTreeStaysExact) {
  Profiler p;
  p.set_enabled(true);
  const int total = static_cast<int>(Profiler::kMaxEvents) + 100;
  {
    ProfileSpan root("root", &p);
    for (int i = 0; i < total; ++i) {
      ProfileSpan child("child", &p);
    }
  }
  EXPECT_GT(p.events_dropped(), 0u);
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[1].count, static_cast<std::uint64_t>(total));
  // The chrome trace still parses with the retained tail.
  EXPECT_TRUE(json_parse(p.chrome_trace_json()).has_value());
}

TEST(Profiler, GlobalProfilerSpansViaMacro) {
  auto& g = Profiler::global();
  const bool was_enabled = g.enabled();
  g.set_enabled(true);
  g.reset();
  {
    HP_PROFILE_SPAN("macro_span");
  }
  bool found = false;
  for (const auto& n : g.nodes()) found = found || n.name == "macro_span";
  EXPECT_TRUE(found);
  g.reset();
  g.set_enabled(was_enabled);
}

TEST(PeakRssStage, MeasuresAStageUnderAnEarlierProcessPeak) {
  // Raise the process peak first: a ru_maxrss delta would then read 0 for
  // the smaller stage below, the stage peak must not.
  {
    std::vector<std::uint8_t> earlier(96u << 20);
    for (std::size_t i = 0; i < earlier.size(); i += 4096) earlier[i] = 1;
    g_sink = g_sink + earlier[earlier.size() / 2];
  }
  const obs::PeakRssStage stage;
  constexpr std::uint64_t kMiB = 64;
  {
    std::vector<std::uint8_t> block(kMiB << 20);
    for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
    g_sink = g_sink + block[block.size() / 2];
  }
  const std::optional<std::uint64_t> rise = stage.rise_kb();
  if (!rise) GTEST_SKIP() << "VmHWM reset unavailable on this host";
  // 64 MiB touched reads at least 64 MB: the MiB/MB slack absorbs the few
  // pages the process may release between the reset and the allocation.
  EXPECT_GE(*rise * 1024, std::uint64_t{64'000'000});

  constexpr std::uint64_t kBudgetKb = std::uint64_t{2} << 20;  // 2 GiB
  EXPECT_EQ(obs::rss_gate(rise, kBudgetKb), obs::RssGate::kWithin);
  EXPECT_EQ(obs::rss_gate(*rise + kBudgetKb, kBudgetKb), obs::RssGate::kOver);
}

TEST(PeakRssStage, UnavailableReadingIsNotAPass) {
  EXPECT_EQ(obs::rss_gate(std::nullopt, 1), obs::RssGate::kUnavailable);
  EXPECT_EQ(obs::rss_gate(0, 1), obs::RssGate::kWithin);
}

}  // namespace
}  // namespace hyperpath
