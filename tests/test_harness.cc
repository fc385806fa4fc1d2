/**
 * @file
 * Tests for the shared bench harness: runSweep dispatch at every
 * --sim-lanes setting, the measuredRun cache under concurrent sweep
 * points, and rejection of malformed harness flags.
 */

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"

namespace parallax
{
namespace bench
{
namespace
{

/** Run a sweep of `count` points at `lanes` and return per-index
 *  call counts. */
std::vector<int>
sweepCallCounts(unsigned lanes, std::size_t count)
{
    setSimLanes(lanes);
    std::vector<std::atomic<int>> calls(count);
    runSweep(count, [&calls](std::size_t i) {
        calls[i].fetch_add(1, std::memory_order_relaxed);
    });
    setSimLanes(0);
    std::vector<int> out;
    for (const auto &c : calls)
        out.push_back(c.load());
    return out;
}

TEST(Harness, RunSweepCallsEachIndexExactlyOnce)
{
    for (unsigned lanes : {0u, 1u, 2u, 4u}) {
        for (std::size_t count : {0u, 1u, 3u, 17u, 64u}) {
            const std::vector<int> calls = sweepCallCounts(lanes, count);
            EXPECT_EQ(calls, std::vector<int>(count, 1))
                << "lanes=" << lanes << " count=" << count;
        }
    }
}

TEST(Harness, RunSweepWithFewerPointsThanLanes)
{
    EXPECT_EQ(sweepCallCounts(4, 2), std::vector<int>(2, 1));
    EXPECT_EQ(sweepCallCounts(4, 1), std::vector<int>(1, 1));
}

/** Eight concurrent sweep points asking for the same measured run
 *  share one cache entry, and the scene is simulated once: its
 *  --metrics-json line is printed exactly once. */
TEST(Harness, ConcurrentMeasuredRunBuildsOnce)
{
    setMeasureScale(0.05);
    setMetricsJson(true);
    setSimLanes(4);
    MeasureOptions options;
    options.threads = 2;
    std::vector<const MeasuredRun *> runs(8, nullptr);
    testing::internal::CaptureStdout();
    runSweep(runs.size(), [&runs, &options](std::size_t i) {
        runs[i] = &measuredRun(BenchmarkId::Periodic, options);
    });
    const std::string out = testing::internal::GetCapturedStdout();
    setSimLanes(0);
    setMetricsJson(false);
    setMeasureScale(1.0);

    for (const MeasuredRun *run : runs)
        EXPECT_EQ(run, runs[0]);
    ASSERT_NE(runs[0], nullptr);
    EXPECT_EQ(runs[0]->id, BenchmarkId::Periodic);
    EXPECT_EQ(runs[0]->traces.size(), 9u);

    std::size_t lines = 0;
    for (std::size_t pos = out.find("pax_metrics");
         pos != std::string::npos;
         pos = out.find("pax_metrics", pos + 1))
        ++lines;
    EXPECT_EQ(lines, 1u);
}

/** Parse one flag through parseCommonFlags. */
void
parseOne(const char *flag)
{
    std::string prog = "bench";
    std::string arg = flag;
    char *argv[] = {prog.data(), arg.data(), nullptr};
    int argc = 2;
    parseCommonFlags(&argc, argv);
}

TEST(Harness, WellFormedFlagsParseAndAreStripped)
{
    std::string prog = "bench";
    std::string lanes = "--sim-lanes=3";
    std::string scale = "--scale=0.25";
    std::string budget = "--frame-budget=0";
    std::string own = "--own";
    char *argv[] = {prog.data(), lanes.data(), scale.data(),
                    budget.data(), own.data(), nullptr};
    int argc = 5;
    parseCommonFlags(&argc, argv);
    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--own");
    EXPECT_EQ(simLanes(), 3u);
    EXPECT_DOUBLE_EQ(measureScale(), 0.25);
    EXPECT_DOUBLE_EQ(hostFrameBudget(), 0.0);
    setSimLanes(0);
    setMeasureScale(1.0);
}

TEST(HarnessDeathTest, MalformedSimLanesExitsWithStatus2)
{
    for (const char *flag :
         {"--sim-lanes=-1", "--sim-lanes=abc", "--sim-lanes=",
          "--sim-lanes=2x", "--sim-lanes=99999999999"}) {
        EXPECT_EXIT(parseOne(flag), testing::ExitedWithCode(2),
                    "invalid --sim-lanes value")
            << flag;
    }
}

TEST(HarnessDeathTest, MalformedScaleExitsWithStatus2)
{
    for (const char *flag : {"--scale=0", "--scale=-1", "--scale=nan",
                             "--scale=inf", "--scale=", "--scale=x"}) {
        EXPECT_EXIT(parseOne(flag), testing::ExitedWithCode(2),
                    "invalid --scale value")
            << flag;
    }
}

TEST(HarnessDeathTest, MalformedFrameBudgetExitsWithStatus2)
{
    for (const char *flag :
         {"--frame-budget=-0.1", "--frame-budget=nan",
          "--frame-budget=inf", "--frame-budget=", "--frame-budget=1s"}) {
        EXPECT_EXIT(parseOne(flag), testing::ExitedWithCode(2),
                    "invalid --frame-budget value")
            << flag;
    }
}

} // namespace
} // namespace bench
} // namespace parallax
