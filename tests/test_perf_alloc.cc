/**
 * @file
 * Allocation-regression test for the steady-state hot path.
 *
 * The tentpole guarantee of the workspace/arena work (DESIGN.md §9):
 * once a scene has warmed up, stepping it performs zero transient
 * heap allocations in the solver and broadphase — the frame arenas
 * stop acquiring blocks, the solver workspaces stop growing, and the
 * broadphase's persistent containers stop reallocating. This test
 * steps the Mix benchmark (the densest scene: rigid contacts,
 * joints, cloth, effects) long past warm-up and asserts every growth
 * counter stays flat. It carries the `perf` ctest label and runs via
 * the `check-perf` preset.
 */

#include <gtest/gtest.h>

#include "parallax.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

TEST(PerfAlloc, SteadyStateStepsDoNotAllocate)
{
    WorldConfig config;
    config.workerThreads = 2;
    auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);

    // Warm-up: let contacts, islands, arenas and workspaces reach
    // their steady-state sizes. Mix keeps developing activity
    // (explosions, breakables) well past the first frames, so the
    // window is generous. Lane workspaces and contact buffers are
    // provisioned for the whole step, so the result must not depend
    // on how stealing spreads the work (a loaded host can leave one
    // lane running nearly everything).
    for (int i = 0; i < 100; ++i)
        world->step();

    // Measured window: every counter below is a per-step delta and
    // must stay at zero — no arena block allocated, no solver
    // workspace grown, no broadphase storage reallocated.
    std::uint64_t reuses = 0;
    for (int i = 0; i < 50; ++i) {
        world->step();
        const StepStats &s = world->lastStepStats();
        EXPECT_EQ(s.arenaGrowths, 0u)
            << "arena grew a block at measured step " << i;
        EXPECT_EQ(s.solver.workspaceGrowths, 0u)
            << "solver workspace grew at measured step " << i;
        EXPECT_EQ(s.broadphase.storageGrowths, 0u)
            << "broadphase storage grew at measured step " << i;
        reuses += s.solver.workspaceReuses;
    }
    // The warm path must actually be reusing workspaces, not
    // sidestepping them.
    EXPECT_GT(reuses, 0u);
    EXPECT_GT(world->lastStepStats().arenaHighWaterBytes, 0u);
}

TEST(PerfAlloc, ArenaHighWaterIsStable)
{
    // The high-water mark is monotonic by construction; after
    // warm-up it must also stop moving (a creeping high-water mark
    // means some step-transient allocation still scales with time).
    WorldConfig config;
    config.workerThreads = 0;
    auto world = buildBenchmark(BenchmarkId::Continuous, config, 0.12);
    for (int i = 0; i < 30; ++i)
        world->step();
    const std::uint64_t high_water =
        world->lastStepStats().arenaHighWaterBytes;
    for (int i = 0; i < 50; ++i)
        world->step();
    EXPECT_EQ(world->lastStepStats().arenaHighWaterBytes, high_water);
}

} // namespace
} // namespace parallax
