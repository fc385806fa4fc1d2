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
 *
 * This file is its own executable, so it replaces the global
 * operator new with a counting one: a test can then assert that a
 * step makes no heap allocation at all, not only that the engine's
 * own growth counters stay flat.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "parallax.hh"
#include "workload/benchmarks.hh"

namespace
{

/** Heap allocations made through operator new, process-wide. */
std::atomic<std::uint64_t> heapAllocations{0};

void *
countedAlloc(std::size_t size)
{
    heapAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

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

TEST(PerfAlloc, SleepingSessionStepDoesNotAllocate)
{
    // The server fleet's common session: a ground plane and a
    // 3-sphere stack, hosted configuration, asleep once settled.
    // Thousands of these tick every server update, so any per-step
    // allocation (a metrics key string, a heap-allocated contact
    // joint) multiplies across the fleet.
    WorldConfig config;
    config.dt = 0.01;
    config.deterministic = true;
    config.autoDisable = true;
    config.arenaBlockBytes = 8 * 1024;
    World world(config);
    const SphereShape *sphere = world.addSphere(0.5);
    const PlaneShape *plane = world.addPlane(Vec3{0.0, 1.0, 0.0}, 0.0);
    world.createGeom(plane,
                     world.createStaticBody(Transform(Quat(), Vec3{})));
    for (int i = 0; i < 3; ++i) {
        RigidBody *body = world.createDynamicBody(
            Transform(Quat(), Vec3{0.0, 0.6 + 1.05 * i, 0.0}), *sphere,
            1.0);
        world.createGeom(sphere, body);
    }
    for (int i = 0; i < 100; ++i)
        world.step();
    ASSERT_EQ(world.lastStepStats().bodiesAsleep, 3u)
        << "the stack must be asleep before the measured window";
    ASSERT_GT(world.lastStepStats().contactJointsCreated, 0u)
        << "a sleeping stack still builds its contact joints";

    for (int i = 0; i < 20; ++i) {
        const std::uint64_t before = heapAllocations.load();
        world.step();
        EXPECT_EQ(heapAllocations.load() - before, 0u)
            << "warm sleeping step " << i << " allocated";
    }
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
