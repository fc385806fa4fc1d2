/**
 * @file
 * Tests for the benchmark suite, instrumentation and trace
 * generation. Scenes run at reduced scale for test speed; the bench
 * harnesses run them at full Table 4 scale.
 */

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "workload/benchmarks.hh"
#include "workload/mem_trace.hh"
#include "workload/scene_builder.hh"

namespace parallax
{
namespace
{

RunOptions
fastOptions(double scale = 0.15)
{
    RunOptions opt;
    opt.scale = scale;
    opt.warmupSteps = 6;
    opt.frames = 1;
    return opt;
}

TEST(Benchmarks, InfoTableIsComplete)
{
    std::set<std::string> names;
    for (BenchmarkId id : allBenchmarks) {
        const BenchmarkInfo &info = benchmarkInfo(id);
        EXPECT_NE(info.name, nullptr);
        EXPECT_GT(info.paperInstPerFrame, 0.0);
        names.insert(info.shortName);
    }
    EXPECT_EQ(names.size(), 8u);
}

TEST(Benchmarks, AllScenesBuildAndStep)
{
    for (BenchmarkId id : allBenchmarks) {
        auto world = buildBenchmark(id, WorldConfig(), 0.1);
        ASSERT_GT(world->bodyCount(), 0u)
            << benchmarkInfo(id).shortName;
        world->stepFrame();
        EXPECT_GT(world->lastStepStats().pairsFound, 0u)
            << benchmarkInfo(id).shortName;
    }
}

TEST(Benchmarks, FullScaleSpecsMatchTable4Structure)
{
    // Structural (non-simulated) parts of Table 4, checked at full
    // scale without stepping (cheap).
    auto world = buildBenchmark(BenchmarkId::Periodic);
    SceneSpec spec = staticSceneSpec(*world);
    EXPECT_EQ(spec.dynamicObjs, 480); // 30 humanoids x 16 segments.
    EXPECT_EQ(spec.staticJoints, 450); // 30 x 15 joints.
    EXPECT_EQ(spec.clothObjs, 0);

    world = buildBenchmark(BenchmarkId::Deformable);
    spec = staticSceneSpec(*world);
    EXPECT_EQ(spec.dynamicObjs, 480);
    EXPECT_EQ(spec.clothObjs, 32); // 30 small + 2 large.
    EXPECT_EQ(spec.clothVertices, 2000); // 30*25 + 2*625.

    world = buildBenchmark(BenchmarkId::Mix);
    spec = staticSceneSpec(*world);
    EXPECT_EQ(spec.clothObjs, 33); // 30 small + 3 large.
    EXPECT_EQ(spec.clothVertices, 2625);
    EXPECT_EQ(spec.prefracturedObjs, 5625); // 1125 bricks x 5.
    EXPECT_NEAR(spec.dynamicObjs, 1608, 200);

    world = buildBenchmark(BenchmarkId::Breakable);
    spec = staticSceneSpec(*world);
    EXPECT_EQ(spec.prefracturedObjs, 5625);
    EXPECT_NEAR(spec.staticJoints, 564, 30);
}

TEST(Benchmarks, RunProducesProfiles)
{
    BenchmarkRun run =
        runBenchmark(BenchmarkId::Periodic, fastOptions());
    ASSERT_EQ(run.frames.size(), 1u);
    ASSERT_EQ(run.frames[0].steps.size(), 3u);
    const StepProfile prof = run.worstFrameProfile();
    EXPECT_GT(prof.totalOps(), 0.0);
    EXPECT_GT(prof.serialOps(), 0.0);
    EXPECT_LT(prof.serialOps(), prof.totalOps());
    EXPECT_GT(run.spec.objPairs, 0u);
    EXPECT_GT(run.spec.islands, 0u);
}

TEST(Benchmarks, DeterministicRuns)
{
    const BenchmarkRun a =
        runBenchmark(BenchmarkId::Ragdoll, fastOptions());
    const BenchmarkRun b =
        runBenchmark(BenchmarkId::Ragdoll, fastOptions());
    EXPECT_EQ(a.spec.objPairs, b.spec.objPairs);
    EXPECT_DOUBLE_EQ(a.worstFrameProfile().totalOps(),
                     b.worstFrameProfile().totalOps());
}

TEST(Benchmarks, NoDeepInterpenetrationAtSpawn)
{
    // Regression: a mis-strided wall once spawned bricks 50%
    // interpenetrated, injecting solver energy. No benchmark may
    // start with deeply overlapping bodies.
    for (BenchmarkId id : allBenchmarks) {
        auto world = buildBenchmark(id, WorldConfig(), 0.3);
        world->step();
        Real worst = 0;
        for (const Contact &c : world->lastContacts())
            worst = std::max(worst, c.depth);
        EXPECT_LT(worst, 0.12) << benchmarkInfo(id).shortName;
    }
}

TEST(Benchmarks, StateStaysFiniteAndBounded)
{
    // Robustness: several frames of every scene produce finite
    // positions within a sane arena (no NaNs, no ejections beyond
    // the blast-driven debris scale).
    for (BenchmarkId id : allBenchmarks) {
        auto world = buildBenchmark(id, WorldConfig(), 0.2);
        for (int i = 0; i < 24; ++i)
            world->step();
        for (const auto &b : world->bodies()) {
            if (!b->enabled() || b->isStatic())
                continue;
            const Vec3 &p = b->position();
            ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) &&
                        std::isfinite(p.z))
                << benchmarkInfo(id).shortName;
            EXPECT_LT(p.length(), 500.0)
                << benchmarkInfo(id).shortName;
            EXPECT_LT(b->linearVelocity().length(), 120.0)
                << benchmarkInfo(id).shortName;
        }
        for (const auto &cloth : world->cloths()) {
            for (const auto &particle : cloth->particles()) {
                ASSERT_TRUE(std::isfinite(particle.position.x))
                    << benchmarkInfo(id).shortName;
            }
        }
    }
}

TEST(Benchmarks, ScaleGrowsTheScene)
{
    auto small = buildBenchmark(BenchmarkId::Ragdoll, WorldConfig(),
                                0.2);
    auto large = buildBenchmark(BenchmarkId::Ragdoll, WorldConfig(),
                                1.0);
    EXPECT_LT(small->bodyCount(), large->bodyCount());
}

TEST(Instrumentation, PhaseMixMatchesPaperShape)
{
    // Figure 7(b): serial phases and Narrowphase are integer
    // dominant with many branches; Island Processing and Cloth are
    // FP dominant.
    BenchmarkRun run =
        runBenchmark(BenchmarkId::Mix, fastOptions(0.3));
    const StepProfile prof = run.worstFrameProfile();

    auto fpShare = [&](Phase p) {
        const OpVector &v = prof.ops(p);
        return v.fraction(OpClass::FloatAdd) +
               v.fraction(OpClass::FloatMult);
    };
    auto intShare = [&](Phase p) {
        return prof.ops(p).fraction(OpClass::IntAlu) +
               prof.ops(p).fraction(OpClass::Branch);
    };

    EXPECT_GT(intShare(Phase::Broadphase),
              fpShare(Phase::Broadphase));
    EXPECT_GT(intShare(Phase::IslandCreation),
              fpShare(Phase::IslandCreation));
    EXPECT_GT(fpShare(Phase::IslandProcessing), 0.3);
    EXPECT_GT(fpShare(Phase::Cloth), 0.25);
}

TEST(Instrumentation, FgSubsetOfTotal)
{
    BenchmarkRun run =
        runBenchmark(BenchmarkId::Mix, fastOptions(0.3));
    const StepProfile prof = run.worstFrameProfile();
    for (int p = 0; p < numPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        EXPECT_LE(prof.fg(phase).total(), prof.ops(phase).total());
        // Serial phases have no FG component.
        if (phaseIsSerial(phase)) {
            EXPECT_EQ(prof.fg(phase).total(), 0.0);
        }
        // cg + fg == total.
        EXPECT_NEAR(prof.cg(phase).total() + prof.fg(phase).total(),
                    prof.ops(phase).total(), 1.0);
    }
}

TEST(Instrumentation, FgTaskInventoriesPopulated)
{
    BenchmarkRun run =
        runBenchmark(BenchmarkId::Mix, fastOptions(0.3));
    const StepProfile prof = run.worstFrameProfile();
    EXPECT_GT(prof.pairTasks, 0u);
    EXPECT_FALSE(prof.islandRows.empty());
    EXPECT_FALSE(prof.clothVertices.empty());
    // Mix at 0.3 scale keeps one large cloth: 625 vertices.
    bool has_large = false;
    for (int v : prof.clothVertices)
        has_large |= (v == 625);
    EXPECT_TRUE(has_large);
}

TEST(SceneBuilderTest, HumanoidHas16Segments15Joints)
{
    World world;
    SceneBuilder sb(world);
    sb.addHumanoid({0, 1.05, 0});
    EXPECT_EQ(world.bodyCount(), 16u);
    EXPECT_EQ(world.jointCount(), 15u);
    EXPECT_EQ(world.geomCount(), 16u);
}

TEST(SceneBuilderTest, CarHasWheelsAndSuspension)
{
    World world;
    SceneBuilder sb(world);
    sb.addCar({0, 0, 0});
    EXPECT_EQ(world.bodyCount(), 6u); // Chassis, frame, 4 wheels.
    EXPECT_EQ(world.jointCount(), 5u); // Slider + 4 hinges.
    int sliders = 0, hinges = 0;
    for (const auto &j : world.joints()) {
        if (j->type() == JointType::Slider)
            ++sliders;
        if (j->type() == JointType::Hinge)
            ++hinges;
    }
    EXPECT_EQ(sliders, 1);
    EXPECT_EQ(hinges, 4);
}

TEST(SceneBuilderTest, PrefracturedWallRegistersDebris)
{
    World world;
    SceneBuilder sb(world);
    auto bricks = sb.addWall({0, 0, 0}, {1, 0, 0}, 4, 2,
                             {0.5, 0.25, 0.25}, true, 3);
    EXPECT_EQ(bricks.size(), 8u);
    // 8 parents + 24 disabled debris.
    EXPECT_EQ(world.bodyCount(), 32u);
    int disabled = 0;
    for (const auto &b : world.bodies()) {
        if (!b->enabled())
            ++disabled;
    }
    EXPECT_EQ(disabled, 24);
}

TEST(SceneBuilderTest, BridgeJointsAreBreakable)
{
    World world;
    SceneBuilder sb(world);
    sb.addBridge({0, 2, 0}, 5, 1000.0);
    EXPECT_EQ(world.jointCount(), 6u); // 5 planks + far anchor.
    for (const auto &j : world.joints())
        EXPECT_TRUE(j->breakable());
}

TEST(MemTraceTest, GeneratesAllPhases)
{
    auto world = buildBenchmark(BenchmarkId::Mix, WorldConfig(), 0.2);
    for (int i = 0; i < 4; ++i)
        world->step();
    TraceGenerator gen;
    const StepTrace trace = gen.generate(*world);
    for (int p = 0; p < numPhases; ++p)
        EXPECT_FALSE(trace.phase[p].empty()) << phaseName(
            static_cast<Phase>(p));
    EXPECT_GT(trace.totalRefs(), 1000u);
}

TEST(MemTraceTest, AddressRegionsDoNotAlias)
{
    auto world = buildBenchmark(BenchmarkId::Periodic, WorldConfig(),
                                0.2);
    world->step();
    TraceGenerator gen;
    const StepTrace trace = gen.generate(*world);
    // Every object reference falls inside its region.
    for (const auto &refs : trace.phase) {
        for (const MemRef &ref : refs) {
            EXPECT_GE(ref.addr(), AddressMap::objectBase);
            EXPECT_LT(ref.addr(), AddressMap::kernelBase + 0x4000'0000);
        }
    }
}

TEST(MemTraceTest, KernelRefsScaleWithThreads)
{
    auto world = buildBenchmark(BenchmarkId::Periodic, WorldConfig(),
                                0.2);
    world->step();
    auto countKernel = [&](unsigned threads) {
        TraceOptions opt;
        opt.threads = threads;
        opt.kernelBytesPerThread = kernelFootprintForThreads(threads);
        TraceGenerator gen(opt);
        const StepTrace trace = gen.generate(*world);
        std::size_t kernel = 0;
        for (const auto &refs : trace.phase) {
            for (const MemRef &ref : refs)
                kernel += ref.kernel() ? 1 : 0;
        }
        return kernel;
    };
    const auto k2 = countKernel(2);
    const auto k8 = countKernel(8);
    // The paper's 8-thread kernel footprint explosion: ~5 MB per
    // worker versus ~850 KB.
    EXPECT_GT(k8, k2 * 10);
}

TEST(MemTraceTest, KernelFootprintMatchesPaper)
{
    EXPECT_EQ(kernelFootprintForThreads(1), 850ull * 1024);
    EXPECT_EQ(kernelFootprintForThreads(4), 850ull * 1024);
    EXPECT_EQ(kernelFootprintForThreads(8), 5ull * 1024 * 1024);
    EXPECT_GT(kernelFootprintForThreads(6),
              kernelFootprintForThreads(4));
}

TEST(MemTraceTest, JointRecordSizesMatchPaperRange)
{
    // "The memory required per joint varies between 148B to 392B
    // depending on the type."
    EXPECT_EQ(record::jointBytes(JointType::Contact), 148u);
    EXPECT_EQ(record::jointBytes(JointType::Fixed), 392u);
    for (JointType t : {JointType::Ball, JointType::Hinge,
                        JointType::Slider}) {
        EXPECT_GE(record::jointBytes(t), 148u);
        EXPECT_LE(record::jointBytes(t), 392u);
    }
}

TEST(CostModelTest, PairTestCoversAllCombinations)
{
    for (int i = 0; i < 6; ++i) {
        for (int j = 0; j < 6; ++j) {
            const OpVector v = cost::npPairTest(
                static_cast<ShapeType>(i), static_cast<ShapeType>(j));
            EXPECT_GT(v.total(), 0.0);
            // Symmetric in argument order.
            const OpVector w = cost::npPairTest(
                static_cast<ShapeType>(j), static_cast<ShapeType>(i));
            EXPECT_DOUBLE_EQ(v.total(), w.total());
        }
    }
}

TEST(CostModelTest, OpVectorArithmetic)
{
    OpVector v = cost::opVec(1, 2, 3, 4, 5, 6, 7);
    EXPECT_DOUBLE_EQ(v.total(), 28.0);
    EXPECT_DOUBLE_EQ(v.fraction(OpClass::Branch), 2.0 / 28.0);
    const OpVector w = v * 2.0 + v;
    EXPECT_DOUBLE_EQ(w.total(), 84.0);
}

} // namespace
} // namespace parallax
