/**
 * @file
 * Tests for the YAGS predictor, the OoO core timing model, and the
 * CG timing model.
 */

#include <gtest/gtest.h>

#include "cpu/cg_timing.hh"
#include "cpu/ooo_core.hh"
#include "cpu/yags.hh"
#include "isa/assembler.hh"
#include "isa/kernels.hh"

namespace parallax
{
namespace
{

TEST(YagsTest, LearnsAlwaysTaken)
{
    Yags bp;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (!bp.predictAndUpdate(0x40, true))
            ++wrong;
    }
    EXPECT_LT(wrong, 5);
}

TEST(YagsTest, LearnsAlternatingPatternViaHistory)
{
    Yags bp;
    int wrong = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool taken = (i % 2) == 0;
        if (!bp.predictAndUpdate(0x80, taken))
            ++wrong;
    }
    // After warmup the global history disambiguates the phases.
    EXPECT_LT(wrong, 200);
}

TEST(YagsTest, RandomBranchesMispredictHalfTheTime)
{
    Yags bp;
    Rng rng(5);
    int wrong = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        if (!bp.predictAndUpdate(0xc0, rng.chance(0.5)))
            ++wrong;
    }
    EXPECT_GT(wrong, n / 3);
    EXPECT_LT(wrong, 2 * n / 3);
}

TEST(YagsTest, SmallerPredictorIsWorseOnManyBranches)
{
    // Many branch sites with biased behaviour: the 1 KB predictor
    // aliases more than the 17 KB one.
    auto mispredicts = [](std::uint32_t kb) {
        Yags bp(YagsConfig{kb, 12, 8});
        Rng rng(7);
        std::uint64_t wrong = 0;
        for (int i = 0; i < 40000; ++i) {
            const std::uint64_t pc = (i * 97) % 4096;
            const bool taken = (pc % 3) != 0;
            if (!bp.predictAndUpdate(pc, taken))
                ++wrong;
        }
        return wrong;
    };
    EXPECT_LE(mispredicts(17), mispredicts(1) + 200);
}

TEST(RasTest, PushPopOrder)
{
    ReturnAddressStack ras(4);
    ras.push(10);
    ras.push(20);
    EXPECT_EQ(ras.pop(), 20u);
    EXPECT_EQ(ras.pop(), 10u);
    EXPECT_EQ(ras.pop(), 0u); // Empty.
}

TEST(OooCoreTest, IndependentOpsReachWidth)
{
    // A long run of independent integer adds should approach the
    // core width on the desktop config.
    std::string src;
    for (int i = 0; i < 2000; ++i) {
        src += "    addi r" + std::to_string(1 + (i % 8)) + ", r0, " +
               std::to_string(i) + "\n";
    }
    src += "    halt\n";
    const Program p = assemble(src);
    Machine m;
    OooCore core(CoreConfig::desktop());
    const auto r = core.run(p, m);
    EXPECT_GT(r.ipc(), 3.0);
}

TEST(OooCoreTest, DependentChainSerializes)
{
    std::string src = "    li r1, 0\n";
    for (int i = 0; i < 2000; ++i)
        src += "    addi r1, r1, 1\n";
    src += "    halt\n";
    const Program p = assemble(src);
    Machine m;
    OooCore core(CoreConfig::desktop());
    const auto r = core.run(p, m);
    // Perfectly serial chain: IPC ~ 1 regardless of width.
    EXPECT_LT(r.ipc(), 1.3);
    EXPECT_GT(r.ipc(), 0.7);
    EXPECT_EQ(m.intReg(1), 2000);
}

TEST(OooCoreTest, WiderCoreIsFasterOnParallelCode)
{
    std::string src;
    for (int i = 0; i < 3000; ++i) {
        src += "    fadd f" + std::to_string(1 + (i % 10)) + ", f" +
               std::to_string(11 + (i % 10)) + ", f" +
               std::to_string(21 + (i % 10)) + "\n";
    }
    src += "    halt\n";
    const Program p = assemble(src);
    auto cycles = [&](const CoreConfig &cfg) {
        Machine m;
        OooCore core(cfg);
        return core.run(p, m).cycles;
    };
    const auto desktop = cycles(CoreConfig::desktop());
    const auto console = cycles(CoreConfig::console());
    const auto shader = cycles(CoreConfig::shader());
    EXPECT_LT(desktop, console);
    EXPECT_LT(console, shader);
}

TEST(OooCoreTest, MispredictsSlowExecution)
{
    // Data-dependent branches on random data vs the same code with
    // an always-taken branch.
    auto makeSrc = [](bool random) {
        std::string src = R"(
        li   r1, 0
        li   r3, 4000
        li   r4, 64
    loop:
        bge  r1, r3, done
        lw   r5, 0(r4)
        beq  r5, r0, skip
        addi r2, r2, 1
    skip:
        addi r1, r1, 1
        addi r4, r4, 8
        jmp  loop
    done:
        halt
        )";
        (void)random;
        return src;
    };
    const Program p = assemble(makeSrc(true));

    auto cyclesWithData = [&](bool random) {
        Machine m;
        Rng rng(9);
        for (int i = 0; i < 4000; ++i) {
            const bool bit = random ? rng.chance(0.5) : true;
            m.storeInt(64 + i * 8, bit ? 1 : 0);
        }
        OooCore core(CoreConfig::desktop());
        const auto r = core.run(p, m);
        return r.cycles;
    };
    // Random branch data must cost significantly more cycles.
    EXPECT_GT(cyclesWithData(true),
              cyclesWithData(false) * 14 / 10);
}

TEST(OooCoreTest, KernelIpcOrderingMatchesPaper)
{
    // Figure 10(a) shape: desktop > console > shader on every
    // kernel; the limit core shows IPC > 4 on island and ~1.5 on
    // cloth.
    for (KernelId id : allKernels) {
        Machine m;
        Rng rng(31);
        packKernelInputs(id, m, 150, rng);
        const Machine pristine = m;
        auto ipc = [&](const CoreConfig &cfg) {
            Machine mm = pristine;
            OooCore core(cfg);
            return core.run(kernelProgram(id), mm).ipc();
        };
        const double desktop = ipc(CoreConfig::desktop());
        const double console = ipc(CoreConfig::console());
        const double shader = ipc(CoreConfig::shader());
        const double limit = ipc(CoreConfig::limit());
        EXPECT_GT(desktop, console) << kernelName(id);
        EXPECT_GT(console, shader) << kernelName(id);
        EXPECT_GT(limit, desktop) << kernelName(id);
        if (id == KernelId::IslandProcessing) {
            EXPECT_GT(limit, 4.0);
        }
        if (id == KernelId::Cloth) {
            EXPECT_GT(limit, 1.0);
            EXPECT_LT(limit, 2.2);
        }
    }
}

TEST(OooCoreTest, TimingDoesNotChangeSemantics)
{
    // The timed run must produce the same architectural results as
    // the functional run.
    Machine timed, functional;
    Rng rng1(41), rng2(41);
    packKernelInputs(KernelId::IslandProcessing, timed, 50, rng1);
    packKernelInputs(KernelId::IslandProcessing, functional, 50,
                     rng2);
    OooCore core(CoreConfig::console());
    core.run(kernelProgram(KernelId::IslandProcessing), timed);
    functional.run(kernelProgram(KernelId::IslandProcessing));
    for (int t = 0; t < 50; ++t) {
        const std::int64_t base = 64 + t * 512;
        EXPECT_DOUBLE_EQ(timed.loadFp(base + 120),
                         functional.loadFp(base + 120));
    }
}

TEST(CgTimingTest, ComputeCyclesScaleWithOps)
{
    CgTimingModel model;
    OpVector small = cost::opVec(100, 10, 50, 50, 40, 20, 5);
    const double c1 = model.computeCycles(small);
    const double c2 = model.computeCycles(small * 2.0);
    EXPECT_DOUBLE_EQ(c2, 2.0 * c1);
    EXPECT_GT(c1, 0.0);
}

TEST(CgTimingTest, StallsAddTime)
{
    CgTimingModel model;
    OpVector ops = cost::opVec(1e6, 1e5, 0, 0, 3e5, 1e5, 0);
    PhaseMemStats no_misses;
    PhaseMemStats misses;
    misses.l2Misses = 10000;
    const PhaseTime fast =
        model.phaseTime(Phase::Broadphase, ops, no_misses);
    const PhaseTime slow =
        model.phaseTime(Phase::Broadphase, ops, misses);
    EXPECT_GT(slow.total(), fast.total());
    EXPECT_DOUBLE_EQ(slow.computeSeconds, fast.computeSeconds);
}

TEST(CgTimingTest, MakespanBoundedByLargestTask)
{
    // One dominant task limits speedup no matter the core count.
    const std::vector<double> weights{100, 1, 1, 1, 1, 1};
    EXPECT_NEAR(CgTimingModel::makespan(weights, 1), 1.0, 1e-12);
    EXPECT_NEAR(CgTimingModel::makespan(weights, 4), 100.0 / 105.0,
                1e-9);
    EXPECT_NEAR(CgTimingModel::makespan(weights, 100),
                100.0 / 105.0, 1e-9);
}

TEST(CgTimingTest, BalancedTasksScaleLinearly)
{
    const std::vector<double> weights(64, 1.0);
    EXPECT_NEAR(CgTimingModel::makespan(weights, 4), 0.25, 1e-9);
    EXPECT_NEAR(CgTimingModel::makespan(weights, 8), 0.125, 1e-9);
}

TEST(CgTimingTest, ParallelPhaseSpeedsUpUntilTaskLimit)
{
    CgTimingModel model;
    OpVector ops = cost::opVec(1e7, 1e6, 4e6, 4e6, 3e6, 1e6, 1e5);
    PhaseMemStats mem;
    const std::vector<double> tasks(16, 1.0);
    const double t1 = model
                          .parallelPhaseTime(Phase::IslandProcessing,
                                             ops, mem, 1, tasks)
                          .total();
    const double t2 = model
                          .parallelPhaseTime(Phase::IslandProcessing,
                                             ops, mem, 2, tasks)
                          .total();
    const double t4 = model
                          .parallelPhaseTime(Phase::IslandProcessing,
                                             ops, mem, 4, tasks)
                          .total();
    EXPECT_LT(t2, t1);
    EXPECT_LT(t4, t2);
    // Serial phases never speed up.
    const double s1 = model
                          .parallelPhaseTime(Phase::Broadphase, ops,
                                             mem, 1, tasks)
                          .total();
    const double s4 = model
                          .parallelPhaseTime(Phase::Broadphase, ops,
                                             mem, 4, tasks)
                          .total();
    EXPECT_DOUBLE_EQ(s1, s4);
}

} // namespace
} // namespace parallax
