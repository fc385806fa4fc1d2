/**
 * @file
 * Tests for the cache model and the partitioned memory hierarchy.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "mem/hierarchy.hh"
#include "sim/rng.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

TEST(CacheTest, HitsAfterFill)
{
    Cache cache(CacheConfig{1024, 4, 64});
    EXPECT_FALSE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1020, false)); // Same line.
    EXPECT_FALSE(cache.access(0x1040, false)); // Next line.
    EXPECT_EQ(cache.stats().accesses, 4u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheTest, LruEvictionWithinSet)
{
    // 4-way, line 64: size 1024 -> 4 sets. Lines mapping to set 0:
    // addresses k * 4 * 64.
    Cache cache(CacheConfig{1024, 4, 64});
    const std::uint64_t stride = 4 * 64;
    for (int i = 0; i < 4; ++i)
        cache.access(i * stride, false);
    // Touch line 0 to refresh it, then insert a 5th line.
    EXPECT_TRUE(cache.access(0, false));
    cache.access(4 * stride, false);
    // The LRU victim was line 1, not line 0.
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(stride));
}

TEST(CacheTest, CompulsoryMissClassification)
{
    Cache cache(CacheConfig{1024, 4, 64});
    cache.access(0, false);
    cache.access(64, false);
    // Force capacity evictions, then re-touch.
    for (int i = 0; i < 64; ++i)
        cache.access(i * 256, false);
    cache.access(0, false); // Non-compulsory miss (seen before).
    // 4 sets: every i * 256 maps to set 0. Lines 0 and 1 miss cold,
    // i = 0 hits line 0, i = 1..63 miss cold (evicting line 0), and
    // the final touch of line 0 is the one non-compulsory miss.
    const CacheStats &stats = cache.stats();
    EXPECT_EQ(stats.accesses, 67u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 66u);
    EXPECT_EQ(stats.compulsoryMisses, 65u);
}

TEST(CacheTest, VictimQuirkEvictsValidLineOverFreeWay0)
{
    // One set of 4 ways. A cold set fills ways 1, 2, 3 and then 0
    // (the scan takes the first invalid way from way 1 on, and way 0
    // is the default victim), so lines a..d get LRU stamps 1..4 in
    // ways 1, 2, 3, 0.
    Cache cache(CacheConfig{256, 4, 64});
    const std::uint64_t a = 0, b = 64, c = 128, d = 192, e = 256;
    for (std::uint64_t addr : {a, b, c, d})
        cache.access(addr, false);
    // Invalidating d frees way 0 but leaves its stamp 4 behind. The
    // next miss compares the valid ways against that stale stamp and
    // evicts a (stamp 1) although way 0 is free.
    EXPECT_FALSE(cache.invalidate(d));
    EXPECT_FALSE(cache.access(e, false));
    EXPECT_FALSE(cache.probe(a));
    EXPECT_TRUE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
    EXPECT_TRUE(cache.probe(e));
    EXPECT_EQ(cache.residentLines(), 3u);
}

/**
 * The cache model as the figures were first produced with it: one
 * struct per way and a hash set of touched lines. Cache must match
 * it in every return value and every counter.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(CacheConfig config) : config_(config)
    {
        const std::uint64_t total_lines =
            config_.sizeBytes / config_.lineBytes;
        if (static_cast<std::uint64_t>(config_.ways) > total_lines)
            config_.ways = static_cast<int>(total_lines);
        numSets_ = static_cast<int>(total_lines / config_.ways);
        if (numSets_ == 0)
            numSets_ = 1;
        lines_.resize(static_cast<std::size_t>(numSets_) *
                      config_.ways);
    }

    bool
    access(std::uint64_t addr, bool write, bool kernel)
    {
        ++stats_.accesses;
        const std::uint64_t line = addr / config_.lineBytes;
        Line *base = &lines_[(line % numSets_) * config_.ways];
        for (int w = 0; w < config_.ways; ++w) {
            Line &entry = base[w];
            if (entry.valid && entry.tag == line) {
                entry.lastUse = ++useCounter_;
                entry.dirty |= write;
                ++stats_.hits;
                return true;
            }
        }
        ++stats_.misses;
        if (touched_.insert(line).second)
            ++stats_.compulsoryMisses;
        if (kernel)
            ++stats_.kernelMisses;
        else
            ++stats_.userMisses;
        Line *victim = &base[0];
        for (int w = 1; w < config_.ways; ++w) {
            Line &entry = base[w];
            if (!entry.valid) {
                victim = &entry;
                break;
            }
            if (entry.lastUse < victim->lastUse)
                victim = &entry;
        }
        if (victim->valid && victim->dirty)
            ++stats_.writebacks;
        victim->valid = true;
        victim->tag = line;
        victim->dirty = write;
        victim->lastUse = ++useCounter_;
        return false;
    }

    bool
    probe(std::uint64_t addr) const
    {
        const std::uint64_t line = addr / config_.lineBytes;
        const Line *base = &lines_[(line % numSets_) * config_.ways];
        for (int w = 0; w < config_.ways; ++w) {
            if (base[w].valid && base[w].tag == line)
                return true;
        }
        return false;
    }

    bool
    invalidate(std::uint64_t addr)
    {
        const std::uint64_t line = addr / config_.lineBytes;
        Line *base = &lines_[(line % numSets_) * config_.ways];
        for (int w = 0; w < config_.ways; ++w) {
            Line &entry = base[w];
            if (entry.valid && entry.tag == line) {
                entry.valid = false;
                return entry.dirty;
            }
        }
        return false;
    }

    void
    flush()
    {
        for (Line &entry : lines_)
            entry.valid = false;
    }

    std::uint64_t
    residentLines() const
    {
        std::uint64_t count = 0;
        for (const Line &entry : lines_)
            count += entry.valid ? 1 : 0;
        return count;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    CacheConfig config_;
    int numSets_;
    std::vector<Line> lines_;
    std::uint64_t useCounter_ = 0;
    std::unordered_set<std::uint64_t> touched_;
    CacheStats stats_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                std::uint64_t op)
{
    EXPECT_EQ(got.accesses, want.accesses) << "op " << op;
    EXPECT_EQ(got.hits, want.hits) << "op " << op;
    EXPECT_EQ(got.misses, want.misses) << "op " << op;
    EXPECT_EQ(got.compulsoryMisses, want.compulsoryMisses)
        << "op " << op;
    EXPECT_EQ(got.kernelMisses, want.kernelMisses) << "op " << op;
    EXPECT_EQ(got.userMisses, want.userMisses) << "op " << op;
    EXPECT_EQ(got.writebacks, want.writebacks) << "op " << op;
}

struct DiffGeometry
{
    const char *name;
    CacheConfig config;
};

/** Names the case in test listings (the default dumps its bytes,
 *  the name pointer included). */
void
PrintTo(const DiffGeometry &g, std::ostream *os)
{
    *os << g.name;
}

class CacheDifferential
    : public ::testing::TestWithParam<std::tuple<DiffGeometry, int>>
{
};

TEST_P(CacheDifferential, MatchesReferenceModel)
{
    const auto &[geometry, seed] = GetParam();
    Cache cache(geometry.config);
    ReferenceCache reference(geometry.config);
    Rng rng(seed);

    // Three address regions (low, mid, the kernel region of the
    // synthetic layout), each spanning 1.5x the cache's lines, so
    // streams hit, conflict and evict; byte offsets within lines.
    const std::uint64_t lines =
        geometry.config.sizeBytes / geometry.config.lineBytes;
    const std::uint64_t span = lines + lines / 2;
    const std::uint64_t regions[] = {0, 0x1000'0000, 0xc000'0000};
    const std::uint64_t ops = std::max<std::uint64_t>(40000, 4 * span);
    for (std::uint64_t op = 0; op < ops; ++op) {
        const std::uint64_t addr = regions[rng.below(3)] +
            rng.below(span) * geometry.config.lineBytes +
            rng.below(geometry.config.lineBytes);
        if (rng.below(2 * span) == 0) {
            // Rare enough that the cache fills between flushes.
            cache.flush();
            reference.flush();
        } else if (rng.chance(0.09)) {
            ASSERT_EQ(cache.invalidate(addr), reference.invalidate(addr))
                << "op " << op;
        } else {
            const bool write = rng.chance(0.3);
            const bool kernel = rng.chance(0.1);
            ASSERT_EQ(cache.access(addr, write, kernel),
                      reference.access(addr, write, kernel))
                << "op " << op;
        }
        if (op % 4096 == 0)
            expectSameStats(cache.stats(), reference.stats(), op);
    }
    expectSameStats(cache.stats(), reference.stats(), ops);
    EXPECT_EQ(cache.residentLines(), reference.residentLines());
    for (std::uint64_t i = 0; i < 2000; ++i) {
        const std::uint64_t addr = regions[rng.below(3)] +
            rng.below(span) * geometry.config.lineBytes;
        EXPECT_EQ(cache.probe(addr), reference.probe(addr));
    }
    // The streams must exercise every path being compared.
    EXPECT_GT(cache.stats().hits, 0u);
    EXPECT_GT(cache.stats().writebacks, 0u);
    EXPECT_LT(cache.stats().compulsoryMisses, cache.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Combine(
        ::testing::Values(
            DiffGeometry{"L1_32KB_4way", {32 << 10, 4, 64}},
            DiffGeometry{"L2_1MB_4way", {1 << 20, 4, 64}},
            DiffGeometry{"L2_9MB_4way_non_pow2_sets", {9 << 20, 4, 64}},
            DiffGeometry{"DirectMapped_32KB", {32 << 10, 1, 64}},
            DiffGeometry{"FullyAssoc_1024way", {64 << 10, 1024, 64}}),
        ::testing::Values(1, 2)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

/**
 * MemoryHierarchy's replay as the figures were first produced with
 * it, on ReferenceCache: the per-reference body and the per-thread
 * interleave, with every phase lookup done per reference.
 * MemoryHierarchy must match it in every PhaseMemStats field.
 */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(HierarchyConfig config)
        : config_(std::move(config))
    {
        for (unsigned t = 0; t < config_.threads; ++t)
            l1s_.push_back(std::make_unique<ReferenceCache>(config_.l1));
        for (const std::uint64_t bytes : config_.plan.partitionBytes) {
            l2Partitions_.push_back(std::make_unique<ReferenceCache>(
                CacheConfig{bytes, config_.l2Ways, 64}));
        }
    }

    Tick
    access(unsigned thread, Phase phase, const MemRef &ref)
    {
        PhaseMemStats &stats = phaseStats_[static_cast<int>(phase)];
        ++stats.refs;

        const std::uint64_t line = ref.line();

        if (ref.write() && config_.threads > 1) {
            const std::uint32_t others =
                directory_.get(line) & ~(1u << thread);
            if (others != 0) {
                for (unsigned t = 0; t < config_.threads; ++t) {
                    if ((others >> t) & 1u) {
                        l1s_[t]->invalidate(ref.addr());
                        ++stats.invalidations;
                    }
                }
                directory_.at(line) = 1u << thread;
            }
        }

        Tick latency = config_.l1Latency;
        if (l1s_[thread]->access(ref.addr(), ref.write(), false)) {
            ++stats.l1Hits;
            stats.cycles += latency;
            return latency;
        }
        if (config_.threads > 1)
            directory_.at(line) |= 1u << thread;

        ReferenceCache &l2 = *l2Partitions_[config_.plan.partitionOf[
            static_cast<int>(phase)]];
        latency += config_.l2Latency;
        if (l2.access(ref.addr(), ref.write(), ref.kernel())) {
            ++stats.l2Hits;
            stats.cycles += latency;
            return latency;
        }

        ++stats.l2Misses;
        if (ref.kernel())
            ++stats.kernelL2Misses;
        else
            ++stats.userL2Misses;
        latency += config_.memLatency;
        stats.cycles += latency;
        return latency;
    }

    void
    replayStep(const StepTrace &trace, int interleave_granularity)
    {
        const unsigned threads = config_.threads;
        for (int p = 0; p < numPhases; ++p) {
            const Phase phase = static_cast<Phase>(p);
            const auto &refs = trace.phase[p];
            if (refs.empty())
                continue;

            if (threads <= 1 || phaseIsSerial(phase)) {
                for (const MemRef &ref : refs)
                    access(0, phase, ref);
                continue;
            }

            const std::size_t chunk =
                (refs.size() + threads - 1) / threads;
            std::vector<std::size_t> cursor(threads);
            bool work_left = true;
            while (work_left) {
                work_left = false;
                for (unsigned t = 0; t < threads; ++t) {
                    const std::size_t begin = t * chunk;
                    const std::size_t end =
                        std::min(refs.size(), begin + chunk);
                    if (begin >= end)
                        continue;
                    std::size_t &pos = cursor[t];
                    const std::size_t stop = std::min(
                        end - begin,
                        pos + static_cast<std::size_t>(
                                  interleave_granularity));
                    for (; pos < stop; ++pos)
                        access(t, phase, refs[begin + pos]);
                    if (pos < end - begin)
                        work_left = true;
                }
            }
        }
    }

    const PhaseMemStats &phaseStats(Phase phase) const
    { return phaseStats_[static_cast<int>(phase)]; }

    void
    resetStats()
    {
        for (PhaseMemStats &s : phaseStats_)
            s.reset();
    }

  private:
    HierarchyConfig config_;
    std::vector<std::unique_ptr<ReferenceCache>> l1s_;
    std::vector<std::unique_ptr<ReferenceCache>> l2Partitions_;
    PagedTable<std::uint32_t> directory_;
    std::array<PhaseMemStats, numPhases> phaseStats_{};
};

void
expectSamePhaseStats(const MemoryHierarchy &got,
                     const ReferenceHierarchy &want,
                     const std::string &where)
{
    for (int p = 0; p < numPhases; ++p) {
        const PhaseMemStats &g = got.phaseStats(static_cast<Phase>(p));
        const PhaseMemStats &w = want.phaseStats(static_cast<Phase>(p));
        EXPECT_EQ(g.refs, w.refs) << where << " phase " << p;
        EXPECT_EQ(g.l1Hits, w.l1Hits) << where << " phase " << p;
        EXPECT_EQ(g.l2Hits, w.l2Hits) << where << " phase " << p;
        EXPECT_EQ(g.l2Misses, w.l2Misses) << where << " phase " << p;
        EXPECT_EQ(g.kernelL2Misses, w.kernelL2Misses)
            << where << " phase " << p;
        EXPECT_EQ(g.userL2Misses, w.userL2Misses)
            << where << " phase " << p;
        EXPECT_EQ(g.invalidations, w.invalidations)
            << where << " phase " << p;
        EXPECT_EQ(g.cycles, w.cycles) << where << " phase " << p;
    }
}

/**
 * A seeded synthetic step. Each phase mixes a small shared region
 * (L1 hits, and coherence traffic when written from several
 * threads), a 512 KB region (L1 misses that hit L2), lines 9 MB
 * apart (the same set in every L1 and L2 geometry under test, so
 * they conflict and evict dirty lines even in a 9 MB L2) and kernel
 * references.
 */
StepTrace
syntheticStep(Rng &rng, std::size_t refs_per_phase)
{
    StepTrace trace;
    for (int p = 0; p < numPhases; ++p) {
        std::vector<MemRef> &refs = trace.phase[p];
        refs.reserve(refs_per_phase);
        for (std::size_t i = 0; i < refs_per_phase; ++i) {
            std::uint64_t addr = 0;
            bool kernel = false;
            const std::uint64_t pick = rng.below(10);
            if (pick < 4) {
                addr = 0x1000'0000 + rng.below(64) * 64;
            } else if (pick < 7) {
                addr = 0x2000'0000 + rng.below(8192) * 64;
            } else if (pick < 9) {
                addr = 0x4000'0000 + rng.below(16) * 64 +
                       rng.below(12) * (std::uint64_t{9} << 20);
            } else {
                addr = 0xc000'0000 + rng.below(4096) * 64;
                kernel = true;
            }
            const std::uint64_t offset = rng.below(64);
            const bool write = rng.chance(0.3);
            refs.push_back({addr + offset, write, kernel});
        }
    }
    return trace;
}

struct HierarchyCase
{
    unsigned threads;
    const char *planName;
    L2Plan (*plan)();
    int granularity;
};

/** Names the case in test listings (the default dumps its bytes). */
void
PrintTo(const HierarchyCase &c, std::ostream *os)
{
    *os << c.threads << " threads, " << c.planName << ", granularity "
        << c.granularity;
}

class HierarchyDifferential
    : public ::testing::TestWithParam<HierarchyCase>
{
};

TEST_P(HierarchyDifferential, MatchesReferenceModel)
{
    const HierarchyCase &c = GetParam();
    HierarchyConfig config;
    config.threads = c.threads;
    config.plan = c.plan();
    MemoryHierarchy mem(config);
    ReferenceHierarchy reference(config);
    Rng rng(c.threads * 131 + c.granularity);

    for (int step = 0; step < 3; ++step) {
        const StepTrace trace = syntheticStep(rng, 6000);
        mem.replayStep(trace, c.granularity);
        reference.replayStep(trace, c.granularity);
        expectSamePhaseStats(mem, reference,
                             "step " + std::to_string(step));
        if (step == 0) {
            // Warm-up boundary, as the figure sweeps do it.
            mem.resetStats();
            reference.resetStats();
        }
    }

    // The public single-reference entry point serves the same way.
    const StepTrace extra = syntheticStep(rng, 400);
    for (int p = 0; p < numPhases; ++p) {
        for (const MemRef &ref : extra.phase[p]) {
            const unsigned t =
                static_cast<unsigned>(rng.below(c.threads));
            const Phase phase = static_cast<Phase>(p);
            ASSERT_EQ(mem.access(t, phase, ref),
                      reference.access(t, phase, ref));
        }
    }
    expectSamePhaseStats(mem, reference, "access()");

    // The traces must exercise every path being compared.
    const PhaseMemStats total = mem.totalStats();
    EXPECT_GT(total.l1Hits, 0u);
    EXPECT_GT(total.l2Hits, 0u);
    EXPECT_GT(total.kernelL2Misses, 0u);
    EXPECT_GT(total.userL2Misses, 0u);
    if (c.threads > 1) {
        EXPECT_GT(total.invalidations, 0u);
    }
}

L2Plan sharedL2_1MB() { return L2Plan::shared(1); }
L2Plan sharedL2_9MB() { return L2Plan::shared(9); }
L2Plan paperPlan() { return L2Plan::paperPartitioned(); }
L2Plan dedicatedL2_1MB() { return L2Plan::dedicatedPerPhase(1); }

std::vector<HierarchyCase>
hierarchyCases()
{
    const std::pair<const char *, L2Plan (*)()> plans[] = {
        {"shared1", sharedL2_1MB},
        {"shared9_non_pow2_sets", sharedL2_9MB},
        {"paperPartitioned", paperPlan},
        {"dedicatedPerPhase1", dedicatedL2_1MB},
    };
    std::vector<HierarchyCase> cases;
    for (unsigned threads : {1u, 2u, 4u, 8u})
        for (const auto &[name, plan] : plans)
            for (int granularity : {1, 64})
                cases.push_back({threads, name, plan, granularity});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, HierarchyDifferential,
    ::testing::ValuesIn(hierarchyCases()),
    [](const auto &info) {
        return "t" + std::to_string(info.param.threads) + "_" +
               info.param.planName + "_g" +
               std::to_string(info.param.granularity);
    });

TEST(CacheTest, FullyAssociativeHasNoConflicts)
{
    // Same capacity, direct-mapped vs fully associative: a
    // conflict-heavy stream misses only in the direct-mapped one.
    Cache direct(CacheConfig{4096, 1, 64});
    Cache full(CacheConfig{4096, 64, 64});
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 8; ++i) {
            // 8 lines, all mapping to the same direct-mapped set.
            direct.access(i * 4096, false);
            full.access(i * 4096, false);
        }
    }
    EXPECT_GT(direct.stats().misses, full.stats().misses);
    EXPECT_EQ(full.stats().misses, 8u); // Compulsory only.
}

TEST(CacheTest, WritebackOnDirtyEviction)
{
    Cache cache(CacheConfig{256, 1, 64}); // 4 sets, direct mapped.
    cache.access(0, true);     // Dirty.
    cache.access(256, false);  // Evicts line 0 (same set).
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheTest, KernelUserMissSplit)
{
    Cache cache(CacheConfig{1024, 4, 64});
    cache.access(0, false, false);
    cache.access(4096, false, true);
    EXPECT_EQ(cache.stats().userMisses, 1u);
    EXPECT_EQ(cache.stats().kernelMisses, 1u);
}

TEST(CacheTest, InvalidConfigRejected)
{
    EXPECT_EXIT(Cache(CacheConfig{0, 4, 64}),
                ::testing::ExitedWithCode(1), "positive");
    EXPECT_EXIT(Cache(CacheConfig{1024, 0, 64}),
                ::testing::ExitedWithCode(1), "way");
    EXPECT_EXIT(Cache(CacheConfig{1024, 4, 48}),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(CacheTest, AddressBeyondModelledSpaceRejected)
{
    // The first-touch table bounds its keys instead of sizing its
    // page directory for any 64-bit address.
    Cache cache(CacheConfig{1024, 4, 64});
    EXPECT_FALSE(cache.access(0xc000'0000, false));
    EXPECT_EXIT(cache.access(~0ull, false),
                ::testing::ExitedWithCode(1), "address space");
}

TEST(L2PlanTest, SharedMapsAllPhasesToOnePartition)
{
    const L2Plan plan = L2Plan::shared(4);
    EXPECT_EQ(plan.partitionBytes.size(), 1u);
    EXPECT_EQ(plan.partitionBytes[0], 4ull << 20);
    for (int p = 0; p < numPhases; ++p)
        EXPECT_EQ(plan.partitionOf[p], 0);
}

TEST(L2PlanTest, PaperPartitioningShape)
{
    // Section 6.2: 12 MB = 4 MB Broadphase + 4 MB Island Creation +
    // 4 MB shared by the parallel phases.
    const L2Plan plan = L2Plan::paperPartitioned();
    EXPECT_EQ(plan.partitionBytes.size(), 3u);
    std::uint64_t total = 0;
    for (auto bytes : plan.partitionBytes)
        total += bytes;
    EXPECT_EQ(total, 12ull << 20);
    EXPECT_NE(plan.partitionOf[static_cast<int>(Phase::Broadphase)],
              plan.partitionOf[static_cast<int>(
                  Phase::IslandCreation)]);
    EXPECT_EQ(plan.partitionOf[static_cast<int>(Phase::Narrowphase)],
              plan.partitionOf[static_cast<int>(Phase::Cloth)]);
}

TEST(HierarchyTest, LatencyAccumulation)
{
    HierarchyConfig config;
    config.plan = L2Plan::shared(1);
    MemoryHierarchy mem(config);
    const MemRef ref{0x10000, false, false};
    // Cold: L1 miss + L2 miss -> 2 + 15 + 340.
    EXPECT_EQ(mem.access(0, Phase::Broadphase, ref), 357u);
    // Warm: L1 hit -> 2.
    EXPECT_EQ(mem.access(0, Phase::Broadphase, ref), 2u);
    const PhaseMemStats &stats = mem.phaseStats(Phase::Broadphase);
    EXPECT_EQ(stats.refs, 2u);
    EXPECT_EQ(stats.l1Hits, 1u);
    EXPECT_EQ(stats.l2Misses, 1u);
}

TEST(HierarchyTest, L2HitAfterL1Eviction)
{
    HierarchyConfig config;
    config.plan = L2Plan::shared(4);
    MemoryHierarchy mem(config);
    // Fill far more than L1 (32 KB) but well under L2 (4 MB).
    for (std::uint64_t a = 0; a < (256u << 10); a += 64)
        mem.access(0, Phase::Narrowphase, {a, false, false});
    // Second pass: everything L2-hits (L1 too small).
    mem.resetStats();
    for (std::uint64_t a = 0; a < (256u << 10); a += 64)
        mem.access(0, Phase::Narrowphase, {a, false, false});
    const PhaseMemStats &stats = mem.phaseStats(Phase::Narrowphase);
    EXPECT_EQ(stats.l2Misses, 0u);
    EXPECT_GT(stats.l2Hits, 3000u);
}

TEST(HierarchyTest, PartitionsIsolatePhases)
{
    // With dedicated partitions, a huge narrowphase stream cannot
    // evict broadphase's working set — the paper's key observation.
    auto serialMissesAfterPollution = [](bool partitioned) {
        HierarchyConfig config;
        config.plan = partitioned ? L2Plan::dedicatedPerPhase(1)
                                  : L2Plan::shared(1);
        MemoryHierarchy mem(config);
        // Warm broadphase working set (512 KB).
        for (std::uint64_t a = 0; a < (512u << 10); a += 64) {
            mem.access(0, Phase::Broadphase,
                       {a, false, false});
        }
        // Pollute with a 4 MB narrowphase stream at other addrs.
        for (std::uint64_t a = 0; a < (4096u << 10); a += 64) {
            mem.access(0, Phase::Narrowphase,
                       {0x4000'0000 + a, false, false});
        }
        // Re-run broadphase and count L2 misses.
        mem.resetStats();
        for (std::uint64_t a = 0; a < (512u << 10); a += 64) {
            mem.access(0, Phase::Broadphase,
                       {a, false, false});
        }
        return mem.phaseStats(Phase::Broadphase).l2Misses;
    };
    EXPECT_GT(serialMissesAfterPollution(false),
              10 * std::max<std::uint64_t>(
                       1, serialMissesAfterPollution(true)));
}

TEST(HierarchyTest, WriteInvalidatesOtherL1s)
{
    HierarchyConfig config;
    config.threads = 2;
    config.plan = L2Plan::shared(1);
    MemoryHierarchy mem(config);
    const MemRef read{0x8000, false, false};
    mem.access(0, Phase::Narrowphase, read);
    mem.access(1, Phase::Narrowphase, read);
    // Thread 1 writes: thread 0's copy is invalidated.
    mem.access(1, Phase::Narrowphase, {0x8000, true, false});
    EXPECT_GT(mem.phaseStats(Phase::Narrowphase).invalidations, 0u);
    // Thread 0 must now miss in L1 (L2 still has it).
    const Tick lat = mem.access(0, Phase::Narrowphase, read);
    EXPECT_EQ(lat, 2u + 15u);
}

TEST(HierarchyTest, ReplayStepCoversAllPhases)
{
    auto world = buildBenchmark(BenchmarkId::Periodic, WorldConfig(),
                                0.2);
    for (int i = 0; i < 3; ++i)
        world->step();
    TraceGenerator gen;
    const StepTrace trace = gen.generate(*world);

    HierarchyConfig config;
    config.plan = L2Plan::shared(1);
    MemoryHierarchy mem(config);
    mem.replayStep(trace);
    for (int p = 0; p < numPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        EXPECT_EQ(mem.phaseStats(phase).refs,
                  trace.refs(phase).size());
    }
}

TEST(HierarchyTest, BiggerL2ReducesMisses)
{
    auto world = buildBenchmark(BenchmarkId::Mix, WorldConfig(), 0.3);
    for (int i = 0; i < 3; ++i)
        world->step();
    TraceGenerator gen;
    const StepTrace trace = gen.generate(*world);

    auto misses = [&](int mb) {
        HierarchyConfig config;
        config.plan = L2Plan::shared(mb);
        MemoryHierarchy mem(config);
        // Two replays: the first warms, the second measures.
        mem.replayStep(trace);
        mem.resetStats();
        mem.replayStep(trace);
        return mem.totalStats().l2Misses;
    };
    EXPECT_GE(misses(1), misses(4));
    EXPECT_GE(misses(4), misses(16));
}

TEST(HierarchyTest, FourThreadMixGolden)
{
    // Pinned per-phase counters of a 4-thread replay of a small Mix
    // step through a shared 1 MB L2, captured from the original
    // hash-container model: the flat line tables must reproduce
    // them exactly, coherence invalidations included.
    auto world = buildBenchmark(BenchmarkId::Mix, WorldConfig(), 0.3);
    for (int i = 0; i < 3; ++i)
        world->step();
    TraceOptions options;
    options.threads = 4;
    options.kernelBytesPerThread = kernelFootprintForThreads(4);
    const StepTrace trace = TraceGenerator(options).generate(*world);

    HierarchyConfig config;
    config.threads = 4;
    config.plan = L2Plan::shared(1);
    MemoryHierarchy mem(config);
    mem.replayStep(trace);
    mem.replayStep(trace);

    struct Golden
    {
        std::uint64_t refs, l1Hits, l2Hits, l2Misses, kernelL2Misses,
            userL2Misses, invalidations, cycles;
    };
    const Golden golden[numPhases] = {
        {19646, 9562, 4910, 5174, 0, 5174, 1255, 1949712},
        {34094, 21630, 7984, 4480, 0, 4480, 296, 1778348},
        {38126, 17664, 3458, 17004, 0, 17004, 0, 6164542},
        {287832, 187546, 30520, 69766, 52870, 16896, 8763, 25800394},
        {87316, 31016, 9050, 47250, 45654, 1596, 8600, 17084132},
    };
    for (int p = 0; p < numPhases; ++p) {
        const PhaseMemStats &got =
            mem.phaseStats(static_cast<Phase>(p));
        const Golden &want = golden[p];
        EXPECT_EQ(got.refs, want.refs) << "phase " << p;
        EXPECT_EQ(got.l1Hits, want.l1Hits) << "phase " << p;
        EXPECT_EQ(got.l2Hits, want.l2Hits) << "phase " << p;
        EXPECT_EQ(got.l2Misses, want.l2Misses) << "phase " << p;
        EXPECT_EQ(got.kernelL2Misses, want.kernelL2Misses)
            << "phase " << p;
        EXPECT_EQ(got.userL2Misses, want.userL2Misses)
            << "phase " << p;
        EXPECT_EQ(got.invalidations, want.invalidations)
            << "phase " << p;
        EXPECT_EQ(got.cycles, want.cycles) << "phase " << p;
    }
}

TEST(HierarchyTest, InvalidThreadsRejected)
{
    HierarchyConfig config;
    config.threads = 0;
    EXPECT_EXIT(MemoryHierarchy mem(config),
                ::testing::ExitedWithCode(1), "thread");
}

TEST(HierarchyTest, L1LineSizeOtherThanTraceLineRejected)
{
    // Trace references are 64-byte line records.
    HierarchyConfig config;
    config.l1 = CacheConfig{32 * 1024, 4, 128};
    EXPECT_EXIT(MemoryHierarchy mem(config),
                ::testing::ExitedWithCode(1), "line size 128");
}

TEST(MemRefTest, PacksLineWriteAndKernel)
{
    static_assert(sizeof(MemRef) == 8);
    const MemRef ref = MemRef::fromLine(0x1234, true, false);
    EXPECT_EQ(ref.line(), 0x1234u);
    EXPECT_EQ(ref.addr(), 0x1234u * 64);
    EXPECT_TRUE(ref.write());
    EXPECT_FALSE(ref.kernel());
    for (const bool write : {false, true}) {
        for (const bool kernel : {false, true}) {
            const MemRef r(0x1000'0040, write, kernel);
            EXPECT_EQ(r.line(), 0x1000'0040u >> 6);
            EXPECT_EQ(r.write(), write);
            EXPECT_EQ(r.kernel(), kernel);
        }
    }
}

TEST(MemRefTest, ByteAddressesInOneLineGiveEqualRecords)
{
    EXPECT_EQ(MemRef(0x4000'0080, true, false),
              MemRef(0x4000'00bf, true, false));
    EXPECT_EQ(MemRef(0x4000'0080, false, false).addr(), 0x4000'0080u);
    EXPECT_NE(MemRef(0x4000'0080, false, false),
              MemRef(0x4000'00c0, false, false));
    EXPECT_NE(MemRef(0x4000'0080, false, false),
              MemRef(0x4000'0080, true, false));
}

TEST(MemRefTest, HighKernelRegionAddressRoundTrips)
{
    // The last line of the 32nd thread's kernel region.
    const std::uint64_t addr =
        AddressMap::kernel(31, 0x80'0000 - 1);
    const MemRef ref(addr, true, true);
    EXPECT_EQ(ref.addr(), addr & ~std::uint64_t{63});
    EXPECT_EQ(ref.line(), addr >> 6);
    EXPECT_TRUE(ref.write());
    EXPECT_TRUE(ref.kernel());
}

} // namespace
} // namespace parallax
