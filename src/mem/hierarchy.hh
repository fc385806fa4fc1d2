/**
 * @file
 * Two-level cache hierarchy with application-aware L2 partitioning.
 *
 * Per-thread 32 KB 4-way L1 data caches (2-cycle) in front of a
 * banked L2 (15-cycle) and main memory (340 cycles) — the Table 5
 * configuration. The L2 can be shared, partitioned in the paper's
 * application-aware scheme (one 4 MB partition per serial phase plus
 * one for the parallel phases — section 6.1), or fully dedicated per
 * phase (the cache-state save/restore experiment of Figures 3-5a).
 * A directory keeps the L1s coherent with MOESI-style ownership:
 * writes invalidate remote copies. It is a paged line -> sharer-mask
 * table in which 0 means "no entry": an entry is created with the
 * reading thread's bit and a write resets it to the writer's bit, so
 * a listed line never has an empty mask.
 *
 * The hierarchy's only output is its per-phase PhaseMemStats, so its
 * caches are bare tag stores (CacheTags: no per-cache counters, no
 * first-touch history). replayStep resolves a phase's stats, L2
 * partition and thread model once per phase and then runs the same
 * per-reference routine as access().
 */

#ifndef PARALLAX_MEM_HIERARCHY_HH
#define PARALLAX_MEM_HIERARCHY_HH

#include <array>
#include <vector>

#include "cache.hh"
#include "paged_table.hh"
#include "sim/ticks.hh"
#include "workload/mem_trace.hh"
#include "workload/phase.hh"

namespace parallax
{

/** How the L2 space is assigned to phases. */
struct L2Plan
{
    /** Partition index for each phase. */
    std::array<int, numPhases> partitionOf{};
    /** Size (bytes) of each partition. */
    std::vector<std::uint64_t> partitionBytes;

    /** One shared L2 of `mb` megabytes for every phase. */
    static L2Plan shared(int mb);

    /**
     * The paper's partitioning: a dedicated serial partition for
     * Broadphase, another for Island Creation, and one partition
     * shared by the three parallel phases. Defaults reproduce the
     * 12 MB organization of section 6.2.
     */
    static L2Plan paperPartitioned(int serial_mb = 4,
                                   int parallel_mb = 4);

    /** A fully dedicated L2 of `mb` MB for every phase. */
    static L2Plan dedicatedPerPhase(int mb);
};

/** Hierarchy geometry and latencies (Table 5 defaults). */
struct HierarchyConfig
{
    CacheConfig l1{32 * 1024, 4, 64};
    int l2Ways = 4;
    Tick l1Latency = 2;
    Tick l2Latency = 15;
    Tick memLatency = 340;
    unsigned threads = 1;
    L2Plan plan = L2Plan::shared(1);
};

/** Per-phase access outcome counters. */
struct PhaseMemStats
{
    std::uint64_t refs = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t kernelL2Misses = 0;
    std::uint64_t userL2Misses = 0;
    std::uint64_t invalidations = 0;
    Tick cycles = 0;

    void
    reset()
    {
        *this = PhaseMemStats();
    }
};

/** The modelled memory system. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(HierarchyConfig config);

    /**
     * Perform one reference from a thread within a phase.
     * @return Latency in cycles of the serviced access.
     */
    Tick access(unsigned thread, Phase phase, const MemRef &ref);

    /** Replay one step's trace, interleaving thread chunks. */
    void replayStep(const StepTrace &trace,
                    int interleave_granularity = 64);

    const PhaseMemStats &phaseStats(Phase phase) const
    { return phaseStats_[static_cast<int>(phase)]; }

    /** Sum of the per-phase stats. */
    PhaseMemStats totalStats() const;

    /** Clear counters but keep cache contents (for warmup). */
    void resetStats();

    /** Drop all cached state. */
    void flushAll();

    const HierarchyConfig &config() const { return config_; }

  private:
    /**
     * One reference against the thread's L1 and the phase's L2
     * partition, counted into `stats` (all but `refs`, which the
     * caller adds). `coherent` is threads > 1: only then is the
     * directory kept.
     */
    Tick serve(unsigned thread, const MemRef &ref, PhaseMemStats &stats,
               CacheTags &l2, bool coherent);

    HierarchyConfig config_;
    std::vector<CacheTags> l1s_;
    std::vector<CacheTags> l2Partitions_;
    PagedTable<std::uint32_t> directory_; ///< Line -> bit per thread L1.
    std::array<PhaseMemStats, numPhases> phaseStats_{};
};

} // namespace parallax

#endif // PARALLAX_MEM_HIERARCHY_HH
