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
 * first-touch history). References are MemRef line records, and the
 * L1s take only 64-byte lines, the trace's granularity.
 *
 * replayStep runs each phase in two passes. The L1 pass walks the
 * phase's references in replay order (serial, or the threads' chunks
 * interleaved in granules), keeps the directory and the L1s, and
 * appends the references that miss their L1 to a 4096-record buffer.
 * The L2 pass runs the buffer through the phase's partition whenever
 * it fills and at the end of the phase, prefetching each set a few
 * misses ahead; a buffer that small stays in the host's caches. The
 * split is exact: no L1 or directory outcome reads the L2 (no
 * inclusion, no back-invalidation), the L2 sees the same misses in
 * the same order, and no dirty bit reaches PhaseMemStats; a phase's
 * cycles are the integer sum of its hit and miss counts times their
 * latencies. Each level is one always-inlined routine holding its
 * cache's LRU clock in a local (CacheTags::Pass); access() runs the
 * two back to back.
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

    PhaseMemStats &operator+=(const PhaseMemStats &other);
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
    Tick access(unsigned thread, Phase phase, MemRef ref);

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
     * The L1 level of one reference from `thread`, whose L1 is open
     * in `l1`: coherence, then the L1 lookup. Counts the
     * invalidations; true on an L1 hit. `coherent` is threads > 1:
     * only then is the directory kept.
     */
    bool l1Level(unsigned thread, CacheTags::Pass &l1, MemRef ref,
                 bool coherent, std::uint64_t &invalidations);

    /**
     * The L1 pass over `thread`'s references [first, last): l1Level
     * on each, appending the misses to l1Misses_ at `out` and
     * draining it through l2Run into `l2` whenever it fills.
     * @return The end of the misses still pending.
     */
    MemRef *l1Run(unsigned thread, const MemRef *first,
                  const MemRef *last, MemRef *out, bool coherent,
                  CacheTags &l2, PhaseMemStats &counts);

    /** The L2 pass: l2Level on the pending misses [l1Misses_, end). */
    void l2Run(CacheTags &l2, const MemRef *end, PhaseMemStats &counts);

    /**
     * A write by `thread` to `line`, which the L1s in the mask
     * `others` share: invalidate their copies and make `thread` the
     * line's only sharer. @return The invalidations.
     */
    std::uint64_t takeOwnership(unsigned thread, std::uint64_t line,
                                std::uint32_t others);

    /**
     * The L2 level of one L1 miss against the partition open in
     * `l2`. Counts `l2Hits` and the L2 misses into `counts`.
     */
    static void l2Level(CacheTags::Pass &l2, MemRef ref,
                        PhaseMemStats &counts);

    /**
     * Charge counted references their cycles and add them to
     * `stats`. @return The cycles charged.
     */
    Tick settle(PhaseMemStats counts, PhaseMemStats &stats) const;

    CacheTags &l2For(int phase)
    { return l2Partitions_[config_.plan.partitionOf[phase]]; }

    HierarchyConfig config_;
    std::vector<CacheTags> l1s_;
    std::vector<CacheTags> l2Partitions_;
    PagedTable<std::uint32_t> directory_; ///< Line -> bit per thread L1.
    std::array<PhaseMemStats, numPhases> phaseStats_{};
    std::vector<MemRef> l1Misses_; ///< L1 misses awaiting the L2 pass.
};

} // namespace parallax

#endif // PARALLAX_MEM_HIERARCHY_HH
