#include "hierarchy.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace parallax
{

L2Plan
L2Plan::shared(int mb)
{
    L2Plan plan;
    plan.partitionOf.fill(0);
    plan.partitionBytes = {static_cast<std::uint64_t>(mb) << 20};
    return plan;
}

L2Plan
L2Plan::paperPartitioned(int serial_mb, int parallel_mb)
{
    L2Plan plan;
    plan.partitionOf[static_cast<int>(Phase::Broadphase)] = 0;
    plan.partitionOf[static_cast<int>(Phase::IslandCreation)] = 1;
    plan.partitionOf[static_cast<int>(Phase::Narrowphase)] = 2;
    plan.partitionOf[static_cast<int>(Phase::IslandProcessing)] = 2;
    plan.partitionOf[static_cast<int>(Phase::Cloth)] = 2;
    plan.partitionBytes = {
        static_cast<std::uint64_t>(serial_mb) << 20,
        static_cast<std::uint64_t>(serial_mb) << 20,
        static_cast<std::uint64_t>(parallel_mb) << 20};
    return plan;
}

L2Plan
L2Plan::dedicatedPerPhase(int mb)
{
    L2Plan plan;
    plan.partitionBytes.resize(numPhases,
                               static_cast<std::uint64_t>(mb) << 20);
    for (int p = 0; p < numPhases; ++p)
        plan.partitionOf[p] = p;
    return plan;
}

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config)
    : config_(std::move(config))
{
    if (config_.threads == 0)
        fatal("hierarchy needs at least one thread");
    if (config_.threads > 32)
        fatal("directory bitmask supports at most 32 threads");
    l1s_.assign(config_.threads, CacheTags(config_.l1));
    for (int p = 0; p < numPhases; ++p) {
        const int part = config_.plan.partitionOf[p];
        if (part < 0 ||
            static_cast<std::size_t>(part) >=
                config_.plan.partitionBytes.size()) {
            fatal("phase %d maps to invalid L2 partition %d", p,
                  part);
        }
    }
    for (const std::uint64_t bytes : config_.plan.partitionBytes)
        l2Partitions_.emplace_back(CacheConfig{bytes, config_.l2Ways, 64});
}

inline Tick
MemoryHierarchy::serve(unsigned thread, const MemRef &ref,
                       PhaseMemStats &stats, CacheTags &l2,
                       bool coherent)
{
    const std::uint64_t line = ref.addr >> 6;

    // Coherence: a write invalidates every other L1's copy (MOESI
    // M-state acquisition through the directory).
    if (coherent && ref.write) {
        const std::uint32_t others =
            directory_.get(line) & ~(1u << thread);
        if (others != 0) {
            for (std::uint32_t m = others; m != 0; m &= m - 1)
                l1s_[std::countr_zero(m)].invalidate(ref.addr);
            stats.invalidations += std::popcount(others);
            directory_.at(line) = 1u << thread;
        }
    }

    // L1 lookup.
    CacheTags &l1 = l1s_[thread];
    Tick latency = config_.l1Latency;
    if (l1.accessLine(l1.lineIndex(ref.addr), ref.write).hit) {
        ++stats.l1Hits;
        stats.cycles += latency;
        return latency;
    }
    if (coherent)
        directory_.at(line) |= 1u << thread;

    // L2 partition lookup.
    latency += config_.l2Latency;
    if (l2.accessLine(l2.lineIndex(ref.addr), ref.write).hit) {
        ++stats.l2Hits;
        stats.cycles += latency;
        return latency;
    }

    // Main memory.
    ++stats.l2Misses;
    if (ref.kernel)
        ++stats.kernelL2Misses;
    else
        ++stats.userL2Misses;
    latency += config_.memLatency;
    stats.cycles += latency;
    return latency;
}

Tick
MemoryHierarchy::access(unsigned thread, Phase phase,
                        const MemRef &ref)
{
    parallax_assert(thread < l1s_.size());
    const int p = static_cast<int>(phase);
    PhaseMemStats &stats = phaseStats_[p];
    ++stats.refs;
    return serve(thread, ref, stats,
                 l2Partitions_[config_.plan.partitionOf[p]],
                 config_.threads > 1);
}

void
MemoryHierarchy::replayStep(const StepTrace &trace,
                            int interleave_granularity)
{
    const unsigned threads = config_.threads;
    const bool coherent = threads > 1;
    for (int p = 0; p < numPhases; ++p) {
        const auto &refs = trace.phase[p];
        if (refs.empty())
            continue;
        PhaseMemStats &stats = phaseStats_[p];
        CacheTags &l2 = l2Partitions_[config_.plan.partitionOf[p]];
        stats.refs += refs.size();

        if (!coherent || phaseIsSerial(static_cast<Phase>(p))) {
            for (const MemRef &ref : refs)
                serve(0, ref, stats, l2, coherent);
            continue;
        }

        // Parallel phases: the stream was generated in per-thread
        // chunks; interleave them in granules to model concurrent
        // execution against the shared L2.
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
                    serve(t, refs[begin + pos], stats, l2, true);
                if (pos < end - begin)
                    work_left = true;
            }
        }
    }
}

PhaseMemStats
MemoryHierarchy::totalStats() const
{
    PhaseMemStats total;
    for (const PhaseMemStats &s : phaseStats_) {
        total.refs += s.refs;
        total.l1Hits += s.l1Hits;
        total.l2Hits += s.l2Hits;
        total.l2Misses += s.l2Misses;
        total.kernelL2Misses += s.kernelL2Misses;
        total.userL2Misses += s.userL2Misses;
        total.invalidations += s.invalidations;
        total.cycles += s.cycles;
    }
    return total;
}

void
MemoryHierarchy::resetStats()
{
    for (PhaseMemStats &s : phaseStats_)
        s.reset();
}

void
MemoryHierarchy::flushAll()
{
    for (CacheTags &l1 : l1s_)
        l1.flush();
    for (CacheTags &l2 : l2Partitions_)
        l2.flush();
    directory_.clear();
}

} // namespace parallax
