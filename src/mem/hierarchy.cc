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

namespace
{

/** The L2 pass loads a set this many misses ahead of its lookup. */
constexpr std::size_t prefetchAhead = 8;

/** Capacity of the L1-miss buffer between the passes (32 KB). */
constexpr std::size_t missBlock = 4096;

} // namespace

PhaseMemStats &
PhaseMemStats::operator+=(const PhaseMemStats &other)
{
    refs += other.refs;
    l1Hits += other.l1Hits;
    l2Hits += other.l2Hits;
    l2Misses += other.l2Misses;
    kernelL2Misses += other.kernelL2Misses;
    userL2Misses += other.userL2Misses;
    invalidations += other.invalidations;
    cycles += other.cycles;
    return *this;
}

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config)
    : config_(std::move(config))
{
    if (config_.threads == 0)
        fatal("hierarchy needs at least one thread");
    if (config_.threads > 32)
        fatal("directory bitmask supports at most 32 threads");
    if (config_.l1.lineBytes != static_cast<int>(MemRef::lineBytes))
        fatal("L1 line size %d: trace references are %d-byte lines",
              config_.l1.lineBytes, static_cast<int>(MemRef::lineBytes));
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
    for (const std::uint64_t bytes : config_.plan.partitionBytes) {
        l2Partitions_.emplace_back(CacheConfig{
            bytes, config_.l2Ways, static_cast<int>(MemRef::lineBytes)});
    }
    l1Misses_.resize(missBlock);
}

[[gnu::always_inline]] inline bool
MemoryHierarchy::l1Level(unsigned thread, CacheTags::Pass &l1,
                         MemRef ref, bool coherent,
                         std::uint64_t &invalidations)
{
    const std::uint64_t line = ref.line();

    // Coherence: a write invalidates every other L1's copy (MOESI
    // M-state acquisition through the directory).
    if (coherent && ref.write()) {
        const std::uint32_t others =
            directory_.get(line) & ~(1u << thread);
        if (others != 0) [[unlikely]]
            invalidations += takeOwnership(thread, line, others);
    }

    if (l1.access(line, ref.write()).hit)
        return true;
    if (coherent)
        directory_.at(line) |= 1u << thread;
    return false;
}

[[gnu::noinline]] std::uint64_t
MemoryHierarchy::takeOwnership(unsigned thread, std::uint64_t line,
                               std::uint32_t others)
{
    std::uint64_t count = 0;
    for (std::uint32_t m = others; m != 0; m &= m - 1, ++count)
        l1s_[std::countr_zero(m)].invalidate(line << MemRef::lineShift);
    directory_.at(line) = 1u << thread;
    return count;
}

[[gnu::always_inline]] inline MemRef *
MemoryHierarchy::l1Run(unsigned thread, const MemRef *first,
                       const MemRef *last, MemRef *out, bool coherent,
                       CacheTags &l2, PhaseMemStats &counts)
{
    MemRef *const buffer = l1Misses_.data();
    while (first != last) {
        if (out == buffer + missBlock) {
            l2Run(l2, out, counts);
            out = buffer;
        }
        // A reference appends at most one miss, so a run no longer
        // than the room left cannot overflow the buffer.
        const MemRef *const stop =
            first + std::min<std::size_t>(
                        static_cast<std::size_t>(buffer + missBlock - out),
                        static_cast<std::size_t>(last - first));
        CacheTags::Pass l1(l1s_[thread]);
        for (; first != stop; ++first) {
            // Every slot is written; it is kept only if the ref missed.
            const MemRef ref = *first;
            *out = ref;
            out += !l1Level(thread, l1, ref, coherent,
                            counts.invalidations);
        }
    }
    return out;
}

void
MemoryHierarchy::l2Run(CacheTags &l2, const MemRef *end,
                       PhaseMemStats &counts)
{
    CacheTags::Pass pass(l2);
    const MemRef *const buffer = l1Misses_.data();
    const std::size_t misses = static_cast<std::size_t>(end - buffer);
    for (std::size_t i = 0; i < misses; ++i) {
        pass.prefetch(
            buffer[std::min(i + prefetchAhead, misses - 1)].line());
        l2Level(pass, buffer[i], counts);
    }
}

[[gnu::always_inline]] inline void
MemoryHierarchy::l2Level(CacheTags::Pass &l2, MemRef ref,
                         PhaseMemStats &counts)
{
    if (l2.access(ref.line(), ref.write()).hit) {
        ++counts.l2Hits;
        return;
    }
    // Main memory.
    if (ref.kernel())
        ++counts.kernelL2Misses;
    else
        ++counts.userL2Misses;
}

Tick
MemoryHierarchy::settle(PhaseMemStats counts, PhaseMemStats &stats) const
{
    counts.l2Misses = counts.kernelL2Misses + counts.userL2Misses;
    counts.cycles =
        counts.l1Hits * config_.l1Latency +
        (counts.refs - counts.l1Hits) *
            (config_.l1Latency + config_.l2Latency) +
        counts.l2Misses * config_.memLatency;
    stats += counts;
    return counts.cycles;
}

Tick
MemoryHierarchy::access(unsigned thread, Phase phase, MemRef ref)
{
    parallax_assert(thread < l1s_.size());
    const int p = static_cast<int>(phase);
    PhaseMemStats counts;
    counts.refs = 1;
    bool hit;
    {
        CacheTags::Pass l1(l1s_[thread]);
        hit = l1Level(thread, l1, ref, config_.threads > 1,
                      counts.invalidations);
    }
    if (hit) {
        counts.l1Hits = 1;
    } else {
        CacheTags::Pass l2(l2For(p));
        l2Level(l2, ref, counts);
    }
    return settle(counts, phaseStats_[p]);
}

void
MemoryHierarchy::replayStep(const StepTrace &trace,
                            int interleave_granularity)
{
    const unsigned threads = config_.threads;
    for (int p = 0; p < numPhases; ++p) {
        const auto &refs = trace.phase[p];
        if (refs.empty())
            continue;
        PhaseMemStats counts;
        counts.refs = refs.size();
        CacheTags &l2 = l2For(p);

        // L1 pass: every reference in replay order, appending the
        // misses to l1Misses_; the L2 pass drains it whenever it
        // fills and at the end of the phase. The literal `coherent`
        // arguments give each call a loop without the other's
        // branches.
        MemRef *end = l1Misses_.data();
        const MemRef *const base = refs.data();
        if (threads == 1) {
            end = l1Run(0, base, base + refs.size(), end, false, l2,
                        counts);
        } else if (phaseIsSerial(static_cast<Phase>(p))) {
            end = l1Run(0, base, base + refs.size(), end, true, l2,
                        counts);
        } else {
            // Parallel phases: the stream was generated in per-thread
            // chunks; interleave them in granules to model concurrent
            // execution.
            const std::size_t chunk =
                (refs.size() + threads - 1) / threads;
            std::vector<std::size_t> cursor(threads);
            bool work_left = true;
            while (work_left) {
                work_left = false;
                for (unsigned t = 0; t < threads; ++t) {
                    const std::size_t begin = t * chunk;
                    const std::size_t end_t =
                        std::min(refs.size(), begin + chunk);
                    if (begin >= end_t)
                        continue;
                    std::size_t &pos = cursor[t];
                    const std::size_t stop = std::min(
                        end_t - begin,
                        pos + static_cast<std::size_t>(
                                  interleave_granularity));
                    end = l1Run(t, base + begin + pos, base + begin + stop,
                                end, true, l2, counts);
                    pos = stop;
                    if (pos < end_t - begin)
                        work_left = true;
                }
            }
        }
        l2Run(l2, end, counts);
        counts.l1Hits = counts.refs - counts.l2Hits -
                        counts.kernelL2Misses - counts.userL2Misses;
        settle(counts, phaseStats_[p]);
    }
}

PhaseMemStats
MemoryHierarchy::totalStats() const
{
    PhaseMemStats total;
    for (const PhaseMemStats &s : phaseStats_)
        total += s;
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
