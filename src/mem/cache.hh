/**
 * @file
 * Set-associative cache model.
 *
 * Models the GEMS-style caches of the paper's methodology: 64-byte
 * lines, LRU replacement, configurable size and associativity. The
 * L2 is built from 1 MB 4-way banks; since bank conflicts are not
 * timed (the paper charges a flat 15-cycle L2 latency), a banked L2
 * of N MB is modelled as one cache of N MB with the banks' aggregate
 * sets. Way counts up to fully-associative support the paper's
 * 1024-way miss-classification experiment.
 *
 * Two layers: CacheTags is the tag store alone (lines, LRU stamps,
 * the victim rule) and keeps no counters; the memory hierarchy is
 * built from it, since its only output is its own per-phase
 * counters. Cache adds the standalone counters (CacheStats) and the
 * compulsory-miss classification, a paged first-touch bitmap over
 * line indices, on top of the same lookup/fill routine.
 *
 * Each way is 16 bytes (a `tag << 2 | dirty << 1 | valid` word and an
 * LRU stamp), so a 4-way set is 64 bytes, one host cache line. The line
 * index is a shift (line sizes are powers of two) and the set index a
 * mask when the set count is a power of two, an exact modulo
 * otherwise (a 9 MB 4-way L2 has 36,864 sets).
 *
 * The lookup/fill routine lives in CacheTags::Pass, which holds the
 * geometry and the LRU clock in locals for a replay loop;
 * accessLine() is a one-reference pass.
 */

#ifndef PARALLAX_MEM_CACHE_HH
#define PARALLAX_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "paged_table.hh"

namespace parallax
{

/** Cache geometry. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 1ull << 20;
    int ways = 4;
    int lineBytes = 64; ///< A power of two, at least 4.
};

/** Hit/miss counters, split user/kernel (Figure 6b). */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t compulsoryMisses = 0;
    std::uint64_t kernelMisses = 0;
    std::uint64_t userMisses = 0;
    std::uint64_t writebacks = 0;

    void
    reset()
    {
        *this = CacheStats();
    }

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses
                        : 0.0;
    }
};

/** Outcome of one CacheTags::accessLine. */
struct LineAccess
{
    bool hit;
    bool writeback; ///< The fill evicted a valid dirty line.
};

/**
 * The tag store of one set-associative cache with LRU replacement.
 *
 * Victim rule, kept exactly as the figures were produced: the scan
 * starts at way 0 and, from way 1 on, takes the first invalid way,
 * otherwise the way with the smallest `lastUse`. Way 0 is never
 * tested for validity, and invalidate()/flush() keep a line's stale
 * `lastUse`. So after an invalidation a valid line can be evicted
 * while an invalidated way 0 is still free: the scan compares the
 * valid ways against way 0's stale stamp and picks an older valid
 * way (test `CacheTest.VictimQuirkEvictsValidLineOverFreeWay0`).
 * Coherence invalidations reach the L1s in multi-thread replays, so
 * fixing this changes figure output (Fig 6b's 8-thread row).
 */
class CacheTags
{
  public:
    class Pass;

    explicit CacheTags(CacheConfig config);

    /** Line index of a byte address. */
    std::uint64_t lineIndex(std::uint64_t addr) const
    { return addr >> lineShift_; }

    /**
     * Look a line up and, on a miss, fill it into the victim way.
     *
     * @param line Line index (lineIndex() of the address).
     * @param write Marks the line dirty.
     */
    LineAccess accessLine(std::uint64_t line, bool write);

    /** True if the line is currently resident (no state change). */
    bool probe(std::uint64_t addr) const;

    /** Invalidate a line if present; returns true if it was dirty. */
    bool invalidate(std::uint64_t addr);

    /** Drop all lines. */
    void flush();

    const CacheConfig &config() const { return config_; }

    int numSets() const { return static_cast<int>(sets_.numSets); }

    /** Number of currently valid lines (footprint inspection). */
    std::uint64_t residentLines() const;

  private:
    static constexpr std::uint64_t validBit = 1;
    static constexpr std::uint64_t dirtyBit = 2;

    struct Line
    {
        std::uint64_t word = 0; ///< tag << 2 | dirty << 1 | valid.
        std::uint64_t lastUse = 0;

        /** Valid and tagged `line`, whatever the dirty bit. */
        bool
        holds(std::uint64_t line) const
        { return (word & ~dirtyBit) == (line << 2 | validBit); }
    };

    /** Where a line's set starts in lines_. */
    struct SetIndex
    {
        std::uint64_t numSets = 1;
        std::uint64_t setMask = 0; ///< numSets - 1 when pow2.
        int ways = 1;
        bool pow2 = true;

        /** Index of the first way of the set holding `line`. */
        std::uint64_t
        operator()(std::uint64_t line) const
        {
            const std::uint64_t set =
                pow2 ? line & setMask : line % numSets;
            return set * ways;
        }
    };

    CacheConfig config_;
    SetIndex sets_;
    int lineShift_ = 0;
    std::vector<Line> lines_; ///< numSets x ways, row-major.
    std::uint64_t useCounter_ = 0;
};

/**
 * CacheTags' lookup and fill with the geometry and the LRU clock in
 * locals: a replay loop that runs its references through one Pass
 * reloads no tag-store field per reference (a store into a line
 * cannot alias the clock). The clock goes back into the tag store
 * when the pass ends. While a Pass is live, its tag store takes no
 * other accessLine() or Pass; probe(), invalidate() and flush() keep
 * working, since they do not touch the clock.
 */
class CacheTags::Pass
{
  public:
    explicit Pass(CacheTags &tags)
        : tags_(tags), lines_(tags.lines_.data()), sets_(tags.sets_),
          clock_(tags.useCounter_)
    {
    }

    ~Pass() { tags_.useCounter_ = clock_; }

    Pass(const Pass &) = delete;
    Pass &operator=(const Pass &) = delete;

    /**
     * Look a line up and, on a miss, fill it into the victim way.
     *
     * @param line Line index (lineIndex() of the address).
     * @param write Marks the line dirty.
     */
    [[gnu::always_inline]] LineAccess
    access(std::uint64_t line, bool write)
    {
        const std::uint64_t dirty = write ? dirtyBit : 0;
        Line *base = lines_ + sets_(line);
        const int ways = sets_.ways;

        // Lookup. A valid line is held by at most one way of its set,
        // so the scan needs no early exit: it selects the matching way
        // without a data-dependent branch.
        int hit = -1;
        for (int w = 0; w < ways; ++w)
            hit = base[w].holds(line) ? w : hit;
        if (hit >= 0) {
            base[hit].lastUse = ++clock_;
            base[hit].word |= dirty;
            return {true, false};
        }

        // Miss: fill into the victim way (rule on the class comment).
        Line *victim = &base[0];
        for (int w = 1; w < ways; ++w) {
            Line &entry = base[w];
            if ((entry.word & validBit) == 0) {
                victim = &entry;
                break;
            }
            if (entry.lastUse < victim->lastUse)
                victim = &entry;
        }
        const bool writeback = (victim->word & (validBit | dirtyBit)) ==
                               (validBit | dirtyBit);
        victim->word = line << 2 | dirty | validBit;
        victim->lastUse = ++clock_;
        return {false, writeback};
    }

    /** Start loading the set of `line` into the host cache. */
    void
    prefetch(std::uint64_t line) const
    {
        __builtin_prefetch(lines_ + sets_(line));
    }

  private:
    CacheTags &tags_;
    Line *lines_;
    SetIndex sets_;
    std::uint64_t clock_;
};

inline LineAccess
CacheTags::accessLine(std::uint64_t line, bool write)
{
    return Pass(*this).access(line, write);
}

/**
 * A standalone cache: CacheTags plus hit/miss counters and the
 * compulsory-miss classification.
 */
class Cache : public CacheTags
{
  public:
    using CacheTags::CacheTags;

    /**
     * Access one line.
     *
     * @param addr Byte address (any byte of the line).
     * @param write Marks the line dirty.
     * @param kernel Attribute misses to the kernel counter.
     * @return True on hit.
     */
    bool access(std::uint64_t addr, bool write, bool kernel = false);

    /** Counters since construction or resetStats(); flush() keeps
     *  them and the first-touch history. */
    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    /** Marks `line` touched; true if it never was before. */
    bool firstTouch(std::uint64_t line);

    PagedTable<std::uint64_t> touched_; ///< Bit per line, for compulsory.
    CacheStats stats_;
};

} // namespace parallax

#endif // PARALLAX_MEM_CACHE_HH
