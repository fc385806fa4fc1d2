/**
 * @file
 * Structure-faithful memory reference streams for the cache studies.
 *
 * The paper replayed real SPARC memory traces through the GEMS cache
 * model; we derive reference streams from the live engine's own
 * state instead: every body, geom, joint, contact and cloth vertex
 * gets a fixed synthetic address (using the paper's record sizes —
 * 412 B per object, 116 B per geom, 148-392 B per joint), and each
 * phase touches those records in the order the engine actually
 * processes them. Footprints, reuse distances and inter-phase
 * eviction behaviour therefore track the real workload.
 *
 * A reference is a MemRef, one 8-byte word per 64-byte line touched
 * (a record spanning three lines emits three), so a step's trace
 * costs 8 bytes per reference.
 */

#ifndef PARALLAX_WORKLOAD_MEM_TRACE_HH
#define PARALLAX_WORKLOAD_MEM_TRACE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "phase.hh"
#include "physics/world.hh"

namespace parallax
{

/**
 * One memory reference, line-granular: the modelled caches have
 * 64-byte lines and every reference touches one whole line, so a
 * record is one 8-byte word `line << 2 | write << 1 | kernel`.
 */
class MemRef
{
  public:
    static constexpr int lineShift = 6;
    static constexpr std::uint64_t lineBytes = std::uint64_t{1}
                                               << lineShift;

    MemRef() = default;

    /** The reference to the line holding byte address `addr`. */
    constexpr MemRef(std::uint64_t addr, bool write, bool kernel)
        : MemRef(fromLine(addr >> lineShift, write, kernel))
    {
    }

    static constexpr MemRef
    fromLine(std::uint64_t line, bool write, bool kernel)
    {
        MemRef ref;
        ref.word_ = line << 2 | std::uint64_t{write} << 1 |
                    std::uint64_t{kernel};
        return ref;
    }

    /** Line index (byte address / lineBytes). */
    constexpr std::uint64_t line() const { return word_ >> 2; }
    /** Address of the line's first byte. */
    constexpr std::uint64_t addr() const { return line() << lineShift; }
    constexpr bool write() const { return (word_ >> 1) & 1; }
    /** Operating-system reference (Figure 6b). */
    constexpr bool kernel() const { return word_ & 1; }

    friend constexpr bool operator==(MemRef, MemRef) = default;

  private:
    std::uint64_t word_ = 0;
};

/** Paper record sizes (section 6.1). */
namespace record
{
constexpr std::uint64_t objectBytes = 412;
constexpr std::uint64_t geomBytes = 116;
constexpr std::uint64_t contactJointBytes = 148; // Smallest joint.
constexpr std::uint64_t ballJointBytes = 200;
constexpr std::uint64_t hingeJointBytes = 280;
constexpr std::uint64_t sliderJointBytes = 320;
constexpr std::uint64_t fixedJointBytes = 392; // Largest joint.
constexpr std::uint64_t clothVertexBytes = 48; // pos+prev+invMass.
constexpr std::uint64_t contactBytes = 96;

/** Size of a joint record by type. */
std::uint64_t jointBytes(JointType type);
} // namespace record

/**
 * Deterministic synthetic address layout. Each record class lives in
 * its own region, spaced far apart so regions never alias.
 */
class AddressMap
{
  public:
    static constexpr std::uint64_t objectBase = 0x1000'0000;
    static constexpr std::uint64_t geomBase = 0x3000'0000;
    static constexpr std::uint64_t shapeBase = 0x4000'0000;
    static constexpr std::uint64_t jointBase = 0x5000'0000;
    static constexpr std::uint64_t contactBase = 0x7000'0000;
    static constexpr std::uint64_t islandBase = 0x8000'0000;
    static constexpr std::uint64_t clothBase = 0x9000'0000;
    static constexpr std::uint64_t sortBase = 0xa000'0000;
    static constexpr std::uint64_t kernelBase = 0xc000'0000;

    static std::uint64_t object(BodyId id)
    { return objectBase + id * record::objectBytes; }
    static std::uint64_t geom(GeomId id)
    { return geomBase + id * record::geomBytes; }
    /** Shape records are shared; index by an opaque shape ordinal. */
    static std::uint64_t shape(std::uint64_t ordinal)
    { return shapeBase + ordinal * 256; }
    static std::uint64_t joint(JointId id)
    { return jointBase + id * 512; } // Worst-case slot per joint.
    static std::uint64_t contact(std::uint64_t index)
    { return contactBase + index * record::contactBytes; }
    static std::uint64_t islandScratch(std::uint64_t index)
    { return islandBase + index * 8; }
    static std::uint64_t clothVertex(ClothId cloth,
                                     std::uint64_t vertex)
    {
        return clothBase + cloth * 0x10'0000 +
               vertex * record::clothVertexBytes;
    }
    static std::uint64_t sortEntry(std::uint64_t index)
    { return sortBase + index * 16; }
    /** Per-thread kernel region (up to ~8 MB each). */
    static std::uint64_t kernel(unsigned thread, std::uint64_t offset)
    { return kernelBase + thread * 0x80'0000ull + offset; }
};

/** Per-phase reference streams for one simulation step. */
struct StepTrace
{
    std::array<std::vector<MemRef>, numPhases> phase;

    std::vector<MemRef> &refs(Phase p)
    { return phase[static_cast<int>(p)]; }
    const std::vector<MemRef> &refs(Phase p) const
    { return phase[static_cast<int>(p)]; }

    std::size_t totalRefs() const;
};

/** Parameters of the trace generator. */
struct TraceOptions
{
    /**
     * Worker threads the trace models (affects narrowphase / island
     * partitioning interleave and per-thread kernel footprints).
     */
    unsigned threads = 1;

    /**
     * Solver sweeps traced explicitly. The remaining (20 - traced)
     * sweeps revisit the same records and are pure cache hits; the
     * replay accounts them analytically.
     */
    int solverSweepsTraced = 2;

    /** Cloth relaxation sweeps traced explicitly. */
    int clothSweepsTraced = 2;

    /**
     * Per-thread kernel working set touched per step (bytes).
     * Solaris pmap measurement in the paper: ~850 KB per worker at
     * 2-4 threads, jumping to ~5 MB at 8 threads.
     */
    std::uint64_t kernelBytesPerThread = 850 * 1024;
};

/** Returns the paper's kernel footprint for a given thread count. */
std::uint64_t kernelFootprintForThreads(unsigned threads);

/**
 * Generates the five phase streams for the step that just executed
 * (uses World::lastPairs / lastContacts / body island ids).
 */
class TraceGenerator
{
  public:
    explicit TraceGenerator(TraceOptions options = TraceOptions());

    StepTrace generate(const World &world) const;

    const TraceOptions &options() const { return options_; }

  private:
    void genBroadphase(const World &world,
                       std::vector<MemRef> &out) const;
    void genNarrowphase(const World &world,
                        std::vector<MemRef> &out) const;
    void genIslandCreation(const World &world,
                           std::vector<MemRef> &out) const;
    void genIslandProcessing(const World &world,
                             std::vector<MemRef> &out) const;
    void genCloth(const World &world,
                  std::vector<MemRef> &out) const;
    void genKernelRefs(std::vector<MemRef> &out, unsigned thread,
                       std::uint64_t bytes) const;

    TraceOptions options_;
};

} // namespace parallax

#endif // PARALLAX_WORKLOAD_MEM_TRACE_HH
