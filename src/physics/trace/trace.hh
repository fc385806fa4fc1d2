/**
 * @file
 * Low-overhead, thread-safe trace collection with Chrome-trace
 * export.
 *
 * The paper's whole argument rests on measuring per-phase load
 * (Figures 2-7, Tables 3-5), so the engine carries a first-class
 * tracing surface: scoped spans for every pipeline phase and every
 * stealable work item (islands, cloths, narrowphase chunks), counter
 * tracks for the per-step metrics the governor and scheduler emit,
 * and instant markers for containment events. The collector exports
 * the Chrome trace-event JSON format, loadable in `chrome://tracing`
 * or https://ui.perfetto.dev with no further tooling.
 *
 * Threading model: the collector owns one append-only buffer per
 * scheduler lane (lane 0 = the calling thread). A lane only ever
 * writes its own buffer, so recording a span from inside a
 * parallelFor body is race-free without locks; merging and export
 * happen on the main thread while the workers are parked at a phase
 * barrier. Buffers are bounded — past `maxEventsPerLane` events a
 * lane drops new events and counts the drops rather than growing
 * without limit.
 *
 * Overhead discipline: when tracing is disabled every entry point is
 * a single branch on `enabled()`; no clocks are read, no memory is
 * touched, and the simulation trajectory is bitwise identical to a
 * build without tracing (tests/test_trace.cc pins this down).
 */

#ifndef PARALLAX_PHYSICS_TRACE_TRACE_HH
#define PARALLAX_PHYSICS_TRACE_TRACE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "parallax/status.hh"

namespace parallax
{

/** One recorded event (a completed span, counter sample, or instant
 *  marker). `name` must point at a string with static storage
 *  duration — events store the pointer, never a copy. */
struct TraceEvent
{
    enum class Type : std::uint8_t
    {
        Span,    // Chrome "X": a [ts, ts+dur] interval on a lane.
        Counter, // Chrome "C": a sampled value track.
        Instant, // Chrome "i": a point marker (faults, quarantines).
    };

    Type type = Type::Span;
    const char *name = "";
    /** World step the event belongs to (rendered into args). */
    std::uint64_t step = 0;
    /** Microseconds since the collector's epoch. */
    double ts = 0.0;
    /** Span duration in microseconds (spans only). */
    double dur = 0.0;
    /** Sampled value (counters only). */
    double value = 0.0;
    /** Optional entity id (island/cloth/chunk/lane); -1 = none.
     *  Counters with distinct ids render as separate tracks. */
    std::int64_t id = -1;
    /** Lane that recorded the event (Chrome tid). */
    unsigned lane = 0;
};

/** Per-lane bounded trace-event sink with Chrome JSON export. */
class TraceCollector
{
  public:
    /** Events a single lane may record before dropping. */
    static constexpr std::size_t maxEventsPerLane = 1u << 20;

    TraceCollector();

    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    /**
     * Size the per-lane buffers and arm (or disarm) collection.
     * Must be called while no worker is inside a parallel loop
     * (World's constructor does it before any step).
     */
    void configure(unsigned lanes, bool enabled);

    bool enabled() const { return enabled_; }
    unsigned laneCount() const
    { return static_cast<unsigned>(lanes_.size()); }

    /** Microseconds since the collector epoch (monotonic clock). */
    double nowUs() const;

    /** Record a completed [beginUs, endUs] span on `lane`. */
    void recordSpan(unsigned lane, const char *name,
                    std::uint64_t step, double beginUs, double endUs,
                    std::int64_t id = -1);

    /** Record a counter sample (main thread / lane 0 only). */
    void recordCounter(const char *name, std::uint64_t step,
                       double value, std::int64_t id = -1);

    /** Record an instant marker (main thread / lane 0 only). */
    void recordInstant(const char *name, std::uint64_t step,
                       std::int64_t id = -1);

    /** Events recorded so far, lane-major in record order. Call only
     *  while the workers are parked (between steps). */
    std::vector<TraceEvent> events() const;

    /** Events discarded because a lane buffer filled up. */
    std::uint64_t droppedEvents() const;

    /** Serialize everything as Chrome trace-event JSON. */
    std::string toChromeJson() const;

    /** Write toChromeJson() to `path`; IO_ERROR when the file
     *  cannot be opened or fully written. */
    Status writeChromeJson(const std::string &path) const;

  private:
    struct LaneBuffer
    {
        std::vector<TraceEvent> events;
        std::uint64_t dropped = 0;
    };

    void record(unsigned lane, TraceEvent event);

    bool enabled_ = false;
    std::chrono::steady_clock::time_point epoch_;
    /** One heap-allocated buffer per lane: stable addresses, no
     *  false sharing between adjacent lanes' append paths. */
    std::vector<std::unique_ptr<LaneBuffer>> lanes_;
};

/**
 * RAII span: reads the clock on entry and records on exit. When the
 * collector is disabled construction is a branch and a null store —
 * no clock read, no buffer touch.
 */
class TraceScope
{
  public:
    TraceScope(TraceCollector &collector, unsigned lane,
               const char *name, std::uint64_t step,
               std::int64_t id = -1)
        : collector_(collector.enabled() ? &collector : nullptr),
          name_(name), step_(step), id_(id), lane_(lane)
    {
        if (collector_ != nullptr)
            begin_ = collector_->nowUs();
    }

    ~TraceScope()
    {
        if (collector_ != nullptr) {
            collector_->recordSpan(lane_, name_, step_, begin_,
                                   collector_->nowUs(), id_);
        }
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    TraceCollector *collector_;
    const char *name_;
    std::uint64_t step_;
    std::int64_t id_;
    unsigned lane_;
    double begin_ = 0.0;
};

/**
 * Insert `_tag` before the final extension of `path`'s basename
 * ("trace.json", "Mix_w2" -> "trace_Mix_w2.json"), so one --trace
 * flag fans out to one file per (scene, workers) run.
 */
std::string decorateTracePath(const std::string &path,
                              const std::string &tag);

// Scoped-span convenience macros (unique local per expansion).
#define PAX_TRACE_CONCAT2(a, b) a##b
#define PAX_TRACE_CONCAT(a, b) PAX_TRACE_CONCAT2(a, b)

/** Span over the rest of the enclosing block. */
#define PAX_TRACE_SCOPE(collector, lane, name, step)                  \
    ::parallax::TraceScope PAX_TRACE_CONCAT(pax_trace_scope_,         \
                                            __LINE__)(                \
        (collector), (lane), (name), (step))

/** Same, tagging the span with an entity id. */
#define PAX_TRACE_SCOPE_ID(collector, lane, name, step, id)           \
    ::parallax::TraceScope PAX_TRACE_CONCAT(pax_trace_scope_,         \
                                            __LINE__)(                \
        (collector), (lane), (name), (step), (id))

} // namespace parallax

#endif // PARALLAX_PHYSICS_TRACE_TRACE_HH
