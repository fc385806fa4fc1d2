/**
 * @file
 * Repository benchmark driver.
 *
 * Runs one workload for a fixed wall-clock budget and writes its raw
 * samples as one JSON object: the time of every timed operation, the
 * repetition boundaries, the set-up times, the counters the engine
 * returns at each layer boundary (StepStats, LaneStats, KernelStats,
 * ServerStats, PhaseMemStats) and, when tracing, the spans the driver
 * records around its own calls into each layer. paxbench/run.py
 * builds this binary, generates its inputs from the seed (the plan
 * file) and turns the raw samples into metrics; see
 * paxbench/README.md for the workloads and metric definitions.
 *
 * Usage:
 *   paxbench_driver WORKLOAD --seconds S --trace 0|1 --out FILE
 *                   [--plan FILE]
 *
 * Exit status: 0 after writing FILE (correctness failures are
 * counted in it, not fatal); 2 on bad arguments or when the workload
 * cannot be measured as defined (e.g. the kernel backend resolved to
 * something other than the one the workload pins).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cpu/cg_timing.hh"
#include "mem/hierarchy.hh"
#include "parallax.hh"

using namespace parallax;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

/** Nanoseconds since the driver started. */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - processStart)
        .count();
}

double
msBetween(std::int64_t start, std::int64_t end)
{
    return static_cast<double>(end - start) * 1e-6;
}

[[noreturn]] void
refuse(const std::string &why)
{
    std::fprintf(stderr, "paxbench_driver: %s\n", why.c_str());
    std::exit(2);
}

// --- Spans -------------------------------------------------------------

/**
 * Spans recorded from the driver's own code: name, start, end and
 * the enclosing span. Kept in memory and written when the run ends.
 * Single-threaded: spans of work that runs on scheduler lanes are
 * added after the fact from timestamps the lanes stored (add()).
 */
class Tracer
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one; -1 when disabled. */
    std::int64_t
    begin(const char *name)
    {
        if (!enabled_)
            return -1;
        const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, nowNs(), -1, parent});
        stack_.push_back(static_cast<std::int64_t>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    end(std::int64_t id)
    {
        if (id < 0)
            return;
        spans_[id].end = nowNs();
        stack_.pop_back();
    }

    /** Record a finished span with explicit bounds and parent. */
    std::int64_t
    add(const char *name, std::int64_t start, std::int64_t end,
        std::int64_t parent)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({name, start, end, parent});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    void writeJson(std::string &out) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::int64_t parent;
    };

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
};

Tracer tracer;

/** RAII span on the global tracer. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : id_(tracer.begin(name)) {}
    ~ScopedSpan() { tracer.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int64_t id_;
};

// --- Raw record --------------------------------------------------------

void
appendNumber(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += buf;
}

void
appendString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    out += '"';
}

void
appendArray(std::string &out, const std::vector<double> &values)
{
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        appendNumber(out, values[i]);
    }
    out += ']';
}

void
Tracer::writeJson(std::string &out) const
{
    out += '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (i > 0)
            out += ',';
        out += '[';
        appendString(out, s.name);
        out += ',' + std::to_string(s.start) + ',' +
               std::to_string(s.end) + ',' + std::to_string(s.parent) +
               ']';
    }
    out += ']';
}

/** Named sums of layer counters. */
using Counters = std::map<std::string, double>;

/** Everything one run measures, before any statistics. */
struct Record
{
    std::map<std::string, std::string> host;
    std::vector<double> setupSeconds;
    /** Every timed operation, in execution order. */
    std::vector<double> opMs;
    /** Per repetition: its operations' total time, its slowest unit
     *  (frame, update or sweep point), and whether it was traced. */
    std::vector<double> repMs;
    std::vector<double> repWorstMs;
    std::vector<double> repTraced;
    double peakRssMb = 0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::string digest;

    /** Counters over the timed repetitions at the measured worker
     *  count ("work_units" is the throughput numerator), and over
     *  the serial (workerThreads = 0) pass of traced runs. */
    Counters counters;
    Counters serial;

    /** Count one checked operation; keep the first few failures. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }

    std::string json() const;
};

void
appendCounters(std::string &out, const Counters &counters)
{
    out += '{';
    bool first = true;
    for (const auto &[key, value] : counters) {
        if (!first)
            out += ',';
        first = false;
        appendString(out, key);
        out += ':';
        appendNumber(out, value);
    }
    out += '}';
}

std::string
Record::json() const
{
    std::string out = "{\"host\":{";
    bool first = true;
    for (const auto &[key, value] : host) {
        if (!first)
            out += ',';
        first = false;
        appendString(out, key);
        out += ':';
        appendString(out, value);
    }
    out += "},\"setup_s\":";
    appendArray(out, setupSeconds);
    out += ",\"op_ms\":";
    appendArray(out, opMs);
    out += ",\"rep_ms\":";
    appendArray(out, repMs);
    out += ",\"rep_worst_ms\":";
    appendArray(out, repWorstMs);
    out += ",\"rep_traced\":";
    appendArray(out, repTraced);
    out += ",\"peak_rss_mb\":";
    appendNumber(out, peakRssMb);
    out += ",\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i > 0)
            out += ',';
        appendString(out, failures[i]);
    }
    out += "],\"digest\":";
    appendString(out, digest);
    out += ",\"counters\":";
    appendCounters(out, counters);
    out += ",\"serial\":";
    appendCounters(out, serial);
    out += ",\"spans\":";
    tracer.writeJson(out);
    out += "}\n";
    return out;
}

/** Peak resident set of this process (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
};

// --- Options and plan ---------------------------------------------------

struct Options
{
    std::string workload;
    double seconds = 10;
    bool trace = false;
    std::string planPath;
    std::string outPath;
};

/** Seed-derived inputs written by run.py (see inputs.py). */
struct Plan
{
    /** server_fleet: one letter per session (S stack, P Periodic,
     *  R Ragdoll). */
    std::string kinds;
    /** server_fleet: session indices whose delta streams are served. */
    std::vector<std::size_t> streams;
    /** fig_replay: execution order of the sweep points. */
    std::vector<std::size_t> order;
};

Plan
readPlan(const std::string &path)
{
    Plan plan;
    if (path.empty())
        return plan;
    std::ifstream in(path);
    if (!in)
        refuse("cannot read plan " + path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream words(line);
        std::string key;
        words >> key;
        std::size_t v;
        if (key == "kinds")
            words >> plan.kinds;
        else if (key == "streams")
            while (words >> v)
                plan.streams.push_back(v);
        else if (key == "order")
            while (words >> v)
                plan.order.push_back(v);
    }
    return plan;
}

/** Set-ups per run: setup_s is their median. */
constexpr int setupRepeats = 5;

/** Worker threads of every measured scheduler (4 lanes). */
constexpr unsigned benchWorkers = 3;

const char *
backendName(SimdBackend b)
{
    return b == SimdBackend::Native ? "native" : "scalar";
}

/**
 * Refuse to measure a workload whose kernel backend resolved to a
 * different one than it pins (PAX_SIMD override, or a host that
 * degrades Native to Scalar): those runs measure another workload.
 */
void
pinBackend(const World &world, SimdBackend wanted, Record &record)
{
    const KernelBackend &resolved = world.kernelBackend();
    if (resolved.kind() != wanted) {
        refuse(std::string("kernel backend resolved to ") +
               resolved.name() + ", workload pins " +
               backendName(wanted) +
               " (PAX_SIMD override or unsupported host)");
    }
    record.host["backend"] = resolved.name();
    record.host["backend_requested"] = backendName(wanted);
}

/** Operation times (ms) of one repetition and its slowest unit. */
struct Timed
{
    std::vector<double> opMs;
    double worstMs = 0;
};

/** Repetition whose slowest unit is its slowest operation. */
Timed
timedOps(std::vector<double> opMs)
{
    Timed timed;
    if (!opMs.empty())
        timed.worstMs = *std::max_element(opMs.begin(), opMs.end());
    timed.opMs = std::move(opMs);
    return timed;
}

/**
 * Run repetitions until the time budget is spent. `warmup` untimed
 * repetitions come first (allocator, caches and cost models settle;
 * their outputs are still checked). Traced runs alternate untraced
 * and traced repetitions, so one run measures the tracing overhead.
 * `repetition(counters)` runs one repetition, folds its layer
 * counters into `counters` and returns its Timed operations.
 */
template <typename Repetition>
void
measure(const Options &options, int warmup, Record &record,
        Repetition &&repetition)
{
    tracer.setEnabled(false);
    for (int i = 0; i < warmup; ++i) {
        Counters discarded;
        repetition(discarded);
    }
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
    for (int i = 0; nowNs() < deadline; ++i) {
        tracer.setEnabled(options.trace && i % 2 == 1);
        const Timed timed = repetition(record.counters);
        double total = 0;
        for (double ms : timed.opMs) {
            record.opMs.push_back(ms);
            total += ms;
        }
        record.repMs.push_back(total);
        record.repWorstMs.push_back(timed.worstMs);
        record.repTraced.push_back(tracer.enabled() ? 1.0 : 0.0);
    }
    tracer.setEnabled(options.trace);
}

// --- Physics counters --------------------------------------------------

/** Fold one step's StepStats into the named sums. */
void
accumulateStep(Counters &c, const StepStats &s)
{
    c["steps"] += 1;
    c["phase.broadphase_s"] += s.seconds(PipelinePhase::Broadphase);
    c["phase.narrowphase_s"] += s.seconds(PipelinePhase::Narrowphase);
    c["phase.island_creation_s"] +=
        s.seconds(PipelinePhase::IslandCreation);
    c["phase.island_processing_s"] +=
        s.seconds(PipelinePhase::IslandProcessing);
    c["phase.cloth_s"] += s.seconds(PipelinePhase::Cloth);
    c["broadphase.pairs"] += s.broadphase.pairsFound;
    c["narrowphase.pairs_tested"] += s.narrowphase.pairsTested;
    c["solver.row_iterations"] += s.solver.rowIterations;
    c["cloth.relaxations"] += s.cloth.constraintRelaxations;
    KernelStats k = s.narrowphase.kernels;
    k.merge(s.solver.kernels);
    k.merge(s.cloth.kernels);
    c["kernels.rows_vectorized"] += k.rowsVectorized;
    c["kernels.remainder_rows"] += k.remainderRows;
    c["kernels.contact_units"] += s.solver.kernels.contactUnits;
    c["scheduler.chunks"] += s.parTasksExecuted;
    c["scheduler.steals"] += s.parTasksStolen;
    c["arena.growths"] += s.arenaGrowths;
    // Lane imbalance of this step: busiest lane's chunks over the
    // mean (1 = perfectly even).
    double total = 0;
    double busiest = 0;
    for (const LaneStats &lane : s.laneTasks) {
        total += lane.chunksExecuted;
        busiest = std::max(busiest, double(lane.chunksExecuted));
    }
    if (total > 0) {
        c["scheduler.imbalance_sum"] +=
            busiest * s.laneTasks.size() / total;
        c["scheduler.imbalance_steps"] += 1;
    }
}

// --- World workloads (mix_native, explosions_lockstep) -----------------

struct WorldSpec
{
    BenchmarkId scene;
    SimdBackend backend;
    bool deterministic;
    /** Check against the serial reference hash (lockstep users);
     *  otherwise check invariants and finiteness. */
    bool lockstep;
};

/** The paper's protocol: 4 warm-up frames, then frames 5-7. */
constexpr int warmupSteps = 12;
constexpr int windowFrames = 3;
constexpr int stepsPerFrame = 3;

WorldConfig
worldConfig(const WorldSpec &spec, unsigned workers)
{
    WorldConfig config;
    config.workerThreads = workers;
    config.simdBackend = spec.backend;
    config.deterministic = spec.deterministic;
    return config;
}

/**
 * One repetition: rebuild the scene, restore the post-warm-up
 * snapshot and time frames 5-7 (restoring into the world that just
 * ran the window fails: the window spawns blast volumes), then check
 * the result outside the timed frames.
 */
std::vector<double>
replayWindow(const WorldSpec &spec, unsigned workers,
             const std::vector<std::uint8_t> &snapshot,
             std::uint64_t reference, Record &record,
             Counters &counters)
{
    ScopedSpan repetition("repetition");
    std::vector<double> frameMs;
    std::unique_ptr<World> world;
    {
        ScopedSpan span("rebuild_restore");
        {
            ScopedSpan build("buildBenchmark");
            world =
                buildBenchmark(spec.scene, worldConfig(spec, workers));
        }
        Status st;
        {
            ScopedSpan restore("restoreState");
            st = world->restoreState(snapshot);
        }
        record.check(st.ok(), "restoreState: " + st.toString());
        if (!st.ok())
            return frameMs;
    }
    for (int f = 0; f < windowFrames; ++f) {
        ScopedSpan frame("frame");
        const std::int64_t t0 = nowNs();
        for (int s = 0; s < stepsPerFrame; ++s) {
            {
                ScopedSpan step("World::step");
                world->step();
            }
            accumulateStep(counters, world->lastStepStats());
        }
        frameMs.push_back(msBetween(t0, nowNs()));
    }
    counters["work_units"] += windowFrames * stepsPerFrame;

    ScopedSpan check("check");
    if (spec.lockstep) {
        const std::uint64_t h = worldStateHash(*world);
        record.check(h == reference, "lockstep hash " + hex64(h) +
                                         " != serial reference " +
                                         hex64(reference));
    } else {
        const auto violations = checkWorldInvariants(*world);
        record.check(violations.empty(),
                     violations.empty()
                         ? std::string()
                         : "invariant " + violations.front().code);
        record.check(worldStateFinite(*world), "non-finite world state");
    }
    return frameMs;
}

void
runWorldWorkload(const WorldSpec &spec, const Options &options,
                 Record &record)
{
    // Set-up: build, warm up 4 frames, capture the snapshot every
    // repetition restores.
    std::vector<std::uint8_t> snapshot;
    for (int i = 0; i < setupRepeats; ++i) {
        ScopedSpan setup("setup");
        const std::int64_t t0 = nowNs();
        std::unique_ptr<World> world;
        {
            ScopedSpan build("buildBenchmark");
            world = buildBenchmark(spec.scene,
                                   worldConfig(spec, benchWorkers));
        }
        pinBackend(*world, spec.backend, record);
        for (int s = 0; s < warmupSteps; ++s) {
            ScopedSpan step("World::step");
            world->step();
        }
        {
            ScopedSpan capture("captureState");
            snapshot = world->captureState();
        }
        record.setupSeconds.push_back((nowNs() - t0) * 1e-9);
    }

    // Lockstep users need the multi-lane window to reproduce the
    // serial one bitwise: its hash is the reference every window is
    // checked against.
    std::uint64_t reference = 0;
    if (spec.lockstep) {
        auto world = buildBenchmark(spec.scene, worldConfig(spec, 0));
        if (!world->restoreState(snapshot).ok())
            refuse("serial reference window failed to restore");
        for (int s = 0; s < windowFrames * stepsPerFrame; ++s)
            world->step();
        reference = worldStateHash(*world);
        record.digest = hex64(reference);
    }

    measure(options, 3, record, [&](Counters &counters) {
        return timedOps(replayWindow(spec, benchWorkers, snapshot,
                                     reference, record, counters));
    });

    // Traced runs replay the window on one lane too, for the
    // per-phase speedup against serial.
    if (options.trace) {
        for (int rep = 0; rep < 3; ++rep)
            replayWindow(spec, 0, snapshot, reference, record,
                         record.serial);
    }
}

// --- server_fleet ------------------------------------------------------

constexpr double tickDt = 0.01;
/** Updates run at set-up so the stacks fall asleep before timing. */
constexpr int settleUpdates = 80;
/** Checkpoint cadence; one checkpoint cycle is one repetition. */
constexpr int checkpointTicks = 20;

WorldConfig
sessionConfig()
{
    WorldConfig config;
    config.dt = tickDt;
    config.deterministic = true;
    config.autoDisable = true;
    config.arenaBlockBytes = 8 * 1024;
    return config;
}

/** Ground plane plus a 3-sphere stack, offset per session. */
void
populateStack(World &world, std::size_t index)
{
    const SphereShape *sphere = world.addSphere(0.5);
    const PlaneShape *plane = world.addPlane(Vec3{0.0, 1.0, 0.0}, 0.0);
    RigidBody *ground =
        world.createStaticBody(Transform(Quat(), Vec3{0, 0, 0}));
    world.createGeom(plane, ground);
    const double dx = 0.001 * static_cast<double>(index % 97);
    for (int i = 0; i < 3; ++i) {
        RigidBody *body = world.createDynamicBody(
            Transform(Quat(), Vec3{dx, 0.6 + 1.05 * i, 0.0}), *sphere,
            1.0);
        world.createGeom(sphere, body);
    }
}

/** One client delta stream: the last full blob it reconstructed. */
struct Stream
{
    std::size_t session;
    std::vector<std::uint8_t> base;
    std::vector<std::uint8_t> blob;
};

struct Fleet
{
    std::unique_ptr<Server> server;
    std::vector<WorldId> ids;
    /** Hosted worlds in session order (valid while hosted). */
    std::vector<const World *> worlds;
    std::vector<Stream> streams;
};

/** Host the plan's sessions and let the stacks fall asleep. */
Fleet
buildFleet(const Plan &plan, unsigned workers, Record &record)
{
    ServerConfig sc;
    sc.workerThreads = workers;
    sc.tickDt = tickDt;
    sc.checkpointIntervalTicks = checkpointTicks;
    Fleet fleet;
    fleet.server = std::make_unique<Server>(sc);
    for (std::size_t i = 0; i < plan.kinds.size(); ++i) {
        WorldId id = invalidWorldId;
        Status st;
        if (plan.kinds[i] == 'S') {
            st = fleet.server->createWorld(sessionConfig(), id);
            if (st.ok())
                populateStack(*fleet.server->world(id), i);
        } else {
            const BenchmarkId scene = plan.kinds[i] == 'P'
                                          ? BenchmarkId::Periodic
                                          : BenchmarkId::Ragdoll;
            ScopedSpan build("buildBenchmark");
            st = fleet.server->adoptWorld(
                buildBenchmark(scene, sessionConfig(), 0.05), id);
        }
        if (!st.ok())
            refuse("fleet session " + std::to_string(i) + ": " +
                   st.toString());
        fleet.ids.push_back(id);
        fleet.worlds.push_back(fleet.server->world(id));
    }
    for (std::size_t s : plan.streams) {
        if (s >= fleet.ids.size())
            refuse("stream session out of range");
        fleet.streams.push_back({s, {}, {}});
    }
    pinBackend(*fleet.worlds.front(), SimdBackend::Scalar, record);
    for (int u = 0; u < settleUpdates; ++u) {
        const Status st = fleet.server->advance(tickDt);
        if (!st.ok())
            refuse("fleet settle: " + st.toString());
    }
    return fleet;
}

std::uint64_t
fleetDigest(const Fleet &fleet)
{
    Digest d;
    for (const World *w : fleet.worlds)
        d.add(worldStateHash(*w));
    return d.h;
}

/**
 * One checkpoint cycle of closed-loop updates. Each update advances
 * one tick and serves every client stream (the timed operation);
 * each client then applies its delta, which must rebuild exactly
 * the bytes of the server's full snapshot.
 */
std::vector<double>
runCheckpointCycle(Fleet &fleet, Record &record, Counters &counters)
{
    ScopedSpan cycle("checkpoint_cycle");
    Server &server = *fleet.server;
    std::vector<double> updateMs;
    std::vector<std::uint8_t> rebuilt;
    std::vector<std::uint8_t> full;
    std::vector<Status> served(fleet.streams.size());
    for (int u = 0; u < checkpointTicks; ++u) {
        const ServerStats before = server.stats();
        const std::uint64_t steals0 = server.scheduler().tasksStolen();
        Status advanced;
        const std::int64_t t0 = nowNs();
        {
            ScopedSpan update("update");
            {
                ScopedSpan advance("Server::advance");
                advanced = server.advance(tickDt);
            }
            for (std::size_t s = 0; s < fleet.streams.size(); ++s) {
                Stream &stream = fleet.streams[s];
                ScopedSpan serve("streamSnapshot");
                served[s] = server.streamSnapshot(
                    fleet.ids[stream.session],
                    stream.base.empty() ? nullptr : &stream.base,
                    stream.blob);
            }
        }
        const std::int64_t t1 = nowNs();
        updateMs.push_back(msBetween(t0, t1));
        record.check(advanced.ok(), "advance: " + advanced.toString());

        ScopedSpan client("client");
        for (std::size_t s = 0; s < fleet.streams.size(); ++s) {
            Stream &stream = fleet.streams[s];
            if (!served[s].ok()) {
                record.check(false,
                             "streamSnapshot: " + served[s].toString());
                continue;
            }
            const bool delta = isSnapshotDelta(stream.blob);
            Status st;
            {
                ScopedSpan apply("applySnapshotDelta");
                if (delta)
                    st = applySnapshotDelta(stream.base, stream.blob,
                                            rebuilt);
                else
                    rebuilt = stream.blob;
            }
            {
                ScopedSpan capture("Server::snapshotWorld");
                server.snapshotWorld(fleet.ids[stream.session], full);
            }
            record.check(st.ok() && rebuilt == full,
                         "stream of session " +
                             std::to_string(stream.session) +
                             " does not reconstruct: " + st.toString());
            if (delta) {
                counters["snapshot.deltas"] += 1;
                counters["snapshot.delta_bytes"] += stream.blob.size();
                counters["snapshot.full_bytes"] += full.size();
            }
            stream.base.swap(rebuilt);
        }

        // Layer counters of this update, read after the timed span.
        double work = 0;
        for (const World *w : fleet.worlds)
            work += w->lastStepStats().totalSeconds();
        const ServerStats &after = server.stats();
        counters["updates"] += 1;
        counters["update_s"] += (t1 - t0) * 1e-9;
        counters["work_units"] += after.ticksRun - before.ticksRun;
        counters["server.tick_work_s"] += work;
        counters["server.checkpoints"] +=
            after.checkpoints - before.checkpoints;
        counters["server.steals"] +=
            server.scheduler().tasksStolen() - steals0;
        counters["server.lanes"] = server.scheduler().laneCount();
    }
    return updateMs;
}

void
runFleetWorkload(const Plan &plan, const Options &options,
                 Record &record)
{
    if (plan.kinds.empty() || plan.streams.empty())
        refuse("server_fleet needs a plan with kinds and streams");
    Fleet fleet;
    std::uint64_t digest = 0;
    for (int i = 0; i < setupRepeats; ++i) {
        fleet = Fleet(); // Free the previous fleet first.
        ScopedSpan setup("setup");
        const std::int64_t t0 = nowNs();
        fleet = buildFleet(plan, benchWorkers, record);
        record.setupSeconds.push_back((nowNs() - t0) * 1e-9);
        // Hosted worlds are deterministic and lane-independent, so
        // every set-up must settle to the same fleet state.
        const std::uint64_t d = fleetDigest(fleet);
        if (i == 0)
            digest = d;
        record.check(d == digest, "fleet digest " + hex64(d) +
                                      " differs between set-ups");
    }
    record.digest = hex64(digest);

    measure(options, 1, record, [&](Counters &counters) {
        return timedOps(runCheckpointCycle(fleet, record, counters));
    });

    // Traced runs host the same fleet on one lane, for the update
    // speedup against serial and the digest across worker counts.
    if (options.trace) {
        fleet = Fleet();
        Fleet serial = buildFleet(plan, 0, record);
        const std::uint64_t d = fleetDigest(serial);
        record.check(d == digest, "serial fleet digest " + hex64(d) +
                                      " != " + hex64(digest));
        for (int rep = 0; rep < 3; ++rep)
            runCheckpointCycle(serial, record, record.serial);
    }
}

// --- fig_replay --------------------------------------------------------

/** Memory traces and op profiles of Mix frames 5-7. */
struct FigTraces
{
    std::vector<StepProfile> profiles;
    /** traces[m][s]: thread model m, step s. */
    std::vector<StepTrace> traces[2];
    int worstFrameStart = 0;
    /** worldStateHash after frame 7 of the traced (4-lane) run. */
    std::uint64_t stateHash = 0;
};

/** Thread models the traces are generated for (Figure 5b ends). */
constexpr unsigned threadModels[2] = {1, 4};

/** A fixed-tiling Mix scene with the Native kernels on `workers`
 *  lanes: bitwise identical for any worker count. */
std::unique_ptr<World>
lockstepMix(unsigned workers)
{
    WorldConfig config;
    config.workerThreads = workers;
    config.deterministic = true;
    config.simdBackend = SimdBackend::Native;
    ScopedSpan span("buildBenchmark");
    return buildBenchmark(BenchmarkId::Mix, config);
}

void
buildFigTraces(FigTraces &out, Record &record)
{
    std::unique_ptr<World> world = lockstepMix(benchWorkers);
    pinBackend(*world, SimdBackend::Native, record);
    for (int s = 0; s < warmupSteps; ++s) {
        ScopedSpan span("World::step");
        world->step();
    }
    std::vector<TraceGenerator> generators;
    for (unsigned threads : threadModels) {
        TraceOptions options;
        options.threads = threads;
        options.kernelBytesPerThread = kernelFootprintForThreads(threads);
        generators.emplace_back(options);
    }
    for (int s = 0; s < windowFrames * stepsPerFrame; ++s) {
        {
            ScopedSpan span("World::step");
            world->step();
        }
        accumulateStep(record.counters, world->lastStepStats());
        out.profiles.push_back(Instrumentation::profileStep(*world));
        ScopedSpan span("TraceGenerator::generate");
        for (int m = 0; m < 2; ++m)
            out.traces[m].push_back(generators[m].generate(*world));
    }
    out.stateHash = worldStateHash(*world);
    // The paper keeps the worst frame (by operation count).
    double best = -1;
    for (int f = 0; f < windowFrames; ++f) {
        double ops = 0;
        for (int s = 0; s < stepsPerFrame; ++s)
            ops += out.profiles[f * stepsPerFrame + s].totalOps();
        if (ops > best) {
            best = ops;
            out.worstFrameStart = f * stepsPerFrame;
        }
    }
}

struct SweepPoint
{
    L2Plan plan;
    int model; // Index into threadModels.
};

/** Shared L2 of 1-32 MB plus the paper's partitioning, per model. */
std::vector<SweepPoint>
sweepPoints()
{
    std::vector<SweepPoint> points;
    for (int m = 0; m < 2; ++m) {
        for (int mb = 1; mb <= 32; mb *= 2)
            points.push_back({L2Plan::shared(mb), m});
        points.push_back({L2Plan::paperPartitioned(), m});
    }
    return points;
}

/** Result and lane timestamps of one sweep point. */
struct PointResult
{
    PhaseMemStats mem;
    double frameSeconds = 0;
    std::int64_t start = 0;
    std::int64_t replayed = 0;
    std::int64_t end = 0;
};

/**
 * One sweep point: replay the traces through the hierarchy (the
 * first frame warms the caches, frames 6-7 are measured) and turn
 * the worst frame into a simulated frame time with the CG timing
 * model, as the figure benches do (bench/harness.cc frameTime).
 */
void
runPoint(const FigTraces &fig, const SweepPoint &point,
         PointResult &out)
{
    out.start = nowNs();
    const unsigned threads = threadModels[point.model];
    HierarchyConfig config;
    config.plan = point.plan;
    config.threads = threads;
    MemoryHierarchy hierarchy(config);
    const auto &traces = fig.traces[point.model];
    for (std::size_t s = 0; s < traces.size(); ++s) {
        if (static_cast<int>(s) == stepsPerFrame)
            hierarchy.resetStats();
        hierarchy.replayStep(traces[s]);
    }
    out.mem = hierarchy.totalStats();
    out.replayed = nowNs();

    // Per-step share of the measured replay counters.
    const double perStep =
        1.0 / static_cast<double>(traces.size() - stepsPerFrame);
    auto scale = [perStep](std::uint64_t &v) {
        v = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(v) * perStep));
    };
    const CgTimingModel timing;
    double total = 0;
    for (int s = 0; s < stepsPerFrame; ++s) {
        const StepProfile &step = fig.profiles[fig.worstFrameStart + s];
        for (int p = 0; p < numPhases; ++p) {
            const Phase phase = static_cast<Phase>(p);
            PhaseMemStats mem = hierarchy.phaseStats(phase);
            scale(mem.refs);
            scale(mem.l1Hits);
            scale(mem.l2Hits);
            scale(mem.l2Misses);
            scale(mem.kernelL2Misses);
            scale(mem.userL2Misses);
            scale(mem.invalidations);
            scale(mem.cycles);
            std::vector<double> weights;
            std::int64_t dispatches = -1;
            if (phase == Phase::Narrowphase) {
                weights.assign(std::max<std::uint64_t>(1, step.pairTasks),
                               1.0);
                dispatches = threads;
            } else if (phase == Phase::IslandProcessing) {
                weights.assign(step.islandRows.begin(),
                               step.islandRows.end());
            } else if (phase == Phase::Cloth) {
                weights.assign(step.clothVertices.begin(),
                               step.clothVertices.end());
            }
            total += timing
                         .parallelPhaseTime(phase, step.ops(phase), mem,
                                            threads, weights, dispatches)
                         .total();
        }
    }
    out.frameSeconds = total;
    out.end = nowNs();
}

void
runFigWorkload(const Plan &plan, const Options &options, Record &record)
{
    const std::vector<SweepPoint> points = sweepPoints();
    const std::vector<std::size_t> &order = plan.order;
    std::vector<std::size_t> identity(points.size());
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    if (!std::is_permutation(order.begin(), order.end(),
                             identity.begin(), identity.end()))
        refuse("fig_replay needs a plan order permuting " +
               std::to_string(points.size()) + " points");

    FigTraces fig;
    for (int i = 0; i < setupRepeats; ++i) {
        fig = FigTraces(); // Free the previous traces first.
        ScopedSpan setup("setup");
        const std::int64_t t0 = nowNs();
        buildFigTraces(fig, record);
        record.setupSeconds.push_back((nowNs() - t0) * 1e-9);
    }

    // The traces come from a fixed-tiling run on 4 lanes, which must
    // reproduce the serial trajectory bitwise (lockstep users). The
    // serial window is also the physics layers' 0-worker reference.
    {
        std::unique_ptr<World> serial = lockstepMix(0);
        for (int s = 0; s < warmupSteps; ++s)
            serial->step();
        for (int s = 0; s < windowFrames * stepsPerFrame; ++s) {
            serial->step();
            accumulateStep(record.serial, serial->lastStepStats());
        }
        const std::uint64_t reference = worldStateHash(*serial);
        record.check(fig.stateHash == reference,
                     "lockstep Mix hash " + hex64(fig.stateHash) +
                         " != serial reference " + hex64(reference));
    }

    SchedulerConfig sc;
    sc.workerThreads = benchWorkers;
    sc.grainSize = 1;
    sc.deterministic = true; // One sweep point per chunk.
    TaskScheduler scheduler(sc);
    record.counters["sweep.lanes"] = scheduler.laneCount();

    // References one sweep replays (every step, warm-up frame too).
    double refsPerSweep = 0;
    for (const SweepPoint &point : points) {
        for (const StepTrace &trace : fig.traces[point.model])
            refsPerSweep += static_cast<double>(trace.totalRefs());
    }

    std::vector<PointResult> results(points.size());
    bool haveReference = false;
    std::uint64_t reference = 0;
    measure(options, 1, record, [&](Counters &counters) {
        const std::int64_t sweep = tracer.begin("sweep");
        const std::int64_t t0 = nowNs();
        scheduler.parallelFor(
            order.size(), 1,
            [&](std::size_t begin, std::size_t end, unsigned) {
                for (std::size_t i = begin; i < end; ++i)
                    runPoint(fig, points[order[i]], results[order[i]]);
            });
        const double ms = msBetween(t0, nowNs());
        tracer.end(sweep);

        // Per-point spans from the lanes' timestamps, and the
        // simulated-stats digest in point order.
        Digest digest;
        Timed timed{{ms}, 0.0};
        for (const PointResult &r : results) {
            timed.worstMs =
                std::max(timed.worstMs, msBetween(r.start, r.end));
            const std::int64_t id =
                tracer.add("sweep_point", r.start, r.end, sweep);
            tracer.add("MemoryHierarchy::replayStep", r.start,
                       r.replayed, id);
            tracer.add("CgTimingModel::parallelPhaseTime", r.replayed,
                       r.end, id);
            digest.add(r.mem.refs);
            digest.add(r.mem.l1Hits);
            digest.add(r.mem.l2Hits);
            digest.add(r.mem.l2Misses);
            digest.add(r.mem.invalidations);
            digest.add(static_cast<std::uint64_t>(r.mem.cycles));
            digest.add(r.frameSeconds);
            counters["mem.l2_hits"] += r.mem.l2Hits;
            counters["mem.l2_misses"] += r.mem.l2Misses;
        }
        if (!haveReference) {
            haveReference = true;
            reference = digest.h;
        }
        record.check(digest.h == reference,
                     "sweep digest " + hex64(digest.h) + " != " +
                         hex64(reference));
        counters["work_units"] += points.size();
        counters["mem.refs_replayed"] += refsPerSweep;
        return timed;
    });
    record.digest = hex64(reference);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    if (argc < 2)
        refuse("usage: paxbench_driver WORKLOAD --seconds S --trace 0|1 "
               "--out FILE [--plan FILE]");
    options.workload = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--seconds")
            options.seconds = std::atof(value.c_str());
        else if (key == "--trace")
            options.trace = value == "1";
        else if (key == "--plan")
            options.planPath = value;
        else if (key == "--out")
            options.outPath = value;
        else
            refuse("unknown argument " + key);
    }
    if (options.outPath.empty() || !(options.seconds > 0))
        refuse("--out and a positive --seconds are required");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    const Plan plan = readPlan(options.planPath);

    Record record;
    record.host["cpus"] =
        std::to_string(std::thread::hardware_concurrency());
    record.host["lanes"] = std::to_string(benchWorkers + 1);
    record.host["compiler"] = PAXBENCH_COMPILER;
    record.host["build_type"] = PAXBENCH_BUILD_TYPE;
    tracer.setEnabled(options.trace);

    if (options.workload == "mix_native") {
        runWorldWorkload({BenchmarkId::Mix, SimdBackend::Native, false,
                          false},
                         options, record);
    } else if (options.workload == "explosions_lockstep") {
        runWorldWorkload({BenchmarkId::Explosions, SimdBackend::Scalar,
                          true, true},
                         options, record);
    } else if (options.workload == "server_fleet") {
        runFleetWorkload(plan, options, record);
    } else if (options.workload == "fig_replay") {
        runFigWorkload(plan, options, record);
    } else {
        refuse("unknown workload " + options.workload);
    }
    record.peakRssMb = peakRssMb();

    std::ofstream out(options.outPath, std::ios::binary);
    out << record.json();
    if (!out)
        refuse("cannot write " + options.outPath);
    return 0;
}
