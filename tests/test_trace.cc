/**
 * @file
 * Tests for the observability layer (physics/trace/): per-phase span
 * coverage and nesting at several worker counts, the "disabled
 * tracing is free" bitwise guarantee, Chrome trace JSON shape
 * (checked against a golden normalized event sequence), and the
 * stable per-step metrics line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "parallax.hh"

#ifndef PAX_TESTS_DIR
#define PAX_TESTS_DIR "."
#endif

namespace parallax
{
namespace
{

/** Deterministic mini-scene: ground plane, a 3-box stack and a small
 *  cloth sheet, so every pipeline phase has real work (pairs,
 *  contacts, islands, cloth vertices). */
void
buildScene(World &world)
{
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    for (int i = 0; i < 3; ++i) {
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(), {0, 0.5 + i * 1.0, 0}), *box, 100.0);
        world.createGeom(box, b);
    }
    world.createCloth(4, 4, {3.0, 2.0, 0.0}, 0.25, 1.0);
}

WorldConfig
tracedConfig(unsigned workers)
{
    WorldConfig config;
    config.workerThreads = workers;
    config.deterministic = true;
    config.tracing = true;
    // Narrowphase tiles (and their chunk spans) need pairs >= two
    // grains; the mini-scene has a handful of pairs, so shrink the
    // grain rather than inflate the scene.
    config.grainSize = 1;
    return config;
}

/** Spans grouped per lane, in record order. */
std::map<unsigned, std::vector<TraceEvent>>
spansByLane(const TraceCollector &trace)
{
    std::map<unsigned, std::vector<TraceEvent>> lanes;
    for (const TraceEvent &e : trace.events()) {
        if (e.type == TraceEvent::Type::Span)
            lanes[e.lane].push_back(e);
    }
    return lanes;
}

TEST(Trace, EveryPhaseSpansEveryStep)
{
    for (unsigned workers : {0u, 2u, 8u}) {
        World world(tracedConfig(workers));
        buildScene(world);
        const int steps = 5;
        for (int i = 0; i < steps; ++i)
            world.step();

        std::map<std::string, int> count;
        for (const TraceEvent &e : world.trace().events()) {
            if (e.type == TraceEvent::Type::Span)
                ++count[e.name];
        }
        EXPECT_EQ(count["step"], steps) << "workers=" << workers;
        for (int p = 0; p < numPipelinePhases; ++p) {
            const char *name =
                pipelinePhaseName(static_cast<PipelinePhase>(p));
            EXPECT_EQ(count[name], steps)
                << "phase " << name << " workers=" << workers;
        }
        EXPECT_GT(count["island_solve"], 0) << "workers=" << workers;
        EXPECT_GT(count["cloth_step"], 0) << "workers=" << workers;
        EXPECT_EQ(world.trace().droppedEvents(), 0u);
    }
}

TEST(Trace, SpansNestWithinEachLane)
{
    // Two spans on one lane must be nested or disjoint — anything
    // else means a scope closed across a phase barrier or a worker
    // wrote into another lane's buffer.
    for (unsigned workers : {0u, 2u, 8u}) {
        World world(tracedConfig(workers));
        buildScene(world);
        for (int i = 0; i < 5; ++i)
            world.step();

        for (auto &[lane, spans] : spansByLane(world.trace())) {
            std::stable_sort(
                spans.begin(), spans.end(),
                [](const TraceEvent &a, const TraceEvent &b) {
                    if (a.ts != b.ts)
                        return a.ts < b.ts;
                    return a.dur > b.dur; // Parent first.
                });
            std::vector<TraceEvent> stack;
            for (const TraceEvent &e : spans) {
                while (!stack.empty() &&
                       e.ts >= stack.back().ts + stack.back().dur)
                    stack.pop_back();
                if (!stack.empty()) {
                    EXPECT_LE(e.ts + e.dur,
                              stack.back().ts + stack.back().dur +
                                  1e-3)
                        << "span '" << e.name << "' overlaps '"
                        << stack.back().name << "' on lane " << lane
                        << " (workers=" << workers << ")";
                }
                stack.push_back(e);
            }
        }
    }
}

TEST(Trace, WorkerLanesOnlyCarryLeafSpans)
{
    // Phase and step spans are main-thread constructs; worker lanes
    // must only ever see the stealable units.
    World world(tracedConfig(2));
    buildScene(world);
    for (int i = 0; i < 5; ++i)
        world.step();
    for (const TraceEvent &e : world.trace().events()) {
        if (e.lane == 0)
            continue;
        const std::string name = e.name;
        EXPECT_TRUE(name == "island_solve" ||
                    name == "cloth_step" ||
                    name == "narrowphase_chunk" ||
                    name == "broadphase_prefetch")
            << "unexpected span '" << name << "' on lane " << e.lane;
    }
}

TEST(Trace, DisabledTracingIsBitwiseIdentical)
{
    // The acceptance bar for "off costs one branch": the full world
    // state after N steps is byte-for-byte the same with tracing off
    // and on (tracing reads the clock but never the simulation), and
    // a world with tracing off records nothing.
    WorldConfig off = tracedConfig(2);
    off.tracing = false;
    World world_off(off);
    World world_on(tracedConfig(2));
    buildScene(world_off);
    buildScene(world_on);
    for (int i = 0; i < 30; ++i) {
        world_off.step();
        world_on.step();
    }
    EXPECT_TRUE(world_off.captureState() == world_on.captureState());
    EXPECT_FALSE(world_off.trace().enabled());
    EXPECT_TRUE(world_off.trace().events().empty());
    EXPECT_EQ(world_off.writeTrace("/tmp/unused.json").code(),
              StatusCode::FailedPrecondition);
}

namespace
{

/** Minimal structural validator: balanced {}/[] outside strings. */
bool
jsonBalanced(const std::string &text)
{
    std::vector<char> stack;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': case '[': stack.push_back(c); break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return stack.empty() && !in_string;
}

} // namespace

TEST(Trace, ChromeJsonIsWellFormed)
{
    World world(tracedConfig(2));
    buildScene(world);
    for (int i = 0; i < 5; ++i)
        world.step();
    const std::string json = world.trace().toChromeJson();
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    for (int p = 0; p < numPipelinePhases; ++p) {
        EXPECT_NE(json.find(pipelinePhaseName(
                      static_cast<PipelinePhase>(p))),
                  std::string::npos);
    }

    // writeTrace round-trips the same text through a file.
    const char *path = "/tmp/pax_test_trace.json";
    EXPECT_TRUE(world.writeTrace(path).ok());
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), json);
    std::remove(path);
}

TEST(Trace, GoldenNormalizedEventSequence)
{
    // The serial mini-scene's event *sequence* (names, steps, ids,
    // counter values — not timestamps) is a pure function of the
    // simulation, so it is pinned as a golden file. Regenerate with
    //   PAX_UPDATE_GOLDEN=1 ./build/tests/test_trace
    World world(tracedConfig(0));
    buildScene(world);
    for (int i = 0; i < 8; ++i)
        world.step();

    std::string normalized;
    for (const TraceEvent &e : world.trace().events()) {
        char line[128];
        switch (e.type) {
          case TraceEvent::Type::Span:
            std::snprintf(line, sizeof(line), "S %s step=%llu id=%lld\n",
                          e.name,
                          static_cast<unsigned long long>(e.step),
                          static_cast<long long>(e.id));
            break;
          case TraceEvent::Type::Counter:
            std::snprintf(line, sizeof(line),
                          "C %s step=%llu id=%lld value=%.0f\n",
                          e.name,
                          static_cast<unsigned long long>(e.step),
                          static_cast<long long>(e.id), e.value);
            break;
          case TraceEvent::Type::Instant:
            std::snprintf(line, sizeof(line), "I %s step=%llu id=%lld\n",
                          e.name,
                          static_cast<unsigned long long>(e.step),
                          static_cast<long long>(e.id));
            break;
        }
        normalized += line;
    }

    const std::string golden_path =
        std::string(PAX_TESTS_DIR) + "/golden/trace_mini.golden";
    if (std::getenv("PAX_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        out << normalized;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), normalized)
        << "normalized trace diverged from " << golden_path
        << " — if the pipeline intentionally changed, regenerate "
           "with PAX_UPDATE_GOLDEN=1";
}

TEST(Trace, MetricsLineStableAcrossWorkerCounts)
{
    // metricsLine() reports only deterministic simulation state, so
    // in deterministic mode the line is identical at any worker
    // count — the property that makes it diffable across runs.
    std::vector<std::string> lines;
    for (unsigned workers : {0u, 2u, 8u}) {
        World world(tracedConfig(workers));
        buildScene(world);
        for (int i = 0; i < 30; ++i)
            world.step();
        lines.push_back(world.metricsLine());
    }
    EXPECT_NE(lines[0].find("\"pax_metrics\":1"), std::string::npos);
    EXPECT_EQ(lines[0], lines[1]);
    EXPECT_EQ(lines[0], lines[2]);
}

TEST(Trace, MetricsRegistryCountersAndGauges)
{
    MetricsRegistry reg;
    reg.add("steps", 1);
    reg.add("steps", 2);
    reg.add("steps", -5); // Ignored: counters are monotonic.
    reg.set("rung", 3);
    reg.set("rung", 1);
    EXPECT_EQ(reg.value("steps"), 3.0);
    EXPECT_EQ(reg.value("rung"), 1.0);
    EXPECT_EQ(reg.value("never"), 0.0);
    // Registration order, single line.
    EXPECT_EQ(reg.toJson(), "{\"steps\":3,\"rung\":1}");
    reg.clear();
    EXPECT_TRUE(reg.entries().empty());
}

/** The server fleet's common session: a ground plane and a 3-sphere
 *  stack, in the hosted configuration. */
std::unique_ptr<World>
buildSphereStack()
{
    WorldConfig config;
    config.dt = 0.01;
    config.deterministic = true;
    config.autoDisable = true;
    auto world = std::make_unique<World>(config);
    const SphereShape *sphere = world->addSphere(0.5);
    const PlaneShape *plane = world->addPlane({0, 1, 0}, 0.0);
    world->createGeom(plane, world->createStaticBody(Transform()));
    for (int i = 0; i < 3; ++i) {
        RigidBody *body = world->createDynamicBody(
            Transform(Quat(), {0, 0.6 + 1.05 * i, 0}), *sphere, 1.0);
        world->createGeom(sphere, body);
    }
    return world;
}

/** The registry dump and the metrics line after `steps` steps. */
std::string
metricsAfter(World &world, int steps)
{
    for (int i = 0; i < steps; ++i)
        world.step();
    return world.metrics().toJson() + "\n" + world.metricsLine();
}

TEST(Trace, WorldMetricsMatchGolden)
{
    // Captured when every World::updateMetrics call was keyed by
    // name: resolving the keys to slots must keep every key, its
    // registration order and its value.
    WorldConfig mix_config;
    mix_config.deterministic = true;
    auto mix = buildBenchmark(BenchmarkId::Mix, mix_config, 0.05);
    EXPECT_EQ(metricsAfter(*mix, 30), R"({"steps":30,"pairs_found":42045,"contacts_created":90182,"contact_joints":88098,"joints_broken":1,"tasks_executed":300,"tasks_stolen":0,"governor_degradations":0,"governor_recoveries":0,"deadline_misses":0,"pairs_deferred":0,"faults_injected":0,"invariant_violations":0,"quarantine_events":0,"trace_events_dropped":0,"arena.growths":0,"solver.reuse":792,"kernel.rows_vectorized":0,"kernel.remainder_rows":0,"kernel.contact_units":0,"kernel.width":1,"arena.high_water_bytes":0,"governor_rung":0,"islands":29,"islands_asleep":0,"bodies_asleep":0,"bodies_quarantined":0,"workers":0}
{"pax_metrics":1,"step":29,"steps_total":30,"pairs":1894,"contacts":3163,"contact_joints":3163,"islands":29,"islands_asleep":0,"bodies_asleep":0,"joints_broken":1,"cloth_vertices":675,"governor_rung":0,"pairs_deferred":0,"faults_injected":0,"quarantine_events":0,"violations_total":0,"quarantines_total":0})");

    // The stack falls asleep within 100 steps; pin 30 steps past
    // that, where a step takes the sleeping path.
    auto stack = buildSphereStack();
    EXPECT_EQ(metricsAfter(*stack, 130), R"({"steps":130,"pairs_found":611,"contacts_created":337,"contact_joints":337,"joints_broken":0,"tasks_executed":260,"tasks_stolen":0,"governor_degradations":0,"governor_recoveries":0,"deadline_misses":0,"pairs_deferred":0,"faults_injected":0,"invariant_violations":0,"quarantine_events":0,"trace_events_dropped":0,"arena.growths":0,"solver.reuse":73,"kernel.rows_vectorized":0,"kernel.remainder_rows":0,"kernel.contact_units":0,"kernel.width":1,"arena.high_water_bytes":0,"governor_rung":0,"islands":1,"islands_asleep":1,"bodies_asleep":3,"bodies_quarantined":0,"workers":0}
{"pax_metrics":1,"step":129,"steps_total":130,"pairs":5,"contacts":3,"contact_joints":3,"islands":1,"islands_asleep":1,"bodies_asleep":3,"joints_broken":0,"cloth_vertices":0,"governor_rung":0,"pairs_deferred":0,"faults_injected":0,"quarantine_events":0,"violations_total":0,"quarantines_total":0})");
}

TEST(Trace, MetricSlotsShareEntriesWithNames)
{
    MetricsRegistry reg;
    reg.add("first", 1);
    const MetricsRegistry::Slot steps =
        reg.slot("steps", MetricsRegistry::Kind::Counter);
    const MetricsRegistry::Slot rung =
        reg.slot("rung", MetricsRegistry::Kind::Gauge);
    // The same name always resolves to the same slot, whichever
    // kind the caller asks for.
    EXPECT_EQ(reg.slot("steps", MetricsRegistry::Kind::Counter), steps);
    EXPECT_EQ(reg.slot("steps", MetricsRegistry::Kind::Gauge), steps);
    EXPECT_NE(steps, rung);
    EXPECT_EQ(reg.entries()[steps].kind,
              MetricsRegistry::Kind::Counter);
    EXPECT_EQ(reg.entries()[rung].kind, MetricsRegistry::Kind::Gauge);

    reg.add(steps, 2);
    reg.add("steps", 3);
    reg.add(steps, -5); // Ignored, as add(name) ignores it.
    reg.set(rung, 4);
    reg.set(rung, 2);
    EXPECT_EQ(reg.value(steps), 5.0);
    EXPECT_EQ(reg.value("steps"), 5.0);
    EXPECT_EQ(reg.value(rung), 2.0);
    // slot() registers in call order, exactly like add/set.
    EXPECT_EQ(reg.toJson(), "{\"first\":1,\"steps\":5,\"rung\":2}");

    // add(name) on an existing key resolves to the same entry.
    reg.add("first", 1);
    EXPECT_EQ(reg.value(reg.slot("first",
                                 MetricsRegistry::Kind::Counter)),
              2.0);
    EXPECT_EQ(reg.entries().size(), 3u);
}

TEST(Trace, WorldMetricsAccumulate)
{
    World world(tracedConfig(0));
    buildScene(world);
    for (int i = 0; i < 10; ++i)
        world.step();
    const MetricsRegistry &m = world.metrics();
    EXPECT_EQ(m.value("steps"), 10.0);
    EXPECT_GT(m.value("contacts_created"), 0.0);
    EXPECT_GE(m.value("pairs_found"), m.value("contacts_created") > 0
                                          ? 1.0 : 0.0);
    EXPECT_EQ(m.value("governor_rung"), 0.0);
    EXPECT_TRUE(jsonBalanced(m.toJson()));
    EXPECT_TRUE(jsonBalanced(world.metricsLine()));
}

TEST(Trace, DecorateTracePath)
{
    EXPECT_EQ(decorateTracePath("trace.json", "Mix_w2"),
              "trace_Mix_w2.json");
    EXPECT_EQ(decorateTracePath("a/b.json", "x"), "a/b_x.json");
    EXPECT_EQ(decorateTracePath("trace", "x"), "trace_x");
    EXPECT_EQ(decorateTracePath("a.b/c", "x"), "a.b/c_x");
    EXPECT_EQ(decorateTracePath("trace.json", ""), "trace.json");
}

} // namespace
} // namespace parallax
