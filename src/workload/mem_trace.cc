#include "mem_trace.hh"

#include <algorithm>
#include <unordered_map>

#include "sim/logging.hh"

namespace parallax
{

namespace record
{

std::uint64_t
jointBytes(JointType type)
{
    switch (type) {
      case JointType::Contact: return contactJointBytes;
      case JointType::Ball: return ballJointBytes;
      case JointType::Hinge: return hingeJointBytes;
      case JointType::Slider: return sliderJointBytes;
      case JointType::Fixed: return fixedJointBytes;
    }
    return contactJointBytes;
}

} // namespace record

namespace
{

constexpr std::uint64_t lineBytes = MemRef::lineBytes;

/** Touch every cache line of a record. */
void
touch(std::vector<MemRef> &out, std::uint64_t addr,
      std::uint64_t bytes, bool write, bool kernel = false)
{
    const std::uint64_t first = addr / lineBytes;
    const std::uint64_t last = (addr + bytes - 1) / lineBytes;
    for (std::uint64_t line = first; line <= last; ++line)
        out.push_back(MemRef::fromLine(line, write, kernel));
}

/** Touch only the first portion of a record (hot fields). */
void
touchHead(std::vector<MemRef> &out, std::uint64_t addr,
          std::uint64_t bytes, bool write)
{
    touch(out, addr, std::min<std::uint64_t>(bytes, lineBytes),
          write);
}

} // namespace

std::size_t
StepTrace::totalRefs() const
{
    std::size_t total = 0;
    for (const auto &refs : phase)
        total += refs.size();
    return total;
}

std::uint64_t
kernelFootprintForThreads(unsigned threads)
{
    // Solaris pmap in the paper: ~850 KB per worker at 2-4 threads,
    // jumping to ~5 MB per worker at 8 threads.
    if (threads <= 4)
        return 850ull * 1024;
    if (threads >= 8)
        return 5ull * 1024 * 1024;
    const double t = (threads - 4) / 4.0;
    return static_cast<std::uint64_t>(
        (1.0 - t) * 850.0 * 1024 + t * 5.0 * 1024 * 1024);
}

TraceGenerator::TraceGenerator(TraceOptions options)
    : options_(options)
{
}

StepTrace
TraceGenerator::generate(const World &world) const
{
    StepTrace trace;
    genBroadphase(world, trace.refs(Phase::Broadphase));
    genNarrowphase(world, trace.refs(Phase::Narrowphase));
    genIslandCreation(world, trace.refs(Phase::IslandCreation));
    genIslandProcessing(world,
                        trace.refs(Phase::IslandProcessing));
    genCloth(world, trace.refs(Phase::Cloth));

    // OS overhead: the paper attributes the 8-thread miss explosion
    // to kernel memory touched inside Island Processing and Cloth.
    const std::uint64_t kernel_bytes =
        options_.kernelBytesPerThread;
    for (unsigned t = 0; t < std::max(1u, options_.threads); ++t) {
        genKernelRefs(trace.refs(Phase::IslandProcessing), t,
                      kernel_bytes / 2);
        genKernelRefs(trace.refs(Phase::Cloth), t, kernel_bytes / 2);
    }
    return trace;
}

void
TraceGenerator::genBroadphase(const World &world,
                              std::vector<MemRef> &out) const
{
    // AABB refresh pass in geom-id order: read geom + body pose,
    // write the AABB back into the geom record.
    std::vector<const Geom *> bounded;
    for (const auto &g : world.geoms()) {
        if (!g->enabled())
            continue;
        touch(out, AddressMap::geom(g->id()), record::geomBytes,
              false);
        if (g->body() != nullptr) {
            touchHead(out, AddressMap::object(g->body()->id()),
                      record::objectBytes, false);
        }
        touchHead(out, AddressMap::geom(g->id()), record::geomBytes,
                  true);
        if (g->shape().type() != ShapeType::Plane)
            bounded.push_back(g.get());
    }

    // Sort-axis structure update: visit entries in sorted-x order.
    std::sort(bounded.begin(), bounded.end(),
              [](const Geom *a, const Geom *b) {
                  if (a->bounds().lo.x != b->bounds().lo.x)
                      return a->bounds().lo.x < b->bounds().lo.x;
                  return a->id() < b->id();
              });
    for (std::size_t i = 0; i < bounded.size(); ++i) {
        touch(out, AddressMap::sortEntry(i), 16, false);
        touch(out, AddressMap::sortEntry(i), 16, true);
        touchHead(out, AddressMap::geom(bounded[i]->id()),
                  record::geomBytes, false);
    }

    // Sweep: each candidate pair reads both geoms' bounds.
    for (const GeomPair &pair : world.lastPairs()) {
        touchHead(out, AddressMap::geom(pair.a), record::geomBytes,
                  false);
        touchHead(out, AddressMap::geom(pair.b), record::geomBytes,
                  false);
    }
}

void
TraceGenerator::genNarrowphase(const World &world,
                               std::vector<MemRef> &out) const
{
    // Shape ordinals for shared shape records.
    std::unordered_map<const Shape *, std::uint64_t> shape_ordinal;
    for (const auto &shape : world.shapes()) {
        shape_ordinal.emplace(shape.get(), shape_ordinal.size());
    }

    const auto &pairs = world.lastPairs();
    const unsigned threads = std::max(1u, options_.threads);
    const std::size_t chunk = (pairs.size() + threads - 1) / threads;

    for (unsigned t = 0; t < threads; ++t) {
        const std::size_t begin = t * chunk;
        const std::size_t end =
            std::min(pairs.size(), begin + chunk);
        std::uint64_t contact_index = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const Geom *ga = world.geom(pairs[i].a);
            const Geom *gb = world.geom(pairs[i].b);
            touch(out, AddressMap::geom(pairs[i].a),
                  record::geomBytes, false);
            touch(out, AddressMap::geom(pairs[i].b),
                  record::geomBytes, false);
            if (ga->body() != nullptr) {
                touchHead(out,
                          AddressMap::object(ga->body()->id()),
                          record::objectBytes, false);
            }
            if (gb->body() != nullptr) {
                touchHead(out,
                          AddressMap::object(gb->body()->id()),
                          record::objectBytes, false);
            }
            touch(out, AddressMap::shape(shape_ordinal[&ga->shape()]),
                  128, false);
            touch(out, AddressMap::shape(shape_ordinal[&gb->shape()]),
                  128, false);
            // Per-thread contact store (the per-thread joint group
            // that removes ODE's serialization).
            touch(out,
                  AddressMap::contact(t * 0x10000 + contact_index++),
                  record::contactBytes, true);
        }
    }
}

void
TraceGenerator::genIslandCreation(const World &world,
                                  std::vector<MemRef> &out) const
{
    // Serial pass over all objects.
    for (const auto &body : world.bodies()) {
        touchHead(out, AddressMap::object(body->id()),
                  record::objectBytes, false);
        touch(out, AddressMap::islandScratch(body->id()), 8, true);
    }
    // Union-find over permanent joints: pointer chasing between the
    // joint record, its endpoints, and the scratch array.
    for (const auto &joint : world.joints()) {
        if (joint->broken())
            continue;
        touch(out, AddressMap::joint(joint->id()),
              record::jointBytes(joint->type()), false);
        const RigidBody *a = joint->bodyA();
        const RigidBody *b = joint->bodyB();
        if (a != nullptr) {
            touchHead(out, AddressMap::object(a->id()),
                      record::objectBytes, false);
            touch(out, AddressMap::islandScratch(a->id()), 8, false);
            touch(out, AddressMap::islandScratch(a->id()), 8, true);
        }
        if (b != nullptr) {
            touchHead(out, AddressMap::object(b->id()),
                      record::objectBytes, false);
            touch(out, AddressMap::islandScratch(b->id()), 8, false);
        }
    }
    // And over this step's contacts.
    std::uint64_t index = 0;
    for (const Contact &c : world.lastContacts()) {
        touch(out, AddressMap::contact(index++),
              record::contactBytes, false);
        const Geom *ga = world.geom(c.geomA);
        const Geom *gb = world.geom(c.geomB);
        for (const Geom *g : {ga, gb}) {
            if (g != nullptr && g->body() != nullptr) {
                touch(out,
                      AddressMap::islandScratch(g->body()->id()), 8,
                      false);
            }
        }
    }
}

void
TraceGenerator::genIslandProcessing(const World &world,
                                    std::vector<MemRef> &out) const
{
    // Rebuild island membership: joints and contacts keyed by the
    // island of their first dynamic body.
    struct IslandWork
    {
        std::vector<const RigidBody *> bodies;
        std::vector<std::pair<std::uint64_t, std::uint64_t>>
            jointRecords; // (addr, bytes)
        std::vector<std::pair<BodyId, BodyId>> jointBodies;
    };
    std::unordered_map<std::uint32_t, IslandWork> islands;

    for (const auto &body : world.bodies()) {
        if (body->islandId() != ~std::uint32_t(0))
            islands[body->islandId()].bodies.push_back(body.get());
    }
    auto islandOfBody = [&](const RigidBody *b) -> std::int64_t {
        if (b == nullptr || b->islandId() == ~std::uint32_t(0))
            return -1;
        return b->islandId();
    };
    for (const auto &joint : world.joints()) {
        if (joint->broken())
            continue;
        std::int64_t island = islandOfBody(joint->bodyA());
        if (island < 0)
            island = islandOfBody(joint->bodyB());
        if (island < 0)
            continue;
        auto &work = islands[static_cast<std::uint32_t>(island)];
        work.jointRecords.emplace_back(
            AddressMap::joint(joint->id()),
            record::jointBytes(joint->type()));
        work.jointBodies.emplace_back(
            joint->bodyA() != nullptr ? joint->bodyA()->id()
                                      : invalidBodyId,
            joint->bodyB() != nullptr ? joint->bodyB()->id()
                                      : invalidBodyId);
    }
    std::uint64_t contact_index = 0;
    for (const Contact &c : world.lastContacts()) {
        const Geom *ga = world.geom(c.geomA);
        const Geom *gb = world.geom(c.geomB);
        const RigidBody *ba = ga != nullptr ? ga->body() : nullptr;
        const RigidBody *bb = gb != nullptr ? gb->body() : nullptr;
        std::int64_t island = islandOfBody(ba);
        if (island < 0)
            island = islandOfBody(bb);
        const std::uint64_t addr =
            AddressMap::contact(contact_index++);
        if (island < 0)
            continue;
        auto &work = islands[static_cast<std::uint32_t>(island)];
        work.jointRecords.emplace_back(addr,
                                       record::contactBytes);
        work.jointBodies.emplace_back(
            ba != nullptr ? ba->id() : invalidBodyId,
            bb != nullptr ? bb->id() : invalidBodyId);
    }

    // Deterministic island order.
    std::vector<std::uint32_t> order;
    order.reserve(islands.size());
    for (const auto &[id, work] : islands)
        order.push_back(id);
    std::sort(order.begin(), order.end());

    for (std::uint32_t id : order) {
        const IslandWork &work = islands[id];
        // Row build: full joint + endpoint records once.
        for (std::size_t j = 0; j < work.jointRecords.size(); ++j) {
            touch(out, work.jointRecords[j].first,
                  work.jointRecords[j].second, false);
            const auto [a, b] = work.jointBodies[j];
            if (a != invalidBodyId) {
                touch(out, AddressMap::object(a),
                      record::objectBytes, false);
            }
            if (b != invalidBodyId) {
                touch(out, AddressMap::object(b),
                      record::objectBytes, false);
            }
        }
        // Relaxation sweeps: hot joint line + endpoint velocity
        // lines, read-modify-write.
        for (int sweep = 0; sweep < options_.solverSweepsTraced;
             ++sweep) {
            for (std::size_t j = 0; j < work.jointRecords.size();
                 ++j) {
                touchHead(out, work.jointRecords[j].first,
                          work.jointRecords[j].second, false);
                const auto [a, b] = work.jointBodies[j];
                for (BodyId body_id : {a, b}) {
                    if (body_id == invalidBodyId)
                        continue;
                    // Velocity fields: two lines of the object.
                    touch(out, AddressMap::object(body_id) + 64, 128,
                          false);
                    touch(out, AddressMap::object(body_id) + 64, 128,
                          true);
                }
            }
        }
        // Integration: read-modify-write every body record.
        for (const RigidBody *body : work.bodies) {
            touch(out, AddressMap::object(body->id()),
                  record::objectBytes, false);
            touchHead(out, AddressMap::object(body->id()),
                      record::objectBytes, true);
        }
    }
}

void
TraceGenerator::genCloth(const World &world,
                         std::vector<MemRef> &out) const
{
    for (const auto &cloth : world.cloths()) {
        const auto vertex_count =
            static_cast<std::uint64_t>(cloth->vertexCount());
        // Verlet integration: stream over the vertex array.
        for (std::uint64_t v = 0; v < vertex_count; ++v) {
            touch(out, AddressMap::clothVertex(cloth->id(), v),
                  record::clothVertexBytes, false);
            touch(out, AddressMap::clothVertex(cloth->id(), v),
                  record::clothVertexBytes, true);
        }
        // Constraint sweeps: each constraint touches two vertices.
        for (int sweep = 0; sweep < options_.clothSweepsTraced;
             ++sweep) {
            for (const auto &c : cloth->constraints()) {
                touch(out, AddressMap::clothVertex(cloth->id(), c.a),
                      record::clothVertexBytes, true);
                touch(out, AddressMap::clothVertex(cloth->id(), c.b),
                      record::clothVertexBytes, true);
            }
        }
        // Collision: vertices against nearby geom records.
        const Aabb bounds = cloth->bounds();
        for (const auto &g : world.geoms()) {
            if (!g->enabled() || g->isBlast())
                continue;
            if (g->shape().type() == ShapeType::Plane ||
                g->bounds().overlaps(bounds)) {
                touch(out, AddressMap::geom(g->id()),
                      record::geomBytes, false);
            }
        }
    }
}

void
TraceGenerator::genKernelRefs(std::vector<MemRef> &out,
                              unsigned thread,
                              std::uint64_t bytes) const
{
    for (std::uint64_t offset = 0; offset < bytes;
         offset += lineBytes) {
        out.push_back(MemRef(AddressMap::kernel(thread, offset),
                             (offset % 256) == 0, true));
    }
}

} // namespace parallax
