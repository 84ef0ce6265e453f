#include "core/feeder.hh"

#include <algorithm>

#include "raster/raster.hh"

namespace texdist
{

GeometryFeeder::GeometryFeeder(
    const Scene &scene_, const Distribution &dist_,
    std::vector<std::unique_ptr<TextureNode>> &nodes_,
    EventQueue &eq_, const MachineConfig &config)
    : eq(eq_), scene(scene_), dist(dist_), nodes(nodes_),
      geomProcs(config.geometryProcs),
      geomCycles(config.geometryCyclesPerTriangle),
      dispatchEvent(*this)
{
    if (geomProcs > 0)
        geomEngineFree.assign(geomProcs, 0);
    buckets.resize(dist.numProcs());
    alive.assign(dist.numProcs(), true);
    for (uint32_t p = 0; p < dist.numProcs(); ++p)
        ports.push_back(std::make_unique<Port>(
            *this, p, config.triangleBufferSize));
}

void
GeometryFeeder::start()
{
    if (!done())
        eq.schedule(&dispatchEvent, eq.curTick());
}

void
GeometryFeeder::notifySpaceFreed()
{
    if (waiting && !dispatchEvent.scheduled()) {
        waiting = false;
        _blockedCycles += eq.curTick() - blockedSince;
        eq.schedule(&dispatchEvent, eq.curTick());
    }
}

bool
GeometryFeeder::workRemains() const
{
    if (!done())
        return true;
    for (size_t p = 0; p < ports.size(); ++p)
        if (alive[p] && !ports[p]->fifo.empty())
            return true;
    return false;
}

void
GeometryFeeder::thaw(uint32_t p)
{
    ports[p]->frozen = false;
    // The dispatch may be blocked on this FIFO with no other event
    // to wake it.
    notifySpaceFreed();
}

void
GeometryFeeder::push(uint32_t p, TriangleWork &&work, bool force)
{
    Port &port = *ports[p];
    if (force)
        port.fifo.forcePush(std::move(work));
    else
        port.fifo.push(std::move(work));
    TextureNode &node = *nodes[p];
    node.noteFifoHighWater(port.fifo.size());
    if (!port.work.scheduled())
        eq.schedule(&port.work, node.nextStart(eq.curTick()));
}

void
GeometryFeeder::runNode(uint32_t p)
{
    Port &port = *ports[p];
    TriangleWork work = port.fifo.pop();
    notifySpaceFreed();

    // The event fires at or after the node's scan-free time, so the
    // triangle starts now.
    TextureNode &node = *nodes[p];
    node.consumeDirect(eq.curTick(), work.tex, work.frags.data(),
                       work.frags.size());

    if (!port.fifo.empty())
        eq.schedule(&port.work, node.nextStart(eq.curTick()));
}

size_t
GeometryFeeder::markDead(uint32_t dead)
{
    if (dead >= alive.size())
        texdist_panic("markDead: node ", dead, " out of range");
    alive[dead] = false;
    Port &port = *ports[dead];
    if (port.work.scheduled())
        eq.deschedule(&port.work);

    size_t moved = 0;
    while (!port.fifo.empty()) {
        TriangleWork work = port.fifo.pop();
        size_t n = ports.size();
        for (size_t step = 1; step <= n; ++step) {
            size_t cand = (redistributeCursor + step) % n;
            if (alive[cand]) {
                redistributeCursor = cand;
                push(uint32_t(cand), std::move(work), true);
                ++moved;
                break;
            }
        }
    }
    return moved;
}

void
GeometryFeeder::cancelPending()
{
    if (dispatchEvent.scheduled())
        eq.deschedule(&dispatchEvent);
    waiting = false;
    for (const std::unique_ptr<Port> &port : ports)
        if (port->work.scheduled())
            eq.deschedule(&port->work);
}

uint32_t
GeometryFeeder::replacementFor(uint32_t dead)
{
    // Deterministic round-robin over the survivors, so repeated runs
    // of the same plan redistribute identically and no single
    // survivor absorbs the whole dead region.
    size_t n = alive.size();
    for (size_t step = 1; step <= n; ++step) {
        uint32_t cand = uint32_t((rerouteCursor + step) % n);
        if (alive[cand]) {
            rerouteCursor = cand;
            return cand;
        }
    }
    texdist_panic("no surviving node to reroute to (dead node ",
                  dead, ")");
}

bool
GeometryFeeder::tryDispatchOne()
{
    const TexTriangle &tri = scene.triangles[nextTriangle];
    const Texture &tex = scene.textures.get(tri.tex);
    TriangleRaster raster(tri, tex.width(), tex.height());

    if (raster.degenerate()) {
        ++_degenerate;
        ++nextTriangle;
        return true;
    }

    Rect screen = scene.screenRect();
    Rect bbox = raster.bbox().intersect(screen);
    targets.clear();
    dist.overlappingProcs(bbox, scratch, targets);
    if (targets.empty()) {
        ++_culled;
        ++nextTriangle;
        return true;
    }

    // Map each target to its destination: itself while alive, a
    // surviving node (round-robin) once dead — graceful degradation
    // keeps the frame complete at the price of locality.
    dests.resize(targets.size());
    for (size_t i = 0; i < targets.size(); ++i)
        dests[i] = alive[targets[i]] ? targets[i]
                                     : replacementFor(targets[i]);

    // Strict ordering: the triangle goes to all its destinations or
    // to none; a single full FIFO stalls the whole geometry stream.
    for (uint32_t d : dests) {
        if (ports[d]->frozen || ports[d]->fifo.full()) {
            _blockedOn = int32_t(d);
            return false;
        }
    }

    // Rasterize once and bucket the fragments by owning processor —
    // this *is* the "clipping while drawing": a node is only charged
    // for pixels inside its own tiles.
    const std::vector<uint16_t> &owners = dist.ownerMap();
    uint32_t screen_w = dist.screenWidth();
    raster.rasterize(screen, [&](const Fragment &frag) {
        uint16_t p =
            owners[size_t(frag.y) * screen_w + size_t(frag.x)];
        buckets[p].push_back(NodeFragment{
            uint16_t(frag.x), uint16_t(frag.y), frag.u, frag.v,
            frag.lod});
    });

    // When several targets map to one destination (a dead node and
    // its live replacement), fold the later buckets into the first
    // so the node receives the triangle — and pays its setup — once.
    for (size_t i = 0; i < targets.size(); ++i) {
        uint32_t t = targets[i];
        if (dests[i] != t)
            _fragmentsRerouted += buckets[t].size();
        for (size_t j = 0; j < i; ++j) {
            if (dests[j] == dests[i]) {
                auto &dst = buckets[targets[j]];
                dst.insert(dst.end(), buckets[t].begin(),
                           buckets[t].end());
                buckets[t].clear();
                break;
            }
        }
    }

    for (size_t i = 0; i < targets.size(); ++i) {
        uint32_t d = dests[i];
        bool folded = false;
        for (size_t j = 0; j < i; ++j)
            folded = folded || dests[j] == d;
        if (folded)
            continue; // merged into the earlier bucket above
        fifoOccupancy.add(double(ports[d]->fifo.size()));
        // Copy, not move: the queued entry is sized to its fragments
        // (a deep FIFO would otherwise hold every bucket's growth
        // slack), and the bucket keeps its capacity for the next
        // triangle.
        std::vector<NodeFragment> &bucket = buckets[targets[i]];
        push(d, TriangleWork{tri.tex, {bucket.begin(), bucket.end()}},
             false);
        bucket.clear();
    }

    ++_dispatched;
    ++nextTriangle;
    return true;
}

Tick
GeometryFeeder::computeArrival()
{
    if (geomProcs == 0)
        return 0;
    // Round-robin over the geometry engines; each triangle occupies
    // its engine for geomCycles. The sort network re-merges the
    // streams in submission order, so arrivals are monotone: a slow
    // engine holds back everything behind it.
    Tick &engine = geomEngineFree[nextGeomEngine];
    engine += geomCycles;
    nextGeomEngine = (nextGeomEngine + 1) % geomProcs;
    nextArrival = std::max(nextArrival, engine);
    return nextArrival;
}

void
GeometryFeeder::dispatchLoop()
{
    while (!done()) {
        if (!arrivalValid) {
            nextArrival = computeArrival();
            arrivalValid = true;
        }
        if (geomProcs > 0 && eq.curTick() < nextArrival) {
            // The triangle is still in the geometry stage.
            eq.schedule(&dispatchEvent, nextArrival);
            return;
        }
        size_t index = nextTriangle;
        if (!tryDispatchOne()) {
            waiting = true;
            blockedSince = eq.curTick();
            return;
        }
        if (nextTriangle != index)
            arrivalValid = false;
    }
}

} // namespace texdist
