#include "core/feeder.hh"

#include <algorithm>
#include <cmath>

#include "raster/raster.hh"

namespace texdist
{

GeometryFeeder::GeometryFeeder(
    const Scene &scene_, const Distribution &dist_,
    std::vector<std::unique_ptr<TextureNode>> &nodes_,
    EventQueue &eq_, const MachineConfig &config)
    : SimObject("feeder", eq_), scene(scene_), dist(dist_),
      nodes(nodes_), rate(config.geometryTrianglesPerCycle),
      geomProcs(config.geometryProcs),
      geomCycles(config.geometryCyclesPerTriangle),
      dispatchEvent(*this)
{
    if (geomProcs > 0)
        geomEngineFree.assign(geomProcs, 0);
    buckets.resize(dist.numProcs());
    alive.assign(dist.numProcs(), true);
    _stats.addStat("dispatched", "triangles dispatched", _dispatched);
    _stats.addStat("rerouted_frags",
                   "fragments rerouted off dead nodes",
                   _fragmentsRerouted);
    _stats.addStat("degenerate", "zero-area triangles skipped",
                   _degenerate);
    _stats.addStat("culled", "off-screen triangles skipped", _culled);
    _stats.addStat("blocked_cycles", "cycles blocked on full FIFOs",
                   _blockedCycles);
    _stats.addStat("fifo_occupancy",
                   "destination FIFO occupancy at dispatch",
                   fifoOccupancy);
}

void
GeometryFeeder::start(Tick when)
{
    lastRateTick = when;
    if (geomProcs > 0)
        std::fill(geomEngineFree.begin(), geomEngineFree.end(),
                  when);
    if (!done())
        eventq().schedule(&dispatchEvent, when);
}

void
GeometryFeeder::notifySpaceFreed()
{
    if (waiting && !dispatchEvent.scheduled()) {
        waiting = false;
        _blockedCycles += curTick() - blockedSince;
        eventq().schedule(&dispatchEvent, curTick());
    }
}

void
GeometryFeeder::markDead(uint32_t dead)
{
    if (dead >= alive.size())
        texdist_panic("markDead: node ", dead, " out of range");
    alive[dead] = false;
}

void
GeometryFeeder::cancelPending()
{
    if (dispatchEvent.scheduled())
        eventq().deschedule(&dispatchEvent);
    waiting = false;
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
        if (!nodes[d]->fifoHasSpace()) {
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
        fifoOccupancy.add(double(nodes[d]->fifoOccupancy()));
        TriangleWork work;
        work.tex = tri.tex;
        work.frags = std::move(buckets[targets[i]]);
        buckets[targets[i]].clear();
        nodes[d]->enqueue(std::move(work));
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
    if (rate > 0.0) {
        // Finite aggregate rate: accumulate dispatch credit over the
        // cycles elapsed since the last dispatch event.
        Tick now = curTick();
        rateCredit += rate * double(now - lastRateTick);
        rateCredit = std::min(rateCredit, std::max(1.0, rate));
        lastRateTick = now;
    }

    while (!done()) {
        if (!arrivalValid) {
            nextArrival = computeArrival();
            arrivalValid = true;
        }
        if (geomProcs > 0 && curTick() < nextArrival) {
            // The triangle is still in the geometry stage.
            eventq().schedule(&dispatchEvent, nextArrival);
            return;
        }
        if (rate > 0.0 && rateCredit < 1.0) {
            // Out of credit: try again next cycle.
            eventq().schedule(&dispatchEvent, curTick() + 1);
            return;
        }
        size_t index = nextTriangle;
        if (!tryDispatchOne()) {
            waiting = true;
            blockedSince = curTick();
            return;
        }
        if (nextTriangle != index)
            arrivalValid = false;
        if (rate > 0.0)
            rateCredit -= 1.0;
    }
    _finishTime = curTick();
}

} // namespace texdist
