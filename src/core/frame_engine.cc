#include "core/frame_engine.hh"

#include <algorithm>

#include "raster/raster.hh"
#include "sim/logging.hh"

namespace texdist
{

const NodeFragment *
TwoPhaseFrameEngine::FragmentArena::store(const NodeFragment *src,
                                          size_t n)
{
    if (n == 0)
        return nullptr;
    if (blocks.empty()) {
        blocks.emplace_back();
        blocks.back().reserve(std::max(chunkFrags, n));
    }
    while (blocks[active].size() + n > blocks[active].capacity()) {
        ++active;
        if (active == blocks.size()) {
            blocks.emplace_back();
            blocks.back().reserve(std::max(chunkFrags, n));
        }
    }
    std::vector<NodeFragment> &block = blocks[active];
    const NodeFragment *out = block.data() + block.size();
    block.insert(block.end(), src, src + n);
    return out;
}

void
TwoPhaseFrameEngine::FragmentArena::reset()
{
    for (std::vector<NodeFragment> &block : blocks)
        block.clear();
    active = 0;
}

TwoPhaseFrameEngine::TwoPhaseFrameEngine(
    const MachineConfig &config, const Distribution &dist_,
    std::vector<std::unique_ptr<TextureNode>> &nodes_, uint32_t jobs)
    : cfg(config), dist(dist_), nodes(nodes_),
      pool(std::max(1u, jobs)), workers(pool.threads()),
      lanes(nodes_.size())
{
    for (WorkerCtx &w : workers)
        w.buckets.resize(dist.numProcs());
}

// texlint: phase(parallel) phase-0 task body: triangle t is this
// task's private slot; all scratch is indexed by this worker's id
void
TwoPhaseFrameEngine::rasterizeOne(const Scene &scene, uint32_t worker,
                                  size_t t)
{
    WorkerCtx &ctx = workers[worker];
    TriSlot &slot = slots[t];
    slot.worker = worker;

    const TexTriangle &tri = scene.triangles[t];
    const Texture &tex = scene.textures.get(tri.tex);
    TriangleRaster raster(tri, tex.width(), tex.height());

    if (raster.degenerate()) {
        slot.kind = TriKind::Degenerate;
        return;
    }

    Rect screen = scene.screenRect();
    Rect bbox = raster.bbox().intersect(screen);
    ctx.targets.clear();
    dist.overlappingProcs(bbox, ctx.scratch, ctx.targets);
    if (ctx.targets.empty()) {
        slot.kind = TriKind::Culled;
        return;
    }

    // Rasterize once and bucket the fragments by owning processor,
    // exactly as GeometryFeeder::tryDispatchOne does. Every fragment
    // lies inside bbox, so its owner is one of `targets` and only
    // those buckets need clearing afterwards.
    const std::vector<uint16_t> &owners = dist.ownerMap();
    const uint32_t screen_w = dist.screenWidth();
    raster.rasterize(screen, [&](const Fragment &frag) {
        uint16_t p =
            owners[size_t(frag.y) * screen_w + size_t(frag.x)];
        ctx.buckets[p].push_back(NodeFragment{
            uint16_t(frag.x), uint16_t(frag.y), frag.u, frag.v,
            frag.lod});
    });

    slot.kind = TriKind::Normal;
    slot.entryBegin = uint32_t(ctx.entries.size());
    slot.entryCount = uint32_t(ctx.targets.size());
    for (uint32_t p : ctx.targets) {
        std::vector<NodeFragment> &bucket = ctx.buckets[p];
        StreamEntry entry;
        entry.dest = p;
        entry.count = uint32_t(bucket.size());
        entry.frags = ctx.arena.store(bucket.data(), bucket.size());
        ctx.entries.push_back(entry);
        bucket.clear();
    }
}

// texlint: phase(any) pure lane/node step; phase 1 calls it serially
// and each phase-2 drain task calls it on its own lane and node
Tick
TwoPhaseFrameEngine::consumeOne(Lane &lane, TextureNode &node)
{
    const LaneTri &tri = lane.stream[lane.next];
    Tick start = node.nextStart(tri.push);
    // Fault actions with tick <= start fire before this triangle's
    // work event: they were armed before any frame event, so the
    // event queue's (tick, stamp) order runs them first at equal
    // ticks. None of them changes when the pop happens (a slowdown
    // only affects triangles that start after it), so computing
    // `start` first is safe.
    while (lane.nextAction < lane.actions.size() &&
           lane.actions[lane.nextAction]->at <= start) {
        applyAction(node, *lane.actions[lane.nextAction]);
        ++lane.nextAction;
    }
    start = node.consumeDirect(tri.push, tri.tex, tri.frags,
                               tri.count);
    lane.starts.push_back(start);
    ++lane.next;
    return start;
}

// texlint: phase(any) touches only the task-owned node it is given
void
TwoPhaseFrameEngine::applyAction(TextureNode &node,
                                 const EngineFaultAction &action)
{
    switch (action.kind) {
      case EngineFaultAction::Kind::Slowdown:
        node.setSlowdown(action.factor);
        break;
      case EngineFaultAction::Kind::BusStall:
        node.stallBus(action.stallFrom, action.stallUntil);
        break;
    }
}

// texlint: phase(any) pure function of one task-owned lane
size_t
TwoPhaseFrameEngine::fifoHighWater(const Lane &lane)
{
    // Replay the push/pop tick streams (both non-decreasing) with
    // pops winning ties — the freeing pop's notify precedes the
    // re-dispatch in the event engine — and track the occupancy
    // after each push, which is when GeometryFeeder::push samples it.
    size_t pi = 0;
    size_t qi = 0;
    size_t hw = 0;
    const size_t n = lane.stream.size();
    while (pi < n) {
        if (qi < pi && lane.starts[qi] <= lane.stream[pi].push) {
            ++qi;
        } else {
            ++pi;
            hw = std::max(hw, pi - qi);
        }
    }
    return hw;
}

// texlint: phase(serial) frame prologue of both orchestrators: it
// resets every task's scratch, then submits phase 0
void
TwoPhaseFrameEngine::rasterizeFrame(const Scene &scene)
{
    const size_t ntris = scene.triangles.size();
    slots.assign(ntris, TriSlot{});
    for (WorkerCtx &w : workers) {
        w.arena.reset();
        w.entries.clear();
    }
    for (Lane &lane : lanes) {
        lane.stream.clear();
        lane.starts.clear();
        lane.next = 0;
        lane.actions.clear();
        lane.nextAction = 0;
    }

    // --- Phase 0: rasterize and bucket every triangle (parallel).
    pool.parallelFor(ntris, [&](uint32_t worker, size_t t) {
        rasterizeOne(scene, worker, t);
    });
}

// texlint: phase(serial) the phase orchestrator itself: it may write
// anything, and must never be re-entered from inside a task
FrameEngineResult
TwoPhaseFrameEngine::runFrame(
    const Scene &scene, Tick frame_start,
    const std::vector<EngineFaultAction> &actions)
{
    const size_t ntris = scene.triangles.size();
    const uint32_t nprocs = uint32_t(nodes.size());

    rasterizeFrame(scene);

    for (const EngineFaultAction &action : actions) {
        if (action.victim >= nprocs)
            texdist_panic("fault action victim ", action.victim,
                          " out of range");
        lanes[action.victim].actions.push_back(&action);
    }
    for (Lane &lane : lanes)
        std::stable_sort(
            lane.actions.begin(), lane.actions.end(),
            [](const EngineFaultAction *a,
               const EngineFaultAction *b) { return a->at < b->at; });

    // --- Phase 1: serial replay of the feeder's timing. This is
    // GeometryFeeder::dispatchLoop with the rasterization already
    // done and the event queue replaced by direct clock arithmetic;
    // see that function for the model being reproduced.
    FrameEngineResult res;
    const uint32_t geom_procs = cfg.geometryProcs;
    const Tick geom_cycles = cfg.geometryCyclesPerTriangle;
    const size_t capacity = cfg.triangleBufferSize;

    std::vector<Tick> engine_free(geom_procs, frame_start);
    size_t next_engine = 0;
    Tick next_arrival = 0;
    Tick now = frame_start;

    for (size_t t = 0; t < ntris; ++t) {
        // Geometry stage: round-robin engine occupancy with monotone
        // (sort-order-preserving) arrivals.
        if (geom_procs > 0) {
            Tick &engine = engine_free[next_engine];
            engine += geom_cycles;
            next_engine = (next_engine + 1) % geom_procs;
            next_arrival = std::max(next_arrival, engine);
            now = std::max(now, next_arrival);
        }

        const TriSlot &slot = slots[t];
        if (slot.kind != TriKind::Normal) {
            if (slot.kind == TriKind::Degenerate)
                ++res.degenerateTriangles;
            else
                ++res.culledTriangles;
            continue;
        }

        const std::vector<StreamEntry> &entries =
            workers[slot.worker].entries;
        const size_t entry_end =
            size_t(slot.entryBegin) + slot.entryCount;

        // All-or-none dispatch: every destination FIFO must have a
        // free slot before any push. A full destination's own
        // simulation is advanced just far enough to uncover the pop
        // that frees a slot (lazy coupling); pops at ticks <= now
        // are uncovered first because a pop is visible to the feeder
        // at its own tick.
        bool was_blocked = false;
        Tick blocked_since = 0;
      retry:
        for (size_t e = slot.entryBegin; e < entry_end; ++e) {
            Lane &lane = lanes[entries[e].dest];
            if (lane.pending() < capacity)
                continue;
            TextureNode &node = *nodes[entries[e].dest];
            while (lane.pending() >= capacity &&
                   node.nextStart(lane.stream[lane.next].push) <= now)
                consumeOne(lane, node);
            if (lane.pending() < capacity)
                continue;
            if (!was_blocked) {
                was_blocked = true;
                blocked_since = now;
            }
            now = consumeOne(lane, node);
            goto retry;
        }
        if (was_blocked)
            res.feederBlockedCycles += now - blocked_since;

        for (size_t e = slot.entryBegin; e < entry_end; ++e) {
            const StreamEntry &entry = entries[e];
            lanes[entry.dest].stream.push_back(LaneTri{
                now, scene.triangles[t].tex, entry.frags,
                entry.count});
        }
        ++res.trianglesDispatched;
    }

    // --- Phase 2: drain every node's remaining stream (parallel,
    // one node per index — nodes share no mutable state).
    pool.parallelFor(nprocs, [&](uint32_t, size_t p) {
        Lane &lane = lanes[p];
        TextureNode &node = *nodes[p];
        while (lane.next < lane.stream.size())
            consumeOne(lane, node);
        node.noteFifoHighWater(fifoHighWater(lane));
    });

    for (const std::unique_ptr<TextureNode> &node : nodes)
        res.frameEnd = std::max(res.frameEnd, node->finishTime());

    // Actions beyond a node's last start wait for the frame's end.
    // A strike at or after it touches nothing and is not counted,
    // and its recovery goes with it; every other action fires, and
    // slowdown and bus-stall state persists into the next frame.
    const Tick frame_end = std::max(frame_start, res.frameEnd);
    std::vector<uint8_t> late(actions.size(), 0);
    for (uint32_t p = 0; p < nprocs; ++p) {
        Lane &lane = lanes[p];
        for (; lane.nextAction < lane.actions.size(); ++lane.nextAction) {
            const EngineFaultAction &action =
                *lane.actions[lane.nextAction];
            if (action.strikeIndex < 0 ? action.at >= frame_end
                                       : late[action.strikeIndex])
                late[&action - actions.data()] = 1;
            else
                applyAction(*nodes[p], action);
        }
    }
    for (size_t i = 0; i < actions.size(); ++i) {
        if (late[i])
            continue;
        if (actions[i].strikeIndex < 0)
            ++res.faultsInjected;
        res.lastActionTick = std::max(res.lastActionTick, actions[i].at);
    }
    return res;
}

// texlint: phase(serial) sampled-mode orchestrator, serial-only
FrameEngineResult
TwoPhaseFrameEngine::runFrameFunctional(const Scene &scene)
{
    const size_t ntris = scene.triangles.size();
    const uint32_t nprocs = uint32_t(nodes.size());

    // Phase 0 is identical to the detailed frame: rasterization has
    // no timing inputs.
    rasterizeFrame(scene);

    // Materialize each node's stream in triangle order — the same
    // per-node order phase 1 would produce, minus the push ticks,
    // which the functional drain never reads.
    FrameEngineResult res;
    for (size_t t = 0; t < ntris; ++t) {
        const TriSlot &slot = slots[t];
        if (slot.kind != TriKind::Normal) {
            if (slot.kind == TriKind::Degenerate)
                ++res.degenerateTriangles;
            else
                ++res.culledTriangles;
            continue;
        }
        const std::vector<StreamEntry> &entries =
            workers[slot.worker].entries;
        const size_t entry_end =
            size_t(slot.entryBegin) + slot.entryCount;
        for (size_t e = slot.entryBegin; e < entry_end; ++e) {
            const StreamEntry &entry = entries[e];
            lanes[entry.dest].stream.push_back(LaneTri{
                0, scene.triangles[t].tex, entry.frags,
                entry.count});
        }
        ++res.trianglesDispatched;
    }

    // Functional drain: one node per task, caches update in detailed
    // order, clocks stand still.
    pool.parallelFor(nprocs, [&](uint32_t, size_t p) {
        Lane &lane = lanes[p];
        TextureNode &node = *nodes[p];
        for (const LaneTri &tri : lane.stream)
            node.functionalScan(tri.tex, tri.frags, tri.count);
    });
    return res;
}

} // namespace texdist
