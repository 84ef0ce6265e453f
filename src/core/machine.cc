#include "core/machine.hh"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "core/metrics.hh"
#include "sim/logging.hh"

namespace texdist
{

double
imbalancePercent(const std::vector<uint64_t> &work)
{
    if (work.empty())
        return 0.0;
    uint64_t max = 0;
    uint64_t sum = 0;
    for (uint64_t w : work) {
        max = std::max(max, w);
        sum += w;
    }
    double mean = double(sum) / double(work.size());
    return mean > 0.0 ? (double(max) - mean) / mean * 100.0 : 0.0;
}

FrameResult
assembleFrameResult(const std::vector<std::unique_ptr<TextureNode>> &nodes,
                    std::vector<NodeSnapshot> &snapshots,
                    Tick frame_start, Tick frame_end)
{
    FrameResult out;
    out.frameTime = frame_end - frame_start;
    out.nodes.reserve(nodes.size());

    std::vector<uint64_t> pixel_counts;
    std::vector<uint64_t> finish_times;
    double bus_util_sum = 0.0;
    for (size_t i = 0; i < nodes.size(); ++i) {
        const TextureNode &node = *nodes[i];
        NodeSnapshot &snap = snapshots[i];
        NodeResult nr;
        nr.pixels = node.pixelsDrawn() - snap.pixels;
        nr.triangles = node.trianglesReceived() - snap.triangles;
        nr.finishTime = node.finishTime();
        nr.cacheAccesses = node.cache().accesses() - snap.accesses;
        nr.cacheMisses = node.cache().misses() - snap.misses;
        nr.texelsFetched =
            node.cache().texelsFetched() - snap.texelsFetched;
        nr.stallCycles = node.stallCycles() - snap.stallCycles;
        nr.idleCycles = node.idleCycles() - snap.idleCycles;
        nr.setupBoundTriangles =
            node.setupBoundTriangles() - snap.setupBound;
        nr.setupWaitCycles = node.setupWaitCycles() - snap.setupWait;
        nr.fifoMaxOccupancy = node.fifoMaxOccupancy();
        if (node.bus() && out.frameTime > 0) {
            // Utilization over the whole run so far is the best the
            // bus model exposes; report it against total time.
            nr.busUtilization = node.bus()->utilization(frame_end);
        }

        snap.pixels = node.pixelsDrawn();
        snap.triangles = node.trianglesReceived();
        snap.accesses = node.cache().accesses();
        snap.misses = node.cache().misses();
        snap.texelsFetched = node.cache().texelsFetched();
        snap.stallCycles = node.stallCycles();
        snap.idleCycles = node.idleCycles();
        snap.setupBound = node.setupBoundTriangles();
        snap.setupWait = node.setupWaitCycles();

        out.totalPixels += nr.pixels;
        out.totalTexelsFetched += nr.texelsFetched;
        out.fifoMaxOccupancy =
            std::max(out.fifoMaxOccupancy, nr.fifoMaxOccupancy);
        bus_util_sum += nr.busUtilization;
        pixel_counts.push_back(nr.pixels);
        finish_times.push_back(std::max(nr.finishTime, frame_start) -
                               frame_start);
        out.nodes.push_back(nr);
    }

    out.texelToFragmentRatio =
        out.totalPixels ? double(out.totalTexelsFetched) /
                              double(out.totalPixels)
                        : 0.0;
    out.pixelImbalancePercent = imbalancePercent(pixel_counts);
    out.timeImbalancePercent = imbalancePercent(finish_times);
    out.meanBusUtilization = bus_util_sum / double(nodes.size());
    return out;
}

ParallelMachine::ParallelMachine(const Scene &scene_,
                                 const MachineConfig &config)
    : ParallelMachine(scene_, config,
                      Distribution::make(
                          config.dist, scene_.screenWidth,
                          scene_.screenHeight, config.numProcs,
                          config.tileParam, config.interleave))
{
}

ParallelMachine::ParallelMachine(
    const Scene &scene_, const MachineConfig &config,
    std::unique_ptr<Distribution> distribution)
    : scene(scene_), cfg(config), dist(std::move(distribution))
{
    if (dist->numProcs() != cfg.numProcs ||
        dist->screenWidth() != scene.screenWidth ||
        dist->screenHeight() != scene.screenHeight)
        texdist_fatal("distribution does not match scene/config: ",
                      dist->describe());
    nodes.reserve(cfg.numProcs);
    for (uint32_t i = 0; i < cfg.numProcs; ++i)
        nodes.push_back(
            std::make_unique<TextureNode>(i, cfg, scene.textures));
    feeder_ = std::make_unique<GeometryFeeder>(scene, *dist, nodes,
                                               eq, cfg);
}

void
ParallelMachine::armFaults()
{
    for (const FaultSpec &fault : cfg.faults.resolve(cfg.numProcs)) {
        TextureNode *victim = nodes[fault.victim].get();
        Tick end = fault.duration > 0 ? fault.at + fault.duration
                                      : maxTick;
        std::function<void()> strike;
        std::function<void()> recover;
        switch (fault.kind) {
          case FaultKind::SlowNode:
            strike = [victim, fault] { victim->setSlowdown(fault.factor); };
            if (fault.duration > 0)
                recover = [victim] { victim->setSlowdown(1); };
            break;
          case FaultKind::BusStall:
            strike = [victim, fault, end] {
                victim->stallBus(fault.at, end);
            };
            break;
          case FaultKind::FifoFreeze:
            strike = [this, fault] { feeder_->freeze(fault.victim); };
            recover = [this, fault] { feeder_->thaw(fault.victim); };
            break;
          case FaultKind::KillNode:
            strike = [this, fault] { killNode(fault.victim, "fault plan"); };
            break;
        }

        // A strike after the frame is over touches nothing, so it
        // is neither applied nor counted.
        auto ev = std::make_unique<LambdaEvent>(
            [this, strike = std::move(strike)] {
                if (frameOver())
                    return;
                ++faultStats.injected;
                strike();
            },
            "fault strike");
        eq.schedule(ev.get(), fault.at);
        faultEvents.push_back(std::move(ev));
        if (recover && fault.duration > 0) {
            auto rev = std::make_unique<LambdaEvent>(
                std::move(recover), "fault recovery");
            eq.schedule(rev.get(), end);
            faultEvents.push_back(std::move(rev));
        }
    }
}

bool
ParallelMachine::frameOver() const
{
    if (feeder_->workRemains())
        return false;
    for (uint32_t i = 0; i < nodes.size(); ++i)
        if (feeder_->nodeAlive(i) && nodes[i]->finishTime() > eq.curTick())
            return false;
    return true;
}

uint32_t
ParallelMachine::aliveNodes() const
{
    uint32_t alive = 0;
    for (uint32_t i = 0; i < nodes.size(); ++i)
        alive += feeder_->nodeAlive(i) ? 1 : 0;
    return alive;
}

void
ParallelMachine::onDeadlock()
{
    Tick now = eq.curTick();
    if (!faultStats.detectionTick)
        faultStats.detectionTick = now;
    if (_diagnostic.empty())
        _diagnostic = dumpMachineState();

    if (cfg.watchdogPolicy == WatchdogPolicy::Degrade) {
        int32_t culprit = feeder_->blockedOn();
        if (culprit < 0) {
            // The feeder is not blocked; look for a frozen node.
            for (uint32_t i = 0; i < nodes.size(); ++i)
                if (feeder_->nodeAlive(i) && feeder_->frozen(i))
                    culprit = int32_t(i);
        }
        if (culprit >= 0 && aliveNodes() > 1) {
            killNode(uint32_t(culprit), "deadlock");
            return;
        }
    }

    failFrame(detail::concat(
        "deadlock: no event pending and every live node idle at "
        "tick ", now, " with work remaining (",
        feeder_->trianglesDispatched(), " triangles dispatched)"));
}

void
ParallelMachine::failFrame(const std::string &reason)
{
    _failed = true;
    _failureReason = reason;
    if (_diagnostic.empty())
        _diagnostic = dumpMachineState();
    warn(reason);

    // Cancel everything still pending (a fault can kill the last
    // node mid-frame) so the queue drains now and no event outlives
    // the frame scheduled.
    feeder_->cancelPending();
    for (auto &ev : faultEvents)
        if (ev->scheduled())
            eq.deschedule(ev.get());
}

std::string
ParallelMachine::dumpMachineState() const
{
    std::ostringstream os;
    os << "machine state at tick " << eq.curTick() << ":\n"
       << "  feeder: dispatched=" << feeder_->trianglesDispatched()
       << " done=" << (feeder_->done() ? 1 : 0)
       << " blocked_on=" << feeder_->blockedOn() << "\n";
    for (uint32_t i = 0; i < nodes.size(); ++i) {
        const TextureNode &node = *nodes[i];
        os << "  " << node.name() << ": fifo=" << feeder_->queued(i)
           << "/" << cfg.triangleBufferSize
           << " pixels=" << node.pixelsDrawn()
           << " finish=" << node.finishTime()
           << " slowdown=" << node.slowdown()
           << " frozen=" << (feeder_->frozen(i) ? 1 : 0)
           << " dead=" << (feeder_->nodeAlive(i) ? 0 : 1) << "\n";
    }
    return os.str();
}

void
ParallelMachine::killNode(uint32_t victim, const char *why)
{
    if (victim >= nodes.size())
        texdist_fatal("killNode: node ", victim, " out of range");
    if (!feeder_->nodeAlive(victim))
        return;

    size_t moved = feeder_->markDead(victim);
    _degraded = true;
    ++faultStats.nodesKilled;

    if (aliveNodes() == 0) {
        failFrame(detail::concat("node ", victim, " died (", why,
                                 ") and no nodes survive"));
        return;
    }

    faultStats.trianglesRedistributed += moved;
    warn("node ", victim, " declared dead (", why, "): ",
         moved, " queued triangles redistributed to ",
         aliveNodes(), " survivors");

    // The feeder may have been blocked on the dead node's FIFO.
    feeder_->notifySpaceFreed();
}

FrameResult
ParallelMachine::run()
{
    if (ran)
        texdist_panic("ParallelMachine::run() called twice");
    ran = true;

    armFaults();
    feeder_->start();
    eq.run();

    // Every event source is finite: the feeder's geometry arrivals,
    // node work and fault strikes/recoveries all end. So the machine
    // cannot livelock, and a drained queue with work remaining is
    // exactly a deadlock on a FIFO that refuses forever. Respond at
    // the tick the last live node goes idle; each response kills a
    // node or fails the frame, so this ends.
    LambdaEvent deadlock([this] { onDeadlock(); }, "deadlock");
    while (!_failed && feeder_->workRemains()) {
        Tick idle = eq.curTick();
        for (uint32_t i = 0; i < nodes.size(); ++i)
            if (feeder_->nodeAlive(i))
                idle = std::max(idle, nodes[i]->finishTime());
        eq.schedule(&deadlock, idle);
        eq.run();
    }

    Tick frame_time = 0;
    for (const auto &node : nodes)
        frame_time = std::max(frame_time, node->finishTime());
    std::vector<NodeSnapshot> fresh(nodes.size());
    FrameResult out = assembleFrameResult(nodes, fresh, 0, frame_time);

    out.trianglesDispatched = feeder_->trianglesDispatched();
    out.degraded = _degraded;
    out.failed = _failed;
    out.failureReason = _failureReason;
    out.diagnostic = _diagnostic;
    faultStats.fragmentsRerouted = feeder_->fragmentsRerouted();
    out.faultStats = faultStats;
    return out;
}

// texlint: phase(serial) builds and runs a whole event-driven
// machine; must only be called from serial code (or an isolated
// sweep task that owns its private universe)
FrameResult
runFrame(const Scene &scene, const MachineConfig &config)
{
    ParallelMachine machine(scene, config);
    return machine.run();
}

void
FrameResult::print(std::ostream &os) const
{
    const std::ios_base::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    for (const Metric &m : metricTable()) {
        if (!m.frame || !m.label)
            continue;
        os << m.label << ':'
           << std::string(18 - std::strlen(m.label), ' ');
        const MetricValue v = m.frame(*this);
        if (v.kind == MetricKind::Real)
            os << std::fixed << std::setprecision(m.precision) << v.real;
        else
            os << v.count;
        os << m.suffix << "\n";
    }
    if (degraded || failed || faultStats.injected > 0) {
        os << "faults injected:   " << faultStats.injected << "\n"
           << "degraded:          " << (degraded ? "yes" : "no")
           << " (" << faultStats.nodesKilled << " nodes killed, "
           << faultStats.trianglesRedistributed
           << " triangles redistributed, "
           << faultStats.fragmentsRerouted
           << " fragments rerouted)\n";
        if (faultStats.detectionTick)
            os << "deadlock detect:   tick "
               << *faultStats.detectionTick << "\n";
        if (failed)
            os << "FRAME FAILED:      " << failureReason << "\n";
    }
    os.flags(flags);
    os.precision(precision);
}

std::string
MachineConfig::describe() const
{
    std::ostringstream os;
    os << "procs=" << numProcs << " dist=" << to_string(dist) << "/"
       << tileParam << " interleave=" << to_string(interleave)
       << " cache=" << to_string(cacheKind);
    if (cacheKind == CacheKind::SetAssoc)
        os << "(" << cacheGeom.sizeBytes / 1024 << "KB,"
           << cacheGeom.ways << "w," << cacheGeom.lineBytes << "B)";
    if (hasL2) {
        os << "+L2(" << l2Geom.sizeBytes / 1024 << "KB)";
        // Appended only when enabled so every pre-existing config
        // keeps its exact describe() string (and thus its store and
        // checkpoint identity).
        if (l2Inclusive)
            os << "incl";
    }
    if (infiniteBus)
        os << " bus=inf";
    else
        os << " bus=" << busTexelsPerCycle;
    os << " buffer=" << triangleBufferSize << " setup="
       << setupCyclesPerTriangle << " prefetch=" << prefetchQueueDepth;
    if (geometryProcs > 0)
        os << " geomprocs=" << geometryProcs << "x"
           << geometryCyclesPerTriangle;
    if (!faults.empty())
        os << " faults=[" << faults.describe() << "]seed="
           << faults.seed;
    return os.str();
}

} // namespace texdist
