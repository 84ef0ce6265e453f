#include "core/sequence.hh"

#include <algorithm>

#include "core/error.hh"
#include "sim/logging.hh"

namespace texdist
{

SequenceMachine::SequenceMachine(const Scene &first_frame,
                                 const MachineConfig &config,
                                 uint32_t host_jobs)
    : cfg(config), faultRng(config.faults.seed)
{
    dist = Distribution::make(cfg.dist, first_frame.screenWidth,
                              first_frame.screenHeight, cfg.numProcs,
                              cfg.tileParam, cfg.interleave);
    for (uint32_t i = 0; i < cfg.numProcs; ++i)
        nodes.push_back(std::make_unique<TextureNode>(
            i, cfg, first_frame.textures, eq));
    snapshots.resize(cfg.numProcs);
    engine = std::make_unique<TwoPhaseFrameEngine>(cfg, *dist, nodes,
                                                   host_jobs);
}

std::vector<EngineFaultAction>
SequenceMachine::armFaults(Tick frame_start)
{
    std::vector<EngineFaultAction> actions;
    frameFaultsInjected = 0;
    maxActionTick = 0;
    for (FaultSpec fault : cfg.faults.faults) {
        if (fault.victim == faultRandomVictim)
            fault.victim = uint32_t(
                faultRng.uniformInt(0, int64_t(cfg.numProcs) - 1));
        if (fault.victim >= cfg.numProcs)
            texdist_fatal("fault victim ", fault.victim,
                          " out of range for ", cfg.numProcs,
                          " processors");
        Tick at = frame_start + fault.at;
        Tick end = fault.duration > 0 ? at + fault.duration : maxTick;

        EngineFaultAction strike;
        strike.at = at;
        strike.victim = fault.victim;
        switch (fault.kind) {
          case FaultKind::SlowNode:
            strike.kind = EngineFaultAction::Kind::Slowdown;
            strike.factor = fault.factor;
            actions.push_back(strike);
            maxActionTick = std::max(maxActionTick, at);
            if (fault.duration > 0) {
                EngineFaultAction recover = strike;
                recover.at = end;
                recover.factor = 1;
                actions.push_back(recover);
                maxActionTick = std::max(maxActionTick, end);
            }
            break;
          case FaultKind::BusStall:
            strike.kind = EngineFaultAction::Kind::BusStall;
            strike.stallFrom = at;
            strike.stallUntil = end;
            actions.push_back(strike);
            maxActionTick = std::max(maxActionTick, at);
            break;
          default:
            // fifo-freeze and kill-node need the deadlock
            // detection and degradation machinery of
            // ParallelMachine, which a checkpointable sequence does
            // not carry.
            texdist_fatal("fault kind '", to_string(fault.kind),
                          "' is not supported in multi-frame "
                          "(sequence) runs");
        }
        ++frameFaultsInjected;
    }
    return actions;
}

void
SequenceMachine::checkFrame(const Scene &scene) const
{
    if (restoreFailed)
        texdist_panic("SequenceMachine frame after a failed "
                      "restore; the machine holds partial state");
    if (scene.screenWidth != dist->screenWidth() ||
        scene.screenHeight != dist->screenHeight())
        texdist_fatal("frame ", scene.name,
                      " does not match the sequence screen size");
}

// texlint: phase(serial) top-level per-frame driver; spawns the
// engine's parallel phases but never runs inside one
FrameResult
SequenceMachine::runFrame(const Scene &scene)
{
    checkFrame(scene);

    std::vector<EngineFaultAction> actions = armFaults(frameStart);
    FrameEngineResult eng =
        engine->runFrame(scene, frameStart, actions);

    Tick frame_end = std::max(frameStart, eng.frameEnd);
    FrameResult out =
        assembleFrameResult(nodes, snapshots, frameStart, frame_end);
    out.trianglesDispatched = eng.trianglesDispatched;
    out.faultStats.injected = frameFaultsInjected;

    // A fault recovery action may land after the last node retires;
    // the next frame must still start at or after it.
    frameStart = std::max(frame_end, maxActionTick);
    ++_framesRun;
    return out;
}

// texlint: phase(serial) sampled-mode per-frame driver, serial-only
FrameResult
SequenceMachine::runFrameFunctional(const Scene &scene)
{
    checkFrame(scene);
    if (!cfg.faults.faults.empty())
        texdist_fatal("fault plans are not supported in sampled "
                      "(functional) frames");

    // From here on the machine's timing state no longer corresponds
    // to any exact detailed run; refuse to checkpoint it.
    _sampleTainted = true;

    FrameEngineResult eng = engine->runFrameFunctional(scene);

    // frame_end == frameStart: no simulated time passes, so the
    // result's frameTime is 0 and the clock does not advance. The
    // work and cache deltas are exact (the caches saw the detailed
    // reference order).
    FrameResult out =
        assembleFrameResult(nodes, snapshots, frameStart, frameStart);
    out.trianglesDispatched = eng.trianglesDispatched;
    out.estimated = true;
    ++_framesRun;
    return out;
}

void
SequenceMachine::requireExactState() const
{
    if (_sampleTainted)
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cannot checkpoint a sampled run: "
                         "functional fast-forward frames leave the "
                         "machine with no exact timing state to "
                         "resume from")
            .field("sequence");
}

void
SequenceMachine::serialize(CheckpointWriter &w) const
{
    requireExactState();

    w.section("sequence");
    w.str(cfg.describe());
    w.u64(frameStart);
    w.u32(_framesRun);
    RngState rng = faultRng.state();
    for (uint64_t word : rng.s)
        w.u64(word);
    w.u8(rng.haveSpareNormal ? 1 : 0);
    w.f64(rng.spareNormal);

    w.section("snapshots");
    w.u64(snapshots.size());
    for (const NodeSnapshot &snap : snapshots) {
        w.u64(snap.pixels);
        w.u64(snap.triangles);
        w.u64(snap.accesses);
        w.u64(snap.misses);
        w.u64(snap.texelsFetched);
        w.u64(snap.stallCycles);
        w.u64(snap.idleCycles);
        w.u64(snap.setupBound);
        w.u64(snap.setupWait);
    }

    for (const auto &node : nodes)
        node->serialize(w);
}

void
SequenceMachine::restore(CheckpointReader &r)
{
    if (_framesRun > 0 || restored)
        texdist_panic("SequenceMachine::restore after frames ran");
    restored = true;

    // A restore that throws partway has already overwritten some of
    // the machine's state; poison the machine so a driver that
    // swallows the error cannot run frames from the half-restored
    // wreck. The flag clears only when the full restore succeeds.
    restoreFailed = true;

    r.section("sequence");
    std::string config = r.str();
    if (config != cfg.describe())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "configuration mismatch:\n  checkpoint: " +
                             config + "\n  machine:    " +
                             cfg.describe())
            .in(r.path())
            .field("sequence");
    frameStart = r.u64();
    _framesRun = r.u32();
    RngState rng;
    for (auto &word : rng.s)
        word = r.u64();
    rng.haveSpareNormal = r.u8() != 0;
    rng.spareNormal = r.f64();
    faultRng.setState(rng);

    r.section("snapshots");
    uint64_t count = r.u64();
    if (count != snapshots.size())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "processor count mismatch: file has " +
                             std::to_string(count) +
                             ", machine has " +
                             std::to_string(snapshots.size()))
            .in(r.path())
            .field("snapshots");
    for (NodeSnapshot &snap : snapshots) {
        snap.pixels = r.u64();
        snap.triangles = r.u64();
        snap.accesses = r.u64();
        snap.misses = r.u64();
        snap.texelsFetched = r.u64();
        snap.stallCycles = r.u64();
        snap.idleCycles = r.u64();
        snap.setupBound = r.u64();
        snap.setupWait = r.u64();
    }

    eq.restoreClock(frameStart);
    for (auto &node : nodes)
        node->unserialize(r);

    restoreFailed = false;
}

SequenceResult
runFrameSequence(const std::vector<Scene> &frames,
                 const MachineConfig &config, uint32_t jobs)
{
    if (frames.empty())
        texdist_fatal("empty frame sequence");
    SequenceMachine machine(frames.front(), config, jobs);
    SequenceResult out;
    for (const Scene &frame : frames)
        out.frames.push_back(machine.runFrame(frame));
    out.totalTime = machine.currentTime();
    return out;
}

} // namespace texdist
