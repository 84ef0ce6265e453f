/**
 * @file
 * Multi-frame simulation. The single-frame studies (like the
 * paper's) start every cache cold; an animated demo re-renders
 * nearly the same frame 60 times a second, so caches — especially
 * board-level L2s — start each frame warm. This machine runs a
 * sequence of frames back to back on persistent nodes: caches and
 * buses carry over, frame N+1's geometry stream starts when frame N
 * has fully retired (double-buffered rendering), and each frame gets
 * its own FrameResult with delta statistics.
 *
 * All frames must share the screen size and a texture address space
 * laid out identically to the first frame's (translateScene and
 * TextureManager::clone guarantee this).
 */

#ifndef TEXDIST_CORE_SEQUENCE_HH
#define TEXDIST_CORE_SEQUENCE_HH

#include <memory>
#include <vector>

#include "core/frame_engine.hh"
#include "core/machine.hh"
#include "geom/rng.hh"
#include "sim/checkpoint.hh"

namespace texdist
{

/** Results of a frame sequence. */
struct SequenceResult
{
    std::vector<FrameResult> frames; ///< per-frame deltas
    Tick totalTime = 0;              ///< end of the last frame
};

/**
 * A persistent machine that renders frames one after another.
 * Construct with the machine configuration and the *first* frame
 * (whose texture manager the nodes bind to), then call runFrame for
 * each frame in order.
 *
 * Frames execute on the deterministic two-phase engine
 * (TwoPhaseFrameEngine): `host_jobs` controls only how many host
 * threads simulate the independent per-node streams. Every result,
 * digest and checkpoint byte is identical for any value of
 * host_jobs — it is a host-side throughput knob, not part of the
 * machine configuration, which is why it does not appear in
 * MachineConfig::describe() and checkpoints restore across
 * different job counts.
 */
class SequenceMachine
{
  public:
    SequenceMachine(const Scene &first_frame,
                    const MachineConfig &config,
                    uint32_t host_jobs = 1);

    /**
     * Simulate one frame; caches stay warm from previous frames.
     * The scene must match the screen size and texture layout of
     * the first frame.
     */
    FrameResult runFrame(const Scene &scene);

    /**
     * Execute one frame functionally for sampled fast-forward
     * (--sample warm frames): every cache sees the frame's texel
     * references in detailed order — tags, LRU and access/miss
     * counters advance exactly as a detailed frame's would — but no
     * simulated time passes and the clock stays put. The returned
     * result carries the exact work and cache deltas with
     * frameTime 0 and `estimated` set. After the first functional
     * frame the machine refuses to serialize(): its timing state no
     * longer corresponds to any exact run. Fault plans are not
     * supported in sampled runs.
     */
    FrameResult runFrameFunctional(const Scene &scene);

    /** End of the last simulated frame. */
    Tick currentTime() const { return frameStart; }

    /** The static image distribution all frames share. */
    const Distribution &distribution() const { return *dist; }

    /** Frames simulated (or restored) so far. */
    uint32_t framesRun() const { return _framesRun; }

    /** Host threads simulating each frame. */
    uint32_t jobs() const { return engine->jobs(); }

    /** Per-node access for the oracle, tests and reports. */
    TextureNode &node(uint32_t i) { return *nodes[i]; }
    const TextureNode &node(uint32_t i) const { return *nodes[i]; }
    uint32_t numNodes() const { return uint32_t(nodes.size()); }

    /**
     * Serialize the machine at a frame boundary: the clock, the
     * fault RNG stream, per-node delta snapshots and every node's
     * full state (caches, engine clocks, FIFO, bus). A machine
     * restored from this checkpoint simulates the remaining frames
     * bit-exactly as the uninterrupted run would have.
     */
    void serialize(CheckpointWriter &w) const;

    /**
     * Restore a checkpoint into a freshly constructed machine with
     * an identical configuration and first frame; throws ParseError
     * (surface: checkpoint) on any mismatch or truncation. Must be
     * called before the first runFrame(). If the restore throws, the
     * machine is poisoned — it holds partial state, and runFrame()
     * panics rather than simulate from it.
     */
    void restore(CheckpointReader &r);

  private:
    /**
     * Build the per-frame fault plan as engine actions: in sequence
     * runs fault ticks are relative to the frame start and the plan
     * strikes every frame, with `rand` victims re-resolved per frame
     * from the session RNG stream. Only faults a sequence can
     * survive without deadlock handling (slow-node, bus-stall) are
     * supported. Updates frameFaultsInjected and maxActionTick.
     */
    std::vector<EngineFaultAction> armFaults(Tick frame_start);

    /** Shared preconditions of runFrame and runFrameFunctional. */
    void checkFrame(const Scene &scene) const;

    /**
     * Throws the typed checkpoint ParseError when the machine is
     * sample-tainted; serialize() calls this first. Kept out of
     * serialize() itself so the taint guard does not perturb the
     * texlint layout fingerprint — the serialized byte layout is
     * unchanged by sampling support.
     */
    void requireExactState() const;

    MachineConfig cfg;
    // texlint: allow(checkpoint) clock only; restore rewinds it to
    // frameStart
    EventQueue eq;
    // texlint: allow(checkpoint) static tile map, a pure function of cfg
    std::unique_ptr<Distribution> dist;
    std::vector<std::unique_ptr<TextureNode>> nodes;
    std::vector<NodeSnapshot> snapshots;
    // texlint: allow(checkpoint) stateless between frames; rebuilt from cfg
    std::unique_ptr<TwoPhaseFrameEngine> engine;
    Rng faultRng;
    // texlint: allow(checkpoint) per-frame scratch, reset by armFaults
    uint32_t frameFaultsInjected = 0;
    /** Latest tick of any action of the current frame's plan. */
    // texlint: allow(checkpoint) per-frame scratch, folded into frameStart
    Tick maxActionTick = 0;
    uint32_t _framesRun = 0;
    Tick frameStart = 0;
    // texlint: allow(checkpoint) restore-once guard, meaningless in a file
    bool restored = false;
    // texlint: allow(checkpoint) poison flag, meaningless in a file
    bool restoreFailed = false;
    /**
     * Set by the first functional frame; serialize() then throws a
     * typed checkpoint ParseError, because the machine's timing
     * state no longer matches any exact detailed run.
     */
    // texlint: allow(checkpoint) taint guard that itself forbids
    // serialization
    bool _sampleTainted = false;
};

/** Convenience: run a whole sequence. */
SequenceResult runFrameSequence(const std::vector<Scene> &frames,
                                const MachineConfig &config,
                                uint32_t jobs = 1);

} // namespace texdist

#endif // TEXDIST_CORE_SEQUENCE_HH
