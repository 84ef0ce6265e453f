/**
 * @file
 * The parallel sort-middle machine of Figure 4: a distribution, P
 * texture-mapping nodes with private caches and texture memories,
 * and the idealized geometry feeder, all on one event queue. Running
 * a frame produces the measurements the paper's figures are built
 * from.
 */

#ifndef TEXDIST_CORE_MACHINE_HH
#define TEXDIST_CORE_MACHINE_HH

#include <memory>
#include <ostream>
#include <vector>

#include "core/config.hh"
#include "core/feeder.hh"
#include "core/node.hh"
#include "scene/scene.hh"

namespace texdist
{

/** Per-node measurements of one frame. */
struct NodeResult
{
    uint64_t pixels = 0;
    uint64_t triangles = 0;
    Tick finishTime = 0;
    uint64_t cacheAccesses = 0;
    uint64_t cacheMisses = 0;
    uint64_t texelsFetched = 0;
    uint64_t stallCycles = 0;
    uint64_t idleCycles = 0;
    uint64_t setupBoundTriangles = 0;
    uint64_t setupWaitCycles = 0;
    size_t fifoMaxOccupancy = 0;
    double busUtilization = 0.0;
};

/** Whole-frame measurements. */
struct FrameResult
{
    Tick frameTime = 0; ///< cycles until the last node finished
    std::vector<NodeResult> nodes;

    uint64_t totalPixels = 0;       ///< fragments drawn (all nodes)
    uint64_t totalTexelsFetched = 0;
    uint64_t trianglesDispatched = 0;

    /**
     * Texels fetched from the external memories per fragment drawn —
     * the paper's texel-to-fragment ratio (Figure 6).
     */
    double texelToFragmentRatio = 0.0;

    /**
     * Percent extra work on the busiest node:
     * (max - mean) / mean * 100 over per-node pixel counts — the
     * measure of Figure 5's top graphs.
     */
    double pixelImbalancePercent = 0.0;

    /** Same measure over node finish times. */
    double timeImbalancePercent = 0.0;

    /** Longest FIFO occupancy across nodes. */
    size_t fifoMaxOccupancy = 0;

    /** Mean bus utilization across nodes (0 without a bus). */
    double meanBusUtilization = 0.0;

    /**
     * The frame completed but at least one node was declared dead
     * and its work redistributed to the survivors.
     */
    bool degraded = false;

    /**
     * The frame was abandoned: it deadlocked and degradation was
     * impossible or disabled, or a fault killed every node. The
     * measurements above cover only the work done before that.
     */
    bool failed = false;

    /** Why the frame failed (empty when it didn't). */
    std::string failureReason;

    /**
     * Structured per-node state dump captured at the moment of
     * failure or first deadlock detection (empty otherwise).
     */
    std::string diagnostic;

    /** Fault-injection and recovery counters for the frame. */
    FaultStats faultStats;

    /**
     * The frame ran functionally for sampled fast-forward (--sample
     * warm frames): the work and cache counters are exact, but every
     * timing field is 0. Deliberately not part of the frame digest —
     * digests are only defined for detailed frames.
     */
    bool estimated = false;

    /** Human-readable dump. */
    void print(std::ostream &os) const;
};

/**
 * Per-node counter snapshot for delta accounting: a machine that
 * runs frames back to back on persistent nodes keeps one per node;
 * a single-shot machine passes zeroed snapshots.
 */
struct NodeSnapshot
{
    uint64_t pixels = 0;
    uint64_t triangles = 0;
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t texelsFetched = 0;
    uint64_t stallCycles = 0;
    uint64_t idleCycles = 0;
    uint64_t setupBound = 0;
    uint64_t setupWait = 0;
};

/**
 * Assemble one frame's NodeResult/FrameResult from its nodes — the
 * single assembly path of every machine. Work and cycle counters
 * are deltas against @p snapshots, which then advance to the nodes'
 * current values; finishTime is the node's absolute finish tick and
 * fifoMaxOccupancy its running maximum. frameTime is
 * frame_end - frame_start, bus utilization is measured against
 * frame_end (0 for a zero-length frame), and the time imbalance is
 * over each node's finish relative to frame_start. Callers add the
 * fields only they know (triangles dispatched, faults, failure).
 */
FrameResult
assembleFrameResult(const std::vector<std::unique_ptr<TextureNode>> &nodes,
                    std::vector<NodeSnapshot> &snapshots,
                    Tick frame_start, Tick frame_end);

/** (max - mean) / mean in percent; 0 for empty or all-zero input. */
double imbalancePercent(const std::vector<uint64_t> &work);

/**
 * One machine instance bound to one scene. Build, run() once, read
 * the result (the machine is single-shot; build a new one per
 * configuration, they are cheap relative to a frame).
 */
class ParallelMachine
{
  public:
    ParallelMachine(const Scene &scene, const MachineConfig &config);

    /**
     * Build around an externally constructed distribution (e.g. a
     * MappedBlockDistribution from the oracle balancer). The
     * distribution's screen size and processor count must match the
     * scene and config.
     */
    ParallelMachine(const Scene &scene, const MachineConfig &config,
                    std::unique_ptr<Distribution> distribution);

    /** Simulate the frame to completion. */
    FrameResult run();

    const Distribution &distribution() const { return *dist; }
    const MachineConfig &config() const { return cfg; }

    /** Per-node access for tests and detailed reports. */
    const TextureNode &node(uint32_t i) const { return *nodes[i]; }
    /** Mutable per-node access for the oracle's hooks. */
    TextureNode &node(uint32_t i) { return *nodes[i]; }
    uint32_t numNodes() const { return uint32_t(nodes.size()); }
    const GeometryFeeder &feeder() const { return *feeder_; }

    /**
     * Declare a node dead and have the feeder redistribute its
     * queued work to the survivors (public so tests can exercise
     * degradation directly; normally driven by the fault plan or
     * deadlock detection).
     */
    void killNode(uint32_t victim, const char *why);

  private:
    /** Schedule the configured fault plan onto the event queue. */
    void armFaults();

    /** No work remains and every live node has finished by now. */
    bool frameOver() const;

    /**
     * The queue drained with work remaining: a FIFO refuses forever.
     * Runs at the tick the last live node went idle; kills the
     * culprit under the degrade policy, else fails the frame.
     */
    void onDeadlock();

    /** Abandon the frame: record the reason, cancel all events. */
    void failFrame(const std::string &reason);

    /** Per-node state dump for deadlock diagnostics. */
    std::string dumpMachineState() const;

    uint32_t aliveNodes() const;

    const Scene &scene;
    MachineConfig cfg;
    EventQueue eq;
    std::unique_ptr<Distribution> dist;
    std::vector<std::unique_ptr<TextureNode>> nodes;
    std::unique_ptr<GeometryFeeder> feeder_;
    std::vector<std::unique_ptr<LambdaEvent>> faultEvents;
    FaultStats faultStats;
    bool _degraded = false;
    bool _failed = false;
    std::string _failureReason;
    std::string _diagnostic;
    bool ran = false;
};

/** Convenience: build and run one configuration. */
FrameResult runFrame(const Scene &scene, const MachineConfig &config);

} // namespace texdist

#endif // TEXDIST_CORE_MACHINE_HH
