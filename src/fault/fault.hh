/**
 * @file
 * Deterministic fault injection for the parallel machine.
 *
 * The paper's measurements assume every component behaves; real
 * parallel renderers are dominated by stragglers, stalls and partial
 * failures (Usher et al.'s Distributed FrameBuffer, the PVM Radiance
 * port). A FaultPlan describes a set of faults to inject at chosen
 * ticks so that the slack of each distribution against such failures
 * can be measured the same way the paper measures load imbalance:
 *
 *  - slow-node:   a victim texture-mapping node runs its scan and
 *                 setup engines at 1/x speed (a thermally throttled
 *                 or contended processor);
 *  - bus-stall:   the victim's texture bus transfers nothing for a
 *                 window of cycles (DRAM refresh storm, arbitration
 *                 loss);
 *  - fifo-freeze: the victim's triangle FIFO stops accepting input,
 *                 back-pressuring the in-order geometry feeder (a
 *                 wedged sort-network link);
 *  - kill-node:   the victim dies outright; the machine's graceful
 *                 degradation redistributes its queued work.
 *
 * Plans are parsed from `--fault=` command-line specs and are fully
 * deterministic: an explicit victim is used as given, and `rand`
 * victims are resolved from the plan's seed, so identical seed +
 * plan reproduce the identical frame.
 */

#ifndef TEXDIST_FAULT_FAULT_HH
#define TEXDIST_FAULT_FAULT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/eventq.hh"

namespace texdist
{

/** Victim value meaning "pick a node from the plan's seed". */
constexpr uint32_t faultRandomVictim = 0xffffffffu;

/** The injectable fault kinds. */
enum class FaultKind
{
    SlowNode,   ///< victim's engines run x times slower
    BusStall,   ///< victim's texture bus delivers nothing for a while
    FifoFreeze, ///< victim's triangle FIFO stops accepting input
    KillNode,   ///< victim dies; its queued work is redistributed
};

const char *to_string(FaultKind kind);

/** One fault to inject. */
struct FaultSpec
{
    FaultKind kind = FaultKind::SlowNode;

    /** Victim node index, or faultRandomVictim. */
    uint32_t victim = faultRandomVictim;

    /** Tick at which the fault strikes. */
    Tick at = 0;

    /**
     * How long the fault lasts (`for=` in the spec); 0 means it is
     * permanent for the rest of the frame. Ignored by kill-node.
     */
    Tick duration = 0;

    /** Slowdown multiplier (`x=` in the spec); slow-node only. */
    uint32_t factor = 2;

    /** One-line rendering, parseable back by parseFaultSpec(). */
    std::string describe() const;
};

/**
 * Parse one fault spec of the form
 *
 *   kind[:victim][,at=<tick>][,for=<ticks>][,x=<factor>]
 *
 * e.g. `slow-node:3,at=10000,x=8` or `fifo-freeze:rand,at=500`.
 * Fatal on malformed input.
 */
FaultSpec parseFaultSpec(const std::string &spec);

/** A seedable, deterministic set of faults for one frame. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    /** Seed used to resolve `rand` victims. */
    uint64_t seed = 0;

    bool empty() const { return faults.empty(); }

    /**
     * Append the faults in @p spec (`;`-separated list of fault
     * specs). Fatal on malformed input.
     */
    void add(const std::string &spec);

    /**
     * The plan with every `rand` victim resolved to a concrete node
     * index derived from the seed. Fatal when an explicit victim is
     * out of range for @p num_procs.
     */
    std::vector<FaultSpec> resolve(uint32_t num_procs) const;

    /** One-line rendering for logs and stats headers. */
    std::string describe() const;
};

/** Per-frame fault and recovery statistics, reported in FrameResult. */
struct FaultStats
{
    /** Faults that actually struck during the frame. */
    uint32_t injected = 0;

    /** Nodes declared dead (by plan or deadlock detection). */
    uint32_t nodesKilled = 0;

    /** Queued triangles moved off dead nodes' FIFOs. */
    uint64_t trianglesRedistributed = 0;

    /** Fragments the feeder rerouted away from dead nodes. */
    uint64_t fragmentsRerouted = 0;

    /**
     * Tick of the first deadlock response: the tick the last live
     * node went idle after the event queue drained with work left.
     * Empty when the frame never deadlocked (tick 0 is a valid
     * detection, e.g. a FIFO frozen before the first push).
     */
    std::optional<Tick> detectionTick;
};

} // namespace texdist

#endif // TEXDIST_FAULT_FAULT_HH
