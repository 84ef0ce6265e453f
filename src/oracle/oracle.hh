/**
 * @file
 * Online invariant oracle (`--oracle=off|cheap|full`).
 *
 * The replay/digest machinery of earlier PRs catches divergence from
 * *yesterday's run*; the oracle catches divergence from the *model*.
 * At every checked frame boundary it verifies the conservation laws
 * the paper's sort-middle machine implies, independent of
 * distribution, fault plan or thread count:
 *
 *  - spatial coverage: every framebuffer pixel is drawn exactly as
 *    often as an independent rasterization of the scene says,
 *    including on fault-degraded frames where a dead node's work was
 *    redistributed (nodes note every fragment into a FrameCoverage;
 *    the map is compared per pixel);
 *  - texel conservation across sampler → L1 → L2 → bus: cache
 *    accesses equal fragments × texelsPerFragment, external texels
 *    equal misses × fill size, and the bus moved exactly the texels
 *    the caches requested (per-level for two-level hierarchies);
 *  - queue occupancy conservation: triangle FIFOs drained at frame
 *    end and never exceeded their bound;
 *  - the frame ledger (when the machine has a screen distribution):
 *    node counters sum to the frame totals, each node drew exactly
 *    the fragments of the pixels it owns, and the frame time is the
 *    last node's finish;
 *  - cache-structural sanity: distinct tags per set, LRU stamps
 *    consistent with the access clock, and L1 ⊆ L2 inclusion when
 *    the configuration promises it;
 *  - (full mode) per-access shadow differential: every cache verdict
 *    cross-checked against a trivially-correct reference LRU model.
 *
 * Both modes run the frame-boundary checks on every frame the caller
 * brackets with beginFrame/endFrame; full mode adds the shadows. The
 * oracle is a host-side observer like `--jobs`: simulated timing,
 * results, digests and checkpoints are bit-identical with it on or
 * off. Violations throw OracleError (exit code 13) carrying frame,
 * node and cycle context.
 */

#ifndef TEXDIST_ORACLE_ORACLE_HH
#define TEXDIST_ORACLE_ORACLE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/coverage.hh"
#include "core/machine.hh"
#include "core/options.hh"
#include "oracle/shadow.hh"
#include "scene/scene.hh"

namespace texdist
{

/** Frame-boundary invariant checker for one machine's nodes. */
class OracleEngine
{
  public:
    /**
     * @param config the machine configuration being checked
     * @param mode Off constructs an inert engine (every call is a
     *        no-op) so drivers need no branching
     */
    OracleEngine(const MachineConfig &config, OracleMode mode);

    /** Detaches sinks and unwraps shadows from attached nodes. */
    ~OracleEngine();

    OracleEngine(const OracleEngine &) = delete;
    OracleEngine &operator=(const OracleEngine &) = delete;

    /**
     * Attach to a machine's nodes (any machine with numNodes() and
     * node(i)): registers coverage sinks and (in full mode) wraps
     * each set-associative cache in a shadow differential
     * decorator. Call once, before the first frame.
     */
    template <typename Machine>
    void
    attach(Machine &machine)
    {
        for (uint32_t i = 0; i < machine.numNodes(); ++i)
            attachNode(machine.node(i));
    }

    OracleMode mode() const { return _mode; }

    /**
     * Arm the oracle for one frame: resets and connects the coverage
     * map and snapshots the buses. Frames run without it (sampled
     * warm-up) are not checked.
     */
    void beginFrame(const Scene &scene);

    /**
     * Run the frame-boundary checks of the frame armed by
     * beginFrame; throws OracleError (exit 13) on any violation.
     *
     * @param dist owner map of @p scene's screen for the
     *        frame-ledger checks; null skips them (sort-last has no
     *        screen distribution, and its frame time includes
     *        composition)
     * @param result frame measurements; null runs the coverage and
     *        structural checks only
     * @param end_cycle absolute tick of the frame end, for error
     *        context
     */
    void endFrame(uint32_t frame, const Scene &scene,
                  const Distribution *dist, const FrameResult *result,
                  uint64_t end_cycle);

    /**
     * FNV digest of the last checked frame's coverage map — the
     * organization-independent "framebuffer digest" the metamorphic
     * harness compares across block / SLI / sort-last runs.
     */
    uint64_t lastCoverageDigest() const { return _lastDigest; }

    /** The live coverage map (null before the first checked frame). */
    const FrameCoverage *coverageMap() const { return coverage.get(); }

  private:
    struct BusSnapshot
    {
        uint64_t texels = 0;
        uint64_t transfers = 0;
        uint64_t l1Misses = 0;
    };

    void attachNode(TextureNode &node);

    /** The node's cache with any shadow decorator peeled off. */
    static const TextureCache &realCache(const TextureNode &node);

    /**
     * Compare the drawn coverage map with a reference rasterization
     * of @p scene; returns the reference's per-pixel fragment counts.
     */
    std::vector<uint32_t> checkCoverage(
        const Scene &scene, std::vector<std::string> &violations);
    void checkLedger(const Distribution &dist,
                     const std::vector<uint32_t> &expected,
                     const FrameResult &result,
                     std::vector<std::string> &violations,
                     int32_t &first_node);
    void checkConservation(const FrameResult &result,
                           std::vector<std::string> &violations,
                           int32_t &first_node);
    void checkStructure(std::vector<std::string> &violations,
                        int32_t &first_node);

    MachineConfig cfg;
    OracleMode _mode;
    std::vector<TextureNode *> nodes;
    std::vector<ShadowedCache *> shadows; ///< parallel to nodes; may be null
    std::unique_ptr<FrameCoverage> coverage;
    std::vector<BusSnapshot> busAtFrameStart;
    bool armed = false; ///< beginFrame ran; endFrame disarms
    uint64_t _lastDigest = 0;
};

} // namespace texdist

#endif // TEXDIST_ORACLE_ORACLE_HH
