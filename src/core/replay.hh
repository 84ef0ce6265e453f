/**
 * @file
 * Deterministic-replay manifests. Every multi-frame run can leave a
 * JSON manifest behind recording exactly what was simulated — the
 * scene, the configuration, the fault plan and seed, and a state
 * digest of every completed frame. `--replay-verify` re-executes the
 * run from the same inputs and fails loudly on the first frame whose
 * digest diverges, which is the cheap end-to-end answer to "is this
 * simulator still deterministic after that change?".
 */

#ifndef TEXDIST_CORE_REPLAY_HH
#define TEXDIST_CORE_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "core/error.hh"
#include "core/machine.hh"

namespace texdist
{

/**
 * Everything needed to reproduce (and verify) one multi-frame run.
 * Config and fault plan are stored as their describe() strings: the
 * verify pass reconstructs the machine from the command line and
 * checks the strings match before trusting a digest comparison.
 */
struct RunManifest
{
    std::string scene;     ///< scene name or trace path
    std::string config;    ///< MachineConfig::describe()
    std::string faultPlan; ///< FaultPlan::describe()
    uint64_t faultSeed = 0;
    uint32_t frames = 1;
    double panDx = 0.0; ///< per-frame camera pan in pixels
    double panDy = 0.0;

    /** Per-frame state digests, in frame order. */
    std::vector<uint64_t> digests;

    /**
     * True when the run was cut short (signal, checkpoint exit):
     * digests cover only the completed prefix of `frames`.
     */
    bool interrupted = false;

    /** Write atomically (temp file + rename). */
    void save(const std::string &path) const;

    /**
     * Load and validate; throws ParseError (surface: json, exit
     * code 8) on malformed or inconsistent input, annotated with
     * @p path.
     */
    static RunManifest load(const std::string &path);

    /**
     * Parse and validate a manifest from in-memory JSON text;
     * @p what labels diagnostics in place of a file path. This is
     * the entry point the fuzz harness drives.
     */
    static RunManifest fromJsonText(const std::string &text,
                                    const std::string &what);
};

/**
 * Order-sensitive digest of one frame's results: frame time, totals,
 * fault counters and every per-node measurement. Two runs of the
 * same inputs must produce identical digests frame by frame; any
 * divergence means nondeterminism (or a real behaviour change).
 */
uint64_t digestFrame(const FrameResult &frame);

/** Fixed-width lowercase hex rendering used in manifests. */
std::string digestHex(uint64_t digest);

/**
 * Parse a digestHex() string; throws ParseError on @p surface
 * (digests appear in both JSON manifests and result CSVs).
 */
uint64_t digestFromHex(const std::string &hex,
                       ParseSurface surface = ParseSurface::Json);

/**
 * The per-frame result CSV: a "frame" column, the metric table's
 * result-CSV columns (core/metrics.hh) in order, and the frame's
 * digestHex(). Sweeps merge and resume from these rows, so they are
 * byte-stable.
 */
void frameCsvHeader(CsvWriter &csv);
void frameCsvRow(CsvWriter &csv, uint32_t frame,
                 const FrameResult &result, uint64_t digest);

/**
 * One parsed row of a per-frame result CSV — the validated form of
 * what frameCsvRow() emits.
 */
struct FrameCsvRow
{
    uint32_t frame = 0;
    uint64_t cycles = 0;
    uint64_t pixels = 0;
    uint64_t texelsFetched = 0;
    uint64_t triangles = 0;
    double texelFragmentRatio = 0.0;
    double imbalancePct = 0.0;
    double busUtil = 0.0;
    uint64_t faultsInjected = 0;
    bool degraded = false;
    bool failed = false;
    uint64_t digest = 0;
};

/**
 * Strict parser for the per-frame result CSV a sweep merges and
 * publishes: the header must match frameCsvHeader() exactly, every row
 * needs every column with strictly-parsed numerics, a 16-hex-digit
 * digest, and strictly increasing frame numbers. Malformed input
 * throws ParseError (surface: csv, exit code 9) carrying the byte
 * offset, row index and column name — a merge made from a
 * half-understood CSV would silently drop or duplicate results.
 * @p what labels diagnostics in place of a file path.
 */
std::vector<FrameCsvRow>
parseFrameCsvText(const std::string &text, const std::string &what);

/** parseFrameCsvText() over a file; Io ParseError when unreadable. */
std::vector<FrameCsvRow> parseFrameCsvFile(const std::string &path);

} // namespace texdist

#endif // TEXDIST_CORE_REPLAY_HH
