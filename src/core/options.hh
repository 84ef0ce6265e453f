/**
 * @file
 * Command-line configuration shared by the simulator driver and any
 * tool that wants "the whole machine on one command line": parses
 * `--key=value` options into a MachineConfig plus workload selection
 * (named benchmark or trace file). Bad input throws a typed
 * ParseError (surface: cli, exit code 1) naming the offending flag;
 * drivers catch it at main(), print the diagnostic and the usage
 * text, and exit 1.
 */

#ifndef TEXDIST_CORE_OPTIONS_HH
#define TEXDIST_CORE_OPTIONS_HH

#include <string>
#include <vector>

#include "core/config.hh"
#include "core/error.hh"
#include "io/fault.hh"

namespace texdist
{

/**
 * Strict decimal flag-value parsers shared by every command line in
 * the tree (the simulator driver, tools/sweep_runner): digits only —
 * no sign, no leading whitespace, no trailing junk, no silent wrap.
 * strtoul alone accepts "-1" (wrapping to a huge value), and a
 * simulator run with a wrapped parameter measures the wrong machine.
 * All failures throw ParseError (surface: cli) naming @p key.
 */
uint64_t parseCliU64(const std::string &value, const char *key);
uint32_t parseCliU32(const std::string &value, const char *key);

/** Strict finite double; same contract as parseCliU64(). */
double parseCliF64(const std::string &value, const char *key);

/**
 * Parse a host thread-count flag value (`--jobs`, `--threads`):
 * strict decimal, rejects 0 / negatives / trailing junk with a
 * ParseError naming @p flag, and clamps requests beyond the hardware
 * width instead of oversubscribing.
 */
uint32_t parseHostThreads(const std::string &value, const char *flag);

/**
 * How much of the online invariant oracle to run. A host-side knob
 * like `--jobs`: the oracle observes the machine and never alters
 * simulated timing, results, digests or checkpoints.
 */
enum class OracleMode
{
    Off,   ///< no oracle (the default)
    Cheap, ///< coverage/conservation/structural checks, every frame
    Full,  ///< cheap plus the shadow differential caches
};

/** Parse "off" / "cheap" / "full" for `--oracle=`. */
OracleMode oracleModeFromString(const std::string &s);

const char *to_string(OracleMode mode);

/**
 * SMARTS-style sampled simulation plan (`--sample=`): the frame
 * sequence is divided into periods of warm + detail + skip frames.
 * Warm frames run functionally — every cache access is made in
 * detailed order (tags and LRU update exactly as in detailed mode)
 * but no event-queue time passes; detail frames run the full timing
 * model and are the only frames that produce timing statistics,
 * digests and CSV rows; skip ("ff") frames are not executed at all.
 * End-to-end throughput estimates scale the mean detailed frame time
 * to the whole sequence (docs/PERF.md discusses the error bounds).
 */
struct SampleSpec
{
    uint32_t warm = 0;   ///< functional warm-up frames per period
    uint32_t detail = 0; ///< detailed (measured) frames per period
    uint32_t skip = 0;   ///< fast-forwarded frames per period

    /** True when a --sample plan was given. */
    bool enabled() const { return detail > 0; }

    uint32_t period() const { return warm + detail + skip; }

    /** The canonical "warm:W,detail:D,ff:F" form. */
    std::string describe() const;
};

/** What one frame of a sampled run does. */
enum class FrameRole
{
    Detail, ///< full timing simulation
    Warm,   ///< functional cache warming, no timing
    Skip,   ///< fast-forwarded, not executed
};

/**
 * Role of frame @p frame (0-based) under @p spec. Each period lays
 * out half its fast-forward frames, then the warm-up, then the
 * detailed window, then the remaining fast-forwards: the measurement
 * window is centered in its period (centered systematic sampling),
 * which cancels the first-order bias start-of-period windows have
 * on any statistic that drifts across the run, and the warm-up
 * immediately precedes the window so it always measures a warm
 * cache. With a disabled spec every frame is Detail.
 */
FrameRole frameRole(const SampleSpec &spec, uint32_t frame);

/**
 * Parse "warm:W,detail:D[,ff:F]" for `--sample=`. detail must be
 * positive; duplicate or unknown keys are typed cli ParseErrors.
 */
SampleSpec parseSampleSpec(const std::string &value);

/** Parsed options of the texdist_sim driver. */
struct SimOptions
{
    MachineConfig machine;

    /** Named benchmark to run (ignored when tracePath is set). */
    std::string scene = "32massive11255";

    /** Linear scene scale for named benchmarks. */
    double scale = 0.5;

    /** Binary triangle trace to replay instead of a benchmark. */
    std::string tracePath;

    /** Where to write the detailed per-component statistics. */
    std::string statsFile;

    /** Frames to simulate; > 1 selects the multi-frame machine. */
    uint32_t frames = 1;

    /**
     * Host threads simulating each multi-frame frame; 0 = auto (all
     * hardware threads). Purely a host-side knob: results are
     * bit-identical for any value, so it is not part of the machine
     * configuration or the checkpoint format.
     */
    uint32_t jobs = 0;

    /** Per-frame camera pan in pixels (multi-frame runs). */
    double panDx = 0.0;
    double panDy = 0.0;

    /** Checkpoint every N frames; 0 disables checkpointing. */
    uint32_t checkpointEvery = 0;

    /** Checkpoint file (default texdist.ckpt when enabled). */
    std::string checkpointFile;

    /** Restore simulator state from this checkpoint before running. */
    std::string restorePath;

    /** Write a run manifest (digests, config, fault plan) here. */
    std::string manifestPath;

    /** Re-execute the run recorded in this manifest and verify. */
    std::string replayVerifyPath;

    /** Online invariant oracle level (`--oracle=off|cheap|full`). */
    OracleMode oracle = OracleMode::Off;

    /**
     * Sampled fast-forward plan (`--sample=warm:W,detail:D[,ff:F]`);
     * disabled by default. Incompatible with checkpointing, replay
     * and manifests — those all need every frame's exact state,
     * which a sampled run deliberately does not compute. The oracle
     * checks the detailed frames.
     */
    SampleSpec sample;

    /** Write one machine-readable CSV row per frame here. */
    std::string resultCsv;

    /**
     * Deterministic filesystem fault plan (`--io-fault=`), installed
     * process-wide in the VFS before the run. A host-side knob like
     * `--jobs`: it perturbs only the persistence surfaces, never the
     * simulated machine, so it is not part of the machine
     * configuration or the checkpoint format.
     */
    io::IoFaultPlan ioFault;

    /** Print the available benchmarks and exit. */
    bool listBenchmarks = false;

    /** Print usage and exit. */
    bool help = false;

    /** The `jobs` field with 0 resolved to the hardware width. */
    uint32_t resolvedJobs() const;

    /**
     * Parse argv. Unknown options throw ParseError (a simulator run
     * with a misspelled parameter must not silently run the
     * default).
     */
    static SimOptions parse(int argc, char **argv);

    /**
     * Parse pre-split arguments (no argv[0]). This is how in-process
     * drivers like tools/sweep_runner configure a run without
     * fork/exec.
     */
    static SimOptions parse(const std::vector<std::string> &args);

    /** Usage text. */
    static std::string usage();
};

} // namespace texdist

#endif // TEXDIST_CORE_OPTIONS_HH
