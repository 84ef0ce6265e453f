#include "core/options.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "sim/thread_pool.hh"

namespace texdist
{

namespace
{

/** If @p arg is "--<key>=...", return the value part. */
bool
match(const std::string &arg, const char *key, std::string &value)
{
    std::string prefix = std::string("--") + key + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

/** A CLI-surface ParseError naming the offending flag. */
[[noreturn]] void
cliFail(const char *key, ParseRule rule, std::string msg)
{
    throw ParseError(ParseSurface::Cli, rule, std::move(msg))
        .field(std::string("--") + key);
}

} // namespace

uint64_t
parseCliU64(const std::string &value, const char *key)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        cliFail(key, ParseRule::Syntax,
                "expects a non-negative integer, got '" + value +
                    "'");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno == ERANGE)
        cliFail(key, ParseRule::Range,
                "out of range: '" + value + "'");
    return uint64_t(v);
}

uint32_t
parseCliU32(const std::string &value, const char *key)
{
    uint64_t v = parseCliU64(value, key);
    if (v > std::numeric_limits<uint32_t>::max())
        cliFail(key, ParseRule::Range,
                "out of range: '" + value + "'");
    return uint32_t(v);
}

double
parseCliF64(const std::string &value, const char *key)
{
    if (value.empty())
        cliFail(key, ParseRule::Syntax, "expects a number, got ''");
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        cliFail(key, ParseRule::Syntax,
                "expects a number, got '" + value + "'");
    if (errno == ERANGE || !std::isfinite(v))
        cliFail(key, ParseRule::Range,
                "must be finite and in range, got '" + value + "'");
    return v;
}

namespace
{

/**
 * A cache-size flag in KB. Capped at 1 GB: the ×1024 to bytes must
 * not wrap the u32 it is stored in, and anything larger is a typo,
 * not a texture cache.
 */
uint32_t
parseCacheKb(const std::string &value, const char *key)
{
    uint32_t kb = parseCliU32(value, key);
    if (kb > (1u << 20))
        cliFail(key, ParseRule::Range,
                "too large (max 1048576 KB), got '" + value + "'");
    return kb;
}

} // namespace

OracleMode
oracleModeFromString(const std::string &s)
{
    if (s == "off")
        return OracleMode::Off;
    if (s == "cheap")
        return OracleMode::Cheap;
    if (s == "full")
        return OracleMode::Full;
    throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                     "unknown oracle mode '" + s +
                         "' (want off, cheap or full)")
        .field("--oracle");
}

const char *
to_string(OracleMode mode)
{
    switch (mode) {
      case OracleMode::Off: return "off";
      case OracleMode::Cheap: return "cheap";
      case OracleMode::Full: return "full";
    }
    return "?";
}

std::string
SampleSpec::describe() const
{
    std::ostringstream os;
    os << "warm:" << warm << ",detail:" << detail << ",ff:" << skip;
    return os.str();
}

FrameRole
frameRole(const SampleSpec &spec, uint32_t frame)
{
    if (!spec.enabled())
        return FrameRole::Detail;
    // Centered systematic sampling: half the fast-forwarded frames
    // lead the warm-up so each measurement window sits in the middle
    // of its period. Start-of-period windows systematically under- or
    // over-estimate any statistic that drifts across the run (the
    // window average then sits half a period before the run average);
    // centering cancels that first-order bias.
    uint32_t phase = frame % spec.period();
    const uint32_t lead = spec.skip / 2;
    if (phase < lead)
        return FrameRole::Skip;
    phase -= lead;
    if (phase < spec.warm)
        return FrameRole::Warm;
    if (phase < spec.warm + spec.detail)
        return FrameRole::Detail;
    return FrameRole::Skip;
}

SampleSpec
parseSampleSpec(const std::string &value)
{
    SampleSpec spec;
    bool seen[3] = {false, false, false};
    size_t pos = 0;
    while (pos <= value.size()) {
        size_t comma = value.find(',', pos);
        std::string part = value.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        size_t colon = part.find(':');
        if (colon == std::string::npos)
            cliFail("sample", ParseRule::Syntax,
                    "expects key:count pairs "
                    "(warm:W,detail:D[,ff:F]), got '" +
                        part + "'");
        std::string key = part.substr(0, colon);
        std::string count = part.substr(colon + 1);
        int slot;
        uint32_t *field;
        if (key == "warm") {
            slot = 0;
            field = &spec.warm;
        } else if (key == "detail") {
            slot = 1;
            field = &spec.detail;
        } else if (key == "ff") {
            slot = 2;
            field = &spec.skip;
        } else {
            cliFail("sample", ParseRule::Unknown,
                    "unknown component '" + key +
                        "' (want warm, detail or ff)");
        }
        if (seen[slot])
            cliFail("sample", ParseRule::Duplicate,
                    "duplicate component '" + key + "'");
        seen[slot] = true;
        *field = parseCliU32(count, "sample");
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (!seen[1] || spec.detail == 0)
        cliFail("sample", ParseRule::Range,
                "needs a positive detail count, got '" + value +
                    "'");
    // A period of 2^32 frames or more cannot index with u32 math and
    // is a typo, not a sampling plan.
    if (uint64_t(spec.warm) + spec.detail + spec.skip >
        std::numeric_limits<uint32_t>::max())
        cliFail("sample", ParseRule::Range,
                "period overflows: '" + value + "'");
    return spec;
}

uint32_t
parseHostThreads(const std::string &value, const char *flag)
{
    uint64_t n = parseCliU64(value, flag);
    if (n == 0)
        cliFail(flag, ParseRule::Range, "must be positive");
    return ThreadPool::clampThreads(n);
}

std::string
SimOptions::usage()
{
    return
        "texdist_sim - parallel sort-middle texture-mapping "
        "simulator\n"
        "\n"
        "workload:\n"
        "  --scene=<name>        benchmark frame "
        "(default 32massive11255)\n"
        "  --scale=<f>           benchmark scale (default 0.5)\n"
        "  --trace=<path>        replay a binary triangle trace\n"
        "  --list-benchmarks     print available scenes and exit\n"
        "\n"
        "machine (paper defaults unless noted):\n"
        "  --procs=<n>           texture-mapping processors "
        "(default 1)\n"
        "  --dist=block|sli|contiguous\n"
        "                        image distribution (default block)\n"
        "  --param=<n>           block width / SLI group lines "
        "(default 16)\n"
        "  --interleave=raster|diagonal\n"
        "  --cache=setassoc|perfect|infinite|none\n"
        "  --cache-kb=<n>        cache size in KB (default 16)\n"
        "  --cache-ways=<n>      associativity (default 4)\n"
        "  --l2-kb=<n>           add a per-node L2 of n KB "
        "(0 = none)\n"
        "  --l2-inclusive        strict L1 ⊆ L2: L2 evictions "
        "back-\n"
        "                        invalidate the L1 (default off)\n"
        "  --bus=<texels/cycle>  0 = infinite (default 1)\n"
        "  --buffer=<entries>    triangle FIFO (default 10000)\n"
        "  --setup=<cycles>      setup cycles/triangle (default 25)\n"
        "  --prefetch=<frags>    prefetch queue depth (default 64)\n"
        "  --geometry=<tri/cyc>  geometry rate, 0 = ideal\n"
        "  --geom-procs=<n>      geometry engines, 0 = ideal\n"
        "  --geom-cycles=<n>     cycles/triangle per engine "
        "(default 100)\n"
        "\n"
        "robustness (see docs/ROBUSTNESS.md):\n"
        "  --fault=<spec>        inject a fault; repeatable, or\n"
        "                        ';'-separated. spec is\n"
        "                        kind[:victim][,at=<tick>]"
        "[,for=<ticks>][,x=<n>]\n"
        "                        kinds: slow-node, bus-stall,\n"
        "                        fifo-freeze, kill-node; victim is a\n"
        "                        node index or 'rand'\n"
        "                        e.g. --fault=slow-node:3,at=10000,"
        "x=8\n"
        "  --fault-seed=<n>      seed resolving 'rand' victims "
        "(default 0)\n"
        "  --io-fault=<spec>     inject filesystem faults into "
        "every\n"
        "                        persistence surface; repeatable, "
        "or\n"
        "                        ';'-separated. spec is\n"
        "                        kind[:pathsub][,key=<n>|rand]\n"
        "                        kinds: enospc (after=<bytes>),\n"
        "                        eio-read / short-write / "
        "fsync-fail /\n"
        "                        rename-fail (nth=,count=), eintr\n"
        "                        (every=,times=); a 'seed:<n>' "
        "segment\n"
        "                        resolves 'rand' values\n"
        "                        e.g. --io-fault=enospc:.ckpt,"
        "after=4096\n"
        "  --watchdog=fail|degrade\n"
        "                        deadlock response (a FIFO frozen for\n"
        "                        good): fail the frame with a "
        "diagnostic,\n"
        "                        or kill the culprit node and\n"
        "                        redistribute (default fail)\n"
        "\n"
        "sampled fast-forward (see docs/PERF.md):\n"
        "  --sample=warm:<W>,detail:<D>[,ff:<F>]\n"
        "                        SMARTS-style sampling: per period "
        "run\n"
        "                        W functional warm-up frames "
        "(caches\n"
        "                        update, no timing), D detailed "
        "frames,\n"
        "                        then skip F frames outright. Only\n"
        "                        detailed frames produce timing "
        "stats,\n"
        "                        digests, CSV rows and oracle "
        "checks;\n"
        "                        needs --frames>1 and excludes\n"
        "                        checkpoint/restore, manifest and\n"
        "                        replay-verify\n"
        "\n"
        "multi-frame, checkpointing and replay "
        "(see docs/ROBUSTNESS.md):\n"
        "  --frames=<n>          simulate n frames on a persistent\n"
        "                        machine (warm caches); default 1\n"
        "  --jobs=<n>            host threads per frame (default: "
        "all\n"
        "                        hardware threads, clamped there); "
        "results\n"
        "                        are bit-identical for any value\n"
        "  --pan=<dx>[,<dy>]     camera pan in px/frame between "
        "frames\n"
        "  --checkpoint-every=<n>\n"
        "                        write a checkpoint every n frames\n"
        "  --checkpoint-file=<path>\n"
        "                        checkpoint path (default "
        "texdist.ckpt)\n"
        "  --restore=<path>      resume from a checkpoint\n"
        "  --manifest=<path>     record a run manifest with "
        "per-frame\n"
        "                        state digests\n"
        "  --replay-verify=<path>\n"
        "                        re-execute the run in the manifest "
        "and\n"
        "                        fail on the first diverging frame\n"
        "  --oracle=off|cheap|full\n"
        "                        online invariant oracle "
        "(docs/ROBUSTNESS.md):\n"
        "                        per-pixel coverage, texel and "
        "fragment\n"
        "                        conservation and cache-structural\n"
        "                        checks on every frame; full adds "
        "shadow\n"
        "                        differential caches (default "
        "off)\n"
        "\n"
        "output:\n"
        "  --stats-file=<path>   write per-component statistics\n"
        "  --result-csv=<path>   write one CSV row per frame "
        "(atomic)\n"
        "  --help                this text\n"
        "\n"
        "exit codes: 0 ok, 1 usage/config error, 2 frame failed,\n"
        "            3 interrupted (SIGINT/SIGTERM), 4 retired,\n"
        "            5 replay divergence, 6 malformed trace,\n"
        "            7 malformed checkpoint, 8 malformed JSON,\n"
        "            9 malformed result CSV, 13 oracle violation,\n"
        "            14 I/O failure (disk full, failed "
        "fsync/rename)\n";
}

uint32_t
SimOptions::resolvedJobs() const
{
    return jobs > 0 ? jobs : ThreadPool::defaultThreads();
}

SimOptions
SimOptions::parse(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i)
        args.emplace_back(argv[i]);
    return parse(args);
}

SimOptions
SimOptions::parse(const std::vector<std::string> &args)
{
    SimOptions opts;
    for (const std::string &arg : args) {
        std::string v;
        if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else if (arg == "--list-benchmarks") {
            opts.listBenchmarks = true;
        } else if (match(arg, "scene", v)) {
            opts.scene = v;
        } else if (match(arg, "scale", v)) {
            opts.scale = parseCliF64(v, "scale");
            if (opts.scale <= 0.0 || opts.scale > 4.0)
                cliFail("scale", ParseRule::Range,
                        "out of range: " + v);
        } else if (match(arg, "trace", v)) {
            opts.tracePath = v;
        } else if (match(arg, "procs", v)) {
            opts.machine.numProcs = parseCliU32(v, "procs");
            if (opts.machine.numProcs == 0)
                cliFail("procs", ParseRule::Range,
                        "must be positive");
            if (opts.machine.numProcs > 4096)
                cliFail("procs", ParseRule::Range,
                        "too large (max 4096), got " + v);
        } else if (match(arg, "dist", v)) {
            if (v == "block")
                opts.machine.dist = DistKind::Block;
            else if (v == "sli")
                opts.machine.dist = DistKind::SLI;
            else if (v == "contiguous")
                opts.machine.dist = DistKind::Contiguous;
            else
                cliFail("dist", ParseRule::Unknown,
                        "must be block, sli or contiguous, got '" +
                            v + "'");
        } else if (match(arg, "param", v)) {
            opts.machine.tileParam = parseCliU32(v, "param");
            if (opts.machine.tileParam == 0)
                cliFail("param", ParseRule::Range,
                        "must be positive");
        } else if (match(arg, "interleave", v)) {
            if (v == "raster")
                opts.machine.interleave = InterleaveOrder::Raster;
            else if (v == "diagonal")
                opts.machine.interleave = InterleaveOrder::Diagonal;
            else
                cliFail("interleave", ParseRule::Unknown,
                        "must be raster or diagonal, got '" + v +
                            "'");
        } else if (match(arg, "cache", v)) {
            opts.machine.cacheKind = cacheKindFromString(v);
        } else if (match(arg, "cache-kb", v)) {
            opts.machine.cacheGeom.sizeBytes =
                parseCacheKb(v, "cache-kb") * 1024;
        } else if (match(arg, "cache-ways", v)) {
            opts.machine.cacheGeom.ways =
                parseCliU32(v, "cache-ways");
        } else if (match(arg, "l2-kb", v)) {
            uint32_t kb = parseCacheKb(v, "l2-kb");
            opts.machine.hasL2 = kb > 0;
            if (kb > 0)
                opts.machine.l2Geom.sizeBytes = kb * 1024;
        } else if (arg == "--l2-inclusive") {
            opts.machine.l2Inclusive = true;
        } else if (match(arg, "bus", v)) {
            double bus = parseCliF64(v, "bus");
            if (bus < 0.0)
                cliFail("bus", ParseRule::Range,
                        "must be >= 0 (0 = infinite), got " + v);
            opts.machine.infiniteBus = bus <= 0.0;
            if (!opts.machine.infiniteBus)
                opts.machine.busTexelsPerCycle = bus;
        } else if (match(arg, "buffer", v)) {
            opts.machine.triangleBufferSize =
                parseCliU32(v, "buffer");
            if (opts.machine.triangleBufferSize == 0)
                cliFail("buffer", ParseRule::Range,
                        "must be positive");
        } else if (match(arg, "setup", v)) {
            opts.machine.setupCyclesPerTriangle =
                parseCliU32(v, "setup");
        } else if (match(arg, "prefetch", v)) {
            opts.machine.prefetchQueueDepth =
                parseCliU32(v, "prefetch");
            if (opts.machine.prefetchQueueDepth == 0)
                cliFail("prefetch", ParseRule::Range,
                        "must be positive");
        } else if (match(arg, "geometry", v)) {
            opts.machine.geometryTrianglesPerCycle =
                parseCliF64(v, "geometry");
        } else if (match(arg, "geom-procs", v)) {
            opts.machine.geometryProcs =
                parseCliU32(v, "geom-procs");
        } else if (match(arg, "geom-cycles", v)) {
            opts.machine.geometryCyclesPerTriangle =
                parseCliU32(v, "geom-cycles");
            if (opts.machine.geometryCyclesPerTriangle == 0)
                cliFail("geom-cycles", ParseRule::Range,
                        "must be positive");
        } else if (match(arg, "io-fault", v)) {
            opts.ioFault.add(v);
        } else if (match(arg, "fault", v)) {
            opts.machine.faults.add(v);
        } else if (match(arg, "fault-seed", v)) {
            opts.machine.faults.seed = parseCliU64(v, "fault-seed");
        } else if (match(arg, "watchdog", v)) {
            if (v == "fail")
                opts.machine.watchdogPolicy =
                    WatchdogPolicy::FailFrame;
            else if (v == "degrade")
                opts.machine.watchdogPolicy = WatchdogPolicy::Degrade;
            else
                cliFail("watchdog", ParseRule::Unknown,
                        "must be fail or degrade, got '" + v + "'");
        } else if (match(arg, "stats-file", v)) {
            opts.statsFile = v;
        } else if (match(arg, "frames", v)) {
            opts.frames = parseCliU32(v, "frames");
            if (opts.frames == 0)
                cliFail("frames", ParseRule::Range,
                        "must be positive");
        } else if (match(arg, "jobs", v)) {
            opts.jobs = parseHostThreads(v, "jobs");
        } else if (match(arg, "pan", v)) {
            size_t comma = v.find(',');
            if (comma == std::string::npos) {
                opts.panDx = parseCliF64(v, "pan");
                opts.panDy = 0.0;
            } else {
                opts.panDx = parseCliF64(v.substr(0, comma), "pan");
                opts.panDy = parseCliF64(v.substr(comma + 1), "pan");
            }
        } else if (match(arg, "checkpoint-every", v)) {
            opts.checkpointEvery = parseCliU32(v, "checkpoint-every");
        } else if (match(arg, "checkpoint-file", v)) {
            opts.checkpointFile = v;
        } else if (match(arg, "restore", v)) {
            opts.restorePath = v;
        } else if (match(arg, "manifest", v)) {
            opts.manifestPath = v;
        } else if (match(arg, "replay-verify", v)) {
            opts.replayVerifyPath = v;
        } else if (match(arg, "oracle", v)) {
            opts.oracle = oracleModeFromString(v);
        } else if (match(arg, "sample", v)) {
            opts.sample = parseSampleSpec(v);
        } else if (match(arg, "result-csv", v)) {
            opts.resultCsv = v;
        } else {
            throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                             "unknown option '" + arg + "'")
                .field(arg);
        }
    }
    // --checkpoint-file alone still gets the signal-time final
    // checkpoint; --checkpoint-every without a file gets a default.
    if (opts.checkpointEvery > 0 && opts.checkpointFile.empty())
        opts.checkpointFile = "texdist.ckpt";

    // A sampled run skips frames, so nothing downstream that demands
    // every frame's exact state can be combined with it. Reject the
    // combinations up front rather than diverge silently mid-run.
    if (opts.sample.enabled()) {
        auto sampleClash = [](const char *other) {
            throw ParseError(ParseSurface::Cli, ParseRule::Mismatch,
                             std::string("--sample cannot be "
                                         "combined with ") +
                                 other +
                                 ": sampled runs do not compute "
                                 "every frame's exact state")
                .field("--sample");
        };
        if (opts.checkpointEvery > 0)
            sampleClash("--checkpoint-every");
        if (!opts.restorePath.empty())
            sampleClash("--restore");
        if (!opts.manifestPath.empty())
            sampleClash("--manifest");
        if (!opts.replayVerifyPath.empty())
            sampleClash("--replay-verify");
        if (opts.frames <= 1)
            throw ParseError(ParseSurface::Cli, ParseRule::Mismatch,
                             "--sample needs a multi-frame run "
                             "(--frames greater than 1)")
                .field("--sample");
        // The first detailed frame sits after the leading
        // fast-forward and warm-up of the centered window; a run
        // shorter than that measures nothing.
        const uint32_t first_detail =
            opts.sample.skip / 2 + opts.sample.warm;
        if (opts.frames <= first_detail)
            throw ParseError(
                ParseSurface::Cli, ParseRule::Range,
                "--sample window never reaches a detailed frame: "
                "the first one would be frame " +
                    std::to_string(first_detail) + " but --frames is " +
                    std::to_string(opts.frames))
                .field("--sample");
    }
    return opts;
}

} // namespace texdist
