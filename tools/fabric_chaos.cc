/**
 * @file
 * Deterministic chaos harness for the distributed sweep fabric.
 *
 * Runs the same small sweep twice — once clean with a single
 * worker, once with many workers on one queue while the
 * harness injects seeded failures — and asserts the fabric's merged
 * sweep.csv is byte-identical to the clean run. The injected
 * failure menu covers the faults the fabric claims to survive:
 *
 *   - workers SIGKILLed at a scheduled claim or publish (via the
 *     runner's --chaos-kill hook, so the kill lands at an exact,
 *     reproducible protocol step)
 *   - orphaned leases from workers that no longer exist
 *   - clock-skewed heartbeats (absurd beat counters in a lease)
 *   - torn store entries and flipped payload bytes (CRC damage)
 *   - torn queue markers (a .done file cut mid-write)
 *
 * Every choice flows from --seed through a SplitMix64 generator, so
 * a failing schedule replays exactly. After the chaos sweep
 * converges, the harness re-runs the identical sweep against the
 * same store into a fresh output directory and asserts it completes
 * with 100% store hits — zero recomputation — then fscks the store
 * and requires a clean bill.
 *
 * `--fs-torture=<n>` switches to filesystem-torture mode: instead of
 * protocol-level faults, every fabric worker runs with a seeded
 * `--io-fault=` plan (ENOSPC budgets, failing renames/fsyncs, short
 * writes, EIO reads, EINTR storms) injected into the VFS beneath its
 * own persistence. n injection seeds are swept against one shared
 * store; each seed's sweep must converge (final waves run clean) to
 * a merged sweep.csv byte-identical to the golden run, the shared
 * store must end 100%-hit warm and fsck-clean, and a single-worker
 * probe runs the same plan twice asserting the `io-fault:` strike
 * log replays byte-for-byte — injected failures are deterministic
 * given the seed.
 *
 * Usage:
 *   fabric_chaos --sim=<texdist_sim> --runner=<sweep_runner> \
 *                --work=<dir> [--workers=4] [--seed=1] \
 *                [--waves=8] [--fs-torture=<n>] [--bench-out=<json>]
 *
 * Prints "PASS: ..." and exits 0 on success; prints "FAIL: ..." and
 * exits 1 on any divergence.
 */

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <cerrno>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/error.hh"
#include "core/json.hh"
#include "core/options.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"

using namespace texdist;

namespace fs = std::filesystem;

namespace
{

struct HarnessOptions
{
    std::string simPath;
    std::string runnerPath;
    std::string workDir;
    uint32_t workers = 4;
    uint64_t seed = 1;
    uint32_t maxWaves = 8;
    uint32_t fsTorture = 0; ///< 0 = protocol-chaos mode
    std::string benchOut;
};

/** SplitMix64: tiny, seedable, and plenty for a failure schedule. */
struct SplitMix64
{
    uint64_t state;

    explicit SplitMix64(uint64_t seed) : state(seed) {}

    uint64_t next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform-ish draw in [0, bound). */
    uint64_t below(uint64_t bound) { return next() % bound; }
};

[[noreturn]] void
failHarness(const std::string &msg)
{
    std::cerr << "FAIL: " << msg << "\n";
    std::exit(1);
}

bool
match(const std::string &arg, const char *key, std::string &value)
{
    std::string prefix = std::string("--") + key + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

HarnessOptions
parseArgs(int argc, char **argv)
{
    HarnessOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string v;
        if (match(arg, "sim", v))
            opts.simPath = v;
        else if (match(arg, "runner", v))
            opts.runnerPath = v;
        else if (match(arg, "work", v))
            opts.workDir = v;
        else if (match(arg, "workers", v))
            opts.workers = parseCliU32(v, "workers");
        else if (match(arg, "seed", v))
            opts.seed = parseCliU64(v, "seed");
        else if (match(arg, "waves", v))
            opts.maxWaves = parseCliU32(v, "waves");
        else if (match(arg, "fs-torture", v))
            opts.fsTorture = parseCliU32(v, "fs-torture");
        else if (match(arg, "bench-out", v))
            opts.benchOut = v;
        else
            texdist_fatal("unknown option '", arg, "'");
    }
    if (opts.simPath.empty() || opts.runnerPath.empty() ||
        opts.workDir.empty())
        texdist_fatal("--sim, --runner and --work are required");
    if (opts.workers < 2)
        texdist_fatal("--workers must be at least 2 (the point is "
                      "the multi-worker protocol)");
    return opts;
}

/** The sweep under test: small enough for CI, wide enough that a
 * kill schedule always lands mid-sweep. */
const char *const sweepConfigText =
    "# fabric_chaos sweep: six distributions over one scene\n"
    "block4:  --dist=block --param=4\n"
    "block8:  --dist=block --param=8\n"
    "block16: --dist=block --param=16\n"
    "sli2:    --dist=sli --param=2\n"
    "sli4:    --dist=sli --param=4\n"
    "sli8:    --dist=sli --param=8\n";

const std::vector<std::string> sweepNames = {
    "block4", "block8", "block16", "sli2", "sli4", "sli8"};

// --oracle=cheap checks every frame of the chaos run: a
// fault-recovery bug that corrupts coverage or conservation surfaces
// as exit 13 instead of a silently wrong (but byte-stable) sweep.csv.
const std::vector<std::string> commonArgs = {
    "--scene=quake", "--scale=0.25", "--procs=4", "--frames=4",
    "--oracle=cheap"};

/** fork/exec @p argv with stdout+stderr appended to @p logPath. */
pid_t
spawn(std::vector<std::string> argv, const std::string &logPath)
{
    pid_t pid = fork();
    if (pid < 0)
        texdist_fatal("fork failed: ", std::strerror(errno));
    if (pid != 0)
        return pid;
    int fd =
        ::open(logPath.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        ::close(fd);
    }
    std::vector<char *> cargv;
    for (std::string &arg : argv)
        cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    execv(cargv[0], cargv.data());
    std::fprintf(stderr, "exec failed: %s: %s\n", cargv[0],
                 std::strerror(errno));
    _exit(127);
}

/** Wait for @p pid; exit code, or 128+signal for signal deaths. */
int
await(pid_t pid)
{
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            texdist_fatal("waitpid failed: ", std::strerror(errno));
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        failHarness("cannot read " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Run @p argv to completion, logging to @p logPath; fail unless
 * it exits 0. */
void
runOrFail(std::vector<std::string> argv, const std::string &logPath,
          const std::string &what)
{
    int code = await(spawn(std::move(argv), logPath));
    if (code != 0)
        failHarness(what + " exited " + std::to_string(code) +
                    " (see " + logPath + ")");
}

/** argv of one sweep_runner worker on @p outDir: @p extra, then the
 * common simulator args. */
std::vector<std::string>
runnerArgv(const HarnessOptions &opts, const std::string &outDir,
           const std::vector<std::string> &extra)
{
    std::vector<std::string> argv = {
        opts.runnerPath,
        "--sim=" + opts.simPath,
        "--configs=" + opts.workDir + "/sweep.cfg",
        "--out=" + outDir,
    };
    argv.insert(argv.end(), extra.begin(), extra.end());
    argv.push_back("--");
    argv.insert(argv.end(), commonArgs.begin(), commonArgs.end());
    return argv;
}

/**
 * Inject one seeded filesystem fault into the live fabric state.
 * Returns a description of what it did (for the harness log).
 */
std::string
injectFault(SplitMix64 &rng, const std::string &chaosOut,
            const std::string &storeDir)
{
    std::string queue = chaosOut + "/queue";
    // Entries currently in the store, sorted for determinism.
    std::vector<std::string> entries;
    std::error_code ec;
    for (const fs::directory_entry &de :
         fs::directory_iterator(storeDir, ec))
        if (de.path().extension() == ".res")
            entries.push_back(de.path().string());
    std::sort(entries.begin(), entries.end());

    switch (rng.below(5)) {
    case 0: { // orphaned lease from a dead worker
        const std::string &name = sweepNames[size_t(
            rng.below(sweepNames.size()))];
        std::ofstream os(queue + "/" + name + ".lease",
                         std::ios::trunc);
        os << "{\"format\":\"texdist-lease\",\"version\":1,"
              "\"config\":\""
           << name
           << "\",\"worker\":\"ghost\",\"beat\":3,"
              "\"generation\":1}";
        return "orphan lease on " + name;
    }
    case 1: { // clock-skewed heartbeat: absurd beat counter
        const std::string &name = sweepNames[size_t(
            rng.below(sweepNames.size()))];
        std::ofstream os(queue + "/" + name + ".lease",
                         std::ios::trunc);
        os << "{\"format\":\"texdist-lease\",\"version\":1,"
              "\"config\":\""
           << name
           << "\",\"worker\":\"skewed\","
              "\"beat\":1152921504606846976,\"generation\":7}";
        return "clock-skewed lease on " + name;
    }
    case 2: { // torn store entry: final bytes cut mid-write
        if (entries.empty())
            return "no store entries yet (torn-entry fault skipped)";
        const std::string &victim =
            entries[size_t(rng.below(entries.size()))];
        std::string bytes = slurp(victim);
        std::ofstream os(victim,
                         std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 std::streamsize(bytes.size() / 2));
        return "tore store entry " + victim;
    }
    case 3: { // flipped payload byte: CRC must catch it
        if (entries.empty())
            return "no store entries yet (bit-flip fault skipped)";
        const std::string &victim =
            entries[size_t(rng.below(entries.size()))];
        std::string bytes = slurp(victim);
        if (bytes.size() > 40) {
            size_t at =
                40 + size_t(rng.below(bytes.size() - 40));
            bytes[at] = char(uint8_t(bytes[at]) ^ 0x20);
        }
        std::ofstream os(victim,
                         std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), std::streamsize(bytes.size()));
        return "flipped a byte in " + victim;
    }
    default: { // torn done marker: JSON cut mid-write
        const std::string &name = sweepNames[size_t(
            rng.below(sweepNames.size()))];
        std::string marker = queue + "/" + name + ".done";
        std::ifstream probe(marker);
        if (probe)
            return "done marker for " + name +
                   " already exists (torn-marker fault skipped)";
        std::ofstream os(marker, std::ios::trunc);
        os << "{\"format\":\"texdist-do";
        return "torn done marker on " + name;
    }
    }
}

/**
 * One seeded `--io-fault=` plan for a torture-wave worker: one or
 * two segments drawn from the full fault menu, with concrete values
 * so the schedule is a pure function of the harness seed. One arm
 * deliberately uses `nth=rand` under a `seed:` segment so the
 * spec-side deterministic resolution is exercised end to end.
 */
std::string
makeIoFaultSpec(SplitMix64 &rng)
{
    auto segment = [&]() -> std::string {
        switch (rng.below(7)) {
        case 0:
            return "enospc,after=" +
                   std::to_string(4096 + rng.below(65536));
        case 1:
            return "rename-fail:.res,nth=" +
                   std::to_string(1 + rng.below(3));
        case 2:
            return "fsync-fail,nth=" +
                   std::to_string(1 + rng.below(4)) + ",count=" +
                   std::to_string(1 + rng.below(2));
        case 3:
            return "short-write,nth=" +
                   std::to_string(1 + rng.below(4)) + ",count=" +
                   std::to_string(1 + rng.below(3));
        case 4:
            return "eio-read:.res,nth=" +
                   std::to_string(1 + rng.below(2));
        case 5:
            return "eintr,every=" +
                   std::to_string(2 + rng.below(4)) + ",times=" +
                   std::to_string(10 + rng.below(50));
        default:
            return "seed:" + std::to_string(rng.below(1u << 20)) +
                   ";rename-fail,nth=rand";
        }
    };
    std::string spec = segment();
    if (rng.below(2) == 0)
        spec.append(";").append(segment());
    return spec;
}

/**
 * Strip the process-unique scratch suffix (`.tmp.<pid>.<n>`) from an
 * `io-fault:` strike line so two runs of the same plan compare
 * byte-identically across different pids.
 */
std::string
scrubScratch(std::string line)
{
    size_t at = line.find(".tmp.");
    if (at != std::string::npos) {
        size_t quote = line.find('\'', at);
        if (quote != std::string::npos)
            line.replace(at, quote - at, ".tmp.X");
    }
    return line;
}

/** The `io-fault:` strike lines of @p logPath, scrubbed, in order. */
std::string
ioFaultLines(const std::string &logPath)
{
    std::istringstream is(slurp(logPath));
    std::string line;
    std::string out;
    while (std::getline(is, line))
        if (line.rfind("io-fault:", 0) == 0)
            out += scrubScratch(line) + "\n";
    return out;
}

/**
 * Fresh work directory and the reference result: a clean one-worker
 * sweep on its own store. Returns its merged sweep.csv.
 */
std::string
goldenSweep(const HarnessOptions &opts)
{
    fs::remove_all(opts.workDir);
    fs::create_directories(opts.workDir);
    atomicWriteFile(opts.workDir + "/sweep.cfg", sweepConfigText);
    std::cout << "fabric_chaos: golden single-worker sweep...\n";
    const std::string golden = opts.workDir + "/golden";
    runOrFail(runnerArgv(opts, golden, {}), opts.workDir + "/golden.log",
              "golden sweep");
    std::string csv = slurp(golden + "/sweep.csv");
    if (csv.empty())
        failHarness("golden sweep.csv is empty");
    return csv;
}

/**
 * One wave: opts.workers concurrent workers named `<tag>-<w>` on
 * @p out and @p store, each adding what one @p extra() call returns
 * to its arguments.
 * Exit 0 (finished the sweep) and 3 are normal and @p deathCode is
 * the schedule's own, counted into @p deaths; any other exit fails
 * the harness. Returns whether some worker finished the sweep.
 */
bool
runWave(const HarnessOptions &opts, const std::string &out,
        const std::string &store, const std::string &tag,
        const std::function<std::vector<std::string>()> &extra,
        int deathCode, uint64_t &deaths)
{
    std::vector<pid_t> pids;
    for (uint32_t w = 0; w < opts.workers; ++w) {
        const std::string id = tag + "-" + std::to_string(w);
        std::vector<std::string> args = {
            "--store=" + store, "--worker-id=" + id, "--poll-ms=20",
            "--lease-ttl-polls=15"};
        for (std::string &arg : extra())
            args.push_back(std::move(arg));
        pids.push_back(spawn(runnerArgv(opts, out, args),
                             opts.workDir + "/" + id + ".log"));
    }
    bool finished = false;
    for (uint32_t w = 0; w < pids.size(); ++w) {
        const int code = await(pids[w]);
        if (code == 0)
            finished = true;
        else if (code == deathCode)
            ++deaths;
        else if (code != 3)
            failHarness("worker " + tag + "-" + std::to_string(w) +
                        " exited " + std::to_string(code) +
                        " (only exit " + std::to_string(deathCode) +
                        " deaths are part of the schedule)");
    }
    return finished;
}

/**
 * The identical sweep into a fresh out dir against @p store must
 * merge byte-identically to @p goldenCsv with every config a store
 * hit, and the store must then fsck clean. Returns the hit count.
 */
uint64_t
warmRerunAndFsck(const HarnessOptions &opts, const std::string &store,
                 const std::string &goldenCsv)
{
    std::cout << "fabric_chaos: warm-store re-run...\n";
    const std::string rerun = opts.workDir + "/rerun";
    runOrFail(runnerArgv(opts, rerun,
                         {"--store=" + store, "--worker-id=rerun"}),
              opts.workDir + "/rerun.log", "warm-store re-run");
    if (slurp(rerun + "/sweep.csv") != goldenCsv)
        failHarness("warm-store sweep.csv differs from golden");
    JsonValue stats =
        JsonValue::parseFile(rerun + "/fabric_stats.rerun.json");
    const uint64_t hits = stats.at("store_hits").asU64();
    const uint64_t misses = stats.at("store_misses").asU64();
    if (misses != 0 || hits != sweepNames.size())
        failHarness("warm-store re-run was not 100% hits: " +
                    std::to_string(hits) + " hit(s), " +
                    std::to_string(misses) + " miss(es)");
    runOrFail({opts.runnerPath, "--fsck", "--store=" + store},
              opts.workDir + "/fsck.log",
              "store fsck (no injected fault may leave damage)");
    return hits;
}

/** Write the --bench-out report, if asked: @p fields after the
 * harness parameters. */
void
writeBench(const HarnessOptions &opts, const char *format,
           const std::vector<std::pair<const char *, double>> &fields)
{
    if (opts.benchOut.empty())
        return;
    JsonValue root = JsonValue::makeObject();
    root.set("format", JsonValue::makeString(format));
    root.set("version", JsonValue::makeNumber(1));
    root.set("workers", JsonValue::makeNumber(double(opts.workers)));
    root.set("seed", JsonValue::makeNumber(double(opts.seed)));
    for (const auto &[key, value] : fields)
        root.set(key, JsonValue::makeNumber(value));
    atomicWriteFile(opts.benchOut, root.dump());
}

/**
 * Run the six-config sweep once as a single worker under @p spec and
 * return the scrubbed strike log. The worker id is fixed and its
 * poll period is far above the probe's run time, so no timing-
 * dependent heartbeat write enters the log. The probe reuses one
 * directory (wiped between runs) so both runs perform the identical
 * I/O sequence and even the paths in the strikes match.
 */
std::string
runProbe(const HarnessOptions &opts, const std::string &spec)
{
    const std::string dir = opts.workDir + "/probe";
    fs::remove_all(dir);
    fs::create_directories(dir);
    runOrFail(runnerArgv(opts, dir + "/out",
                         {"--worker-id=probe", "--poll-ms=60000",
                          "--io-fault=" + spec}),
              dir + "/probe.log",
              "determinism probe under --io-fault=" + spec +
                  " (transient faults must be survivable)");
    return ioFaultLines(dir + "/probe.log");
}

/**
 * Filesystem-torture mode: sweep opts.fsTorture injection seeds, all
 * against one shared store. See the file comment for the contract
 * each seed must uphold.
 */
int
runTortureHarness(const HarnessOptions &opts)
{
    const std::string goldenCsv = goldenSweep(opts);
    const std::string store = opts.workDir + "/store";

    // Same plan, same strikes — twice. Transient-only plan (short
    // writes + an EINTR storm): the run must survive it, and the
    // strike log must replay exactly.
    std::cout << "fabric_chaos: io-fault determinism probe...\n";
    const std::string probeSpec =
        "seed:5;short-write:.res,nth=2,count=4;"
        "eintr,every=3,times=25";
    std::string first = runProbe(opts, probeSpec);
    std::string second = runProbe(opts, probeSpec);
    if (first.empty())
        failHarness("determinism probe injected no faults (plan " +
                    probeSpec + " never fired)");
    if (first != second)
        failHarness("io-fault strike log is not deterministic: two "
                    "runs of '" + probeSpec + "' diverged");
    std::cout << "  probe: strike log of "
              << size_t(std::count(first.begin(), first.end(),
                                   '\n'))
              << " line(s) replayed byte-identically\n";

    // Seeded torture sweeps on a shared store.
    fs::create_directories(store);
    uint64_t ioDeaths = 0;
    uint64_t tortured = 0;
    uint32_t wavesUsed = 0;
    for (uint32_t s = 0; s < opts.fsTorture; ++s) {
        SplitMix64 rng(opts.seed + 0x100ab1ef5ull * (s + 1));
        const std::string seed = std::to_string(s);
        const std::string out = opts.workDir + "/torture" + seed;
        fs::create_directories(out);
        bool converged = false;
        uint32_t wave = 0;
        for (; wave < opts.maxWaves && !converged; ++wave) {
            // The last two waves run clean so every seed converges
            // within the wave budget no matter how hostile the
            // schedule was.
            const bool clean = wave + 2 >= opts.maxWaves;
            converged = runWave(
                opts, out, store, "t" + seed + "-" + std::to_string(wave),
                [&]() -> std::vector<std::string> {
                    if (clean)
                        return {};
                    ++tortured;
                    return {"--io-fault=" + makeIoFaultSpec(rng)};
                },
                ioErrorExitCode, ioDeaths);
        }
        if (!converged)
            failHarness("torture seed " + seed +
                        " did not converge within " +
                        std::to_string(opts.maxWaves) + " waves");
        wavesUsed += wave;
        if (slurp(out + "/sweep.csv") != goldenCsv)
            failHarness("torture seed " + seed +
                        ": merged sweep.csv differs from the "
                        "golden run");
        std::cout << "  seed " << s << ": converged after " << wave
                  << " wave(s)\n";
    }
    std::cout << "fabric_chaos: " << opts.fsTorture
              << " torture seed(s), " << tortured
              << " injected plan(s), " << ioDeaths
              << " worker death(s) on exit 14\n";

    const uint64_t hits = warmRerunAndFsck(opts, store, goldenCsv);
    writeBench(opts, "texdist-fs-torture",
               {{"torture_seeds", double(opts.fsTorture)},
                {"waves", double(wavesUsed)},
                {"injected_plans", double(tortured)},
                {"io_deaths", double(ioDeaths)},
                {"rerun_store_hits", double(hits)}});
    std::cout << "PASS: " << opts.fsTorture
              << " io-fault seed(s) over a " << opts.workers
              << "-worker fabric; every merged sweep.csv "
              << "byte-identical to the clean run, store fsck "
              << "clean, warm re-run " << hits << "/"
              << sweepNames.size() << " hits\n";
    return 0;
}

int
runHarness(const HarnessOptions &opts)
{
    const std::string goldenCsv = goldenSweep(opts);
    const std::string chaos = opts.workDir + "/chaos";
    const std::string store = opts.workDir + "/store";

    SplitMix64 rng(opts.seed);
    fs::create_directories(chaos);
    fs::create_directories(store);
    uint32_t wave = 0;
    uint64_t kills = 0;
    uint64_t deaths = 0;
    uint64_t faults = 0;
    bool converged = false;
    for (; wave < opts.maxWaves && !converged; ++wave) {
        // From wave 1 on, damage the live fabric state before the
        // fresh workers attach to it.
        if (wave > 0) {
            uint64_t n = 1 + rng.below(3);
            for (uint64_t f = 0; f < n; ++f) {
                std::cout << "  wave " << wave << ": injected "
                          << injectFault(rng, chaos, store) << "\n";
                ++faults;
            }
        }
        // Wave 0 kills every worker at its first claim or publish —
        // nobody can finish the sweep, guaranteeing orphaned leases
        // and partial store state for later waves to recover.
        // Afterwards roughly half the fleet is doomed at a seeded
        // step, and the last two waves run clean so the sweep always
        // converges within the wave budget.
        converged = runWave(
            opts, chaos, store,
            std::string("w").append(std::to_string(wave)),
            [&]() -> std::vector<std::string> {
                const bool doomed = wave == 0 ||
                                    (wave + 2 < opts.maxWaves &&
                                     rng.below(2) == 0);
                if (!doomed)
                    return {};
                const bool atClaim = rng.below(2) == 0;
                const uint64_t after =
                    wave == 0 ? 1 : 1 + rng.below(atClaim ? 3 : 2);
                ++kills;
                return {std::string("--chaos-kill=")
                            .append(atClaim ? "claim" : "publish")
                            .append(":")
                            .append(std::to_string(after))};
            },
            128 + SIGKILL, deaths);
    }
    if (!converged)
        failHarness("fabric sweep did not converge within " +
                    std::to_string(opts.maxWaves) + " waves");
    std::cout << "fabric_chaos: converged after " << wave
              << " wave(s), " << kills << " scheduled kill(s), "
              << deaths << " SIGKILL death(s), " << faults
              << " injected fault(s)\n";
    if (slurp(chaos + "/sweep.csv") != goldenCsv)
        failHarness("chaos sweep.csv differs from the golden "
                    "single-worker run");

    const uint64_t hits = warmRerunAndFsck(opts, store, goldenCsv);
    writeBench(opts, "texdist-fabric-chaos",
               {{"waves", double(wave)},
                {"scheduled_kills", double(kills)},
                {"injected_faults", double(faults)},
                {"rerun_store_hits", double(hits)},
                {"rerun_store_misses", 0.0}});
    std::cout << "PASS: " << opts.workers
              << "-worker chaos sweep is byte-identical to the "
              << "clean run; warm-store re-run hit " << hits << "/"
              << sweepNames.size() << " with zero recomputation\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        HarnessOptions opts = parseArgs(argc, argv);
        return opts.fsTorture > 0 ? runTortureHarness(opts)
                                  : runHarness(opts);
    } catch (const ParseError &e) {
        std::cerr << "FAIL: " << e.describe() << "\n";
        return 1;
    }
}
