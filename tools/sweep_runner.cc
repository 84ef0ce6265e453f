/**
 * @file
 * Supervised sweep runner: runs a list of simulator configurations
 * as isolated child processes, with per-config timeouts, bounded
 * retry with backoff, a crash-safe JSON manifest of partial results,
 * and `--resume` to skip configurations that already completed — so
 * an overnight sweep that dies at config 71 of 96 costs 25 configs,
 * not 96.
 *
 * The sweep is described by a plain-text config file, one
 * configuration per line:
 *
 *     # name: simulator arguments
 *     block8:  --procs=16 --dist=block --param=8
 *     block16: --procs=16 --dist=block --param=16
 *     sli4:    --procs=16 --dist=sli --param=4
 *
 * Each config runs `<sim> <common args> <config args>
 * --result-csv=<out>/<name>.csv`; stdout+stderr go to
 * `<out>/<name>.log`. When every config has completed, the
 * per-config CSVs are merged (in config-file order, with a leading
 * `config` column) into `<out>/sweep.csv` via an atomic rename, so
 * an interrupted sweep resumed later produces a byte-identical
 * merged file.
 *
 * Usage:
 *   sweep_runner --sim=build/tools/texdist_sim --configs=sweep.txt \
 *                --out=results [--timeout=300] [--retries=2] \
 *                [--resume] [--threads=<n>] [--store=<dir>] \
 *                [--fabric] [--worker-id=<id>] \
 *                [-- <common simulator args...>]
 *
 * `--threads=<n>` switches to in-process mode: configurations are
 * simulated on a host worker pool inside this process (no fork/exec,
 * no --sim binary needed), n at a time. Output files — per-config
 * CSVs, the manifest, and the merged sweep.csv — are byte-identical
 * to subprocess mode, so the two modes are interchangeable and
 * `--resume` works across them. The trade-off is isolation:
 * in-process configs share one address space, so there is no
 * per-config timeout or crash retry, and flags that assume a
 * dedicated process (checkpointing, manifests, replay verification,
 * stats files) are rejected up front.
 *
 * `--store=<dir>` memoizes results in a content-addressed store
 * (src/fabric): a config whose key — FNV digest of (canonical
 * config JSON, trace digest, code version) — already has a
 * CRC-valid entry is served from the store instead of re-simulated.
 *
 * `--fabric` turns this process into one worker of a multi-worker
 * sweep: any number of `sweep_runner --fabric` processes sharing
 * the same --out, --configs and --store cooperate through a
 * filesystem lease queue (`<out>/queue/`). Workers claim configs
 * via O_EXCL claim files, heartbeat while running, seize leases
 * whose holders stopped heartbeating (crash, SIGKILL, wedge), and
 * speculatively duplicate stragglers — all safe because results are
 * digest-keyed and byte-identical, so any publish race has one
 * whole-file winner with the same content. Fabric state lives
 * entirely in the queue markers and the store: a worker fleet can
 * be killed and restarted at any point and the sweep converges.
 *
 * Exit codes: 0 every config done, 1 usage/config error, 2 some
 * configs failed permanently, 3 interrupted (the manifest still
 * records everything that finished), 8 malformed sweep manifest,
 * 9 malformed result CSV, 10 lease lost (--fabric-lease-strict),
 * 11 corrupt store entry (--fabric-store-strict), 12 fsck
 * quarantined entries (--fsck), 14 supervisor-side I/O failure
 * (environmental — relaunch; never retained a partial artifact).
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <cerrno>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/error.hh"
#include "core/interframe.hh"
#include "core/json.hh"
#include "core/options.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "io/vfs.hh"
#include "oracle/oracle.hh"
#include "fabric/lease.hh"
#include "fabric/store.hh"
#include "scene/benchmarks.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"
#include "trace/trace.hh"

using namespace texdist;

namespace
{

constexpr int exitOk = 0;
constexpr int exitSomeFailed = 2;
constexpr int exitInterrupted = 3;

volatile std::sig_atomic_t g_signal = 0;
volatile pid_t g_child = -1;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
    // Forward to the running child so it can flush its own partial
    // results; the supervisor loop notices g_signal afterwards.
    pid_t child = g_child;
    if (child > 0)
        kill(child, SIGTERM);
}

/** One configuration line of the sweep file. */
struct SweepConfig
{
    std::string name;
    std::string args;

    // Supervision state, persisted in the manifest.
    std::string status = "pending"; ///< pending|done|failed
    int attempts = 0;
    int signalDeaths = 0;
    int exitCode = -1;
};

struct RunnerOptions
{
    std::string simPath;
    std::string configsPath;
    std::string outDir;
    long timeoutSec = 300;
    int retries = 2;
    int signalRetries = 3;
    long backoffMs = 500;
    bool resume = false;
    uint32_t threads = 0; ///< 0 = subprocess mode

    // Fabric / store options.
    std::string storeDir;
    bool fabricMode = false;
    std::string workerId;
    long pollMs = 50;
    uint64_t leaseTtlPolls = 100;   ///< stale after this many polls
    uint64_t stragglerPolls = 400;  ///< speculate after this many
    bool fsckMode = false;
    bool leaseStrict = false;
    bool storeStrict = false;

    // Deterministic chaos-testing hook (tools/fabric_chaos): raise
    // SIGKILL on ourselves after the n-th event of a phase.
    std::string chaosKillPhase; ///< "claim" or "publish"
    uint64_t chaosKillAfter = 0;

    // Deterministic filesystem fault plan installed in THIS process:
    // the supervisor's own persistence (manifest, store, queue,
    // merge) runs against the hostile filesystem. Child simulators
    // get their own plans via `-- --io-fault=...` common args.
    io::IoFaultPlan ioFault;

    std::vector<std::string> commonArgs;
};

bool
match(const std::string &arg, const char *key, std::string &value)
{
    std::string prefix = std::string("--") + key + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

std::string
usage()
{
    return
        "sweep_runner - supervised, resumable simulator sweep\n"
        "\n"
        "  --sim=<path>       texdist_sim binary to run\n"
        "  --configs=<file>   sweep file: one 'name: args' per "
        "line\n"
        "  --out=<dir>        output directory (created if "
        "missing)\n"
        "  --timeout=<sec>    per-config wall-clock limit "
        "(default 300)\n"
        "  --retries=<n>      extra attempts per deterministic\n"
        "                     failure (default 2); typed parse-error"
        "\n"
        "                     exits (1, 6-9, 11) never retry\n"
        "  --signal-retries=<n>  extra attempts when the child died"
        "\n"
        "                     on a signal or timeout (default 3)\n"
        "  --backoff-ms=<n>   base retry backoff, doubled per "
        "attempt\n"
        "                     (default 500)\n"
        "  --resume           skip configs the manifest records as "
        "done\n"
        "  --threads=<n>      simulate n configs at a time inside "
        "this\n"
        "                     process (no fork/exec; --sim unused;\n"
        "                     clamped to the hardware width)\n"
        "  --store=<dir>      content-addressed result store: serve"
        "\n"
        "                     repeat configs from cache, publish new"
        "\n"
        "                     results\n"
        "  --fsck             validate every store entry, "
        "quarantine\n"
        "                     damage, exit 12 if anything moved\n"
        "  --fabric           run as one worker of a shared-queue\n"
        "                     multi-process sweep (needs --store)\n"
        "  --worker-id=<id>   fabric worker name (default w<pid>)\n"
        "  --poll-ms=<n>      fabric idle poll period and lease\n"
        "                     heartbeat period while a child runs\n"
        "                     (default 50); child exit is noticed\n"
        "                     at once, not on this period\n"
        "  --lease-ttl-polls=<n>   polls without heartbeat change\n"
        "                     before a lease is stale (default "
        "100)\n"
        "  --straggler-polls=<n>   polls in flight before an idle\n"
        "                     worker duplicates a slow config\n"
        "                     (default 400)\n"
        "  --fabric-lease-strict   exit 10 when our lease is "
        "seized\n"
        "  --fabric-store-strict   exit 11 on a corrupt store "
        "entry\n"
        "  --chaos-kill=<phase>:<n>  (testing) SIGKILL self after\n"
        "                     the n-th claim/publish\n"
        "  --io-fault=<spec>  (testing) inject filesystem faults "
        "into\n"
        "                     this supervisor's own persistence\n"
        "                     (manifest, store, queue, merge); same\n"
        "                     grammar as texdist_sim --io-fault\n"
        "  -- <args...>       common arguments passed to every "
        "config\n";
}

RunnerOptions
parseArgs(int argc, char **argv)
{
    RunnerOptions opts;
    int i = 1;
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        std::string v;
        if (arg == "--") {
            ++i;
            break;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << usage();
            std::exit(0);
        } else if (match(arg, "sim", v)) {
            opts.simPath = v;
        } else if (match(arg, "configs", v)) {
            opts.configsPath = v;
        } else if (match(arg, "out", v)) {
            opts.outDir = v;
        } else if (match(arg, "timeout", v)) {
            uint64_t sec = parseCliU64(v, "timeout");
            if (sec == 0 || sec > (1u << 30))
                throw ParseError(ParseSurface::Cli, ParseRule::Range,
                                 "must be in [1, 2^30] seconds")
                    .field("--timeout");
            opts.timeoutSec = long(sec);
        } else if (match(arg, "retries", v)) {
            uint32_t n = parseCliU32(v, "retries");
            if (n > 1000)
                throw ParseError(ParseSurface::Cli, ParseRule::Range,
                                 "too many retries (max 1000)")
                    .field("--retries");
            opts.retries = int(n);
        } else if (match(arg, "signal-retries", v)) {
            uint32_t n = parseCliU32(v, "signal-retries");
            if (n > 1000)
                throw ParseError(ParseSurface::Cli, ParseRule::Range,
                                 "too many retries (max 1000)")
                    .field("--signal-retries");
            opts.signalRetries = int(n);
        } else if (match(arg, "backoff-ms", v)) {
            uint64_t ms = parseCliU64(v, "backoff-ms");
            if (ms > (1u << 30))
                throw ParseError(ParseSurface::Cli, ParseRule::Range,
                                 "too large (max 2^30 ms)")
                    .field("--backoff-ms");
            opts.backoffMs = long(ms);
        } else if (match(arg, "threads", v)) {
            opts.threads = parseHostThreads(v, "threads");
        } else if (match(arg, "store", v)) {
            opts.storeDir = v;
        } else if (match(arg, "worker-id", v)) {
            opts.workerId = v;
        } else if (match(arg, "poll-ms", v)) {
            uint64_t ms = parseCliU64(v, "poll-ms");
            if (ms == 0 || ms > 60 * 1000)
                throw ParseError(ParseSurface::Cli, ParseRule::Range,
                                 "must be in [1, 60000] ms")
                    .field("--poll-ms");
            opts.pollMs = long(ms);
        } else if (match(arg, "lease-ttl-polls", v)) {
            opts.leaseTtlPolls = parseCliU64(v, "lease-ttl-polls");
            if (opts.leaseTtlPolls == 0)
                throw ParseError(ParseSurface::Cli, ParseRule::Range,
                                 "must be at least 1")
                    .field("--lease-ttl-polls");
        } else if (match(arg, "straggler-polls", v)) {
            opts.stragglerPolls =
                parseCliU64(v, "straggler-polls");
            if (opts.stragglerPolls == 0)
                throw ParseError(ParseSurface::Cli, ParseRule::Range,
                                 "must be at least 1")
                    .field("--straggler-polls");
        } else if (match(arg, "chaos-kill", v)) {
            size_t colon = v.find(':');
            if (colon == std::string::npos)
                throw ParseError(ParseSurface::Cli,
                                 ParseRule::Syntax,
                                 "expected <phase>:<n>")
                    .field("--chaos-kill");
            opts.chaosKillPhase = v.substr(0, colon);
            if (opts.chaosKillPhase != "claim" &&
                opts.chaosKillPhase != "publish")
                throw ParseError(ParseSurface::Cli,
                                 ParseRule::Unknown,
                                 "phase must be 'claim' or "
                                 "'publish'")
                    .field("--chaos-kill");
            opts.chaosKillAfter =
                parseCliU64(v.substr(colon + 1), "chaos-kill");
            if (opts.chaosKillAfter == 0)
                throw ParseError(ParseSurface::Cli, ParseRule::Range,
                                 "kill count must be at least 1")
                    .field("--chaos-kill");
        } else if (match(arg, "io-fault", v)) {
            opts.ioFault.add(v);
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--fabric") {
            opts.fabricMode = true;
        } else if (arg == "--fsck") {
            opts.fsckMode = true;
        } else if (arg == "--fabric-lease-strict") {
            opts.leaseStrict = true;
        } else if (arg == "--fabric-store-strict") {
            opts.storeStrict = true;
        } else {
            throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                             "unknown option '" + arg + "'")
                .field(arg);
        }
    }
    for (; i < argc; ++i)
        opts.commonArgs.push_back(argv[i]);

    if (opts.fsckMode) {
        if (opts.storeDir.empty())
            throw ParseError(ParseSurface::Cli, ParseRule::Syntax,
                             "--fsck requires --store");
        return opts;
    }
    if ((opts.simPath.empty() && opts.threads == 0) ||
        opts.configsPath.empty() || opts.outDir.empty())
        throw ParseError(ParseSurface::Cli, ParseRule::Syntax,
                         "--sim (or --threads), --configs and "
                         "--out are required");
    if (opts.fabricMode) {
        if (opts.storeDir.empty())
            throw ParseError(ParseSurface::Cli, ParseRule::Syntax,
                             "--fabric requires --store (results "
                             "must be content-addressed for "
                             "duplicate runs to be safe)");
        if (opts.threads != 0)
            throw ParseError(ParseSurface::Cli, ParseRule::Syntax,
                             "--fabric is a multi-process mode; "
                             "drop --threads");
        if (opts.simPath.empty())
            throw ParseError(ParseSurface::Cli, ParseRule::Syntax,
                             "--fabric requires --sim");
    }
    if (opts.workerId.empty())
        opts.workerId = "w" + std::to_string(getpid());
    return opts;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

std::vector<SweepConfig>
loadConfigs(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        texdist_fatal("cannot open sweep file: ", path);
    std::vector<SweepConfig> configs;
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        size_t colon = t.find(':');
        if (colon == std::string::npos)
            texdist_fatal(path, ":", lineno,
                          ": expected 'name: args'");
        SweepConfig cfg;
        cfg.name = trim(t.substr(0, colon));
        cfg.args = trim(t.substr(colon + 1));
        if (cfg.name.empty())
            texdist_fatal(path, ":", lineno, ": empty config name");
        for (char c : cfg.name)
            if (!std::isalnum(uint8_t(c)) && c != '_' && c != '-')
                texdist_fatal(path, ":", lineno, ": config name '",
                              cfg.name, "' must be [A-Za-z0-9_-]");
        for (const SweepConfig &other : configs)
            if (other.name == cfg.name)
                texdist_fatal(path, ":", lineno,
                              ": duplicate config name '", cfg.name,
                              "'");
        configs.push_back(std::move(cfg));
    }
    if (configs.empty())
        texdist_fatal(path, ": no configurations");
    return configs;
}

std::vector<std::string>
splitArgs(const std::string &args)
{
    std::vector<std::string> out;
    std::istringstream is(args);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

std::string
manifestPath(const RunnerOptions &opts)
{
    return opts.outDir + "/sweep_manifest.json";
}

void
saveManifest(const RunnerOptions &opts,
             const std::vector<SweepConfig> &configs)
{
    JsonValue root = JsonValue::makeObject();
    root.set("format",
             JsonValue::makeString("texdist-sweep-manifest"));
    root.set("version", JsonValue::makeNumber(1));
    root.set("sim", JsonValue::makeString(opts.simPath));
    std::string common;
    for (const std::string &arg : opts.commonArgs)
        common += (common.empty() ? "" : " ") + arg;
    root.set("common_args", JsonValue::makeString(common));
    JsonValue list = JsonValue::makeArray();
    for (const SweepConfig &cfg : configs) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("name", JsonValue::makeString(cfg.name));
        entry.set("args", JsonValue::makeString(cfg.args));
        entry.set("status", JsonValue::makeString(cfg.status));
        entry.set("attempts", JsonValue::makeNumber(cfg.attempts));
        entry.set("signal_deaths",
                  JsonValue::makeNumber(cfg.signalDeaths));
        entry.set("exit_code", JsonValue::makeNumber(cfg.exitCode));
        list.append(std::move(entry));
    }
    root.set("configs", std::move(list));
    atomicWriteFile(manifestPath(opts), root.dump());
}

/**
 * Does this per-config CSV vouch for a completed run? Used on
 * resume. A torn tail (final record cut mid-write) is reported with
 * a warning and the config re-runs; any other damage re-runs too.
 */
bool
configCsvUsable(const RunnerOptions &opts, const std::string &name)
{
    std::string csvPath = opts.outDir + "/" + name + ".csv";
    if (!io::fileExists(csvPath))
        return false;
    auto parsed =
        tryParse([&] { return parseFrameCsvFileTolerant(csvPath); });
    if (!parsed.ok()) {
        inform("--resume: re-running '", name,
               "': ", parsed.error().describe());
        return false;
    }
    if (parsed.value().tornTail) {
        warn("--resume: ", csvPath, " has a torn final record (",
             parsed.value().tail.size(),
             " bytes cut mid-write); truncating and re-running '",
             name, "'");
        return false;
    }
    return !parsed.value().rows.empty();
}

/**
 * Merge prior progress into the freshly loaded sweep: a config
 * counts as done only if the manifest says so, its args have not
 * changed, and its result CSV is still on disk and parses cleanly.
 *
 * A damaged manifest — including one whose tail was torn by a
 * crash-during-write on a non-atomic filesystem — does not reject
 * the resume: progress is reconstructed from the per-config CSVs
 * with a warning, and the configs whose CSVs vouch for them are
 * kept.
 */
void
mergePriorProgress(const RunnerOptions &opts,
                   std::vector<SweepConfig> &configs)
{
    if (!io::fileExists(manifestPath(opts))) {
        inform("--resume: no manifest at ", manifestPath(opts),
               ", starting fresh");
        return;
    }
    auto loaded = tryParse([&] {
        JsonValue root = JsonValue::parseFile(manifestPath(opts));
        const std::string &format = root.at("format").asString();
        if (format != "texdist-sweep-manifest")
            throw ParseError(ParseSurface::Json, ParseRule::Magic,
                             "not a sweep manifest (format '" +
                                 format + "')")
                .in(manifestPath(opts))
                .field("format");
        return root;
    });
    if (!loaded.ok()) {
        warn("--resume: sweep manifest ", manifestPath(opts),
             " is damaged (", loaded.error().describe(),
             "); reconstructing progress from result CSVs");
        for (SweepConfig &cfg : configs) {
            if (!configCsvUsable(opts, cfg.name))
                continue;
            warn("--resume: '", cfg.name,
                 "' kept on the strength of its result CSV (args "
                 "unverifiable without a manifest)");
            cfg.status = "done";
            cfg.exitCode = 0;
        }
        return;
    }
    const JsonValue &root = loaded.value();
    for (const JsonValue &entry : root.at("configs").items()) {
        const std::string &name = entry.at("name").asString();
        const std::string &status = entry.at("status").asString();
        for (SweepConfig &cfg : configs) {
            if (cfg.name != name ||
                cfg.args != entry.at("args").asString())
                continue;
            if (status == "done" && configCsvUsable(opts, cfg.name)) {
                cfg.status = "done";
                cfg.attempts = int(entry.at("attempts").asNumber());
                if (const JsonValue *sd = entry.get("signal_deaths"))
                    cfg.signalDeaths = int(sd->asNumber());
                cfg.exitCode = int(entry.at("exit_code").asNumber());
            }
            break;
        }
    }
}

/** Exit status of one child attempt. */
struct Attempt
{
    bool timedOut = false;
    bool signalled = false;
    int exitCode = -1;
};

/**
 * A deterministic failure the retry loop must not burn attempts on:
 * typed parse errors (malformed trace/checkpoint/JSON/CSV/store
 * input, bad CLI) reproduce identically on every retry. Signal
 * deaths and timeouts, by contrast, are environmental and retry on
 * their own budget.
 */
bool
isPermanentExit(int code)
{
    // Exit 14 (I/O failure) is deliberately NOT here: a full disk or
    // flaky mount is environmental — the retry/backoff budget applies
    // just like a signal death, and the VFS guarantees the failed
    // attempt left no partial artifact to confuse the retry.
    return code == 1 || (code >= 6 && code <= 9) || code == 11;
}

/** Block until @p pid is reaped; returns its wait status. */
int
reapChild(pid_t pid)
{
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            texdist_fatal("waitpid failed: ", std::strerror(errno));
    return status;
}

/**
 * A pidfd for one child (pidfd_open, Linux >= 5.3): it turns readable
 * the moment the child exits, so the wait sleeps in poll() on it.
 * Called through syscall() because glibc 2.36's <sys/pidfd.h> lacks
 * extern "C" and does not link from C++.
 */
class PidFd
{
  public:
    explicit PidFd(pid_t pid)
        : _fd(int(::syscall(SYS_pidfd_open, pid, 0)))
    {}
    ~PidFd()
    {
        if (_fd >= 0)
            ::close(_fd);
    }
    PidFd(const PidFd &) = delete;
    PidFd &operator=(const PidFd &) = delete;

    int fd() const { return _fd; }

  private:
    int _fd;
};

/** Sleep @p ms milliseconds; a caught signal cuts the sleep short. */
void
sleepMs(long ms)
{
    timespec ts{ms / 1000, (ms % 1000) * 1000 * 1000};
    nanosleep(&ts, nullptr);
}

/**
 * Run one attempt of @p cfg as a child process and wait for it to
 * exit, calling @p heartbeat every --poll-ms while it runs.
 */
Attempt
runChild(const RunnerOptions &opts, const SweepConfig &cfg,
         const std::function<void()> &heartbeat = nullptr)
{
    std::vector<std::string> args;
    args.push_back(opts.simPath);
    for (const std::string &arg : opts.commonArgs)
        args.push_back(arg);
    for (const std::string &arg : splitArgs(cfg.args))
        args.push_back(arg);
    args.push_back("--result-csv=" + opts.outDir + "/" + cfg.name +
                   ".csv");

    std::string log_path = opts.outDir + "/" + cfg.name + ".log";

    pid_t pid = fork();
    if (pid < 0)
        texdist_fatal("fork failed: ", std::strerror(errno));
    if (pid == 0) {
        // Child: own log file, then exec the simulator.
        int fd = ::open(log_path.c_str(),
                        O_CREAT | O_WRONLY | O_APPEND, 0644);
        if (fd >= 0) {
            dup2(fd, STDOUT_FILENO);
            dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        execv(argv[0], argv.data());
        std::cerr << "exec failed: " << args[0] << ": "
                  << std::strerror(errno) << "\n";
        _exit(127);
    }

    g_child = pid;
    const PidFd pidfd(pid);
    if (pidfd.fd() < 0) {
        const int err = errno;
        kill(pid, SIGKILL);
        reapChild(pid);
        g_child = -1;
        texdist_fatal("pidfd_open failed: ", std::strerror(err),
                      "; sweep_runner waits on child processes "
                      "through pidfds and needs Linux >= 5.3");
    }

    // Pending deadlines, on a monotonic clock: the --timeout limit,
    // the SIGKILL escalation 2 s after its SIGTERM, and the next
    // lease heartbeat (every --poll-ms).
    using Clock = std::chrono::steady_clock;
    const Clock::time_point never = Clock::time_point::max();
    const Clock::time_point start = Clock::now();
    const std::chrono::milliseconds beatPeriod(opts.pollMs);
    Clock::time_point limit = start + std::chrono::seconds(opts.timeoutSec);
    Clock::time_point killAt = never;
    Clock::time_point nextBeat = heartbeat ? start + beatPeriod : never;
    Attempt result;
    bool forwarded = false;

    while (true) {
        // onSignal forwards an interrupt only once g_child is set;
        // one that landed in the fork window is forwarded here.
        if (g_signal != 0 && !forwarded) {
            kill(pid, SIGTERM);
            forwarded = true;
        }
        const Clock::time_point now = Clock::now();
        if (now >= limit) {
            // Over budget: ask nicely first so the child can flush,
            // then escalate.
            result.timedOut = true;
            kill(pid, SIGTERM);
            limit = never;
            killAt = now + std::chrono::seconds(2);
        }
        if (now >= killAt) {
            kill(pid, SIGKILL);
            killAt = never;
        }
        if (now >= nextBeat) {
            heartbeat();
            nextBeat = now + beatPeriod;
        }

        const Clock::time_point wake =
            std::min({limit, killAt, nextBeat});
        int timeout_ms = -1;
        if (wake != never)
            timeout_ms = int(std::min<int64_t>(
                std::chrono::ceil<std::chrono::milliseconds>(wake - now)
                    .count(),
                std::numeric_limits<int>::max()));
        pollfd pfd{pidfd.fd(), POLLIN, 0};
        const int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready > 0)
            break;
        if (ready < 0 && errno != EINTR)
            texdist_fatal("poll on child pidfd failed: ",
                          std::strerror(errno));
    }

    const int status = reapChild(pid);
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status)) {
        result.signalled = true;
        result.exitCode = 128 + WTERMSIG(status);
    }
    g_child = -1;
    return result;
}

/**
 * Run one config's bounded-retry attempt loop. Two separate
 * budgets: deterministic nonzero exits consume --retries (and
 * typed parse-error exits consume nothing — they fail fast as
 * permanent), while signal deaths and timeouts consume
 * --signal-retries, so a SIGKILL'd worker no longer burns the same
 * budget as a config that deterministically exits 6.
 */
void
superviseConfig(const RunnerOptions &opts, SweepConfig &cfg,
                bool &interrupted,
                const std::function<void()> &heartbeat = nullptr)
{
    int failRetries = 0;
    int sigRetries = 0;
    int attempt = 0;
    while (true) {
        if (attempt > 0) {
            long backoff = opts.backoffMs << (attempt - 1);
            std::cout << "  " << cfg.name << ": retry " << attempt
                      << " after " << backoff << " ms\n";
            sleepMs(backoff);
        }
        // An interrupt during the backoff must not start another
        // attempt.
        if (g_signal != 0) {
            interrupted = true;
            return;
        }
        ++attempt;
        ++cfg.attempts;
        Attempt result = runChild(opts, cfg, heartbeat);
        cfg.exitCode = result.exitCode;
        if (g_signal != 0) {
            interrupted = true;
            return;
        }
        if (result.exitCode == 0) {
            cfg.status = "done";
            return;
        }
        bool environmental = result.timedOut || result.signalled;
        std::cout << "  " << cfg.name << ": attempt "
                  << cfg.attempts << " "
                  << (result.timedOut
                          ? "timed out"
                          : result.signalled
                                ? "died on a signal"
                                : "failed")
                  << " (exit " << result.exitCode << ", see "
                  << opts.outDir << "/" << cfg.name << ".log)\n";
        if (environmental) {
            ++cfg.signalDeaths;
            if (sigRetries++ < opts.signalRetries)
                continue;
            std::cout << "  " << cfg.name << ": out of signal/"
                      << "timeout retries\n";
            cfg.status = "failed";
            return;
        }
        if (isPermanentExit(result.exitCode)) {
            // A typed parse error reproduces identically on every
            // retry; burning attempts on it only delays the sweep.
            std::cout << "  " << cfg.name << ": exit "
                      << result.exitCode
                      << " is a typed input error; failing fast "
                      << "(no retry)\n";
            cfg.status = "failed";
            return;
        }
        if (failRetries++ < opts.retries)
            continue;
        cfg.status = "failed";
        return;
    }
}

/**
 * In-process mode: parse a pending config's full command line. All
 * configs are parsed up front on the main thread, so a sweep never
 * dies halfway through on a typo that subprocess mode would also
 * have rejected — and never calls exit() from a worker thread.
 */
SimOptions
parseInProcessConfig(const RunnerOptions &opts,
                     const SweepConfig &cfg)
{
    std::vector<std::string> args = opts.commonArgs;
    for (const std::string &arg : splitArgs(cfg.args))
        args.push_back(arg);
    SimOptions sim = SimOptions::parse(args);
    if (sim.help || sim.listBenchmarks)
        texdist_fatal("config '", cfg.name, "': --help and "
                      "--list-benchmarks make no sense in a sweep");
    if (sim.checkpointEvery > 0 || !sim.checkpointFile.empty() ||
        !sim.restorePath.empty() || !sim.manifestPath.empty() ||
        !sim.replayVerifyPath.empty() || !sim.statsFile.empty())
        texdist_fatal("config '", cfg.name, "': checkpoint, "
                      "restore, manifest, replay-verify and "
                      "stats-file need a dedicated process per "
                      "config; drop --threads to run this sweep");
    const bool sequence = sim.frames > 1 || sim.panDx != 0.0 ||
                          sim.panDy != 0.0;
    if (sequence)
        for (const FaultSpec &fault : sim.machine.faults.faults)
            if (fault.kind != FaultKind::SlowNode &&
                fault.kind != FaultKind::BusStall)
                texdist_fatal("config '", cfg.name, "': fault kind ",
                              to_string(fault.kind), " is not "
                              "supported in multi-frame runs");
    return sim;
}

/**
 * Simulate one config inside this process, producing the same
 * per-config CSV and log files as an exec'd texdist_sim would.
 * Returns the exit code the equivalent child process would have.
 */
int
runConfigInProcess(const RunnerOptions &opts, const SweepConfig &cfg,
                   const SimOptions &sim)
{
    std::ofstream log(opts.outDir + "/" + cfg.name + ".log");
    Scene base = sim.tracePath.empty()
                     ? makeBenchmark(sim.scene, sim.scale)
                     : readTraceFile(sim.tracePath);
    CsvWriter csv(opts.outDir + "/" + cfg.name + ".csv");
    frameCsvHeader(csv);

    // Mirror the driver's dispatch: multi-frame runs use the
    // persistent sequence machine, single-frame runs the event-driven
    // machine (which also covers the kill/freeze fault kinds).
    const bool sequence = sim.frames > 1 || sim.panDx != 0.0 ||
                          sim.panDy != 0.0;
    int exit_code = exitOk;
    bool interrupted = false;
    try {
        if (sequence) {
            // The sweep's parallelism is config-level; each machine
            // runs its frames serially unless the config asked for
            // --jobs.
            SequenceMachine machine(base, sim.machine,
                                    sim.jobs > 0 ? sim.jobs : 1);
            OracleEngine oracle(sim.machine, sim.oracle);
            oracle.attach(machine);
            for (uint32_t f = 0; f < sim.frames; ++f) {
                Scene frame =
                    f == 0 ? Scene()
                           : translateScene(base,
                                            float(sim.panDx * f),
                                            float(sim.panDy * f));
                const Scene &scene = f == 0 ? base : frame;
                oracle.beginFrame(f, scene);
                FrameResult r = machine.runFrame(scene);
                oracle.endFrame(f, scene, &machine.distribution(),
                                &r, machine.currentTime());
                uint64_t digest = digestFrame(r);
                frameCsvRow(csv, f, r, digest);
                log << "frame " << f << ": " << r.frameTime
                    << " cycles, " << r.totalPixels
                    << " pixels, digest " << digestHex(digest)
                    << "\n";
                if (g_signal != 0) {
                    interrupted = true;
                    break;
                }
            }
        } else {
            ParallelMachine machine(base, sim.machine);
            OracleEngine oracle(sim.machine, sim.oracle);
            oracle.attach(machine);
            oracle.beginFrame(0, base);
            FrameResult r = machine.run();
            oracle.endFrame(0, base, &machine.distribution(), &r,
                            r.frameTime);
            uint64_t digest = digestFrame(r);
            frameCsvRow(csv, 0, r, digest);
            log << "frame 0: " << r.frameTime << " cycles, "
                << r.totalPixels << " pixels, digest "
                << digestHex(digest) << "\n";
            if (r.failed) {
                log << "frame failed: " << r.failureReason << "\n";
                exit_code = 2; // texdist_sim's exitFrameFailed
            }
        }
    } catch (const OracleError &e) {
        // Same exit code a child texdist_sim process would report.
        log << "fatal: " << e.describe() << "\n";
        exit_code = e.exitCode();
    }
    csv.close();
    return interrupted ? exitInterrupted : exit_code;
}

/**
 * The store identity of one config: the full child argv (minus the
 * per-run --result-csv path, which is placement, not physics) plus
 * the digest of any trace input.
 */
fabric::StoreKey
configStoreKey(const RunnerOptions &opts, const SweepConfig &cfg,
               std::string *metaOut = nullptr)
{
    std::vector<std::string> args = opts.commonArgs;
    for (const std::string &arg : splitArgs(cfg.args))
        args.push_back(arg);
    uint64_t traceDigest = 0;
    for (const std::string &arg : args)
        if (arg.rfind("--trace=", 0) == 0)
            traceDigest =
                fabric::digestFileBytes(arg.substr(8));
    if (metaOut)
        *metaOut = fabric::canonicalConfigJson(
            args, traceDigest, fabric::fabricCodeVersion);
    return fabric::computeStoreKey(args, traceDigest);
}

/** Slurp a published per-config CSV for store publication. */
std::string
slurpFile(const std::string &path)
{
    return io::readFileIfPresent(path).value_or("");
}

/**
 * Validate and publish a completed config's result CSV into the
 * store. The strict parse guarantees the store never holds bytes a
 * future merge would reject.
 */
void
publishResult(const RunnerOptions &opts, fabric::ResultStore &store,
              const SweepConfig &cfg, const fabric::StoreKey &key,
              const std::string &meta)
{
    std::string csvPath = opts.outDir + "/" + cfg.name + ".csv";
    parseFrameCsvFile(csvPath);
    store.publish(key, meta, slurpFile(csvPath));
}

/** Chaos-testing hook: SIGKILL ourselves at a scheduled point. */
void
chaosMaybeKill(const RunnerOptions &opts, const char *phase)
{
    static uint64_t counters[2] = {0, 0};
    if (opts.chaosKillPhase != phase)
        return;
    uint64_t &n =
        counters[opts.chaosKillPhase == "publish" ? 1 : 0];
    if (++n == opts.chaosKillAfter) {
        std::cout.flush();
        raise(SIGKILL);
    }
}

void
writeFabricStats(const RunnerOptions &opts,
                 const fabric::ResultStore &store,
                 const fabric::LeaseQueue *queue,
                 uint64_t speculativeRuns)
{
    JsonValue root = JsonValue::makeObject();
    root.set("format",
             JsonValue::makeString("texdist-fabric-stats"));
    root.set("version", JsonValue::makeNumber(1));
    root.set("worker", JsonValue::makeString(opts.workerId));
    root.set("store_hits",
             JsonValue::makeNumber(double(store.stats().hits)));
    root.set("store_misses",
             JsonValue::makeNumber(double(store.stats().misses)));
    root.set("store_corrupt",
             JsonValue::makeNumber(double(store.stats().corrupt)));
    root.set("leases_stolen",
             JsonValue::makeNumber(
                 double(queue ? queue->stolen() : 0)));
    root.set("speculative_runs",
             JsonValue::makeNumber(double(speculativeRuns)));
    atomicWriteFile(opts.outDir + "/fabric_stats." + opts.workerId +
                        ".json",
                    root.dump());
    std::cout << "store: " << store.stats().hits << " hit(s), "
              << store.stats().misses << " miss(es), "
              << store.stats().corrupt << " quarantined\n";
}

void mergeResults(const RunnerOptions &opts,
                  const std::vector<SweepConfig> &configs);

/** The whole sweep in-process, opts.threads configs at a time. */
int
runSweepInProcess(const RunnerOptions &opts,
                  std::vector<SweepConfig> &configs)
{
    // Optional memoization: serve store hits before parsing, so a
    // fully cached sweep never builds a scene at all.
    std::unique_ptr<fabric::ResultStore> store;
    std::vector<fabric::StoreKey> keys(configs.size());
    std::vector<std::string> metas(configs.size());
    if (!opts.storeDir.empty()) {
        store = std::make_unique<fabric::ResultStore>(
            opts.storeDir, opts.storeStrict);
        for (size_t i = 0; i < configs.size(); ++i) {
            if (configs[i].status == "done")
                continue;
            keys[i] = configStoreKey(opts, configs[i], &metas[i]);
            if (auto payload = store->fetch(keys[i])) {
                atomicWriteFile(opts.outDir + "/" +
                                    configs[i].name + ".csv",
                                *payload);
                configs[i].status = "done";
                configs[i].exitCode = 0;
                std::cout << "  " << configs[i].name
                          << ": done (store hit)\n";
            }
        }
    }

    std::vector<size_t> pending;
    std::vector<SimOptions> parsed(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].status == "done") {
            std::cout << "  " << configs[i].name
                      << ": done (resumed)\n";
            continue;
        }
        parsed[i] = parseInProcessConfig(opts, configs[i]);
        pending.push_back(i);
    }

    ThreadPool pool(opts.threads);
    std::vector<int> codes(configs.size(), exitOk);
    // texlint: phase(isolated) each task simulates one sweep config in
    // a private universe; results land in per-config slots
    pool.parallelFor(pending.size(), [&](uint32_t, size_t p) {
        size_t i = pending[p];
        ++configs[i].attempts;
        codes[i] = runConfigInProcess(opts, configs[i], parsed[i]);
    });

    bool interrupted = g_signal != 0;
    for (size_t i : pending) {
        SweepConfig &cfg = configs[i];
        cfg.exitCode = codes[i];
        if (codes[i] == exitOk) {
            cfg.status = "done";
            if (store)
                publishResult(opts, *store, cfg, keys[i], metas[i]);
            std::cout << "  " << cfg.name << ": done\n";
        } else if (codes[i] == exitInterrupted) {
            interrupted = true; // stays pending for --resume
        } else {
            cfg.status = "failed";
            std::cout << "  " << cfg.name << ": failed (exit "
                      << codes[i] << ", see " << opts.outDir << "/"
                      << cfg.name << ".log)\n";
        }
    }
    saveManifest(opts, configs);
    if (store)
        writeFabricStats(opts, *store, nullptr, 0);

    if (interrupted) {
        std::cerr << "sweep interrupted; progress saved to "
                  << manifestPath(opts) << " (resume with "
                  << "--resume)\n";
        return exitInterrupted;
    }
    size_t failed = 0;
    for (const SweepConfig &cfg : configs)
        if (cfg.status != "done")
            ++failed;
    if (failed > 0) {
        std::cerr << failed << " config(s) failed permanently; see "
                  << manifestPath(opts) << "\n";
        return exitSomeFailed;
    }
    mergeResults(opts, configs);
    std::cout << "sweep complete: " << configs.size()
              << " config(s); merged results in " << opts.outDir
              << "/sweep.csv\n";
    return exitOk;
}

/**
 * Merge per-config CSVs into <out>/sweep.csv, atomically. Every CSV
 * is validated (strict parse) before its raw lines are concatenated,
 * so a corrupt per-config file fails the merge with a typed
 * diagnostic instead of polluting sweep.csv — while well-formed
 * input still passes through byte-identically.
 */
void
mergeResults(const RunnerOptions &opts,
             const std::vector<SweepConfig> &configs)
{
    std::string merged;
    bool wrote_header = false;
    for (const SweepConfig &cfg : configs) {
        std::string path = opts.outDir + "/" + cfg.name + ".csv";
        parseFrameCsvFile(path);
        auto bytes = io::readFileIfPresent(path);
        if (!bytes)
            texdist_fatal("missing result CSV for completed "
                          "config: ", path);
        std::istringstream is(*bytes);
        std::string line;
        bool first = true;
        while (std::getline(is, line)) {
            if (line.empty())
                continue;
            if (first) {
                first = false;
                if (!wrote_header) {
                    merged += "config," + line + "\n";
                    wrote_header = true;
                }
                continue;
            }
            merged += cfg.name + "," + line + "\n";
        }
    }
    atomicWriteFile(opts.outDir + "/sweep.csv", merged);
}

/**
 * One fabric worker: cooperate with any number of peer processes
 * through the shared lease queue and result store until every
 * config has a terminal marker, then merge. See the file comment
 * for the protocol; the invariant that makes every race benign is
 * that a config's result bytes are a pure function of its store
 * key, so duplicate publications collide into identical entries.
 */
int
runSweepFabric(const RunnerOptions &opts,
               std::vector<SweepConfig> &configs)
{
    fabric::LeaseQueue queue(opts.outDir + "/queue", opts.workerId);
    fabric::ResultStore store(opts.storeDir, opts.storeStrict);

    std::vector<fabric::StoreKey> keys(configs.size());
    std::vector<std::string> metas(configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        keys[i] = configStoreKey(opts, configs[i], &metas[i]);

    uint64_t speculativeRuns = 0;
    // Polls each non-terminal config has spent claimed-by-a-peer;
    // the straggler-detection clock.
    std::map<std::string, uint64_t> inFlightPolls;

    auto runClaimed = [&](size_t i, bool speculative) -> bool {
        SweepConfig &cfg = configs[i];
        bool interrupted = false;
        std::function<void()> heartbeat;
        if (!speculative)
            heartbeat = [&] { queue.heartbeat(cfg.name); };
        superviseConfig(opts, cfg, interrupted, heartbeat);
        if (interrupted)
            return false;
        if (!speculative && !queue.owns(cfg.name)) {
            // A peer judged us stale and seized the claim while we
            // ran. Our result is still publishable (idempotent),
            // but the seizer owns the config now.
            if (opts.leaseStrict)
                throw FabricError(
                    FabricFault::LeaseLost,
                    "lease on '" + cfg.name + "' was seized while "
                    "worker " + opts.workerId + " ran it");
            warn("worker ", opts.workerId, ": lease on '", cfg.name,
                 "' was seized mid-run; standing down");
            cfg.status = "pending";
            return true;
        }
        if (cfg.status == "done") {
            publishResult(opts, store, cfg, keys[i], metas[i]);
            chaosMaybeKill(opts, "publish");
            queue.markDone(cfg.name, keys[i]);
        } else {
            queue.markFailed(cfg.name, cfg.exitCode);
        }
        if (!speculative)
            queue.release(cfg.name);
        return true;
    };

    while (true) {
        if (g_signal != 0) {
            std::cerr << "fabric worker " << opts.workerId
                      << " interrupted; leases will expire and "
                      << "peers will redispatch\n";
            writeFabricStats(opts, store, &queue, speculativeRuns);
            return exitInterrupted;
        }

        bool allTerminal = true;
        bool progress = false;
        for (size_t i = 0; i < configs.size(); ++i) {
            SweepConfig &cfg = configs[i];
            if (g_signal != 0)
                break;
            if (queue.isDone(cfg.name)) {
                cfg.status = "done";
                std::string csvPath =
                    opts.outDir + "/" + cfg.name + ".csv";
                if (!io::fileExists(csvPath)) {
                    // Done marker without a CSV (lost to a torn
                    // write): restore it from the store, or demote
                    // the config back to pending.
                    if (auto payload = store.fetch(keys[i])) {
                        atomicWriteFile(csvPath, *payload);
                    } else {
                        warn("'", cfg.name, "' marked done but has "
                             "no CSV and no store entry; "
                             "re-running");
                        io::removeQuiet(opts.outDir + "/queue/" +
                                        cfg.name + ".done");
                        cfg.status = "pending";
                        allTerminal = false;
                    }
                }
                continue;
            }
            int failCode = -1;
            if (queue.isFailed(cfg.name, &failCode)) {
                cfg.status = "failed";
                cfg.exitCode = failCode;
                continue;
            }
            allTerminal = false;

            // Store fast path: no lease needed to serve a hit.
            if (auto payload = store.fetch(keys[i])) {
                atomicWriteFile(opts.outDir + "/" + cfg.name +
                                    ".csv",
                                *payload);
                queue.markDone(cfg.name, keys[i]);
                cfg.status = "done";
                std::cout << "  " << cfg.name
                          << ": done (store hit)\n";
                progress = true;
                continue;
            }
            if (queue.tryClaim(cfg.name)) {
                chaosMaybeKill(opts, "claim");
                std::cout << "  " << cfg.name << ": claimed by "
                          << opts.workerId << "\n";
                if (!runClaimed(i, false))
                    break; // interrupted
                progress = true;
                continue;
            }
        }
        if (allTerminal)
            break;
        if (progress || g_signal != 0)
            continue;

        // Nothing claimable: everyone else holds the remaining
        // work. Watch their leases; seize stale ones (crashed or
        // wedged holders) and speculatively duplicate stragglers.
        bool acted = false;
        for (size_t i = 0; i < configs.size(); ++i) {
            SweepConfig &cfg = configs[i];
            if (queue.isDone(cfg.name) ||
                queue.isFailed(cfg.name) || g_signal != 0)
                continue;
            uint64_t unchanged = queue.observeUnchanged(cfg.name);
            if (unchanged == 0) {
                // Lease vanished (released or never taken): try to
                // claim it on the next sweep of the main loop.
                inFlightPolls.erase(cfg.name);
                continue;
            }
            uint64_t flight = ++inFlightPolls[cfg.name];
            if (unchanged >= opts.leaseTtlPolls) {
                // No heartbeat for a full TTL: the holder is dead
                // or wedged. Seize and redispatch with the normal
                // retry/backoff policy.
                if (queue.steal(cfg.name)) {
                    warn("worker ", opts.workerId,
                         ": seized stale lease on '", cfg.name,
                         "'");
                    inFlightPolls.erase(cfg.name);
                    if (!runClaimed(i, false))
                        break;
                    acted = true;
                }
            } else if (flight >= opts.stragglerPolls) {
                // Alive but slow: run a duplicate without touching
                // the lease. Whoever publishes last wins whole,
                // with identical bytes.
                warn("worker ", opts.workerId, ": straggler '",
                     cfg.name, "' (", flight,
                     " polls in flight); running a speculative "
                     "duplicate");
                ++speculativeRuns;
                inFlightPolls.erase(cfg.name);
                if (!runClaimed(i, true))
                    break;
                acted = true;
            }
        }
        if (!acted)
            sleepMs(opts.pollMs);
    }

    writeFabricStats(opts, store, &queue, speculativeRuns);

    size_t failed = 0;
    for (const SweepConfig &cfg : configs)
        if (cfg.status != "done")
            ++failed;
    if (failed > 0) {
        std::cerr << failed
                  << " config(s) failed permanently; see the "
                  << ".failed markers in " << opts.outDir
                  << "/queue\n";
        return exitSomeFailed;
    }
    // Every worker that reaches this point merges; the atomic
    // rename makes the duplicate publications collide harmlessly
    // into identical bytes.
    mergeResults(opts, configs);
    std::cout << "sweep complete: " << configs.size()
              << " config(s); merged results in " << opts.outDir
              << "/sweep.csv\n";
    return exitOk;
}

int
runFsck(const RunnerOptions &opts)
{
    fabric::ResultStore store(opts.storeDir);
    fabric::ResultStore::FsckReport report = store.fsck();
    std::cout << "fsck " << opts.storeDir << ": "
              << report.scanned << " entr"
              << (report.scanned == 1 ? "y" : "ies") << " scanned, "
              << report.ok << " ok, " << report.quarantined
              << " quarantined, " << report.orphanScratch
              << " orphan scratch file(s) removed\n";
    return report.quarantined > 0
               ? fabricExitCode(FabricFault::Quarantined)
               : exitOk;
}

int
run(int argc, char **argv)
{
    RunnerOptions opts = parseArgs(argc, argv);

    // Arm the injector before the first persistence touch so fsck,
    // store and queue setup all see the hostile filesystem.
    if (!opts.ioFault.empty()) {
        io::setFaultPlan(opts.ioFault);
        inform("io fault plan armed: ", opts.ioFault.describe());
    }

    if (opts.fsckMode)
        return runFsck(opts);

    io::makeDirs(opts.outDir);

    std::vector<SweepConfig> configs = loadConfigs(opts.configsPath);
    if (opts.resume && !opts.fabricMode)
        mergePriorProgress(opts, configs);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (opts.fabricMode) {
        // Fabric state lives in the queue markers and the store —
        // always effectively resumed, no manifest dance needed.
        std::cout << "fabric worker " << opts.workerId << ": "
                  << configs.size() << " config(s), queue "
                  << opts.outDir << "/queue, store "
                  << opts.storeDir << "\n";
        return runSweepFabric(opts, configs);
    }

    size_t done = 0;
    for (const SweepConfig &cfg : configs)
        if (cfg.status == "done")
            ++done;
    std::cout << "sweep: " << configs.size() << " config(s), "
              << done << " already done\n";

    if (opts.threads > 0)
        return runSweepInProcess(opts, configs);

    std::unique_ptr<fabric::ResultStore> store;
    std::vector<fabric::StoreKey> keys(configs.size());
    std::vector<std::string> metas(configs.size());
    if (!opts.storeDir.empty()) {
        store = std::make_unique<fabric::ResultStore>(
            opts.storeDir, opts.storeStrict);
        for (size_t i = 0; i < configs.size(); ++i)
            if (configs[i].status != "done")
                keys[i] =
                    configStoreKey(opts, configs[i], &metas[i]);
    }

    bool interrupted = false;
    for (size_t i = 0; i < configs.size(); ++i) {
        SweepConfig &cfg = configs[i];
        if (g_signal != 0) {
            interrupted = true;
            break;
        }
        if (cfg.status == "done") {
            std::cout << "  " << cfg.name << ": done (resumed)\n";
            continue;
        }
        if (store) {
            if (auto payload = store->fetch(keys[i])) {
                atomicWriteFile(opts.outDir + "/" + cfg.name +
                                    ".csv",
                                *payload);
                cfg.status = "done";
                cfg.exitCode = 0;
                std::cout << "  " << cfg.name
                          << ": done (store hit)\n";
                saveManifest(opts, configs);
                continue;
            }
        }

        superviseConfig(opts, cfg, interrupted);
        if (interrupted)
            break;
        if (cfg.status == "done") {
            if (store)
                publishResult(opts, *store, cfg, keys[i], metas[i]);
            std::cout << "  " << cfg.name << ": done\n";
        }

        // Persist progress after every config so a crash loses at
        // most the config in flight.
        saveManifest(opts, configs);
    }

    saveManifest(opts, configs);
    if (store)
        writeFabricStats(opts, *store, nullptr, 0);

    if (interrupted) {
        std::cerr << "sweep interrupted; progress saved to "
                  << manifestPath(opts) << " (resume with "
                  << "--resume)\n";
        return exitInterrupted;
    }

    size_t failed = 0;
    for (const SweepConfig &cfg : configs)
        if (cfg.status != "done")
            ++failed;
    if (failed > 0) {
        std::cerr << failed << " config(s) failed permanently; see "
                  << manifestPath(opts) << "\n";
        return exitSomeFailed;
    }

    mergeResults(opts, configs);
    std::cout << "sweep complete: " << configs.size()
              << " config(s); merged results in " << opts.outDir
              << "/sweep.csv\n";
    return exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    // Malformed input — command line, sweep manifest, result CSV,
    // store entry — exits with the surface's documented code; a bad
    // command line also reprints the usage text. Fabric faults
    // (lease lost, store corrupt) carry their own codes.
    try {
        return run(argc, argv);
    } catch (const ParseError &e) {
        std::cerr << "fatal: " << e.describe() << "\n";
        if (e.surface() == ParseSurface::Cli)
            std::cerr << "\n" << usage();
        return e.exitCode();
    } catch (const FabricError &e) {
        std::cerr << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    } catch (const IoError &e) {
        // Filesystem failure in the supervisor itself. Exit 14 is
        // environmental: the caller (human or fabric_chaos wave)
        // relaunches, and the VFS rollback guarantees no partial
        // manifest/merge/store artifact survived the failure.
        std::cerr << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    }
}
