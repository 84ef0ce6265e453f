/**
 * @file
 * Supervised sweep runner: runs a list of simulator configurations
 * as isolated child processes, with per-config timeouts, bounded
 * retry with backoff and a content-addressed result store, so an
 * overnight sweep that dies at config 71 of 96 costs 25 configs on
 * its re-run, not 96.
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
 * an interrupted sweep re-run later produces a byte-identical
 * merged file.
 *
 * Usage:
 *   sweep_runner --sim=build/tools/texdist_sim --configs=sweep.txt \
 *                --out=results [--timeout=300] [--retries=2] \
 *                [--store=<dir>] [--worker-id=<id>] \
 *                [-- <common simulator args...>]
 *
 * Every process is one worker of a shared-queue sweep. Any number of
 * workers sharing the same --out, --configs and --store cooperate
 * through a filesystem lease queue (`<out>/queue/`), so a parallel
 * sweep is N copies of one command line. Workers claim configs via
 * O_EXCL claim files, heartbeat while running, seize leases whose
 * holders stopped heartbeating (crash, SIGKILL, wedge), and
 * speculatively duplicate stragglers — all safe because results are
 * digest-keyed and byte-identical, so any publish race has one
 * whole-file winner with the same content.
 *
 * `--store=<dir>` (default `<out>/store`) memoizes results in a
 * content-addressed store (src/fabric): a config whose key — FNV
 * digest of (canonical config JSON, trace digest, code version) —
 * already has a CRC-valid entry is served from the store instead of
 * re-simulated.
 *
 * Sweep state lives entirely in the queue markers and the store, so
 * there is no resume step: re-running the same command line after a
 * crash or an interrupt skips every config with a `.done` marker or
 * a store hit. Markers record the store key they were written for
 * and count only for it, so a re-run with a changed config line or
 * common arguments runs the changed configs again. A `.failed`
 * marker is terminal for its --out and key; to retry that config,
 * delete `<out>/queue/<name>.failed`, or re-run into a fresh --out
 * against the same --store. Each worker records the configs it ran
 * (status, attempts, signal deaths, exit code) in
 * `<out>/fabric_stats.<worker>.json`; a one-worker sweep passes a
 * fixed --worker-id so its re-runs keep one such file.
 *
 * Exit codes: 0 every config done, 1 usage/config error, 2 some
 * configs failed permanently, 3 interrupted (a re-run continues
 * from the queue markers), 9 malformed result CSV, 10 lease lost
 * (--fabric-lease-strict), 11 corrupt store entry
 * (--fabric-store-strict), 12 fsck quarantined entries (--fsck),
 * 14 supervisor-side I/O failure (environmental — relaunch; never
 * retained a partial artifact).
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
#include "core/json.hh"
#include "core/options.hh"
#include "core/replay.hh"
#include "io/vfs.hh"
#include "fabric/lease.hh"
#include "fabric/store.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"

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

    // Supervision state; the configs this worker ran are reported in
    // its fabric_stats.<worker>.json.
    std::string status = "pending"; ///< pending|done|failed
    int attempts = 0;
    int signalDeaths = 0;
    int exitCode = -1;
    /// This worker found the config missing from the store. A config
    /// polled many times while a peer holds its lease counts once.
    bool storeMissed = false;
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

    // Store and lease-queue options.
    std::string storeDir; ///< default <out>/store
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
    // the supervisor's own persistence (store, queue, merge, stats)
    // runs against the hostile filesystem. Child simulators
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
        "sweep_runner - supervised simulator sweep; every process is\n"
        "one worker of a shared-queue sweep, and re-running the same\n"
        "command resumes it\n"
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
        "  --store=<dir>      content-addressed result store: serve"
        "\n"
        "                     repeat configs from cache, publish new"
        "\n"
        "                     results (default <out>/store)\n"
        "  --fsck             validate every store entry, "
        "quarantine\n"
        "                     damage, exit 12 if anything moved\n"
        "  --fabric           no effect: every run is a shared-queue\n"
        "                     worker (accepted for old command lines)\n"
        "  --worker-id=<id>   worker name, unique among the workers\n"
        "                     sharing --out (default w<pid>); it\n"
        "                     names <out>/fabric_stats.<id>.json,\n"
        "                     so give a one-worker sweep a fixed id\n"
        "                     to keep one stats file across re-runs\n"
        "  --poll-ms=<n>      idle poll period and lease\n"
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
        "                     (store, queue, merge, stats); same\n"
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
        } else if (arg == "--fabric") {
            // Accepted and ignored: every run is a fabric worker.
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
    if (opts.simPath.empty() || opts.configsPath.empty() ||
        opts.outDir.empty())
        throw ParseError(ParseSurface::Cli, ParseRule::Syntax,
                         "--sim, --configs and --out are required");
    if (opts.storeDir.empty())
        opts.storeDir = opts.outDir + "/store";
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
 * exit, calling @p heartbeat (when set) every --poll-ms while it
 * runs.
 */
Attempt
runChild(const RunnerOptions &opts, const SweepConfig &cfg,
         const std::function<void()> &heartbeat)
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
                const std::function<void()> &heartbeat)
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

/**
 * Write `<out>/fabric_stats.<worker>.json`: the store and lease
 * counters of this worker, and the per-config accounting (status,
 * attempts, signal deaths, exit code) of every config it ran a child
 * for. Store hits and configs finished by peers are not listed.
 * `store_misses` counts configs, not lookups: the store counts every
 * fetch, and a config whose lease a peer holds is looked up again on
 * every poll round.
 */
void
writeFabricStats(const RunnerOptions &opts,
                 const fabric::ResultStore &store,
                 const fabric::LeaseQueue &queue,
                 uint64_t speculativeRuns,
                 const std::vector<SweepConfig> &configs)
{
    uint64_t misses = 0;
    for (const SweepConfig &cfg : configs)
        misses += cfg.storeMissed ? 1 : 0;
    JsonValue root = JsonValue::makeObject();
    root.set("format",
             JsonValue::makeString("texdist-fabric-stats"));
    root.set("version", JsonValue::makeNumber(1));
    root.set("worker", JsonValue::makeString(opts.workerId));
    root.set("store_hits",
             JsonValue::makeNumber(double(store.stats().hits)));
    root.set("store_misses",
             JsonValue::makeNumber(double(misses)));
    root.set("store_corrupt",
             JsonValue::makeNumber(double(store.stats().corrupt)));
    root.set("leases_stolen",
             JsonValue::makeNumber(double(queue.stolen())));
    root.set("speculative_runs",
             JsonValue::makeNumber(double(speculativeRuns)));
    JsonValue ran = JsonValue::makeArray();
    for (const SweepConfig &cfg : configs) {
        if (cfg.attempts == 0)
            continue;
        JsonValue entry = JsonValue::makeObject();
        entry.set("name", JsonValue::makeString(cfg.name));
        entry.set("status", JsonValue::makeString(cfg.status));
        entry.set("attempts", JsonValue::makeNumber(cfg.attempts));
        entry.set("signal_deaths",
                  JsonValue::makeNumber(cfg.signalDeaths));
        entry.set("exit_code", JsonValue::makeNumber(cfg.exitCode));
        ran.append(std::move(entry));
    }
    root.set("configs", std::move(ran));
    const std::string path =
        opts.outDir + "/fabric_stats." + opts.workerId + ".json";
    atomicWriteFile(path, root.dump());
    std::cout << "store: " << store.stats().hits << " hit(s), "
              << misses << " miss(es), "
              << store.stats().corrupt << " quarantined; stats in "
              << path << "\n";
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
 * Releases every lease a worker still holds when the sweep loop ends,
 * by return or by exception: a graceful stop (interrupt, typed error,
 * I/O failure) frees the worker's claims at once, so a re-run need not
 * wait out the stale-lease TTL. Only a SIGKILL leaves a lease for the
 * TTL to expire.
 */
class LeaseRelease
{
  public:
    explicit LeaseRelease(fabric::LeaseQueue &queue) : _queue(queue) {}
    ~LeaseRelease() { _queue.releaseAll(); }
    LeaseRelease(const LeaseRelease &) = delete;
    LeaseRelease &operator=(const LeaseRelease &) = delete;

  private:
    fabric::LeaseQueue &_queue;
};

/**
 * A done marker vouches for its config only while the result CSV
 * strict-parses. A missing or damaged CSV (a torn write, a stray
 * edit) is restored from the store; false when the store has no
 * entry either, and the caller re-runs the config.
 */
bool
restoreDoneCsv(const RunnerOptions &opts, fabric::ResultStore &store,
               const SweepConfig &cfg, const fabric::StoreKey &key)
{
    const std::string csvPath = opts.outDir + "/" + cfg.name + ".csv";
    auto parsed = tryParse([&] { return parseFrameCsvFile(csvPath); });
    if (parsed.ok())
        return true;
    auto payload = store.fetch(key);
    if (!payload)
        return false;
    warn("'", cfg.name, "': ", parsed.error().describe(),
         "; restored from the store");
    atomicWriteFile(csvPath, *payload);
    return true;
}

/**
 * Run the sweep as one worker: cooperate with any number of peer
 * processes through the shared lease queue and result store until
 * every config has a terminal marker, then merge. See the file
 * comment for the protocol; the invariant that makes every race
 * benign is that a config's result bytes are a pure function of its
 * store key, so duplicate publications collide into identical
 * entries.
 */
int
runSweep(const RunnerOptions &opts, std::vector<SweepConfig> &configs)
{
    fabric::LeaseQueue queue(opts.outDir + "/queue", opts.workerId);
    fabric::ResultStore store(opts.storeDir, opts.storeStrict);
    const LeaseRelease releaseOnExit(queue);

    std::vector<fabric::StoreKey> keys(configs.size());
    std::vector<std::string> metas(configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        keys[i] = configStoreKey(opts, configs[i], &metas[i]);
    // A marker vouches only for the arguments it was written for: a
    // config whose line, common arguments or code changed since is
    // served from the store or simulated again.
    for (size_t i = 0; i < configs.size(); ++i)
        if (queue.dropStaleMarkers(configs[i].name, keys[i]))
            warn("'", configs[i].name, "': its queue marker was "
                 "written for other arguments; discarded");

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
            queue.markFailed(cfg.name, keys[i], cfg.exitCode);
        }
        if (!speculative)
            queue.release(cfg.name);
        return true;
    };

    while (true) {
        if (g_signal != 0) {
            std::cerr << "worker " << opts.workerId
                      << " interrupted; re-run the same command to "
                      << "finish the sweep\n";
            writeFabricStats(opts, store, queue, speculativeRuns,
                             configs);
            return exitInterrupted;
        }

        bool allTerminal = true;
        bool progress = false;
        for (size_t i = 0; i < configs.size(); ++i) {
            SweepConfig &cfg = configs[i];
            if (g_signal != 0)
                break;
            if (queue.isDone(cfg.name, keys[i])) {
                // Check the CSV once, when this worker first sees
                // the marker; a config it finished itself was
                // checked on publication.
                if (cfg.status == "done" ||
                    restoreDoneCsv(opts, store, cfg, keys[i])) {
                    cfg.status = "done";
                    continue;
                }
                cfg.storeMissed = true;
                warn("'", cfg.name, "' marked done but its CSV is "
                     "unusable and the store has no entry; "
                     "re-running");
                io::removeQuiet(opts.outDir + "/queue/" + cfg.name +
                                ".done");
                allTerminal = false;
                continue;
            }
            int failCode = -1;
            if (queue.isFailed(cfg.name, keys[i], &failCode)) {
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
            cfg.storeMissed = true;
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
        // An interrupt can cut the pass short before it reaches a
        // pending config; the loop head reports it.
        if (g_signal != 0)
            continue;
        if (allTerminal)
            break;
        if (progress)
            continue;

        // Nothing claimable: everyone else holds the remaining
        // work. Watch their leases; seize stale ones (crashed or
        // wedged holders) and speculatively duplicate stragglers.
        bool acted = false;
        for (size_t i = 0; i < configs.size(); ++i) {
            SweepConfig &cfg = configs[i];
            if (queue.isDone(cfg.name, keys[i]) ||
                queue.isFailed(cfg.name, keys[i]) || g_signal != 0)
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

    writeFabricStats(opts, store, queue, speculativeRuns, configs);

    size_t failed = 0;
    for (const SweepConfig &cfg : configs)
        if (cfg.status != "done")
            ++failed;
    if (failed > 0) {
        std::cerr << failed
                  << " config(s) failed permanently; see the "
                  << ".failed markers in " << opts.outDir
                  << "/queue (delete one to retry its config)\n";
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

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::cout << "sweep worker " << opts.workerId << ": "
              << configs.size() << " config(s), queue " << opts.outDir
              << "/queue, store " << opts.storeDir << "\n";
    return runSweep(opts, configs);
}

} // namespace

int
main(int argc, char **argv)
{
    // Malformed input — command line, result CSV, store entry —
    // exits with the surface's documented code; a bad command line
    // also reprints the usage text. Fabric faults (lease lost, store
    // corrupt) carry their own codes.
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
        // store/queue/merge artifact survived the failure.
        std::cerr << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    }
}
