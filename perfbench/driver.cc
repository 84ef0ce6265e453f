/**
 * @file
 * texdist benchmark driver. Runs one workload closed-loop (one
 * caller; the next unit starts when the previous one returns) from a
 * single process, through the simulator's public headers and, for
 * sweep-fabric, through the sweep_runner and texdist_sim binaries.
 * Every unit's output is checked against golden digests. The driver
 * writes a raw JSON report; perfbench/run.py turns it into the
 * benchmark's metrics.
 *
 * Usage:
 *   perfbench --workload=<figure-sweep|pan-warm|sweep-fabric>
 *             --seed=<n> --seconds=<s> --trace=<0|1>
 *             --golden=<file> --bin=<dir> --work=<dir>
 *             --report=<file> [--scale=<f>] [--jobs=<n>]
 *             [--record-golden]
 *
 * The timed phase runs whole passes (figure-sweep: every
 * configuration once; pan-warm: one pan period; sweep-fabric: one
 * re-run) and stops at the pass boundary nearest to --seconds, so
 * every run times the same mix of units. With --trace=1 the passes
 * alternate between traced and untraced, spans are recorded around
 * each call into a layer, and a probe phase measures the layers the
 * workload itself does not exercise.
 */

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hh"
#include "cache/cache.hh"
#include "cache/two_level.hh"
#include "core/experiments.hh"
#include "core/interframe.hh"
#include "core/json.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "fabric/store.hh"
#include "io/vfs.hh"
#include "raster/raster.hh"
#include "scene/benchmarks.hh"
#include "scene/stats.hh"
#include "sim/checkpoint.hh"
#include "sim/simd.hh"
#include "texture/sampler.hh"

using namespace texdist;
namespace fs = std::filesystem;

namespace
{

// ---------------------------------------------------------------- time

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------- options

/**
 * Set-ups per untraced run; setup_s is their median. One set-up
 * takes 0.2-1 s, short enough for host noise to move it by 20-40%,
 * and the host's speed drifts over tens of seconds. So the first
 * set-up runs before the timed phase and the others between units,
 * spread evenly over the timed phase after its first pass. (The
 * first pass stays whole: its simulated counts are compared with a
 * traced run's, which sets up once.)
 */
constexpr size_t setupRuns = 12;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string golden;
    std::string bin;
    std::string work;
    std::string report;
    double scale = 0.25;
    uint32_t jobs = 1;
    bool recordGolden = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload=<figure-sweep|pan-warm|"
                 "sweep-fabric> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> --golden=<file> --bin=<dir> "
                 "--work=<dir> --report=<file> [--scale=<f>] [--jobs=<n>] "
                 "[--record-golden]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        size_t eq = arg.find('=');
        std::string key = arg.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        try {
            if (key == "--workload")
                o.workload = val;
            else if (key == "--seed")
                o.seed = std::stoull(val);
            else if (key == "--seconds")
                o.seconds = std::stod(val);
            else if (key == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (key == "--golden")
                o.golden = val;
            else if (key == "--bin")
                o.bin = val;
            else if (key == "--work")
                o.work = val;
            else if (key == "--report")
                o.report = val;
            else if (key == "--scale")
                o.scale = std::stod(val);
            else if (key == "--jobs")
                o.jobs = uint32_t(std::max(1, std::stoi(val)));
            else if (arg == "--record-golden")
                o.recordGolden = true;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value in " + arg);
        }
    }
    if (o.workload.empty() || o.golden.empty() || o.bin.empty() ||
        o.work.empty() || o.report.empty())
        usage("missing a required argument");
    return o;
}

// ------------------------------------------------------------- tracing

/**
 * In-memory span recorder. A span has a name, start and end, the
 * span open when it began, the unit it belongs to and a work count
 * (fragments, accesses, configs) recorded at the same boundary.
 * Disabled, open() and close() do nothing.
 */
class Tracer
{
  public:
    static constexpr size_t none = size_t(-1);

    bool enabled = false;
    uint32_t unit = 0;

    size_t
    open(const char *name)
    {
        if (!enabled)
            return none;
        Span s;
        s.name = name;
        s.parent = stack.empty() ? none : stack.back();
        s.unit = unit;
        s.start = nowNs();
        spans.push_back(s);
        stack.push_back(spans.size() - 1);
        return spans.size() - 1;
    }

    void
    close(size_t idx, double work)
    {
        if (idx == none)
            return;
        spans[idx].end = nowNs();
        spans[idx].work = work;
        stack.pop_back();
    }

    /** Median over spans named @p name of duration / work, in ns. */
    double
    medianNsPerWork(const std::string &name) const
    {
        std::vector<double> v;
        for (const Span &s : spans)
            if (s.name == name && s.work > 0)
                v.push_back(double(s.end - s.start) / s.work);
        return median(v);
    }

    /** Total duration of the spans named @p name, in ns. */
    double
    totalNs(const std::string &name) const
    {
        double total = 0.0;
        for (const Span &s : spans)
            if (s.name == name)
                total += double(s.end - s.start);
        return total;
    }

    bool
    has(const std::string &name) const
    {
        for (const Span &s : spans)
            if (s.name == name)
                return true;
        return false;
    }

    void
    write(const std::string &path) const
    {
        std::string out;
        for (const Span &s : spans) {
            std::ostringstream line;
            line << "{\"name\":\"" << s.name << "\",\"start_ns\":"
                 << s.start << ",\"end_ns\":" << s.end
                 << ",\"parent\":"
                 << (s.parent == none ? -1 : int64_t(s.parent))
                 << ",\"unit\":" << s.unit << ",\"work\":" << s.work
                 << "}\n";
            out += line.str();
        }
        io::writeFileAtomic(path, out);
    }

  private:
    struct Span
    {
        std::string name;
        size_t parent = none;
        uint32_t unit = 0;
        int64_t start = 0;
        int64_t end = 0;
        double work = 0.0;
    };
    std::vector<Span> spans;
    std::vector<size_t> stack;
};

/** RAII span; set work before it closes. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : tracer(t), idx(t.open(name)) {}
    ~Scope() { tracer.close(idx, work); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    double work = 1.0;

  private:
    Tracer &tracer;
    size_t idx;
};

// -------------------------------------------------------------- checks

/** Output checks behind ok_frac, and golden digest recording. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t passed = 0;
    std::vector<std::string> failures;
    bool record = false;
    JsonValue golden = JsonValue::makeObject();
    /** Digests recorded so far (record mode). */
    std::map<std::string, uint64_t> seen;

    bool
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok) {
            ++passed;
        } else if (failures.size() < 20) {
            failures.push_back(what);
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
        return ok;
    }

    /** Compare (or, when recording, store) a golden digest. */
    bool
    digest(const std::string &key, uint64_t value)
    {
        if (record) {
            auto [it, fresh] = seen.emplace(key, value);
            golden.set(key, JsonValue::makeString(digestHex(value)));
            return expect(fresh || it->second == value,
                          "digest " + key + " is not repeatable");
        }
        const JsonValue *want = golden.get(key);
        return expect(want && want->asString() == digestHex(value),
                      "digest " + key + " = " + digestHex(value) +
                          (want ? " != golden " + want->asString()
                                : " (no golden)"));
    }
};

// ----------------------------------------------------- simulated counts

/**
 * Simulated statistics summed over one full pass. They depend only
 * on the simulated machine, so traced and untraced runs (and any
 * host-only change) must report them identically.
 */
struct SimTotals
{
    uint64_t frames = 0;
    uint64_t cycles = 0;
    uint64_t pixels = 0;
    uint64_t texels = 0;
    uint64_t triangles = 0;
    uint64_t stall = 0;
    uint64_t setupBound = 0;
    uint64_t accesses = 0;
    uint64_t memMisses = 0; ///< misses that went to external memory
    uint64_t l1Misses = 0;
    double busUtil = 0.0;
    double timeImbalance = 0.0;

    /** Add a frame; @p l1_misses is the on-chip miss count. */
    void
    add(const FrameResult &r, uint64_t l1_misses)
    {
        ++frames;
        cycles += r.frameTime;
        pixels += r.totalPixels;
        texels += r.totalTexelsFetched;
        busUtil += r.meanBusUtilization;
        timeImbalance += r.timeImbalancePercent;
        for (const NodeResult &n : r.nodes) {
            triangles += n.triangles;
            stall += n.stallCycles;
            setupBound += n.setupBoundTriangles;
            accesses += n.cacheAccesses;
            memMisses += n.cacheMisses;
        }
        l1Misses += l1_misses;
    }

    /** Add a frame of a machine without an L2. */
    void
    add(const FrameResult &r)
    {
        uint64_t misses = 0;
        for (const NodeResult &n : r.nodes)
            misses += n.cacheMisses;
        add(r, misses);
    }

    static double
    ratio(double a, double b)
    {
        return b > 0 ? a / b : 0.0;
    }

    JsonValue
    json() const
    {
        JsonValue o = JsonValue::makeObject();
        auto num = [&](const char *k, double v) {
            o.set(k, JsonValue::makeNumber(v));
        };
        num("frames", double(frames));
        num("cache.l1_miss_ratio", ratio(double(l1Misses), double(accesses)));
        num("cache.l2_miss_ratio", ratio(double(memMisses), double(l1Misses)));
        num("mem.texels_per_frag", ratio(double(texels), double(pixels)));
        num("mem.bus_util", ratio(busUtil, double(frames)));
        num("core.sim_cycles_per_frame", ratio(double(cycles), double(frames)));
        num("core.stall_cycles_per_frag", ratio(double(stall), double(pixels)));
        num("core.setup_bound_frac",
            ratio(double(setupBound), double(triangles)));
        num("core.time_imbalance_pct", ratio(timeImbalance, double(frames)));
        return o;
    }
};

/** Cumulative on-chip misses of a machine whose nodes have an L2. */
uint64_t
l1MissesOf(const SequenceMachine &m)
{
    uint64_t total = 0;
    for (uint32_t i = 0; i < m.numNodes(); ++i) {
        const auto *two =
            dynamic_cast<const TwoLevelCache *>(&m.node(i).cache());
        if (two)
            total += two->l1Misses();
    }
    return total;
}

// ------------------------------------------------------------ machines

/** pan-warm's machine: 16 procs, block 16, paper L1, per-node L2. */
MachineConfig
panConfig()
{
    MachineConfig cfg = paperConfig();
    cfg.numProcs = 16;
    cfg.dist = DistKind::Block;
    cfg.tileParam = 16;
    cfg.hasL2 = true;
    return cfg;
}

/** Frames per pan period. */
constexpr uint32_t panPeriod = 32;

/**
 * Camera offset of pan position @p pos: a triangle wave, so the
 * scene drifts 32 px right and 16 px down and back again within one
 * period, and never leaves the screen.
 */
void
panOffset(uint32_t pos, float &dx, float &dy)
{
    uint32_t t = pos % panPeriod;
    if (t > panPeriod / 2)
        t = panPeriod - t;
    dx = 2.0f * float(t);
    dy = float(t);
}

Scene
buildScene(Tracer &tr, const std::string &name, double scale)
{
    Scope s(tr, "scene.build");
    return makeBenchmark(name, scale);
}

// ----------------------------------------------------------- processes

/**
 * fork/exec @p argv with stdout and stderr appended to @p log, and
 * wait for it. Returns the exit code, or 128 + signal.
 */
int
runProcess(const std::vector<std::string> &argv, const std::string &log)
{
    std::vector<std::string> args = argv;
    std::vector<char *> cargv;
    for (std::string &a : args)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);
    pid_t pid = fork();
    if (pid < 0) {
        std::cerr << "perfbench: fork failed\n";
        return 127;
    }
    if (pid == 0) {
        int fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
        if (fd >= 0) {
            dup2(fd, STDOUT_FILENO);
            dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        execv(cargv[0], cargv.data());
        _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return 127;
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

double
peakRssMb(int who)
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(who, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

// ----------------------------------------------------------- workloads

/** Per-unit outcome the pass loop records. */
struct UnitResult
{
    double fragments = 0.0;
    bool ok = true;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything the timed phase needs, from scratch. */
    virtual void setup() = 0;

    /** Units in one pass. */
    virtual size_t passSize() const = 0;

    /** Untimed preparation of unit @p i of a pass. */
    virtual void prepare(size_t) {}

    /** The timed unit. */
    virtual UnitResult unit(size_t i, bool first_pass) = 0;

    /**
     * Untimed companion work after each unit of a traced run, in
     * traced and untraced passes alike; spans record only in traced
     * passes.
     */
    virtual void traceCompanion(size_t) {}

    /** Checks over the whole run (claims, references). */
    virtual void finish() {}

    /** Measure the layers this workload does not exercise. */
    virtual void probe() {}

    virtual JsonValue describeScenes() const = 0;

    Tracer tracer;
    Checks checks;
    SimTotals sim;
    /** Extra per-layer values not derived from spans. */
    std::map<std::string, double> layers;
};

JsonValue
sceneInfo(const Scene &scene, double scale)
{
    SceneStats s = measureScene(scene);
    JsonValue o = JsonValue::makeObject();
    o.set("name", JsonValue::makeString(scene.name));
    o.set("scale", JsonValue::makeNumber(scale));
    o.set("screen", JsonValue::makeString(std::to_string(s.screenWidth) +
                                          "x" +
                                          std::to_string(s.screenHeight)));
    o.set("triangles", JsonValue::makeNumber(double(s.numTriangles)));
    o.set("fragments", JsonValue::makeNumber(double(s.pixelsRendered)));
    o.set("depth_complexity", JsonValue::makeNumber(s.depthComplexity));
    o.set("textures", JsonValue::makeNumber(double(s.numTextures)));
    o.set("texture_mb_used",
          JsonValue::makeNumber(double(s.textureBytesTouched) / 1048576.0));
    return o;
}

// ---- probes shared by the workloads' traced runs

/** Keeps the probes' results observable so no loop is elided. */
volatile uint64_t g_sink = 0;

/**
 * Raster, address generation and cache probes over one frame of
 * @p scene: TriangleRaster::rasterize over every triangle,
 * TrilinearSampler::generateBatch over the frame's fragments, and
 * node 0's address stream (16 procs, block 16) replayed through a
 * paper-geometry SetAssocCache, cold and then warm.
 */
void
probeFrameLayers(Tracer &tr, const Scene &scene)
{
    const Rect screen = scene.screenRect();
    struct Run
    {
        TextureId tex;
        size_t begin;
        size_t count;
    };
    std::vector<float> us, vs, lods;
    std::vector<int32_t> xs, ys;
    std::vector<Run> runs;
    uint64_t sink = 0;

    for (int rep = 0; rep < 3; ++rep) {
        Scope s(tr, "raster.rasterize");
        uint64_t frags = 0;
        for (const TexTriangle &tri : scene.triangles) {
            const Texture &tex = scene.textures.get(tri.tex);
            TriangleRaster r(tri, tex.width(), tex.height());
            r.rasterize(screen, [&](const Fragment &f) {
                ++frags;
                sink += uint64_t(f.x);
            });
        }
        s.work = double(frags);
    }
    for (const TexTriangle &tri : scene.triangles) {
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster r(tri, tex.width(), tex.height());
        Run run{tri.tex, us.size(), 0};
        r.rasterize(screen, [&](const Fragment &f) {
            us.push_back(f.u);
            vs.push_back(f.v);
            lods.push_back(f.lod);
            xs.push_back(f.x);
            ys.push_back(f.y);
        });
        run.count = us.size() - run.begin;
        if (run.count)
            runs.push_back(run);
    }

    constexpr size_t chunk = 512;
    std::vector<uint64_t> addrs(chunk * texelsPerFragment);
    for (int rep = 0; rep < 3; ++rep) {
        Scope s(tr, "texture.generateBatch");
        for (const Run &run : runs) {
            const Texture &tex = scene.textures.get(run.tex);
            for (size_t b = 0; b < run.count; b += chunk) {
                size_t m = std::min(chunk, run.count - b);
                size_t at = run.begin + b;
                TrilinearSampler::generateBatch(tex, &us[at], &vs[at],
                                                &lods[at], m, addrs.data());
                sink += addrs[0];
            }
        }
        s.work = double(us.size());
    }

    // Node 0's address stream under pan-warm's distribution.
    auto dist = Distribution::make(DistKind::Block, scene.screenWidth,
                                   scene.screenHeight, 16, 16);
    std::vector<uint64_t> stream;
    for (const Run &run : runs) {
        const Texture &tex = scene.textures.get(run.tex);
        for (size_t k = run.begin; k < run.begin + run.count; ++k) {
            if (dist->owner(xs[k], ys[k]) != 0)
                continue;
            TexelRefs refs;
            TrilinearSampler::generate(tex, us[k], vs[k], lods[k], refs);
            stream.insert(stream.end(), refs.begin(), refs.end());
        }
    }
    for (int rep = 0; rep < 3; ++rep) {
        SetAssocCache cache(CacheGeometry{});
        {
            Scope s(tr, "cache.access.cold");
            for (uint64_t a : stream)
                sink += cache.access(a);
            s.work = double(stream.size());
        }
        {
            Scope s(tr, "cache.access.warm");
            for (uint64_t a : stream)
                sink += cache.access(a);
            s.work = double(stream.size());
        }
    }
    g_sink = sink;
}

/** scene.translate over @p scene, five pan offsets. */
void
probeTranslate(Tracer &tr, const Scene &scene)
{
    for (uint32_t pos = 1; pos <= 5; ++pos) {
        float dx = 0, dy = 0;
        panOffset(pos, dx, dy);
        Scope s(tr, "scene.translate");
        Scene f = translateScene(scene, dx, dy);
    }
}

/** FrameLab::baseline and FrameLab::run on @p scene. */
void
probeMachine(Tracer &tr, const Scene &scene)
{
    FrameLab lab(scene);
    MachineConfig cfg = panConfig();
    cfg.hasL2 = false;
    {
        Scope s(tr, "core.machine.baseline");
        lab.baseline(cfg);
    }
    for (int rep = 0; rep < 3; ++rep) {
        Scope s(tr, "core.machine.run");
        FrameResult r = lab.run(cfg);
        s.work = double(r.totalPixels);
    }
}

/**
 * SequenceMachine::runFrame and, on a twin machine over the same
 * frames, runFrameFunctional: one warm period, then one traced one.
 */
void
probeSequence(Tracer &tr, const Scene &scene)
{
    SequenceMachine m(scene, panConfig(), 1);
    SequenceMachine twin(scene, panConfig(), 1);
    const bool enabled = tr.enabled;
    for (uint32_t pos = 0; pos < 2 * panPeriod; ++pos) {
        float dx = 0, dy = 0;
        panOffset(pos, dx, dy);
        Scene f = translateScene(scene, dx, dy);
        // The first period warms the caches and is not recorded.
        tr.enabled = enabled && pos >= panPeriod;
        {
            Scope s(tr, "core.sequence.runFrame");
            s.work = double(m.runFrame(f).totalPixels);
        }
        Scope s(tr, "core.sequence.runFrameFunctional");
        s.work = double(twin.runFrameFunctional(f).totalPixels);
    }
    tr.enabled = enabled;
}

/**
 * Host-thread speedup of pan-warm's frames: three machines at jobs
 * 1, 2 and 4 render the same frames, interleaved frame by frame so
 * host-speed drift hits all three alike.
 */
void
probeThreads(Workload &w, double scale)
{
    Scene base = makeBenchmark("quake", scale);
    const uint32_t jobs[3] = {1, 2, 4};
    std::vector<std::unique_ptr<SequenceMachine>> ms;
    for (uint32_t j : jobs)
        ms.push_back(std::make_unique<SequenceMachine>(base, panConfig(), j));
    double total[3] = {0, 0, 0};
    for (uint32_t pos = 0; pos < 3 * panPeriod; ++pos) {
        float dx = 0, dy = 0;
        panOffset(pos, dx, dy);
        Scene f = translateScene(base, dx, dy);
        for (int k = 0; k < 3; ++k) {
            int64_t t0 = nowNs();
            ms[size_t(k)]->runFrame(f);
            if (pos >= panPeriod)
                total[k] += double(nowNs() - t0);
        }
    }
    w.layers["sim.thread_pool.speedup_j2"] = total[0] / total[1];
    w.layers["sim.thread_pool.speedup_j4"] = total[0] / total[2];
}

// ---- figure-sweep

/**
 * Every FrameLab::run the reproduction report makes, in its order:
 * the Fig. 7 block/SLI sweeps over three scenes and three processor
 * counts, the Fig. 6 infinite-bus locality runs and the Fig. 8
 * perfect-cache buffer runs. One unit is one cold-cache frame.
 */
class FigureSweep : public Workload
{
  public:
    /**
     * The unit list and its results live as long as the workload, so
     * a set-up between units keeps what the claims read.
     */
    explicit FigureSweep(const Options &o) : opts(o)
    {
        for (size_t s = 0; s < 3; ++s) {
            for (uint32_t procs : {4u, 16u, 64u}) {
                for (uint32_t w : blockWidths)
                    addUnit(s, procs, DistKind::Block, w, Fig::Fig7);
                for (uint32_t l : sliLines)
                    addUnit(s, procs, DistKind::SLI, l, Fig::Fig7);
            }
        }
        // Fig. 6: texel/fragment ratios on 32massive11255.
        addUnit(0, 1, DistKind::Block, 16, Fig::Fig6);
        addUnit(0, 64, DistKind::Block, 16, Fig::Fig6);
        addUnit(0, 64, DistKind::SLI, 2, Fig::Fig6);
        // Fig. 8: triangle buffer on truc640, perfect cache.
        for (uint32_t buffer : {1u, 500u, 10000u}) {
            Unit u{1, paperConfig(), Fig::Fig8};
            u.cfg.cacheKind = CacheKind::Perfect;
            u.cfg.infiniteBus = true;
            u.cfg.numProcs = 64;
            u.cfg.tileParam = 16;
            u.cfg.triangleBufferSize = buffer;
            units.push_back(u);
        }
    }

    void
    setup() override
    {
        scenes_.clear();
        labs.clear();
        const char *names[3] = {"32massive11255", "truc640", "room3"};
        for (const char *name : names)
            scenes_.push_back(std::make_unique<Scene>(
                buildScene(tracer, name, opts.scale)));
        for (auto &scene : scenes_)
            labs.push_back(std::make_unique<FrameLab>(*scene));
        // T(1) baselines are setup: warm FrameLab's cache.
        for (const Unit &u : units) {
            if (u.fig == Fig::Fig6)
                continue;
            Scope s(tracer, "core.machine.baseline");
            labs[u.scene]->baseline(u.cfg);
        }
    }

    size_t passSize() const override { return units.size(); }

    UnitResult
    unit(size_t i, bool first_pass) override
    {
        Unit &u = units[i];
        FrameLab &lab = *labs[u.scene];
        FrameResult r;
        {
            Scope s(tracer, "core.machine.run");
            if (u.fig == Fig::Fig6) {
                r = lab.run(u.cfg);
            } else {
                FrameLab::SpeedupResult sr = lab.runWithSpeedup(u.cfg);
                r = std::move(sr.frame);
                u.speedup = sr.speedup;
            }
            s.work = double(r.totalPixels);
        }
        u.ratio = r.texelToFragmentRatio;
        UnitResult out;
        out.fragments = double(r.totalPixels);
        out.ok = checks.digest(key(u), digestFrame(r)) && !r.failed;
        if (first_pass)
            sim.add(r);
        return out;
    }

    void
    finish() override
    {
        evaluateClaims();
    }

    void
    probe() override
    {
        probeFrameLayers(tracer, *scenes_[0]);
        probeTranslate(tracer, *scenes_[0]);
        probeSequence(tracer, *scenes_[0]);
        probeThreads(*this, opts.scale);
    }

    JsonValue
    describeScenes() const override
    {
        JsonValue a = JsonValue::makeArray();
        for (const auto &scene : scenes_)
            a.append(sceneInfo(*scene, opts.scale));
        return a;
    }

  private:
    enum class Fig
    {
        Fig6,
        Fig7,
        Fig8
    };
    struct Unit
    {
        size_t scene;
        MachineConfig cfg;
        Fig fig;
        double speedup = 0.0;
        double ratio = 0.0;
    };

    void
    addUnit(size_t scene, uint32_t procs, DistKind kind, uint32_t param,
            Fig fig)
    {
        Unit u{scene, paperConfig(), fig};
        u.cfg.numProcs = procs;
        u.cfg.dist = kind;
        u.cfg.tileParam = param;
        u.cfg.infiniteBus = fig == Fig::Fig6;
        units.push_back(u);
    }

    std::string
    key(const Unit &u) const
    {
        return "figure-sweep/" + scenes_[u.scene]->name + " " +
               u.cfg.describe();
    }

    /** Speedups of one scene/procs/kind sweep, by tile parameter. */
    std::map<uint32_t, double>
    sweep(size_t scene, uint32_t procs, DistKind kind) const
    {
        std::map<uint32_t, double> out;
        for (const Unit &u : units)
            if (u.fig == Fig::Fig7 && u.scene == scene &&
                u.cfg.numProcs == procs && u.cfg.dist == kind)
                out[u.cfg.tileParam] = u.speedup;
        return out;
    }

    static uint32_t
    argmax(const std::map<uint32_t, double> &s, double &best)
    {
        best = -1.0;
        uint32_t arg = 0;
        for (const auto &[p, v] : s)
            if (v > best) {
                best = v;
                arg = p;
            }
        return arg;
    }

    double
    unitValue(Fig fig, uint32_t procs, DistKind kind, uint32_t param,
              uint32_t buffer, bool speedup) const
    {
        for (const Unit &u : units)
            if (u.fig == fig && u.cfg.numProcs == procs &&
                u.cfg.dist == kind && u.cfg.tileParam == param &&
                (fig != Fig::Fig8 || u.cfg.triangleBufferSize == buffer))
                return speedup ? u.speedup : u.ratio;
        return 0.0;
    }

    /** The reproduction report's 8 claims, from this run's units. */
    void
    evaluateClaims()
    {
        // Claim 1: a fixed block width in {8,16,32} reaches 85% of
        // the optimum everywhere.
        double best_fixed = 0.0;
        for (uint32_t fixed : {8u, 16u, 32u}) {
            double worst = 1.0;
            for (size_t s = 0; s < 3; ++s)
                for (uint32_t procs : {4u, 16u, 64u}) {
                    auto sw = sweep(s, procs, DistKind::Block);
                    double best = 0.0;
                    argmax(sw, best);
                    worst = std::min(worst, sw[fixed] / best);
                }
            best_fixed = std::max(best_fixed, worst);
        }
        checks.expect(best_fixed >= 0.85,
                      "claim: one fixed block width is near-optimal");

        // Claims 2-4: SLI height shrinks with P; tie at 16P; block
        // wins at 64P.
        bool shrink = true, tie = true, win = true;
        for (size_t s = 0; s < 3; ++s) {
            double b4 = 0, b64 = 0, bb16 = 0, bb64 = 0, bs16 = 0, bs64 = 0;
            uint32_t h4 = argmax(sweep(s, 4, DistKind::SLI), b4);
            uint32_t h64 = argmax(sweep(s, 64, DistKind::SLI), b64);
            if (h64 > h4)
                shrink = false;
            argmax(sweep(s, 16, DistKind::Block), bb16);
            argmax(sweep(s, 64, DistKind::Block), bb64);
            argmax(sweep(s, 16, DistKind::SLI), bs16);
            argmax(sweep(s, 64, DistKind::SLI), bs64);
            double r16 = bb16 / bs16, r64 = bb64 / bs64;
            if (r16 < 0.85 || r16 > 1.2)
                tie = false;
            if (r64 < 1.0)
                win = false;
        }
        checks.expect(shrink, "claim: best SLI height shrinks with P");
        checks.expect(tie, "claim: block and SLI comparable at 16P");
        checks.expect(win, "claim: block beats SLI at 64P");

        // Claim 5: imbalance grows with block size (untimed).
        const Scene &massive = *scenes_[0];
        auto imb = [&](uint32_t width) {
            auto dist = Distribution::make(DistKind::Block,
                                           massive.screenWidth,
                                           massive.screenHeight, 64, width);
            return imbalancePercent(pixelWorkPerProc(massive, *dist));
        };
        double i16 = imb(16), i128 = imb(128);
        checks.expect(i128 > 4.0 * i16 && i16 <= 25.0,
                      "claim: imbalance grows with block size");

        // Claims 6-7: Fig. 6 locality.
        double r1 = unitValue(Fig::Fig6, 1, DistKind::Block, 16, 0, false);
        double r64 = unitValue(Fig::Fig6, 64, DistKind::Block, 16, 0, false);
        double sli2 = unitValue(Fig::Fig6, 64, DistKind::SLI, 2, 0, false);
        checks.expect(r64 > 1.2 * r1,
                      "claim: texel/fragment ratio grows with P");
        checks.expect(sli2 > r64,
                      "claim: SLI-2 loses more locality than block-16");

        // Claim 8: a 500-entry buffer reaches ideal-buffer speed.
        double b1 = unitValue(Fig::Fig8, 64, DistKind::Block, 16, 1, true);
        double b500 = unitValue(Fig::Fig8, 64, DistKind::Block, 16, 500, true);
        double big =
            unitValue(Fig::Fig8, 64, DistKind::Block, 16, 10000, true);
        checks.expect(b500 >= 0.98 * big && b1 < 0.8 * big,
                      "claim: 500-entry buffer reaches ideal speed");
    }

    const Options &opts;
    std::vector<std::unique_ptr<Scene>> scenes_;
    std::vector<std::unique_ptr<FrameLab>> labs;
    std::vector<Unit> units;
};

// ---- pan-warm

/**
 * One SequenceMachine on quake: 16 procs, block 16, the paper's L1
 * and a per-node L2. One unit is translateScene + runFrame for one
 * frame of an oscillating pan whose phase comes from the seed. Two
 * warm-up periods are setup; after them the machine's state repeats
 * every period, so each pan position has one golden digest.
 */
class PanWarm : public Workload
{
  public:
    explicit PanWarm(const Options &o) : opts(o) {}

    void
    setup() override
    {
        // A set-up between units keeps the pan's phase, so every pass
        // still visits each position once.
        const uint32_t phase =
            machine ? frameNo % panPeriod : uint32_t(opts.seed % panPeriod);
        twin.reset();
        machine.reset();
        base = std::make_unique<Scene>(buildScene(tracer, "quake", opts.scale));
        machine = std::make_unique<SequenceMachine>(*base, panConfig(),
                                                    opts.jobs);
        if (opts.trace)
            twin = std::make_unique<SequenceMachine>(*base, panConfig(), 1);
        frameNo = phase;
        for (uint32_t k = 0; k < 2 * panPeriod; ++k, ++frameNo) {
            Scene f = frame(frameNo);
            machine->runFrame(f);
            if (twin)
                twin->runFrameFunctional(f);
        }
        lapL1 = l1MissesOf(*machine);
    }

    size_t passSize() const override { return panPeriod; }

    UnitResult
    unit(size_t, bool first_pass) override
    {
        uint32_t pos = frameNo++ % panPeriod;
        FrameResult r;
        {
            Scope s(tracer, "scene.translate");
            last = std::make_unique<Scene>(frame(pos));
        }
        const Tick start = machine->currentTime();
        {
            Scope s(tracer, "core.sequence.runFrame");
            r = machine->runFrame(*last);
            s.work = double(r.totalPixels);
        }
        UnitResult out;
        out.fragments = double(r.totalPixels);
        out.ok = checks.digest(goldenKey(pos), digestFromStart(r, start)) &&
                 !r.failed;
        if (first_pass) {
            uint64_t l1 = l1MissesOf(*machine);
            sim.add(r, l1 - lapL1);
            lapL1 = l1;
        }
        return out;
    }

    void
    traceCompanion(size_t) override
    {
        Scope s(tracer, "core.sequence.runFrameFunctional");
        s.work = double(twin->runFrameFunctional(*last).totalPixels);
    }

    void
    probe() override
    {
        twin.reset();
        machine.reset();
        probeFrameLayers(tracer, *base);
        probeMachine(tracer, *base);
        probeThreads(*this, opts.scale);
    }

    JsonValue
    describeScenes() const override
    {
        JsonValue a = JsonValue::makeArray();
        a.append(sceneInfo(*base, opts.scale));
        return a;
    }

  private:
    /**
     * digestFrame with node finish times taken relative to the
     * frame's start: the machine's clock grows without bound, but
     * after the warm-up its state repeats every pan period.
     */
    static uint64_t
    digestFromStart(FrameResult r, Tick start)
    {
        for (NodeResult &n : r.nodes)
            n.finishTime = n.finishTime > start ? n.finishTime - start : 0;
        return digestFrame(r);
    }

    Scene
    frame(uint32_t pos) const
    {
        float dx = 0, dy = 0;
        panOffset(pos, dx, dy);
        return translateScene(*base, dx, dy);
    }

    std::string
    goldenKey(uint32_t pos) const
    {
        std::ostringstream k;
        k << "pan-warm/scale=" << opts.scale << "/pos=" << pos;
        return k.str();
    }

    const Options &opts;
    std::unique_ptr<Scene> base;
    std::unique_ptr<Scene> last;
    std::unique_ptr<SequenceMachine> machine;
    std::unique_ptr<SequenceMachine> twin;
    uint32_t frameNo = 0;
    uint64_t lapL1 = 0;
};

// ---- sweep-fabric

/** One reproduction-report config as texdist_sim arguments. */
struct GridConfig
{
    std::string name;
    std::string args;
};

/** The sweep grid's scene and scale (see sweepGrid). */
constexpr const char *sweepScene = "quake";
constexpr double sweepScale = 0.125;

/**
 * Eight of the reproduction report's Fig. 7 machine configs (16
 * procs; block widths and SLI heights), ordered so that each quarter
 * (index mod 4) holds one block and one SLI config. sweep_runner
 * polls its child every 50 ms, so a miss costs the child's time
 * rounded up to a whole poll, and a grid whose children take close to
 * a multiple of 50 ms makes re-run times jump between poll multiples
 * as the host's speed drifts. On the report's scenes at scale 0.25 a
 * child takes 100-140 ms, on quake at 0.25 35-60 ms; on quake at
 * 0.125 it takes 15-27 ms and ends inside the first poll even on a
 * host running at half speed.
 */
std::vector<GridConfig>
sweepGrid()
{
    return {{"block4", "--dist=block --param=4"},
            {"sli1", "--dist=sli --param=1"},
            {"block8", "--dist=block --param=8"},
            {"sli2", "--dist=sli --param=2"},
            {"sli4", "--dist=sli --param=4"},
            {"block16", "--dist=block --param=16"},
            {"sli8", "--dist=sli --param=8"},
            {"block32", "--dist=block --param=32"}};
}

std::vector<std::string>
splitWords(const std::string &s)
{
    std::istringstream in(s);
    std::vector<std::string> out;
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

/**
 * A user re-running a sweep after adding configs: each unit is one
 * `sweep_runner --fabric` re-run with a single worker, starting
 * from a fresh copy of a store that holds 3 of every 4 configs. The
 * seed picks which quarter is new.
 */
class SweepFabric : public Workload
{
  public:
    SweepFabric(const Options &o, std::string work_dir)
        : opts(o), dir(std::move(work_dir))
    {
    }

    void
    setup() override
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
        grid = sweepGrid();
        quarter = uint32_t(opts.seed % 4);
        std::string all, prefill;
        for (size_t i = 0; i < grid.size(); ++i) {
            std::string line = grid[i].name + ": " + grid[i].args + "\n";
            all += line;
            if (i % 4 != quarter)
                prefill += line;
        }
        io::writeFileAtomic(dir + "/grid.cfg", all);
        io::writeFileAtomic(dir + "/prefill.cfg", prefill);

        // Cold reference: every config simulated.
        int rc = sweep("grid.cfg", "ref", "store_ref");
        checks.expect(rc == 0, "cold reference sweep exit " +
                                   std::to_string(rc));
        reference = io::readFile(dir + "/ref/sweep.csv");
        checks.digest("sweep-fabric/scale=" + scaleText() + "/sweep.csv",
                      StateDigest().mix(reference).value());
        fragsPerSweep = 0;
        for (size_t i = 0; i < grid.size(); ++i)
            fragsPerSweep += csvPixels(
                io::readFile(dir + "/ref/" + grid[i].name + ".csv"));
        // The store the re-runs start from.
        rc = sweep("prefill.cfg", "prefill", "store_pre");
        checks.expect(rc == 0, "prefill sweep exit " + std::to_string(rc));
    }

    size_t passSize() const override { return 1; }

    void
    prepare(size_t) override
    {
        fs::remove_all(dir + "/u");
        fs::remove_all(dir + "/store_u");
        fs::copy(dir + "/store_pre", dir + "/store_u",
                 fs::copy_options::recursive);
    }

    UnitResult
    unit(size_t, bool) override
    {
        int rc = 0;
        {
            Scope s(tracer, "sweep.rerun");
            rc = sweep("grid.cfg", "u", "store_u");
            s.work = double(grid.size());
        }
        UnitResult out;
        out.fragments = double(fragsPerSweep);
        bool ok = checks.expect(rc == 0, "re-run exit " + std::to_string(rc));
        auto csv = io::readFileIfPresent(dir + "/u/sweep.csv");
        ok = checks.expect(csv && *csv == reference,
                           "re-run sweep.csv differs from the cold "
                           "reference") && ok;
        JsonValue st = JsonValue::parseFile(dir + "/u/fabric_stats.w0.json");
        uint64_t hits = st.at("store_hits").asU64();
        uint64_t misses = st.at("store_misses").asU64();
        ok = checks.expect(misses == grid.size() / 4 &&
                               hits == grid.size() - misses,
                           "re-run hit/miss split " + std::to_string(hits) +
                               "/" + std::to_string(misses)) && ok;
        totHits += hits;
        totMisses += misses;
        totCorrupt += st.at("store_corrupt").asU64();
        totRetries += st.at("leases_stolen").asU64() +
                      st.at("speculative_runs").asU64();
        out.ok = ok;
        return out;
    }

    void
    finish() override
    {
        // Simulated counts: the grid's frames replayed in process;
        // their digests must match the rows the sweep delivered.
        Scene scene = makeBenchmark(sweepScene, sweepScale);
        sim = SimTotals{};
        for (const GridConfig &g : grid) {
            MachineConfig cfg = paperConfig();
            cfg.numProcs = 16;
            std::vector<std::string> w = splitWords(g.args);
            cfg.dist = w[0] == "--dist=sli" ? DistKind::SLI : DistKind::Block;
            cfg.tileParam = uint32_t(std::stoul(w[1].substr(8)));
            FrameResult r;
            {
                Scope s(tracer, "sweep.replay");
                r = runFrame(scene, cfg);
            }
            sim.add(r);
            std::string row = io::readFile(dir + "/ref/" + g.name + ".csv");
            checks.expect(row.find(digestHex(digestFrame(r))) !=
                              std::string::npos,
                          "in-process digest of " + g.name +
                              " not in the delivered CSV");
        }
        sceneStats = sceneInfo(scene, sweepScale);
    }

    void
    probe() override
    {
        Tracer &tr = tracer;
        Scene scene = buildScene(tr, sweepScene, sweepScale);
        probeFrameLayers(tr, scene);
        probeTranslate(tr, scene);
        probeMachine(tr, scene);
        probeSequence(tr, scene);
        probeThreads(*this, opts.scale);
        probeFabric();
    }

    /** fabric, io and sweep_runner layers, timed from outside. */
    void
    probeFabric()
    {
        Tracer &tr = tracer;
        const std::string payload =
            io::readFile(dir + "/ref/" + grid[0].name + ".csv");
        std::vector<fabric::StoreKey> keys;
        for (int i = 0; i < 20; ++i) {
            std::vector<std::string> args = common();
            args.push_back("--dist=block");
            args.push_back("--param=" + std::to_string(i + 1));
            Scope s(tr, "fabric.computeStoreKey");
            keys.push_back(fabric::computeStoreKey(args, 0));
        }
        fs::remove_all(dir + "/probe");
        fs::create_directories(dir + "/probe");
        fabric::ResultStore store(dir + "/probe/store");
        for (const fabric::StoreKey &k : keys) {
            Scope s(tr, "fabric.publish");
            store.publish(k, "{}", payload);
        }
        for (const fabric::StoreKey &k : keys) {
            Scope s(tr, "fabric.fetch");
            s.work = double(store.fetch(k).has_value());
        }
        for (int i = 0; i < 20; ++i) {
            std::string path = dir + "/probe/f" + std::to_string(i) + ".csv";
            {
                Scope s(tr, "io.writeFileAtomic");
                io::writeFileAtomic(path, payload);
            }
            Scope s(tr, "io.readFile");
            s.work = double(io::readFile(path).size() == payload.size());
        }
        const std::string log = dir + "/probe/probe.log";
        for (int i = 0; i < 5; ++i) {
            Scope s(tr, "sweep.spawn");
            runProcess({opts.bin + "/texdist_sim", "--list-benchmarks"}, log);
        }
        for (int i = 0; i < 3; ++i) {
            std::vector<std::string> argv{opts.bin + "/texdist_sim"};
            for (const std::string &a : common())
                argv.push_back(a);
            for (const std::string &a : splitWords(grid[quarter].args))
                argv.push_back(a);
            argv.push_back("--result-csv=" + dir + "/probe/child.csv");
            Scope s(tr, "sweep.child");
            runProcess(argv, log);
        }
        for (int i = 0; i < 3; ++i) {
            fs::remove_all(dir + "/probe/hit");
            Scope s(tr, "sweep.hit_rerun");
            sweep("grid.cfg", "probe/hit", "store_ref");
            s.work = double(grid.size());
        }
        double hit_ms = tr.medianNsPerWork("sweep.hit_rerun") / 1e6;
        double child_ms = tr.medianNsPerWork("sweep.child") / 1e6;
        double unit_ms = tr.medianNsPerWork("sweep.rerun") * double(grid.size()) / 1e6;
        double misses = double(grid.size() / 4);
        layers["sweep.miss_wait_ms"] =
            (unit_ms - hit_ms * (double(grid.size()) - misses)) / misses -
            child_ms;
        layers["fabric.hit_ratio"] =
            SimTotals::ratio(double(totHits), double(totHits + totMisses));
        layers["fabric.store_corrupt"] = double(totCorrupt);
        layers["sweep.retries"] = double(totRetries);
    }

    JsonValue
    describeScenes() const override
    {
        JsonValue a = JsonValue::makeArray();
        a.append(sceneStats);
        return a;
    }

  private:
    static std::string
    scaleText()
    {
        std::ostringstream s;
        s << sweepScale;
        return s.str();
    }

    std::vector<std::string>
    common() const
    {
        return {std::string("--scene=") + sweepScene, "--scale=" + scaleText(),
                "--procs=16"};
    }

    /** One single-worker fabric sweep; returns its exit code. */
    int
    sweep(const std::string &cfg, const std::string &out,
          const std::string &store)
    {
        std::vector<std::string> argv{
            opts.bin + "/sweep_runner", "--fabric", "--worker-id=w0",
            "--sim=" + opts.bin + "/texdist_sim",
            "--configs=" + dir + "/" + cfg, "--out=" + dir + "/" + out,
            "--store=" + dir + "/" + store, "--"};
        for (const std::string &a : common())
            argv.push_back(a);
        return runProcess(argv, dir + "/" + store + ".log");
    }

    /** Sum of the pixels column of a per-config result CSV. */
    static uint64_t
    csvPixels(const std::string &text)
    {
        uint64_t total = 0;
        for (const FrameCsvRow &row : parseFrameCsvText(text, "result"))
            total += row.pixels;
        return total;
    }

    const Options &opts;
    std::string dir;
    std::vector<GridConfig> grid;
    uint32_t quarter = 0;
    std::string reference;
    uint64_t fragsPerSweep = 0;
    uint64_t totHits = 0, totMisses = 0, totCorrupt = 0, totRetries = 0;
    JsonValue sceneStats = JsonValue::makeObject();
};

// ---------------------------------------------------------------- main

/** A per-layer metric read from spans: median duration / work. */
struct SpanMetric
{
    const char *metric;
    const char *span;
    double scale; ///< ns to the metric's unit
};

const SpanMetric spanMetrics[] = {
    {"scene.build_ms", "scene.build", 1e-6},
    {"scene.translate_ms", "scene.translate", 1e-6},
    {"raster.ns_per_frag", "raster.rasterize", 1.0},
    {"texture.addr_ns_per_frag", "texture.generateBatch", 1.0},
    {"cache.probe_warm_ns", "cache.access.warm", 1.0},
    {"cache.probe_cold_ns", "cache.access.cold", 1.0},
    {"core.machine.ns_per_frag", "core.machine.run", 1.0},
    {"core.sequence.ns_per_frag", "core.sequence.runFrame", 1.0},
    {"core.sequence.functional_ns_per_frag",
     "core.sequence.runFrameFunctional", 1.0},
    {"fabric.key_us", "fabric.computeStoreKey", 1e-3},
    {"fabric.fetch_us", "fabric.fetch", 1e-3},
    {"fabric.publish_us", "fabric.publish", 1e-3},
    {"io.write_atomic_us", "io.writeFileAtomic", 1e-3},
    {"io.read_us", "io.readFile", 1e-3},
    {"sweep.spawn_ms", "sweep.spawn", 1e-6},
    {"sweep.child_ms", "sweep.child", 1e-6},
    {"sweep.hit_ms", "sweep.hit_rerun", 1e-6},
};

/** Per-layer metrics from the spans @p t recorded. */
void
collectLayers(const Tracer &t, std::map<std::string, double> &layers)
{
    for (const SpanMetric &m : spanMetrics)
        if (t.has(m.span))
            layers[m.metric] = t.medianNsPerWork(m.span) * m.scale;
    // FrameLab caches baselines, so most calls are lookups: report
    // the set-up's total time in FrameLab::baseline.
    if (t.has("core.machine.baseline"))
        layers["core.machine.baseline_ms"] =
            t.totalNs("core.machine.baseline") * 1e-6;
}

/**
 * Sweep-layer probe for the in-process workloads: a small
 * sweep-fabric run (one setup, five re-runs) in its own directory.
 */
void
probeSweep(Workload &w, const Options &opts)
{
    SweepFabric sf(opts, opts.work + "/sweep-probe");
    sf.tracer.enabled = true;
    sf.checks.record = true;
    sf.setup();
    for (size_t i = 0; i < 5; ++i) {
        sf.prepare(i);
        sf.unit(i, false);
    }
    sf.probeFabric();
    collectLayers(sf.tracer, w.layers);
    for (const auto &[k, v] : sf.layers)
        w.layers[k] = v;
}

JsonValue
numbers(const std::vector<double> &v)
{
    JsonValue a = JsonValue::makeArray();
    for (double x : v)
        a.append(JsonValue::makeNumber(x));
    return a;
}

int
run(const Options &opts)
{
    const int64_t processStart = nowNs();
    fs::create_directories(opts.work);

    std::unique_ptr<Workload> w;
    if (opts.workload == "figure-sweep")
        w = std::make_unique<FigureSweep>(opts);
    else if (opts.workload == "pan-warm")
        w = std::make_unique<PanWarm>(opts);
    else if (opts.workload == "sweep-fabric")
        w = std::make_unique<SweepFabric>(opts, opts.work + "/sweep");
    else
        usage("unknown workload '" + opts.workload + "'");

    w->checks.record = opts.recordGolden;
    if (auto text = io::readFileIfPresent(opts.golden))
        w->checks.golden = JsonValue::parse(*text);
    else if (!opts.recordGolden)
        usage("no golden file at " + opts.golden);

    // Set-ups; the latest is the one the following units use. The
    // first includes process start-up. A traced run sets up once.
    std::vector<double> setupS;
    const size_t setups = opts.trace ? 1 : setupRuns;
    auto setUp = [&](int64_t t0) {
        w->setup();
        int64_t t1 = nowNs();
        setupS.push_back(double(t1 - t0) / 1e9);
        return t1 - t0;
    };
    w->tracer.enabled = opts.trace;
    setUp(processStart);

    // Timed phase: whole passes, stopping at the pass boundary
    // nearest to --seconds; set-ups between units are not timed.
    // A traced run alternates traced and untraced passes, traced
    // first, and times at least one of each. Simulated counts come
    // from the first pass, so a traced run's come from traced code.
    std::vector<double> unitMs, unitFrags;
    std::vector<bool> unitOk, unitTraced;
    const size_t pass = w->passSize();
    const int64_t timedStart = nowNs();
    int64_t setupPauseNs = 0;
    auto timedS = [&] {
        return double(nowNs() - timedStart - setupPauseNs) / 1e9;
    };
    double firstPassS = 0.0;
    double rss = 0.0;
    for (uint32_t p = 0;; ++p) {
        const bool traced = opts.trace && p % 2 == 0;
        w->tracer.enabled = traced;
        for (size_t i = 0; i < pass; ++i) {
            w->prepare(i);
            w->tracer.unit = uint32_t(unitMs.size());
            int64_t u0 = nowNs();
            UnitResult r;
            {
                Scope s(w->tracer, "unit");
                r = w->unit(i, p == 0);
            }
            unitMs.push_back(double(nowNs() - u0) / 1e6);
            unitFrags.push_back(r.fragments);
            unitOk.push_back(r.ok);
            unitTraced.push_back(traced);
            if (opts.trace)
                w->traceCompanion(i);
            if (p > 0 && setupS.size() < setups &&
                timedS() >= firstPassS + (opts.seconds - firstPassS) *
                                             double(setupS.size()) /
                                             double(setups))
                setupPauseNs += setUp(nowNs());
        }
        double elapsed = timedS();
        if (p == 0) {
            firstPassS = elapsed;
            // Peak memory of the first set-up and a whole pass: every
            // kind of work, and no set-up between units yet, whose
            // timing-dependent placement would move the allocator's
            // peak from run to run.
            rss = opts.workload == "sweep-fabric"
                      ? peakRssMb(RUSAGE_CHILDREN)
                      : peakRssMb(RUSAGE_SELF);
        }
        double perPass = elapsed / double(p + 1);
        bool enough = elapsed + perPass / 2 >= opts.seconds;
        if (enough && (!opts.trace || p >= 1))
            break;
    }

    auto progress = [&](const char *what) {
        std::cerr << "perfbench: " << what << " at "
                  << double(nowNs() - processStart) / 1e9 << " s\n";
    };
    progress("timed phase done");
    // A traced run records spans in finish() too, so its simulated
    // counts come from traced code on every workload.
    w->tracer.enabled = opts.trace;
    w->finish();
    w->tracer.enabled = false;
    progress("checks done");
    // Set-ups the timed phase was too short for; after finish(),
    // which reads the passes' state.
    while (setupS.size() < setups)
        setUp(nowNs());
    if (opts.trace) {
        w->tracer.enabled = true;
        w->probe();
        progress("probes done");
        if (opts.workload != "sweep-fabric")
            probeSweep(*w, opts);
        progress("sweep probe done");
        w->tracer.enabled = false;
        collectLayers(w->tracer, w->layers);
        double detailed = w->layers["core.sequence.ns_per_frag"];
        double functional =
            w->layers["core.sequence.functional_ns_per_frag"];
        w->layers["core.sequence.timing_share"] = 1.0 - functional / detailed;
        w->tracer.write(opts.report + ".spans.jsonl");
    }

    if (opts.recordGolden) {
        JsonValue g = JsonValue::makeObject();
        if (auto text = io::readFileIfPresent(opts.golden))
            g = JsonValue::parse(*text);
        g.set("format", JsonValue::makeString("texdist-perfbench-golden"));
        for (const auto &[k, v] : w->checks.golden.members())
            if (k.rfind(opts.workload + "/", 0) == 0)
                g.set(k, v);
        io::writeFileAtomic(opts.golden, g.dump() + "\n");
    }

    JsonValue rep = JsonValue::makeObject();
    rep.set("workload", JsonValue::makeString(opts.workload));
    rep.set("seed", JsonValue::makeNumber(double(opts.seed)));
    rep.set("trace", JsonValue::makeBool(opts.trace));
    rep.set("scale", JsonValue::makeNumber(opts.scale));
    rep.set("jobs", JsonValue::makeNumber(opts.jobs));
    JsonValue build = JsonValue::makeObject();
    build.set("simd", JsonValue::makeString(simd::to_string(simd::dispatch())));
    build.set("compiler", JsonValue::makeString(PERFBENCH_COMPILER));
    build.set("build_type", JsonValue::makeString(PERFBENCH_BUILD_TYPE));
    rep.set("build", build);
    rep.set("setup_s", numbers(setupS));
    rep.set("pass_units", JsonValue::makeNumber(double(pass)));
    rep.set("unit_ms", numbers(unitMs));
    rep.set("unit_frags", numbers(unitFrags));
    JsonValue ok = JsonValue::makeArray(), traced = JsonValue::makeArray();
    for (size_t i = 0; i < unitOk.size(); ++i) {
        ok.append(JsonValue::makeBool(unitOk[i]));
        traced.append(JsonValue::makeBool(unitTraced[i]));
    }
    rep.set("unit_ok", ok);
    rep.set("unit_traced", traced);
    JsonValue checks = JsonValue::makeObject();
    checks.set("attempted", JsonValue::makeNumber(double(w->checks.attempted)));
    checks.set("passed", JsonValue::makeNumber(double(w->checks.passed)));
    JsonValue fails = JsonValue::makeArray();
    for (const std::string &f : w->checks.failures)
        fails.append(JsonValue::makeString(f));
    checks.set("failures", fails);
    rep.set("checks", checks);
    rep.set("peak_rss_mb", JsonValue::makeNumber(rss));
    rep.set("sim", w->sim.json());
    JsonValue layers = JsonValue::makeObject();
    for (const auto &[k, v] : w->layers)
        layers.set(k, JsonValue::makeNumber(v));
    rep.set("layers", layers);
    rep.set("scenes", w->describeScenes());
    io::writeFileAtomic(opts.report, rep.dump() + "\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseOptions(argc, argv);
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
    }
    return 1;
}
