/**
 * @file
 * texmeta — metamorphic differential harness for the simulator.
 *
 * Digest-based replay verification only proves a run matches
 * yesterday's run; the metamorphic relations here prove runs are
 * consistent with *each other* in ways the paper's model dictates,
 * with no golden file anywhere:
 *
 *  organization  block, SLI and sort-last machines render the same
 *                scene; their per-pixel coverage maps (and thus
 *                digests) must be identical — the screen does not
 *                care how it was partitioned.
 *  renumber      relabeling the processors of a mapped block
 *                distribution must permute the per-node statistics
 *                exactly and change no aggregate.
 *  mirror        mirroring the scene horizontally must mirror the
 *                per-pixel coverage map (and therefore every tile
 *                load) exactly.
 *  capacity      growing a cache's capacity at a fixed set count
 *                (more ways) can never increase its miss count — the
 *                LRU stack-inclusion property, checked per node.
 *
 * Every relation runs with the online oracle attached, so the
 * conservation/structural invariants are checked along the way. Any
 * violation exits 13 (OracleError).
 *
 * `--mutate=<bug>` is the harness's self-test: it plants a known bug
 * (skip an LRU touch, shift a coverage report, leak a texel access)
 * and asserts the oracle catches it — the run *must* exit 13;
 * a clean exit means the planted bug escaped and texmeta exits 1.
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cache/two_level.hh"
#include "core/error.hh"
#include "core/machine.hh"
#include "core/mapped.hh"
#include "core/options.hh"
#include "core/sortlast.hh"
#include "oracle/oracle.hh"
#include "raster/raster.hh"
#include "scene/benchmarks.hh"
#include "sim/logging.hh"

using namespace texdist;

namespace
{

struct MetaOptions
{
    std::string scene = "quake";
    double scale = 0.25;
    uint32_t procs = 4;
    std::string relation = "all";
    std::string mutate;
    bool list = false;
    bool help = false;
};

const char *const usageText =
    "texmeta - metamorphic differential harness "
    "(see docs/ROBUSTNESS.md)\n"
    "\n"
    "  --scene=<name>      benchmark scene (default quake)\n"
    "  --scale=<f>         scene scale (default 0.25)\n"
    "  --procs=<n>         processors per machine (default 4)\n"
    "  --relation=<name>   organization | renumber | mirror | "
    "capacity | all\n"
    "  --mutate=<bug>      plant a known bug and require the oracle\n"
    "                      to catch it: cache-lru-skip | "
    "coverage-shift |\n"
    "                      texel-leak\n"
    "  --list              print relations and mutations, then "
    "exit\n"
    "  --help              this text\n"
    "\n"
    "exit codes: 0 all relations hold (or planted bug caught as\n"
    "required), 1 usage error or planted bug ESCAPED the oracle,\n"
    "13 metamorphic relation or oracle invariant violated\n";

MetaOptions
parseArgs(int argc, char **argv)
{
    MetaOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *key) -> std::string {
            std::string prefix = std::string("--") + key + "=";
            if (arg.rfind(prefix, 0) != 0)
                return "";
            return arg.substr(prefix.size());
        };
        if (arg == "--help" || arg == "-h") {
            opts.help = true;
            continue;
        }
        if (arg == "--list") {
            opts.list = true;
            continue;
        }
        if (std::string v = value("scene"); !v.empty()) {
            opts.scene = v;
            continue;
        }
        if (std::string v = value("scale"); !v.empty()) {
            opts.scale = parseCliF64(v, "scale");
            continue;
        }
        if (std::string v = value("procs"); !v.empty()) {
            opts.procs = parseCliU32(v, "procs");
            continue;
        }
        if (std::string v = value("relation"); !v.empty()) {
            opts.relation = v;
            continue;
        }
        if (std::string v = value("mutate"); !v.empty()) {
            opts.mutate = v;
            continue;
        }
        throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                         "unknown option '" + arg + "'")
            .field(arg);
    }
    if (opts.procs == 0)
        throw ParseError(ParseSurface::Cli, ParseRule::Range,
                         "must be positive")
            .field("--procs");
    return opts;
}

/** Which planted bug to arm before a run. */
enum class Mutation
{
    None,
    CacheLruSkip,
    CoverageShift,
    TexelLeak,
};

void
plant(ParallelMachine &machine, Mutation mutation)
{
    switch (mutation) {
      case Mutation::None:
        return;
      case Mutation::CacheLruSkip: {
        std::unique_ptr<TextureCache> cache =
            machine.node(0).takeCacheForOracle();
        if (auto *two_level =
                dynamic_cast<TwoLevelCache *>(cache.get()))
            two_level->debugPlantLruSkip(16);
        else if (auto *flat =
                     dynamic_cast<SetAssocCache *>(cache.get()))
            flat->debugPlantLruSkip(16);
        else
            texdist_fatal("cache-lru-skip needs a set-associative "
                          "cache");
        machine.node(0).installCacheForOracle(std::move(cache));
        return;
      }
      case Mutation::CoverageShift:
        machine.node(0).debugPlantCoverageShift();
        return;
      case Mutation::TexelLeak:
        machine.node(0).debugPlantTexelLeak();
        return;
    }
}

/** Everything one run leaves behind once the machine is gone. */
struct RunOutcome
{
    FrameResult result;
    uint64_t coverageDigest = 0;
    std::vector<uint32_t> coverage; ///< row-major per-pixel counts
    uint32_t width = 0;
    uint32_t height = 0;
};

/**
 * One fully-checked single-frame run: ParallelMachine + oracle, an
 * optional external distribution, an optional planted bug. Throws
 * OracleError on any invariant violation.
 */
RunOutcome
runChecked(const Scene &scene, const MachineConfig &cfg,
           OracleMode mode,
           std::unique_ptr<Distribution> dist = nullptr,
           Mutation mutation = Mutation::None)
{
    auto machine =
        dist ? std::make_unique<ParallelMachine>(scene, cfg,
                                                 std::move(dist))
             : std::make_unique<ParallelMachine>(scene, cfg);
    plant(*machine, mutation);

    OracleEngine oracle(cfg, mode);
    oracle.attach(*machine);
    oracle.beginFrame(scene);

    RunOutcome out;
    out.result = machine->run();
    oracle.endFrame(0, scene, &machine->distribution(), &out.result,
                    out.result.frameTime);

    out.coverageDigest = oracle.lastCoverageDigest();
    if (const FrameCoverage *map = oracle.coverageMap()) {
        out.width = map->width();
        out.height = map->height();
        out.coverage.resize(size_t(out.width) * out.height);
        for (uint32_t y = 0; y < out.height; ++y)
            for (uint32_t x = 0; x < out.width; ++x)
                out.coverage[size_t(y) * out.width + x] =
                    map->count(x, y);
    }
    return out;
}

MachineConfig
baseConfig(uint32_t procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.dist = DistKind::Block;
    cfg.tileParam = 16;
    return cfg;
}

[[noreturn]] void
fail(const char *relation, std::vector<std::string> violations)
{
    for (std::string &v : violations)
        v = std::string(relation) + ": " + v;
    throw OracleError(0, -1, 0, std::move(violations));
}

// --- organization: block vs SLI vs sort-last ------------------------

void
relationOrganization(const Scene &scene, uint32_t procs)
{
    MachineConfig block = baseConfig(procs);
    RunOutcome a = runChecked(scene, block, OracleMode::Full);

    MachineConfig sli = baseConfig(procs);
    sli.dist = DistKind::SLI;
    sli.tileParam = 4;
    RunOutcome b = runChecked(scene, sli, OracleMode::Full);

    SortLastConfig sl;
    sl.node = baseConfig(procs);
    SortLastMachine machine(scene, sl);
    OracleEngine oracle(sl.node, OracleMode::Full);
    oracle.attach(machine);
    oracle.beginFrame(scene);
    SortLastResult slr = machine.run();
    oracle.endFrame(0, scene, nullptr, &slr.frame, slr.frame.frameTime);
    uint64_t c = oracle.lastCoverageDigest();

    std::vector<std::string> violations;
    if (a.coverageDigest != b.coverageDigest)
        violations.push_back(
            "block and SLI machines rendered different coverage "
            "digests (" + std::to_string(a.coverageDigest) + " vs " +
            std::to_string(b.coverageDigest) + ")");
    if (a.coverageDigest != c)
        violations.push_back(
            "block and sort-last machines rendered different "
            "coverage digests (" + std::to_string(a.coverageDigest) +
            " vs " + std::to_string(c) + ")");
    if (a.result.totalPixels != b.result.totalPixels)
        violations.push_back(
            "block and SLI machines drew different fragment totals");
    if (a.result.totalPixels != slr.frame.totalPixels)
        violations.push_back("block and sort-last machines drew "
                             "different fragment totals");
    if (!violations.empty())
        fail("organization", std::move(violations));
    std::cout << "organization: PASS (digest "
              << a.coverageDigest << ", " << a.result.totalPixels
              << " fragments)\n";
}

// --- renumber: processor relabeling permutes stats ------------------

void
relationRenumber(const Scene &scene, uint32_t procs)
{
    const uint32_t block = 16;
    uint32_t tiles_x = (scene.screenWidth + block - 1) / block;
    uint32_t tiles_y = (scene.screenHeight + block - 1) / block;
    std::vector<uint16_t> owners(size_t(tiles_x) * tiles_y);
    std::vector<uint16_t> permuted(owners.size());
    // The relabeling: p -> procs - 1 - p (a full reversal, so every
    // processor actually moves when procs > 1).
    for (size_t t = 0; t < owners.size(); ++t) {
        owners[t] = uint16_t(t % procs);
        permuted[t] = uint16_t(procs - 1 - owners[t]);
    }

    MachineConfig cfg = baseConfig(procs);
    RunOutcome a = runChecked(
        scene, cfg, OracleMode::Cheap,
        std::make_unique<MappedBlockDistribution>(
            scene.screenWidth, scene.screenHeight, procs, block,
            owners));
    RunOutcome b = runChecked(
        scene, cfg, OracleMode::Cheap,
        std::make_unique<MappedBlockDistribution>(
            scene.screenWidth, scene.screenHeight, procs, block,
            permuted));

    std::vector<std::string> violations;
    for (uint32_t p = 0; p < procs; ++p) {
        const NodeResult &x = a.result.nodes[p];
        const NodeResult &y = b.result.nodes[procs - 1 - p];
        if (x.pixels != y.pixels || x.triangles != y.triangles ||
            x.cacheAccesses != y.cacheAccesses ||
            x.cacheMisses != y.cacheMisses ||
            x.texelsFetched != y.texelsFetched ||
            x.finishTime != y.finishTime ||
            x.stallCycles != y.stallCycles)
            violations.push_back(
                "node " + std::to_string(p) +
                " statistics did not follow the relabeling to node " +
                std::to_string(procs - 1 - p));
    }
    if (a.result.totalPixels != b.result.totalPixels ||
        a.result.totalTexelsFetched !=
            b.result.totalTexelsFetched ||
        a.result.frameTime != b.result.frameTime)
        violations.push_back(
            "aggregates changed under processor relabeling");
    if (a.coverageDigest != b.coverageDigest)
        violations.push_back(
            "coverage digest changed under processor relabeling");
    if (!violations.empty())
        fail("renumber", std::move(violations));
    std::cout << "renumber: PASS (" << procs
              << " processors relabeled, aggregates unchanged)\n";
}

// --- mirror: flipped scene flips the coverage map -------------------

Scene
mirrorScene(const Scene &scene)
{
    Scene out;
    out.name = scene.name + "+mirror";
    out.screenWidth = scene.screenWidth;
    out.screenHeight = scene.screenHeight;
    out.textures = scene.textures.clone();
    out.triangles = scene.triangles;
    for (TexTriangle &tri : out.triangles)
        for (TexVertex &v : tri.v)
            v.x = float(scene.screenWidth) - v.x;
    return out;
}

/**
 * True when the pixel centre of (x, y) lies *exactly* on the closed
 * boundary of some triangle, evaluated in the same 28.4 fixed-point
 * arithmetic the rasterizer uses. These are the only pixels whose
 * coverage may legitimately change under mirroring: the rasterizer's
 * watertight tie-break rule accepts an on-edge pixel from one side
 * only, and mirroring the scene turns a top-left edge into a
 * top-right one, flipping which triangle claims the tie.
 */
bool
onTriangleBoundary(const Scene &scene, uint32_t x, uint32_t y)
{
    int64_t px = int64_t(x) * subpixelOne + subpixelOne / 2;
    int64_t py = int64_t(y) * subpixelOne + subpixelOne / 2;
    for (const TexTriangle &tri : scene.triangles) {
        int64_t xs[3], ys[3];
        for (int i = 0; i < 3; ++i) {
            xs[i] = int64_t(
                std::lround(double(tri.v[i].x) * subpixelOne));
            ys[i] = int64_t(
                std::lround(double(tri.v[i].y) * subpixelOne));
        }
        int64_t area2 = (xs[1] - xs[0]) * (ys[2] - ys[0]) -
                        (xs[2] - xs[0]) * (ys[1] - ys[0]);
        if (area2 == 0)
            continue;
        if (area2 < 0) {
            std::swap(xs[1], xs[2]);
            std::swap(ys[1], ys[2]);
        }
        bool on_edge = false;
        bool inside = true;
        for (int e = 0; e < 3 && inside; ++e) {
            int a = e;
            int b = (e + 1) % 3;
            int64_t dx = xs[b] - xs[a];
            int64_t dy = ys[b] - ys[a];
            int64_t value =
                -dy * px + dx * py + (dy * xs[a] - dx * ys[a]);
            if (value < 0)
                inside = false;
            else if (value == 0)
                on_edge = true;
        }
        if (inside && on_edge)
            return true;
    }
    return false;
}

void
relationMirror(const Scene &scene, uint32_t procs)
{
    MachineConfig cfg = baseConfig(procs);
    RunOutcome a = runChecked(scene, cfg, OracleMode::Cheap);
    Scene mirrored = mirrorScene(scene);
    RunOutcome b = runChecked(mirrored, cfg, OracleMode::Cheap);

    // Exact per-pixel comparison, with one principled exemption: a
    // mismatched pixel is tolerated iff its centre provably lies on a
    // triangle edge (fill-rule tie — see onTriangleBoundary()). Any
    // off-edge mismatch is a genuine violation.
    std::vector<std::string> violations;
    uint64_t mismatched = 0;
    uint64_t tieExempt = 0;
    for (uint32_t y = 0; y < a.height; ++y) {
        for (uint32_t x = 0; x < a.width; ++x) {
            uint32_t orig = a.coverage[size_t(y) * a.width + x];
            uint32_t mirr =
                b.coverage[size_t(y) * b.width +
                           (b.width - 1 - x)];
            if (orig == mirr)
                continue;
            if (onTriangleBoundary(scene, x, y)) {
                ++tieExempt;
                continue;
            }
            ++mismatched;
            if (violations.size() < 4)
                violations.push_back(
                    "pixel (" + std::to_string(x) + ", " +
                    std::to_string(y) + ") covered " +
                    std::to_string(orig) +
                    " time(s) but its mirror was covered " +
                    std::to_string(mirr) +
                    " and its centre is not on any triangle edge");
        }
    }
    if (mismatched > 0)
        violations.push_back(
            std::to_string(mismatched) +
            " unmirrored off-edge pixel(s) in total");
    if (!violations.empty())
        fail("mirror", std::move(violations));
    std::cout << "mirror: PASS (coverage map mirrors exactly, "
              << tieExempt << " fill-rule tie pixel(s) exempted, "
              << a.result.totalPixels << " fragments)\n";
}

// --- capacity: more ways never means more misses --------------------

void
relationCapacity(const Scene &scene, uint32_t procs)
{
    // 16 KB 4-way and 32 KB 8-way share the 64-set index function,
    // so LRU stack inclusion applies per set: the bigger cache's
    // contents are a superset at every access, and its misses a
    // subset — per node, not just in aggregate.
    MachineConfig small = baseConfig(procs);
    small.cacheGeom = CacheGeometry{16 * 1024, 4, 64};
    MachineConfig big = baseConfig(procs);
    big.cacheGeom = CacheGeometry{32 * 1024, 8, 64};

    RunOutcome a = runChecked(scene, small, OracleMode::Cheap);
    RunOutcome b = runChecked(scene, big, OracleMode::Cheap);

    std::vector<std::string> violations;
    uint64_t small_misses = 0;
    uint64_t big_misses = 0;
    for (uint32_t p = 0; p < procs; ++p) {
        uint64_t ms = a.result.nodes[p].cacheMisses;
        uint64_t mb = b.result.nodes[p].cacheMisses;
        small_misses += ms;
        big_misses += mb;
        if (mb > ms)
            violations.push_back(
                "node " + std::to_string(p) + " missed " +
                std::to_string(mb) + " times with 32 KB but only " +
                std::to_string(ms) + " with 16 KB");
    }
    if (!violations.empty())
        fail("capacity", std::move(violations));
    std::cout << "capacity: PASS (misses " << small_misses
              << " at 16 KB -> " << big_misses << " at 32 KB)\n";
}

// --- mutation self-test ---------------------------------------------

int
runMutation(const Scene &scene, uint32_t procs,
            const std::string &name)
{
    Mutation mutation;
    if (name == "cache-lru-skip")
        mutation = Mutation::CacheLruSkip;
    else if (name == "coverage-shift")
        mutation = Mutation::CoverageShift;
    else if (name == "texel-leak")
        mutation = Mutation::TexelLeak;
    else
        throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                         "unknown mutation '" + name +
                             "' (want cache-lru-skip, "
                             "coverage-shift or texel-leak)")
            .field("--mutate");

    try {
        runChecked(scene, baseConfig(procs), OracleMode::Full,
                   nullptr, mutation);
    } catch (const OracleError &e) {
        std::cout << "mutation " << name
                  << ": CAUGHT by the oracle as required\n"
                  << e.describe() << "\n";
        return e.exitCode();
    }
    std::cerr << "mutation " << name
              << ": ESCAPED the oracle — the planted bug was not "
                 "detected\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        MetaOptions opts = parseArgs(argc, argv);
        if (opts.help) {
            std::cout << usageText;
            return 0;
        }
        if (opts.list) {
            std::cout << "relations: organization renumber mirror "
                         "capacity\n"
                         "mutations: cache-lru-skip coverage-shift "
                         "texel-leak\n";
            return 0;
        }

        Scene scene = makeBenchmark(opts.scene, opts.scale);
        std::cout << "scene: " << scene.name << " ("
                  << scene.screenWidth << "x" << scene.screenHeight
                  << ", " << scene.triangles.size()
                  << " triangles)\n";

        if (!opts.mutate.empty())
            return runMutation(scene, opts.procs, opts.mutate);

        const std::string &r = opts.relation;
        bool all = r == "all";
        bool ran = false;
        if (all || r == "organization") {
            relationOrganization(scene, opts.procs);
            ran = true;
        }
        if (all || r == "renumber") {
            relationRenumber(scene, opts.procs);
            ran = true;
        }
        if (all || r == "mirror") {
            relationMirror(scene, opts.procs);
            ran = true;
        }
        if (all || r == "capacity") {
            relationCapacity(scene, opts.procs);
            ran = true;
        }
        if (!ran)
            throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                             "unknown relation '" + r + "'")
                .field("--relation");
        std::cout << "all relations hold\n";
        return 0;
    } catch (const ParseError &e) {
        std::cerr << "fatal: " << e.describe() << "\n\n"
                  << usageText;
        return e.exitCode();
    } catch (const OracleError &e) {
        std::cerr << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    }
}
