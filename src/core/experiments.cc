#include "core/experiments.hh"

#include "core/error.hh"
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/options.hh"
#include "raster/raster.hh"
#include "sim/logging.hh"

namespace texdist
{

std::vector<uint64_t>
pixelWorkPerProc(const Scene &scene, const Distribution &dist)
{
    std::vector<uint64_t> work(dist.numProcs(), 0);
    const std::vector<uint16_t> &owners = dist.ownerMap();
    uint32_t screen_w = dist.screenWidth();
    Rect screen = scene.screenRect();

    for (const TexTriangle &tri : scene.triangles) {
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster raster(tri, tex.width(), tex.height());
        if (raster.degenerate())
            continue;
        raster.rasterize(screen, [&](const Fragment &frag) {
            ++work[owners[size_t(frag.y) * screen_w +
                          size_t(frag.x)]];
        });
    }
    return work;
}

FrameResult
FrameLab::run(const MachineConfig &config) const
{
    return runFrame(scene, config);
}

Tick
FrameLab::baseline(const MachineConfig &config)
{
    MachineConfig base = config;
    base.numProcs = 1;
    base.dist = DistKind::Block;
    // One processor owns the whole screen whatever the tile size;
    // use one screen-sized tile so triangle binning is trivial.
    base.tileParam =
        std::max(scene.screenWidth, scene.screenHeight);
    base.interleave = InterleaveOrder::Raster;
    // Speedups are measured against a single-processor machine with
    // an ideal buffer (buffer size cannot starve a lone node anyway)
    // and no injected faults: T(1) is the fault-free ideal the
    // degraded machine is compared against.
    base.triangleBufferSize = 10000;
    base.faults = FaultPlan{};

    std::string key = base.describe();
    auto it = baselines.find(key);
    if (it != baselines.end())
        return it->second;

    Tick t1 = runFrame(scene, base).frameTime;
    baselines.emplace(key, t1);
    return t1;
}

FrameLab::SpeedupResult
FrameLab::runWithSpeedup(const MachineConfig &config)
{
    SpeedupResult out;
    out.baselineTime = baseline(config);
    out.frame = run(config);
    out.speedup = out.frame.frameTime
                      ? double(out.baselineTime) /
                            double(out.frame.frameTime)
                      : 0.0;
    return out;
}

std::vector<FrameLab::SpeedupResult>
FrameLab::runBatch(const std::vector<MachineConfig> &configs,
                   ThreadPool &pool)
{
    // Warm the shared baseline cache serially; distinct configs
    // usually share one T(1), so this is one simulation, not N.
    std::vector<Tick> base(configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        base[i] = baseline(configs[i]);

    std::vector<SpeedupResult> out(configs.size());
    // texlint: phase(isolated) each task runs a private SequenceMachine
    // universe; nothing crosses tasks but the per-config result slot
    pool.parallelFor(configs.size(), [&](uint32_t, size_t i) {
        out[i].baselineTime = base[i];
        out[i].frame = run(configs[i]);
        out[i].speedup = out[i].frame.frameTime
                             ? double(out[i].baselineTime) /
                                   double(out[i].frame.frameTime)
                             : 0.0;
    });
    return out;
}

std::vector<FrameResult>
FrameLab::runMany(const std::vector<MachineConfig> &configs,
                  ThreadPool &pool) const
{
    std::vector<FrameResult> out(configs.size());
    // texlint: phase(isolated) each task runs a private SequenceMachine
    // universe; nothing crosses tasks but the per-config result slot
    pool.parallelFor(configs.size(), [&](uint32_t, size_t i) {
        out[i] = run(configs[i]);
    });
    return out;
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    // texlint: allow(banned-call) host-side bench scale override, read
    // once at startup before any simulation state exists
    if (const char *env = std::getenv("TEXDIST_SCALE"))
        opts.scale = std::atof(env);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--full") {
            opts.scale = 1.0;
        } else if (arg == "--quick") {
            opts.scale = 0.25;
        } else if (arg.rfind("--scale=", 0) == 0) {
            opts.scale = std::atof(arg.c_str() + 8);
        } else if (arg.rfind("--csv=", 0) == 0) {
            opts.csvDir = arg.substr(6);
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads = parseHostThreads(arg.substr(10),
                                            "threads");
        } else if (arg == "--help" || arg == "-h") {
            inform("options: --scale=<f> | --full | --quick | "
                   "--csv=<dir> | --threads=<n> "
                   "(or env TEXDIST_SCALE)");
        } else {
            warn("ignoring unknown option: ", arg);
        }
    }
    if (opts.scale <= 0.0 || opts.scale > 4.0)
        throw ParseError(ParseSurface::Cli, ParseRule::Range,
                         "scene scale out of range: " +
                             std::to_string(opts.scale))
            .field("--scale");
    return opts;
}

TablePrinter::TablePrinter(std::ostream &os_,
                           std::vector<std::string> headers_,
                           int width_)
    : os(os_), headers(std::move(headers_)), width(width_)
{
}

void
TablePrinter::printHeader()
{
    for (size_t i = 0; i < headers.size(); ++i)
        os << std::setw(i == 0 ? width + 6 : width) << headers[i];
    os << "\n";
    os << std::string((headers.size() - 1) * size_t(width) +
                          size_t(width) + 6,
                      '-')
       << "\n";
}

void
TablePrinter::cell(const std::string &value)
{
    os << std::setw(column == 0 ? width + 6 : width) << value;
    ++column;
}

void
TablePrinter::cell(double value, int precision)
{
    std::ostringstream tmp;
    tmp << std::fixed << std::setprecision(precision) << value;
    cell(tmp.str());
}

void
TablePrinter::cell(uint64_t value)
{
    cell(std::to_string(value));
}

void
TablePrinter::endRow()
{
    os << "\n";
    column = 0;
}

} // namespace texdist
