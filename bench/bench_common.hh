/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses: the paper's
 * parameter grids and a couple of formatting helpers. Each harness
 * is one binary per table/figure (see DESIGN.md section 8).
 */

#ifndef TEXDIST_BENCH_BENCH_COMMON_HH
#define TEXDIST_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "scene/benchmarks.hh"

namespace texdist
{

/** Block widths swept in the paper's figures. */
inline const std::vector<uint32_t> blockWidths = {2,  4,  8,  16,
                                                  32, 64, 128};

/** Block widths for the perfect-cache load-balance graphs (Fig 5). */
inline const std::vector<uint32_t> blockWidthsLb = {1,  2,  4,  8, 16,
                                                    32, 64, 128};

/** SLI group heights swept in the paper's figures. */
inline const std::vector<uint32_t> sliLines = {1, 2, 4, 8, 16, 32};

/** Processor counts on the x axes. */
inline const std::vector<uint32_t> procCounts = {1, 2, 4, 8, 16, 32,
                                                 64};

/**
 * Column label of one distribution parameter: "w8" for a block
 * width, "l4" for SLI lines. Built with append: GCC 12 warns
 * -Wrestrict, falsely, on `"w" + std::to_string(p)`.
 */
inline std::string
paramLabel(DistKind kind, uint32_t param)
{
    return std::string(kind == DistKind::Block ? "w" : "l")
        .append(std::to_string(param));
}

/** The paper's fixed machine parameters as a starting config. */
inline MachineConfig
paperConfig()
{
    MachineConfig cfg;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.cacheGeom = CacheGeometry{};
    cfg.busTexelsPerCycle = 1.0;
    cfg.triangleBufferSize = 10000;
    cfg.setupCyclesPerTriangle = 25;
    cfg.prefetchQueueDepth = 64;
    return cfg;
}

/** Build a benchmark scene, logging the time it took. */
inline Scene
loadScene(const std::string &name, double scale)
{
    std::cerr << "building scene " << name << " (scale " << scale
              << ")..." << std::endl;
    return makeBenchmark(name, scale);
}

} // namespace texdist

#endif // TEXDIST_BENCH_BENCH_COMMON_HH
