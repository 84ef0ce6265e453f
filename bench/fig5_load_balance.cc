/**
 * @file
 * Experiment F5 — reproduces Figure 5, "Impact of the distribution
 * scheme on load balancing".
 *
 * Top graphs: percent difference between the busiest and the average
 * processor (perfect texture cache) at 64 processors, for every
 * benchmark, as the block width (block distribution) / group height
 * (SLI) varies. Paper findings to check: imbalance grows with tile
 * size; block width <= 16 keeps it under ~20% even at 64 procs; SLI
 * needs <= 4 lines at 64 procs; worst cases (SLI-32) reach ~300%.
 *
 * Bottom graphs: speedup vs processor count for 32massive11255 with
 * a perfect cache, per tile size — this adds the 25-cycle setup
 * engine, so very small tiles (1-2) lose speedup despite balancing
 * well.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/csv.hh"

using namespace texdist;

namespace
{

void
imbalanceTable(const std::vector<Scene> &scenes, DistKind kind,
               const std::vector<uint32_t> &params, uint32_t procs,
               const BenchOptions &opts)
{
    CsvWriter csv(opts.csvDir,
                  std::string("fig5_imbalance_") + to_string(kind));
    std::cout << "\n== Fig 5 (top, " << to_string(kind) << "): % work "
              << "imbalance of busiest vs average processor, "
              << procs << " processors, perfect cache ==\n";
    std::vector<std::string> headers = {"scene"};
    for (uint32_t p : params)
        headers.push_back(paramLabel(kind, p));
    TablePrinter table(std::cout, headers, 9);
    table.printHeader();
    csv.header(headers);
    for (const Scene &scene : scenes) {
        table.cell(scene.name);
        csv.beginRow(scene.name);
        for (uint32_t param : params) {
            auto dist = Distribution::make(kind, scene.screenWidth,
                                           scene.screenHeight, procs,
                                           param);
            double imb =
                imbalancePercent(pixelWorkPerProc(scene, *dist));
            table.cell(imb, 1);
            csv.value(imb);
        }
        table.endRow();
        csv.endRow();
    }
}

void
speedupGraph(FrameLab &lab, DistKind kind,
             const std::vector<uint32_t> &params,
             const BenchOptions &opts, ThreadPool &pool)
{
    CsvWriter csv(opts.csvDir,
                  std::string("fig5_speedup_") + to_string(kind));
    std::cout << "\n== Fig 5 (bottom, " << to_string(kind)
              << "): speedup vs processors, scene "
              << lab.frameScene().name
              << ", perfect cache (setup engine modelled) ==\n";
    std::vector<std::string> headers = {"procs"};
    for (uint32_t p : params)
        headers.push_back(paramLabel(kind, p));
    TablePrinter table(std::cout, headers, 9);
    table.printHeader();
    csv.header(headers);
    for (uint32_t procs : procCounts) {
        table.cell(uint64_t(procs));
        csv.beginRow(double(procs));
        std::vector<MachineConfig> cfgs;
        for (uint32_t param : params) {
            MachineConfig cfg = paperConfig();
            cfg.cacheKind = CacheKind::Perfect;
            cfg.infiniteBus = true;
            cfg.numProcs = procs;
            cfg.dist = kind;
            cfg.tileParam = param;
            cfgs.push_back(cfg);
        }
        for (const FrameLab::SpeedupResult &r :
             lab.runBatch(cfgs, pool)) {
            table.cell(r.speedup, 2);
            csv.value(r.speedup);
        }
        table.endRow();
        csv.endRow();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    std::vector<Scene> scenes;
    for (const std::string &name : benchmarkNames())
        scenes.push_back(loadScene(name, opts.scale));

    std::cout << "Figure 5: load balancing (scale " << opts.scale
              << ")\n";
    imbalanceTable(scenes, DistKind::Block, blockWidthsLb, 64, opts);
    imbalanceTable(scenes, DistKind::SLI, sliLines, 64, opts);

    // The paper also notes the bounds at 4/16 procs; print the
    // summary rows the text quotes.
    std::cout << "\n== Fig 5 cross-check: imbalance at width 16 "
                 "(block) / 4 lines (SLI) ==\n";
    TablePrinter summary(
        std::cout, {"scene", "blk16 P4", "blk16 P16", "blk16 P64",
                    "sli4 P4", "sli4 P16", "sli4 P64"},
        10);
    summary.printHeader();
    for (const Scene &scene : scenes) {
        summary.cell(scene.name);
        for (DistKind kind : {DistKind::Block, DistKind::SLI}) {
            uint32_t param = kind == DistKind::Block ? 16 : 4;
            for (uint32_t procs : {4u, 16u, 64u}) {
                auto dist = Distribution::make(
                    kind, scene.screenWidth, scene.screenHeight,
                    procs, param);
                summary.cell(
                    imbalancePercent(pixelWorkPerProc(scene, *dist)),
                    1);
            }
        }
        summary.endRow();
    }

    // Bottom graphs: 32massive11255 speedups with perfect cache.
    Scene &massive32 = scenes[4];
    FrameLab lab(massive32);
    ThreadPool pool(opts.threads);
    speedupGraph(lab, DistKind::Block, blockWidthsLb, opts, pool);
    speedupGraph(lab, DistKind::SLI, sliLines, opts, pool);

    return 0;
}
