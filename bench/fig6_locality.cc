/**
 * @file
 * Experiment F6 — reproduces Figure 6, "Impact of the distribution
 * scheme on texel locality".
 *
 * 16 KB caches, infinite-bandwidth buses: measure the average
 * texel-to-fragment ratio (texels fetched from the external texture
 * memories per fragment drawn) as the processor count grows, for
 * each block width / SLI group height. The paper shows
 * 32massive11255 (room3/blowout775/truc640 behave alike) and
 * teapot.full (quake behaves alike); we print all of those plus the
 * cross-check that the other scenes track their representative.
 *
 * Paper findings to check: the ratio always rises as tiles shrink
 * and as processors are added; SLI-2 is worse than block-16; scenes
 * with small repeated texture sets (blowout775) see the ratio *fall*
 * at high processor counts once the working set fits in the
 * aggregate cache.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/csv.hh"

using namespace texdist;

namespace
{

void
localityGraph(const Scene &scene, DistKind kind,
              const std::vector<uint32_t> &params,
              const BenchOptions &opts, ThreadPool &pool)
{
    FrameLab lab(scene);
    CsvWriter csv(opts.csvDir,
                  "fig6_" + scene.name + "_" + to_string(kind));
    std::cout << "\n== Fig 6 (" << scene.name << ", "
              << to_string(kind)
              << "): texel/fragment ratio vs processors, 16KB "
                 "caches, infinite bus ==\n";
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
            cfg.infiniteBus = true;
            cfg.numProcs = procs;
            cfg.dist = kind;
            cfg.tileParam = param;
            cfgs.push_back(cfg);
        }
        for (const FrameResult &r : lab.runMany(cfgs, pool)) {
            table.cell(r.texelToFragmentRatio, 3);
            csv.value(r.texelToFragmentRatio);
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
    std::cout << "Figure 6: texture locality (scale " << opts.scale
              << ")\n";

    // The two scenes the paper plots.
    Scene massive32 = loadScene("32massive11255", opts.scale);
    Scene teapot = loadScene("teapot.full", opts.scale);
    ThreadPool pool(opts.threads);
    for (const Scene *scene : {&massive32, &teapot}) {
        localityGraph(*scene, DistKind::Block, blockWidths, opts,
                      pool);
        localityGraph(*scene, DistKind::SLI, sliLines, opts, pool);
    }

    // Cross-check the text's claims about the other scenes: ratio at
    // the paper's reference sizes (block 16 / SLI 2) at 1 and 64
    // processors.
    std::cout << "\n== Fig 6 cross-check: ratio growth from 1 to 64 "
                 "processors (block w16, SLI l2) ==\n";
    TablePrinter table(std::cout,
                       {"scene", "blk16 P1", "blk16 P64", "growth",
                        "sli2 P64", "sli/blk"},
                       10);
    table.printHeader();
    for (const std::string &name : benchmarkNames()) {
        Scene scene = loadScene(name, opts.scale);
        FrameLab lab(scene);
        MachineConfig cfg = paperConfig();
        cfg.infiniteBus = true;
        cfg.dist = DistKind::Block;
        cfg.tileParam = 16;
        cfg.numProcs = 1;
        double p1 = lab.run(cfg).texelToFragmentRatio;
        cfg.numProcs = 64;
        double p64 = lab.run(cfg).texelToFragmentRatio;
        cfg.dist = DistKind::SLI;
        cfg.tileParam = 2;
        double sli64 = lab.run(cfg).texelToFragmentRatio;
        table.cell(name);
        table.cell(p1, 3);
        table.cell(p64, 3);
        table.cell(p1 > 0 ? p64 / p1 : 0.0, 2);
        table.cell(sli64, 3);
        table.cell(p64 > 0 ? sli64 / p64 : 0.0, 2);
        table.endRow();
    }
    return 0;
}
