/**
 * @file
 * Baseline B1 — sort-middle vs sort-last.
 *
 * The paper's introduction positions sort-middle against the
 * sort-last organization its authors studied in [13, 14]: sort-last
 * has no tile-size knob at all (object-space distribution balances
 * load statistically and pays no primitive-overlap setup cost), but
 * its texture locality depends on how object-coherent the triangle
 * assignment is, and it needs a composition pass that sort-middle
 * does not. This harness compares, per benchmark and processor
 * count: sort-middle at its best fixed block (16), sort-last with
 * round-robin triangles, and sort-last with chunked (8-triangle)
 * assignment — the repair scheme of [14] — on the texel ratio and
 * on render speedup (composition modelled as free, like the paper's
 * ideal networks, with the bandwidth knob available in the config).
 */

#include <iostream>

#include "bench_common.hh"
#include "core/sortlast.hh"

using namespace texdist;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Baseline B1: sort-middle vs sort-last (scale "
              << opts.scale << ")\n";

    for (uint32_t procs : {16u, 64u}) {
        std::cout << "\n== " << procs
                  << " processors, 16KB caches, 1x bus: texel ratio "
                     "and speedup ==\n";
        TablePrinter table(
            std::cout,
            {"scene", "t/f sm16", "t/f slRR", "t/f slCH",
             "sp sm16", "sp slRR", "sp slCH"},
            10);
        table.printHeader();

        for (const std::string &name : benchmarkNames()) {
            Scene scene = makeBenchmark(name, opts.scale);
            FrameLab lab(scene);

            MachineConfig sm = paperConfig();
            sm.numProcs = procs;
            sm.dist = DistKind::Block;
            sm.tileParam = 16;
            auto sm_res = lab.runWithSpeedup(sm);
            Tick t1 = lab.baseline(sm);

            SortLastConfig sl;
            sl.node = paperConfig();
            sl.node.numProcs = procs;
            sl.chunkSize = 1;
            FrameResult rr = runSortLastFrame(scene, sl).frame;
            sl.chunkSize = 8;
            FrameResult ch = runSortLastFrame(scene, sl).frame;

            table.cell(name);
            table.cell(sm_res.frame.texelToFragmentRatio, 3);
            table.cell(rr.texelToFragmentRatio, 3);
            table.cell(ch.texelToFragmentRatio, 3);
            table.cell(sm_res.speedup, 2);
            table.cell(rr.frameTime ? double(t1) /
                                          double(rr.frameTime)
                                    : 0.0,
                       2);
            table.cell(ch.frameTime ? double(t1) /
                                          double(ch.frameTime)
                                    : 0.0,
                       2);
            table.endRow();
        }
    }

    // The [14]-style frontier: chunk size trades texture locality
    // against balance granularity.
    std::cout << "\n== chunk-size frontier: 32massive11255, 64 "
                 "processors ==\n";
    {
        Scene scene = makeBenchmark("32massive11255", opts.scale);
        FrameLab lab(scene);
        MachineConfig sm = paperConfig();
        sm.numProcs = 64;
        sm.tileParam = 16;
        Tick t1 = lab.baseline(sm);
        TablePrinter table(std::cout,
                           {"chunk", "t/f", "speedup"}, 11);
        table.printHeader();
        for (uint32_t chunk : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
            SortLastConfig sl;
            sl.node = paperConfig();
            sl.node.numProcs = 64;
            sl.chunkSize = chunk;
            FrameResult r = runSortLastFrame(scene, sl).frame;
            table.cell(uint64_t(chunk));
            table.cell(r.texelToFragmentRatio, 3);
            table.cell(r.frameTime ? double(t1) / double(r.frameTime)
                                   : 0.0,
                       2);
            table.endRow();
        }
    }

    std::cout << "\n(reading: chunked assignment recovers object "
                 "coherence, the repair of [14],\nat the price of "
                 "coarser balance. Sort-last cannot split one big "
                 "triangle\nacross nodes, so frames dominated by "
                 "large background surfaces favour\nsort-middle; "
                 "frames of small clustered triangles favour "
                 "sort-last's perfect\nstatistical balance. "
                 "Speedups exclude composition; use\n"
                 "SortLastConfig::compositePixelsPerCycle to charge "
                 "it.)\n";
    return 0;
}
