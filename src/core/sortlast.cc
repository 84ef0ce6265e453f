#include "core/sortlast.hh"

#include <algorithm>
#include <cmath>

#include "raster/raster.hh"
#include "sim/logging.hh"

namespace texdist
{

SortLastMachine::SortLastMachine(const Scene &scene_,
                                 const SortLastConfig &config)
    : scene(scene_), cfg(config)
{
    uint32_t procs = cfg.node.numProcs;
    if (procs == 0)
        texdist_fatal("sort-last machine needs at least one node");
    if (cfg.chunkSize == 0)
        texdist_fatal("chunk size must be positive");

    nodes.reserve(procs);
    for (uint32_t i = 0; i < procs; ++i)
        nodes.push_back(
            std::make_unique<TextureNode>(i, cfg.node, scene.textures));
}

SortLastResult
SortLastMachine::run()
{
    if (ran)
        texdist_panic("SortLastMachine::run() called twice");
    ran = true;

    uint32_t procs = cfg.node.numProcs;
    Rect screen = scene.screenRect();

    // Every node owns its whole triangle stream from tick 0 (the
    // geometry stage is parallel in sort-last), so each triangle
    // starts as soon as its node is free: rasterize it and run it
    // on its node directly, in triangle order.
    std::vector<NodeFragment> frags;
    for (size_t t = 0; t < scene.triangles.size(); ++t) {
        const TexTriangle &tri = scene.triangles[t];
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster raster(tri, tex.width(), tex.height());
        if (raster.degenerate())
            continue;
        Rect bbox = raster.bbox().intersect(screen);
        if (bbox.empty())
            continue;

        frags.clear();
        raster.rasterize(screen, [&](const Fragment &frag) {
            frags.push_back(NodeFragment{uint16_t(frag.x),
                                         uint16_t(frag.y), frag.u,
                                         frag.v, frag.lod});
        });
        nodes[(t / cfg.chunkSize) % procs]->consumeDirect(
            0, tri.tex, frags.data(), frags.size());
    }

    SortLastResult out;
    for (const auto &node : nodes)
        out.renderTime = std::max(out.renderTime, node->finishTime());
    std::vector<NodeSnapshot> fresh(nodes.size());
    out.frame = assembleFrameResult(nodes, fresh, 0, out.renderTime);

    // Pipelined binary-tree composition after the last node.
    if (cfg.compositePixelsPerCycle > 0.0 && procs > 1) {
        double stages = std::ceil(std::log2(double(procs)));
        out.compositionCycles = Tick(
            std::ceil(stages * double(scene.screenArea()) /
                      cfg.compositePixelsPerCycle));
    }
    out.frame.frameTime = out.renderTime + out.compositionCycles;
    return out;
}

SortLastResult
runSortLastFrame(const Scene &scene, const SortLastConfig &config)
{
    SortLastMachine machine(scene, config);
    return machine.run();
}

} // namespace texdist
