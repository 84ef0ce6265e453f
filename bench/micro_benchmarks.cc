/**
 * @file
 * Google-benchmark microbenchmarks for the simulator's hot paths:
 * rasterization and interpolation, trilinear address generation
 * (single and batched), cache lookups (per texel and per fragment)
 * and the event kernel. These guard the simulator's
 * own throughput (frames are hundreds of millions of texel
 * accesses), not the paper's results.
 *
 * Every benchmark runs 5 repetitions and reports only the
 * aggregates — read the *_median row; a single repetition on a busy
 * host is noise, and the mean is skewed by one preempted run. Each
 * benchmark also warms its working set before the timed loop, so
 * the first repetition does not pay the cold-cache cost the other
 * four skip.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "core/machine.hh"
#include "geom/rng.hh"
#include "raster/raster.hh"
#include "scene/builder.hh"
#include "sim/eventq.hh"
#include "sim/simd.hh"
#include "texture/sampler.hh"

namespace texdist
{
namespace
{

// Median-of-5 for every benchmark in this file; see the file header.
constexpr int kRepetitions = 5;

void
BM_RasterizeTriangle(benchmark::State &state)
{
    const float size = float(state.range(0));
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {size, 0, 1.0f, 1.0f, 0.0f};
    tri.v[2] = {0, size, 1.0f, 0.0f, 1.0f};
    Rect screen(0, 0, 2048, 2048);

    // Warmup: one full rasterization primes the triangle's edge
    // state and the instruction cache.
    {
        TriangleRaster raster(tri, 256, 256);
        raster.rasterize(screen, [&](const Fragment &f) {
            benchmark::DoNotOptimize(f.u);
        });
    }

    int64_t frags = 0;
    for (auto _ : state) {
        TriangleRaster raster(tri, 256, 256);
        raster.rasterize(screen, [&](const Fragment &f) {
            benchmark::DoNotOptimize(f.u);
            ++frags;
        });
    }
    state.SetItemsProcessed(frags);
}
BENCHMARK(BM_RasterizeTriangle)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_TrilinearAddressGen(benchmark::State &state)
{
    Texture tex(0, 0, 256, 256);
    TexelRefs refs;
    Rng rng(1);
    std::vector<float> us, vs, lods;
    for (int i = 0; i < 1024; ++i) {
        us.push_back(float(rng.uniform()));
        vs.push_back(float(rng.uniform()));
        lods.push_back(float(rng.uniform(0.0, 6.0)));
    }

    for (int i = 0; i < 1024; ++i) // warmup pass over the inputs
        TrilinearSampler::generate(tex, us[i], vs[i], lods[i], refs);

    size_t i = 0;
    for (auto _ : state) {
        TrilinearSampler::generate(tex, us[i & 1023], vs[i & 1023],
                                   lods[i & 1023], refs);
        benchmark::DoNotOptimize(refs[0]);
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 8);
}
BENCHMARK(BM_TrilinearAddressGen)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_TrilinearAddressGenBatch(benchmark::State &state)
{
    // The node's scan loop generates addresses for a whole fragment
    // chunk at once (node.cc scanFragments); this measures that
    // batched path against BM_TrilinearAddressGen's per-fragment
    // calls.
    const size_t batch = size_t(state.range(0));
    Texture tex(0, 0, 256, 256);
    Rng rng(1);
    std::vector<float> us(batch), vs(batch), lods(batch);
    for (size_t i = 0; i < batch; ++i) {
        us[i] = float(rng.uniform());
        vs[i] = float(rng.uniform());
        lods[i] = float(rng.uniform(0.0, 6.0));
    }
    std::vector<uint64_t> out(batch * 8);

    TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                    lods.data(), batch,
                                    out.data()); // warmup

    for (auto _ : state) {
        TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                        lods.data(), batch,
                                        out.data());
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batch) * 8);
}
BENCHMARK(BM_TrilinearAddressGenBatch)
    ->Arg(64)
    ->Arg(512)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_TrilinearBatchKernel(benchmark::State &state)
{
    // Batched address generation pinned to one SIMD tier, so the
    // scalar/sse2/avx2 rows can be compared directly; the ratio of
    // the scalar to the avx2 median is the kernel speedup.
    // Unsupported tiers skip rather than lie.
    const auto kernel = simd::Kernel(uint8_t(state.range(1)));
    if (!simd::forceKernel(kernel)) {
        state.SkipWithError("kernel unsupported on this host");
        return;
    }
    const size_t batch = size_t(state.range(0));
    Texture tex(0, 0, 256, 256);
    Rng rng(1);
    std::vector<float> us(batch), vs(batch), lods(batch);
    for (size_t i = 0; i < batch; ++i) {
        us[i] = float(rng.uniform());
        vs[i] = float(rng.uniform());
        lods[i] = float(rng.uniform(0.0, 6.0));
    }
    std::vector<uint64_t> out(batch * 8);

    TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                    lods.data(), batch,
                                    out.data()); // warmup

    for (auto _ : state) {
        TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                        lods.data(), batch,
                                        out.data());
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batch) * 8);
    state.SetLabel(simd::to_string(kernel));
    simd::clearForcedKernel();
}
BENCHMARK(BM_TrilinearBatchKernel)
    ->ArgNames({"batch", "kernel"})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_RasterCoverageKernel(benchmark::State &state)
{
    // The rasterizer's coverage inner loop pinned to one SIMD tier.
    // A large triangle keeps the benchmark in rowCoverage rather
    // than in per-fragment interpolation.
    const auto kernel = simd::Kernel(uint8_t(state.range(0)));
    if (!simd::forceKernel(kernel)) {
        state.SkipWithError("kernel unsupported on this host");
        return;
    }
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {1024, 0, 1.0f, 1.0f, 0.0f};
    tri.v[2] = {0, 1024, 1.0f, 0.0f, 1.0f};
    Rect screen(0, 0, 2048, 2048);
    TriangleRaster raster(tri, 256, 256);

    benchmark::DoNotOptimize(raster.countPixels(screen)); // warmup

    int64_t pixels = 0;
    for (auto _ : state) {
        pixels += raster.countPixels(screen);
        benchmark::DoNotOptimize(pixels);
    }
    state.SetItemsProcessed(pixels);
    state.SetLabel(simd::to_string(kernel));
    simd::clearForcedKernel();
}
BENCHMARK(BM_RasterCoverageKernel)
    ->ArgNames({"kernel"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_InterpolateRun(benchmark::State &state)
{
    // Perspective-correct interpolation of full 64-pixel coverage
    // words, the unit rasterize() hands to interpolateRun(), pinned
    // to one tier. The triangle recedes (1/w from 1 to 0.1), so the
    // divide and the derivatives see varying w.
    const auto kernel = simd::Kernel(uint8_t(state.range(0)));
    if (!simd::forceKernel(kernel)) {
        state.SkipWithError("kernel unsupported on this host");
        return;
    }
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {1024, 0, 0.1f, 1.0f, 0.0f};
    tri.v[2] = {0, 1024, 0.4f, 0.0f, 1.0f};
    TriangleRaster raster(tri, 256, 256);
    constexpr int32_t rows = 256;
    int32_t xs[64];
    for (int32_t i = 0; i < 64; ++i)
        xs[i] = 128 + i;
    float u[64], v[64], lod[64], inv_w[64];
    raster.interpolateRun(0, xs, 64, u, v, lod, inv_w); // warmup

    for (auto _ : state) {
        for (int32_t y = 0; y < rows; ++y) {
            raster.interpolateRun(y, xs, 64, u, v, lod, inv_w);
            benchmark::DoNotOptimize(u);
            benchmark::DoNotOptimize(v);
            benchmark::DoNotOptimize(lod);
            benchmark::DoNotOptimize(inv_w);
            benchmark::ClobberMemory();
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * rows * 64);
    state.SetLabel(simd::to_string(kernel));
    simd::clearForcedKernel();
}
BENCHMARK(BM_InterpolateRun)
    ->ArgNames({"kernel"})
    ->Arg(0)
    ->Arg(2)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_CacheAccess(benchmark::State &state)
{
    SetAssocCache cache(CacheGeometry{});
    Rng rng(2);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 4096; ++i) {
        uint64_t a = uint64_t(rng.uniformInt(0, 1 << 18));
        if (rng.chance(0.8))
            a &= 0x7fff; // mostly-hitting stream
        addrs.push_back(a);
    }

    for (int i = 0; i < 4096; ++i) // warmup: fill the cache
        cache.access(addrs[i]);

    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i & 4095]));
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_CacheAccess)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

/**
 * One fragment's eight trilinear references per iteration, through
 * the TextureCache interface the nodes use. batched 0 makes eight
 * access() calls, batched 1 one accessFragment() call; items are
 * fragments, so the two rows compare the cost per fragment. The
 * all_mru stream re-touches one fragment's four lines, each the MRU
 * way of its own set, so every fragment after the first takes the
 * store-free all-MRU path.
 */
void
BM_CacheAccessFragment(benchmark::State &state)
{
    const bool batched = state.range(0) != 0;
    const bool all_mru = state.range(1) != 0;
    std::vector<uint64_t> addrs;
    if (all_mru) {
        // Two texels in each of four consecutive lines (four sets).
        for (uint64_t line = 0; line < 4; ++line)
            for (uint64_t texel = 0; texel < 2; ++texel)
                addrs.push_back(0x10000 + line * 64 + texel * 4);
    } else {
        // A 64x64-pixel window over a 256x256 texture in scanline
        // order, minified by ~1.5: the coherent, mostly hitting
        // stream of a textured wall.
        Texture tex(0, 0, 256, 256);
        constexpr int side = 64;
        TexelRefs refs;
        for (int y = 0; y < side; ++y) {
            for (int x = 0; x < side; ++x) {
                TrilinearSampler::generate(
                    tex, float(x) * 1.5f / 256.0f,
                    float(y) * 1.5f / 256.0f, 0.58f, refs);
                addrs.insert(addrs.end(), refs.begin(), refs.end());
            }
        }
    }
    const size_t frags = addrs.size() / texelsPerFragment;

    std::unique_ptr<TextureCache> cache =
        makeCache(CacheKind::SetAssoc, CacheGeometry{});
    for (uint64_t a : addrs) // warmup: fill the cache
        cache->access(a);

    size_t f = 0;
    for (auto _ : state) {
        const uint64_t *frag = &addrs[f * texelsPerFragment];
        uint32_t missed = 0;
        if (batched) {
            missed = cache->accessFragment(frag, texelsPerFragment);
        } else {
            for (int k = 0; k < texelsPerFragment; ++k)
                missed += cache->access(frag[k]) ? 0 : 1;
        }
        benchmark::DoNotOptimize(missed);
        f = f + 1 == frags ? 0 : f + 1;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
    state.SetLabel(batched ? "accessFragment" : "8x access");
}
BENCHMARK(BM_CacheAccessFragment)
    ->ArgNames({"batched", "all_mru"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_EventQueueSchedule(benchmark::State &state)
{
    EventQueue eq;
    LambdaEvent tick([] {});
    Tick t = 1;

    for (int i = 0; i < 1024; ++i) { // warmup
        eq.schedule(&tick, t++);
        eq.step();
    }

    for (auto _ : state) {
        eq.schedule(&tick, t++);
        eq.step();
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_EventQueueSchedule)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_FullFrameSimulation(benchmark::State &state)
{
    SceneBuilder b("bench", 256, 256, 3);
    auto pool = b.makeTexturePool(8, 32, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    Scene scene = b.take();

    MachineConfig cfg;
    cfg.numProcs = uint32_t(state.range(0));
    cfg.tileParam = 16;
    cfg.busTexelsPerCycle = 1.0;

    benchmark::DoNotOptimize(runFrame(scene, cfg)); // warmup

    uint64_t frags = 0;
    for (auto _ : state) {
        FrameResult r = runFrame(scene, cfg);
        benchmark::DoNotOptimize(r.frameTime);
        frags += r.totalPixels;
    }
    state.SetItemsProcessed(int64_t(frags));
}
BENCHMARK(BM_FullFrameSimulation)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

} // namespace
} // namespace texdist

BENCHMARK_MAIN();
