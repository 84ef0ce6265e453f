/**
 * @file
 * Scalar-vs-SIMD parity for the rasterizer kernels. rowCoverage()
 * and interpolateRun() may run on AVX2; every emitted fragment —
 * position, order, the bits of every interpolated attribute — must
 * be identical to the scalar path, including the fill-rule tie
 * decisions on shared edges and the 1/w <= 1e-12 fallback.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geom/rng.hh"
#include "raster/raster.hh"
#include "sim/simd.hh"

namespace texdist
{
namespace
{

class ForcedKernel
{
  public:
    explicit ForcedKernel(simd::Kernel kernel)
        : ok(simd::forceKernel(kernel))
    {
    }
    ~ForcedKernel() { simd::clearForcedKernel(); }
    ForcedKernel(const ForcedKernel &) = delete;
    ForcedKernel &operator=(const ForcedKernel &) = delete;
    bool supported() const { return ok; }

  private:
    bool ok;
};

TexTriangle
makeTri(float x0, float y0, float x1, float y1, float x2, float y2)
{
    TexTriangle tri;
    tri.v[0] = {x0, y0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {x1, y1, 1.0f, 1.0f, 0.0f};
    tri.v[2] = {x2, y2, 1.0f, 0.0f, 1.0f};
    return tri;
}

TexTriangle
makePerspectiveTri(float x0, float y0, float w0, float x1, float y1,
                   float w1, float x2, float y2, float w2)
{
    TexTriangle tri;
    tri.v[0] = {x0, y0, w0, 0.0f, 0.0f};
    tri.v[1] = {x1, y1, w1, 1.0f, 0.0f};
    tri.v[2] = {x2, y2, w2, 0.0f, 1.0f};
    return tri;
}

/** Bit patterns, so that -0.0f vs 0.0f and NaN payloads count. */
uint32_t
bits(float f)
{
    return std::bit_cast<uint32_t>(f);
}

std::vector<Fragment>
collect(const TriangleRaster &raster, const Rect &scissor,
        simd::Kernel kernel)
{
    ForcedKernel force(kernel);
    EXPECT_TRUE(force.supported());
    std::vector<Fragment> out;
    raster.rasterize(scissor,
                     [&](const Fragment &f) { out.push_back(f); });
    return out;
}

void
expectIdenticalFragments(const TriangleRaster &raster,
                         const Rect &scissor)
{
    std::vector<Fragment> ref =
        collect(raster, scissor, simd::Kernel::Scalar);
    {
        ForcedKernel force(simd::Kernel::Scalar);
        ASSERT_TRUE(force.supported());
        EXPECT_EQ(raster.countPixels(scissor),
                  int64_t(ref.size()));
    }
    for (simd::Kernel k : {simd::Kernel::SSE2, simd::Kernel::AVX2}) {
        if (!simd::kernelSupported(k))
            continue;
        std::vector<Fragment> got = collect(raster, scissor, k);
        ASSERT_EQ(ref.size(), got.size()) << simd::to_string(k);
        for (size_t i = 0; i < ref.size(); ++i) {
            // Exact raster emit order and bit-identical attributes.
            ASSERT_EQ(ref[i].x, got[i].x)
                << simd::to_string(k) << " fragment " << i;
            ASSERT_EQ(ref[i].y, got[i].y)
                << simd::to_string(k) << " fragment " << i;
            ASSERT_EQ(bits(ref[i].u), bits(got[i].u));
            ASSERT_EQ(bits(ref[i].v), bits(got[i].v));
            ASSERT_EQ(bits(ref[i].lod), bits(got[i].lod));
            ASSERT_EQ(bits(ref[i].invW), bits(got[i].invW));
        }
        ForcedKernel force(k);
        ASSERT_TRUE(force.supported());
        EXPECT_EQ(raster.countPixels(scissor),
                  int64_t(ref.size()))
            << simd::to_string(k);
    }
}

const Rect bigScissor(-1000, -1000, 2000, 2000);

TEST(RasterSimd, BasicTrianglesMatchScalar)
{
    const TexTriangle tris[] = {
        makeTri(0, 0, 10, 0, 10, 10),
        makeTri(0, 0, 10, 10, 0, 10),
        makeTri(3.2f, 1.7f, 97.4f, 22.9f, 41.0f, 88.8f),
        makeTri(-20.5f, -7.25f, 130.0f, 3.0f, 55.5f, 140.0f),
        // Thin sliver: mostly-empty coverage rows.
        makeTri(0.1f, 0.1f, 200.0f, 1.4f, 100.0f, 0.9f),
    };
    for (const TexTriangle &tri : tris) {
        TriangleRaster raster(tri, 64, 64);
        if (raster.degenerate())
            continue;
        expectIdenticalFragments(raster, bigScissor);
    }
}

TEST(RasterSimd, SharedEdgeTieDecisionsMatch)
{
    // A quad split along its diagonal: the shared edge is where the
    // fill rule's tie-break decides ownership. Both halves must make
    // identical decisions under every kernel, covering each pixel
    // exactly once.
    TexTriangle a = makeTri(0, 0, 40, 0, 40, 40);
    TexTriangle b = makeTri(0, 0, 40, 40, 0, 40);
    TriangleRaster ra(a, 64, 64);
    TriangleRaster rb(b, 64, 64);
    expectIdenticalFragments(ra, bigScissor);
    expectIdenticalFragments(rb, bigScissor);

    for (simd::Kernel k : {simd::Kernel::Scalar, simd::Kernel::SSE2,
                           simd::Kernel::AVX2}) {
        if (!simd::kernelSupported(k))
            continue;
        ForcedKernel force(k);
        ASSERT_TRUE(force.supported());
        EXPECT_EQ(ra.countPixels(bigScissor) +
                      rb.countPixels(bigScissor),
                  40 * 40)
            << simd::to_string(k);
    }
}

TEST(RasterSimd, WideTrianglesCrossCoverageSpans)
{
    // Wider than one 512-pixel coverage span, so the span loop and
    // the ragged last word of the bitmask are exercised.
    TexTriangle tri =
        makeTri(-10.0f, 0.0f, 1400.0f, 5.0f, 600.0f, 300.0f);
    TriangleRaster raster(tri, 64, 64);
    ASSERT_FALSE(raster.degenerate());
    expectIdenticalFragments(raster,
                             Rect(-100, -100, 1500, 400));
}

TEST(RasterSimd, RandomTrianglesAndScissors)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        TexTriangle tri = makeTri(float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)));
        TriangleRaster raster(tri, 128, 128);
        if (raster.degenerate())
            continue;
        expectIdenticalFragments(raster, bigScissor);
        // Scissors that slice the bbox mid-span.
        int32_t sx = int32_t(rng.uniformInt(-10, 200));
        int32_t sy = int32_t(rng.uniformInt(-10, 200));
        expectIdenticalFragments(
            raster, Rect(sx, sy, sx + int32_t(rng.uniformInt(1, 150)),
                         sy + int32_t(rng.uniformInt(1, 150))));
    }
}

/** One interpolateRun() output, per attribute, as bit patterns. */
struct RunBits
{
    std::vector<uint32_t> u, v, lod, invW;
};

RunBits
runBits(const TriangleRaster &raster, simd::Kernel kernel, int32_t y,
        const std::vector<int32_t> &xs)
{
    ForcedKernel force(kernel);
    EXPECT_TRUE(force.supported());
    const size_t n = xs.size();
    std::vector<float> u(n), v(n), lod(n), inv_w(n);
    raster.interpolateRun(y, xs.data(), int32_t(n), u.data(), v.data(),
                          lod.data(), inv_w.data());
    RunBits out;
    for (size_t i = 0; i < n; ++i) {
        out.u.push_back(bits(u[i]));
        out.v.push_back(bits(v[i]));
        out.lod.push_back(bits(lod[i]));
        out.invW.push_back(bits(inv_w[i]));
    }
    return out;
}

/** Scalar and AVX2 agree bit for bit on one run; returns the run. */
RunBits
expectIdenticalRun(const TriangleRaster &raster, int32_t y,
                   const std::vector<int32_t> &xs,
                   const std::string &what)
{
    RunBits ref = runBits(raster, simd::Kernel::Scalar, y, xs);
    if (simd::kernelSupported(simd::Kernel::AVX2)) {
        RunBits got = runBits(raster, simd::Kernel::AVX2, y, xs);
        for (size_t i = 0; i < xs.size(); ++i) {
            EXPECT_EQ(ref.u[i], got.u[i]) << what << " u, x=" << xs[i];
            EXPECT_EQ(ref.v[i], got.v[i]) << what << " v, x=" << xs[i];
            EXPECT_EQ(ref.lod[i], got.lod[i])
                << what << " lod, x=" << xs[i];
            EXPECT_EQ(ref.invW[i], got.invW[i])
                << what << " invW, x=" << xs[i];
        }
    }
    return ref;
}

TEST(RasterSimd, InterpolateRunBitIdenticalUnderPerspective)
{
    // Receding triangles: 1/w varies across every run, so the
    // divide, the quotient-rule derivatives and the level of detail
    // all differ lane to lane. The affine ones with integer vertices
    // produce exact zeros and ties, where a reordered sum shows up
    // as a flipped sign or a neighbouring float. Run lengths 1..13
    // cover n % 4 of 0, 1, 2 and 3, and the pixels are scattered
    // like a sparse coverage word's.
    const TexTriangle tris[] = {
        makePerspectiveTri(0, 0, 1.0f, 300, 10, 0.1f, 40, 250, 0.5f),
        makePerspectiveTri(-50, 20, 0.02f, 500, 0, 2.0f, 100, 400,
                           0.3f),
        makePerspectiveTri(10, 10, 0.9f, 12, 300, 0.9f, 400, 200,
                           0.05f),
        makeTri(0, 0, 10, 0, 10, 10),
        makeTri(3.2f, 1.7f, 97.4f, 22.9f, 41.0f, 88.8f),
    };
    Rng rng(31);
    for (const TexTriangle &tri : tris) {
        for (uint32_t tex : {1u, 64u, 1024u}) {
            TriangleRaster raster(tri, tex, tex);
            ASSERT_FALSE(raster.degenerate());
            // Rows and pixels around and inside the triangle.
            const Rect &box = raster.bbox();
            const int32_t dy = std::max(1, (box.y1 - box.y0) / 24);
            for (int32_t y = box.y0 - 1; y <= box.y1; y += dy) {
                for (int32_t n = 1; n <= 13; ++n) {
                    std::vector<int32_t> xs;
                    int32_t x =
                        int32_t(rng.uniformInt(box.x0 - 4, box.x1));
                    for (int32_t i = 0; i < n; ++i) {
                        xs.push_back(x);
                        x += int32_t(rng.uniformInt(1, 3));
                    }
                    expectIdenticalRun(raster, y, xs,
                                       "y=" + std::to_string(y) +
                                           " n=" + std::to_string(n));
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
}

TEST(RasterSimd, InterpolateRunZeroesLanesBehindTheEye)
{
    // 1/w falls from 1 at x = 0 to -1 at x = 100, so it crosses
    // 1e-12 near x = 50. interpolateRun() evaluates uncovered pixels
    // too, so runs straddling x = 50 put fallback lanes (all four
    // attributes +0) and live lanes in the same vector.
    TexTriangle tri =
        makePerspectiveTri(0, 0, 1.0f, 100, 0, -1.0f, 0, 100, 1.0f);
    TriangleRaster raster(tri, 256, 256);
    ASSERT_FALSE(raster.degenerate());
    for (int32_t n = 1; n <= 12; ++n) {
        for (int32_t first = 44; first <= 52; ++first) {
            std::vector<int32_t> xs;
            for (int32_t i = 0; i < n; ++i)
                xs.push_back(first + i);
            RunBits ref = expectIdenticalRun(
                raster, 10, xs,
                "n=" + std::to_string(n) + " first=" +
                    std::to_string(first));
            for (size_t i = 0; i < xs.size(); ++i) {
                // Pixel centre x + .5 against the zero crossing.
                const bool dead = xs[i] >= 50;
                EXPECT_EQ(ref.invW[i] == 0, dead) << "x=" << xs[i];
                if (dead) {
                    EXPECT_EQ(ref.u[i], 0u);
                    EXPECT_EQ(ref.v[i], 0u);
                    EXPECT_EQ(ref.lod[i], 0u);
                }
            }
        }
    }
}

TEST(RasterSimd, PerspectiveTrianglesMatchScalar)
{
    // The whole rasterize() path under perspective, with scissors
    // that cut the coverage words at every phase mod 4.
    TexTriangle tri =
        makePerspectiveTri(-5, 3, 1.0f, 700, 40, 0.07f, 90, 300, 0.6f);
    TriangleRaster raster(tri, 512, 512);
    ASSERT_FALSE(raster.degenerate());
    expectIdenticalFragments(raster, bigScissor);
    for (int32_t x0 = 0; x0 < 4; ++x0)
        expectIdenticalFragments(raster, Rect(x0, 0, 301 + x0, 200));
}

} // namespace
} // namespace texdist
