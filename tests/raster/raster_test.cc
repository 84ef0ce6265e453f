/** @file Unit and property tests for the watertight rasterizer. */

#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "geom/rng.hh"
#include "geom/vec.hh"
#include "raster/raster.hh"

namespace texdist
{
namespace
{

TexTriangle
makeTri(float x0, float y0, float x1, float y1, float x2, float y2)
{
    TexTriangle tri;
    tri.v[0] = {x0, y0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {x1, y1, 1.0f, 1.0f, 0.0f};
    tri.v[2] = {x2, y2, 1.0f, 0.0f, 1.0f};
    return tri;
}

std::vector<Fragment>
collect(const TriangleRaster &raster, const Rect &scissor)
{
    std::vector<Fragment> out;
    raster.rasterize(scissor, [&](const Fragment &f) {
        out.push_back(f);
    });
    return out;
}

const Rect bigScissor(-1000, -1000, 2000, 2000);

TEST(Raster, DegenerateEmitsNothing)
{
    TexTriangle tri = makeTri(0, 0, 10, 10, 20, 20); // collinear
    TriangleRaster raster(tri, 64, 64);
    EXPECT_TRUE(raster.degenerate());
    EXPECT_TRUE(collect(raster, bigScissor).empty());
    EXPECT_EQ(raster.countPixels(bigScissor), 0);
}

TEST(Raster, ZeroSizeTriangleDegenerate)
{
    TexTriangle tri = makeTri(5, 5, 5, 5, 5, 5);
    TriangleRaster raster(tri, 64, 64);
    EXPECT_TRUE(raster.degenerate());
}

TEST(Raster, AxisAlignedSquareViaTwoTriangles)
{
    // A 10x10 pixel-aligned square split along the diagonal covers
    // exactly 100 pixels, each exactly once.
    TexTriangle a = makeTri(0, 0, 10, 0, 10, 10);
    TexTriangle b = makeTri(0, 0, 10, 10, 0, 10);
    TriangleRaster ra(a, 64, 64);
    TriangleRaster rb(b, 64, 64);
    EXPECT_EQ(ra.countPixels(bigScissor) + rb.countPixels(bigScissor),
              100);

    std::map<std::pair<int, int>, int> cover;
    for (const Fragment &f : collect(ra, bigScissor))
        cover[{f.x, f.y}]++;
    for (const Fragment &f : collect(rb, bigScissor))
        cover[{f.x, f.y}]++;
    EXPECT_EQ(cover.size(), 100u);
    for (const auto &[pos, count] : cover) {
        EXPECT_EQ(count, 1) << "pixel (" << pos.first << ","
                            << pos.second << ")";
        EXPECT_GE(pos.first, 0);
        EXPECT_LT(pos.first, 10);
        EXPECT_GE(pos.second, 0);
        EXPECT_LT(pos.second, 10);
    }
}

TEST(Raster, OrientationIndependent)
{
    // Winding must not affect coverage (the engine draws both
    // orientations; there is no culling).
    TexTriangle ccw = makeTri(0, 0, 20, 0, 0, 20);
    TexTriangle cw = makeTri(0, 0, 0, 20, 20, 0);
    TriangleRaster rccw(ccw, 64, 64);
    TriangleRaster rcw(cw, 64, 64);
    EXPECT_EQ(rccw.countPixels(bigScissor),
              rcw.countPixels(bigScissor));
}

TEST(Raster, CountMatchesAreaForLargeTriangles)
{
    // Pixel count approaches the exact area for large triangles.
    TexTriangle tri = makeTri(0.0f, 0.0f, 200.0f, 0.0f, 0.0f, 150.0f);
    TriangleRaster raster(tri, 64, 64);
    double area = 0.5 * 200.0 * 150.0;
    double count = double(raster.countPixels(bigScissor));
    EXPECT_NEAR(count, area, area * 0.02);
    EXPECT_NEAR(raster.areaPixels(), area, 1e-6);
}

TEST(Raster, ScissorClips)
{
    TexTriangle tri = makeTri(0, 0, 40, 0, 0, 40);
    TriangleRaster raster(tri, 64, 64);
    Rect scissor(0, 0, 10, 10);
    for (const Fragment &f : collect(raster, scissor)) {
        EXPECT_TRUE(scissor.contains(f.x, f.y));
    }
    // Scissored count + complement partitions the full count.
    int64_t total = raster.countPixels(bigScissor);
    int64_t inside = raster.countPixels(scissor);
    EXPECT_GT(inside, 0);
    EXPECT_LT(inside, total);
}

TEST(Raster, ScissorPartitionIsExact)
{
    TexTriangle tri = makeTri(3.2f, 1.7f, 47.9f, 12.4f, 20.1f, 44.8f);
    TriangleRaster raster(tri, 64, 64);
    int64_t total = raster.countPixels(Rect(0, 0, 64, 64));
    // Split the screen into four quadrants; counts must partition.
    int64_t parts = raster.countPixels(Rect(0, 0, 32, 32)) +
                    raster.countPixels(Rect(32, 0, 64, 32)) +
                    raster.countPixels(Rect(0, 32, 32, 64)) +
                    raster.countPixels(Rect(32, 32, 64, 64));
    EXPECT_EQ(total, parts);
}

TEST(Raster, FragmentsInRasterOrder)
{
    TexTriangle tri = makeTri(0, 0, 30, 5, 10, 25);
    TriangleRaster raster(tri, 64, 64);
    auto frags = collect(raster, bigScissor);
    for (size_t i = 1; i < frags.size(); ++i) {
        bool ordered = frags[i].y > frags[i - 1].y ||
                       (frags[i].y == frags[i - 1].y &&
                        frags[i].x > frags[i - 1].x);
        EXPECT_TRUE(ordered) << "at fragment " << i;
    }
}

TEST(Raster, AffineInterpolationIsLinear)
{
    // invW = 1 everywhere: u equals the barycentric-linear map. For
    // the right triangle below, u = x/20, v = y/20 at pixel centres.
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {20, 0, 1.0f, 1.0f, 0.0f};
    tri.v[2] = {0, 20, 1.0f, 0.0f, 1.0f};
    TriangleRaster raster(tri, 64, 64);
    for (const Fragment &f : collect(raster, bigScissor)) {
        EXPECT_NEAR(f.u, (float(f.x) + 0.5f) / 20.0f, 1e-4f);
        EXPECT_NEAR(f.v, (float(f.y) + 0.5f) / 20.0f, 1e-4f);
    }
}

TEST(Raster, PerspectiveCorrectInterpolation)
{
    // A "floor" edge-on: v[1] is twice as far (invW 0.5). At the
    // screen midpoint of the edge, the perspective-correct parameter
    // is 1/3, not 1/2.
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {100, 0, 0.5f, 1.0f, 0.0f};
    tri.v[2] = {0, 100, 1.0f, 0.0f, 1.0f};
    TriangleRaster raster(tri, 64, 64);

    Fragment mid{};
    bool found = false;
    raster.rasterize(bigScissor, [&](const Fragment &f) {
        if (f.x == 50 && f.y == 0) {
            mid = f;
            found = true;
        }
    });
    ASSERT_TRUE(found);
    // u = (t * u1/w1) / ((1-t)/w0 + t/w1) with t ~ 0.505 for the
    // pixel centre at x = 50.5.
    float t = 50.5f / 100.0f;
    float expected = t * 0.5f / ((1 - t) * 1.0f + t * 0.5f);
    EXPECT_NEAR(mid.u, expected, 2e-3f);
}

TEST(Raster, LodMatchesDensity)
{
    // Mapping 64 texels across 64 pixels (normalized u spans 1 over
    // a 64px triangle, texture 64 wide): density 1 -> lod ~ 0.
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {64, 0, 1.0f, 1.0f, 0.0f};
    tri.v[2] = {0, 64, 1.0f, 0.0f, 1.0f};
    TriangleRaster raster(tri, 64, 64);
    for (const Fragment &f : collect(raster, Rect(0, 0, 10, 10)))
        EXPECT_NEAR(f.lod, 0.0f, 1e-3f);

    // Same geometry with a 256-texel texture: density 4 -> lod 2.
    TriangleRaster raster2(tri, 256, 256);
    for (const Fragment &f : collect(raster2, Rect(0, 0, 10, 10)))
        EXPECT_NEAR(f.lod, 2.0f, 1e-3f);
}

TEST(Raster, PerspectiveLodVariesWithDepth)
{
    // On a receding floor the far end is more minified.
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {100, 0, 0.2f, 1.0f, 0.0f};
    tri.v[2] = {0, 100, 1.0f, 0.0f, 1.0f};
    TriangleRaster raster(tri, 256, 256);
    float lod_near = 0, lod_far = 0;
    raster.rasterize(bigScissor, [&](const Fragment &f) {
        if (f.x == 2 && f.y == 0)
            lod_near = f.lod;
        if (f.x == 90 && f.y == 0)
            lod_far = f.lod;
    });
    EXPECT_GT(lod_far, lod_near);
}

/**
 * The watertightness property: split a random quad into two
 * triangles along its diagonal; every covered pixel must be covered
 * exactly once, regardless of vertex order.
 */
class SharedEdgeProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SharedEdgeProperty, QuadPixelsCoveredExactlyOnce)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 50; ++iter) {
        // A random convex quad: perturbed rectangle corners.
        float cx = float(rng.uniform(10, 50));
        float cy = float(rng.uniform(10, 50));
        float w = float(rng.uniform(4, 30));
        float h = float(rng.uniform(4, 30));
        auto jitter = [&]() { return float(rng.uniform(-2.0, 2.0)); };
        Vec2 p0(cx + jitter(), cy + jitter());
        Vec2 p1(cx + w + jitter(), cy + jitter());
        Vec2 p2(cx + w + jitter(), cy + h + jitter());
        Vec2 p3(cx + jitter(), cy + h + jitter());

        auto tri = [&](Vec2 a, Vec2 b, Vec2 c) {
            return makeTri(a.x, a.y, b.x, b.y, c.x, c.y);
        };
        TriangleRaster ra(tri(p0, p1, p2), 64, 64);
        TriangleRaster rb(tri(p0, p2, p3), 64, 64);
        if (ra.degenerate() || rb.degenerate())
            continue;

        std::map<std::pair<int, int>, int> cover;
        for (const Fragment &f : collect(ra, bigScissor))
            cover[{f.x, f.y}]++;
        for (const Fragment &f : collect(rb, bigScissor))
            cover[{f.x, f.y}]++;
        for (const auto &[pos, count] : cover) {
            ASSERT_EQ(count, 1)
                << "iter " << iter << " pixel (" << pos.first << ","
                << pos.second << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedEdgeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/**
 * Fan property: triangles sharing a central vertex tile a disc;
 * interior pixels are covered exactly once.
 */
class FanProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FanProperty, FanCoversDiscOnce)
{
    int n = GetParam();
    float cx = 40.25f, cy = 40.75f, r = 25.0f;
    std::map<std::pair<int, int>, int> cover;
    int64_t total = 0;
    for (int i = 0; i < n; ++i) {
        float a0 = float(i) / float(n) * 6.2831853f;
        float a1 = float(i + 1) / float(n) * 6.2831853f;
        TexTriangle tri =
            makeTri(cx, cy, cx + r * std::cos(a0),
                    cy + r * std::sin(a0), cx + r * std::cos(a1),
                    cy + r * std::sin(a1));
        TriangleRaster raster(tri, 64, 64);
        for (const Fragment &f : collect(raster, bigScissor))
            cover[{f.x, f.y}]++;
        total += raster.countPixels(bigScissor);
    }
    for (const auto &[pos, count] : cover)
        ASSERT_EQ(count, 1) << "pixel (" << pos.first << ","
                            << pos.second << ")";
    // Inscribed-polygon area: (n/2) r^2 sin(2 pi / n).
    double poly_area =
        0.5 * n * double(r) * r * std::sin(6.2831853 / n);
    EXPECT_NEAR(double(total), poly_area, poly_area * 0.05 + 10.0);
}

INSTANTIATE_TEST_SUITE_P(FanSizes, FanProperty,
                         ::testing::Values(3, 5, 8, 13, 24));

TEST(Raster, SubPixelTriangleMayCoverNothing)
{
    // A triangle much smaller than a pixel that misses all pixel
    // centres produces zero fragments but is not degenerate.
    TexTriangle tri = makeTri(5.1f, 5.1f, 5.3f, 5.1f, 5.1f, 5.3f);
    TriangleRaster raster(tri, 64, 64);
    EXPECT_FALSE(raster.degenerate());
    EXPECT_EQ(raster.countPixels(bigScissor), 0);
}

TEST(Raster, PixelCentreOnVertexCoveredAtMostOnce)
{
    // Triangle with a vertex exactly on a pixel centre.
    TexTriangle tri = makeTri(10.5f, 10.5f, 30.5f, 10.5f, 10.5f,
                              30.5f);
    TriangleRaster raster(tri, 64, 64);
    int count = 0;
    raster.rasterize(bigScissor, [&](const Fragment &f) {
        if (f.x == 10 && f.y == 10)
            ++count;
    });
    EXPECT_LE(count, 1);
}

TEST(Raster, BBoxContainsAllFragments)
{
    Rng rng(1234);
    for (int iter = 0; iter < 30; ++iter) {
        TexTriangle tri = makeTri(
            float(rng.uniform(0, 60)), float(rng.uniform(0, 60)),
            float(rng.uniform(0, 60)), float(rng.uniform(0, 60)),
            float(rng.uniform(0, 60)), float(rng.uniform(0, 60)));
        TriangleRaster raster(tri, 64, 64);
        if (raster.degenerate())
            continue;
        Rect box = raster.bbox();
        raster.rasterize(bigScissor, [&](const Fragment &f) {
            ASSERT_TRUE(box.contains(f.x, f.y))
                << "(" << f.x << "," << f.y << ") outside " << box;
        });
    }
}

TEST(Raster, ForEachCoveredVisitsRasterizesPixelsInOrder)
{
    // Wide triangles cross several 64-pixel words and, past 512
    // pixels, several coverage spans; the scissors clip them.
    Rng rng(99);
    const Rect scissors[] = {bigScissor, Rect(-3, 5, 700, 40)};
    for (int iter = 0; iter < 40; ++iter) {
        TexTriangle tri = makeTri(
            float(rng.uniform(-20, 900)), float(rng.uniform(-20, 60)),
            float(rng.uniform(-20, 900)), float(rng.uniform(-20, 60)),
            float(rng.uniform(-20, 900)), float(rng.uniform(-20, 60)));
        TriangleRaster raster(tri, 64, 64);
        for (const Rect &scissor : scissors) {
            std::vector<std::pair<int32_t, int32_t>> want, got;
            for (const Fragment &f : collect(raster, scissor))
                want.emplace_back(f.x, f.y);
            raster.forEachCovered(scissor, [&](int32_t x, int32_t y) {
                got.emplace_back(x, y);
            });
            EXPECT_EQ(got, want) << "triangle " << iter;
        }
    }
}

} // namespace
} // namespace texdist
