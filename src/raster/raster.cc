#include "raster/raster.hh"

#include <algorithm>
#include <cmath>

#include "raster/raster_kernels.hh"
#include "sim/simd.hh"
#include "texture/sampler.hh"

namespace texdist
{

namespace
{

/** Snap a floating-point pixel coordinate to the subpixel grid. */
int64_t
snap(float coord)
{
    return int64_t(std::lround(double(coord) * subpixelOne));
}

/** Floor division by the subpixel grid size. */
int32_t
subFloor(int64_t v)
{
    // Arithmetic shift implements floor division for negatives.
    return int32_t(v >> subpixelBits);
}

} // namespace

TriangleRaster::TriangleRaster(const TexTriangle &tri, uint32_t tex_w,
                               uint32_t tex_h)
{
    planes.texW = float(tex_w);
    planes.texH = float(tex_h);
    // Snapped vertex positions in subpixel units.
    int64_t xs[3], ys[3];
    int perm[3] = {0, 1, 2};
    for (int i = 0; i < 3; ++i) {
        xs[i] = snap(tri.v[i].x);
        ys[i] = snap(tri.v[i].y);
    }

    int64_t area2 = (xs[1] - xs[0]) * (ys[2] - ys[0]) -
                    (xs[2] - xs[0]) * (ys[1] - ys[0]);
    if (area2 == 0) {
        _degenerate = true;
        return;
    }
    if (area2 < 0) {
        // Normalize orientation so the interior is positive for all
        // three edge functions.
        std::swap(perm[1], perm[2]);
        std::swap(xs[1], xs[2]);
        std::swap(ys[1], ys[2]);
        area2 = -area2;
    }
    _degenerate = false;
    _areaPixels =
        double(area2) / (2.0 * subpixelOne * subpixelOne);

    // Edge i runs from vertex i to vertex (i + 1) % 3.
    for (int e = 0; e < 3; ++e) {
        int a = e;
        int b = (e + 1) % 3;
        int64_t dx = xs[b] - xs[a];
        int64_t dy = ys[b] - ys[a];
        edgeA[e] = -dy;
        edgeB[e] = dx;
        edgeC[e] = dy * xs[a] - dx * ys[a];
        stepX[e] = edgeA[e] * subpixelOne;
        // Tie-break rule for pixels exactly on an edge: accept on one
        // side only. rule(d) != rule(-d) for every nonzero direction,
        // which makes triangles sharing an edge watertight.
        edgeAcceptsZero[e] = dy < 0 || (dy == 0 && dx > 0);
    }

    // Conservative pixel bounding box of the snapped triangle.
    int64_t min_x = std::min({xs[0], xs[1], xs[2]});
    int64_t max_x = std::max({xs[0], xs[1], xs[2]});
    int64_t min_y = std::min({ys[0], ys[1], ys[2]});
    int64_t max_y = std::max({ys[0], ys[1], ys[2]});
    int32_t half = subpixelOne / 2;
    _bbox = Rect(subFloor(min_x - half), subFloor(min_y - half),
                 subFloor(max_x - half) + 2, subFloor(max_y - half) + 2);

    // Interpolation planes over u/w, v/w and 1/w, in pixel units,
    // evaluated from the snapped positions so that interpolation and
    // coverage agree.
    double px[3], py[3], uw[3], vw[3], w[3];
    for (int i = 0; i < 3; ++i) {
        const TexVertex &vert = tri.v[perm[i]];
        px[i] = double(xs[i]) / subpixelOne;
        py[i] = double(ys[i]) / subpixelOne;
        w[i] = vert.invW;
        uw[i] = double(vert.u) * vert.invW;
        vw[i] = double(vert.v) * vert.invW;
    }
    double area_px = (px[1] - px[0]) * (py[2] - py[0]) -
                     (px[2] - px[0]) * (py[1] - py[0]);
    auto plane = [&](const double f[3], double &base, double &ddx,
                     double &ddy) {
        ddx = ((f[1] - f[0]) * (py[2] - py[0]) -
               (f[2] - f[0]) * (py[1] - py[0])) /
              area_px;
        ddy = ((f[2] - f[0]) * (px[1] - px[0]) -
               (f[1] - f[0]) * (px[2] - px[0])) /
              area_px;
        base = f[0] - ddx * px[0] - ddy * py[0];
    };
    plane(uw, planes.uwBase, planes.uwDx, planes.uwDy);
    plane(vw, planes.vwBase, planes.vwDx, planes.vwDy);
    plane(w, planes.wBase, planes.wDx, planes.wDy);
}

void
TriangleRaster::interpolateRun(int32_t y, const int32_t *xs, int32_t n,
                               float *u, float *v, float *lod,
                               float *inv_w) const
{
    if (simd::dispatch() == simd::Kernel::AVX2 &&
        detail::interpolateRunAvx2(planes, y, xs, n, u, v, lod, inv_w))
        return;
    detail::interpolateRunScalar(planes, y, xs, n, u, v, lod, inv_w);
}

void
TriangleRaster::rowCoverage(int32_t y, int32_t x0, int32_t n,
                            uint64_t *bits) const
{
    // Fold the tie-break rule into a bias so coverage becomes a pure
    // sign test: inside(e, v) == (v - bias >= 0) with bias 0 for an
    // accepting edge and 1 otherwise. The AVX2 kernel reads the sign
    // bits of the same biased values, so the two paths agree on
    // every pixel, ties included.
    detail::RowCoverage rc;
    for (int e = 0; e < 3; ++e) {
        rc.edge[e] = edgeAt(e, x0, y) - (edgeAcceptsZero[e] ? 0 : 1);
        rc.step[e] = stepX[e];
    }

    if (simd::dispatch() == simd::Kernel::AVX2 &&
        detail::rowCoverageAvx2(rc, n, bits))
        return;

    int32_t words = (n + 63) >> 6;
    for (int32_t w = 0; w < words; ++w)
        bits[w] = 0;
    for (int32_t k = 0; k < n; ++k) {
        // All three biased values non-negative: the sign bit of the
        // OR is clear exactly then.
        if ((rc.edge[0] | rc.edge[1] | rc.edge[2]) >= 0)
            bits[k >> 6] |= uint64_t(1) << (k & 63);
        rc.edge[0] += rc.step[0];
        rc.edge[1] += rc.step[1];
        rc.edge[2] += rc.step[2];
    }
}

int64_t
TriangleRaster::countPixels(const Rect &scissor) const
{
    if (_degenerate)
        return 0;
    Rect r = _bbox.intersect(scissor);
    if (r.empty())
        return 0;

    int64_t count = 0;
    uint64_t bits[coverageWords];
    int32_t width = r.x1 - r.x0;
    for (int32_t y = r.y0; y < r.y1; ++y) {
        for (int32_t cx = 0; cx < width; cx += coverageSpan) {
            int32_t n = width - cx < coverageSpan ? width - cx
                                                  : coverageSpan;
            rowCoverage(y, r.x0 + cx, n, bits);
            int32_t words = (n + 63) >> 6;
            for (int32_t w = 0; w < words; ++w)
                count += std::popcount(bits[w]);
        }
    }
    return count;
}

} // namespace texdist
