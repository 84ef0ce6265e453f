/**
 * @file
 * Watertight triangle rasterizer.
 *
 * The texture-mapping engines of the paper scan triangles pixel by
 * pixel after a setup stage computes the edge slopes. This module is
 * that scan stage: fixed-point edge functions (28.4 subpixel
 * precision) with a consistent tie-break rule, so that triangles
 * sharing an edge cover every pixel exactly once — the property the
 * paper's depth-complexity accounting relies on — plus
 * perspective-correct interpolation of texture coordinates and an
 * analytic per-pixel level of detail for mip-map selection.
 *
 * Rasterization is deliberately independent of the machine
 * distribution: the simulator assigns each emitted fragment to the
 * node owning its pixel, which models the paper's "clipping while
 * drawing" (a node spends cycles only on the pixels of its tiles).
 */

#ifndef TEXDIST_RASTER_RASTER_HH
#define TEXDIST_RASTER_RASTER_HH

#include <algorithm>
#include <bit>
#include <cstdint>

#include "geom/rect.hh"
#include "raster/raster_kernels.hh"
#include "raster/triangle.hh"

namespace texdist
{

/** Subpixel bits of the fixed-point snapping grid. */
constexpr int subpixelBits = 4;

/** One pixel in fixed-point units. */
constexpr int32_t subpixelOne = 1 << subpixelBits;

/**
 * Per-triangle setup: edge equations, interpolation planes and
 * bounding box. Construct once, then rasterize() against any number
 * of scissor rectangles.
 */
class TriangleRaster
{
  public:
    /**
     * @param tri screen-space triangle
     * @param tex_w, tex_h level-0 texture dimensions, used to express
     *        the level of detail in texel units
     */
    TriangleRaster(const TexTriangle &tri, uint32_t tex_w,
                   uint32_t tex_h);

    /** True when the snapped triangle has zero area. */
    bool degenerate() const { return _degenerate; }

    /** Pixel bounding box of the snapped triangle (half-open). */
    const Rect &bbox() const { return _bbox; }

    /**
     * Exact signed area of the snapped triangle in pixel units
     * (positive after the orientation normalization).
     */
    double areaPixels() const { return _areaPixels; }

    /**
     * Scan all pixels whose centre is covered, restricted to
     * @p scissor, emitting fragments in raster order (y-major).
     *
     * Coverage is computed a span at a time into a bitmask by
     * rowCoverage() (scalar or AVX2, bit-identical either way). Each
     * 64-pixel word's covered pixels are interpolated in one
     * interpolateRun() and then emitted, so interpolation runs for
     * exactly the covered pixels and emit() sees them in exactly the
     * order the pixel-by-pixel loop produced.
     *
     * @tparam Emit callable as emit(const Fragment &)
     */
    template <typename Emit>
    void
    rasterize(const Rect &scissor, Emit &&emit) const
    {
        if (_degenerate)
            return;
        Rect r = _bbox.intersect(scissor);
        if (r.empty())
            return;

        Fragment frag;
        uint64_t bits[coverageWords];
        int32_t xs[64];
        float u[64], v[64], lod[64], inv_w[64];
        int32_t width = r.x1 - r.x0;
        for (int32_t y = r.y0; y < r.y1; ++y) {
            frag.y = y;
            for (int32_t cx = 0; cx < width; cx += coverageSpan) {
                int32_t n = width - cx < coverageSpan
                                ? width - cx
                                : coverageSpan;
                rowCoverage(y, r.x0 + cx, n, bits);
                int32_t words = (n + 63) >> 6;
                for (int32_t w = 0; w < words; ++w) {
                    const int32_t x_word = r.x0 + cx + w * 64;
                    int32_t count = 0;
                    for (uint64_t m = bits[w]; m; m &= m - 1)
                        xs[count++] = x_word + std::countr_zero(m);
                    if (count == 0)
                        continue;
                    interpolateRun(y, xs, count, u, v, lod, inv_w);
                    for (int32_t i = 0; i < count; ++i) {
                        frag.x = xs[i];
                        frag.u = u[i];
                        frag.v = v[i];
                        frag.lod = lod[i];
                        frag.invW = inv_w[i];
                        emit(frag);
                    }
                }
            }
        }
    }

    /**
     * Perspective-correct u, v, level of detail and 1/w at the pixel
     * centres (xs[i] + .5, y + .5) for i < n, whether covered or not.
     * A pixel whose 1/w is at most 1e-12 (at or behind the eye
     * plane) gets all four attributes +0.
     * Dispatches to the AVX2 kernel when available; scalar and
     * vector results are bit-identical.
     */
    void interpolateRun(int32_t y, const int32_t *xs, int32_t n,
                        float *u, float *v, float *lod,
                        float *inv_w) const;

    /**
     * Call fn(x, y) for every covered pixel inside @p scissor, by
     * rasterize()'s coverage test and in its order, without
     * interpolating any attribute.
     */
    template <typename Fn>
    void
    forEachCovered(const Rect &scissor, Fn &&fn) const
    {
        if (_degenerate)
            return;
        Rect r = _bbox.intersect(scissor);
        if (r.empty())
            return;

        uint64_t bits[coverageWords];
        int32_t width = r.x1 - r.x0;
        for (int32_t y = r.y0; y < r.y1; ++y) {
            for (int32_t cx = 0; cx < width; cx += coverageSpan) {
                int32_t n = std::min(width - cx, coverageSpan);
                rowCoverage(y, r.x0 + cx, n, bits);
                for (int32_t w = 0; w < (n + 63) >> 6; ++w)
                    for (uint64_t m = bits[w]; m; m &= m - 1)
                        fn(r.x0 + cx + w * 64 + std::countr_zero(m),
                           y);
            }
        }
    }

    /** Number of covered pixels inside @p scissor. */
    int64_t countPixels(const Rect &scissor) const;

  private:
    /** Pixels per rowCoverage() call (bounds the stack bitmask). */
    static constexpr int32_t coverageSpan = 512;

    /** 64-bit words needed for one coverage span. */
    static constexpr int32_t coverageWords = coverageSpan / 64;

    /** Edge function value at pixel centre (x + .5, y + .5). */
    int64_t
    edgeAt(int e, int32_t x, int32_t y) const
    {
        int64_t px = int64_t(x) * subpixelOne + subpixelOne / 2;
        int64_t py = int64_t(y) * subpixelOne + subpixelOne / 2;
        return edgeA[e] * px + edgeB[e] * py + edgeC[e];
    }

    /** Coverage test with the tie-break rule for shared edges. */
    bool
    inside(int e, int64_t value) const
    {
        return value > 0 || (value == 0 && edgeAcceptsZero[e]);
    }

    /**
     * Coverage bits for @p n pixels (at most coverageSpan) starting
     * at pixel centre (x0 + .5, y + .5), written to ceil(n/64)
     * little-endian words of @p bits. Dispatches to the AVX2 kernel
     * when available; scalar and vector results are bit-identical.
     */
    void rowCoverage(int32_t y, int32_t x0, int32_t n,
                     uint64_t *bits) const;

    // Edge functions E(p) = A*px + B*py + C in subpixel units.
    int64_t edgeA[3];
    int64_t edgeB[3];
    int64_t edgeC[3];
    int64_t stepX[3]; ///< edge increment for one pixel step in x
    bool edgeAcceptsZero[3];

    detail::InterpPlanes planes;
    Rect _bbox;
    double _areaPixels = 0.0;
    bool _degenerate = true;
};

} // namespace texdist

#endif // TEXDIST_RASTER_RASTER_HH
