/**
 * @file
 * Internal interface between TriangleRaster and its kernels.
 *
 * rowCoverage: the AVX2 kernel is bit-identical to the scalar loop:
 * both evaluate the same bias-adjusted integer edge functions, so the
 * coverage masks — and therefore the emitted fragments and the
 * shared-edge tie decisions — cannot differ. There is no SSE2 tier
 * for coverage: SSE2 lacks a signed 64-bit compare, and the edge
 * values genuinely need 64 bits, so below AVX2 the scalar loop is
 * the fast path.
 *
 * interpolateRun: the scalar reference (raster_kernels.cc) and the
 * AVX2 kernel perform the same IEEE operations in the same order,
 * and both TUs build with -ffp-contract=off, so the attributes are
 * bit-identical. There is no SSE2 tier here either, as for coverage.
 */

#ifndef TEXDIST_RASTER_RASTER_KERNELS_HH
#define TEXDIST_RASTER_RASTER_KERNELS_HH

#include <cstdint>

namespace texdist
{
namespace detail
{

/**
 * One row's edge state, bias-adjusted so that a pixel is covered
 * exactly when all three values are non-negative (the tie-break rule
 * is folded into the bias): edge[e] is E_e at the first pixel centre
 * minus (acceptsZero ? 0 : 1).
 */
struct RowCoverage
{
    int64_t edge[3];
    int64_t step[3]; ///< per-pixel x increment of each edge value
};

/**
 * Fill ceil(n/64) little-endian words of coverage bits for n pixels.
 * False when this build has no AVX2 kernel (caller runs the scalar
 * loop).
 */
bool rowCoverageAvx2(const RowCoverage &rc, int32_t n,
                     uint64_t *bits);

/**
 * Interpolation planes f(x, y) = base + x*dx + y*dy at pixel
 * centres, for u/w, v/w and 1/w, and the level-0 texture size that
 * scales the level of detail to texels.
 */
struct InterpPlanes
{
    double uwBase, uwDx, uwDy;
    double vwBase, vwDx, vwDy;
    double wBase, wDx, wDy;
    float texW, texH;
};

/**
 * Perspective-correct u, v, level of detail and 1/w at the pixel
 * centres (xs[i] + .5, y + .5) for i < n. A pixel whose 1/w is at
 * most 1e-12 gets all four attributes +0. The scalar reference.
 */
void interpolateRunScalar(const InterpPlanes &p, int32_t y,
                          const int32_t *xs, int32_t n, float *u,
                          float *v, float *lod, float *inv_w);

/**
 * interpolateRunScalar() four pixels at a time. False when this
 * build has no AVX2 kernel (caller runs the scalar loop).
 */
bool interpolateRunAvx2(const InterpPlanes &p, int32_t y,
                        const int32_t *xs, int32_t n, float *u,
                        float *v, float *lod, float *inv_w);

} // namespace detail
} // namespace texdist

#endif // TEXDIST_RASTER_RASTER_KERNELS_HH
