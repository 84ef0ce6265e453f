/**
 * @file
 * Scalar reference for TriangleRaster::interpolateRun. This TU is
 * pinned to -ffp-contract=off like the AVX2 kernel, so a -march with
 * FMA cannot contract the plane evaluation or the quotient rule and
 * make the reference diverge from the vector kernel.
 */

#include "raster/raster_kernels.hh"

#include <algorithm>
#include <cmath>

namespace texdist
{
namespace detail
{

void
interpolateRunScalar(const InterpPlanes &p, int32_t y,
                     const int32_t *xs, int32_t n, float *u, float *v,
                     float *lod, float *inv_w)
{
    const double py = y + 0.5;
    for (int32_t i = 0; i < n; ++i) {
        const double px = xs[i] + 0.5;
        const double cur_uw = p.uwBase + p.uwDx * px + p.uwDy * py;
        const double cur_vw = p.vwBase + p.vwDx * px + p.vwDy * py;
        const double cur_w = p.wBase + p.wDx * px + p.wDy * py;

        if (cur_w <= 1e-12) {
            // Should not happen for properly clipped input; degrade
            // gracefully rather than emit NaNs.
            u[i] = 0.0f;
            v[i] = 0.0f;
            lod[i] = 0.0f;
            inv_w[i] = 0.0f;
            continue;
        }

        inv_w[i] = float(cur_w);
        const double inv = 1.0 / cur_w;
        u[i] = float(cur_uw * inv);
        v[i] = float(cur_vw * inv);

        // Analytic screen-space derivatives of u and v via the
        // quotient rule: d(U/W) = (U' W - U W') / W^2.
        const double inv2 = inv * inv;
        const float dudx = float((p.uwDx * cur_w - cur_uw * p.wDx) * inv2);
        const float dvdx = float((p.vwDx * cur_w - cur_vw * p.wDx) * inv2);
        const float dudy = float((p.uwDy * cur_w - cur_uw * p.wDy) * inv2);
        const float dvdy = float((p.vwDy * cur_w - cur_vw * p.wDy) * inv2);

        const float sx = dudx * p.texW;
        const float tx = dvdx * p.texH;
        const float sy = dudy * p.texW;
        const float ty = dvdy * p.texH;
        const float rho2 = std::max(sx * sx + tx * tx, sy * sy + ty * ty);
        lod[i] = rho2 > 0.0f ? 0.5f * std::log2(rho2) : -126.0f;
    }
}

} // namespace detail
} // namespace texdist
