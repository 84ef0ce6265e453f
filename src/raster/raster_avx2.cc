/**
 * @file
 * 4-wide AVX2 kernels for TriangleRaster.
 *
 * rowCoverage: the edge functions are 64-bit integers (28.4 fixed
 * point over the full screen), so four pixels per vector is the AVX2
 * width. Coverage of a lane is the sign test of the OR of its three
 * biased edge values; vmovmskpd extracts the four sign bits in one
 * instruction, and the scalar loop computes exactly the same ORs, so
 * the masks are bit-identical by construction.
 *
 * interpolateRun: four pixels per vector of doubles. Every lane
 * performs interpolateRunScalar()'s IEEE operations in its order:
 * (base + dx*px) + dy*py, 1.0/w, the quotient-rule derivatives,
 * vcvtpd2ps for each double-to-float conversion, and std::max(a, b)
 * as a blend on a < b. A lane whose 1/w is at most 1e-12 is masked
 * to the scalar fallback's values, and std::log2 stays scalar per
 * lane, in a pass of its own after the vector one.
 *
 * Built with -mavx2 -ffp-contract=off and reached only through
 * simd::dispatch().
 */

#include "raster/raster_kernels.hh"

#if defined(__AVX2__) && !defined(TEXDIST_NO_SIMD)

#include <cmath>

#include <immintrin.h>

namespace texdist
{
namespace detail
{

namespace
{

/** The planes broadcast to four lanes, y terms folded per run. */
struct Planes4
{
    __m256d uwBase, uwDx, uwY, uwDy;
    __m256d vwBase, vwDx, vwY, vwDy;
    __m256d wBase, wDx, wY, wDy;
    __m128 texW, texH;

    Planes4(const InterpPlanes &p, double py)
        : uwBase(_mm256_set1_pd(p.uwBase)),
          uwDx(_mm256_set1_pd(p.uwDx)),
          uwY(_mm256_set1_pd(p.uwDy * py)),
          uwDy(_mm256_set1_pd(p.uwDy)),
          vwBase(_mm256_set1_pd(p.vwBase)),
          vwDx(_mm256_set1_pd(p.vwDx)),
          vwY(_mm256_set1_pd(p.vwDy * py)),
          vwDy(_mm256_set1_pd(p.vwDy)),
          wBase(_mm256_set1_pd(p.wBase)), wDx(_mm256_set1_pd(p.wDx)),
          wY(_mm256_set1_pd(p.wDy * py)), wDy(_mm256_set1_pd(p.wDy)),
          texW(_mm_set1_ps(p.texW)), texH(_mm_set1_ps(p.texH))
    {
    }
};

/** float((a*w - b*dw) * inv2), one quotient-rule derivative. */
inline __m128
derivative(__m256d a, __m256d w, __m256d b, __m256d dw, __m256d inv2)
{
    return _mm256_cvtpd_ps(_mm256_mul_pd(
        _mm256_sub_pd(_mm256_mul_pd(a, w), _mm256_mul_pd(b, dw)),
        inv2));
}

/**
 * Four pixels at x4 + .5: u, v and 1/w into their slots, and rho2
 * (the larger squared texel-space derivative) into the lod slots for
 * the scalar log2 pass. A lane whose 1/w is at most 1e-12 gets
 * u = v = 1/w = +0 and rho2 = 1, which that pass turns into the
 * scalar fallback's level of detail: 0.5f * log2(1) = +0.
 */
inline void
interpolate4(const Planes4 &p, __m128i x4, float *u, float *v,
             float *rho2, float *inv_w)
{
    const __m256d px =
        _mm256_add_pd(_mm256_cvtepi32_pd(x4), _mm256_set1_pd(0.5));
    const __m256d cur_uw = _mm256_add_pd(
        _mm256_add_pd(p.uwBase, _mm256_mul_pd(p.uwDx, px)), p.uwY);
    const __m256d cur_vw = _mm256_add_pd(
        _mm256_add_pd(p.vwBase, _mm256_mul_pd(p.vwDx, px)), p.vwY);
    const __m256d cur_w = _mm256_add_pd(
        _mm256_add_pd(p.wBase, _mm256_mul_pd(p.wDx, px)), p.wY);
    // The lane masks narrowed to 32 bits: the low half of each.
    const __m128 dead = _mm256_castps256_ps128(_mm256_permutevar8x32_ps(
        _mm256_castpd_ps(
            _mm256_cmp_pd(cur_w, _mm256_set1_pd(1e-12), _CMP_LE_OQ)),
        _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7)));

    const __m256d inv = _mm256_div_pd(_mm256_set1_pd(1.0), cur_w);
    _mm_storeu_ps(inv_w, _mm_andnot_ps(dead, _mm256_cvtpd_ps(cur_w)));
    _mm_storeu_ps(u, _mm_andnot_ps(dead, _mm256_cvtpd_ps(
                                             _mm256_mul_pd(cur_uw, inv))));
    _mm_storeu_ps(v, _mm_andnot_ps(dead, _mm256_cvtpd_ps(
                                             _mm256_mul_pd(cur_vw, inv))));

    const __m256d inv2 = _mm256_mul_pd(inv, inv);
    const __m128 dudx = derivative(p.uwDx, cur_w, cur_uw, p.wDx, inv2);
    const __m128 dvdx = derivative(p.vwDx, cur_w, cur_vw, p.wDx, inv2);
    const __m128 dudy = derivative(p.uwDy, cur_w, cur_uw, p.wDy, inv2);
    const __m128 dvdy = derivative(p.vwDy, cur_w, cur_vw, p.wDy, inv2);

    const __m128 sx = _mm_mul_ps(dudx, p.texW);
    const __m128 tx = _mm_mul_ps(dvdx, p.texH);
    const __m128 sy = _mm_mul_ps(dudy, p.texW);
    const __m128 ty = _mm_mul_ps(dvdy, p.texH);
    const __m128 a = _mm_add_ps(_mm_mul_ps(sx, sx), _mm_mul_ps(tx, tx));
    const __m128 b = _mm_add_ps(_mm_mul_ps(sy, sy), _mm_mul_ps(ty, ty));
    const __m128 rho = _mm_blendv_ps(a, b, _mm_cmplt_ps(a, b));
    _mm_storeu_ps(rho2, _mm_blendv_ps(rho, _mm_set1_ps(1.0f), dead));
}

} // namespace

bool
rowCoverageAvx2(const RowCoverage &rc, int32_t n, uint64_t *bits)
{
    __m256i e[3], step4[3];
    for (int i = 0; i < 3; ++i) {
        e[i] = _mm256_setr_epi64x(rc.edge[i],
                                  rc.edge[i] + rc.step[i],
                                  rc.edge[i] + 2 * rc.step[i],
                                  rc.edge[i] + 3 * rc.step[i]);
        step4[i] = _mm256_set1_epi64x(4 * rc.step[i]);
    }

    int32_t words = (n + 63) >> 6;
    for (int32_t w = 0; w < words; ++w) {
        uint64_t m = 0;
        int32_t limit = n - w * 64 < 64 ? n - w * 64 : 64;
        for (int32_t j = 0; j < limit; j += 4) {
            __m256i ored =
                _mm256_or_si256(_mm256_or_si256(e[0], e[1]), e[2]);
            // Sign bit set == outside; invert for coverage.
            int outside =
                _mm256_movemask_pd(_mm256_castsi256_pd(ored));
            uint64_t in4 = uint64_t(outside ^ 0xf);
            if (limit - j < 4)
                in4 &= (uint64_t(1) << (limit - j)) - 1;
            m |= in4 << j;
            e[0] = _mm256_add_epi64(e[0], step4[0]);
            e[1] = _mm256_add_epi64(e[1], step4[1]);
            e[2] = _mm256_add_epi64(e[2], step4[2]);
        }
        bits[w] = m;
    }
    return true;
}

bool
interpolateRunAvx2(const InterpPlanes &planes, int32_t y,
                   const int32_t *xs, int32_t n, float *u, float *v,
                   float *lod, float *inv_w)
{
    const Planes4 p(planes, y + 0.5);
    int32_t i = 0;
    for (; i + 4 <= n; i += 4)
        interpolate4(p,
                     _mm_loadu_si128(
                         reinterpret_cast<const __m128i *>(xs + i)),
                     u + i, v + i, lod + i, inv_w + i);
    if (i < n) {
        // Ragged tail: pad the lanes with the last pixel and keep
        // only the real ones.
        int32_t x4[4];
        float u4[4], v4[4], rho4[4], w4[4];
        for (int32_t j = 0; j < 4; ++j)
            x4[j] = xs[i + j < n ? i + j : n - 1];
        interpolate4(
            p, _mm_loadu_si128(reinterpret_cast<const __m128i *>(x4)),
            u4, v4, rho4, w4);
        for (int32_t j = 0; i + j < n; ++j) {
            u[i + j] = u4[j];
            v[i + j] = v4[j];
            lod[i + j] = rho4[j];
            inv_w[i + j] = w4[j];
        }
    }

    // A separate pass, so no vector state lives across the libm
    // calls; no vector log2 is bit-identical to libm's.
    for (i = 0; i < n; ++i)
        lod[i] = lod[i] > 0.0f ? 0.5f * std::log2(lod[i]) : -126.0f;
    return true;
}

} // namespace detail
} // namespace texdist

#else // !__AVX2__ || TEXDIST_NO_SIMD

namespace texdist
{
namespace detail
{

bool
rowCoverageAvx2(const RowCoverage &, int32_t, uint64_t *)
{
    return false; // simd::dispatch() never selects AVX2 here
}

bool
interpolateRunAvx2(const InterpPlanes &, int32_t, const int32_t *,
                   int32_t, float *, float *, float *, float *)
{
    return false;
}

} // namespace detail
} // namespace texdist

#endif
