/**
 * @file
 * Runtime SIMD kernel dispatch — the single point deciding which
 * vector implementation of the hot loops (trilinear address
 * generation, rasterizer coverage) runs on this host.
 *
 * Policy: every SIMD kernel in the tree is *bit-identical* to the
 * scalar reference path — same texel addresses, same fill-rule tie
 * decisions — so the choice of kernel can never change a digest, a
 * checkpoint byte or a result CSV. That makes the kernel a pure
 * host-side throughput knob, like `--jobs`: it is not part of
 * MachineConfig::describe() and never serialized. The parity tests
 * enforce the bit-identity claim: per kernel
 * (tests/texture/sampler_simd_test.cc,
 * tests/raster/raster_simd_test.cc) and per whole-machine frame
 * digest (SequenceSimd in tests/core/sequence_test.cc).
 *
 * Tiers:
 *  - Scalar: the reference implementation, always available. The
 *    TEXDIST_NO_SIMD CMake option pins dispatch() here at compile
 *    time.
 *  - SSE2: x86-64 baseline, no runtime feature test needed.
 *  - AVX2: selected at runtime via cpuid when the host supports it.
 */

#ifndef TEXDIST_SIM_SIMD_HH
#define TEXDIST_SIM_SIMD_HH

#include <cstdint>

namespace texdist
{
namespace simd
{

/** Available kernel tiers, in increasing preference order. */
enum class Kernel : uint8_t
{
    Scalar = 0, ///< reference implementation
    SSE2 = 1,   ///< x86-64 baseline vectors
    AVX2 = 2,   ///< 8-wide, gathers; runtime-detected
};

const char *to_string(Kernel kernel);

/**
 * True when @p kernel is compiled in and the host can execute it.
 * Scalar is always supported; SSE2/AVX2 are false on non-x86 builds
 * and under TEXDIST_NO_SIMD.
 */
bool kernelSupported(Kernel kernel);

/** The best supported tier on this host (cached after first call). */
Kernel bestSupported();

/**
 * The kernel the hot loops should use right now: the forced kernel
 * if one is set, otherwise bestSupported(). This is the *single*
 * dispatch point — kernels must not make their own cpuid decisions.
 */
Kernel dispatch();

/**
 * Pin dispatch() to @p kernel — for parity tests and benchmarks that
 * must compare tiers on one host. Returns false (and changes
 * nothing) when the kernel is not supported here.
 */
bool forceKernel(Kernel kernel);

/** Undo forceKernel(); dispatch() returns bestSupported() again. */
void clearForcedKernel();

} // namespace simd
} // namespace texdist

#endif // TEXDIST_SIM_SIMD_HH
