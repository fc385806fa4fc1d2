/**
 * @file
 * AVX2 instantiations of the native kernels. This is the ONLY TU
 * compiled with -mavx2 (see src/physics/CMakeLists.txt); callers
 * reach it through avx2KernelBackend() and only after the runtime
 * __builtin_cpu_supports("avx2") check in kernel_backend.cc, so no
 * AVX2 instruction ever executes on a host without the feature.
 */

#include "native_impl.hh"

#if !defined(__AVX2__)
#error "native_avx2.cc must be compiled with -mavx2"
#endif

namespace parallax
{

/**
 * fp32 ops policy for the fused contact sweep (pgsContactSweep).
 * AVX2 has a native fp32 gather but no scatter; stores are emulated
 * per lane off a movemask-derived bitmask. 8 fp32 lanes per pack.
 */
struct FOpsAvx2 {
    static constexpr int W = 8;
    using R = __m256;
    using I = __m256i;
    using M = int; // movemask bits, lane i -> bit i

    static I idx(const std::int32_t *p)
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p));
    }
    static M valid(I i, std::int32_t dummy3)
    {
        const __m256i eq =
            _mm256_cmpeq_epi32(i, _mm256_set1_epi32(dummy3));
        return (~_mm256_movemask_ps(_mm256_castsi256_ps(eq))) &
               0xff;
    }
    static R gather(const float *base, I i)
    {
        // Masked form, all lanes on: same instruction, no undefined
        // source for gcc 12 to report (GCC PR 105593).
        return _mm256_mask_i32gather_ps(
            _mm256_setzero_ps(), base, i,
            _mm256_castsi256_ps(_mm256_set1_epi32(-1)), 4);
    }
    static void scatter(float *base, I i, M m, R v)
    {
        alignas(32) std::int32_t ix[8];
        alignas(32) float vx[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(ix), i);
        _mm256_store_ps(vx, v);
        for (int l = 0; l < 8; ++l)
            if (m & (1 << l))
                base[ix[l]] = vx[l];
    }
    static R load(const float *p) { return _mm256_loadu_ps(p); }
    static void store(float *p, R v) { _mm256_storeu_ps(p, v); }
    static R zero() { return _mm256_setzero_ps(); }
    static R add(R a, R b) { return _mm256_add_ps(a, b); }
    static R sub(R a, R b) { return _mm256_sub_ps(a, b); }
    static R mul(R a, R b) { return _mm256_mul_ps(a, b); }
    static R min(R a, R b) { return _mm256_min_ps(a, b); }
    static R max(R a, R b) { return _mm256_max_ps(a, b); }
    static R fmadd(R a, R b, R c)
    {
        return _mm256_fmadd_ps(a, b, c);
    }
    static R fnmadd(R a, R b, R c)
    {
        return _mm256_fnmadd_ps(a, b, c);
    }
};

const KernelBackend *
avx2KernelBackend(int variant)
{
    static const NativeBackend<PackAvx2, FOpsAvx2> w4("avx2x4");
    static const NativeBackend<PackX2<PackAvx2>, FOpsAvx2> w8(
        "avx2x8");
    return variant == 0 ? static_cast<const KernelBackend *>(&w4)
                        : static_cast<const KernelBackend *>(&w8);
}

} // namespace parallax
