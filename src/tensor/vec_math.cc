#include "src/tensor/vec_math.h"

#include <cmath>
#include <cstring>

#include "src/tensor/gemm.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BM_VEC_X86 1
#include <immintrin.h>
#endif

// Bitwise identity across tiers needs every a*b+c to round the same way in
// each of them. The FMAs below are explicit; this file is compiled with
// -ffp-contract=off (src/tensor/CMakeLists.txt) so the compiler does not
// fuse the remaining multiply-adds in the tiers where FMA is enabled.

namespace batchmaker {

namespace {

// Inputs are clamped to [kExpLo, kExpHi]; exp(104) overflows to +inf and
// exp(-104) rounds to 0, so the clamp only keeps n in the range the scale
// can encode, and NaN passes through it.
constexpr float kExpLo = -104.0f;
constexpr float kExpHi = 104.0f;
constexpr float kLog2e = 1.44269504088896341f;
// fma(x, log2e, 1.5 * 2^23) rounds x*log2e to the nearest integer n, which
// then sits in the low mantissa bits: bits(t) - bits(magic) == n.
constexpr float kRoundMagic = 12582912.0f;
constexpr int32_t kRoundMagicBits = 0x4B400000;
// ln2 = kLn2Hi + kLn2Lo; kLn2Hi has 9 significant bits, so n*kLn2Hi is exact.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// exp(r) on |r| <= ln2/2, Chebyshev fit of degree 6, highest power first.
// Relative error of the polynomial itself: 2.0e-8.
constexpr float kExpPoly[7] = {0.00139411085f, 0.00837512594f, 0.0416663513f, 0.166664153f,
                               0.5f,           1.0f,           1.0f};
// tanh(a) = a + a * z * P(z), z = a^2, on a < kTanhPolyMax (Cephes tanhf).
constexpr float kTanhPolyMax = 0.625f;
constexpr float kTanhPoly[5] = {-5.70498872745e-3f, 2.06390887954e-2f, -5.37397155531e-2f,
                                1.33314422036e-1f, -3.33332819422e-1f};
constexpr uint32_t kSignBit = 0x80000000u;

inline uint32_t ToBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

inline float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

enum class Fn { kExp, kSigmoid, kTanh };

// ---- scalar tier: the reference the vector tiers reproduce lane by lane.

inline float Pow2Scalar(int32_t k) { return FromBits(static_cast<uint32_t>(k + 127) << 23); }

float ExpScalar(float x) {
  x = kExpLo > x ? kExpLo : x;  // max(lo, x) and min(hi, x) with NaN kept,
  x = kExpHi < x ? kExpHi : x;  // as MAXPS/MINPS do with x second
  const float t = std::fma(x, kLog2e, kRoundMagic);
  const float n = t - kRoundMagic;
  float r = std::fma(n, -kLn2Hi, x);
  r = std::fma(n, -kLn2Lo, r);
  float p = kExpPoly[0];
  for (int k = 1; k < 7; ++k) {
    p = std::fma(p, r, kExpPoly[k]);
  }
  const int32_t ni = static_cast<int32_t>(ToBits(t) - static_cast<uint32_t>(kRoundMagicBits));
  const int32_t n1 = ni >> 1;
  return p * Pow2Scalar(n1) * Pow2Scalar(ni - n1);
}

template <Fn F>
float ApplyScalar(float x) {
  if constexpr (F == Fn::kExp) {
    return ExpScalar(x);
  } else if constexpr (F == Fn::kSigmoid) {
    return 1.0f / (1.0f + ExpScalar(-x));
  } else {
    const float a = FromBits(ToBits(x) & ~kSignBit);
    float y;
    if (a < kTanhPolyMax) {
      const float z = a * a;
      float p = kTanhPoly[0];
      for (int k = 1; k < 5; ++k) {
        p = std::fma(p, z, kTanhPoly[k]);
      }
      y = std::fma(p * z, a, a);
    } else {
      y = 1.0f - 2.0f / (ExpScalar(a + a) + 1.0f);
    }
    return FromBits(ToBits(y) | (ToBits(x) & kSignBit));
  }
}

template <Fn F>
void MapScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] = ApplyScalar<F>(x[i]);
  }
}

#if BM_VEC_X86

// ---- AVX2 + FMA tier: 8 lanes.

__attribute__((target("avx2,fma"))) inline __m256 Pow2x8(__m256i k) {
  return _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(k, _mm256_set1_epi32(127)), 23));
}

__attribute__((target("avx2,fma"))) inline __m256 Exp8(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(kExpHi), _mm256_max_ps(_mm256_set1_ps(kExpLo), x));
  const __m256 t = _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2e), _mm256_set1_ps(kRoundMagic));
  const __m256 n = _mm256_sub_ps(t, _mm256_set1_ps(kRoundMagic));
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), x);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpPoly[0]);
  for (int k = 1; k < 7; ++k) {
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpPoly[k]));
  }
  const __m256i ni = _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_set1_epi32(kRoundMagicBits));
  const __m256i n1 = _mm256_srai_epi32(ni, 1);
  return _mm256_mul_ps(_mm256_mul_ps(p, Pow2x8(n1)), Pow2x8(_mm256_sub_epi32(ni, n1)));
}

template <Fn F>
__attribute__((target("avx2,fma"))) inline __m256 Apply8(__m256 x) {
  if constexpr (F == Fn::kExp) {
    return Exp8(x);
  }
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign = _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int32_t>(kSignBit)));
  if constexpr (F == Fn::kSigmoid) {
    return _mm256_div_ps(one, _mm256_add_ps(one, Exp8(_mm256_xor_ps(x, sign))));
  } else {
    const __m256 a = _mm256_andnot_ps(sign, x);
    const __m256 z = _mm256_mul_ps(a, a);
    __m256 p = _mm256_set1_ps(kTanhPoly[0]);
    for (int k = 1; k < 5; ++k) {
      p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhPoly[k]));
    }
    const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(p, z), a, a);
    const __m256 e = Exp8(_mm256_add_ps(a, a));
    const __m256 big =
        _mm256_sub_ps(one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
    const __m256 use_small = _mm256_cmp_ps(a, _mm256_set1_ps(kTanhPolyMax), _CMP_LT_OQ);
    const __m256 y = _mm256_blendv_ps(big, small, use_small);
    return _mm256_or_ps(y, _mm256_and_ps(x, sign));
  }
}

template <Fn F>
__attribute__((target("avx2,fma"))) void Map8(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, Apply8<F>(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const size_t bytes = static_cast<size_t>(n - i) * sizeof(float);
    alignas(32) float block[8] = {};
    std::memcpy(block, x + i, bytes);
    _mm256_store_ps(block, Apply8<F>(_mm256_load_ps(block)));
    std::memcpy(y + i, block, bytes);
  }
}

#endif  // BM_VEC_X86

template <Fn F>
void Map(const float* x, float* y, int64_t n) {
#if BM_VEC_X86
  if (DispatchCpuFeatures() & kCpuAvx2Fma) {
    Map8<F>(x, y, n);
    return;
  }
#endif
  MapScalar<F>(x, y, n);
}

}  // namespace

void VecExp(const float* x, float* y, int64_t n) { Map<Fn::kExp>(x, y, n); }

void VecSigmoid(const float* x, float* y, int64_t n) { Map<Fn::kSigmoid>(x, y, n); }

void VecTanh(const float* x, float* y, int64_t n) { Map<Fn::kTanh>(x, y, n); }

}  // namespace batchmaker
