// Vectorized exp, sigmoid and tanh over float arrays: the activations of
// every LSTM, TreeLSTM and GRU cell, and the exp of softmax and attention.
//
// One exp core serves all three functions:
//   exp(x)     = 2^n * P(r), with n = round(x * log2(e)) and
//                r = x - n * ln2 (ln2 split into two constants). P is a
//                degree-6 polynomial in Horner form, one FMA per
//                coefficient. 2^n is applied as two power-of-two factors,
//                so results fall through the subnormal range to 0 and
//                overflow to +inf.
//   sigmoid(x) = 1 / (1 + exp(-x)).
//   tanh(x)    = sign(x) * (1 - 2 / (exp(2|x|) + 1)) for |x| >= 0.625. Below
//                that the subtraction cancels, and an odd polynomial is used.
//
// Two tiers run the same operations in the same order:
//   AVX2 + FMA   8 lanes, tail through a padded block (also on AVX-512
//                hosts: at cell sizes 16 lanes measured no faster);
//   scalar       std::fma.
// Every result is therefore bitwise identical across tiers, positions and
// array lengths. A row's bits never depend on its batch, its lane or the
// host. The tier is picked per call from the GEMM's dispatch mask
// (DispatchCpuFeatures), so BM_GEMM_KERNEL and GemmForceTierForTest cap it
// too.
//
// Accuracy, pinned in tests/tensor_test.cc against a double reference:
// absolute error <= 2.4e-7 for sigmoid and tanh, and exp relative error
// <= 1.2e-7 for normal results. Special values: tanh(-0) = -0,
// exp(-inf) = 0, exp(+inf) = +inf, sigmoid(-inf) = 0, sigmoid(+inf) = 1,
// tanh(+-inf) = +-1, NaN in gives NaN out.

#ifndef SRC_TENSOR_VEC_MATH_H_
#define SRC_TENSOR_VEC_MATH_H_

#include <cstdint>

namespace batchmaker {

// y[i] = f(x[i]) for i in [0, n). `y` may equal `x` (in place); the arrays
// must not otherwise overlap.
void VecExp(const float* x, float* y, int64_t n);
void VecSigmoid(const float* x, float* y, int64_t n);
void VecTanh(const float* x, float* y, int64_t n);

}  // namespace batchmaker

#endif  // SRC_TENSOR_VEC_MATH_H_
