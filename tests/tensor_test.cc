// Tests for src/tensor: shapes, tensors, GEMM, elementwise and structural
// ops, and the gather/scatter helpers used for batch assembly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <vector>

#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/shape.h"
#include "src/tensor/tensor.h"
#include "src/tensor/vec_math.h"
#include "src/util/rng.h"

namespace batchmaker {
namespace {

// ---------- Shape ----------

TEST(ShapeTest, BasicProperties) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.Rank(), 3);
  EXPECT_EQ(s.Dim(1), 3);
  EXPECT_EQ(s.NumElements(), 24);
}

TEST(ShapeTest, RankZeroHasOneElement) {
  const Shape s{};
  EXPECT_EQ(s.Rank(), 0);
  EXPECT_EQ(s.NumElements(), 1);
}

TEST(ShapeTest, WithDim) {
  const Shape s{2, 3};
  const Shape t = s.WithDim(0, 7);
  EXPECT_EQ(t.Dim(0), 7);
  EXPECT_EQ(t.Dim(1), 3);
  EXPECT_EQ(s.Dim(0), 2);  // original untouched
}

TEST(ShapeTest, RowShapeAndRowElements) {
  const Shape s{5, 3, 2};
  EXPECT_EQ(s.RowShape(), (Shape{3, 2}));
  EXPECT_EQ(s.RowElements(), 6);
}

TEST(ShapeTest, EqualityAndToString) {
  EXPECT_EQ((Shape{1, 2}), (Shape{1, 2}));
  EXPECT_NE((Shape{1, 2}), (Shape{2, 1}));
  EXPECT_EQ((Shape{1, 2}).ToString(), "[1,2]");
}

// ---------- Tensor ----------

TEST(TensorTest, ZerosInitialized) {
  const Tensor t = Tensor::Zeros(Shape{2, 3});
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    EXPECT_EQ(t.f32()[i], 0.0f);
  }
}

TEST(TensorTest, FromVectorAndAt) {
  const Tensor t = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t.At(1, 1), 4.0f);
}

TEST(TensorTest, IntTensor) {
  const Tensor t = Tensor::FromIntVector(Shape{2, 1}, {5, -3});
  EXPECT_EQ(t.dtype(), DType::kI32);
  EXPECT_EQ(t.IntAt(0, 0), 5);
  EXPECT_EQ(t.IntAt(1, 0), -3);
}

TEST(TensorTest, RandomUniformWithinLimit) {
  Rng rng(1);
  const Tensor t = Tensor::RandomUniform(Shape{100}, 0.5f, &rng);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    EXPECT_LE(std::fabs(t.f32()[i]), 0.5f);
  }
}

TEST(TensorTest, ElementsEqualAndAllClose) {
  const Tensor a = Tensor::FromVector(Shape{2}, {1.0f, 2.0f});
  Tensor b = Tensor::FromVector(Shape{2}, {1.0f, 2.0f});
  EXPECT_TRUE(a.ElementsEqual(b));
  b.f32()[0] += 1e-6f;
  EXPECT_FALSE(a.ElementsEqual(b));
  EXPECT_TRUE(a.AllClose(b, 1e-5f));
  EXPECT_FALSE(a.AllClose(b, 1e-8f));
}

TEST(TensorTest, ContentHashSensitivity) {
  Rng rng(1);
  const Tensor a = Tensor::RandomUniform(Shape{8, 8}, 1.0f, &rng);
  Tensor b = a;
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  b.f32()[3] += 0.125f;
  EXPECT_NE(a.ContentHash(), b.ContentHash());
  // Shape participates in the hash.
  const Tensor c = Tensor::Zeros(Shape{4});
  const Tensor d = Tensor::Zeros(Shape{2, 2});
  EXPECT_NE(c.ContentHash(), d.ContentHash());
}

// ---------- GEMM ----------

TEST(GemmTest, SmallKnownProduct) {
  const Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::FromVector(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(GemmTest, IdentityIsNoop) {
  Rng rng(2);
  const Tensor a = Tensor::RandomUniform(Shape{5, 5}, 1.0f, &rng);
  Tensor eye = Tensor::Zeros(Shape{5, 5});
  for (int i = 0; i < 5; ++i) {
    eye.At(i, i) = 1.0f;
  }
  EXPECT_TRUE(MatMul(a, eye).AllClose(a));
}

TEST(GemmTest, MatchesNaiveReferenceAcrossSizes) {
  Rng rng(3);
  for (const auto& [m, k, n] : {std::tuple<int, int, int>{1, 1, 1},
                               {3, 5, 7},
                               {64, 64, 64},
                               {65, 300, 17},
                               {128, 257, 40}}) {
    const Tensor a = Tensor::RandomUniform(Shape{m, k}, 1.0f, &rng);
    const Tensor b = Tensor::RandomUniform(Shape{k, n}, 1.0f, &rng);
    const Tensor c = MatMul(a, b);
    // Naive reference.
    for (int i = 0; i < m; i += std::max(1, m / 5)) {
      for (int j = 0; j < n; j += std::max(1, n / 5)) {
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) {
          acc += a.At(i, p) * b.At(p, j);
        }
        EXPECT_NEAR(c.At(i, j), acc, 1e-3f) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(GemmTest, AccumulateAddsIntoC) {
  const Tensor a = Tensor::FromVector(Shape{1, 2}, {1, 1});
  const Tensor b = Tensor::FromVector(Shape{2, 1}, {2, 3});
  Tensor c = Tensor::FromVector(Shape{1, 1}, {10});
  GemmAccumulateRaw(a.f32(), b.f32(), c.f32(), 1, 2, 1);
  EXPECT_FLOAT_EQ(c.At(0, 0), 15.0f);
}

// ---------- Elementwise ops ----------

TEST(OpsTest, AddSubMul) {
  const Tensor a = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor b = Tensor::FromVector(Shape{2, 2}, {5, 6, 7, 8});
  EXPECT_FLOAT_EQ(Add(a, b).At(1, 1), 12.0f);
  EXPECT_FLOAT_EQ(Sub(b, a).At(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).At(1, 0), 21.0f);
}

TEST(OpsTest, AddBiasBroadcasts) {
  const Tensor a = Tensor::FromVector(Shape{2, 3}, {0, 0, 0, 1, 1, 1});
  const Tensor bias = Tensor::FromVector(Shape{3}, {10, 20, 30});
  const Tensor out = AddBias(a, bias);
  EXPECT_FLOAT_EQ(out.At(0, 2), 30.0f);
  EXPECT_FLOAT_EQ(out.At(1, 0), 11.0f);
}

TEST(OpsTest, SigmoidKnownValues) {
  const Tensor a = Tensor::FromVector(Shape{1, 3}, {0.0f, 100.0f, -100.0f});
  const Tensor out = Sigmoid(a);
  EXPECT_NEAR(out.At(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(out.At(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(out.At(0, 2), 0.0f, 1e-6f);
}

TEST(OpsTest, TanhAndRelu) {
  const Tensor a = Tensor::FromVector(Shape{1, 2}, {-1.0f, 2.0f});
  EXPECT_NEAR(Tanh(a).At(0, 0), std::tanh(-1.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Relu(a).At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(a).At(0, 1), 2.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(4);
  const Tensor a = Tensor::RandomUniform(Shape{3, 10}, 5.0f, &rng);
  const Tensor out = Softmax(a);
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 10; ++c) {
      EXPECT_GE(out.At(r, c), 0.0f);
      sum += out.At(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, SoftmaxStableForLargeLogits) {
  const Tensor a = Tensor::FromVector(Shape{1, 2}, {1000.0f, 1001.0f});
  const Tensor out = Softmax(a);
  EXPECT_FALSE(std::isnan(out.At(0, 0)));
  EXPECT_GT(out.At(0, 1), out.At(0, 0));
}

// ---------- Vectorized activations (src/tensor/vec_math.h) ----------

using VecFn = void (*)(const float*, float*, int64_t);

struct NamedVecFn {
  const char* name;
  VecFn fn;
};

const NamedVecFn kVecFns[] = {{"exp", VecExp}, {"sigmoid", VecSigmoid}, {"tanh", VecTanh}};

// Every tier a host can run; "avx2" and "native" clamp to what cpuid reports.
const char* const kVecTiers[] = {"scalar", "avx2", "native"};

// Restores the tier cap the process started with (BM_GEMM_KERNEL or native),
// so the tests after these still run under the cap they were launched with.
struct VecTierGuard {
  ~VecTierGuard() { GemmForceTierForTest(std::getenv("BM_GEMM_KERNEL")); }
};

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Float bit patterns from 0 to 100 at a prime stride, each with both signs:
// about 4.4 million inputs covering every binade in [-100, 100].
std::vector<float> SweepInputs() {
  std::vector<float> xs;
  const uint32_t top = Bits(100.0f);
  for (uint32_t u = 0; u <= top; u += 509) {
    xs.push_back(FromBits(u));
    xs.push_back(FromBits(u | 0x80000000u));
  }
  xs.push_back(100.0f);
  xs.push_back(-100.0f);
  return xs;
}

TEST(VecMathTest, TiersAreBitwiseIdentical) {
  VecTierGuard guard;
  const std::vector<float> xs = SweepInputs();
  const int64_t n = static_cast<int64_t>(xs.size());
  for (const NamedVecFn& f : kVecFns) {
    SCOPED_TRACE(f.name);
    std::vector<float> reference;
    for (const char* tier : kVecTiers) {
      SCOPED_TRACE(tier);
      GemmForceTierForTest(tier);
      std::vector<float> got(xs.size());
      f.fn(xs.data(), got.data(), n);
      if (reference.empty()) {
        reference = got;
        continue;
      }
      int64_t mismatches = 0;
      for (int64_t i = 0; i < n; ++i) {
        if (Bits(got[i]) != Bits(reference[i]) && mismatches++ == 0) {
          ADD_FAILURE() << "x=" << xs[i] << " got " << got[i] << " scalar " << reference[i];
        }
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
}

// A value's bits do not depend on the array it sits in: every length from 1
// to 40 at every start offset (vector body, padded tail, scalar)
// reproduces the one-element result, in place too.
TEST(VecMathTest, ResultsIndependentOfPositionAndLength) {
  VecTierGuard guard;
  Rng rng(11);
  std::vector<float> xs(56);
  for (float& x : xs) {
    x = static_cast<float>(rng.NextUniform(-10.0, 10.0));
  }
  for (const char* tier : kVecTiers) {
    SCOPED_TRACE(tier);
    GemmForceTierForTest(tier);
    for (const NamedVecFn& f : kVecFns) {
      SCOPED_TRACE(f.name);
      std::vector<float> single(xs.size());
      for (size_t i = 0; i < xs.size(); ++i) {
        f.fn(&xs[i], &single[i], 1);
      }
      for (int64_t len = 1; len <= 40; ++len) {
        for (int64_t off = 0; off + len <= static_cast<int64_t>(xs.size()); ++off) {
          std::vector<float> out(static_cast<size_t>(len));
          f.fn(xs.data() + off, out.data(), len);
          for (int64_t j = 0; j < len; ++j) {
            ASSERT_EQ(Bits(out[j]), Bits(single[off + j])) << "len " << len << " off " << off;
          }
        }
      }
      std::vector<float> in_place = xs;
      f.fn(in_place.data(), in_place.data(), static_cast<int64_t>(in_place.size()));
      EXPECT_EQ(0, std::memcmp(in_place.data(), single.data(), single.size() * sizeof(float)));
    }
  }
}

TEST(VecMathTest, AccurateAgainstDoubleReference) {
  const std::vector<float> xs = SweepInputs();
  const int64_t n = static_cast<int64_t>(xs.size());
  std::vector<float> sig(xs.size()), th(xs.size()), ex(xs.size());
  VecSigmoid(xs.data(), sig.data(), n);
  VecTanh(xs.data(), th.data(), n);
  VecExp(xs.data(), ex.data(), n);
  double sig_err = 0.0, tanh_err = 0.0, exp_rel_err = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double x = xs[i];
    sig_err = std::max(sig_err, std::abs(sig[i] - 1.0 / (1.0 + std::exp(-x))));
    tanh_err = std::max(tanh_err, std::abs(th[i] - std::tanh(x)));
    const double e = std::exp(x);
    if (e >= std::numeric_limits<float>::min() && e <= std::numeric_limits<float>::max()) {
      exp_rel_err = std::max(exp_rel_err, std::abs(ex[i] - e) / e);
    }
  }
  std::cout << "sigmoid abs err " << sig_err << ", tanh abs err " << tanh_err
            << ", exp rel err " << exp_rel_err << "\n";
  EXPECT_LE(sig_err, 2.4e-7);
  EXPECT_LE(tanh_err, 2.4e-7);
  EXPECT_LE(exp_rel_err, 1.2e-7);
}

TEST(VecMathTest, SpecialValues) {
  VecTierGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> xs = {0.0f, -0.0f, inf, -inf, nan, 89.0f, -89.0f, 88.8f,
                                 -104.0f, -200.0f, 1e30f, -1e30f, 10.0f, -10.0f};
  for (const char* tier : kVecTiers) {
    SCOPED_TRACE(tier);
    GemmForceTierForTest(tier);
    std::vector<float> ex(xs.size()), sig(xs.size()), th(xs.size());
    const int64_t n = static_cast<int64_t>(xs.size());
    VecExp(xs.data(), ex.data(), n);
    VecSigmoid(xs.data(), sig.data(), n);
    VecTanh(xs.data(), th.data(), n);
    // ±0
    EXPECT_EQ(ex[0], 1.0f);
    EXPECT_EQ(ex[1], 1.0f);
    EXPECT_EQ(sig[0], 0.5f);
    EXPECT_EQ(sig[1], 0.5f);
    EXPECT_EQ(Bits(th[0]), Bits(0.0f));
    EXPECT_EQ(Bits(th[1]), Bits(-0.0f));
    // ±inf reach the exact limits.
    EXPECT_EQ(ex[2], inf);
    EXPECT_EQ(Bits(ex[3]), Bits(0.0f));
    EXPECT_EQ(sig[2], 1.0f);
    EXPECT_EQ(Bits(sig[3]), Bits(0.0f));
    EXPECT_EQ(th[2], 1.0f);
    EXPECT_EQ(th[3], -1.0f);
    // NaN stays NaN.
    EXPECT_TRUE(std::isnan(ex[4]));
    EXPECT_TRUE(std::isnan(sig[4]));
    EXPECT_TRUE(std::isnan(th[4]));
    // |x| > 88: exp overflows to +inf, then underflows gradually to 0.
    EXPECT_EQ(ex[5], inf);
    EXPECT_GT(ex[6], 0.0f);
    EXPECT_NEAR(ex[6], std::exp(-89.0), 1e-41);
    EXPECT_EQ(ex[7], inf);
    EXPECT_EQ(ex[8], 0.0f);
    EXPECT_EQ(ex[9], 0.0f);
    EXPECT_EQ(ex[10], inf);
    EXPECT_EQ(ex[11], 0.0f);
    EXPECT_EQ(sig[5], 1.0f);
    EXPECT_GE(sig[6], 0.0f);
    EXPECT_LT(sig[6], 1e-38f);
    EXPECT_EQ(sig[10], 1.0f);
    EXPECT_EQ(sig[11], 0.0f);
    EXPECT_EQ(th[5], 1.0f);
    EXPECT_EQ(th[6], -1.0f);
    EXPECT_EQ(th[10], 1.0f);
    EXPECT_EQ(th[11], -1.0f);
    EXPECT_EQ(th[12], 1.0f);
    EXPECT_EQ(th[13], -1.0f);
  }
}

// The tensor ops run the same core: Exp and Softmax agree with VecExp bit
// for bit, and Softmax keeps its sequential row sum.
TEST(VecMathTest, TensorOpsUseTheVectorCore) {
  Rng rng(12);
  const Tensor a = Tensor::RandomUniform(Shape{3, 37}, 6.0f, &rng);
  std::vector<float> expected(static_cast<size_t>(a.NumElements()));
  VecExp(a.f32(), expected.data(), a.NumElements());
  EXPECT_EQ(0, std::memcmp(Exp(a).f32(), expected.data(), expected.size() * sizeof(float)));

  const Tensor sm = Softmax(a);
  for (int64_t r = 0; r < 3; ++r) {
    const float* row = a.f32() + r * 37;
    const float max_val = *std::max_element(row, row + 37);
    float shifted[37];
    for (int c = 0; c < 37; ++c) {
      shifted[c] = row[c] - max_val;
    }
    VecExp(shifted, shifted, 37);
    float sum = 0.0f;
    for (int c = 0; c < 37; ++c) {
      sum += shifted[c];
    }
    for (int c = 0; c < 37; ++c) {
      EXPECT_EQ(Bits(sm.At(r, c)), Bits(shifted[c] / sum));
    }
  }
}

// ---------- Structural ops ----------

TEST(OpsTest, ConcatCols) {
  const Tensor a = Tensor::FromVector(Shape{2, 1}, {1, 2});
  const Tensor b = Tensor::FromVector(Shape{2, 2}, {3, 4, 5, 6});
  const Tensor out = ConcatCols({&a, &b});
  EXPECT_EQ(out.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(out.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 5.0f);
}

TEST(OpsTest, SliceCols) {
  const Tensor a = Tensor::FromVector(Shape{2, 4}, {0, 1, 2, 3, 4, 5, 6, 7});
  const Tensor out = SliceCols(a, 1, 3);
  EXPECT_EQ(out.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(out.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 6.0f);
}

TEST(OpsTest, SliceThenConcatRoundTrips) {
  Rng rng(5);
  const Tensor a = Tensor::RandomUniform(Shape{3, 6}, 1.0f, &rng);
  const Tensor left = SliceCols(a, 0, 2);
  const Tensor right = SliceCols(a, 2, 6);
  EXPECT_TRUE(ConcatCols({&left, &right}).ElementsEqual(a));
}

TEST(OpsTest, EmbeddingLookup) {
  const Tensor table = Tensor::FromVector(Shape{3, 2}, {0, 1, 10, 11, 20, 21});
  const Tensor ids = Tensor::FromIntVector(Shape{2, 1}, {2, 0});
  const Tensor out = EmbeddingLookup(table, ids);
  EXPECT_EQ(out.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(out.At(0, 0), 20.0f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 1.0f);
}

TEST(OpsTest, ArgmaxRows) {
  const Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 9, 2, 8, 3, 4});
  const Tensor out = ArgmaxRows(a);
  EXPECT_EQ(out.dtype(), DType::kI32);
  EXPECT_EQ(out.IntAt(0, 0), 1);
  EXPECT_EQ(out.IntAt(1, 0), 0);
}

TEST(OpsTest, ArgmaxTiesPickFirst) {
  const Tensor a = Tensor::FromVector(Shape{1, 3}, {5, 5, 5});
  EXPECT_EQ(ArgmaxRows(a).IntAt(0, 0), 0);
}

// ---------- Gather / scatter ----------

TEST(OpsTest, GatherRowsFromSingleRowTensors) {
  const Tensor a = Tensor::FromVector(Shape{1, 2}, {1, 2});
  const Tensor b = Tensor::FromVector(Shape{1, 2}, {3, 4});
  const Tensor batch = GatherRows({&a, &b}, {0, 0});
  EXPECT_EQ(batch.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(batch.At(1, 0), 3.0f);
}

TEST(OpsTest, GatherRowsSelectsRows) {
  const Tensor a = Tensor::FromVector(Shape{3, 1}, {10, 20, 30});
  const Tensor batch = GatherRows({&a, &a, &a}, {2, 0, 1});
  EXPECT_FLOAT_EQ(batch.At(0, 0), 30.0f);
  EXPECT_FLOAT_EQ(batch.At(1, 0), 10.0f);
  EXPECT_FLOAT_EQ(batch.At(2, 0), 20.0f);
}

TEST(OpsTest, GatherRowsIntDtype) {
  const Tensor a = Tensor::FromIntVector(Shape{1, 1}, {7});
  const Tensor b = Tensor::FromIntVector(Shape{1, 1}, {9});
  const Tensor batch = GatherRows({&a, &b}, {0, 0});
  EXPECT_EQ(batch.dtype(), DType::kI32);
  EXPECT_EQ(batch.IntAt(1, 0), 9);
}

TEST(OpsTest, ScatterRowWritesDestination) {
  const Tensor batch = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  Tensor dst = Tensor::Zeros(Shape{1, 2});
  ScatterRow(batch, 1, &dst, 0);
  EXPECT_FLOAT_EQ(dst.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(dst.At(0, 1), 4.0f);
}

TEST(OpsTest, ExtractRowShape) {
  const Tensor batch = Tensor::FromVector(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor row = ExtractRow(batch, 2);
  EXPECT_EQ(row.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(row.At(0, 1), 6.0f);
}

TEST(OpsTest, GatherScatterRoundTrip) {
  Rng rng(6);
  std::vector<Tensor> rows;
  std::vector<const Tensor*> ptrs;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
  }
  for (const Tensor& t : rows) {
    ptrs.push_back(&t);
  }
  const Tensor batch = GatherRows(ptrs, {0, 0, 0, 0, 0});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ExtractRow(batch, i).ElementsEqual(rows[static_cast<size_t>(i)]));
  }
}

}  // namespace
}  // namespace batchmaker
