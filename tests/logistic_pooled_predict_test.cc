// The pooled standardize and scoring paths of LogisticRegression against
// the serial reference: Standardizer::Transform, then Matrix::RowDot and
// Sigmoid. Compared bitwise at row counts around the chunk size, on a
// pool with no workers, the shared pool and a seven-worker pool.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/logistic_regression.h"

namespace fairidx {
namespace {

using internal::kLogisticRowChunk;

// Raw rows on mixed scales (like income next to percentages) with a
// constant column, which standardizes to zero.
Matrix RawRows(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Matrix X(rows, 5);
  for (size_t r = 0; r < rows; ++r) {
    X(r, 0) = rng.Gaussian(52000.0, 9000.0);
    X(r, 1) = rng.NextDouble();
    X(r, 2) = rng.Gaussian(-3.0, 0.01);
    X(r, 3) = 7.0;
    X(r, 4) = static_cast<double>(r % 977);
  }
  return X;
}

std::vector<int> Labels(const Matrix& X) {
  std::vector<int> y(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) {
    y[r] = (X(r, 1) + 1e-4 * (X(r, 0) - 52000.0) > 0.5) != (r % 11 == 0);
  }
  return y;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class LogisticPooledPredictTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LogisticPooledPredictTest, MatchesTransformThenRowDotOnEveryPool) {
  // Fitted once on a fixed set; the rows scored are GetParam() fresh ones.
  const Matrix train = RawRows(3000, 11);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(train, Labels(train)).ok());

  const Matrix X = RawRows(GetParam(), 23);
  const Matrix Z = model.standardizer().Transform(X).value();
  std::vector<double> reference(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) {
    reference[r] = Sigmoid(Z.RowDot(r, model.weights()) + model.intercept());
  }

  ThreadPool serial(0);
  ThreadPool seven(7);
  for (ThreadPool* pool : {&serial, &ThreadPool::Shared(), &seven}) {
    const Matrix pooled_z =
        internal::StandardizeRows(model.standardizer(), X, *pool).value();
    ASSERT_EQ(pooled_z.rows(), Z.rows());
    ASSERT_EQ(pooled_z.cols(), Z.cols());
    EXPECT_EQ(std::memcmp(pooled_z.data().data(), Z.data().data(),
                          Z.data().size() * sizeof(double)),
              0)
        << pool->num_workers() << " workers";

    const std::vector<double> scores =
        internal::PredictLogisticScores(model, X, *pool).value();
    ASSERT_EQ(scores.size(), reference.size());
    size_t mismatches = 0;
    for (size_t r = 0; r < scores.size(); ++r) {
      mismatches += SameBits(scores[r], reference[r]) ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0u) << pool->num_workers() << " workers";
  }
  // PredictScores is the shared-pool entry.
  const std::vector<double> scores = model.PredictScores(X).value();
  EXPECT_EQ(std::memcmp(scores.data(), reference.data(),
                        reference.size() * sizeof(double)),
            0);
}

INSTANTIATE_TEST_SUITE_P(RowCounts, LogisticPooledPredictTest,
                         ::testing::Values(size_t{1}, kLogisticRowChunk - 1,
                                           kLogisticRowChunk,
                                           kLogisticRowChunk + 1,
                                           size_t{50000}));

TEST(LogisticPooledPredictTest, RejectsUnfittedModelAndColumnMismatch) {
  ThreadPool serial(0);
  const Matrix X = RawRows(4, 5);
  LogisticRegression unfitted;
  EXPECT_EQ(internal::PredictLogisticScores(unfitted, X, serial)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(internal::StandardizeRows(unfitted.standardizer(), X, serial)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  const Matrix train = RawRows(200, 11);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(train, Labels(train)).ok());
  const Matrix narrow(3, 2);
  EXPECT_EQ(internal::PredictLogisticScores(model, narrow, serial)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(internal::StandardizeRows(model.standardizer(), narrow, serial)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairidx
