// Tests for the Dataset container and design-matrix encodings.

#include "data/dataset.h"

#include <gtest/gtest.h>

namespace fairidx {
namespace {

Grid MakeGrid() {
  return Grid::Create(2, 2, BoundingBox{0, 0, 2, 2}).value();
}

Dataset MakeDataset() {
  // Four records, one in each cell of a 2x2 grid.
  Matrix features(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
  std::vector<Point> locations = {Point{0.5, 0.5}, Point{1.5, 0.5},
                                  Point{0.5, 1.5}, Point{1.5, 1.5}};
  Dataset dataset = Dataset::Create(MakeGrid(), {"f0", "f1"},
                                    std::move(features),
                                    std::move(locations))
                        .value();
  EXPECT_EQ(dataset.AddTask("task", {1, 0, 1, 0}).value(), 0);
  return dataset;
}

// The all-rows design of `dataset` under its current neighborhoods.
Result<Matrix> DesignOf(const Dataset& dataset, DesignMatrixOptions options,
                        std::vector<std::string>* names = nullptr) {
  NeighborhoodDesign design(dataset, std::move(options));
  FAIRIDX_RETURN_IF_ERROR(design.Encode(dataset.neighborhoods()));
  if (names != nullptr) *names = design.ColumnNames();
  return design.all_rows();
}

TEST(DatasetTest, CreateValidatesShapes) {
  Matrix features(2, 1, {1, 2});
  EXPECT_FALSE(Dataset::Create(MakeGrid(), {"a"}, features,
                               {Point{0, 0}, Point{1, 1}, Point{0, 1}})
                   .ok());
  EXPECT_FALSE(
      Dataset::Create(MakeGrid(), {"a", "b"}, features,
                      {Point{0, 0}, Point{1, 1}})
          .ok());
}

TEST(DatasetTest, BaseCellsDerivedFromLocations) {
  const Dataset dataset = MakeDataset();
  EXPECT_EQ(dataset.base_cells(), (std::vector<int>{0, 1, 2, 3}));
  // Neighborhoods start as base cells.
  EXPECT_EQ(dataset.neighborhoods(), dataset.base_cells());
}

TEST(DatasetTest, AddTaskValidatesLabels) {
  Dataset dataset = MakeDataset();
  EXPECT_FALSE(dataset.AddTask("bad_size", {1, 0}).ok());
  EXPECT_FALSE(dataset.AddTask("bad_value", {1, 0, 2, 0}).ok());
  EXPECT_EQ(dataset.AddTask("second", {0, 0, 1, 1}).value(), 1);
  EXPECT_EQ(dataset.num_tasks(), 2);
  EXPECT_EQ(dataset.task_name(1), "second");
}

TEST(DatasetTest, SetNeighborhoodsFromCellMap) {
  Dataset dataset = MakeDataset();
  // Left column -> region 0, right column -> region 1.
  ASSERT_TRUE(dataset.SetNeighborhoodsFromCellMap({0, 1, 0, 1}).ok());
  EXPECT_EQ(dataset.neighborhoods(), (std::vector<int>{0, 1, 0, 1}));
  EXPECT_FALSE(dataset.SetNeighborhoodsFromCellMap({0, 1}).ok());
}

TEST(DatasetTest, SetSingleNeighborhood) {
  Dataset dataset = MakeDataset();
  dataset.SetSingleNeighborhood();
  EXPECT_EQ(dataset.neighborhoods(), (std::vector<int>{0, 0, 0, 0}));
}

TEST(DatasetTest, SetNeighborhoodsDirect) {
  Dataset dataset = MakeDataset();
  ASSERT_TRUE(dataset.SetNeighborhoods({5, 5, 6, 6}).ok());
  EXPECT_EQ(dataset.neighborhoods(), (std::vector<int>{5, 5, 6, 6}));
  EXPECT_FALSE(dataset.SetNeighborhoods({1}).ok());
}

TEST(DatasetTest, ZipCodes) {
  Dataset dataset = MakeDataset();
  EXPECT_FALSE(dataset.has_zip_codes());
  ASSERT_TRUE(dataset.SetZipCodes({10, 10, 20, 20}).ok());
  EXPECT_TRUE(dataset.has_zip_codes());
  EXPECT_EQ(dataset.zip_codes()[2], 20);
  EXPECT_FALSE(dataset.SetZipCodes({1, 2}).ok());
}

TEST(DatasetTest, NumericIdDesignMatrix) {
  Dataset dataset = MakeDataset();
  ASSERT_TRUE(dataset.SetNeighborhoods({7, 8, 7, 8}).ok());
  std::vector<std::string> names;
  const Matrix design =
      DesignOf(dataset, DesignMatrixOptions{}, &names).value();
  ASSERT_EQ(design.cols(), 3u);
  EXPECT_EQ(names.back(), "neighborhood");
  EXPECT_EQ(design(0, 2), 7.0);
  EXPECT_EQ(design(1, 2), 8.0);
  // Original features preserved.
  EXPECT_EQ(design(2, 1), 30.0);
}

TEST(DatasetTest, OneHotDesignMatrix) {
  Dataset dataset = MakeDataset();
  ASSERT_TRUE(dataset.SetNeighborhoods({7, 8, 7, 8}).ok());
  DesignMatrixOptions options;
  options.encoding = NeighborhoodEncoding::kOneHot;
  std::vector<std::string> names;
  const Matrix design = DesignOf(dataset, options, &names).value();
  ASSERT_EQ(design.cols(), 4u);  // 2 features + 2 indicators.
  EXPECT_EQ(names[2], "neighborhood_7");
  EXPECT_EQ(names[3], "neighborhood_8");
  EXPECT_EQ(design(0, 2), 1.0);
  EXPECT_EQ(design(0, 3), 0.0);
  EXPECT_EQ(design(1, 2), 0.0);
  EXPECT_EQ(design(1, 3), 1.0);
}

TEST(DatasetTest, TargetMeanDesignMatrix) {
  Dataset dataset = MakeDataset();  // labels {1,0,1,0}
  ASSERT_TRUE(dataset.SetNeighborhoods({7, 7, 8, 8}).ok());
  DesignMatrixOptions options;
  options.encoding = NeighborhoodEncoding::kTargetMean;
  options.task = 0;
  const Matrix design = DesignOf(dataset, options).value();
  ASSERT_EQ(design.cols(), 3u);
  // Region 7 = records 0,1 with labels {1,0} -> 0.5; region 8 likewise.
  EXPECT_DOUBLE_EQ(design(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(design(2, 2), 0.5);
}

TEST(DatasetTest, TargetMeanWithFitSubset) {
  Dataset dataset = MakeDataset();  // labels {1,0,1,0}
  ASSERT_TRUE(dataset.SetNeighborhoods({7, 7, 8, 8}).ok());
  DesignMatrixOptions options;
  options.encoding = NeighborhoodEncoding::kTargetMean;
  options.task = 0;
  options.encoding_fit_indices = {0, 2};  // Only the positive records.
  const Matrix design = DesignOf(dataset, options).value();
  EXPECT_DOUBLE_EQ(design(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(design(3, 2), 1.0);
}

TEST(DatasetTest, TargetMeanRequiresValidTask) {
  Dataset dataset = MakeDataset();
  DesignMatrixOptions options;
  options.encoding = NeighborhoodEncoding::kTargetMean;
  options.task = 9;
  EXPECT_FALSE(DesignOf(dataset, options).ok());
}

TEST(NeighborhoodDesignTest, FitRowsAreTheGatheredRows) {
  const Dataset dataset = MakeDataset();
  for (NeighborhoodEncoding encoding :
       {NeighborhoodEncoding::kNumericId, NeighborhoodEncoding::kOneHot,
        NeighborhoodEncoding::kTargetMean}) {
    DesignMatrixOptions options;
    options.encoding = encoding;
    options.encoding_fit_indices = {3, 0, 2, 0};
    NeighborhoodDesign design(dataset, options);
    ASSERT_TRUE(design.Encode({7, 8, 7, 9}).ok());
    const Matrix& all = design.all_rows();
    const Matrix& fit = design.fit_rows();
    ASSERT_EQ(all.rows(), 4u);
    ASSERT_EQ(fit.rows(), 4u);
    ASSERT_EQ(fit.cols(), all.cols());
    for (size_t j = 0; j < fit.rows(); ++j) {
      for (size_t c = 0; c < fit.cols(); ++c) {
        EXPECT_EQ(fit(j, c), all(options.encoding_fit_indices[j], c));
      }
    }
  }
}

TEST(NeighborhoodDesignTest, ReencodingMatchesAFreshDesign) {
  const Dataset dataset = MakeDataset();
  const std::vector<std::vector<int>> assignments = {
      {7, 8, 7, 8}, {1, 1, 2, 2}, {5, 6, 7, 8}, {0, 0, 0, 0}};
  for (NeighborhoodEncoding encoding :
       {NeighborhoodEncoding::kNumericId, NeighborhoodEncoding::kOneHot,
        NeighborhoodEncoding::kTargetMean}) {
    DesignMatrixOptions options;
    options.encoding = encoding;
    options.encoding_fit_indices = {0, 1, 3};
    NeighborhoodDesign reused(dataset, options);
    for (const std::vector<int>& neighborhoods : assignments) {
      ASSERT_TRUE(reused.Encode(neighborhoods).ok());
      NeighborhoodDesign fresh(dataset, options);
      ASSERT_TRUE(fresh.Encode(neighborhoods).ok());
      EXPECT_EQ(reused.all_rows().data(), fresh.all_rows().data());
      EXPECT_EQ(reused.all_rows().cols(), fresh.all_rows().cols());
      EXPECT_EQ(reused.fit_rows().data(), fresh.fit_rows().data());
      EXPECT_EQ(reused.ColumnNames(), fresh.ColumnNames());
    }
  }
}

TEST(NeighborhoodDesignTest, RejectsBadInputs) {
  const Dataset dataset = MakeDataset();
  NeighborhoodDesign design(dataset, DesignMatrixOptions{});
  EXPECT_EQ(design.Encode({1, 2}).code(), StatusCode::kInvalidArgument);
  DesignMatrixOptions options;
  options.encoding_fit_indices = {0, 4};
  NeighborhoodDesign out_of_range(dataset, options);
  EXPECT_EQ(out_of_range.Encode({1, 2, 3, 4}).code(),
            StatusCode::kOutOfRange);
}

// One-hot over one id per record needs records x (features + records)
// entries; past kMaxDesignEntries that is one OutOfRange line naming the
// counts, never an allocation attempt.
TEST(NeighborhoodDesignTest, OneHotPastTheEntryBoundFails) {
  constexpr size_t kRecords = 9000;  // 9000 x 9001 > 2^26.
  static_assert(kRecords * (kRecords + 1) > kMaxDesignEntries);
  std::vector<Point> locations(kRecords, Point{0.5, 0.5});
  const Dataset dataset =
      Dataset::Create(MakeGrid(), {"f0"}, Matrix(kRecords, 1),
                      std::move(locations))
          .value();
  std::vector<int> ids(kRecords);
  for (size_t i = 0; i < kRecords; ++i) ids[i] = static_cast<int>(i);
  DesignMatrixOptions options;
  options.encoding = NeighborhoodEncoding::kOneHot;
  NeighborhoodDesign design(dataset, options);
  const Status status = design.Encode(ids);
  ASSERT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find("9000 + 0 rows x 9001 columns"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(std::to_string(kMaxDesignEntries)),
            std::string::npos);
  EXPECT_EQ(status.message().find('\n'), std::string::npos);
  EXPECT_TRUE(design.all_rows().empty());

  // The numeric encoding of the same ids is two columns wide.
  NeighborhoodDesign numeric(dataset, DesignMatrixOptions{});
  EXPECT_TRUE(numeric.Encode(ids).ok());
}

}  // namespace
}  // namespace fairidx
