// Tests for the Fair KD-tree (Algorithm 1) and the median baseline,
// including the fairness-balancing behaviour of Eq. 9.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "fairness/ence.h"
#include "index/kd_tree.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

// A city where miscalibration concentrates in one corner: scores are 0.5
// everywhere but the north-east quadrant has all-positive labels.
struct CornerBias {
  std::vector<int> cells;
  std::vector<int> labels;
  std::vector<double> scores;
};

CornerBias MakeCornerBias(const Grid& grid, int per_cell = 2) {
  CornerBias data;
  for (int r = 0; r < grid.rows(); ++r) {
    for (int c = 0; c < grid.cols(); ++c) {
      const bool biased_corner =
          r >= grid.rows() / 2 && c >= grid.cols() / 2;
      for (int k = 0; k < per_cell; ++k) {
        data.cells.push_back(grid.CellId(r, c));
        data.scores.push_back(0.5);
        // Outside the corner labels alternate (calibrated); inside all 1.
        data.labels.push_back(biased_corner ? 1 : k % 2);
      }
    }
  }
  return data;
}

GridAggregates MakeAggregates(const Grid& grid, const CornerBias& data) {
  return GridAggregates::Build(grid, data.cells, data.labels, data.scores)
      .value();
}

// The paper's median baseline: the KD recursion with the count objective.
Result<KdTreeResult> BuildMedian(const Grid& grid,
                                 const GridAggregates& aggregates,
                                 int height) {
  KdTreeOptions options;
  options.height = height;
  options.objective.kind = SplitObjectiveKind::kMedianCount;
  return BuildKdTreePartition(grid, aggregates, options);
}

TEST(FairKdTreeTest, BuildsRequestedLeafCount) {
  const Grid grid = MakeGrid(16, 16);
  const CornerBias data = MakeCornerBias(grid);
  KdTreeOptions options;
  options.height = 4;
  const auto tree =
      BuildKdTreePartition(grid, MakeAggregates(grid, data), options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->result.partition.num_regions(), 16);
}

TEST(FairKdTreeTest, SplitsEquilibrateChildMiscalibration) {
  // At the root split, Eq. 9 balances weighted miscalibration between the
  // halves, so both children carry roughly half of the biased corner.
  const Grid grid = MakeGrid(8, 8);
  const CornerBias data = MakeCornerBias(grid);
  const GridAggregates agg =
      GridAggregates::Build(grid, data.cells, data.labels, data.scores)
          .value();
  const KdSplit split =
      FindBestSplit(agg, grid.FullRect(), /*axis=*/0,
                    SplitObjectiveOptions{});
  ASSERT_TRUE(split.valid);
  const double left = agg.Query(split.left).WeightedMiscalibration();
  const double right = agg.Query(split.right).WeightedMiscalibration();
  EXPECT_NEAR(left, right, 4.1);  // Within one cell-row of mass.
}

TEST(FairKdTreeTest, LowersEnceVersusMedianOnBiasedData) {
  // With miscalibration concentrated spatially, the fair tree should
  // produce neighborhoods with lower ENCE than the median tree at equal
  // height.
  const Grid grid = MakeGrid(16, 16);
  const CornerBias data = MakeCornerBias(grid, 3);
  const GridAggregates agg =
      GridAggregates::Build(grid, data.cells, data.labels, data.scores)
          .value();

  KdTreeOptions fair_options;
  fair_options.height = 3;
  const auto fair = BuildKdTreePartition(grid, agg, fair_options);
  ASSERT_TRUE(fair.ok());
  const auto median = BuildMedian(grid, agg, 3);
  ASSERT_TRUE(median.ok());

  auto ence_of = [&](const Partition& partition) {
    std::vector<int> neighborhoods(data.cells.size());
    for (size_t i = 0; i < data.cells.size(); ++i) {
      neighborhoods[i] = partition.RegionOfCell(data.cells[i]);
    }
    return Ence(data.scores, data.labels, neighborhoods).value();
  };
  EXPECT_LE(ence_of(fair->result.partition),
            ence_of(median->result.partition) + 1e-12);
}

TEST(FairKdTreeTest, DefaultOptionsBuildTheEq9Tree) {
  // Default KdTreeOptions are the Fair KD-tree: Eq. 9, no compactness term.
  const Grid grid = MakeGrid(8, 8);
  const GridAggregates agg = MakeAggregates(grid, MakeCornerBias(grid));
  KdTreeOptions defaults;
  defaults.height = 3;
  KdTreeOptions eq9 = defaults;
  eq9.objective = SplitObjectiveOptions{SplitObjectiveKind::kPaperEq9, 0.0};
  const auto by_default = BuildKdTreePartition(grid, agg, defaults);
  const auto explicit_eq9 = BuildKdTreePartition(grid, agg, eq9);
  ASSERT_TRUE(by_default.ok());
  ASSERT_TRUE(explicit_eq9.ok());
  EXPECT_EQ(by_default->result.regions, explicit_eq9->result.regions);
  EXPECT_EQ(by_default->result.partition.cell_to_region(),
            explicit_eq9->result.partition.cell_to_region());
}

TEST(MedianKdTreeTest, SplitsBalanceRecordCounts) {
  // Clustered records: the median tree's root split should balance counts,
  // not cell areas.
  const Grid grid = MakeGrid(8, 8);
  std::vector<int> cells;
  std::vector<int> labels;
  std::vector<double> scores;
  // 90 records in the left-most column, 10 spread on the right edge.
  for (int i = 0; i < 90; ++i) {
    cells.push_back(grid.CellId(i % 8, 0));
    labels.push_back(0);
    scores.push_back(0.0);
  }
  for (int i = 0; i < 10; ++i) {
    cells.push_back(grid.CellId(i % 8, 7));
    labels.push_back(0);
    scores.push_back(0.0);
  }
  const GridAggregates agg =
      GridAggregates::Build(grid, cells, labels, scores).value();
  const auto tree = BuildMedian(grid, agg, 1);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->result.regions.size(), 2u);
  // Count records per leaf.
  double counts[2] = {0, 0};
  for (size_t i = 0; i < cells.size(); ++i) {
    counts[tree->result.partition.RegionOfCell(cells[i])] += 1;
  }
  // A perfectly balanced split is impossible (90 are in one column), but
  // the median tree must put the dense column alone on one side.
  EXPECT_EQ(std::max(counts[0], counts[1]), 90);
}

TEST(MedianKdTreeTest, FullHeightLeafCount) {
  const Grid grid = MakeGrid(16, 16);
  const CornerBias data = MakeCornerBias(grid);
  const GridAggregates agg =
      GridAggregates::Build(grid, data.cells, data.labels, data.scores)
          .value();
  const auto tree = BuildMedian(grid, agg, 4);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->result.partition.num_regions(), 16);
}

}  // namespace
}  // namespace fairidx
