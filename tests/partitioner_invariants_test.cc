// Parameterized invariant suite covering every cell-based partitioner:
// completeness, disjointness (both via Partition construction), region
// sanity, determinism, and monotone region counts. One suite, six
// algorithms, multiple grid shapes and data seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "index/kd_tree.h"
#include "index/quadtree.h"
#include "index/str_partition.h"
#include "index/uniform_grid.h"

namespace fairidx {
namespace {

enum class Partitioner {
  kMedianKd,
  kFairKd,
  kUniformGrid,
  kFairQuadtree,
  kStrSlabs,
};

const char* PartitionerName(Partitioner partitioner) {
  switch (partitioner) {
    case Partitioner::kMedianKd:
      return "median_kd";
    case Partitioner::kFairKd:
      return "fair_kd";
    case Partitioner::kUniformGrid:
      return "uniform_grid";
    case Partitioner::kFairQuadtree:
      return "fair_quadtree";
    case Partitioner::kStrSlabs:
      return "str_slabs";
  }
  return "unknown";
}

struct Instance {
  Grid grid;
  GridAggregates aggregates;
};

Instance MakeInstance(int rows, int cols, uint64_t seed) {
  Grid grid = Grid::Create(rows, cols,
                           BoundingBox{0, 0, static_cast<double>(cols),
                                       static_cast<double>(rows)})
                  .value();
  Rng rng(seed);
  const int n = 300;
  std::vector<int> cells(n);
  std::vector<int> labels(n);
  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) {
    cells[i] = static_cast<int>(rng.NextBounded(grid.num_cells()));
    labels[i] = rng.Bernoulli(0.45) ? 1 : 0;
    scores[i] = rng.NextDouble();
  }
  GridAggregates aggregates =
      GridAggregates::Build(grid, cells, labels, scores).value();
  return Instance{std::move(grid), std::move(aggregates)};
}

Result<PartitionResult> Build(Partitioner partitioner,
                              const Instance& instance, int height) {
  switch (partitioner) {
    case Partitioner::kMedianKd:
    case Partitioner::kFairKd: {
      KdTreeOptions options;
      options.height = height;
      if (partitioner == Partitioner::kMedianKd) {
        options.objective.kind = SplitObjectiveKind::kMedianCount;
      }
      FAIRIDX_ASSIGN_OR_RETURN(
          KdTreeResult tree,
          BuildKdTreePartition(instance.grid, instance.aggregates, options));
      return std::move(tree.result);
    }
    case Partitioner::kUniformGrid:
      return BuildUniformGridPartition(instance.grid, height);
    case Partitioner::kFairQuadtree: {
      FairQuadtreeOptions options;
      options.target_regions = 1 << height;
      return BuildFairQuadtree(instance.grid, instance.aggregates, options);
    }
    case Partitioner::kStrSlabs:
      return BuildStrPartition(instance.grid, instance.aggregates,
                               1 << height);
  }
  return InternalError("unknown partitioner");
}

using InvariantParam = std::tuple<Partitioner, int /*rows*/, int /*cols*/,
                                  uint64_t /*seed*/>;

class PartitionerInvariantsTest
    : public ::testing::TestWithParam<InvariantParam> {};

TEST_P(PartitionerInvariantsTest, CompleteDisjointAndSaneAtAllHeights) {
  const auto [partitioner, rows, cols, seed] = GetParam();
  const Instance instance = MakeInstance(rows, cols, seed);
  for (int height : {0, 1, 3, 5, 7}) {
    const auto result = Build(partitioner, instance, height);
    ASSERT_TRUE(result.ok())
        << PartitionerName(partitioner) << " height " << height << ": "
        << result.status();
    const Partition& partition = result->partition;
    // Completeness + disjointness are enforced by construction (negative
    // cells / double assignment are impossible through the factories);
    // verify the totals anyway.
    ASSERT_EQ(partition.num_cells(), instance.grid.num_cells());
    int total_cells = 0;
    for (int size : partition.RegionSizes()) {
      EXPECT_GT(size, 0);
      total_cells += size;
    }
    EXPECT_EQ(total_cells, instance.grid.num_cells());
    // Region count is bounded by the budget and by the number of cells.
    // Overshoot allowances: the quadtree's 4-way splits add up to 3; STR
    // packs s x ceil(t/s) tiles with s = round(sqrt(t)).
    long long budget = 1LL << height;
    if (partitioner == Partitioner::kFairQuadtree) {
      budget += 3;
    } else if (partitioner == Partitioner::kStrSlabs) {
      const long long slabs = std::max<long long>(
          1, std::llround(std::sqrt(static_cast<double>(budget))));
      budget = slabs * ((budget + slabs - 1) / slabs);
    }
    EXPECT_LE(partition.num_regions(),
              std::min(budget,
                       static_cast<long long>(instance.grid.num_cells())));
    EXPECT_GE(partition.num_regions(), 1);
  }
}

TEST_P(PartitionerInvariantsTest, DeterministicAcrossRebuilds) {
  const auto [partitioner, rows, cols, seed] = GetParam();
  const Instance instance = MakeInstance(rows, cols, seed);
  const auto a = Build(partitioner, instance, 5);
  const auto b = Build(partitioner, instance, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->partition.cell_to_region(), b->partition.cell_to_region());
}

TEST_P(PartitionerInvariantsTest, RegionCountMonotoneInBudget) {
  const auto [partitioner, rows, cols, seed] = GetParam();
  const Instance instance = MakeInstance(rows, cols, seed);
  int previous = 0;
  for (int height : {1, 2, 3, 4, 5, 6}) {
    const auto result = Build(partitioner, instance, height);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->partition.num_regions(), previous)
        << PartitionerName(partitioner) << " height " << height;
    previous = result->partition.num_regions();
  }
}

TEST_P(PartitionerInvariantsTest, RectBasedRegionsMatchPartition) {
  const auto [partitioner, rows, cols, seed] = GetParam();
  const Instance instance = MakeInstance(rows, cols, seed);
  const auto result = Build(partitioner, instance, 4);
  ASSERT_TRUE(result.ok());
  if (result->regions.empty()) return;  // Non-rect partitioner.
  ASSERT_EQ(result->regions.size(),
            static_cast<size_t>(result->partition.num_regions()));
  for (size_t region = 0; region < result->regions.size(); ++region) {
    const CellRect& rect = result->regions[region];
    for (int r = rect.row_begin; r < rect.row_end; ++r) {
      for (int c = rect.col_begin; c < rect.col_end; ++c) {
        ASSERT_EQ(result->partition.RegionOfCell(
                      instance.grid.CellId(r, c)),
                  static_cast<int>(region));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, PartitionerInvariantsTest,
    ::testing::Combine(
        ::testing::Values(Partitioner::kMedianKd, Partitioner::kFairKd,
                          Partitioner::kUniformGrid,
                          Partitioner::kFairQuadtree,
                          Partitioner::kStrSlabs),
        ::testing::Values(16, 23),   // rows (incl. non-power-of-two)
        ::testing::Values(16, 9),    // cols
        ::testing::Values(1u, 2u)),  // data seeds
    [](const ::testing::TestParamInfo<InvariantParam>& info) {
      return std::string(PartitionerName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param)) + "_seed" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace fairidx
