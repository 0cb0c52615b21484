// Property-based verification of the paper's Theorems 1 and 2 over random
// data, plus the split-objective identities they rest on.
//
// Theorem 1: ENCE over any complete partition >= overall |e(h) - o(h)|.
// Theorem 2: if N2 refines N1, ENCE(N1) <= ENCE(N2).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fairness/calibration.h"
#include "fairness/ence.h"
#include "index/kd_tree.h"
#include "index/uniform_grid.h"

namespace fairidx {
namespace {

struct RandomInstance {
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<int> cells;
  int rows = 0;
  int cols = 0;
};

RandomInstance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  RandomInstance instance;
  instance.rows = 8 + static_cast<int>(rng.NextBounded(9));
  instance.cols = 8 + static_cast<int>(rng.NextBounded(9));
  const int n = 100 + static_cast<int>(rng.NextBounded(400));
  for (int i = 0; i < n; ++i) {
    instance.scores.push_back(rng.NextDouble());
    instance.labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
    instance.cells.push_back(static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(instance.rows) *
                        instance.cols)));
  }
  return instance;
}

Grid MakeGrid(const RandomInstance& instance) {
  return Grid::Create(instance.rows, instance.cols,
                      BoundingBox{0, 0, static_cast<double>(instance.cols),
                                  static_cast<double>(instance.rows)})
      .value();
}

std::vector<int> NeighborhoodsOf(const RandomInstance& instance,
                                 const Partition& partition) {
  std::vector<int> neighborhoods(instance.cells.size());
  for (size_t i = 0; i < instance.cells.size(); ++i) {
    neighborhoods[i] = partition.RegionOfCell(instance.cells[i]);
  }
  return neighborhoods;
}

class TheoremPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoremPropertyTest, Theorem1EnceLowerBoundedByOverall) {
  const RandomInstance instance = MakeInstance(GetParam());
  const Grid grid = MakeGrid(instance);
  const auto overall =
      ComputeCalibration(instance.scores, instance.labels).value();

  // Check against several partitions of different shapes.
  const GridAggregates agg =
      GridAggregates::Build(grid, instance.cells, instance.labels,
                            instance.scores)
          .value();
  std::vector<Partition> partitions;
  partitions.push_back(Partition::Single(grid.num_cells()));
  partitions.push_back(
      BuildUniformGridPartition(grid, 3).value().partition);
  KdTreeOptions median_options;
  median_options.height = 4;
  median_options.objective.kind = SplitObjectiveKind::kMedianCount;
  partitions.push_back(BuildKdTreePartition(grid, agg, median_options)
                           .value()
                           .result.partition);
  KdTreeOptions fair_options;
  fair_options.height = 4;
  partitions.push_back(BuildKdTreePartition(grid, agg, fair_options)
                           .value()
                           .result.partition);

  for (const Partition& partition : partitions) {
    const double ence =
        Ence(instance.scores, instance.labels,
             NeighborhoodsOf(instance, partition))
            .value();
    EXPECT_GE(ence, overall.AbsMiscalibration() - 1e-12);
  }
}

TEST_P(TheoremPropertyTest, Theorem2RefinementNeverDecreasesEnce) {
  const RandomInstance instance = MakeInstance(GetParam());
  const Grid grid = MakeGrid(instance);

  // Uniform partitions at increasing heights form a refinement chain.
  double previous_ence = -1.0;
  Partition previous = Partition::Single(grid.num_cells());
  for (int height = 0; height <= 6; ++height) {
    const Partition partition =
        BuildUniformGridPartition(grid, height).value().partition;
    if (height > 0) {
      ASSERT_TRUE(previous.IsRefinedBy(partition))
          << "uniform height " << height
          << " does not refine height " << height - 1;
    }
    const double ence =
        Ence(instance.scores, instance.labels,
             NeighborhoodsOf(instance, partition))
            .value();
    EXPECT_GE(ence, previous_ence - 1e-12) << "height " << height;
    previous_ence = ence;
    previous = partition;
  }
}

TEST_P(TheoremPropertyTest, Theorem2HoldsForArbitrarySubdivision) {
  // Split one random region of a random partition in two and verify ENCE
  // does not decrease — the exact step used in the paper's proof.
  const RandomInstance instance = MakeInstance(GetParam());
  const Grid grid = MakeGrid(instance);
  Rng rng(GetParam() ^ 0xabcdef);

  // Random coarse partition: uniform height 2.
  const Partition coarse =
      BuildUniformGridPartition(grid, 2).value().partition;
  const std::vector<int>& cell_map = coarse.cell_to_region();

  // Subdivide region 0 by cell parity (an arbitrary, non-spatial split).
  std::vector<int> refined = cell_map;
  const int new_region = coarse.num_regions();
  for (size_t cell = 0; cell < refined.size(); ++cell) {
    if (refined[cell] == 0 && cell % 2 == static_cast<size_t>(
        rng.NextBounded(2))) {
      refined[cell] = new_region;
    }
  }
  const Partition fine = Partition::FromCellMap(refined).value();
  ASSERT_TRUE(coarse.IsRefinedBy(fine));

  const double coarse_ence =
      Ence(instance.scores, instance.labels,
           NeighborhoodsOf(instance, coarse))
          .value();
  const double fine_ence = Ence(instance.scores, instance.labels,
                                NeighborhoodsOf(instance, fine))
                               .value();
  EXPECT_GE(fine_ence, coarse_ence - 1e-12);
}

TEST_P(TheoremPropertyTest, WeightedMiscalibrationIdentity) {
  // |N| * |o(N) - e(N)| == |sum_labels - sum_scores| — the identity that
  // lets Eq. 9 be computed from prefix sums.
  const RandomInstance instance = MakeInstance(GetParam());
  const Grid grid = MakeGrid(instance);
  const GridAggregates agg =
      GridAggregates::Build(grid, instance.cells, instance.labels,
                            instance.scores)
          .value();
  Rng rng(GetParam() + 17);
  for (int trial = 0; trial < 10; ++trial) {
    const int r0 = static_cast<int>(rng.NextBounded(instance.rows));
    const int r1 =
        r0 + 1 + static_cast<int>(rng.NextBounded(instance.rows - r0));
    const int c0 = static_cast<int>(rng.NextBounded(instance.cols));
    const int c1 =
        c0 + 1 + static_cast<int>(rng.NextBounded(instance.cols - c0));
    const RegionAggregate region = agg.Query(CellRect{r0, r1, c0, c1});
    EXPECT_NEAR(region.count * region.Miscalibration(),
                region.WeightedMiscalibration(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

}  // namespace
}  // namespace fairidx
