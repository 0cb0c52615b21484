// Differential tests for the linear-time group-by (common/group_order.h).
// The std::map ComputeGroupCalibrations, the gather-then-Ence EnceSubset,
// the std::map reweighting and the push-then-sort splits they replaced are
// kept here as references; every comparison is exact (==), because the
// grouped order is meant to add the same doubles in the same order.

#include "common/group_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <map>
#include <set>
#include <utility>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "data/edgap_synthetic.h"
#include "data/split.h"
#include "fairness/calibration.h"
#include "fairness/ence.h"
#include "fairness/reweighting.h"
#include "ml/logistic_regression.h"

namespace fairidx {
namespace {

// --- References -----------------------------------------------------------

std::vector<GroupCalibration> MapGroupCalibrations(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& groups) {
  std::map<int, CalibrationStats> by_group;
  for (size_t i = 0; i < scores.size(); ++i) {
    CalibrationStats& stats = by_group[groups[i]];
    stats.count += 1.0;
    stats.mean_score += scores[i];
    stats.mean_label += labels[i];
  }
  std::vector<GroupCalibration> out;
  for (auto& [group, stats] : by_group) {
    stats.mean_score /= stats.count;
    stats.mean_label /= stats.count;
    out.push_back(GroupCalibration{group, stats});
  }
  return out;
}

double MapEnce(const std::vector<double>& scores,
               const std::vector<int>& labels,
               const std::vector<int>& groups) {
  const double n = static_cast<double>(scores.size());
  double ence = 0.0;
  for (const GroupCalibration& g :
       MapGroupCalibrations(scores, labels, groups)) {
    ence += (g.stats.count / n) * g.stats.AbsMiscalibration();
  }
  return ence;
}

template <typename T>
std::vector<T> Gather(const std::vector<T>& values,
                      const std::vector<size_t>& indices) {
  std::vector<T> out;
  for (size_t i : indices) out.push_back(values[i]);
  return out;
}

double MapEnceSubset(const std::vector<double>& scores,
                     const std::vector<int>& labels,
                     const std::vector<int>& groups,
                     const std::vector<size_t>& indices) {
  return MapEnce(Gather(scores, indices), Gather(labels, indices),
                 Gather(groups, indices));
}

std::vector<double> MapReweighting(const std::vector<int>& groups,
                                   const std::vector<int>& labels,
                                   const std::vector<size_t>& fit_indices) {
  std::map<int, double> group_count;
  double label_count[2] = {0.0, 0.0};
  std::map<std::pair<int, int>, double> joint_count;
  for (size_t i : fit_indices) {
    group_count[groups[i]] += 1.0;
    label_count[labels[i]] += 1.0;
    joint_count[{groups[i], labels[i]}] += 1.0;
  }
  const double n = static_cast<double>(fit_indices.size());
  std::vector<double> weights(groups.size(), 1.0);
  for (size_t i : fit_indices) {
    const double p_group = group_count[groups[i]] / n;
    const double p_label = label_count[labels[i]] / n;
    const double p_joint = joint_count[{groups[i], labels[i]}] / n;
    weights[i] = p_group * p_label / p_joint;
  }
  return weights;
}

TrainTestSplit SortedTrainTestSplit(size_t n, double test_fraction,
                                    Rng& rng) {
  size_t num_test = static_cast<size_t>(test_fraction * n);
  num_test = std::clamp<size_t>(num_test, 1, n - 1);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  TrainTestSplit split;
  split.test_indices.assign(order.begin(), order.begin() + num_test);
  split.train_indices.assign(order.begin() + num_test, order.end());
  std::sort(split.test_indices.begin(), split.test_indices.end());
  std::sort(split.train_indices.begin(), split.train_indices.end());
  return split;
}

TrainTestSplit SortedStratifiedSplit(const std::vector<int>& labels,
                                     double test_fraction, Rng& rng) {
  std::vector<size_t> positives;
  std::vector<size_t> negatives;
  for (size_t i = 0; i < labels.size(); ++i) {
    (labels[i] == 1 ? positives : negatives).push_back(i);
  }
  rng.Shuffle(positives);
  rng.Shuffle(negatives);
  TrainTestSplit split;
  auto take = [&](std::vector<size_t>& group) {
    const size_t num_test = static_cast<size_t>(test_fraction * group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      (i < num_test ? split.test_indices : split.train_indices)
          .push_back(group[i]);
    }
  };
  take(positives);
  take(negatives);
  if (split.test_indices.empty() || split.train_indices.empty()) {
    return SortedTrainTestSplit(labels.size(), test_fraction, rng);
  }
  std::sort(split.test_indices.begin(), split.test_indices.end());
  std::sort(split.train_indices.begin(), split.train_indices.end());
  return split;
}

// --- Inputs ---------------------------------------------------------------

// One id from the int extremes, small negatives, or the 512² cell range.
int DrawId(Rng& rng) {
  switch (rng.NextBounded(6)) {
    case 0:
      return INT_MIN;
    case 1:
      return INT_MAX;
    case 2:
      return -1 - static_cast<int>(rng.NextBounded(70000));
    default:
      return static_cast<int>(rng.NextBounded(512 * 512));
  }
}

struct Records {
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<int> groups;
};

// `n` records over a pool of `pool` distinct-ish ids: a small pool gives
// many rows per group, a pool near n mostly singletons.
Records RandomRecords(size_t n, size_t pool, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> ids = {INT_MIN, INT_MAX};
  while (ids.size() < pool) ids.push_back(DrawId(rng));
  Records r;
  for (size_t i = 0; i < n; ++i) {
    r.scores.push_back(rng.NextDouble());
    r.labels.push_back(rng.Bernoulli(0.4) ? 1 : 0);
    r.groups.push_back(ids[rng.NextBounded(ids.size())]);
  }
  return r;
}

// Unsorted indices with repeats.
std::vector<size_t> RandomSubset(size_t n, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> indices;
  for (size_t k = 0; k < count; ++k) indices.push_back(rng.NextBounded(n));
  return indices;
}

struct Case {
  size_t n;
  size_t pool;
};
const Case kCases[] = {{1, 1},     {7, 2},     {200, 3},   {500, 40},
                       {2000, 300}, {3000, 5000}, {6000, 60000}};

void ExpectSameCalibrations(const std::vector<GroupCalibration>& got,
                            const std::vector<GroupCalibration>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t g = 0; g < got.size(); ++g) {
    EXPECT_EQ(got[g].group, want[g].group);
    EXPECT_EQ(got[g].stats.count, want[g].stats.count);
    EXPECT_EQ(got[g].stats.mean_score, want[g].stats.mean_score);
    EXPECT_EQ(got[g].stats.mean_label, want[g].stats.mean_label);
  }
}

// --- GroupOrder -----------------------------------------------------------

TEST(GroupOrderTest, MatchesStableSortById) {
  for (const Case& c : kCases) {
    const Records r = RandomRecords(c.n, c.pool, c.n + c.pool);
    std::vector<size_t> want(c.n);
    for (size_t i = 0; i < c.n; ++i) want[i] = i;
    std::stable_sort(want.begin(), want.end(), [&](size_t a, size_t b) {
      return r.groups[a] < r.groups[b];
    });
    EXPECT_EQ(GroupOrder(r.groups), want) << "n=" << c.n;

    const std::vector<size_t> rows = RandomSubset(c.n, c.n + 5, c.pool);
    std::vector<size_t> want_rows = rows;
    std::stable_sort(want_rows.begin(), want_rows.end(),
                     [&](size_t a, size_t b) {
                       return r.groups[a] < r.groups[b];
                     });
    EXPECT_EQ(GroupOrder(r.groups, rows), want_rows) << "n=" << c.n;
  }
}

TEST(GroupOrderTest, OrdersIntExtremesAndSignedIds) {
  const std::vector<int> ids = {INT_MAX, 0, -1, INT_MIN, 65536, -65536,
                                65535,   1, INT_MIN, -1};
  const std::vector<size_t> order = GroupOrder(ids);
  const std::vector<size_t> want = {3, 8, 5, 2, 9, 1, 7, 6, 4, 0};
  EXPECT_EQ(order, want);
  std::vector<int> seen;
  ForEachGroup(ids, order, [&](int id, Span<size_t> rows) {
    seen.push_back(id);
    EXPECT_FALSE(rows.empty());
  });
  EXPECT_EQ(seen, (std::vector<int>{INT_MIN, -65536, -1, 0, 1, 65535, 65536,
                                    INT_MAX}));
}

TEST(GroupOrderTest, EmptyInputHasNoGroups) {
  const std::vector<int> ids;
  EXPECT_TRUE(GroupOrder(ids).empty());
  int groups = 0;
  ForEachGroup(ids, GroupOrder(ids), [&](int, Span<size_t>) { ++groups; });
  EXPECT_EQ(groups, 0);
}

// --- Calibration and ENCE -------------------------------------------------

TEST(GroupingDifferentialTest, GroupCalibrationsMatchMapReference) {
  for (const Case& c : kCases) {
    const Records r = RandomRecords(c.n, c.pool, 7 * c.n + c.pool);
    ExpectSameCalibrations(
        ComputeGroupCalibrations(r.scores, r.labels, r.groups).value(),
        MapGroupCalibrations(r.scores, r.labels, r.groups));
  }
}

TEST(GroupingDifferentialTest, SubsetCalibrationsMatchGatheredReference) {
  for (const Case& c : kCases) {
    const Records r = RandomRecords(c.n, c.pool, 11 * c.n + c.pool);
    const std::vector<size_t> indices = RandomSubset(c.n, 2 * c.n, c.pool);
    ExpectSameCalibrations(ComputeGroupCalibrationsSubset(
                               r.scores, r.labels, r.groups, indices)
                               .value(),
                           MapGroupCalibrations(Gather(r.scores, indices),
                                                Gather(r.labels, indices),
                                                Gather(r.groups, indices)));
  }
}

TEST(GroupingDifferentialTest, EnceMatchesMapReference) {
  for (const Case& c : kCases) {
    const Records r = RandomRecords(c.n, c.pool, 13 * c.n + c.pool);
    EXPECT_EQ(Ence(r.scores, r.labels, r.groups).value(),
              MapEnce(r.scores, r.labels, r.groups))
        << "n=" << c.n << " pool=" << c.pool;
  }
}

TEST(GroupingDifferentialTest, EnceSubsetMatchesGatheredReference) {
  for (const Case& c : kCases) {
    const Records r = RandomRecords(c.n, c.pool, 17 * c.n + c.pool);
    // Unsorted with repeats, a sorted half, and one singleton.
    std::vector<size_t> sorted_half;
    for (size_t i = 0; i < c.n; i += 2) sorted_half.push_back(i);
    for (const std::vector<size_t>& indices :
         {RandomSubset(c.n, c.n + 3, c.pool + 1), sorted_half,
          std::vector<size_t>{c.n - 1}}) {
      EXPECT_EQ(EnceSubset(r.scores, r.labels, r.groups, indices).value(),
                MapEnceSubset(r.scores, r.labels, r.groups, indices))
          << "n=" << c.n << " pool=" << c.pool;
    }
  }
}

// --- Reweighting ----------------------------------------------------------

TEST(GroupingDifferentialTest, ReweightingMatchesMapReference) {
  for (const Case& c : kCases) {
    const Records r = RandomRecords(c.n, c.pool, 19 * c.n + c.pool);
    std::vector<size_t> all(c.n);
    for (size_t i = 0; i < c.n; ++i) all[i] = i;
    EXPECT_EQ(ComputeReweightingWeights(r.groups, r.labels).value(),
              MapReweighting(r.groups, r.labels, all));
    const std::vector<size_t> fit = RandomSubset(c.n, c.n / 2 + 1, c.pool);
    EXPECT_EQ(
        ComputeReweightingWeightsSubset(r.groups, r.labels, fit).value(),
        MapReweighting(r.groups, r.labels, fit));
  }
}

// --- Splits ---------------------------------------------------------------

TEST(GroupingDifferentialTest, StratifiedSplitMatchesSortedReference) {
  for (uint64_t seed : {1, 2, 3, 20240601}) {
    for (size_t n : {2, 3, 5, 10, 101, 1000, 4096}) {
      for (double positive_rate : {0.0, 0.3, 1.0}) {
        Rng label_rng(seed * 31 + n);
        std::vector<int> labels;
        for (size_t i = 0; i < n; ++i) {
          labels.push_back(label_rng.Bernoulli(positive_rate) ? 1 : 0);
        }
        for (double fraction : {0.01, 0.25, 0.5, 0.9}) {
          Rng rng(seed);
          Rng reference_rng(seed);
          const TrainTestSplit got =
              MakeStratifiedSplit(labels, fraction, rng).value();
          const TrainTestSplit want =
              SortedStratifiedSplit(labels, fraction, reference_rng);
          EXPECT_EQ(got.train_indices, want.train_indices)
              << "seed=" << seed << " n=" << n << " f=" << fraction;
          EXPECT_EQ(got.test_indices, want.test_indices)
              << "seed=" << seed << " n=" << n << " f=" << fraction;
          // Both consumed the same draws.
          EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
        }
      }
    }
  }
}

TEST(GroupingDifferentialTest, PlainSplitMatchesSortedReference) {
  for (uint64_t seed : {4, 5, 6}) {
    for (size_t n : {2, 9, 1000}) {
      Rng rng(seed);
      Rng reference_rng(seed);
      const TrainTestSplit got = MakeTrainTestSplit(n, 0.3, rng).value();
      const TrainTestSplit want = SortedTrainTestSplit(n, 0.3, reference_rng);
      EXPECT_EQ(got.train_indices, want.train_indices);
      EXPECT_EQ(got.test_indices, want.test_indices);
    }
  }
}

// --- TrainAndEvaluate -----------------------------------------------------

Dataset GeneratedCity() {
  CityConfig config;
  config.num_records = 2000;
  config.seed = 91;
  return GenerateEdgapCity(config).value();
}

void ExpectEvaluationMatchesReference(const Dataset& dataset,
                                      const TrainTestSplit& split) {
  LogisticRegression prototype;
  const TrainedEvaluation result =
      TrainAndEvaluate(dataset, split, prototype, EvalOptions{}).value();
  const std::vector<int>& labels = dataset.labels(0);
  const std::vector<int>& neighborhoods = dataset.neighborhoods();
  EXPECT_EQ(result.eval.train_ence,
            MapEnceSubset(result.scores, labels, neighborhoods,
                          split.train_indices));
  EXPECT_EQ(result.eval.test_ence,
            MapEnceSubset(result.scores, labels, neighborhoods,
                          split.test_indices));
  const std::set<int> distinct(neighborhoods.begin(), neighborhoods.end());
  EXPECT_EQ(result.eval.num_neighborhoods, static_cast<int>(distinct.size()));
}

TEST(GroupingDifferentialTest, TrainAndEvaluateMatchesMapReference) {
  Dataset city = GeneratedCity();
  Rng rng(92);
  const TrainTestSplit split =
      MakeStratifiedSplit(city.labels(0), 0.25, rng).value();
  // Base-grid cells (mostly tiny groups), then one coarse region per row
  // band.
  ASSERT_TRUE(city.SetNeighborhoods(city.base_cells()).ok());
  ExpectEvaluationMatchesReference(city, split);
  std::vector<int> bands;
  for (int cell : city.base_cells()) bands.push_back(cell / 4096 - 3);
  ASSERT_TRUE(city.SetNeighborhoods(bands).ok());
  ExpectEvaluationMatchesReference(city, split);
}

TEST(GroupingDifferentialTest, OverlappingCallerSplitMatchesMapReference) {
  // A caller-built split may overlap and repeat indices (cross-validation
  // folds); each side is grouped on its own.
  Dataset city = GeneratedCity();
  ASSERT_TRUE(city.SetNeighborhoods(city.base_cells()).ok());
  TrainTestSplit split;
  for (size_t i = 0; i < city.num_records(); ++i) {
    split.train_indices.push_back(city.num_records() - 1 - i);
  }
  split.test_indices = RandomSubset(city.num_records(), 900, 93);
  ExpectEvaluationMatchesReference(city, split);
}

}  // namespace
}  // namespace fairidx
