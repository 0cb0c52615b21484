#include "data/split.h"

#include <algorithm>

namespace fairidx {

Result<TrainTestSplit> MakeTrainTestSplit(size_t n, double test_fraction,
                                          Rng& rng) {
  if (n < 2) return InvalidArgumentError("split needs at least 2 records");
  if (!(test_fraction > 0.0 && test_fraction < 1.0)) {
    return InvalidArgumentError("test_fraction must be in (0, 1)");
  }
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

Result<TrainTestSplit> MakeStratifiedSplit(const std::vector<int>& labels,
                                           double test_fraction, Rng& rng) {
  if (labels.size() < 2) {
    return InvalidArgumentError("split needs at least 2 records");
  }
  if (!(test_fraction > 0.0 && test_fraction < 1.0)) {
    return InvalidArgumentError("test_fraction must be in (0, 1)");
  }
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
    // Degenerate strata (e.g. 3 records); fall back to a plain split.
    return MakeTrainTestSplit(labels.size(), test_fraction, rng);
  }
  std::sort(split.test_indices.begin(), split.test_indices.end());
  std::sort(split.train_indices.begin(), split.train_indices.end());
  return split;
}

}  // namespace fairidx
