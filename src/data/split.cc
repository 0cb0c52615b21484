#include "data/split.h"

#include <algorithm>
#include <cstdint>

namespace fairidx {
namespace {

// Emits both sides in ascending index order with one scan over the
// test-row marks; `num_test` marks are set.
TrainTestSplit FromTestMarks(const std::vector<uint8_t>& is_test,
                             size_t num_test) {
  TrainTestSplit split;
  split.test_indices.reserve(num_test);
  split.train_indices.reserve(is_test.size() - num_test);
  for (size_t i = 0; i < is_test.size(); ++i) {
    (is_test[i] ? split.test_indices : split.train_indices).push_back(i);
  }
  return split;
}

}  // namespace

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

  std::vector<uint8_t> is_test(n, 0);
  for (size_t i = 0; i < num_test; ++i) is_test[order[i]] = 1;
  return FromTestMarks(is_test, num_test);
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

  // The first test_fraction of each shuffled stratum goes to test.
  std::vector<uint8_t> is_test(labels.size(), 0);
  size_t num_test = 0;
  for (const std::vector<size_t>* stratum : {&positives, &negatives}) {
    const size_t take = static_cast<size_t>(test_fraction * stratum->size());
    for (size_t i = 0; i < take; ++i) is_test[(*stratum)[i]] = 1;
    num_test += take;
  }
  if (num_test == 0 || num_test == labels.size()) {
    // Degenerate strata (e.g. 3 records); fall back to a plain split.
    return MakeTrainTestSplit(labels.size(), test_fraction, rng);
  }
  return FromTestMarks(is_test, num_test);
}

}  // namespace fairidx
