#include "fairness/reweighting.h"

#include "common/group_order.h"

namespace fairidx {

Result<std::vector<double>> ComputeReweightingWeights(
    const std::vector<int>& groups, const std::vector<int>& labels) {
  std::vector<size_t> all(groups.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return ComputeReweightingWeightsSubset(groups, labels, all);
}

Result<std::vector<double>> ComputeReweightingWeightsSubset(
    const std::vector<int>& groups, const std::vector<int>& labels,
    const std::vector<size_t>& fit_indices) {
  if (groups.size() != labels.size()) {
    return InvalidArgumentError("reweighting: groups/labels size mismatch");
  }
  if (fit_indices.empty()) {
    return InvalidArgumentError("reweighting: empty fit set");
  }

  double label_count[2] = {0.0, 0.0};
  for (size_t i : fit_indices) {
    if (i >= groups.size()) {
      return OutOfRangeError("reweighting: fit index out of range");
    }
    if (labels[i] != 0 && labels[i] != 1) {
      return InvalidArgumentError("reweighting: labels must be 0 or 1");
    }
    label_count[labels[i]] += 1.0;
  }
  const double n = static_cast<double>(fit_indices.size());

  std::vector<double> weights(groups.size(), 1.0);
  const std::vector<size_t> order = GroupOrder(groups, fit_indices);
  ForEachGroup(groups, order, [&](int, Span<size_t> rows) {
    double joint_count[2] = {0.0, 0.0};
    for (size_t i : rows) joint_count[labels[i]] += 1.0;
    const double p_group = static_cast<double>(rows.size()) / n;
    for (size_t i : rows) {
      const double p_label = label_count[labels[i]] / n;
      const double p_joint = joint_count[labels[i]] / n;
      // p_joint > 0 because record i itself is in the cell.
      weights[i] = p_group * p_label / p_joint;
    }
  });
  return weights;
}

}  // namespace fairidx
