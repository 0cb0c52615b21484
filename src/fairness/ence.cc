#include "fairness/ence.h"

namespace fairidx {
namespace {

// Definition 3's weights |N_i| / |D| over `num_records` records.
std::vector<NeighborhoodCalibration> Weigh(
    const std::vector<GroupCalibration>& groups, size_t num_records) {
  const double n = static_cast<double>(num_records);
  std::vector<NeighborhoodCalibration> out;
  out.reserve(groups.size());
  for (const GroupCalibration& group : groups) {
    NeighborhoodCalibration item;
    item.neighborhood = group.group;
    item.stats = group.stats;
    item.weight = group.stats.count / n;
    out.push_back(item);
  }
  return out;
}

// The weighted sum, in ascending neighborhood id.
double SumEnce(const std::vector<NeighborhoodCalibration>& breakdown) {
  double ence = 0.0;
  for (const NeighborhoodCalibration& item : breakdown) {
    ence += item.weight * item.stats.AbsMiscalibration();
  }
  return ence;
}

}  // namespace

Result<std::vector<NeighborhoodCalibration>> EnceBreakdown(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& neighborhoods) {
  if (scores.size() != labels.size() ||
      scores.size() != neighborhoods.size()) {
    return InvalidArgumentError("ENCE: input size mismatch");
  }
  if (scores.empty()) return InvalidArgumentError("ENCE: empty input");
  FAIRIDX_ASSIGN_OR_RETURN(
      std::vector<GroupCalibration> groups,
      ComputeGroupCalibrations(scores, labels, neighborhoods));
  return Weigh(groups, scores.size());
}

Result<double> Ence(const std::vector<double>& scores,
                    const std::vector<int>& labels,
                    const std::vector<int>& neighborhoods) {
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<NeighborhoodCalibration> breakdown,
                           EnceBreakdown(scores, labels, neighborhoods));
  return SumEnce(breakdown);
}

Result<double> EnceSubset(const std::vector<double>& scores,
                          const std::vector<int>& labels,
                          const std::vector<int>& neighborhoods,
                          const std::vector<size_t>& indices) {
  if (indices.empty()) return InvalidArgumentError("ENCE: empty subset");
  // Rejects mismatched sizes and out-of-range indices.
  FAIRIDX_ASSIGN_OR_RETURN(
      std::vector<GroupCalibration> groups,
      ComputeGroupCalibrationsSubset(scores, labels, neighborhoods, indices));
  return SumEnce(Weigh(groups, indices.size()));
}

}  // namespace fairidx
