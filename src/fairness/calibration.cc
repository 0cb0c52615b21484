#include "fairness/calibration.h"

#include <cmath>
#include <limits>

#include "common/group_order.h"

namespace fairidx {
namespace {

// Per-group calibration over `order`, a GroupOrder result over `groups`:
// each group's sums add its rows in input order, and groups come out in
// ascending id.
std::vector<GroupCalibration> CalibrateGroups(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& groups, const std::vector<size_t>& order) {
  std::vector<GroupCalibration> out;
  ForEachGroup(groups, order, [&](int group, Span<size_t> rows) {
    CalibrationStats stats;
    for (size_t i : rows) {
      stats.count += 1.0;
      stats.mean_score += scores[i];
      stats.mean_label += labels[i];
    }
    stats.mean_score /= stats.count;
    stats.mean_label /= stats.count;
    out.push_back(GroupCalibration{group, stats});
  });
  return out;
}

}  // namespace

double CalibrationStats::AbsMiscalibration() const {
  return std::abs(mean_score - mean_label);
}

double CalibrationStats::RatioCalibration() const {
  if (mean_label == 0.0) return std::numeric_limits<double>::quiet_NaN();
  return mean_score / mean_label;
}

Result<CalibrationStats> ComputeCalibration(
    const std::vector<double>& scores, const std::vector<int>& labels) {
  if (scores.size() != labels.size()) {
    return InvalidArgumentError("calibration: scores/labels size mismatch");
  }
  if (scores.empty()) return InvalidArgumentError("calibration: empty input");
  CalibrationStats stats;
  stats.count = static_cast<double>(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    stats.mean_score += scores[i];
    stats.mean_label += labels[i];
  }
  stats.mean_score /= stats.count;
  stats.mean_label /= stats.count;
  return stats;
}

Result<CalibrationStats> ComputeCalibrationSubset(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<size_t>& indices) {
  if (scores.size() != labels.size()) {
    return InvalidArgumentError("calibration: scores/labels size mismatch");
  }
  CalibrationStats stats;
  for (size_t i : indices) {
    if (i >= scores.size()) {
      return OutOfRangeError("calibration: subset index out of range");
    }
    stats.count += 1.0;
    stats.mean_score += scores[i];
    stats.mean_label += labels[i];
  }
  if (stats.count > 0.0) {
    stats.mean_score /= stats.count;
    stats.mean_label /= stats.count;
  }
  return stats;
}

Result<std::vector<GroupCalibration>> ComputeGroupCalibrations(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& groups) {
  if (scores.size() != labels.size() || scores.size() != groups.size()) {
    return InvalidArgumentError("calibration: input size mismatch");
  }
  return CalibrateGroups(scores, labels, groups, GroupOrder(groups));
}

Result<std::vector<GroupCalibration>> ComputeGroupCalibrationsSubset(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& groups, const std::vector<size_t>& indices) {
  if (scores.size() != labels.size() || scores.size() != groups.size()) {
    return InvalidArgumentError("calibration: input size mismatch");
  }
  for (size_t i : indices) {
    if (i >= scores.size()) {
      return OutOfRangeError("calibration: subset index out of range");
    }
  }
  return CalibrateGroups(scores, labels, groups, GroupOrder(groups, indices));
}

}  // namespace fairidx
