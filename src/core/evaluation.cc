#include "core/evaluation.h"

#include <utility>

#include "common/group_order.h"
#include "fairness/calibration.h"
#include "fairness/ence.h"
#include "fairness/reweighting.h"
#include "ml/metrics.h"

namespace fairidx {
namespace {

// Gathers the subset of a vector at `indices`.
template <typename T>
std::vector<T> Gather(const std::vector<T>& values,
                      const std::vector<size_t>& indices) {
  std::vector<T> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(values[i]);
  return out;
}

Status CheckTask(const Dataset& dataset, int task) {
  if (task < 0 || task >= dataset.num_tasks()) {
    return InvalidArgumentError("TrainAndEvaluate: invalid task index");
  }
  return Status::Ok();
}

// The indicator step: the paper's indicators of `scores` on both split
// sides, with ENCE grouped by `neighborhoods`.
Result<EvaluationResult> EvaluateIndicators(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& neighborhoods, const TrainTestSplit& split) {
  const std::vector<double> train_scores =
      Gather(scores, split.train_indices);
  const std::vector<double> test_scores = Gather(scores, split.test_indices);
  const std::vector<int> train_labels = Gather(labels, split.train_indices);
  const std::vector<int> test_labels = Gather(labels, split.test_indices);

  EvaluationResult eval;
  FAIRIDX_ASSIGN_OR_RETURN(eval.train_accuracy,
                           Accuracy(train_scores, train_labels));
  FAIRIDX_ASSIGN_OR_RETURN(eval.test_accuracy,
                           Accuracy(test_scores, test_labels));

  FAIRIDX_ASSIGN_OR_RETURN(CalibrationStats train_calibration,
                           ComputeCalibration(train_scores, train_labels));
  FAIRIDX_ASSIGN_OR_RETURN(CalibrationStats test_calibration,
                           ComputeCalibration(test_scores, test_labels));
  eval.train_miscalibration = train_calibration.AbsMiscalibration();
  eval.test_miscalibration = test_calibration.AbsMiscalibration();

  FAIRIDX_ASSIGN_OR_RETURN(
      eval.train_ence,
      EnceSubset(scores, labels, neighborhoods, split.train_indices));
  FAIRIDX_ASSIGN_OR_RETURN(
      eval.test_ence,
      EnceSubset(scores, labels, neighborhoods, split.test_indices));

  // Count distinct neighborhoods actually populated by records.
  ForEachGroup(neighborhoods, GroupOrder(neighborhoods),
               [&eval](int, Span<size_t>) { ++eval.num_neighborhoods; });
  return eval;
}

}  // namespace

Result<FittedScores> FitAndScore(const NeighborhoodDesign& design,
                                 const Classifier& prototype,
                                 const std::vector<double>* fit_weights) {
  const Dataset& dataset = design.dataset();
  FAIRIDX_RETURN_IF_ERROR(CheckTask(dataset, design.options().task));
  const std::vector<int> fit_labels =
      Gather(dataset.labels(design.options().task),
             design.options().encoding_fit_indices);
  FittedScores out;
  out.model = prototype.Clone();
  FAIRIDX_RETURN_IF_ERROR(
      out.model->Fit(design.fit_rows(), fit_labels, fit_weights));
  FAIRIDX_ASSIGN_OR_RETURN(out.scores,
                           out.model->PredictScores(design.all_rows()));
  return out;
}

Result<TrainedEvaluation> TrainAndEvaluate(
    NeighborhoodDesign& design, const std::vector<int>& neighborhoods,
    const TrainTestSplit& split, const Classifier& prototype,
    bool reweight_by_neighborhood) {
  const Dataset& dataset = design.dataset();
  FAIRIDX_RETURN_IF_ERROR(CheckTask(dataset, design.options().task));
  if (split.train_indices.empty() || split.test_indices.empty()) {
    return InvalidArgumentError("TrainAndEvaluate: empty split side");
  }
  for (const std::vector<size_t>* side :
       {&split.train_indices, &split.test_indices}) {
    for (size_t i : *side) {
      if (i >= dataset.num_records()) {
        return OutOfRangeError("TrainAndEvaluate: split index out of range");
      }
    }
  }
  if (design.options().encoding_fit_indices != split.train_indices) {
    return InvalidArgumentError(
        "TrainAndEvaluate: the design's fit rows are not the split's "
        "training rows");
  }
  FAIRIDX_RETURN_IF_ERROR(design.Encode(neighborhoods));

  const std::vector<int>& labels = dataset.labels(design.options().task);
  std::vector<double> train_weights;
  if (reweight_by_neighborhood) {
    FAIRIDX_ASSIGN_OR_RETURN(
        std::vector<double> all_weights,
        ComputeReweightingWeightsSubset(neighborhoods, labels,
                                        split.train_indices));
    train_weights = Gather(all_weights, split.train_indices);
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      FittedScores fitted,
      FitAndScore(design, prototype,
                  reweight_by_neighborhood ? &train_weights : nullptr));

  TrainedEvaluation out;
  FAIRIDX_ASSIGN_OR_RETURN(
      out.eval,
      EvaluateIndicators(fitted.scores, labels, neighborhoods, split));
  out.eval.feature_importances = fitted.model->FeatureImportances();
  out.eval.feature_names = design.ColumnNames();
  out.scores = std::move(fitted.scores);
  return out;
}

Result<TrainedEvaluation> TrainAndEvaluate(const Dataset& dataset,
                                           const TrainTestSplit& split,
                                           const Classifier& prototype,
                                           const EvalOptions& options) {
  NeighborhoodDesign design(
      dataset, {options.encoding, options.task, split.train_indices});
  return TrainAndEvaluate(design, dataset.neighborhoods(), split, prototype,
                          options.reweight_by_neighborhood);
}

}  // namespace fairidx
