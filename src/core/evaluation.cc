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

}  // namespace

Result<TrainedEvaluation> TrainAndEvaluate(const Dataset& dataset,
                                           const TrainTestSplit& split,
                                           const Classifier& prototype,
                                           const EvalOptions& options) {
  if (options.task < 0 || options.task >= dataset.num_tasks()) {
    return InvalidArgumentError("TrainAndEvaluate: invalid task index");
  }
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

  DesignMatrixOptions design_options;
  design_options.encoding = options.encoding;
  design_options.task = options.task;
  design_options.encoding_fit_indices = split.train_indices;
  std::vector<std::string> column_names;
  FAIRIDX_ASSIGN_OR_RETURN(Matrix design,
                           dataset.DesignMatrix(design_options,
                                                &column_names));

  const std::vector<int>& labels = dataset.labels(options.task);
  const Matrix train_design = design.SelectRows(split.train_indices);
  const std::vector<int> train_labels = Gather(labels, split.train_indices);

  std::unique_ptr<Classifier> model = prototype.Clone();
  if (options.reweight_by_neighborhood) {
    FAIRIDX_ASSIGN_OR_RETURN(
        std::vector<double> all_weights,
        ComputeReweightingWeightsSubset(dataset.neighborhoods(), labels,
                                        split.train_indices));
    const std::vector<double> train_weights =
        Gather(all_weights, split.train_indices);
    FAIRIDX_RETURN_IF_ERROR(
        model->Fit(train_design, train_labels, &train_weights));
  } else {
    FAIRIDX_RETURN_IF_ERROR(model->Fit(train_design, train_labels, nullptr));
  }

  TrainedEvaluation out;
  FAIRIDX_ASSIGN_OR_RETURN(out.scores, model->PredictScores(design));

  const std::vector<double> train_scores =
      Gather(out.scores, split.train_indices);
  const std::vector<double> test_scores =
      Gather(out.scores, split.test_indices);
  const std::vector<int> test_labels = Gather(labels, split.test_indices);

  EvaluationResult& eval = out.eval;
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
      EnceSubset(out.scores, labels, dataset.neighborhoods(),
                 split.train_indices));
  FAIRIDX_ASSIGN_OR_RETURN(
      eval.test_ence,
      EnceSubset(out.scores, labels, dataset.neighborhoods(),
                 split.test_indices));

  // Count distinct neighborhoods actually populated by records.
  const std::vector<int>& neighborhoods = dataset.neighborhoods();
  ForEachGroup(neighborhoods, GroupOrder(neighborhoods),
               [&eval](int, Span<size_t>) { ++eval.num_neighborhoods; });

  eval.feature_importances = model->FeatureImportances();
  eval.feature_names = std::move(column_names);
  return out;
}

}  // namespace fairidx
