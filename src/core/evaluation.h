// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared train-and-evaluate steps over a NeighborhoodDesign: the
// fit-and-score step fits a classifier on the training split and scores
// every record; the indicator step computes the paper's indicators —
// accuracy, overall miscalibration, and ENCE on both splits.

#ifndef FAIRIDX_CORE_EVALUATION_H_
#define FAIRIDX_CORE_EVALUATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/split.h"
#include "ml/classifier.h"

namespace fairidx {

/// Options for one training/evaluation pass.
struct EvalOptions {
  int task = 0;
  NeighborhoodEncoding encoding = NeighborhoodEncoding::kNumericId;
  /// Applies Kamiran-Calders reweighting with the current neighborhoods as
  /// groups when fitting (the reweighting baseline).
  bool reweight_by_neighborhood = false;
};

/// The paper's evaluation indicators for one trained model.
struct EvaluationResult {
  int num_neighborhoods = 0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  /// Overall |e - o| (Fig. 8b/8c).
  double train_miscalibration = 0.0;
  double test_miscalibration = 0.0;
  /// ENCE over the current neighborhoods (Fig. 7).
  double train_ence = 0.0;
  double test_ence = 0.0;
  /// Normalized importances over design-matrix columns (Fig. 9).
  std::vector<double> feature_importances;
  std::vector<std::string> feature_names;
};

/// Scores plus indicators from one pass.
struct TrainedEvaluation {
  /// Confidence scores for every record (train and test).
  std::vector<double> scores;
  EvaluationResult eval;
};

/// A fitted model and its scores for every record.
struct FittedScores {
  std::unique_ptr<Classifier> model;
  std::vector<double> scores;
};

/// The fit-and-score step: fits a clone of `prototype` on `design`'s fit
/// rows (the labels of its task; `fit_weights`, if non-null, one per fit
/// row) and scores every record. It computes no indicator: the pipeline's
/// stage-1 partitioner hook reads the scores only.
Result<FittedScores> FitAndScore(const NeighborhoodDesign& design,
                                 const Classifier& prototype,
                                 const std::vector<double>* fit_weights);

/// Encodes `neighborhoods` (one per record) into `design`, whose fit rows
/// must be split.train_indices, fits and scores (with
/// `reweight_by_neighborhood`, Kamiran-Calders weighted by those
/// neighborhoods), then computes the indicators, grouping ENCE by the same
/// neighborhoods. RunPipeline's final fit reuses its stage-1 design here.
Result<TrainedEvaluation> TrainAndEvaluate(
    NeighborhoodDesign& design, const std::vector<int>& neighborhoods,
    const TrainTestSplit& split, const Classifier& prototype,
    bool reweight_by_neighborhood);

/// The same over a fresh design and the dataset's current neighborhoods:
/// clones `prototype`, fits it on `split.train_indices`, scores all
/// records, and evaluates.
Result<TrainedEvaluation> TrainAndEvaluate(const Dataset& dataset,
                                           const TrainTestSplit& split,
                                           const Classifier& prototype,
                                           const EvalOptions& options);

}  // namespace fairidx

#endif  // FAIRIDX_CORE_EVALUATION_H_
