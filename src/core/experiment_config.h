// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared experiment configuration for the benchmark harness: the paper's
// two cities, three classifiers, and sweep defaults.

#ifndef FAIRIDX_CORE_EXPERIMENT_CONFIG_H_
#define FAIRIDX_CORE_EXPERIMENT_CONFIG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/edgap_synthetic.h"
#include "ml/classifier.h"

namespace fairidx {

/// The classifier families evaluated in the paper.
enum class ClassifierKind {
  kLogisticRegression,
  kDecisionTree,
  kNaiveBayes,
};

/// Stable display name ("logistic_regression", ...).
const char* ClassifierKindName(ClassifierKind kind);

/// Parses a classifier name — the full ClassifierKindName or the CLI
/// shorthands lr | tree | nb. InvalidArgument on anything else.
Result<ClassifierKind> ParseClassifierKind(const std::string& name);

/// Constructs an unfitted classifier of the given family with the library's
/// default hyper-parameters.
std::unique_ptr<Classifier> MakeClassifier(ClassifierKind kind);

/// All three classifier kinds, in the paper's order.
std::vector<ClassifierKind> AllClassifierKinds();

/// The paper's two evaluation cities (synthetic stand-ins).
std::vector<CityConfig> PaperCities();

/// The paper's Fig. 7/8 height sweep: 4..10.
std::vector<int> PaperHeightSweep();

/// The paper's Fig. 10 height subset: 4, 6, 8, 10.
std::vector<int> PaperMultiObjectiveHeights();

}  // namespace fairidx

#endif  // FAIRIDX_CORE_EXPERIMENT_CONFIG_H_
