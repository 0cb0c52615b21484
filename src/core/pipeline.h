// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The end-to-end fair spatial indexing pipeline (Fig. 2-3 of the paper):
//
//   1. train an initial classifier with the base-grid cell as the location
//      feature and collect confidence scores;
//   2. build a spatial partition (Fair KD-tree / baselines) from those
//      scores;
//   3. re-district every record's neighborhood attribute and retrain;
//   4. evaluate ENCE, accuracy and miscalibration on train/test splits.
//
// This is the public entry point a downstream user calls.

#ifndef FAIRIDX_CORE_PIPELINE_H_
#define FAIRIDX_CORE_PIPELINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/evaluation.h"
#include "data/dataset.h"
#include "data/split.h"
#include "index/kd_tree.h"
#include "index/partition.h"
#include "index/partitioner.h"
#include "index/split_objective.h"
#include "ml/classifier.h"

namespace fairidx {

/// The partitioning algorithms runnable through the pipeline: the paper's
/// three contributions, its three baselines, and fairidx's two structural
/// extensions. Each value maps 1:1 onto a PartitionerRegistry name; the
/// enum exists for type-safe option structs while the registry remains the
/// open, extensible surface.
enum class PartitionAlgorithm {
  kMedianKdTree,          // Paper baseline: standard KD-tree.
  kFairKdTree,            // Algorithm 1.
  kIterativeFairKdTree,   // Algorithm 3.
  kMultiObjectiveFairKdTree,  // Section 4.3 (needs >= 2 tasks).
  kUniformGridReweight,   // Paper baseline: grid + Kamiran-Calders weights.
  kZipCodes,              // Paper baseline: zip-code partitioning.
  kFairQuadtree,          // Extension: greedy fairness-first quadtree.
  kStrSlabs,              // Extension: STR (R-tree family) slab packing.
};

/// Stable display name ("fair_kd_tree", ...) — also the registry name.
const char* PartitionAlgorithmName(PartitionAlgorithm algorithm);

/// The inverse of PartitionAlgorithmName: the single name -> enum map the
/// CLI, scenario files and benches all share (InvalidArgument on unknown
/// names, listing the valid ones).
Result<PartitionAlgorithm> ParsePartitionAlgorithm(const std::string& name);

/// Every PartitionAlgorithm, in the enum's (paper) order.
std::vector<PartitionAlgorithm> AllPartitionAlgorithms();

/// Pipeline configuration.
struct PipelineOptions {
  PartitionAlgorithm algorithm = PartitionAlgorithm::kFairKdTree;
  /// Tree height th; non-tree algorithms target 2^height regions.
  int height = 6;
  /// Task the pipeline trains/evaluates (multi-objective balances all tasks
  /// but still reports metrics for this one).
  int task = 0;
  NeighborhoodEncoding encoding = NeighborhoodEncoding::kNumericId;
  /// Split objective for the fair trees (ablations override this).
  SplitObjectiveOptions split_objective{SplitObjectiveKind::kPaperEq9, 0.0};
  /// Axis selection for the one-shot fair tree (paper: alternating).
  AxisPolicy axis_policy = AxisPolicy::kAlternate;
  /// Early-stop threshold on node weighted miscalibration for the one-shot
  /// fair tree; < 0 disables (paper behaviour).
  double split_early_stop = -1.0;
  /// Multi-objective settings (used only by kMultiObjectiveFairKdTree).
  std::vector<double> multi_objective_alphas;
  bool multi_objective_eq9_weighting = false;
  /// Train/test split.
  double test_fraction = 0.25;
  uint64_t split_seed = 20240601;
  /// If > 0, cell-based partitions are post-processed so every region
  /// holds at least this many records (adjacent-region merging; see
  /// index/region_merging.h). Merging never increases ENCE (Theorem 2).
  double min_region_population = 0.0;
  /// Threads for the partition-construction stage (chunked region splits
  /// for the iterative tree, per-task fits for the multi-objective tree);
  /// the KD and quadtree builds are serial. The pipeline's own model fits
  /// do not read it: a logistic-regression fit always runs its per-row
  /// terms on the shared pool. Every result is identical at any thread
  /// count.
  int num_threads = 1;
};

/// Everything a pipeline run produces.
struct PipelineRunResult {
  /// Cell-based partition (regions empty for kZipCodes, which assigns
  /// neighborhoods per record).
  bool has_cell_partition = false;
  PartitionResult partition;
  /// Final per-record neighborhood ids.
  std::vector<int> record_neighborhoods;
  /// Final model scores + indicators.
  TrainedEvaluation final_model;
  /// The split used (deterministic in split_seed).
  TrainTestSplit split;
  /// Wall-clock seconds spent building the partition (including any model
  /// training the algorithm itself performs, per Theorems 3-5).
  double partition_seconds = 0.0;
  /// Model fits performed by the partitioning stage.
  int partition_stage_fits = 0;
};

/// Runs the full pipeline over `dataset`, which it reads but never copies
/// or changes. `prototype` supplies the classifier family (cloned for each
/// fit). The partition stage dispatches through the PartitionerRegistry
/// under PartitionAlgorithmName(options.algorithm). One NeighborhoodDesign
/// serves the run: the stage-1 fit encodes the base cells into it and the
/// final fit rewrites only its neighborhood column(s).
Result<PipelineRunResult> RunPipeline(const Dataset& dataset,
                                      const Classifier& prototype,
                                      const PipelineOptions& options);

/// Step-1 helper, exposed for benches/tests: trains on the base grid (cell
/// id as neighborhood) and returns scores for all records together with
/// the indicators, grouped by base cell. The pipeline's own stage-1 hook
/// computes the same scores and no indicator.
Result<TrainedEvaluation> TrainOnBaseGrid(const Dataset& dataset,
                                          const TrainTestSplit& split,
                                          const Classifier& prototype,
                                          const EvalOptions& options);

/// Maps PipelineOptions onto the algorithm-facing build options.
PartitionerBuildOptions ToPartitionerBuildOptions(
    const PipelineOptions& options);

/// A PartitionerContext wired to the pipeline's stage-1 initial training:
/// its hook fits on the base grid and returns the scores only, the same
/// scores as TrainOnBaseGrid. It is the hook RunPipeline hands to the
/// registry partitioners (there over the run's shared design), exposed so
/// tools and tests can drive them directly.
PartitionerContext MakePipelinePartitionerContext(
    const Dataset& dataset, const TrainTestSplit& split,
    const Classifier& prototype, const PartitionerBuildOptions& options);

}  // namespace fairidx

#endif  // FAIRIDX_CORE_PIPELINE_H_
