#include "core/pipeline.h"

#include <chrono>

#include "index/region_merging.h"

namespace fairidx {

const char* PartitionAlgorithmName(PartitionAlgorithm algorithm) {
  switch (algorithm) {
    case PartitionAlgorithm::kMedianKdTree:
      return "median_kd_tree";
    case PartitionAlgorithm::kFairKdTree:
      return "fair_kd_tree";
    case PartitionAlgorithm::kIterativeFairKdTree:
      return "iterative_fair_kd_tree";
    case PartitionAlgorithm::kMultiObjectiveFairKdTree:
      return "multi_objective_fair_kd_tree";
    case PartitionAlgorithm::kUniformGridReweight:
      return "grid_reweighting";
    case PartitionAlgorithm::kZipCodes:
      return "zip_codes";
    case PartitionAlgorithm::kFairQuadtree:
      return "fair_quadtree";
    case PartitionAlgorithm::kStrSlabs:
      return "str_slabs";
  }
  return "unknown";
}

Result<PartitionAlgorithm> ParsePartitionAlgorithm(const std::string& name) {
  // Round-trips through PartitionAlgorithmName so the two can never drift:
  // a new enum value is parseable the moment it prints.
  std::string known;
  for (PartitionAlgorithm algorithm : AllPartitionAlgorithms()) {
    if (name == PartitionAlgorithmName(algorithm)) return algorithm;
    if (!known.empty()) known += ", ";
    known += PartitionAlgorithmName(algorithm);
  }
  return InvalidArgumentError("unknown algorithm '" + name +
                              "' (expected one of: " + known + ")");
}

std::vector<PartitionAlgorithm> AllPartitionAlgorithms() {
  return {PartitionAlgorithm::kMedianKdTree,
          PartitionAlgorithm::kFairKdTree,
          PartitionAlgorithm::kIterativeFairKdTree,
          PartitionAlgorithm::kMultiObjectiveFairKdTree,
          PartitionAlgorithm::kUniformGridReweight,
          PartitionAlgorithm::kZipCodes,
          PartitionAlgorithm::kFairQuadtree,
          PartitionAlgorithm::kStrSlabs};
}

namespace {

// Stage 1 of Fig. 2, score only: encodes the base-grid cell as the
// neighborhood feature, fits, and returns every record's score. The
// partitioner reads nothing else, so no indicator is computed.
Result<std::vector<double>> BaseGridScores(NeighborhoodDesign& design,
                                           const Classifier& prototype) {
  FAIRIDX_RETURN_IF_ERROR(design.Encode(design.dataset().base_cells()));
  FAIRIDX_ASSIGN_OR_RETURN(FittedScores fitted,
                           FitAndScore(design, prototype, nullptr));
  return std::move(fitted.scores);
}

// A context whose stage-1 hook runs BaseGridScores over `design`, or over
// a design of its own when `design` is null.
PartitionerContext MakeContext(const Dataset& dataset,
                               const TrainTestSplit& split,
                               const Classifier& prototype,
                               const PartitionerBuildOptions& options,
                               NeighborhoodDesign* design) {
  PartitionerContext::InitialScoreFn score_fn =
      [design](const Dataset& data, const TrainTestSplit& data_split,
               const Classifier& proto,
               const PartitionerBuildOptions& build_options)
      -> Result<std::vector<double>> {
    if (design != nullptr) return BaseGridScores(*design, proto);
    NeighborhoodDesign own(data, {build_options.encoding, build_options.task,
                                  data_split.train_indices});
    return BaseGridScores(own, proto);
  };
  return PartitionerContext(dataset, split, &prototype, options,
                            std::move(score_fn));
}

}  // namespace

Result<TrainedEvaluation> TrainOnBaseGrid(const Dataset& dataset,
                                          const TrainTestSplit& split,
                                          const Classifier& prototype,
                                          const EvalOptions& options) {
  NeighborhoodDesign design(
      dataset, {options.encoding, options.task, split.train_indices});
  return TrainAndEvaluate(design, dataset.base_cells(), split, prototype,
                          options.reweight_by_neighborhood);
}

PartitionerBuildOptions ToPartitionerBuildOptions(
    const PipelineOptions& options) {
  PartitionerBuildOptions build;
  build.height = options.height;
  build.task = options.task;
  build.encoding = options.encoding;
  build.split_objective = options.split_objective;
  build.axis_policy = options.axis_policy;
  build.split_early_stop = options.split_early_stop;
  build.multi_objective_alphas = options.multi_objective_alphas;
  build.multi_objective_eq9_weighting =
      options.multi_objective_eq9_weighting;
  build.num_threads = options.num_threads;
  return build;
}

PartitionerContext MakePipelinePartitionerContext(
    const Dataset& dataset, const TrainTestSplit& split,
    const Classifier& prototype, const PartitionerBuildOptions& options) {
  return MakeContext(dataset, split, prototype, options, nullptr);
}

Result<PipelineRunResult> RunPipeline(const Dataset& dataset,
                                      const Classifier& prototype,
                                      const PipelineOptions& options) {
  if (options.task < 0 || options.task >= dataset.num_tasks()) {
    return InvalidArgumentError("RunPipeline: invalid task");
  }
  if (options.height < 0) {
    return InvalidArgumentError("RunPipeline: height must be >= 0");
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<Partitioner> partitioner,
      PartitionerRegistry::Global().Create(
          PartitionAlgorithmName(options.algorithm)));

  // Capability-driven preconditions (was a hard-coded per-algorithm
  // switch).
  const PartitionerCapabilities caps = partitioner->capabilities();
  if (caps.needs_zip_codes && !dataset.has_zip_codes()) {
    return FailedPreconditionError(
        "RunPipeline: zip-code baseline needs a dataset with zip codes");
  }
  if (caps.needs_multi_task && dataset.num_tasks() < 2) {
    return FailedPreconditionError(
        "RunPipeline: multi-objective needs >= 2 tasks");
  }

  PipelineRunResult out;
  Rng split_rng(options.split_seed);
  FAIRIDX_ASSIGN_OR_RETURN(
      out.split, MakeStratifiedSplit(dataset.labels(options.task),
                                     options.test_fraction, split_rng));

  // One design per run: stage 1 encodes the base cells into it, the final
  // fit rewrites only its neighborhood column(s).
  NeighborhoodDesign design(
      dataset, {options.encoding, options.task, out.split.train_indices});

  const auto partition_start = std::chrono::steady_clock::now();

  // Stage 1+2: initial scores (lazily, when the partitioner asks) and the
  // partition build, through the registry.
  PartitionerContext context =
      MakeContext(dataset, out.split, prototype,
                  ToPartitionerBuildOptions(options), &design);
  FAIRIDX_ASSIGN_OR_RETURN(PartitionerOutput built,
                           partitioner->Build(context));
  out.has_cell_partition = built.has_cell_partition;
  out.partition = std::move(built.partition);
  out.partition_stage_fits = built.model_fits;

  // Optional minimum-population post-processing (cell partitions only).
  if (out.has_cell_partition && options.min_region_population > 0.0) {
    RegionMergingOptions merge_options;
    merge_options.min_population = options.min_region_population;
    FAIRIDX_ASSIGN_OR_RETURN(
        RegionMergingResult merged,
        MergeSmallRegions(dataset.grid(), out.partition.partition,
                          dataset.base_cells(), merge_options));
    if (merged.merges > 0) {
      out.partition.partition = std::move(merged.partition);
      // Merged regions are generally not rectangles any more.
      out.partition.regions.clear();
    }
  }

  const auto partition_end = std::chrono::steady_clock::now();
  out.partition_seconds =
      std::chrono::duration<double>(partition_end - partition_start).count();

  // Stage 3: re-district.
  if (out.has_cell_partition) {
    FAIRIDX_ASSIGN_OR_RETURN(
        out.record_neighborhoods,
        dataset.MapBaseCells(out.partition.partition.cell_to_region()));
  } else {
    out.record_neighborhoods = dataset.zip_codes();
  }

  // Stage 4: final training + evaluation.
  FAIRIDX_ASSIGN_OR_RETURN(
      out.final_model,
      TrainAndEvaluate(design, out.record_neighborhoods, out.split,
                       prototype, built.reweight_by_neighborhood));
  return out;
}

}  // namespace fairidx
