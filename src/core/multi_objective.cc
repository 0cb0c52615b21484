#include "core/multi_objective.h"

#include <cmath>
#include <utility>

#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "fairness/region_metrics.h"
#include "geo/grid_aggregates.h"

namespace fairidx {
namespace {

// Resolves the (tasks, alphas) configuration, applying defaults.
Status ResolveTasksAndAlphas(const Dataset& dataset,
                             const MultiObjectiveOptions& options,
                             std::vector<int>* tasks,
                             std::vector<double>* alphas) {
  *tasks = options.tasks;
  if (tasks->empty()) {
    for (int t = 0; t < dataset.num_tasks(); ++t) tasks->push_back(t);
  }
  for (int t : *tasks) {
    if (t < 0 || t >= dataset.num_tasks()) {
      return InvalidArgumentError("multi-objective: invalid task index");
    }
  }
  *alphas = options.alphas;
  if (alphas->empty()) {
    alphas->assign(tasks->size(), 1.0 / static_cast<double>(tasks->size()));
  }
  if (alphas->size() != tasks->size()) {
    return InvalidArgumentError("multi-objective: alphas/tasks size mismatch");
  }
  // v_tot = sum_i alpha_i (s_i - y_i) is bounded by sum_i |alpha_i|, and
  // the aggregates accept no residual beyond kMaxAbsResidual. The negated
  // compare also rejects a NaN alpha.
  double abs_total = 0.0;
  for (double a : *alphas) abs_total += std::abs(a);
  if (!(abs_total <= GridAggregates::kMaxAbsResidual)) {
    return InvalidArgumentError(
        "multi-objective: sum of |alphas| exceeds 2 "
        "(GridAggregates::kMaxAbsResidual)");
  }
  double total = 0.0;
  for (double a : *alphas) {
    if (a < 0.0 || a > 1.0) {
      return InvalidArgumentError("multi-objective: alphas must be in [0,1]");
    }
    total += a;
  }
  if (std::abs(total - 1.0) > 1e-9) {
    return InvalidArgumentError("multi-objective: alphas must sum to 1");
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<double>> ComputeMultiObjectiveResiduals(
    const Dataset& dataset, const TrainTestSplit& split,
    const Classifier& prototype, const MultiObjectiveOptions& options) {
  std::vector<int> tasks;
  std::vector<double> alphas;
  FAIRIDX_RETURN_IF_ERROR(
      ResolveTasksAndAlphas(dataset, options, &tasks, &alphas));
  if (split.train_indices.empty()) {
    return InvalidArgumentError("multi-objective: empty training split");
  }

  // Per-task fits are independent: each pool task assembles its own design
  // matrix, fits a clone and scores every record into its slot. The
  // alpha-combination below runs sequentially in task order, so v_tot is
  // bit-identical at any thread count.
  const size_t num_tasks = tasks.size();
  std::vector<std::vector<double>> task_scores(num_tasks);
  std::vector<Status> task_status(num_tasks, Status::Ok());
  ThreadPool::Shared().ParallelFor(
      num_tasks, options.num_threads, [&](size_t k) {
        const int task = tasks[k];
        NeighborhoodDesign design(
            dataset, {options.encoding, task, split.train_indices});
        Status encoded = design.Encode(dataset.neighborhoods());
        if (!encoded.ok()) {
          task_status[k] = std::move(encoded);
          return;
        }
        Result<FittedScores> scores = FitAndScore(design, prototype, nullptr);
        if (!scores.ok()) {
          task_status[k] = scores.status();
          return;
        }
        task_scores[k] = std::move(scores->scores);
      });
  for (Status& status : task_status) {
    FAIRIDX_RETURN_IF_ERROR(std::move(status));
  }

  std::vector<double> residuals(dataset.num_records(), 0.0);
  for (size_t k = 0; k < num_tasks; ++k) {
    const int task = tasks[k];
    const std::vector<double>& scores = task_scores[k];
    for (size_t i = 0; i < residuals.size(); ++i) {
      residuals[i] += alphas[k] * (scores[i] - dataset.labels(task)[i]);
    }
  }
  return residuals;
}

Result<MultiObjectiveResult> BuildMultiObjectiveFairKdTree(
    const Dataset& dataset, const TrainTestSplit& split,
    const Classifier& prototype, const MultiObjectiveOptions& options) {
  if (options.height < 0) {
    return InvalidArgumentError("multi-objective: height must be >= 0");
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      std::vector<double> residuals,
      ComputeMultiObjectiveResiduals(dataset, split, prototype, options));

  // Aggregates carry the residuals; labels/scores below are placeholders
  // (task 0's) since the residual objectives only read sum_residuals.
  std::vector<int> train_cells;
  std::vector<int> train_labels;
  std::vector<double> train_scores;
  std::vector<double> train_residuals;
  train_cells.reserve(split.train_indices.size());
  for (size_t i : split.train_indices) {
    train_cells.push_back(dataset.base_cells()[i]);
    train_labels.push_back(dataset.labels(0)[i]);
    train_scores.push_back(0.0);
    train_residuals.push_back(residuals[i]);
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      GridAggregates aggregates,
      GridAggregates::Build(dataset.grid(), train_cells, train_labels,
                            train_scores, train_residuals));

  KdTreeOptions tree_options;
  tree_options.height = options.height;
  tree_options.objective.kind =
      options.use_eq9_weighting ? SplitObjectiveKind::kResidualBalanceEq9
                                : SplitObjectiveKind::kResidualBalanceEq13;
  FAIRIDX_ASSIGN_OR_RETURN(
      KdTreeResult tree,
      BuildKdTreePartition(dataset.grid(), aggregates, tree_options));

  MultiObjectiveResult out;
  out.region_abs_residual_mass =
      RegionAbsResidualMass(aggregates, tree.result.regions);
  out.partition = std::move(tree.result);
  out.residuals = std::move(residuals);
  return out;
}

}  // namespace fairidx
