#include "core/iterative_fair_kd_tree.h"

#include "geo/grid_aggregates.h"

namespace fairidx {

Result<IterativeFairKdTreeResult> BuildIterativeFairKdTree(
    const Dataset& dataset, const TrainTestSplit& split,
    const Classifier& prototype, const IterativeFairKdTreeOptions& options) {
  if (options.height < 0) {
    return InvalidArgumentError("iterative fair KD: height must be >= 0");
  }
  if (options.task < 0 || options.task >= dataset.num_tasks()) {
    return InvalidArgumentError("iterative fair KD: invalid task");
  }
  if (split.train_indices.empty()) {
    return InvalidArgumentError("iterative fair KD: empty training split");
  }

  // The algorithm re-districts level by level, starting from one
  // neighborhood; each level rewrites only the design's neighborhood
  // column(s).
  std::vector<int> neighborhoods(dataset.num_records(), 0);
  const Grid& grid = dataset.grid();
  const std::vector<int>& labels = dataset.labels(options.task);

  std::vector<CellRect> regions = {grid.FullRect()};
  IterativeFairKdTreeResult out;

  NeighborhoodDesign design(
      dataset, {options.encoding, options.task, split.train_indices});

  // Gathered training views, reused across levels.
  std::vector<int> train_labels;
  train_labels.reserve(split.train_indices.size());
  for (size_t i : split.train_indices) train_labels.push_back(labels[i]);
  std::vector<int> train_cells;
  train_cells.reserve(split.train_indices.size());
  for (size_t i : split.train_indices) {
    train_cells.push_back(dataset.base_cells()[i]);
  }

  for (int level = 0; level < options.height; ++level) {
    const int remaining_height = options.height - level;  // th in Alg. 3.

    // Train on the current neighborhoods and refresh scores (Alg. 3 line 5).
    FAIRIDX_RETURN_IF_ERROR(design.Encode(neighborhoods));
    std::unique_ptr<Classifier> model = prototype.Clone();
    FAIRIDX_RETURN_IF_ERROR(
        model->Fit(design.fit_rows(), train_labels, nullptr));
    ++out.retrain_count;
    FAIRIDX_ASSIGN_OR_RETURN(std::vector<double> train_scores,
                             model->PredictScores(design.fit_rows()));

    FAIRIDX_ASSIGN_OR_RETURN(
        GridAggregates aggregates,
        GridAggregates::Build(grid, train_cells, train_labels, train_scores));

    // Split every region at this level (Alg. 3 lines 7-9).
    const int axis = remaining_height % 2;
    regions = SplitAllRegions(aggregates, regions, axis, options.objective,
                              options.axis_policy, options.num_threads);

    // Re-district for the next level's training (Alg. 3 line 11).
    FAIRIDX_ASSIGN_OR_RETURN(Partition level_partition,
                             Partition::FromRects(grid, regions));
    FAIRIDX_ASSIGN_OR_RETURN(
        neighborhoods, dataset.MapBaseCells(level_partition.cell_to_region()));
  }

  FAIRIDX_ASSIGN_OR_RETURN(Partition partition,
                           Partition::FromRects(grid, regions));
  out.partition.partition = std::move(partition);
  out.partition.regions = std::move(regions);
  return out;
}

}  // namespace fairidx
