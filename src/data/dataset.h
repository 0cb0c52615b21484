// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The dataset container used throughout fairidx, mirroring Section 2.1 of
// the paper: records with socio-economic features, one or more binary
// classification tasks, a location, a base-grid cell, and a mutable
// neighborhood attribute that the fair indexing algorithms re-district.

#ifndef FAIRIDX_DATA_DATASET_H_
#define FAIRIDX_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "geo/grid.h"
#include "geo/point.h"

namespace fairidx {

/// How the neighborhood attribute is presented to the classifier.
enum class NeighborhoodEncoding {
  /// The raw neighborhood id as one numeric feature (the paper's setup).
  kNumericId,
  /// One indicator column per distinct neighborhood id.
  kOneHot,
  /// Mean training label of the record's neighborhood (target encoding).
  kTargetMean,
};

/// Options for building a classifier design matrix from a dataset.
struct DesignMatrixOptions {
  NeighborhoodEncoding encoding = NeighborhoodEncoding::kNumericId;
  /// Task whose labels drive target-mean encoding.
  int task = 0;
  /// Records used to fit the target-mean encoding; empty means all records.
  /// They are also the rows of NeighborhoodDesign::fit_rows().
  std::vector<size_t> encoding_fit_indices;
};


/// Columnar dataset: features, locations, per-task labels, and the mutable
/// neighborhood assignment.
class Dataset {
 public:
  /// Creates a dataset over `grid`. `features` must have one row per
  /// location; `feature_names` one entry per feature column. Base cells are
  /// derived from locations.
  static Result<Dataset> Create(const Grid& grid,
                                std::vector<std::string> feature_names,
                                Matrix features, std::vector<Point> locations);

  size_t num_records() const { return locations_.size(); }
  size_t num_features() const { return features_.cols(); }
  int num_tasks() const { return static_cast<int>(task_labels_.size()); }

  const Grid& grid() const { return grid_; }
  const Matrix& features() const { return features_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<Point>& locations() const { return locations_; }
  const std::vector<int>& base_cells() const { return base_cells_; }

  /// Adds a binary classification task. `labels` must be 0/1 and one per
  /// record. Returns the task index.
  Result<int> AddTask(std::string name, std::vector<int> labels);

  const std::vector<int>& labels(int task) const {
    return task_labels_[task];
  }
  const std::string& task_name(int task) const { return task_names_[task]; }

  /// The current neighborhood id of each record (initially the base cell).
  const std::vector<int>& neighborhoods() const { return neighborhoods_; }

  /// Record i's entry `cell_to_region[base_cells()[i]]`, for every record.
  /// `cell_to_region` must cover the grid.
  Result<std::vector<int>> MapBaseCells(
      const std::vector<int>& cell_to_region) const;

  /// Re-districts: sets the neighborhoods to MapBaseCells(cell_to_region).
  Status SetNeighborhoodsFromCellMap(const std::vector<int>& cell_to_region);

  /// Assigns every record to the same single neighborhood (the root state of
  /// Algorithms 1 and 3).
  void SetSingleNeighborhood();

  /// Directly assigns per-record neighborhoods (must be one per record).
  Status SetNeighborhoods(std::vector<int> neighborhoods);

  /// Optional zip-code attribute (baseline partitioning; one id per record).
  Status SetZipCodes(std::vector<int> zip_codes);
  bool has_zip_codes() const { return !zip_codes_.empty(); }
  const std::vector<int>& zip_codes() const { return zip_codes_; }

 private:
  Dataset(Grid grid, std::vector<std::string> feature_names, Matrix features,
          std::vector<Point> locations);

  Grid grid_;
  std::vector<std::string> feature_names_;
  Matrix features_;
  std::vector<Point> locations_;
  std::vector<int> base_cells_;
  std::vector<int> neighborhoods_;
  std::vector<int> zip_codes_;
  std::vector<std::string> task_names_;
  std::vector<std::vector<int>> task_labels_;
};

/// The most entries (rows x columns, over both matrices) one
/// NeighborhoodDesign may hold: 2^26 doubles, 512 MiB. One-hot over fine
/// neighborhoods (one column per distinct id, e.g. every base cell) is the
/// encoding that reaches it; past the bound an encoding fails with one
/// line instead of aborting on bad_alloc.
inline constexpr size_t kMaxDesignEntries = size_t{1} << 26;

/// The classifier input over one dataset: the feature columns, then the
/// encoded neighborhood column(s), for every record (all_rows, to score)
/// and for the fit rows options.encoding_fit_indices (fit_rows, to train).
/// Every encoding goes through Encode. A re-encoding rewrites only the
/// neighborhood column(s) in place; one-hot rebuilds both matrices, since
/// its width follows the distinct ids.
class NeighborhoodDesign {
 public:
  /// An empty design; `dataset` must outlive it.
  NeighborhoodDesign(const Dataset& dataset, DesignMatrixOptions options);

  /// Encodes `neighborhoods` (one id per record). InvalidArgument on a
  /// size mismatch or, under target-mean encoding, an invalid task;
  /// OutOfRange on a fit index past the records or a design over
  /// kMaxDesignEntries. On error the matrices are left empty.
  Status Encode(const std::vector<int>& neighborhoods);

  const Dataset& dataset() const { return *dataset_; }
  const DesignMatrixOptions& options() const { return options_; }
  const Matrix& all_rows() const { return all_rows_; }
  const Matrix& fit_rows() const { return fit_rows_; }

  /// The feature names, then the neighborhood column name(s).
  std::vector<std::string> ColumnNames() const;

 private:
  const Dataset* dataset_;
  DesignMatrixOptions options_;
  Matrix all_rows_;
  Matrix fit_rows_;
  // The sorted distinct ids of the last one-hot encoding, one per column.
  std::vector<int> one_hot_ids_;
};

}  // namespace fairidx

#endif  // FAIRIDX_DATA_DATASET_H_
