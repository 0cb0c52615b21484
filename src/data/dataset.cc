#include "data/dataset.h"

#include <algorithm>
#include <map>

namespace fairidx {

Result<Dataset> Dataset::Create(const Grid& grid,
                                std::vector<std::string> feature_names,
                                Matrix features,
                                std::vector<Point> locations) {
  if (features.rows() != locations.size()) {
    return InvalidArgumentError(
        "Dataset::Create: features rows != number of locations");
  }
  if (feature_names.size() != features.cols()) {
    return InvalidArgumentError(
        "Dataset::Create: feature_names size != feature columns");
  }
  return Dataset(grid, std::move(feature_names), std::move(features),
                 std::move(locations));
}

Dataset::Dataset(Grid grid, std::vector<std::string> feature_names,
                 Matrix features, std::vector<Point> locations)
    : grid_(std::move(grid)),
      feature_names_(std::move(feature_names)),
      features_(std::move(features)),
      locations_(std::move(locations)) {
  base_cells_.resize(locations_.size());
  for (size_t i = 0; i < locations_.size(); ++i) {
    base_cells_[i] = grid_.CellIdOf(locations_[i]);
  }
  neighborhoods_ = base_cells_;
}

Result<int> Dataset::AddTask(std::string name, std::vector<int> labels) {
  if (labels.size() != num_records()) {
    return InvalidArgumentError("AddTask: one label per record required");
  }
  for (int label : labels) {
    if (label != 0 && label != 1) {
      return InvalidArgumentError("AddTask: labels must be 0 or 1");
    }
  }
  task_names_.push_back(std::move(name));
  task_labels_.push_back(std::move(labels));
  return num_tasks() - 1;
}

Result<std::vector<int>> Dataset::MapBaseCells(
    const std::vector<int>& cell_to_region) const {
  if (cell_to_region.size() != static_cast<size_t>(grid_.num_cells())) {
    return InvalidArgumentError(
        "SetNeighborhoodsFromCellMap: map must cover every grid cell");
  }
  std::vector<int> mapped(base_cells_.size());
  for (size_t i = 0; i < base_cells_.size(); ++i) {
    mapped[i] = cell_to_region[base_cells_[i]];
  }
  return mapped;
}

Status Dataset::SetNeighborhoodsFromCellMap(
    const std::vector<int>& cell_to_region) {
  FAIRIDX_ASSIGN_OR_RETURN(neighborhoods_, MapBaseCells(cell_to_region));
  return Status::Ok();
}

void Dataset::SetSingleNeighborhood() {
  for (auto& n : neighborhoods_) n = 0;
}

Status Dataset::SetNeighborhoods(std::vector<int> neighborhoods) {
  if (neighborhoods.size() != num_records()) {
    return InvalidArgumentError(
        "SetNeighborhoods: one neighborhood per record required");
  }
  neighborhoods_ = std::move(neighborhoods);
  return Status::Ok();
}

Status Dataset::SetZipCodes(std::vector<int> zip_codes) {
  if (zip_codes.size() != num_records()) {
    return InvalidArgumentError("SetZipCodes: one zip per record required");
  }
  zip_codes_ = std::move(zip_codes);
  return Status::Ok();
}

NeighborhoodDesign::NeighborhoodDesign(const Dataset& dataset,
                                       DesignMatrixOptions options)
    : dataset_(&dataset), options_(std::move(options)) {}

Status NeighborhoodDesign::Encode(const std::vector<int>& neighborhoods) {
  const Dataset& data = *dataset_;
  const size_t n = data.num_records();
  const size_t features = data.num_features();
  const std::vector<size_t>& fit = options_.encoding_fit_indices;
  if (neighborhoods.size() != n) {
    return InvalidArgumentError(
        "NeighborhoodDesign: one neighborhood per record required");
  }
  for (size_t i : fit) {
    if (i >= n) return OutOfRangeError("DesignMatrix: fit index out of range");
  }

  // Per record: the encoded value, or under one-hot its indicator column.
  std::vector<double> values;
  std::vector<size_t> hot;
  std::vector<int> ids;
  size_t width = features + 1;
  switch (options_.encoding) {
    case NeighborhoodEncoding::kNumericId:
      values.resize(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = static_cast<double>(neighborhoods[i]);
      }
      break;
    case NeighborhoodEncoding::kOneHot: {
      // Stable, sorted mapping from distinct ids to indicator columns.
      ids = neighborhoods;
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      width = features + ids.size();
      hot.resize(n);
      for (size_t i = 0; i < n; ++i) {
        hot[i] = features + static_cast<size_t>(
                                std::lower_bound(ids.begin(), ids.end(),
                                                 neighborhoods[i]) -
                                ids.begin());
      }
      break;
    }
    case NeighborhoodEncoding::kTargetMean: {
      if (options_.task < 0 || options_.task >= data.num_tasks()) {
        return InvalidArgumentError(
            "DesignMatrix: target-mean encoding needs a valid task");
      }
      const std::vector<int>& y = data.labels(options_.task);
      std::map<int, std::pair<double, double>> sums;  // id -> (sum, count)
      auto accumulate = [&](size_t i) {
        auto& [sum, count] = sums[neighborhoods[i]];
        sum += y[i];
        count += 1.0;
      };
      if (fit.empty()) {
        for (size_t i = 0; i < n; ++i) accumulate(i);
      } else {
        for (size_t i : fit) accumulate(i);
      }
      double global_sum = 0.0, global_count = 0.0;
      for (const auto& [id, sc] : sums) {
        global_sum += sc.first;
        global_count += sc.second;
      }
      const double global_mean =
          global_count > 0 ? global_sum / global_count : 0.5;
      values.resize(n);
      for (size_t i = 0; i < n; ++i) {
        auto it = sums.find(neighborhoods[i]);
        // Neighborhoods unseen during fitting back off to the global mean.
        values[i] = (it != sums.end() && it->second.second > 0)
                        ? it->second.first / it->second.second
                        : global_mean;
      }
      break;
    }
  }

  const size_t rows = n + fit.size();
  if (rows > 0 && width > kMaxDesignEntries / rows) {
    return OutOfRangeError(
        "NeighborhoodDesign: " + std::to_string(n) + " + " +
        std::to_string(fit.size()) + " rows x " + std::to_string(width) +
        " columns (" + std::to_string(features) + " features + " +
        std::to_string(width - features) +
        " neighborhood) exceed kMaxDesignEntries = " +
        std::to_string(kMaxDesignEntries));
  }

  const bool one_hot = options_.encoding == NeighborhoodEncoding::kOneHot;
  if (one_hot || all_rows_.rows() != n || all_rows_.cols() != width) {
    all_rows_ = Matrix(n, width);
    fit_rows_ = Matrix(fit.size(), width);
    const Matrix& source = data.features();
    for (size_t i = 0; i < n; ++i) {
      std::copy_n(source.Row(i), features, all_rows_.MutableRow(i));
    }
    for (size_t j = 0; j < fit.size(); ++j) {
      std::copy_n(source.Row(fit[j]), features, fit_rows_.MutableRow(j));
    }
  }
  one_hot_ids_ = std::move(ids);
  auto write = [&](double* row, size_t i) {
    if (one_hot) {
      row[hot[i]] = 1.0;
    } else {
      row[features] = values[i];
    }
  };
  for (size_t i = 0; i < n; ++i) write(all_rows_.MutableRow(i), i);
  for (size_t j = 0; j < fit.size(); ++j) {
    write(fit_rows_.MutableRow(j), fit[j]);
  }
  return Status::Ok();
}

std::vector<std::string> NeighborhoodDesign::ColumnNames() const {
  std::vector<std::string> names = dataset_->feature_names();
  switch (options_.encoding) {
    case NeighborhoodEncoding::kNumericId:
      names.push_back("neighborhood");
      break;
    case NeighborhoodEncoding::kOneHot:
      for (int id : one_hot_ids_) {
        names.push_back("neighborhood_" + std::to_string(id));
      }
      break;
    case NeighborhoodEncoding::kTargetMean:
      names.push_back("neighborhood_target_mean");
      break;
  }
  return names;
}

}  // namespace fairidx
