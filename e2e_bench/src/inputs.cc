// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.

#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/rng.h"
#include "core/experiment_config.h"
#include "data/edgap_synthetic.h"

namespace fairidx {
namespace e2e {
namespace {

constexpr int kScoreSubsample = 20000;

class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void Vector(const std::vector<T>& values) {
    Bytes(values.data(), values.size() * sizeof(T));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

Result<Dataset> GenerateCity(int num_records, int side, uint64_t seed) {
  CityConfig config;
  config.name = "e2e";
  config.num_records = num_records;
  config.grid_rows = side;
  config.grid_cols = side;
  config.seed = seed;
  return GenerateEdgapCity(config);
}

Result<ScoredRecords> GenerateScoredRecords(int num_records, int side,
                                            uint64_t seed) {
  FAIRIDX_ASSIGN_OR_RETURN(Dataset city,
                           GenerateCity(num_records, side, seed));
  const size_t n = city.num_records();
  const size_t sample = std::min<size_t>(n, kScoreSubsample);
  std::vector<size_t> rows(sample);
  std::vector<int> sample_labels(sample);
  for (size_t i = 0; i < sample; ++i) {
    rows[i] = i * n / sample;
    sample_labels[i] = city.labels(0)[rows[i]];
  }
  std::unique_ptr<Classifier> model =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  FAIRIDX_RETURN_IF_ERROR(
      model->Fit(city.features().SelectRows(rows), sample_labels));
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<double> scores,
                           model->PredictScores(city.features()));
  ScoredRecords out{city.grid(), {}};
  out.records.cell_ids = city.base_cells();
  out.records.labels = city.labels(0);
  out.records.scores = std::move(scores);
  return out;
}

void MarchHotspot(const Grid& grid, size_t begin, int bands, double bias,
                  AggregateBatch* records) {
  const size_t end = records->size();
  if (begin >= end) return;
  std::vector<size_t> order(end - begin);
  std::iota(order.begin(), order.end(), begin);
  const int cols = grid.cols();
  auto band_of = [&](size_t i) {
    return grid.ColOfCell(records->cell_ids[i]) * bands / cols;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return band_of(a) < band_of(b); });
  AggregateBatch tail;
  for (size_t i : order) {
    tail.Append(records->cell_ids[i], records->labels[i],
                std::clamp(records->scores[i] + bias, 0.0, 1.0));
  }
  std::copy(tail.cell_ids.begin(), tail.cell_ids.end(),
            records->cell_ids.begin() + begin);
  std::copy(tail.labels.begin(), tail.labels.end(),
            records->labels.begin() + begin);
  std::copy(tail.scores.begin(), tail.scores.end(),
            records->scores.begin() + begin);
}

std::vector<Point> ZipfPoints(const Grid& grid, size_t count, double s,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<int> cell_of_rank(static_cast<size_t>(grid.num_cells()));
  std::iota(cell_of_rank.begin(), cell_of_rank.end(), 0);
  rng.Shuffle(cell_of_rank);
  std::vector<double> cdf(cell_of_rank.size());
  double total = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  std::vector<Point> points(count);
  for (Point& p : points) {
    const double u = rng.NextDouble() * total;
    const size_t rank = std::min<size_t>(
        static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()),
        cdf.size() - 1);
    const int cell = cell_of_rank[rank];
    const BoundingBox box =
        grid.CellBounds(grid.RowOfCell(cell), grid.ColOfCell(cell));
    p.x = box.min_x + rng.NextDouble() * box.width();
    p.y = box.min_y + rng.NextDouble() * (box.max_y - box.min_y);
  }
  return points;
}

uint64_t Checksum(const AggregateBatch& records) {
  Fnv fnv;
  fnv.Vector(records.cell_ids);
  fnv.Vector(records.labels);
  fnv.Vector(records.scores);
  return fnv.hash();
}

uint64_t Checksum(const std::vector<Point>& points) {
  Fnv fnv;
  for (const Point& p : points) {
    fnv.Bytes(&p.x, sizeof(p.x));
    fnv.Bytes(&p.y, sizeof(p.y));
  }
  return fnv.hash();
}

uint64_t Checksum(const Dataset& dataset) {
  Fnv fnv;
  fnv.Vector(dataset.base_cells());
  for (int t = 0; t < dataset.num_tasks(); ++t) fnv.Vector(dataset.labels(t));
  const Matrix& features = dataset.features();
  for (size_t r = 0; r < features.rows(); ++r) {
    fnv.Bytes(features.Row(r), features.cols() * sizeof(double));
  }
  return fnv.hash();
}

}  // namespace e2e
}  // namespace fairidx
