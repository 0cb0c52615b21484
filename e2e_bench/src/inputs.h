// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The benchmark's own seeded input generator. Everything here runs before
// any clock starts and is never timed: the same seed gives bit-identical
// inputs, and the checksums let two runs show they used the same ones.
// The drift and Zipf generators live here, not in the scenario engine,
// so edits to core/scenario.cc cannot silently change a workload.

#ifndef FAIRIDX_E2E_BENCH_INPUTS_H_
#define FAIRIDX_E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "service/sharded_delta_store.h"

namespace fairidx {
namespace e2e {

/// A synthetic EdGap city (GenerateEdgapCity) of `num_records` records
/// on a side x side base grid.
Result<Dataset> GenerateCity(int num_records, int side, uint64_t seed);

/// A city's records as one ingest stream in arrival order. Scores come
/// from one logistic regression fit on a subsample of the socio-economic
/// features (task 0 labels), so they are calibrated overall and
/// miscalibrated per neighbourhood, as in the paper.
struct ScoredRecords {
  Grid grid;
  AggregateBatch records;
};
Result<ScoredRecords> GenerateScoredRecords(int num_records, int side,
                                            uint64_t seed);

/// The moving hotspot: records [begin, end) arrive column band by column
/// band, west to east (stable within a band), and their scores shift by
/// `bias` (clamped to [0, 1]), so each band drifts out of calibration
/// while it is hot.
void MarchHotspot(const Grid& grid, size_t begin, int bands, double bias,
                  AggregateBatch* records);

/// `count` lookup points, Zipf(s)-skewed over cells (cell popularity rank
/// is a seeded permutation) and uniform within a cell.
std::vector<Point> ZipfPoints(const Grid& grid, size_t count, double s,
                              uint64_t seed);

/// FNV-1a digests of generated inputs.
uint64_t Checksum(const AggregateBatch& records);
uint64_t Checksum(const std::vector<Point>& points);
uint64_t Checksum(const Dataset& dataset);

}  // namespace e2e
}  // namespace fairidx

#endif  // FAIRIDX_E2E_BENCH_INPUTS_H_
