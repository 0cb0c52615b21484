// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Synthetic EdGap-like city generator, substituting for the paper's two real
// datasets (EdGap socio-economic features of US high schools in Los Angeles
// and Houston, geo-coded via NCES). The generator reproduces the mechanism
// the paper's experiments rely on: socio-economic features and labels are
// *spatially autocorrelated*, driven by a latent "disadvantage" surface, so
// geography carries label signal and per-neighborhood miscalibration
// emerges.

#ifndef FAIRIDX_DATA_EDGAP_SYNTHETIC_H_
#define FAIRIDX_DATA_EDGAP_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "geo/rect.h"

namespace fairidx {

/// Names of the socio-economic training features, in column order. The
/// classification indicators (ACT, family employment) are deliberately NOT
/// features: following the paper, they are split off to generate labels.
inline constexpr int kEdgapNumFeatures = 5;
extern const char* const kEdgapFeatureNames[kEdgapNumFeatures];

/// Task indices produced by the generator.
inline constexpr int kEdgapTaskAct = 0;
inline constexpr int kEdgapTaskEmployment = 1;

/// Configuration for one synthetic city.
struct CityConfig {
  std::string name = "synthetic";
  /// Number of school records (paper: 1153 for LA, 966 for Houston).
  int num_records = 1000;
  /// Base grid resolution (the paper's U x V grid).
  int grid_rows = 64;
  int grid_cols = 64;
  /// Map extent in kilometres of a local projection.
  BoundingBox extent{0.0, 0.0, 60.0, 50.0};
  /// School clustering: number of urban sub-centers and cluster spread.
  int num_clusters = 7;
  double cluster_stddev_fraction = 0.06;  // fraction of the extent diagonal
  double background_fraction = 0.15;      // uniformly scattered schools
  /// Latent disadvantage surface: signed radial bumps.
  int num_disadvantage_bumps = 12;
  /// Label thresholds (paper: ACT 22, family employment 10%).
  double act_threshold = 22.0;
  double employment_threshold = 10.0;
  /// Observation noise scale multiplier (1.0 = calibrated defaults).
  double noise_scale = 1.0;
  /// Number of synthetic zip codes (Voronoi regions).
  int num_zip_codes = 35;
  uint64_t seed = 42;
};

/// City presets matching the paper's record counts.
CityConfig LosAngelesConfig();
CityConfig HoustonConfig();

/// Generates a synthetic city dataset: 5 socio-economic features, two binary
/// tasks (ACT >= act_threshold, family employment hardship >=
/// employment_threshold), locations, base-grid cells, and zip codes.
/// Deterministic in `config.seed`.
Result<Dataset> GenerateEdgapCity(const CityConfig& config);

/// The latent disadvantage surface used by the generator; exposed for tests
/// and for generating additional correlated covariates.
class DisadvantageField {
 public:
  /// Builds a field of `num_bumps` signed Gaussian bumps over `extent`.
  DisadvantageField(const BoundingBox& extent, int num_bumps, Rng& rng);

  /// Raw field value at `p` (unbounded; roughly in [-2, 2]).
  double Raw(const Point& p) const;

  /// Field value squashed into [0, 1] via a logistic transform; 1 means most
  /// disadvantaged.
  double Normalized(const Point& p) const;

 private:
  struct Bump {
    Point center;
    double amplitude;
    double inv_two_sigma_sq;
  };
  std::vector<Bump> bumps_;
};

}  // namespace fairidx

#endif  // FAIRIDX_DATA_EDGAP_SYNTHETIC_H_
