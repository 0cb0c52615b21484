// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The Partitioner abstraction: one extensible seam between the index,
// core and tools layers. Every spatial partitioning algorithm — the
// paper's contributions, its baselines, and fairidx's structural
// extensions — implements this interface and registers itself in the
// PartitionerRegistry under its stable name, so the pipeline, the CLI,
// the scenario engine and the benches all dispatch through one factory
// instead of per-layer switch statements. New structures (FiSH-style
// hotspot scans, districting variants, ...) plug in by registering a
// factory; no core or tools change required.
//
// Layering: this header sits in index/ and only sees the layers below the
// pipeline (data, ml, geo). Algorithms that train models mid-build
// (iterative, multi-objective) live in core/ and register themselves from
// there; the initial-score pass a one-shot build needs is injected into
// PartitionerContext as a callback by the caller (core/pipeline.h's
// MakePipelinePartitionerContext wires the paper's stage-1 training).

#ifndef FAIRIDX_INDEX_PARTITIONER_H_
#define FAIRIDX_INDEX_PARTITIONER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/split.h"
#include "geo/grid_aggregates.h"
#include "index/kd_tree.h"
#include "index/kd_tree_maintainer.h"
#include "index/partition.h"
#include "index/split_objective.h"
#include "ml/classifier.h"

namespace fairidx {

/// What a partitioner needs from its context and what it can do. The
/// pipeline validates preconditions from these flags instead of
/// special-casing algorithms.
struct PartitionerCapabilities {
  /// Needs the stage-1 initial confidence scores (a context score hook and
  /// a classifier prototype must be present).
  bool needs_initial_scores = false;
  /// Trains models itself during Build (prototype must be present).
  bool trains_models = false;
  /// Needs a dataset with >= 2 tasks.
  bool needs_multi_task = false;
  /// Needs a dataset with zip codes.
  bool needs_zip_codes = false;
  /// Emits a cell-based partition (false: the algorithm assigns
  /// neighborhoods per record, e.g. zip codes).
  bool produces_cell_partition = true;
  /// Supports drift-bounded incremental maintenance via Refine when the
  /// build ran with PartitionerBuildOptions::enable_refine.
  bool supports_refine = false;
};

/// Algorithm-facing build options (the pipeline maps PipelineOptions onto
/// this; scenario files and direct registry users fill it themselves).
struct PartitionerBuildOptions {
  /// Tree height th; non-tree algorithms target 2^height regions.
  int height = 6;
  int task = 0;
  NeighborhoodEncoding encoding = NeighborhoodEncoding::kNumericId;
  SplitObjectiveOptions split_objective{SplitObjectiveKind::kPaperEq9, 0.0};
  AxisPolicy axis_policy = AxisPolicy::kAlternate;
  /// Early-stop threshold on node weighted miscalibration; < 0 disables.
  double split_early_stop = -1.0;
  /// Multi-objective settings (used only by that partitioner).
  std::vector<double> multi_objective_alphas;
  bool multi_objective_eq9_weighting = false;
  /// Caps the shared-pool parallelism of the model-training partitioners:
  /// the Iterative Fair KD-tree's SplitAllRegions and the multi-objective
  /// per-task fits. Tree builds are serial; every partition is identical
  /// at any value.
  int num_threads = 1;
  /// Record the split tree during Build so Refine works afterwards. Off by
  /// default: when on, the tree partitioners also keep a maintainer (the
  /// partition itself is identical either way).
  bool enable_refine = false;
};

/// Everything a Build emits, in pipeline-neutral form.
struct PartitionerOutput {
  bool has_cell_partition = true;
  PartitionResult partition;
  /// Model fits the build performed (incl. the lazy initial-score fit).
  int model_fits = 0;
  /// The algorithm mitigates at training time: the final fit should apply
  /// Kamiran-Calders reweighting over the produced neighborhoods.
  bool reweight_by_neighborhood = false;
};

/// Shared build context handed to Partitioner::Build. Lazily computes (and
/// caches) the stage-1 initial scores and the training-split aggregates so
/// algorithms share rather than duplicate that work.
class PartitionerContext {
 public:
  /// Trains the initial base-grid model and returns per-record scores.
  using InitialScoreFn = std::function<Result<std::vector<double>>(
      const Dataset& dataset, const TrainTestSplit& split,
      const Classifier& prototype, const PartitionerBuildOptions& options)>;

  /// `prototype` may be null for score-free algorithms; `initial_score_fn`
  /// may be empty when no registered partitioner with needs_initial_scores
  /// will run. All referenced objects must outlive the context.
  PartitionerContext(const Dataset& dataset, const TrainTestSplit& split,
                     const Classifier* prototype,
                     PartitionerBuildOptions options,
                     InitialScoreFn initial_score_fn = nullptr);

  const Dataset& dataset() const { return *dataset_; }
  const TrainTestSplit& split() const { return *split_; }
  const Classifier* prototype() const { return prototype_; }
  const PartitionerBuildOptions& options() const { return options_; }

  /// 2^height clamped to a sane shift.
  int target_regions() const;

  /// Lazily runs the initial-score hook (once) and returns scores for all
  /// records. Counts one model fit in initial_fits().
  Result<const std::vector<double>*> InitialScores();

  /// Training-split aggregates over the initial scores (lazy).
  Result<const GridAggregates*> ScoredAggregates();

  /// Training-split aggregates with all-zero scores — what the
  /// score-agnostic structures (median KD, STR) consume (lazy).
  Result<const GridAggregates*> CountAggregates();

  /// Model fits performed through this context so far.
  int initial_fits() const { return initial_fits_; }

 private:
  Result<GridAggregates> BuildTrainAggregates(
      const std::vector<double>& scores) const;

  const Dataset* dataset_;
  const TrainTestSplit* split_;
  const Classifier* prototype_;
  PartitionerBuildOptions options_;
  InitialScoreFn initial_score_fn_;
  bool scores_ready_ = false;
  std::vector<double> initial_scores_;
  std::optional<GridAggregates> scored_aggregates_;
  std::optional<GridAggregates> count_aggregates_;
  int initial_fits_ = 0;
};

/// One spatial partitioning algorithm. Instances are created per build by
/// the registry and may hold maintenance state between Build and Refine
/// (a registry Create gives a fresh, stateless instance).
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// The registry name ("fair_kd_tree", ...). Stable across releases.
  virtual const char* name() const = 0;

  virtual PartitionerCapabilities capabilities() const = 0;

  /// Builds the partition. Implementations validate their own
  /// preconditions (callers may consult capabilities() first for friendlier
  /// errors).
  virtual Result<PartitionerOutput> Build(PartitionerContext& context) = 0;

  /// Streaming build: constructs the maintained partition straight from
  /// sealed grid aggregates — no dataset, split or model context — and
  /// retains the maintenance state for Refine, returning the maintained
  /// partition (owned by the partitioner, updated by every Refine). This
  /// is the entry point the serving layer (service/fair_index_service.h)
  /// uses: its aggregate stream already carries scores, so structures
  /// that ignore scores (median KD) simply read counts only. Implemented
  /// by the supports_refine structures; the base fails with
  /// FailedPrecondition.
  virtual Result<const PartitionResult*> BuildFromAggregates(
      const Grid& grid, const GridAggregates& aggregates,
      const PartitionerBuildOptions& options);

  /// Incremental maintenance: re-splits the subtrees whose region
  /// calibration gap drifted past options.drift_bound against `aggregates`
  /// (typically a sealed serving-store epoch). Only meaningful after a
  /// Build with enable_refine (or a BuildFromAggregates) on a
  /// supports_refine partitioner; the base implementation fails with
  /// FailedPrecondition.
  virtual Result<KdRefineStats> Refine(const GridAggregates& aggregates,
                                       const KdRefineOptions& options);

  /// The maintained partition after Build/Refine on a refine-enabled
  /// instance; null otherwise.
  virtual const PartitionResult* maintained() const { return nullptr; }

  /// Serializes the complete maintenance state (tree nodes, per-node
  /// drift snapshots, leaf order, partition) to an opaque blob the same
  /// partitioner type can restore bit-identically — the checkpoint path
  /// of the durability layer (service/checkpoint.h). Only meaningful
  /// after BuildFromAggregates/Refine on a supports_refine structure; the
  /// base fails with FailedPrecondition.
  virtual Result<std::string> SaveMaintained() const;

  /// Restores maintenance state saved by SaveMaintained on the same
  /// partitioner type, leaving the instance exactly as if it had run the
  /// original BuildFromAggregates + Refine history: maintained() returns
  /// the saved partition and later Refine calls proceed from the saved
  /// tree. `options` must equal the build options of the saved run (the
  /// blob holds derived tree parameters; callers pass the same options
  /// they would pass BuildFromAggregates). Base: FailedPrecondition.
  virtual Status RestoreMaintained(const Grid& grid,
                                   const PartitionerBuildOptions& options,
                                   const std::string& blob);
};

/// Global name -> factory registry. Thread-safe. Built-in algorithms are
/// registered on first use; external code extends the system either with
/// Register() or the FAIRIDX_REGISTER_PARTITIONER macro.
class PartitionerRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Partitioner>()>;

  static PartitionerRegistry& Global();

  /// Registers a factory; returns false (and keeps the existing entry) on
  /// a duplicate name.
  bool Register(const std::string& name, Factory factory);

  /// Creates a fresh instance, or NotFound listing the known names.
  Result<std::unique_ptr<Partitioner>> Create(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

/// Forces registration of the built-in partitioners (idempotent). The
/// registry calls this itself from Create/Contains/Names; it is public
/// only for code that enumerates before any registry call.
void EnsureBuiltinPartitionersRegistered();

// Internal registration hooks, defined in index/builtin_partitioners.cc
// and core/core_partitioners.cc. Explicit link-time references (instead of
// TU-local static initializers) so a static-library link can never drop
// the built-ins.
void RegisterIndexPartitioners(PartitionerRegistry& registry);
void RegisterCorePartitioners(PartitionerRegistry& registry);

/// Registers a partitioner from a static initializer:
///   FAIRIDX_REGISTER_PARTITIONER("my_algo", [] {
///     return std::make_unique<MyPartitioner>();
///   });
/// Use in translation units that are linked for another reason (tests,
/// tools); object files pulled from a static library only for this
/// initializer may be dropped — prefer an explicit Register call there.
#define FAIRIDX_REGISTER_PARTITIONER(name, ...)                          \
  namespace {                                                            \
  const bool FAIRIDX_PARTITIONER_CONCAT_(kFairidxPartitionerRegistered,  \
                                         __LINE__) =                     \
      ::fairidx::PartitionerRegistry::Global().Register((name),          \
                                                        __VA_ARGS__);    \
  }
#define FAIRIDX_PARTITIONER_CONCAT_INNER_(a, b) a##b
#define FAIRIDX_PARTITIONER_CONCAT_(a, b) \
  FAIRIDX_PARTITIONER_CONCAT_INNER_(a, b)

}  // namespace fairidx

#endif  // FAIRIDX_INDEX_PARTITIONER_H_
