// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Registry adapters for the index-layer partitioners: the structures that
// build straight from grid aggregates (median KD, fair KD, uniform grid,
// fair quadtree, STR slabs) plus the record-level zip-code baseline. Each
// adapter's Build is a thin shim over the algorithm's direct Build* entry
// point, so registry output is bit-identical to a direct call (the
// conformance suite in tests/partitioner_registry_test.cc pins this).
// The model-training algorithms (iterative, multi-objective) register from
// core/core_partitioners.cc.

#include <algorithm>
#include <memory>
#include <utility>

#include "index/kd_tree_maintainer.h"
#include "index/partitioner.h"
#include "index/quadtree.h"
#include "index/quadtree_maintainer.h"
#include "index/str_partition.h"
#include "index/uniform_grid.h"

namespace fairidx {
namespace {

// Shared base for the two KD-tree adapters: translates the build options,
// runs the plain build — or the maintainer's, which keeps the split tree,
// when refine is requested — and keeps the maintainer for Refine.
class KdTreeAdapterBase : public Partitioner {
 public:
  Result<PartitionerOutput> Build(PartitionerContext& context) override {
    FAIRIDX_ASSIGN_OR_RETURN(const GridAggregates* aggregates,
                             Aggregates(context));
    const KdTreeOptions tree_options = TreeOptions(context.options());
    PartitionerOutput out;
    if (context.options().enable_refine) {
      FAIRIDX_ASSIGN_OR_RETURN(
          KdTreeMaintainer maintainer,
          KdTreeMaintainer::Build(context.dataset().grid(), *aggregates,
                                  tree_options));
      out.partition = maintainer.tree().result;
      maintainer_.emplace(std::move(maintainer));
    } else {
      FAIRIDX_ASSIGN_OR_RETURN(
          KdTreeResult tree,
          BuildKdTreePartition(context.dataset().grid(), *aggregates,
                               tree_options));
      out.partition = std::move(tree.result);
    }
    out.model_fits = context.initial_fits();
    return out;
  }

  // The serving layer's entry point: the same recorded maintainer build
  // as the enable_refine path, minus the dataset/model context (the
  // caller's aggregate stream already carries whatever scores the
  // objective reads).
  Result<const PartitionResult*> BuildFromAggregates(
      const Grid& grid, const GridAggregates& aggregates,
      const PartitionerBuildOptions& options) override {
    FAIRIDX_ASSIGN_OR_RETURN(
        KdTreeMaintainer maintainer,
        KdTreeMaintainer::Build(grid, aggregates, TreeOptions(options)));
    maintainer_.emplace(std::move(maintainer));
    return &maintainer_->tree().result;
  }

  Result<KdRefineStats> Refine(const GridAggregates& aggregates,
                               const KdRefineOptions& options) override {
    if (!maintainer_.has_value()) {
      return Partitioner::Refine(aggregates, options);
    }
    return maintainer_->Refine(aggregates, options);
  }

  const PartitionResult* maintained() const override {
    return maintainer_.has_value() ? &maintainer_->tree().result : nullptr;
  }

  Result<std::string> SaveMaintained() const override {
    if (!maintainer_.has_value()) {
      return Partitioner::SaveMaintained();
    }
    return maintainer_->Save();
  }

  Status RestoreMaintained(const Grid& grid,
                           const PartitionerBuildOptions& options,
                           const std::string& blob) override {
    FAIRIDX_ASSIGN_OR_RETURN(
        KdTreeMaintainer maintainer,
        KdTreeMaintainer::Restore(grid, TreeOptions(options), blob));
    maintainer_.emplace(std::move(maintainer));
    return Status::Ok();
  }

 protected:
  /// The aggregates this tree splits on.
  virtual Result<const GridAggregates*> Aggregates(
      PartitionerContext& context) = 0;
  /// The KD options this tree builds with.
  virtual KdTreeOptions TreeOptions(
      const PartitionerBuildOptions& options) const = 0;

 private:
  std::optional<KdTreeMaintainer> maintainer_;
};

class MedianKdTreePartitioner : public KdTreeAdapterBase {
 public:
  const char* name() const override { return "median_kd_tree"; }
  PartitionerCapabilities capabilities() const override {
    PartitionerCapabilities caps;
    caps.supports_refine = true;
    return caps;
  }

 protected:
  Result<const GridAggregates*> Aggregates(
      PartitionerContext& context) override {
    return context.CountAggregates();
  }
  KdTreeOptions TreeOptions(
      const PartitionerBuildOptions& options) const override {
    // The paper's median baseline: count-balancing objective, defaults
    // elsewhere.
    KdTreeOptions tree_options;
    tree_options.height = options.height;
    tree_options.objective.kind = SplitObjectiveKind::kMedianCount;
    return tree_options;
  }
};

class FairKdTreePartitioner : public KdTreeAdapterBase {
 public:
  const char* name() const override { return "fair_kd_tree"; }
  PartitionerCapabilities capabilities() const override {
    PartitionerCapabilities caps;
    caps.needs_initial_scores = true;
    caps.supports_refine = true;
    return caps;
  }

 protected:
  Result<const GridAggregates*> Aggregates(
      PartitionerContext& context) override {
    return context.ScoredAggregates();
  }
  KdTreeOptions TreeOptions(
      const PartitionerBuildOptions& options) const override {
    KdTreeOptions tree_options;
    tree_options.height = options.height;
    tree_options.objective = options.split_objective;
    tree_options.axis_policy = options.axis_policy;
    tree_options.early_stop_weighted_miscalibration =
        options.split_early_stop;
    return tree_options;
  }
};

class UniformGridPartitioner : public Partitioner {
 public:
  const char* name() const override { return "grid_reweighting"; }
  PartitionerCapabilities capabilities() const override {
    return PartitionerCapabilities{};
  }
  Result<PartitionerOutput> Build(PartitionerContext& context) override {
    PartitionerOutput out;
    FAIRIDX_ASSIGN_OR_RETURN(
        out.partition,
        BuildUniformGridPartition(context.dataset().grid(),
                                  context.options().height));
    // The baseline's mitigation acts at training time, not indexing time.
    out.reweight_by_neighborhood = true;
    return out;
  }
};

class ZipCodesPartitioner : public Partitioner {
 public:
  const char* name() const override { return "zip_codes"; }
  PartitionerCapabilities capabilities() const override {
    PartitionerCapabilities caps;
    caps.needs_zip_codes = true;
    caps.produces_cell_partition = false;
    return caps;
  }
  Result<PartitionerOutput> Build(PartitionerContext& context) override {
    if (!context.dataset().has_zip_codes()) {
      return FailedPreconditionError(
          "zip_codes: dataset has no zip codes");
    }
    PartitionerOutput out;
    out.has_cell_partition = false;
    return out;
  }
};

class FairQuadtreePartitioner : public Partitioner {
 public:
  const char* name() const override { return "fair_quadtree"; }
  PartitionerCapabilities capabilities() const override {
    PartitionerCapabilities caps;
    caps.needs_initial_scores = true;
    caps.supports_refine = true;
    return caps;
  }
  Result<PartitionerOutput> Build(PartitionerContext& context) override {
    FAIRIDX_ASSIGN_OR_RETURN(const GridAggregates* aggregates,
                             context.ScoredAggregates());
    FairQuadtreeOptions quad_options;
    quad_options.target_regions = context.target_regions();
    PartitionerOutput out;
    if (context.options().enable_refine) {
      FAIRIDX_ASSIGN_OR_RETURN(
          QuadTreeMaintainer maintainer,
          QuadTreeMaintainer::Build(context.dataset().grid(), *aggregates,
                                    quad_options));
      out.partition = maintainer.partition();
      maintainer_.emplace(std::move(maintainer));
    } else {
      FAIRIDX_ASSIGN_OR_RETURN(
          out.partition, BuildFairQuadtree(context.dataset().grid(),
                                           *aggregates, quad_options));
    }
    out.model_fits = context.initial_fits();
    return out;
  }

  // The serving layer's entry point: same recorded maintainer growth as
  // the enable_refine path, minus the dataset/model context. Mirrors the
  // KD adapters' height -> target map (2^height regions).
  Result<const PartitionResult*> BuildFromAggregates(
      const Grid& grid, const GridAggregates& aggregates,
      const PartitionerBuildOptions& options) override {
    if (options.height < 0) {
      // A negative shift count is UB; the KD path rejects this in its
      // tree build, so match that contract here.
      return InvalidArgumentError(
          "fair_quadtree: height must be >= 0");
    }
    FairQuadtreeOptions quad_options;
    quad_options.target_regions = 1 << std::min(options.height, 30);
    FAIRIDX_ASSIGN_OR_RETURN(
        QuadTreeMaintainer maintainer,
        QuadTreeMaintainer::Build(grid, aggregates, quad_options));
    maintainer_.emplace(std::move(maintainer));
    return &maintainer_->partition();
  }

  Result<KdRefineStats> Refine(const GridAggregates& aggregates,
                               const KdRefineOptions& options) override {
    if (!maintainer_.has_value()) {
      return Partitioner::Refine(aggregates, options);
    }
    return maintainer_->Refine(aggregates, options);
  }

  const PartitionResult* maintained() const override {
    return maintainer_.has_value() ? &maintainer_->partition() : nullptr;
  }

  Result<std::string> SaveMaintained() const override {
    if (!maintainer_.has_value()) {
      return Partitioner::SaveMaintained();
    }
    return maintainer_->Save();
  }

  Status RestoreMaintained(const Grid& grid,
                           const PartitionerBuildOptions& options,
                           const std::string& blob) override {
    if (options.height < 0) {
      return InvalidArgumentError("fair_quadtree: height must be >= 0");
    }
    FairQuadtreeOptions quad_options;
    quad_options.target_regions = 1 << std::min(options.height, 30);
    FAIRIDX_ASSIGN_OR_RETURN(
        QuadTreeMaintainer maintainer,
        QuadTreeMaintainer::Restore(grid, quad_options, blob));
    maintainer_.emplace(std::move(maintainer));
    return Status::Ok();
  }

 private:
  std::optional<QuadTreeMaintainer> maintainer_;
};

class StrSlabsPartitioner : public Partitioner {
 public:
  const char* name() const override { return "str_slabs"; }
  PartitionerCapabilities capabilities() const override {
    return PartitionerCapabilities{};
  }
  Result<PartitionerOutput> Build(PartitionerContext& context) override {
    FAIRIDX_ASSIGN_OR_RETURN(const GridAggregates* aggregates,
                             context.CountAggregates());
    PartitionerOutput out;
    FAIRIDX_ASSIGN_OR_RETURN(
        out.partition,
        BuildStrPartition(context.dataset().grid(), *aggregates,
                          context.target_regions()));
    return out;
  }
};

}  // namespace

void RegisterIndexPartitioners(PartitionerRegistry& registry) {
  registry.Register("median_kd_tree", [] {
    return std::make_unique<MedianKdTreePartitioner>();
  });
  registry.Register("fair_kd_tree", [] {
    return std::make_unique<FairKdTreePartitioner>();
  });
  registry.Register("grid_reweighting", [] {
    return std::make_unique<UniformGridPartitioner>();
  });
  registry.Register("zip_codes", [] {
    return std::make_unique<ZipCodesPartitioner>();
  });
  registry.Register("fair_quadtree", [] {
    return std::make_unique<FairQuadtreePartitioner>();
  });
  registry.Register("str_slabs", [] {
    return std::make_unique<StrSlabsPartitioner>();
  });
}

}  // namespace fairidx
