// QuadTreeMaintainer conformance, alongside the KD maintainer suite: the
// recorded greedy growth must be bit-identical to BuildFairQuadtree,
// Refine on unchanged aggregates must be an exact no-op (so the
// maintained partition stays bit-identical to a from-scratch rebuild at
// zero drift), drifted refines must keep the partition invariants, and
// the registry adapter + FairIndexService must serve the quadtree through
// the same supports_refine seam as the KD trees.

#include "index/quadtree_maintainer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "index/partitioner.h"
#include "service/fair_index_service.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

struct Records {
  std::vector<int> cells;
  std::vector<int> labels;
  std::vector<double> scores;
};

Records RandomRecords(Rng& rng, const Grid& grid, int n) {
  Records records;
  for (int i = 0; i < n; ++i) {
    records.cells.push_back(
        static_cast<int>(rng.NextBounded(grid.num_cells())));
    records.labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
    records.scores.push_back(rng.NextDouble());
  }
  return records;
}

// Label-biased records confined to the top-left `block` x `block` cells:
// only the subtrees over that corner should drift.
void AddCornerDrift(Rng& rng, const Grid& grid, int block, int n,
                    Records* records) {
  for (int i = 0; i < n; ++i) {
    records->cells.push_back(
        grid.CellId(static_cast<int>(rng.NextBounded(block)),
                    static_cast<int>(rng.NextBounded(block))));
    records->labels.push_back(rng.Bernoulli(0.95) ? 1 : 0);
    records->scores.push_back(rng.NextDouble());
  }
}

GridAggregates BuildAggregates(const Grid& grid, const Records& records) {
  return GridAggregates::Build(grid, records.cells, records.labels,
                               records.scores)
      .value();
}

TEST(QuadTreeMaintainerTest, BuildMatchesDirectBuildBitForBit) {
  const Grid grid = MakeGrid(32, 32);
  Rng rng(7);
  const GridAggregates aggregates =
      BuildAggregates(grid, RandomRecords(rng, grid, 3000));
  FairQuadtreeOptions options;
  for (int target : {1, 13, 64, 200}) {
    options.target_regions = target;
    const PartitionResult direct =
        BuildFairQuadtree(grid, aggregates, options).value();
    const QuadTreeMaintainer maintainer =
        QuadTreeMaintainer::Build(grid, aggregates, options).value();
    EXPECT_EQ(direct.regions, maintainer.partition().regions) << target;
    EXPECT_EQ(direct.partition.cell_to_region(),
              maintainer.partition().partition.cell_to_region())
        << target;
  }
}

TEST(QuadTreeMaintainerTest, RefineOnUnchangedAggregatesIsExactNoOp) {
  const Grid grid = MakeGrid(24, 24);
  Rng rng(11);
  const GridAggregates aggregates =
      BuildAggregates(grid, RandomRecords(rng, grid, 2500));
  FairQuadtreeOptions options;
  options.target_regions = 48;
  QuadTreeMaintainer maintainer =
      QuadTreeMaintainer::Build(grid, aggregates, options).value();
  const std::vector<CellRect> before = maintainer.partition().regions;

  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.0;  // Strictest bound: any drift at all.
  const KdRefineStats stats =
      maintainer.Refine(aggregates, refine_options).value();
  EXPECT_FALSE(stats.changed);
  EXPECT_EQ(stats.subtrees_rebuilt, 0);
  EXPECT_EQ(stats.num_split_scans, 0);
  EXPECT_GT(stats.nodes_checked, 0);
  EXPECT_EQ(maintainer.partition().regions, before);

  // At zero drift the maintained partition is bit-identical to a
  // from-scratch rebuild on the same aggregates.
  const PartitionResult rebuild =
      BuildFairQuadtree(grid, aggregates, options).value();
  EXPECT_EQ(maintainer.partition().regions, rebuild.regions);
  EXPECT_EQ(maintainer.partition().partition.cell_to_region(),
            rebuild.partition.cell_to_region());
}

TEST(QuadTreeMaintainerTest, RefineAfterLocalDriftKeepsPartitionInvariants) {
  const Grid grid = MakeGrid(32, 32);
  Rng rng(21);
  Records records = RandomRecords(rng, grid, 4000);
  const GridAggregates before = BuildAggregates(grid, records);
  // Small enough that the ROOT's gap stays under the bound (otherwise the
  // topmost-drifted rule correctly regrows the whole tree), large enough
  // that the corner regions drift far past it.
  AddCornerDrift(rng, grid, /*block=*/8, /*n=*/300, &records);
  const GridAggregates after = BuildAggregates(grid, records);

  FairQuadtreeOptions options;
  options.target_regions = 64;
  QuadTreeMaintainer maintainer =
      QuadTreeMaintainer::Build(grid, before, options).value();
  const std::vector<CellRect> pre_refine = maintainer.partition().regions;

  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.05;
  const KdRefineStats stats =
      maintainer.Refine(after, refine_options).value();
  EXPECT_GT(stats.subtrees_rebuilt, 0);
  EXPECT_TRUE(stats.changed);

  // The maintained cell map must be exactly what FromRects would derive
  // from the maintained region list (region id == position) — this pins
  // the in-place AssignRect patching.
  const std::vector<CellRect>& regions = maintainer.partition().regions;
  const Partition from_rects = Partition::FromRects(grid, regions).value();
  EXPECT_EQ(maintainer.partition().partition.cell_to_region(),
            from_rects.cell_to_region());

  // Localized drift: most leaves survive untouched.
  if (regions.size() == pre_refine.size()) {
    size_t moved = 0;
    for (size_t i = 0; i < regions.size(); ++i) {
      if (!(regions[i] == pre_refine[i])) ++moved;
    }
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, regions.size() / 2);
  }

  // A second refine on the same aggregates is a no-op: re-split subtrees
  // refreshed their snapshots, clean subtrees kept theirs.
  const KdRefineStats again =
      maintainer.Refine(after, refine_options).value();
  EXPECT_FALSE(again.changed);
  EXPECT_EQ(again.subtrees_rebuilt, 0);
}

TEST(QuadTreeMaintainerTest, LeafCountChangingRefineTakesSplicePatchPath) {
  const Grid grid = MakeGrid(16, 16);
  Rng rng(5);
  // Heavily miscalibrated records everywhere: the build grows to the
  // target and the root carries a large miscalibration snapshot.
  Records records;
  AddCornerDrift(rng, grid, /*block=*/16, /*n=*/3000, &records);
  const GridAggregates before = BuildAggregates(grid, records);
  FairQuadtreeOptions options;
  options.target_regions = 16;
  options.min_region_count = 2.0;
  QuadTreeMaintainer maintainer =
      QuadTreeMaintainer::Build(grid, before, options).value();
  const size_t old_regions = maintainer.partition().regions.size();
  ASSERT_GT(old_regions, 1u);

  // After: a single perfectly calibrated record. The root drifts far past
  // the bound, and the regrow stops immediately (count 1 <
  // min_region_count), so the leaf count shrinks — the in-place patch is
  // impossible and the refine must take the compaction-aware splice path.
  Records after_records;
  after_records.cells = {0};
  after_records.labels = {1};
  after_records.scores = {1.0};
  const GridAggregates after = BuildAggregates(grid, after_records);

  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.05;
  const KdRefineStats stats =
      maintainer.Refine(after, refine_options).value();
  EXPECT_TRUE(stats.changed);
  EXPECT_TRUE(stats.patched_splice);
  EXPECT_FALSE(stats.patched_in_place);

  // The spliced cell map must be bitwise what a from-scratch FromRects
  // over the new region list derives — the O(changed area) patch may not
  // diverge from the O(grid) rebuild it replaces.
  const std::vector<CellRect>& regions = maintainer.partition().regions;
  EXPECT_LT(regions.size(), old_regions);
  const Partition rebuilt = Partition::FromRects(grid, regions).value();
  EXPECT_EQ(maintainer.partition().partition.cell_to_region(),
            rebuilt.cell_to_region());
  EXPECT_EQ(maintainer.partition().partition.num_regions(),
            rebuilt.num_regions());
}

TEST(QuadTreeMaintainerTest, RefineRejectsBadArguments) {
  const Grid grid = MakeGrid(8, 8);
  Rng rng(3);
  const GridAggregates aggregates =
      BuildAggregates(grid, RandomRecords(rng, grid, 200));
  FairQuadtreeOptions options;
  options.target_regions = 8;
  QuadTreeMaintainer maintainer =
      QuadTreeMaintainer::Build(grid, aggregates, options).value();

  KdRefineOptions negative;
  negative.drift_bound = -0.5;
  EXPECT_FALSE(maintainer.Refine(aggregates, negative).ok());

  const Grid other = MakeGrid(4, 4);
  const GridAggregates mismatched =
      BuildAggregates(other, RandomRecords(rng, other, 20));
  EXPECT_FALSE(maintainer.Refine(mismatched, KdRefineOptions{}).ok());

  // A negative height through the registry adapter must be rejected (a
  // negative shift count is UB), matching the KD path's contract.
  auto partitioner =
      PartitionerRegistry::Global().Create("fair_quadtree").value();
  PartitionerBuildOptions negative_height;
  negative_height.height = -3;
  EXPECT_FALSE(
      partitioner->BuildFromAggregates(grid, aggregates, negative_height)
          .ok());
}

// The registry adapter exposes the quadtree maintainer through the same
// supports_refine seam as the KD trees: BuildFromAggregates keeps the
// maintained partition, Refine is an exact no-op on unchanged aggregates
// and re-splits on drift.
TEST(QuadTreeMaintainerTest, RegistryAdapterServesRefine) {
  auto partitioner =
      PartitionerRegistry::Global().Create("fair_quadtree").value();
  EXPECT_TRUE(partitioner->capabilities().supports_refine);

  const Grid grid = MakeGrid(24, 24);
  Rng rng(5);
  Records records = RandomRecords(rng, grid, 2000);
  const GridAggregates before = BuildAggregates(grid, records);
  PartitionerBuildOptions build_options;
  build_options.height = 5;  // 32 target regions.
  const PartitionResult* built =
      partitioner->BuildFromAggregates(grid, before, build_options).value();
  ASSERT_NE(built, nullptr);
  const PartitionResult direct =
      BuildFairQuadtree(grid, before, FairQuadtreeOptions{32, 1.0}).value();
  EXPECT_EQ(built->regions, direct.regions);
  ASSERT_NE(partitioner->maintained(), nullptr);

  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.0;
  const KdRefineStats no_op =
      partitioner->Refine(before, refine_options).value();
  EXPECT_FALSE(no_op.changed);

  AddCornerDrift(rng, grid, 6, 600, &records);
  const GridAggregates after = BuildAggregates(grid, records);
  refine_options.drift_bound = 0.02;
  const KdRefineStats drifted =
      partitioner->Refine(after, refine_options).value();
  EXPECT_GT(drifted.subtrees_rebuilt, 0);
  EXPECT_TRUE(
      Partition::FromRects(grid, partitioner->maintained()->regions).ok());
}

// The serving-layer pin, mirroring the KD no-fork test: a FairIndexService
// on "fair_quadtree" driven serially must match the hand-wired loop
// (GridAggregates::Build over the accepted records + QuadTreeMaintainer)
// region for region, at any shard count.
TEST(QuadTreeMaintainerTest, ServiceMatchesHandWiredQuadtreeLoop) {
  const Grid grid = MakeGrid(32, 32);
  Rng rng(2026);
  AggregateBatch warmup;
  for (int i = 0; i < 800; ++i) {
    warmup.Append(static_cast<int>(rng.NextBounded(grid.num_cells())),
                  rng.Bernoulli(0.5) ? 1 : 0, rng.NextDouble());
  }
  std::vector<AggregateBatch> batches;
  for (int b = 0; b < 10; ++b) {
    AggregateBatch batch;
    for (int i = 0; i < 80; ++i) {
      batch.Append(grid.CellId(static_cast<int>(rng.NextBounded(10)),
                               static_cast<int>(rng.NextBounded(10))),
                   rng.Bernoulli(0.9) ? 1 : 0, rng.NextDouble());
    }
    batches.push_back(std::move(batch));
  }
  const int height = 6;
  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.05;

  FairQuadtreeOptions quad_options;
  quad_options.target_regions = 1 << height;
  const QuadTreeMaintainer warm_tree =
      QuadTreeMaintainer::Build(
          grid,
          GridAggregates::Build(grid, warmup.cell_ids, warmup.labels,
                                warmup.scores)
              .value(),
          quad_options)
          .value();

  for (int shards : {1, 3}) {
    SCOPED_TRACE(shards);
    FairIndexServiceOptions service_options;
    service_options.algorithm = "fair_quadtree";
    service_options.build.height = height;
    service_options.store.num_shards = shards;
    service_options.store.num_threads = 2;
    auto service =
        FairIndexService::Create(grid, warmup, service_options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ(*(*service)->regions(), warm_tree.partition().regions);

    QuadTreeMaintainer oracle = warm_tree;  // Copy: fresh warmup tree.
    AggregateBatch accepted = warmup;
    for (const AggregateBatch& batch : batches) {
      ASSERT_TRUE((*service)->Ingest(batch).ok());
      auto refined = (*service)->MaybeRefine(refine_options);
      ASSERT_TRUE(refined.ok()) << refined.status().ToString();

      for (size_t i = 0; i < batch.size(); ++i) {
        accepted.Append(batch.cell_ids[i], batch.labels[i],
                        batch.scores[i]);
      }
      const GridAggregates oracle_aggregates =
          GridAggregates::Build(grid, accepted.cell_ids, accepted.labels,
                                accepted.scores)
              .value();
      auto stats = oracle.Refine(oracle_aggregates, refine_options);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(refined->stats.subtrees_rebuilt, stats->subtrees_rebuilt);
      EXPECT_EQ(refined->stats.changed, stats->changed);
      ASSERT_EQ(*(*service)->regions(), oracle.partition().regions);
      // Region aggregates off the sealed epoch are bit-identical to the
      // oracle's Build.
      const std::vector<RegionAggregate> service_aggs =
          (*service)->QueryRegions();
      const std::vector<RegionAggregate> oracle_aggs =
          oracle_aggregates.QueryMany(oracle.partition().regions);
      ASSERT_EQ(service_aggs.size(), oracle_aggs.size());
      for (size_t i = 0; i < service_aggs.size(); ++i) {
        EXPECT_EQ(service_aggs[i].count, oracle_aggs[i].count);
        EXPECT_EQ(service_aggs[i].sum_labels, oracle_aggs[i].sum_labels);
        EXPECT_EQ(service_aggs[i].sum_scores, oracle_aggs[i].sum_scores);
        EXPECT_EQ(service_aggs[i].sum_residuals,
                  oracle_aggs[i].sum_residuals);
        EXPECT_EQ(service_aggs[i].sum_cell_abs_miscalibration,
                  oracle_aggs[i].sum_cell_abs_miscalibration);
      }
    }
    EXPECT_GT((*service)->total_resplits(), 0);
  }
}

uint64_t U64At(const std::string& blob, size_t offset) {
  return BinaryReader(blob.data() + offset, 8).ReadU64().value();
}

std::string WithU64At(std::string blob, size_t offset, uint64_t value) {
  BinaryWriter out;
  out.PutU64(value);
  return blob.replace(offset, 8, out.buffer());
}

// Every count in a blob is bounded by the bytes left before anything is
// reserved, so a hostile blob fails with DataLoss instead of aborting on
// a huge allocation.
TEST(QuadTreeMaintainerTest, RestoreRejectsCountsBeyondTheBlob) {
  const Grid grid = MakeGrid(8, 8);
  Rng rng(4);
  const GridAggregates aggregates =
      BuildAggregates(grid, RandomRecords(rng, grid, 200));
  FairQuadtreeOptions options;
  options.target_regions = 8;
  const std::string blob =
      QuadTreeMaintainer::Build(grid, aggregates, options).value().Save();
  ASSERT_TRUE(QuadTreeMaintainer::Restore(grid, options, blob).ok());

  // magic, version, then the node, leaf and region counts, each followed
  // by its 76-, 4- and 16-byte entries.
  constexpr size_t kNodesAt = 8;
  const size_t leaves_at = kNodesAt + 8 + U64At(blob, kNodesAt) * 76;
  const size_t regions_at = leaves_at + 8 + U64At(blob, leaves_at) * 4;
  const struct {
    size_t offset;
    size_t entry_bytes;
  } counts[] = {{kNodesAt, 76}, {leaves_at, 4}, {regions_at, 16}};
  for (const auto& count : counts) {
    const uint64_t one_too_many =
        (blob.size() - count.offset - 8) / count.entry_bytes + 1;
    for (const uint64_t value : {one_too_many, uint64_t{1} << 40,
                                 ~uint64_t{0}}) {
      SCOPED_TRACE(std::to_string(count.offset) + ": " +
                   std::to_string(value));
      const auto restored = QuadTreeMaintainer::Restore(
          grid, options, WithU64At(blob, count.offset, value));
      ASSERT_FALSE(restored.ok());
      EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
    }
  }
  // A 16-byte blob: a valid header claiming 2^63 nodes.
  const auto tiny = QuadTreeMaintainer::Restore(
      grid, options,
      WithU64At(blob.substr(0, 16), kNodesAt, uint64_t{1} << 63));
  ASSERT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace fairidx
