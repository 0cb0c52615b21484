// Tests for the recorded KD build and the drift-bounded incremental
// maintainer: recorded builds must match the unrecorded ones leaf for
// leaf, the recorded tree must be structurally sound, Refine on unchanged
// aggregates must be a no-op, and localized drift must trigger localized
// (not global) re-splits.

#include "index/kd_tree_maintainer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"

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

Records MakeRecords(Rng& rng, const Grid& grid, int n) {
  Records r;
  for (int i = 0; i < n; ++i) {
    r.cells.push_back(static_cast<int>(rng.NextBounded(grid.num_cells())));
    r.labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
    r.scores.push_back(rng.NextDouble());
  }
  return r;
}

GridAggregates BuildAggregates(const Grid& grid, const Records& r) {
  return GridAggregates::Build(grid, r.cells, r.labels, r.scores).value();
}

TEST(RecordedKdBuildTest, MatchesUnrecordedBuildAcrossConfigs) {
  Rng rng(71);
  const Grid grid = MakeGrid(24, 17);
  const GridAggregates aggregates =
      BuildAggregates(grid, MakeRecords(rng, grid, 600));
  for (int height : {0, 1, 4, 7}) {
    for (AxisPolicy policy :
         {AxisPolicy::kAlternate, AxisPolicy::kBestObjective}) {
      KdTreeOptions options;
      options.height = height;
      options.axis_policy = policy;
      const KdTreeResult plain =
          BuildKdTreePartition(grid, aggregates, options).value();
      const KdSubtreeRecording recorded =
          BuildRecordedKdSubtree(aggregates, grid.FullRect(), height, options)
              .value();
      EXPECT_EQ(plain.result.regions, recorded.leaves)
          << "height " << height;
      EXPECT_EQ(plain.num_split_scans, recorded.num_split_scans);
      ASSERT_FALSE(recorded.nodes.empty());
      EXPECT_EQ(recorded.nodes[0].rect, grid.FullRect());
    }
  }
}

TEST(RecordedKdBuildTest, RecordedTreeIsStructurallySound) {
  Rng rng(72);
  const Grid grid = MakeGrid(20, 20);
  const GridAggregates aggregates =
      BuildAggregates(grid, MakeRecords(rng, grid, 400));
  KdTreeOptions options;
  options.height = 5;
  const KdSubtreeRecording recording =
      BuildRecordedKdSubtree(aggregates, grid.FullRect(), options.height,
                             options)
          .value();
  const std::vector<KdTreeNode>& nodes = recording.nodes;

  std::vector<CellRect> leaves_in_preorder;
  int internal = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const KdTreeNode& node = nodes[i];
    if (node.is_leaf()) {
      EXPECT_LT(node.right, 0);
      leaves_in_preorder.push_back(node.rect);
      continue;
    }
    ++internal;
    ASSERT_GT(node.left, static_cast<int>(i));
    ASSERT_GT(node.right, node.left);
    ASSERT_LT(node.right, static_cast<int>(nodes.size()));
    const CellRect& left = nodes[node.left].rect;
    const CellRect& right = nodes[node.right].rect;
    // Children exactly tile the parent along one axis.
    EXPECT_EQ(left.num_cells() + right.num_cells(), node.rect.num_cells());
    EXPECT_EQ(nodes[node.left].remaining_height,
              node.remaining_height - 1);
    EXPECT_EQ(nodes[node.right].remaining_height,
              node.remaining_height - 1);
  }
  // Preorder visits leaves in DFS order: identical to the leaf list, and
  // to the plain build's regions.
  EXPECT_EQ(leaves_in_preorder, recording.leaves);
  EXPECT_EQ(recording.leaves,
            BuildKdTreePartition(grid, aggregates, options)
                .value()
                .result.regions);
  EXPECT_EQ(internal + 1, static_cast<int>(recording.leaves.size()));
}

TEST(KdTreeMaintainerTest, RefineOnUnchangedAggregatesIsNoOp) {
  Rng rng(73);
  const Grid grid = MakeGrid(16, 16);
  const GridAggregates aggregates =
      BuildAggregates(grid, MakeRecords(rng, grid, 500));
  KdTreeOptions options;
  options.height = 5;
  KdTreeMaintainer maintainer =
      KdTreeMaintainer::Build(grid, aggregates, options).value();
  const std::vector<CellRect> before = maintainer.tree().result.regions;

  EXPECT_EQ(maintainer.MaxLeafDrift(aggregates.QueryMany(before)), 0.0);

  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.0;
  const KdRefineStats stats =
      maintainer.Refine(aggregates, refine_options).value();
  EXPECT_FALSE(stats.changed);
  EXPECT_EQ(stats.subtrees_rebuilt, 0);
  EXPECT_EQ(stats.num_split_scans, 0);
  EXPECT_GT(stats.nodes_checked, 0);
  EXPECT_EQ(maintainer.tree().result.regions, before);
}

TEST(KdTreeMaintainerTest, LocalizedDriftTriggersLocalizedResplits) {
  Rng rng(74);
  const Grid grid = MakeGrid(32, 32);
  Records base = MakeRecords(rng, grid, 1500);
  const GridAggregates before = BuildAggregates(grid, base);
  KdTreeOptions options;
  options.height = 6;
  KdTreeMaintainer maintainer =
      KdTreeMaintainer::Build(grid, before, options).value();
  const long long full_build_scans = maintainer.tree().num_split_scans;
  const size_t leaf_count = maintainer.tree().result.regions.size();

  // Drift: pile strongly miscalibrated records into one corner block.
  Records drifted = base;
  for (int i = 0; i < 300; ++i) {
    const int row = static_cast<int>(rng.NextBounded(4));
    const int col = static_cast<int>(rng.NextBounded(4));
    drifted.cells.push_back(grid.CellId(row, col));
    drifted.labels.push_back(1);
    drifted.scores.push_back(0.05);
  }
  const GridAggregates after = BuildAggregates(grid, drifted);

  EXPECT_GT(maintainer.MaxLeafDrift(
                after.QueryMany(maintainer.tree().result.regions)),
            0.05);

  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.05;
  const KdRefineStats stats =
      maintainer.Refine(after, refine_options).value();
  EXPECT_GE(stats.subtrees_rebuilt, 1);
  // Localized: the re-splits must cost well under a full rebuild.
  EXPECT_LT(stats.num_split_scans, full_build_scans);
  // Same height budget: the region count stays in the same ballpark.
  EXPECT_LE(maintainer.tree().result.regions.size(), 1u << 6);
  EXPECT_GE(maintainer.tree().result.regions.size(), leaf_count / 2);

  // A second refine against the same aggregates settles: every rebuilt
  // subtree snapshotted `after`, so nothing drifts any more.
  const KdRefineStats again =
      maintainer.Refine(after, refine_options).value();
  EXPECT_FALSE(again.changed);
  EXPECT_EQ(again.subtrees_rebuilt, 0);
}

TEST(KdTreeMaintainerTest, LeafCountChangingRefineTakesSplicePatchPath) {
  const Grid grid = MakeGrid(16, 16);
  Rng rng(76);
  // Strongly miscalibrated records everywhere: with the early-stop bound
  // below every node splits to the full height and the root snapshot
  // carries a large miscalibration.
  Records records;
  for (int i = 0; i < 3000; ++i) {
    records.cells.push_back(
        static_cast<int>(rng.NextBounded(grid.num_cells())));
    records.labels.push_back(rng.Bernoulli(0.95) ? 1 : 0);
    records.scores.push_back(rng.NextDouble());
  }
  const GridAggregates before = BuildAggregates(grid, records);
  KdTreeOptions options;
  options.height = 4;
  options.early_stop_weighted_miscalibration = 0.1;
  KdTreeMaintainer maintainer =
      KdTreeMaintainer::Build(grid, before, options).value();
  const size_t old_regions = maintainer.tree().result.regions.size();
  ASSERT_GT(old_regions, 1u);

  // After: one perfectly calibrated record. The root drifts past the
  // bound, and its re-split early-stops at once (cell-abs miscalibration
  // 0 <= 0.1) — the subtree shrinks to a single leaf, so the in-place
  // patch is impossible and Refine must take the splice path.
  const GridAggregates after =
      GridAggregates::Build(grid, {0}, {1}, {1.0}).value();

  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.05;
  const KdRefineStats stats =
      maintainer.Refine(after, refine_options).value();
  EXPECT_TRUE(stats.changed);
  EXPECT_TRUE(stats.patched_splice);
  EXPECT_FALSE(stats.patched_in_place);

  // Differential pin: the spliced cell map equals a from-scratch
  // FromRects over the new leaf list, bit for bit.
  const std::vector<CellRect>& regions = maintainer.tree().result.regions;
  EXPECT_LT(regions.size(), old_regions);
  const Partition rebuilt = Partition::FromRects(grid, regions).value();
  EXPECT_EQ(maintainer.tree().result.partition.cell_to_region(),
            rebuilt.cell_to_region());
  EXPECT_EQ(maintainer.tree().result.partition.num_regions(),
            rebuilt.num_regions());
}

TEST(KdTreeMaintainerTest, HugeBoundIgnoresDrift) {
  Rng rng(75);
  const Grid grid = MakeGrid(16, 16);
  Records base = MakeRecords(rng, grid, 400);
  const GridAggregates before = BuildAggregates(grid, base);
  KdTreeOptions options;
  options.height = 4;
  KdTreeMaintainer maintainer =
      KdTreeMaintainer::Build(grid, before, options).value();
  const std::vector<CellRect> regions = maintainer.tree().result.regions;

  Records drifted = base;
  for (int i = 0; i < 100; ++i) {
    drifted.cells.push_back(grid.CellId(0, 0));
    drifted.labels.push_back(1);
    drifted.scores.push_back(0.0);
  }
  const GridAggregates after = BuildAggregates(grid, drifted);
  KdRefineOptions refine_options;
  refine_options.drift_bound = 1e9;
  const KdRefineStats stats =
      maintainer.Refine(after, refine_options).value();
  EXPECT_FALSE(stats.changed);
  EXPECT_EQ(stats.subtrees_rebuilt, 0);
  EXPECT_EQ(maintainer.tree().result.regions, regions);
}

TEST(KdTreeMaintainerTest, RefineIsDeterministic) {
  Rng rng(76);
  const Grid grid = MakeGrid(24, 24);
  Records base = MakeRecords(rng, grid, 800);
  const GridAggregates before = BuildAggregates(grid, base);
  KdTreeOptions options;
  options.height = 5;
  KdTreeMaintainer a = KdTreeMaintainer::Build(grid, before, options)
                           .value();
  KdTreeMaintainer b = a;  // Copies maintain independently.

  Records drifted = base;
  for (int i = 0; i < 200; ++i) {
    drifted.cells.push_back(
        grid.CellId(20 + static_cast<int>(rng.NextBounded(4)),
                    20 + static_cast<int>(rng.NextBounded(4))));
    drifted.labels.push_back(0);
    drifted.scores.push_back(0.95);
  }
  const GridAggregates after = BuildAggregates(grid, drifted);
  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.02;
  const KdRefineStats stats_a = a.Refine(after, refine_options).value();
  const KdRefineStats stats_b = b.Refine(after, refine_options).value();
  EXPECT_EQ(stats_a.subtrees_rebuilt, stats_b.subtrees_rebuilt);
  EXPECT_EQ(a.tree().result.regions, b.tree().result.regions);
  EXPECT_EQ(a.tree().result.partition.cell_to_region(),
            b.tree().result.partition.cell_to_region());
}

TEST(KdTreeMaintainerTest, WouldRefineMatchesWhatRefineWouldDo) {
  // WouldRefine is the stream loop's fold trigger; it must fire exactly
  // when Refine would re-split something. In particular a height-0 tree
  // (one full-grid leaf, no budget left) can drift arbitrarily without
  // ever being actionable — the trigger must stay quiet, or the loop
  // would fold its overlay every batch for a guaranteed no-op Refine.
  Rng rng(78);
  const Grid grid = MakeGrid(16, 16);
  Records base = MakeRecords(rng, grid, 300);
  const GridAggregates before = BuildAggregates(grid, base);
  Records drifted = base;
  for (int i = 0; i < 150; ++i) {
    drifted.cells.push_back(0);
    drifted.labels.push_back(1);
    drifted.scores.push_back(0.0);
  }
  const GridAggregates after = BuildAggregates(grid, drifted);
  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.05;

  KdTreeOptions flat;
  flat.height = 0;
  KdTreeMaintainer single =
      KdTreeMaintainer::Build(grid, before, flat).value();
  // Massive drift, but nothing Refine could act on.
  EXPECT_GT(single.MaxLeafDrift(
                after.QueryMany(single.tree().result.regions)),
            0.05);
  EXPECT_FALSE(single.WouldRefine(
      after.QueryMany(single.tree().result.regions), refine_options));
  const KdRefineStats noop =
      single.Refine(after, refine_options).value();
  EXPECT_EQ(noop.subtrees_rebuilt, 0);

  // A real tree over the same drift: the trigger fires and Refine acts.
  KdTreeOptions options;
  options.height = 4;
  KdTreeMaintainer maintainer =
      KdTreeMaintainer::Build(grid, before, options).value();
  ASSERT_TRUE(maintainer.WouldRefine(
      after.QueryMany(maintainer.tree().result.regions), refine_options));
  const KdRefineStats stats =
      maintainer.Refine(after, refine_options).value();
  EXPECT_GE(stats.subtrees_rebuilt, 1);

  // And with no drift at all, the trigger stays quiet.
  EXPECT_FALSE(maintainer.WouldRefine(
      after.QueryMany(maintainer.tree().result.regions),
      refine_options));
}

TEST(KdTreeMaintainerTest, RejectsBadInputs) {
  Rng rng(77);
  const Grid grid = MakeGrid(8, 8);
  const Grid other = MakeGrid(9, 9);
  const GridAggregates aggregates =
      BuildAggregates(grid, MakeRecords(rng, grid, 100));
  const GridAggregates mismatched =
      BuildAggregates(other, MakeRecords(rng, other, 100));
  KdTreeOptions options;
  options.height = 3;
  EXPECT_FALSE(
      KdTreeMaintainer::Build(other, aggregates, options).ok());
  KdTreeMaintainer maintainer =
      KdTreeMaintainer::Build(grid, aggregates, options).value();
  EXPECT_FALSE(maintainer.Refine(mismatched, KdRefineOptions{}).ok());
  KdRefineOptions negative;
  negative.drift_bound = -1.0;
  EXPECT_FALSE(maintainer.Refine(aggregates, negative).ok());
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
TEST(KdTreeMaintainerTest, RestoreRejectsCountsBeyondTheBlob) {
  Rng rng(78);
  const Grid grid = MakeGrid(8, 8);
  const GridAggregates aggregates =
      BuildAggregates(grid, MakeRecords(rng, grid, 100));
  KdTreeOptions options;
  options.height = 3;
  const std::string blob =
      KdTreeMaintainer::Build(grid, aggregates, options).value().Save();
  ASSERT_TRUE(KdTreeMaintainer::Restore(grid, options, blob).ok());

  // magic, version, split scans, then the node, leaf and region counts,
  // each followed by its 68-, 4- and 16-byte entries.
  constexpr size_t kNodesAt = 16;
  const size_t leaves_at = kNodesAt + 8 + U64At(blob, kNodesAt) * 68;
  const size_t regions_at = leaves_at + 8 + U64At(blob, leaves_at) * 4;
  const struct {
    size_t offset;
    size_t entry_bytes;
  } counts[] = {{kNodesAt, 68}, {leaves_at, 4}, {regions_at, 16}};
  for (const auto& count : counts) {
    const uint64_t one_too_many =
        (blob.size() - count.offset - 8) / count.entry_bytes + 1;
    for (const uint64_t value : {one_too_many, uint64_t{1} << 40,
                                 ~uint64_t{0}}) {
      SCOPED_TRACE(std::to_string(count.offset) + ": " +
                   std::to_string(value));
      const auto restored = KdTreeMaintainer::Restore(
          grid, options, WithU64At(blob, count.offset, value));
      ASSERT_FALSE(restored.ok());
      EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
    }
  }
  // A 24-byte blob: a valid header claiming 2^63 nodes.
  const auto tiny = KdTreeMaintainer::Restore(
      grid, options,
      WithU64At(blob.substr(0, 24), kNodesAt, uint64_t{1} << 63));
  ASSERT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace fairidx
