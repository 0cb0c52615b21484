#include "index/kd_tree_maintainer.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <utility>

#include "common/binary_io.h"

namespace fairidx {

namespace {

// Drift metric: how far the region's calibration gap moved since the
// snapshot. This is each region's ENCE contribution (up to the global
// normalisation), so a bound on it bounds the region's stake in the
// partition-level ENCE drift.
double DriftOf(const RegionAggregate& now, const RegionAggregate& then) {
  return std::abs(now.Miscalibration() - then.Miscalibration());
}

}  // namespace

Result<KdTreeMaintainer> KdTreeMaintainer::Build(
    const Grid& grid, const GridAggregates& aggregates,
    const KdTreeOptions& options) {
  if (aggregates.rows() != grid.rows() || aggregates.cols() != grid.cols()) {
    return InvalidArgumentError(
        "KdTreeMaintainer: aggregates/grid shape mismatch");
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      KdSubtreeRecording recording,
      BuildRecordedKdSubtree(aggregates, grid.FullRect(), options.height,
                             options));
  KdTreeMaintainer out(grid, options);
  AppendRecording(recording, aggregates, &out.nodes_, &out.leaf_nodes_,
                  &out.tree_.result.regions);
  out.tree_.num_split_scans = recording.num_split_scans;
  FAIRIDX_ASSIGN_OR_RETURN(
      Partition partition,
      Partition::FromRects(grid, out.tree_.result.regions));
  out.tree_.result.partition = std::move(partition);
  return out;
}

double KdTreeMaintainer::MaxLeafDrift(
    Span<RegionAggregate> fresh_leaf_aggregates) const {
  if (fresh_leaf_aggregates.size() != leaf_nodes_.size()) return 0.0;
  double max_drift = 0.0;
  for (size_t i = 0; i < leaf_nodes_.size(); ++i) {
    const double drift = DriftOf(fresh_leaf_aggregates[i],
                                 nodes_[leaf_nodes_[i]].snapshot);
    if (drift > max_drift) max_drift = drift;
  }
  return max_drift;
}

void KdTreeMaintainer::DriftPrepass(Span<RegionAggregate> leaf_aggregates,
                                    double drift_bound,
                                    std::vector<RegionAggregate>* fresh,
                                    RefineScratch* scratch) const {
  const size_t num_nodes = nodes_.size();
  fresh->assign(num_nodes, RegionAggregate{});
  scratch->drifted.assign(num_nodes, 0);
  scratch->subtree_dirty.assign(num_nodes, 0);
  scratch->subtree_end.resize(num_nodes);
  for (size_t i = 0; i < leaf_nodes_.size(); ++i) {
    (*fresh)[leaf_nodes_[i]] = leaf_aggregates[i];
  }
  for (size_t i = num_nodes; i-- > 0;) {
    const Node& node = nodes_[i];
    bool dirty_below = false;
    if (node.node.is_leaf()) {
      scratch->subtree_end[i] = static_cast<int>(i) + 1;
    } else {
      (*fresh)[i] = (*fresh)[node.node.left];
      (*fresh)[i] += (*fresh)[node.node.right];
      scratch->subtree_end[i] = scratch->subtree_end[node.node.right];
      dirty_below = scratch->subtree_dirty[node.node.left] ||
                    scratch->subtree_dirty[node.node.right];
    }
    const bool can_resplit =
        node.node.remaining_height > 0 && node.node.rect.num_cells() > 1;
    const bool drifted =
        can_resplit && DriftOf((*fresh)[i], node.snapshot) > drift_bound;
    scratch->drifted[i] = drifted ? 1 : 0;
    scratch->subtree_dirty[i] = (drifted || dirty_below) ? 1 : 0;
  }
}

bool KdTreeMaintainer::WouldRefine(
    Span<RegionAggregate> fresh_leaf_aggregates,
    const KdRefineOptions& options) const {
  if (fresh_leaf_aggregates.size() != leaf_nodes_.size() ||
      nodes_.empty() || options.drift_bound < 0.0) {
    return false;
  }
  std::vector<RegionAggregate> fresh;
  RefineScratch scratch;
  DriftPrepass(fresh_leaf_aggregates, options.drift_bound, &fresh,
               &scratch);
  return scratch.subtree_dirty[0] != 0;
}

void KdTreeMaintainer::AppendRecording(const KdSubtreeRecording& recording,
                                       const GridAggregates& aggregates,
                                       std::vector<Node>* nodes,
                                       std::vector<int>* leaf_nodes,
                                       std::vector<CellRect>* leaves) {
  const size_t offset = nodes->size();
  // One batched leaf query; internal snapshots are then the bottom-up sums
  // left + right (RegionAggregate is additive over disjoint cell sets).
  // Refine recomputes fresh aggregates with the IDENTICAL scheme, so on
  // unchanged aggregates every node's drift is exactly 0.
  const std::vector<RegionAggregate> leaf_aggregates =
      aggregates.QueryMany(recording.leaves);
  size_t leaf_index = 0;
  for (const KdTreeNode& node : recording.nodes) {
    Node entry;
    entry.node = node;
    if (node.left >= 0) {
      entry.node.left = node.left + static_cast<int>(offset);
    }
    if (node.right >= 0) {
      entry.node.right = node.right + static_cast<int>(offset);
    }
    if (entry.node.is_leaf()) {
      entry.snapshot = leaf_aggregates[leaf_index++];
      leaf_nodes->push_back(static_cast<int>(nodes->size()));
      leaves->push_back(node.rect);
    }
    nodes->push_back(std::move(entry));
  }
  // Children precede parents when walking preorder indices in reverse.
  for (size_t i = nodes->size(); i-- > offset;) {
    Node& entry = (*nodes)[i];
    if (entry.node.is_leaf()) continue;
    entry.snapshot = (*nodes)[entry.node.left].snapshot;
    entry.snapshot += (*nodes)[entry.node.right].snapshot;
  }
}

void KdTreeMaintainer::ApplyPatchInPlace(const Patch& patch,
                                         const GridAggregates& aggregates,
                                         KdRefineStats* stats) {
  const std::vector<RegionAggregate> leaf_aggregates =
      aggregates.QueryMany(patch.recording.leaves);
  size_t leaf_index = 0;
  int leaf_pos = patch.leaf_begin;
  for (size_t j = 0; j < patch.recording.nodes.size(); ++j) {
    const KdTreeNode& rec_node = patch.recording.nodes[j];
    Node& slot = nodes_[static_cast<size_t>(patch.begin) + j];
    slot.node = rec_node;
    if (rec_node.left >= 0) {
      slot.node.left += patch.begin;
      slot.node.right += patch.begin;
      continue;
    }
    slot.snapshot = leaf_aggregates[leaf_index++];
    leaf_nodes_[static_cast<size_t>(leaf_pos)] =
        patch.begin + static_cast<int>(j);
    CellRect& region = tree_.result.regions[static_cast<size_t>(leaf_pos)];
    if (!(region == rec_node.rect)) {
      stats->changed = true;
      region = rec_node.rect;
      // Region id == leaf position, unchanged by a same-size patch, so
      // only the moved leaves' cells are rewritten: O(patch area), no
      // global partition rebuild. (An unmoved leaf's cells already carry
      // leaf_pos, and no other — disjoint — patch touches them.)
      tree_.result.partition.AssignRect(grid_.cols(), rec_node.rect,
                                        leaf_pos);
    }
    ++leaf_pos;
  }
  // Internal snapshots: bottom-up over the patched range (children first
  // in reverse preorder).
  for (size_t j = static_cast<size_t>(patch.end);
       j-- > static_cast<size_t>(patch.begin);) {
    Node& entry = nodes_[j];
    if (entry.node.is_leaf()) continue;
    entry.snapshot = nodes_[entry.node.left].snapshot;
    entry.snapshot += nodes_[entry.node.right].snapshot;
  }
}

Status KdTreeMaintainer::SpliceWithPatches(const std::vector<Patch>& patches,
                                           const GridAggregates& aggregates,
                                           KdRefineStats* stats) {
  // Old index -> new index: every kept index shifts by the cumulative
  // size delta of the patches fully before it. Kept nodes never point
  // INTO a patch range (only exactly at its root, which maps like a kept
  // index since the replacement starts at the same shifted position).
  auto map_index = [&patches](int old_index) {
    int shift = 0;
    for (const Patch& patch : patches) {
      if (patch.end <= old_index) {
        shift += static_cast<int>(patch.recording.nodes.size()) -
                 (patch.end - patch.begin);
      } else {
        break;
      }
    }
    return old_index + shift;
  };

  std::vector<Node> new_nodes;
  std::vector<int> new_leaf_nodes;
  std::vector<CellRect> new_leaves;
  new_nodes.reserve(nodes_.size());
  new_leaf_nodes.reserve(leaf_nodes_.size());
  new_leaves.reserve(tree_.result.regions.size());

  // Kept range copier: verbatim nodes with remapped children.
  auto append_kept = [&](int old_begin, int old_end) {
    for (int i = old_begin; i < old_end; ++i) {
      Node entry = nodes_[static_cast<size_t>(i)];
      if (entry.node.is_leaf()) {
        new_leaf_nodes.push_back(static_cast<int>(new_nodes.size()));
        new_leaves.push_back(entry.node.rect);
      } else {
        entry.node.left = map_index(entry.node.left);
        entry.node.right = map_index(entry.node.right);
      }
      new_nodes.push_back(std::move(entry));
    }
  };

  int old_pos = 0;
  for (const Patch& patch : patches) {
    append_kept(old_pos, patch.begin);
    AppendRecording(patch.recording, aggregates, &new_nodes,
                    &new_leaf_nodes, &new_leaves);
    old_pos = patch.end;
  }
  append_kept(old_pos, static_cast<int>(nodes_.size()));

  stats->changed = new_leaves != tree_.result.regions;
  if (stats->changed) {
    // O(changed area) publication: the current cell map equals
    // FromRects(old regions) — the maintainer invariant — so only the
    // positions whose (rect, id) pair changed need their cells rewritten.
    // New leaves are disjoint and tile the grid (they come from a valid
    // splice), which is exactly DiffRects' premise; the patched map is
    // bit-identical to a full FromRects over the new leaf list
    // (tests/kd_tree_maintainer_test.cc pins this differentially).
    tree_.result.partition.ApplyRectPatch(
        grid_.cols(),
        Partition::DiffRects(tree_.result.regions, new_leaves),
        static_cast<int>(new_leaves.size()));
    tree_.result.regions = std::move(new_leaves);
    stats->patched_splice = true;
  }
  nodes_ = std::move(new_nodes);
  leaf_nodes_ = std::move(new_leaf_nodes);
  return Status::Ok();
}

Result<KdRefineStats> KdTreeMaintainer::Refine(
    const GridAggregates& aggregates, const KdRefineOptions& options) {
  if (aggregates.rows() != grid_.rows() ||
      aggregates.cols() != grid_.cols()) {
    return InvalidArgumentError(
        "KdTreeMaintainer: aggregates/grid shape mismatch");
  }
  if (options.drift_bound < 0.0) {
    return InvalidArgumentError(
        "KdTreeMaintainer: drift bound must be >= 0");
  }

  // Pre-pass: fresh per-node aggregates via the same batched-leaf +
  // bottom-up-sum scheme the snapshots were built with (one prefetched
  // QueryMany instead of a scattered Query per node, and bit-identical
  // drift-0 behaviour on unchanged aggregates), folded together with the
  // drift flags, dirty-subtree marks and preorder subtree extents.
  const size_t num_nodes = nodes_.size();
  std::vector<RegionAggregate> fresh;
  RefineScratch scratch;
  DriftPrepass(aggregates.QueryMany(tree_.result.regions),
               options.drift_bound, &fresh, &scratch);

  KdRefineStats stats;
  stats.nodes_checked = static_cast<int>(num_nodes);
  if (num_nodes == 0 || !scratch.subtree_dirty[0]) {
    return stats;  // Nothing drifted anywhere: full no-op.
  }

  // Topmost drifted subtree roots, in preorder (disjoint by construction:
  // the descent stops at the first drifted node on each path).
  std::vector<int> roots;
  {
    std::vector<int> stack;
    stack.push_back(0);
    while (!stack.empty()) {
      const int i = stack.back();
      stack.pop_back();
      if (!scratch.subtree_dirty[i]) continue;
      if (scratch.drifted[i]) {
        roots.push_back(i);
        continue;
      }
      const Node& node = nodes_[static_cast<size_t>(i)];
      if (node.node.is_leaf()) continue;
      stack.push_back(node.node.right);  // Left pops first: preorder.
      stack.push_back(node.node.left);
    }
  }

  // Re-split each drifted subtree on the fresh aggregates — the same
  // decisions a full rebuild would take there.
  std::vector<Patch> patches;
  patches.reserve(roots.size());
  bool in_place = true;
  for (int root : roots) {
    const Node& node = nodes_[static_cast<size_t>(root)];
    Patch patch;
    patch.begin = root;
    patch.end = scratch.subtree_end[root];
    FAIRIDX_ASSIGN_OR_RETURN(
        patch.recording,
        BuildRecordedKdSubtree(aggregates, node.node.rect,
                               node.node.remaining_height, options_));
    ++stats.subtrees_rebuilt;
    stats.num_split_scans += patch.recording.num_split_scans;
    patch.leaf_begin = static_cast<int>(
        std::lower_bound(leaf_nodes_.begin(), leaf_nodes_.end(),
                         patch.begin) -
        leaf_nodes_.begin());
    const int leaf_end = static_cast<int>(
        std::lower_bound(leaf_nodes_.begin(), leaf_nodes_.end(),
                         patch.end) -
        leaf_nodes_.begin());
    patch.leaf_count = leaf_end - patch.leaf_begin;
    in_place = in_place &&
               patch.recording.nodes.size() ==
                   static_cast<size_t>(patch.end - patch.begin) &&
               patch.recording.leaves.size() ==
                   static_cast<size_t>(patch.leaf_count);
    patches.push_back(std::move(patch));
  }

  if (in_place) {
    // Same-size replacements: nothing outside the patches moves, so the
    // tree, the leaf list and the partition are all patched in place —
    // O(drifted area), no O(UV) rebuild.
    for (const Patch& patch : patches) {
      ApplyPatchInPlace(patch, aggregates, &stats);
    }
    stats.patched_in_place = true;
    return stats;
  }
  FAIRIDX_RETURN_IF_ERROR(SpliceWithPatches(patches, aggregates, &stats));
  return stats;
}

namespace {

constexpr uint32_t kKdMaintainerMagic = 0x46584B4Du;  // "FXKM"
// The blob carries no partition: the maintainer invariant is cell map ==
// FromRects(regions), so Restore rebuilds it from the region rects. Blobs
// are O(tree), not O(grid), which is what keeps link checkpoints
// O(changed). Version-1 blobs, which embedded the partition, are refused.
constexpr uint32_t kKdMaintainerVersion = 2;
// Serialized entry sizes, which bound the untrusted counts in a blob.
constexpr size_t kRectBytes = 4 * sizeof(int32_t);
constexpr size_t kNodeBytes = kRectBytes + 3 * sizeof(int32_t) +
                              5 * sizeof(double);

void PutRect(BinaryWriter* out, const CellRect& rect) {
  out->PutI32(rect.row_begin);
  out->PutI32(rect.row_end);
  out->PutI32(rect.col_begin);
  out->PutI32(rect.col_end);
}

Result<CellRect> ReadRect(BinaryReader* in) {
  CellRect rect;
  FAIRIDX_ASSIGN_OR_RETURN(rect.row_begin, in->ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(rect.row_end, in->ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(rect.col_begin, in->ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(rect.col_end, in->ReadI32());
  return rect;
}

void PutAggregate(BinaryWriter* out, const RegionAggregate& agg) {
  out->PutDouble(agg.count);
  out->PutDouble(agg.sum_labels);
  out->PutDouble(agg.sum_scores);
  out->PutDouble(agg.sum_residuals);
  out->PutDouble(agg.sum_cell_abs_miscalibration);
}

Result<RegionAggregate> ReadAggregate(BinaryReader* in) {
  RegionAggregate agg;
  FAIRIDX_ASSIGN_OR_RETURN(agg.count, in->ReadDouble());
  FAIRIDX_ASSIGN_OR_RETURN(agg.sum_labels, in->ReadDouble());
  FAIRIDX_ASSIGN_OR_RETURN(agg.sum_scores, in->ReadDouble());
  FAIRIDX_ASSIGN_OR_RETURN(agg.sum_residuals, in->ReadDouble());
  FAIRIDX_ASSIGN_OR_RETURN(agg.sum_cell_abs_miscalibration,
                           in->ReadDouble());
  return agg;
}

}  // namespace

std::string KdTreeMaintainer::Save() const {
  BinaryWriter out;
  out.PutU32(kKdMaintainerMagic);
  out.PutU32(kKdMaintainerVersion);
  out.PutI64(tree_.num_split_scans);
  out.PutU64(nodes_.size());
  for (const Node& node : nodes_) {
    PutRect(&out, node.node.rect);
    out.PutI32(node.node.left);
    out.PutI32(node.node.right);
    out.PutI32(node.node.remaining_height);
    PutAggregate(&out, node.snapshot);
  }
  out.PutU64(leaf_nodes_.size());
  for (int leaf : leaf_nodes_) out.PutI32(leaf);
  out.PutU64(tree_.result.regions.size());
  for (const CellRect& rect : tree_.result.regions) PutRect(&out, rect);
  return out.Release();
}

Result<KdTreeMaintainer> KdTreeMaintainer::Restore(
    const Grid& grid, const KdTreeOptions& options,
    const std::string& blob) {
  BinaryReader in(blob);
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t magic, in.ReadU32());
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t version, in.ReadU32());
  if (magic != kKdMaintainerMagic || version != kKdMaintainerVersion) {
    return DataLossError("KdTreeMaintainer: bad magic or version");
  }
  KdTreeMaintainer maintainer(grid, options);
  FAIRIDX_ASSIGN_OR_RETURN(maintainer.tree_.num_split_scans, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_nodes,
                           in.ReadCount(kNodeBytes));
  if (num_nodes > static_cast<uint64_t>(INT_MAX)) {
    return DataLossError("KdTreeMaintainer: node count exceeds int range");
  }
  maintainer.nodes_.reserve(static_cast<size_t>(num_nodes));
  for (uint64_t i = 0; i < num_nodes; ++i) {
    Node node;
    FAIRIDX_ASSIGN_OR_RETURN(node.node.rect, ReadRect(&in));
    FAIRIDX_ASSIGN_OR_RETURN(node.node.left, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(node.node.right, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(node.node.remaining_height, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(node.snapshot, ReadAggregate(&in));
    const int n = static_cast<int>(num_nodes);
    if (node.node.left >= n || node.node.right >= n) {
      return DataLossError("KdTreeMaintainer: child index out of range");
    }
    maintainer.nodes_.push_back(node);
  }
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_leaves,
                           in.ReadCount(sizeof(int32_t)));
  maintainer.leaf_nodes_.reserve(static_cast<size_t>(num_leaves));
  for (uint64_t i = 0; i < num_leaves; ++i) {
    FAIRIDX_ASSIGN_OR_RETURN(const int32_t leaf, in.ReadI32());
    if (leaf < 0 || static_cast<uint64_t>(leaf) >= num_nodes) {
      return DataLossError("KdTreeMaintainer: leaf index out of range");
    }
    maintainer.leaf_nodes_.push_back(leaf);
  }
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_regions,
                           in.ReadCount(kRectBytes));
  if (num_regions != num_leaves) {
    return DataLossError(
        "KdTreeMaintainer: leaf and region counts disagree");
  }
  maintainer.tree_.result.regions.reserve(static_cast<size_t>(num_regions));
  for (uint64_t i = 0; i < num_regions; ++i) {
    FAIRIDX_ASSIGN_OR_RETURN(const CellRect rect, ReadRect(&in));
    maintainer.tree_.result.regions.push_back(rect);
  }
  // Rebuild the cell map from the leaf rects, which the maintainer
  // invariant guarantees reproduces the saved map bit for bit (and
  // validates coverage in the process).
  FAIRIDX_ASSIGN_OR_RETURN(
      maintainer.tree_.result.partition,
      Partition::FromRects(grid, maintainer.tree_.result.regions));
  if (in.remaining() != 0) {
    return DataLossError("KdTreeMaintainer: trailing bytes in blob");
  }
  return maintainer;
}

}  // namespace fairidx
