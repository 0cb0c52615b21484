#include "index/quadtree_maintainer.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <functional>
#include <utility>

#include "common/binary_io.h"

namespace fairidx {

namespace {

// Same drift metric as the KD maintainer: how far the region's calibration
// gap moved since the snapshot (the region's ENCE stake, up to the global
// normalisation).
double DriftOf(const RegionAggregate& now, const RegionAggregate& then) {
  return std::abs(now.Miscalibration() - then.Miscalibration());
}

}  // namespace

std::vector<int> QuadTreeMaintainer::AppendRecording(
    const QuadtreeRecording& recording, const GridAggregates& aggregates,
    std::vector<Node>* nodes) {
  const int base = static_cast<int>(nodes->size());
  for (const QuadTreeNode& rec_node : recording.nodes) {
    Node entry;
    entry.rect = rec_node.rect;
    entry.num_children = rec_node.num_children;
    for (int c = 0; c < rec_node.num_children; ++c) {
      entry.children[static_cast<size_t>(c)] =
          base + rec_node.first_child + c;
    }
    nodes->push_back(entry);
  }
  // One batched leaf query; internal snapshots are then the bottom-up
  // child-order sums (RegionAggregate is additive over disjoint cell
  // sets). Refine recomputes fresh aggregates with the IDENTICAL scheme,
  // so on unchanged aggregates every node's drift is exactly 0.
  const std::vector<RegionAggregate> leaf_aggregates =
      aggregates.QueryMany(recording.leaves);
  std::vector<int> leaf_ids;
  leaf_ids.reserve(recording.leaf_nodes.size());
  for (size_t i = 0; i < recording.leaf_nodes.size(); ++i) {
    const int id = base + recording.leaf_nodes[i];
    (*nodes)[static_cast<size_t>(id)].snapshot = leaf_aggregates[i];
    leaf_ids.push_back(id);
  }
  // Children carry larger ids than their parent, so a reverse walk
  // aggregates children before parents.
  for (size_t i = nodes->size(); i-- > static_cast<size_t>(base);) {
    Node& entry = (*nodes)[i];
    if (entry.is_leaf()) continue;
    entry.snapshot = (*nodes)[entry.children[0]].snapshot;
    for (int c = 1; c < entry.num_children; ++c) {
      entry.snapshot +=
          (*nodes)[entry.children[static_cast<size_t>(c)]].snapshot;
    }
  }
  return leaf_ids;
}

Result<QuadTreeMaintainer> QuadTreeMaintainer::Build(
    const Grid& grid, const GridAggregates& aggregates,
    const FairQuadtreeOptions& options) {
  if (aggregates.rows() != grid.rows() || aggregates.cols() != grid.cols()) {
    return InvalidArgumentError(
        "QuadTreeMaintainer: aggregates/grid shape mismatch");
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      QuadtreeRecording recording,
      GrowFairQuadtree(aggregates, grid.FullRect(), options));
  QuadTreeMaintainer out(grid, options);
  out.leaf_nodes_ = AppendRecording(recording, aggregates, &out.nodes_);
  FAIRIDX_ASSIGN_OR_RETURN(
      Partition partition,
      Partition::FromRects(grid, recording.leaves));
  out.partition_.partition = std::move(partition);
  out.partition_.regions = std::move(recording.leaves);
  return out;
}

Result<KdRefineStats> QuadTreeMaintainer::Refine(
    const GridAggregates& aggregates, const KdRefineOptions& options) {
  if (aggregates.rows() != grid_.rows() ||
      aggregates.cols() != grid_.cols()) {
    return InvalidArgumentError(
        "QuadTreeMaintainer: aggregates/grid shape mismatch");
  }
  if (options.drift_bound < 0.0) {
    return InvalidArgumentError(
        "QuadTreeMaintainer: drift bound must be >= 0");
  }

  // Pre-pass: fresh per-node aggregates via the same batched-leaf +
  // bottom-up child-order-sum scheme the snapshots were built with, folded
  // together with the drift flags and dirty-subtree marks.
  const size_t num_nodes = nodes_.size();
  std::vector<RegionAggregate> fresh(num_nodes);
  std::vector<unsigned char> drifted(num_nodes, 0);
  std::vector<unsigned char> subtree_dirty(num_nodes, 0);
  const std::vector<RegionAggregate> leaf_aggregates =
      aggregates.QueryMany(partition_.regions);
  for (size_t i = 0; i < leaf_nodes_.size(); ++i) {
    fresh[static_cast<size_t>(leaf_nodes_[i])] = leaf_aggregates[i];
  }
  for (size_t i = num_nodes; i-- > 0;) {
    const Node& node = nodes_[i];
    bool dirty_below = false;
    if (!node.is_leaf()) {
      fresh[i] = fresh[static_cast<size_t>(node.children[0])];
      for (int c = 1; c < node.num_children; ++c) {
        const size_t child = static_cast<size_t>(node.children[c]);
        fresh[i] += fresh[child];
      }
      for (int c = 0; c < node.num_children; ++c) {
        dirty_below = dirty_below ||
                      subtree_dirty[static_cast<size_t>(node.children[c])];
      }
    }
    const bool can_resplit = node.rect.num_cells() > 1;
    const bool node_drifted =
        can_resplit && DriftOf(fresh[i], node.snapshot) > options.drift_bound;
    drifted[i] = node_drifted ? 1 : 0;
    subtree_dirty[i] = (node_drifted || dirty_below) ? 1 : 0;
  }

  KdRefineStats stats;
  stats.nodes_checked = static_cast<int>(num_nodes);
  if (num_nodes == 0 || !subtree_dirty[0]) {
    return stats;  // Nothing drifted anywhere: full no-op.
  }

  // Topmost drifted subtree roots (disjoint: the descent stops at the
  // first drifted node on each path), in DFS order.
  std::vector<int> roots;
  {
    std::vector<int> stack;
    stack.push_back(0);
    while (!stack.empty()) {
      const int i = stack.back();
      stack.pop_back();
      if (!subtree_dirty[static_cast<size_t>(i)]) continue;
      if (drifted[static_cast<size_t>(i)]) {
        roots.push_back(i);
        continue;
      }
      const Node& node = nodes_[static_cast<size_t>(i)];
      for (int c = node.num_children; c-- > 0;) {
        stack.push_back(node.children[static_cast<size_t>(c)]);
      }
    }
  }

  // Member leaves of each scheduled subtree: patch_of marks the subtree's
  // nodes, then one leaf-list scan collects the (ascending) positions.
  std::vector<int> patch_of(num_nodes, -1);
  std::vector<Patch> patches(roots.size());
  for (size_t p = 0; p < roots.size(); ++p) {
    patches[p].root = roots[p];
    std::vector<int> stack = {roots[p]};
    while (!stack.empty()) {
      const int i = stack.back();
      stack.pop_back();
      patch_of[static_cast<size_t>(i)] = static_cast<int>(p);
      const Node& node = nodes_[static_cast<size_t>(i)];
      for (int c = 0; c < node.num_children; ++c) {
        stack.push_back(node.children[static_cast<size_t>(c)]);
      }
    }
  }
  for (size_t pos = 0; pos < leaf_nodes_.size(); ++pos) {
    const int p = patch_of[static_cast<size_t>(leaf_nodes_[pos])];
    if (p >= 0) patches[static_cast<size_t>(p)].positions.push_back(
        static_cast<int>(pos));
  }

  // Regrow each drifted subtree on the fresh aggregates via the greedy
  // frontier, targeting the leaf count it currently holds so the region
  // budget stays where the build put it.
  bool in_place = true;
  for (Patch& patch : patches) {
    FairQuadtreeOptions sub_options = options_;
    sub_options.target_regions = static_cast<int>(patch.positions.size());
    FAIRIDX_ASSIGN_OR_RETURN(
        patch.recording,
        GrowFairQuadtree(aggregates,
                         nodes_[static_cast<size_t>(patch.root)].rect,
                         sub_options));
    ++stats.subtrees_rebuilt;
    stats.num_split_scans += patch.recording.num_splits;
    in_place = in_place &&
               patch.recording.leaves.size() == patch.positions.size();
  }

  // Rebuild the node array: clean subtrees are copied verbatim (keeping
  // their reference snapshots), scheduled roots are replaced by their
  // regrown recording (snapshots refreshed against the fresh aggregates).
  std::vector<int> patch_root(num_nodes, -1);
  for (size_t p = 0; p < patches.size(); ++p) {
    patch_root[static_cast<size_t>(patches[p].root)] =
        static_cast<int>(p);
  }
  std::vector<Node> new_nodes;
  new_nodes.reserve(num_nodes);
  std::vector<int> old_to_new(num_nodes, -1);
  std::vector<std::vector<int>> patch_leaf_ids(patches.size());
  const std::function<int(int)> copy = [&](int old_id) -> int {
    const int p = patch_root[static_cast<size_t>(old_id)];
    if (p >= 0) {
      const int base = static_cast<int>(new_nodes.size());
      patch_leaf_ids[static_cast<size_t>(p)] = AppendRecording(
          patches[static_cast<size_t>(p)].recording, aggregates, &new_nodes);
      return base;
    }
    const int new_id = static_cast<int>(new_nodes.size());
    new_nodes.push_back(nodes_[static_cast<size_t>(old_id)]);
    old_to_new[static_cast<size_t>(old_id)] = new_id;
    const int num_children = nodes_[static_cast<size_t>(old_id)].num_children;
    for (int c = 0; c < num_children; ++c) {
      const int child = nodes_[static_cast<size_t>(old_id)]
                            .children[static_cast<size_t>(c)];
      new_nodes[static_cast<size_t>(new_id)].children[static_cast<size_t>(c)] =
          copy(child);
    }
    return new_id;
  };
  copy(0);

  if (in_place) {
    // Every regrown subtree kept its leaf count: region id == leaf
    // position is preserved, so only the moved leaves' cells are
    // rewritten — O(drifted area), no O(UV) partition rebuild. (New
    // leaves of one patch are disjoint and tile exactly the cells the
    // patch's old leaves covered, and patches are rect-disjoint, so
    // skipping a position whose rect is unchanged is safe.)
    std::vector<int> new_leaf_nodes(leaf_nodes_.size(), -1);
    for (size_t pos = 0; pos < leaf_nodes_.size(); ++pos) {
      const int old_leaf = leaf_nodes_[pos];
      if (patch_of[static_cast<size_t>(old_leaf)] < 0) {
        new_leaf_nodes[pos] = old_to_new[static_cast<size_t>(old_leaf)];
      }
    }
    for (size_t p = 0; p < patches.size(); ++p) {
      const Patch& patch = patches[p];
      for (size_t j = 0; j < patch.positions.size(); ++j) {
        const size_t pos = static_cast<size_t>(patch.positions[j]);
        new_leaf_nodes[pos] = patch_leaf_ids[p][j];
        const CellRect& fresh_rect = patch.recording.leaves[j];
        if (!(partition_.regions[pos] == fresh_rect)) {
          stats.changed = true;
          partition_.regions[pos] = fresh_rect;
          partition_.partition.AssignRect(grid_.cols(), fresh_rect,
                                          static_cast<int>(pos));
        }
      }
    }
    nodes_ = std::move(new_nodes);
    leaf_nodes_ = std::move(new_leaf_nodes);
    stats.patched_in_place = true;
    return stats;
  }

  // Some subtree changed its leaf count (degenerate-axis growth or
  // min_region_count stops landed differently). Compaction-aware splice:
  // every surviving leaf (kept or size-preserving replacement) stays at
  // its OLD position, so an id shift only happens where a slot was
  // actually freed or the leaf list shrank — the cell-map patch below then
  // touches O(changed area), not the O(grid) a drop-and-compact relabel
  // would force. Size-changing patches free their positions; their fresh
  // leaves, plus any survivor whose old position falls beyond the new
  // leaf count, take the freed slots and the growth tail in ascending
  // slot order.
  std::vector<int> index_in_patch(leaf_nodes_.size(), -1);
  for (const Patch& patch : patches) {
    for (size_t j = 0; j < patch.positions.size(); ++j) {
      index_in_patch[static_cast<size_t>(patch.positions[j])] =
          static_cast<int>(j);
    }
  }
  long long delta = 0;
  for (const Patch& patch : patches) {
    delta += static_cast<long long>(patch.recording.leaves.size()) -
             static_cast<long long>(patch.positions.size());
  }
  const size_t old_k = leaf_nodes_.size();
  const size_t new_k =
      static_cast<size_t>(static_cast<long long>(old_k) + delta);
  if (new_k == 0) {
    return InternalError("QuadTreeMaintainer: splice emptied the leaf list");
  }

  // Open slots below new_k, ascending: positions freed by size-changing
  // patches (a subtree's leaf positions need not be contiguous, so sort),
  // then the growth tail [old_k, new_k).
  std::vector<int> open_slots;
  for (const Patch& patch : patches) {
    if (patch.recording.leaves.size() == patch.positions.size()) continue;
    for (int pos : patch.positions) {
      if (static_cast<size_t>(pos) < new_k) open_slots.push_back(pos);
    }
  }
  std::sort(open_slots.begin(), open_slots.end());
  for (size_t pos = old_k; pos < new_k; ++pos) {
    open_slots.push_back(static_cast<int>(pos));
  }

  // Survivors home in place; evictees (old position >= new_k) and the
  // size-changing patches' fresh leaves queue for open slots in a
  // deterministic order: evictees by ascending old position, then fresh
  // leaves in patch/recording order.
  std::vector<int> new_leaf_nodes(new_k, -1);
  std::vector<CellRect> new_regions(new_k);
  std::vector<std::pair<int, CellRect>> homeless;
  for (size_t pos = 0; pos < old_k; ++pos) {
    const int old_leaf = leaf_nodes_[pos];
    const int p = patch_of[static_cast<size_t>(old_leaf)];
    int node;
    CellRect rect;
    if (p < 0) {
      node = old_to_new[static_cast<size_t>(old_leaf)];
      rect = partition_.regions[pos];
    } else {
      const Patch& patch = patches[static_cast<size_t>(p)];
      if (patch.recording.leaves.size() != patch.positions.size()) {
        continue;  // Freed: this patch's fresh leaves queue below.
      }
      const size_t j = static_cast<size_t>(index_in_patch[pos]);
      node = patch_leaf_ids[static_cast<size_t>(p)][j];
      rect = patch.recording.leaves[j];
    }
    if (pos < new_k) {
      new_leaf_nodes[pos] = node;
      new_regions[pos] = rect;
    } else {
      homeless.emplace_back(node, rect);
    }
  }
  for (size_t p = 0; p < patches.size(); ++p) {
    const Patch& patch = patches[p];
    if (patch.recording.leaves.size() == patch.positions.size()) continue;
    for (size_t j = 0; j < patch.recording.leaves.size(); ++j) {
      homeless.emplace_back(patch_leaf_ids[p][j],
                            patch.recording.leaves[j]);
    }
  }
  if (homeless.size() != open_slots.size()) {
    return InternalError(
        "QuadTreeMaintainer: splice slot accounting out of balance");
  }
  for (size_t i = 0; i < homeless.size(); ++i) {
    const size_t slot = static_cast<size_t>(open_slots[i]);
    new_leaf_nodes[slot] = homeless[i].first;
    new_regions[slot] = homeless[i].second;
  }

  stats.changed = new_regions != partition_.regions;
  if (stats.changed) {
    // O(changed area) publication: the cell map equals FromRects(old
    // regions) — the maintainer invariant — so only positions whose
    // (rect, id) pair changed need their cells rewritten. The new rects
    // are disjoint and tile the grid (survivor rects are untouched and
    // each patch's fresh leaves tile exactly its root's rect), which is
    // DiffRects' premise; tests/quadtree_maintainer_test.cc pins the
    // patched map bitwise equal to a FromRects rebuild.
    partition_.partition.ApplyRectPatch(
        grid_.cols(), Partition::DiffRects(partition_.regions, new_regions),
        static_cast<int>(new_k));
    partition_.regions = std::move(new_regions);
    stats.patched_splice = true;
  }
  nodes_ = std::move(new_nodes);
  leaf_nodes_ = std::move(new_leaf_nodes);
  return stats;
}

namespace {

constexpr uint32_t kQuadMaintainerMagic = 0x4658514Du;  // "FXQM"
// The blob carries no partition: Restore rebuilds it from the region
// rects (see the KD maintainer for the rationale). Version-1 blobs,
// which embedded the partition, are refused.
constexpr uint32_t kQuadMaintainerVersion = 2;
// Serialized entry sizes, which bound the untrusted counts in a blob.
constexpr size_t kRectBytes = 4 * sizeof(int32_t);
constexpr size_t kNodeBytes = kRectBytes + 5 * sizeof(int32_t) +
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

std::string QuadTreeMaintainer::Save() const {
  BinaryWriter out;
  out.PutU32(kQuadMaintainerMagic);
  out.PutU32(kQuadMaintainerVersion);
  out.PutU64(nodes_.size());
  for (const Node& node : nodes_) {
    PutRect(&out, node.rect);
    out.PutI32(node.num_children);
    for (int child : node.children) out.PutI32(child);
    PutAggregate(&out, node.snapshot);
  }
  out.PutU64(leaf_nodes_.size());
  for (int leaf : leaf_nodes_) out.PutI32(leaf);
  out.PutU64(partition_.regions.size());
  for (const CellRect& rect : partition_.regions) PutRect(&out, rect);
  return out.Release();
}

Result<QuadTreeMaintainer> QuadTreeMaintainer::Restore(
    const Grid& grid, const FairQuadtreeOptions& options,
    const std::string& blob) {
  BinaryReader in(blob);
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t magic, in.ReadU32());
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t version, in.ReadU32());
  if (magic != kQuadMaintainerMagic || version != kQuadMaintainerVersion) {
    return DataLossError("QuadTreeMaintainer: bad magic or version");
  }
  QuadTreeMaintainer maintainer(grid, options);
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_nodes,
                           in.ReadCount(kNodeBytes));
  if (num_nodes > static_cast<uint64_t>(INT_MAX)) {
    return DataLossError("QuadTreeMaintainer: node count exceeds int range");
  }
  maintainer.nodes_.reserve(static_cast<size_t>(num_nodes));
  for (uint64_t i = 0; i < num_nodes; ++i) {
    Node node;
    FAIRIDX_ASSIGN_OR_RETURN(node.rect, ReadRect(&in));
    FAIRIDX_ASSIGN_OR_RETURN(node.num_children, in.ReadI32());
    if (node.num_children < 0 || node.num_children > 4) {
      return DataLossError("QuadTreeMaintainer: bad child count");
    }
    for (int& child : node.children) {
      FAIRIDX_ASSIGN_OR_RETURN(child, in.ReadI32());
      if (child >= static_cast<int>(num_nodes)) {
        return DataLossError("QuadTreeMaintainer: child index out of range");
      }
    }
    FAIRIDX_ASSIGN_OR_RETURN(node.snapshot, ReadAggregate(&in));
    maintainer.nodes_.push_back(node);
  }
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_leaves,
                           in.ReadCount(sizeof(int32_t)));
  maintainer.leaf_nodes_.reserve(static_cast<size_t>(num_leaves));
  for (uint64_t i = 0; i < num_leaves; ++i) {
    FAIRIDX_ASSIGN_OR_RETURN(const int32_t leaf, in.ReadI32());
    if (leaf < 0 || static_cast<uint64_t>(leaf) >= num_nodes) {
      return DataLossError("QuadTreeMaintainer: leaf index out of range");
    }
    maintainer.leaf_nodes_.push_back(leaf);
  }
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_regions,
                           in.ReadCount(kRectBytes));
  if (num_regions != num_leaves) {
    return DataLossError(
        "QuadTreeMaintainer: leaf and region counts disagree");
  }
  maintainer.partition_.regions.reserve(static_cast<size_t>(num_regions));
  for (uint64_t i = 0; i < num_regions; ++i) {
    FAIRIDX_ASSIGN_OR_RETURN(const CellRect rect, ReadRect(&in));
    maintainer.partition_.regions.push_back(rect);
  }
  // The maintainer invariant (cell map == FromRects(regions)) lets
  // Restore rebuild the cell map from the region rects, bit for bit,
  // validating coverage in the process.
  FAIRIDX_ASSIGN_OR_RETURN(
      maintainer.partition_.partition,
      Partition::FromRects(grid, maintainer.partition_.regions));
  if (in.remaining() != 0) {
    return DataLossError("QuadTreeMaintainer: trailing bytes in blob");
  }
  return maintainer;
}

}  // namespace fairidx
