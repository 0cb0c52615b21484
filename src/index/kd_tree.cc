#include "index/kd_tree.h"

#include <cmath>
#include <utility>

#include "common/thread_pool.h"

namespace fairidx {
namespace {

// Builds the (left, right) rects for a candidate split of `rect` at
// `offset` along `axis`.
void SplitRects(const CellRect& rect, int axis, int offset, CellRect* left,
                CellRect* right) {
  *left = rect;
  *right = rect;
  if (axis == 0) {
    left->row_end = rect.row_begin + offset;
    right->row_begin = rect.row_begin + offset;
  } else {
    left->col_end = rect.col_begin + offset;
    right->col_begin = rect.col_begin + offset;
  }
}

// Shared argmin loop of Algorithm 2: `children(offset, &left, &right)`
// supplies the child aggregates; selection and tie-breaking are identical
// for every scan engine.
template <typename ChildrenFn>
KdSplit ScanOffsets(const CellRect& rect, int axis,
                    const SplitObjectiveOptions& options,
                    ChildrenFn&& children) {
  KdSplit best;
  best.axis = axis;
  const int extent = axis == 0 ? rect.num_rows() : rect.num_cols();
  if (extent < 2) return best;  // Not splittable along this axis.

  const double center = static_cast<double>(extent) / 2.0;
  double best_center_distance = 0.0;
  for (int offset = 1; offset < extent; ++offset) {
    CellRect left, right;
    SplitRects(rect, axis, offset, &left, &right);
    RegionAggregate left_agg, right_agg;
    children(offset, &left_agg, &right_agg);
    const double objective =
        EvaluateSplit(options, left, left_agg, right, right_agg);
    const double center_distance = std::abs(offset - center);
    const bool better =
        !best.valid || objective < best.objective - 1e-12 ||
        (std::abs(objective - best.objective) <= 1e-12 &&
         center_distance < best_center_distance - 1e-12);
    if (better) {
      best.valid = true;
      best.offset = offset;
      best.left = left;
      best.right = right;
      best.objective = objective;
      best_center_distance = center_distance;
    }
  }
  return best;
}

// The fused incremental sweep. The objective is dispatched ONCE per scan
// (`objective_fn` is a per-kind lambda, so the per-offset work is just the
// two boundary-line reads plus a handful of flops), candidate rects are
// only materialised for the winning offset, and the tie-break distance is
// only computed inside an actual tie. Every floating-point expression and
// comparison matches ScanOffsets + EvaluateSplit, so the selected split is
// bit-identical to the naive reference.
template <typename ObjectiveFn>
KdSplit FusedScan(const GridAggregates& aggregates, const CellRect& rect,
                  int axis, unsigned fields, ObjectiveFn&& objective_fn) {
  KdSplit best;
  best.axis = axis;
  const int extent = axis == 0 ? rect.num_rows() : rect.num_cols();
  if (extent < 2) return best;

  const GridAggregates::SplitSweep sweep(aggregates, rect, axis);
  const double center = static_cast<double>(extent) / 2.0;
  int best_offset = 0;
  double best_objective = 0.0;
  double best_center_distance = 0.0;
  for (int offset = 1; offset < extent; ++offset) {
    RegionAggregate left, right;
    sweep.Children(offset, fields, &left, &right);
    const double objective = objective_fn(left, right, offset);
    bool better = false;
    if (best_offset == 0 || objective < best_objective - 1e-12) {
      better = true;
    } else if (std::abs(objective - best_objective) <= 1e-12) {
      better = std::abs(offset - center) < best_center_distance - 1e-12;
    }
    if (better) {
      best_offset = offset;
      best_objective = objective;
      best_center_distance = std::abs(offset - center);
    }
  }
  best.valid = true;
  best.offset = best_offset;
  best.objective = best_objective;
  SplitRects(rect, axis, best_offset, &best.left, &best.right);
  return best;
}

// Aspect-ratio compactness penalty of a candidate split, computed from the
// child dimensions without materialising rects; evaluates the identical
// expressions to CellRect::AspectRatio + EvaluateSplit (both children are
// non-empty for in-range offsets, so the empty-rect case cannot differ).
double CompactnessPenalty(const CellRect& rect, int axis, int offset) {
  double left_aspect, right_aspect;
  if (axis == 0) {
    left_aspect = AspectRatioOf(offset, rect.num_cols());
    right_aspect = AspectRatioOf(rect.num_rows() - offset, rect.num_cols());
  } else {
    left_aspect = AspectRatioOf(rect.num_rows(), offset);
    right_aspect = AspectRatioOf(rect.num_rows(), rect.num_cols() - offset);
  }
  return (left_aspect + right_aspect) / 2.0 - 1.0;
}

}  // namespace

KdSplit FindBestSplit(const GridAggregates& aggregates, const CellRect& rect,
                      int axis, const SplitObjectiveOptions& options) {
  const unsigned fields = RequiredAggregateFields(options);
  const double weight = options.compactness_weight;
  // Composes the per-kind core with the (usually disabled) compactness
  // term; the weight test mirrors EvaluateSplit's.
  auto scan = [&](auto&& core) {
    return FusedScan(aggregates, rect, axis, fields,
                     [&](const RegionAggregate& left,
                         const RegionAggregate& right, int offset) {
                       double objective = core(left, right);
                       if (weight > 0.0) {
                         objective += weight * (left.count + right.count) *
                                      CompactnessPenalty(rect, axis, offset);
                       }
                       return objective;
                     });
  };
  switch (options.kind) {
    case SplitObjectiveKind::kPaperEq9:
      return scan([](const RegionAggregate& l, const RegionAggregate& r) {
        return std::abs(l.WeightedMiscalibration() -
                        r.WeightedMiscalibration());
      });
    case SplitObjectiveKind::kMinimaxChild:
      return scan([](const RegionAggregate& l, const RegionAggregate& r) {
        return std::max(l.WeightedMiscalibration(),
                        r.WeightedMiscalibration());
      });
    case SplitObjectiveKind::kWeightedSum:
      return scan([](const RegionAggregate& l, const RegionAggregate& r) {
        return l.WeightedMiscalibration() + r.WeightedMiscalibration();
      });
    case SplitObjectiveKind::kResidualBalanceEq13:
      return scan([](const RegionAggregate& l, const RegionAggregate& r) {
        return std::abs(l.count * l.AbsResidualSum() -
                        r.count * r.AbsResidualSum());
      });
    case SplitObjectiveKind::kResidualBalanceEq9:
      return scan([](const RegionAggregate& l, const RegionAggregate& r) {
        return std::abs(l.AbsResidualSum() - r.AbsResidualSum());
      });
    case SplitObjectiveKind::kMedianCount:
      return scan([](const RegionAggregate& l, const RegionAggregate& r) {
        return std::abs(l.count - r.count);
      });
  }
  // Unreachable for valid kinds; fall back to the reference scan.
  return FindBestSplitNaive(aggregates, rect, axis, options);
}

KdSplit FindBestSplitNaive(const GridAggregates& aggregates,
                           const CellRect& rect, int axis,
                           const SplitObjectiveOptions& options) {
  return ScanOffsets(rect, axis, options,
                     [&](int offset, RegionAggregate* left,
                         RegionAggregate* right) {
                       CellRect left_rect, right_rect;
                       SplitRects(rect, axis, offset, &left_rect,
                                  &right_rect);
                       *left = aggregates.Query(left_rect);
                       *right = aggregates.Query(right_rect);
                     });
}

namespace {

KdSplit ScanSplit(const GridAggregates& aggregates, const CellRect& rect,
                  int axis, const SplitObjectiveOptions& options,
                  SplitScanEngine engine) {
  return engine == SplitScanEngine::kNaiveReference
             ? FindBestSplitNaive(aggregates, rect, axis, options)
             : FindBestSplit(aggregates, rect, axis, options);
}

KdSplit ScanSplitWithFallback(const GridAggregates& aggregates,
                              const CellRect& rect, int preferred_axis,
                              const SplitObjectiveOptions& options,
                              SplitScanEngine engine) {
  KdSplit split = ScanSplit(aggregates, rect, preferred_axis, options,
                            engine);
  if (!split.valid) {
    split = ScanSplit(aggregates, rect, 1 - preferred_axis, options, engine);
  }
  return split;
}

KdSplit ScanSplitAnyAxis(const GridAggregates& aggregates,
                         const CellRect& rect, int preferred_axis,
                         const SplitObjectiveOptions& options,
                         SplitScanEngine engine) {
  const KdSplit preferred =
      ScanSplit(aggregates, rect, preferred_axis, options, engine);
  const KdSplit other =
      ScanSplit(aggregates, rect, 1 - preferred_axis, options, engine);
  if (!preferred.valid) return other;
  if (!other.valid) return preferred;
  return other.objective < preferred.objective - 1e-12 ? other : preferred;
}

}  // namespace

KdSplit FindBestSplitWithFallback(const GridAggregates& aggregates,
                                  const CellRect& rect, int preferred_axis,
                                  const SplitObjectiveOptions& options) {
  return ScanSplitWithFallback(aggregates, rect, preferred_axis, options,
                               SplitScanEngine::kFused);
}

KdSplit FindBestSplitAnyAxis(const GridAggregates& aggregates,
                             const CellRect& rect, int preferred_axis,
                             const SplitObjectiveOptions& options) {
  return ScanSplitAnyAxis(aggregates, rect, preferred_axis, options,
                          SplitScanEngine::kFused);
}

namespace {

// Decides whether the node `rect` with `remaining_height` splits (filling
// `*split`) or becomes a leaf. The one home of the split rule: the full
// build, the maintainer's subtree re-splits and hence every KD partition
// go through it.
bool SplitNode(const GridAggregates& aggregates, const CellRect& rect,
               int remaining_height, const KdTreeOptions& options,
               KdSplit* split, long long* num_scans) {
  if (remaining_height == 0 || rect.num_cells() <= 1) return false;
  if (options.early_stop_weighted_miscalibration >= 0.0 &&
      aggregates.Query(rect).sum_cell_abs_miscalibration <=
          options.early_stop_weighted_miscalibration) {
    return false;
  }
  const int axis = remaining_height % 2;
  ++*num_scans;
  *split = options.axis_policy == AxisPolicy::kBestObjective
               ? ScanSplitAnyAxis(aggregates, rect, axis, options.objective,
                                  options.scan_engine)
               : ScanSplitWithFallback(aggregates, rect, axis,
                                       options.objective,
                                       options.scan_engine);
  return split->valid;
}

// DFS recursion of Algorithm 1, recording a preorder KdTreeNode trail.
// `remaining_height` is th; under the alternating policy, axis = th mod 2.
// Children are appended directly after their parent (left subtree first),
// matching the DFS leaf order.
void BuildRecorded(const GridAggregates& aggregates, const CellRect& rect,
                   int remaining_height, const KdTreeOptions& options,
                   KdSubtreeRecording* out) {
  const size_t index = out->nodes.size();
  out->nodes.push_back(KdTreeNode{rect, -1, -1, remaining_height});
  KdSplit split;
  if (!SplitNode(aggregates, rect, remaining_height, options, &split,
                 &out->num_split_scans)) {
    out->leaves.push_back(rect);
    return;
  }
  out->nodes[index].left = static_cast<int>(out->nodes.size());
  BuildRecorded(aggregates, split.left, remaining_height - 1, options, out);
  out->nodes[index].right = static_cast<int>(out->nodes.size());
  BuildRecorded(aggregates, split.right, remaining_height - 1, options, out);
}

}  // namespace

Result<KdTreeResult> BuildKdTreePartition(const Grid& grid,
                                          const GridAggregates& aggregates,
                                          const KdTreeOptions& options) {
  if (options.height < 0) {
    return InvalidArgumentError("KD tree: height must be >= 0");
  }
  if (aggregates.rows() != grid.rows() || aggregates.cols() != grid.cols()) {
    return InvalidArgumentError("KD tree: aggregates/grid shape mismatch");
  }
  KdSubtreeRecording recording;
  BuildRecorded(aggregates, grid.FullRect(), options.height, options,
                &recording);
  KdTreeResult out;
  out.num_split_scans = recording.num_split_scans;
  FAIRIDX_ASSIGN_OR_RETURN(Partition partition,
                           Partition::FromRects(grid, recording.leaves));
  out.result.partition = std::move(partition);
  out.result.regions = std::move(recording.leaves);
  return out;
}

Result<KdSubtreeRecording> BuildRecordedKdSubtree(
    const GridAggregates& aggregates, const CellRect& rect,
    int remaining_height, const KdTreeOptions& options) {
  if (remaining_height < 0) {
    return InvalidArgumentError("KD subtree: height must be >= 0");
  }
  if (rect.empty() || rect.row_begin < 0 || rect.col_begin < 0 ||
      rect.row_end > aggregates.rows() || rect.col_end > aggregates.cols()) {
    return InvalidArgumentError("KD subtree: rect outside the aggregates");
  }
  KdSubtreeRecording out;
  BuildRecorded(aggregates, rect, remaining_height, options, &out);
  return out;
}

std::vector<CellRect> SplitAllRegions(const GridAggregates& aggregates,
                                      const std::vector<CellRect>& regions,
                                      int axis,
                                      const SplitObjectiveOptions& options,
                                      AxisPolicy axis_policy,
                                      int num_threads) {
  // Per-region split slots filled via the shared pool (ParallelFor's
  // fixed contiguous chunking), then one ordered concatenation pass: the
  // output is independent of scheduling and thread count.
  const size_t n = regions.size();
  std::vector<KdSplit> splits(n);
  ThreadPool::Shared().ParallelFor(n, num_threads, [&](size_t i) {
    splits[i] =
        axis_policy == AxisPolicy::kBestObjective
            ? FindBestSplitAnyAxis(aggregates, regions[i], axis, options)
            : FindBestSplitWithFallback(aggregates, regions[i], axis,
                                        options);
  });
  std::vector<CellRect> refined;
  refined.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    if (splits[i].valid) {
      refined.push_back(splits[i].left);
      refined.push_back(splits[i].right);
    } else {
      refined.push_back(regions[i]);
    }
  }
  return refined;
}

}  // namespace fairidx
