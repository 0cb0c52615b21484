// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// FairIndexService: the concurrent serving front-end for a fair spatial
// index over streaming data. It owns four pieces:
//
//   * a ShardedDeltaStore — the epoch-based sharded aggregate store
//     (writers append per-shard, readers query sealed snapshots);
//   * a registry-built Partitioner (any supports_refine structure: the
//     Fair KD-tree, the median KD-tree, the greedy fair quadtree, ...)
//     holding the maintained partition and its recorded split tree;
//   * the published region list readers serve from;
//   * the published PointLookupIndex snapshot — the point-lookup read
//     path (O(1) "which region is this point in, with what aggregate"),
//     an immutable partition/aggregate pair from one sealed epoch.
//
// The operations compose into the serving loop:
//
//   Ingest(batch)   any number of writer threads, concurrently
//   Query*(...)     any number of reader threads, against the last sealed
//                   epoch and the currently published partition
//   Lookup*(...)    any number of reader threads, wait-free against the
//                   published lookup snapshot (one shared_ptr load; the
//                   snapshot can never be a torn partition/aggregate pair)
//   MaybeRefine()   a maintenance thread: seals an epoch, re-splits the
//                   subtrees whose calibration gap drifted past the bound
//                   AGAINST THAT SEALED EPOCH, and atomically publishes
//                   the new region list. Readers keep serving the previous
//                   partition (and writers keep ingesting) for the whole
//                   re-split; only the final publish swaps a pointer.
//
// MaybeRefine can be caller-driven, or owned by the service itself: a
// MaintenancePolicy (service/maintenance_scheduler.h) seals by pending
// record count or wall clock and refines on measured calibration drift
// from a background thread — the service's own scheduler over a list of
// one (options.auto_maintain), or a TenantRegistry's shared one. The
// scheduler only calls the public thread-safe surface, so hands-off
// operation is behaviorally identical to a caller running the same
// cadence.
//
// Determinism: a sealed epoch is bit-identical to GridAggregates::Build
// over the same records in batch-sequence order (see
// sharded_delta_store.h), and every maintenance decision keys off a
// sealed epoch, so a service driven by one thread reproduces the
// hand-wired loop — Build over the accepted records, then the
// maintainer's Refine — exactly, at any shard count.

#ifndef FAIRIDX_SERVICE_FAIR_INDEX_SERVICE_H_
#define FAIRIDX_SERVICE_FAIR_INDEX_SERVICE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "index/partitioner.h"
#include "service/maintenance_scheduler.h"
#include "service/point_lookup.h"
#include "service/sharded_delta_store.h"
#include "service/wal.h"

namespace fairidx {

/// Durability for a serving instance (see service/wal.h and
/// service/checkpoint.h): every accepted batch is write-ahead logged,
/// sealed state is periodically checkpointed, and Recover() rebuilds a
/// service bit-identical to the uninterrupted run from the newest valid
/// checkpoint plus a WAL tail replay.
struct DurabilityOptions {
  /// Directory for WAL segments and checkpoint files. Empty disables
  /// durability entirely.
  std::string wal_dir;
  /// When WAL appends reach stable storage (none | batch | always; see
  /// WalFsync in service/wal.h). batch and always write() through on
  /// Append, so a process kill loses nothing. none buffers appends in
  /// user space up to WalOptions::buffer_bytes (256 KB) and writes them
  /// at that cap, at every seal and on Close: a kill (SIGKILL) can lose
  /// that buffered window of newest records.
  WalFsync fsync = WalFsync::kBatch;
  /// Write a checkpoint every this many sealed epochs (<= 0: checkpoint
  /// only at Create/Recover). Each checkpoint prunes fully-covered WAL
  /// segments, bounding log disk usage.
  long long checkpoint_interval = 8;
  /// Every Nth periodic checkpoint is a base, listing every cell that
  /// holds records; the others are links carrying only the cells sealed
  /// since the previous checkpoint (see service/checkpoint.h) —
  /// O(changed) instead of O(touched cells). <= 1 makes every checkpoint
  /// a base (the default). Create/Recover always write a base, so every
  /// chain has one on disk. Recovery is bit-identical either way.
  long long full_snapshot_interval = 1;
  /// Checkpoint files kept on disk (older ones are pruned; >= 1).
  int keep_checkpoints = 2;
  /// Fault-injection seam for WAL and checkpoint file I/O; null uses
  /// OpenWritableFile.
  WritableFileFactory file_factory;
};

/// Configuration for a serving instance.
struct FairIndexServiceOptions {
  /// PartitionerRegistry name; must be a supports_refine structure
  /// ("fair_kd_tree", "median_kd_tree", "fair_quadtree").
  std::string algorithm = "fair_kd_tree";
  /// Build options for the partitioner (height, objective, threads, ...).
  PartitionerBuildOptions build;
  /// Sharding / fold-parallelism for the aggregate store.
  ShardedDeltaStoreOptions store;
  /// Default drift bound for MaybeRefine().
  KdRefineOptions refine;
  /// Start the background maintenance thread on Create/Recover
  /// (hands-off serving: the service seals and refines per `maintain`,
  /// no caller MaybeRefine needed).
  bool auto_maintain = false;
  /// Policy for the background thread (auto_maintain, or the
  /// TenantRegistry's shared scheduler).
  MaintenancePolicy maintain;
  /// Write-ahead logging + checkpoints (disabled while wal_dir is empty).
  DurabilityOptions durability;
};

/// What one MaybeRefine pass did.
struct ServiceRefineResult {
  /// The epoch the maintenance pass sealed and keyed off.
  long long epoch = 0;
  /// The underlying tree-maintenance stats (subtrees_rebuilt > 0 and
  /// changed when a new partition was published).
  KdRefineStats stats;
};

/// Concurrent serving façade (see file header). Create once per stream;
/// all public methods are thread-safe.
class FairIndexService {
 public:
  /// Builds the store (epoch 0 = the warmup records) and the initial
  /// partition from that sealed epoch.
  static Result<std::unique_ptr<FairIndexService>> Create(
      const Grid& grid, const AggregateBatch& warmup,
      const FairIndexServiceOptions& options);

  /// Rebuilds a service from options.durability.wal_dir: loads the newest
  /// valid checkpoint, replays the WAL tail (batches per epoch in their
  /// original sequence order, seal/refine records re-applied through the
  /// public path) and resumes logging under a fresh WAL generation. The
  /// recovered service is bit-identical to the uninterrupted run at every
  /// sealed epoch: snapshot cell sums, published partition, epoch and
  /// record counters (unsealed trailing batches return to the pending
  /// set). A torn trailing WAL record (crash mid-append) is detected by
  /// CRC and dropped; corruption anywhere earlier is a hard DataLoss
  /// error. `grid` and `options` must match the original Create call.
  static Result<std::unique_ptr<FairIndexService>> Recover(
      const Grid& grid, const FairIndexServiceOptions& options);

  FairIndexService(const FairIndexService&) = delete;
  FairIndexService& operator=(const FairIndexService&) = delete;

  /// Stops background maintenance (if running) before teardown.
  ~FairIndexService();

  /// Appends one batch to the store's pending set (visible to queries
  /// after the next seal) and wakes the scheduler hosting this service,
  /// if any. Returns the batch's sequence number. By value: temporaries
  /// move all the way into the store.
  Result<long long> Ingest(AggregateBatch batch);

  /// Seals the current epoch (folds pending batches into a fresh
  /// snapshot). Returns the epoch number.
  Result<long long> Seal();

  /// The currently published partition's region rects. The returned
  /// vector is immutable and stays valid across later refines.
  std::shared_ptr<const std::vector<CellRect>> regions() const;

  /// Aggregates of the published partition's regions against the last
  /// sealed epoch — the region-fleet monitoring query (one QueryMany).
  std::vector<RegionAggregate> QueryRegions() const;

  /// Aggregates of caller rects against the last sealed epoch.
  std::vector<RegionAggregate> Query(Span<CellRect> rects) const;

  /// The current point-lookup snapshot (see service/point_lookup.h):
  /// the published partition's flat cell -> region map paired with that
  /// partition's per-region aggregates off ONE sealed epoch. Pin it once
  /// and answer any number of lookups from it — the snapshot stays
  /// immutable and internally consistent however many seals or refines
  /// land meanwhile. Never null after Create/Recover.
  std::shared_ptr<const PointLookupIndex> lookup() const;

  /// O(1) point lookup against the current snapshot: the region id of
  /// the point's cell plus that region's aggregate from the snapshot's
  /// sealed epoch — by construction never a torn partition/aggregate
  /// pair. Points outside the grid clamp to the border cells.
  PointLookupResult Lookup(const Point& p) const;
  PointLookupResult Lookup(double x, double y) const {
    return Lookup(Point{x, y});
  }

  /// Batched point lookups, all answered from ONE snapshot pin: every
  /// result in the batch comes from the same partition and sealed epoch,
  /// and the single pointer load is amortized over the whole batch.
  /// `out` must have room for points.size() entries.
  void LookupMany(Span<Point> points, PointLookupResult* out) const;
  std::vector<PointLookupResult> LookupMany(Span<Point> points) const;

  /// Seals an epoch and evaluates drift at every node of the maintained
  /// tree against it; drifted subtrees are re-split off that sealed
  /// snapshot and the new region list is published atomically at the end.
  /// No drift past the bound -> an exact no-op (stats.changed == false).
  /// Serialized with itself; Ingest and Query* continue concurrently.
  Result<ServiceRefineResult> MaybeRefine(const KdRefineOptions& options);
  Result<ServiceRefineResult> MaybeRefine() {
    return MaybeRefine(options_.refine);
  }

  /// The aggregate store (epoch / record counters, direct snapshots).
  const ShardedDeltaStore& store() const { return *store_; }

  /// Subtree re-splits published over the service's lifetime.
  long long total_resplits() const;

  /// Stops and joins the auto_maintain thread. Idempotent; a no-op
  /// without auto_maintain.
  void StopMaintenance();

  /// Counters of the auto_maintain scheduler, running or stopped; zeros
  /// without auto_maintain.
  MaintenanceStats maintenance_stats() const;

  /// Writes a checkpoint of the current sealed state now (durability must
  /// be enabled), pruning old checkpoints and fully-covered WAL segments.
  Status Checkpoint();

  /// Sets the store's epoch retention (keep the newest `keep_last` sealed
  /// snapshots plus reader-pinned ones; every later seal trims to it) and
  /// returns the entries dropped since the previous call. The background
  /// scheduler calls this when its policy sets retain_epochs.
  int ApplyRetention(int keep_last);

  /// Durability observability (null / 0 when durability is disabled).
  const WalWriter* wal() const { return wal_.get(); }
  long long last_checkpoint_epoch() const;

  /// Worst single publication swap so far: max wall-clock micros spent
  /// inside PublishMaintainedLocked (snapshot build + pointer swap) over
  /// the service's lifetime — what a reader-visible publish stall costs.
  long long max_publish_stall_us() const {
    return max_publish_stall_us_.load(std::memory_order_relaxed);
  }
  /// Worst single checkpoint so far: max wall-clock micros spent writing
  /// one checkpoint (base or link), including pruning.
  long long max_checkpoint_stall_us() const {
    return max_checkpoint_stall_us_.load(std::memory_order_relaxed);
  }

  /// Lifetime partition publications that went out via an O(changed area)
  /// cell-map patch (in-place or splice) vs. a full O(grid) rebuild —
  /// the service-level view of the maintainers' patched paths. Counted
  /// for caller-driven MaybeRefine AND scheduler passes.
  long long publications_patched() const;
  long long publications_fallback() const;

 private:
  friend class MaintenanceScheduler;

  FairIndexService(const Grid& grid, FairIndexServiceOptions options,
                   std::unique_ptr<WalWriter> wal,
                   std::unique_ptr<ShardedDeltaStore> store,
                   std::unique_ptr<Partitioner> partitioner);

  /// Builds and publishes a fresh lookup snapshot pairing the current
  /// partition with `sealed_snapshot`'s aggregates at `epoch`; when
  /// `partition_changed` it freezes a copy of the maintained partition
  /// and atomically swaps regions_ to the same rects object, otherwise
  /// it reuses the published partition/rects (aggregates-only refresh —
  /// regions() pointer identity is preserved, which the zero-drift
  /// no-republish test pins). Requires maintain_mutex_ held: it pins
  /// the maintained partition and orders competing publications so the
  /// epoch-monotonic guard inside can never roll the lookup backwards.
  Status PublishMaintainedLocked(const GridAggregates& sealed_snapshot,
                                 long long epoch, bool partition_changed);

  /// Creates and starts the auto_maintain scheduler over this service.
  Status StartAutoMaintenance();

  /// Called by MaintenanceScheduler::Start/Stop: a service has at most
  /// one host, the scheduler its Ingest wakes. AttachHost returns false
  /// when another scheduler already hosts it.
  bool AttachHost(MaintenanceScheduler* host);
  void DetachHost(MaintenanceScheduler* host);

  /// Checkpoint when the sealed epoch has advanced past the configured
  /// interval since the last one (no-op otherwise / without durability).
  Status MaybeCheckpoint();
  /// Unconditional checkpoint. Lock order: durability_mutex_ ->
  /// maintain_mutex_ -> (store seal lock), the same nesting MaybeRefine's
  /// maintain -> seal path uses. `allow_link` lets the
  /// full_snapshot_interval cadence pick a link; false forces a base
  /// (Create/Recover, so chains always have a base).
  Status WriteCheckpointNow(bool allow_link);

  /// Replays every WAL segment with epoch > `through_epoch` through the
  /// public Ingest/Seal/MaybeRefine path (re-logging into the new
  /// generation). Within each epoch, batches are re-ingested in their
  /// original sequence order, so the fold order — and the sealed sums —
  /// are bit-identical to the uninterrupted run.
  Status ReplayWalTail(const std::vector<WalSegmentInfo>& segments,
                       long long through_epoch);

  /// The base grid (copied in; Grid is a small value type). Lookup
  /// snapshots carry their own copy, so readers never touch this one.
  Grid grid_;
  FairIndexServiceOptions options_;
  /// Write-ahead log (null when durability is disabled). Declared before
  /// store_: the store holds a raw pointer and must be torn down first.
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<ShardedDeltaStore> store_;

  /// Serializes checkpoint writes and guards the checkpoint-chain
  /// bookkeeping below.
  mutable std::mutex durability_mutex_;
  long long last_checkpoint_epoch_ = 0;
  /// (epoch, generation) of the newest checkpoint file — the
  /// predecessor the next link names. The generation stays 0 until this
  /// process writes its first checkpoint.
  long long last_checkpoint_generation_ = 0;
  /// Links written since the last base (drives the
  /// full_snapshot_interval cadence).
  long long checkpoints_since_base_ = 0;

  /// Serializes maintenance (the partitioner's mutable tree state).
  mutable std::mutex maintain_mutex_;
  std::unique_ptr<Partitioner> partitioner_;
  long long total_resplits_ = 0;  // Guarded by maintain_mutex_.
  /// Partition-changing publications by publish path (see the public
  /// accessors). Guarded by maintain_mutex_.
  long long publications_patched_ = 0;
  long long publications_fallback_ = 0;

  /// Lifetime maxima for the publish / checkpoint stall metrics
  /// (fetch-max via CAS; relaxed — observability only).
  std::atomic<long long> max_publish_stall_us_{0};
  std::atomic<long long> max_checkpoint_stall_us_{0};

  /// Publication point readers load; swapped only at the end of a refine.
  mutable std::mutex regions_mutex_;
  std::shared_ptr<const std::vector<CellRect>> regions_;
  /// The point-lookup snapshot (also guarded by regions_mutex_; swapped
  /// together with regions_ on partition changes so lookup()->regions()
  /// and regions() are the SAME object, and refreshed aggregates-only on
  /// plain seals). Epoch-monotonic: only PublishMaintainedLocked swaps it.
  std::shared_ptr<const PointLookupIndex> lookup_;

  /// The running scheduler that maintains this service (its own or a
  /// registry's); null when none runs. Ingest wakes it under the mutex,
  /// so a host cannot be torn down mid-notification.
  std::mutex host_mutex_;
  MaintenanceScheduler* host_ = nullptr;

  /// The auto_maintain scheduler, a list of one (null without
  /// auto_maintain; set before Create/Recover return). It only calls
  /// public methods, so it layers strictly above the other state.
  std::unique_ptr<MaintenanceScheduler> scheduler_;
};

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_FAIR_INDEX_SERVICE_H_
