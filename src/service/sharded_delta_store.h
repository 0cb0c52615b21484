// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// ShardedDeltaStore: the concurrent serving-layer aggregate store, and
// the only streaming path into GridAggregates. Writers append seq-tagged
// batches to the pending set, readers query the last SEALED immutable
// GridAggregates snapshot, and Seal() advances the epoch by folding every
// pending batch into a fresh snapshot on the shared ThreadPool — one task
// per shard.
// Each shard owns a contiguous balanced range of cell ids; its dirty set
// is the restriction of the pending batches to that range, materialized
// by its fold task, so the parallel writes into the dense per-cell sums
// are range-disjoint and never share a cache line.
//
// Epoch lifecycle:
//
//     Ingest(batch)  ->  pending (per-shard slices, tagged with the
//                        batch's global sequence number)
//     Seal()         ->  cut: swap out all pending slices at a consistent
//                        batch boundary, fold them (per shard, in seq
//                        order) into the cumulative per-cell sums,
//                        integrate a new prefix snapshot (into the
//                        buffer the last trim recycled), epoch += 1,
//                        then trim the history to the retention bound
//     Query*()       ->  the last sealed snapshot only (never pending)
//
// Determinism: a sealed epoch is bit-identical to GridAggregates::Build
// over the same records in batch-sequence order (in-batch order within a
// batch), at ANY shard count and ANY writer interleaving. Every cell
// belongs to exactly one shard and each shard applies the captured
// batches in sequence order through GridAggregates::AccumulateRecord, so
// each cell's sums see Build's exact addition sequence; folds integrate
// through GridAggregates::FromCellSums, which shares Build's prefix
// integration.
//
// Thread-safety: Ingest / Seal / Query* / stats may all be called
// concurrently from any thread. Ingest blocks only while a Seal takes its
// cut (a few pointer swaps); the O(UV) fold itself runs outside that
// window. Seals are serialized with each other.

#ifndef FAIRIDX_SERVICE_SHARDED_DELTA_STORE_H_
#define FAIRIDX_SERVICE_SHARDED_DELTA_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geo/grid.h"
#include "geo/grid_aggregates.h"
#include "geo/rect.h"

namespace fairidx {

class WalWriter;  // service/wal.h (which includes this header).

/// One ingest batch: parallel record vectors under the GridAggregates
/// Build contract (labels 0/1, in-grid cells; `residuals` empty defaults
/// each record's residual to score - label).
struct AggregateBatch {
  std::vector<int> cell_ids;
  std::vector<int> labels;
  std::vector<double> scores;
  std::vector<double> residuals;

  size_t size() const { return cell_ids.size(); }

  void Append(int cell_id, int label, double score) {
    cell_ids.push_back(cell_id);
    labels.push_back(label);
    scores.push_back(score);
  }

  /// The records [begin, end) as a fresh batch (residuals sliced when
  /// present) — the stream drivers' per-batch carve.
  AggregateBatch Slice(size_t begin, size_t end) const {
    AggregateBatch out;
    out.cell_ids.assign(cell_ids.begin() + begin, cell_ids.begin() + end);
    out.labels.assign(labels.begin() + begin, labels.begin() + end);
    out.scores.assign(scores.begin() + begin, scores.begin() + end);
    if (!residuals.empty()) {
      out.residuals.assign(residuals.begin() + begin,
                           residuals.begin() + end);
    }
    return out;
  }
};

/// One sealed epoch: its number and the immutable snapshot it published,
/// captured atomically by Seal() (a later concurrent seal cannot swap a
/// newer snapshot into this pair).
struct SealedEpoch {
  long long epoch = 0;
  std::shared_ptr<const GridAggregates> snapshot;
};

/// Tuning for the sharded store.
struct ShardedDeltaStoreOptions {
  /// Number of cell-ownership shards (>= 1). More shards reduce writer
  /// contention and widen the seal fold's parallelism; sealed snapshots
  /// are identical at any value.
  int num_shards = 1;
  /// Max parallelism for the per-shard fold work inside Seal (submitted to
  /// the shared ThreadPool). <= 1 folds on the sealing thread in one
  /// sequence-order pass — which is also what a fold degenerates to when
  /// the shared pool has no workers (single-core hosts), since the
  /// sharded fold's duplicated range scans only pay off when they
  /// actually run concurrently. Either fold accumulates every cell in
  /// the identical serial-replay order.
  int num_threads = 1;
  /// Testing seam: take the sharded range-fold path even on a workerless
  /// pool, so its determinism is pinned on any host.
  bool force_sharded_fold = false;
  /// Optional write-ahead log (service/wal.h), not owned; must outlive
  /// the store. When set, Ingest appends every accepted batch to the log
  /// BEFORE it joins the pending set (a failed append rejects the batch),
  /// and Seal writes its cut record inside the exclusive ingest-gate
  /// window, so WAL file order equals cut order.
  WalWriter* wal = nullptr;
};

/// Maintenance context for a cut, recorded in the WAL so recovery replays
/// the exact seal/refine schedule: `refine` marks a cut taken by
/// MaybeRefine (replay re-runs the refine at `drift_bound` at the same
/// point in the record sequence).
struct SealAnnotation {
  bool refine = false;
  double drift_bound = 0.0;
};

/// Epoch-based sharded aggregate store (see file header).
class ShardedDeltaStore {
 public:
  /// Creates the store and seals epoch 0 over the `warmup` records (pass
  /// an empty batch for an empty epoch-0 snapshot).
  static Result<std::unique_ptr<ShardedDeltaStore>> Build(
      const Grid& grid, const AggregateBatch& warmup,
      const ShardedDeltaStoreOptions& options = {});

  /// Recreates a store from checkpointed sealed state (see
  /// service/checkpoint.h): `cell_sums` are the cumulative per-cell sums
  /// a previous store's CaptureSealedState returned at `epoch` /
  /// `sealed_records`. The rebuilt snapshot goes through FromCellSums —
  /// the same integration every Seal takes — so it is bit-identical to
  /// the snapshot the captured store was serving. Every non-empty cell
  /// (count != 0) is stamped dirty at `epoch`, so CaptureDirtySince(-1)
  /// lists it like any cell a seal touched.
  static Result<std::unique_ptr<ShardedDeltaStore>> Restore(
      const Grid& grid, std::vector<GridAggregates::PrefixEntry> cell_sums,
      long long epoch, long long sealed_records,
      const ShardedDeltaStoreOptions& options = {});

  ShardedDeltaStore(const ShardedDeltaStore&) = delete;
  ShardedDeltaStore& operator=(const ShardedDeltaStore&) = delete;

  /// Validates the whole batch (rejecting it atomically on any bad
  /// record), assigns it the next global sequence number and appends it
  /// to the pending set. Thread-safe; returns the assigned sequence
  /// number, which is the batch's position in the equivalent serial
  /// replay. By value: callers that pass a temporary (the common
  /// build-a-batch-and-ingest loop) move, lvalue callers copy.
  Result<long long> Ingest(AggregateBatch batch);

  /// Folds all pending batches into a fresh immutable snapshot and
  /// publishes it (see file header). A seal with nothing pending keeps
  /// the current epoch. Returns the (possibly unchanged) epoch number
  /// PAIRED with its snapshot — maintenance that must key off exactly
  /// the epoch it sealed uses the pair, not a separate snapshot() call a
  /// concurrent seal could race past.
  Result<SealedEpoch> Seal() { return Seal(SealAnnotation{}); }

  /// Seal with a maintenance annotation: when a WAL is attached, the cut
  /// record carries `annotation` so recovery re-runs the same refine at
  /// the same point in the record sequence. An empty plain cut (nothing
  /// pending, no refine) logs nothing; an empty refine-tagged cut logs a
  /// mid-segment record; a capturing cut rotates the WAL segment.
  Result<SealedEpoch> Seal(const SealAnnotation& annotation);

  /// Consistent snapshot of the sealed state for checkpointing: the
  /// epoch, the records it covers, and the cumulative per-cell sums that
  /// regenerate its GridAggregates bit-identically via Restore. Taken
  /// under the seal lock, so it can never interleave with a fold.
  struct SealedState {
    long long epoch = 0;
    long long sealed_records = 0;
    std::vector<GridAggregates::PrefixEntry> cell_sums;
  };
  SealedState CaptureSealedState() const;

  /// Consistent snapshot of the cells DIRTIED by seals after
  /// `since_epoch`, with their current cumulative sums — the payload of a
  /// checkpoint record (service/checkpoint.h). `cells` is ascending and
  /// `sums` parallel; the values are absolute (overwrite semantics), so
  /// overlaying a base's cells and every link's in chain order onto
  /// zeros regenerates CaptureSealedState().cell_sums bitwise. Cells
  /// touched by the warmup fold count as dirtied at epoch 0, cells a
  /// Restore repopulated at the restored epoch, so since_epoch = -1
  /// lists every non-empty cell. Taken under the seal lock.
  struct DirtyCells {
    long long epoch = 0;
    long long sealed_records = 0;
    std::vector<int> cells;
    std::vector<GridAggregates::PrefixEntry> sums;
  };
  DirtyCells CaptureDirtySince(long long since_epoch) const;

  /// Epoch retention. The store keeps the newest `keep_last` sealed
  /// epochs (keep_last < 1 keeps the newest only, which is also the
  /// bound before any call) plus any older entry whose snapshot is still
  /// externally pinned (a reader holds the shared_ptr). Sets that bound,
  /// trims to it, and every later Seal trims to it too. Returns the
  /// number of entries dropped since the previous call, Seal's trims
  /// included. The first dropped snapshot's prefix array is kept as the
  /// one spare the next Seal integrates into, so a steady seal loop
  /// allocates no fresh snapshot memory.
  int RetainEpochs(int keep_last);

  /// Retained sealed epochs: the newest RetainEpochs bound (1 by
  /// default) plus the older ones readers still pin.
  int history_size() const;

  /// The last sealed snapshot. Never null; stays valid (immutable) for as
  /// long as the caller holds the pointer, however many epochs advance.
  std::shared_ptr<const GridAggregates> snapshot() const;

  /// Batched rectangle aggregates against the last sealed snapshot.
  std::vector<RegionAggregate> QueryMany(Span<CellRect> rects) const;

  /// One rectangle aggregate against the last sealed snapshot.
  RegionAggregate Query(const CellRect& rect) const;

  /// Sealed epochs so far (0 = warmup only).
  long long epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// Records accepted over the store's lifetime (sealed + pending).
  long long num_records() const {
    return num_records_.load(std::memory_order_acquire);
  }
  /// Records covered by the last sealed snapshot.
  long long sealed_records() const {
    return sealed_records_.load(std::memory_order_acquire);
  }
  /// Records ingested but not yet sealed.
  long long pending_records() const {
    return pending_records_.load(std::memory_order_acquire);
  }

  int num_shards() const { return num_shards_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

 private:
  /// One accepted batch, tagged with its global sequence number.
  struct PendingBatch {
    long long seq = 0;
    AggregateBatch batch;
  };

  ShardedDeltaStore(const Grid& grid,
                    std::vector<GridAggregates::PrefixEntry> cell_sums,
                    const ShardedDeltaStoreOptions& options);

  /// Drops the oldest history entries beyond the newest keep_, sparing
  /// reader-pinned ones, and adds the count to retired_. Requires
  /// history_mutex_.
  void TrimHistoryLocked();

  /// Deleter of every snapshot the store publishes: a plain delete,
  /// unless TrimHistoryLocked set `recycle_into` just before releasing
  /// the last reference; the prefix array then moves there instead of
  /// being freed. Moving it inside the deleter orders the move after every
  /// reader's final release of the reference count.
  struct SnapshotDeleter {
    std::vector<GridAggregates::PrefixEntry>* recycle_into = nullptr;
    void operator()(const GridAggregates* snapshot) const;
  };
  static std::shared_ptr<const GridAggregates> MakeSnapshot(
      GridAggregates sealed);

  int rows_;
  int cols_;
  int num_shards_;
  int fold_threads_;
  bool force_sharded_fold_;
  /// Durability hook (may be null); see ShardedDeltaStoreOptions::wal.
  WalWriter* wal_;

  /// Writers hold this shared while assigning a sequence number and
  /// appending their batch; Seal holds it exclusive while taking its cut,
  /// so a cut always lands on a consistent batch boundary (every assigned
  /// seq below the observed next_seq_ is fully appended).
  mutable std::shared_mutex ingest_gate_;
  std::atomic<long long> next_seq_{0};
  /// The accepted-but-unsealed batches, roughly seq-ordered (concurrent
  /// writers may append out of order; Seal sorts its capture). A shard's
  /// dirty set is the restriction of these batches to its cell range,
  /// materialized by the fold tasks — appending one seq-tagged batch
  /// beats writer-side slicing (measured allocation-bound) and keeps
  /// Ingest a single move (or copy, for lvalue callers) + lock.
  std::mutex pending_mutex_;
  std::vector<PendingBatch> pending_;

  /// Serializes Seal calls; also the only writer of cell_sums_ (and the
  /// guard CaptureSealedState reads it under).
  mutable std::mutex seal_mutex_;
  /// Cumulative row-major per-cell raw sums over every SEALED record, in
  /// serial-replay order per cell. Mutated only inside Seal (per-shard
  /// pool tasks write disjoint cells).
  std::vector<GridAggregates::PrefixEntry> cell_sums_;
  /// Per-cell epoch of the last fold that touched the cell (-1 = never),
  /// written alongside cell_sums_ under the same disjoint-range
  /// discipline; CaptureDirtySince filters on it.
  std::vector<long long> cell_dirty_epoch_;

  /// Guards snapshot_ publication.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const GridAggregates> snapshot_;

  std::atomic<long long> epoch_{0};
  std::atomic<long long> num_records_{0};
  std::atomic<long long> sealed_records_{0};
  std::atomic<long long> pending_records_{0};

  /// Retained sealed epochs, oldest first (epoch strictly increasing;
  /// seeded with epoch 0 by Build/Restore). Seal appends, then Seal and
  /// RetainEpochs trim to keep_.
  mutable std::mutex history_mutex_;
  std::vector<SealedEpoch> history_;
  /// Newest epochs the history keeps (>= 1), guarded by history_mutex_.
  size_t keep_ = 1;
  /// Entries trimmed since RetainEpochs last reported, guarded by
  /// history_mutex_ (64-bit: a store nobody asks can seal for years).
  long long retired_ = 0;
  /// At most one recycled prefix array (empty = none), guarded by
  /// history_mutex_: a trim fills it, the next Seal takes it.
  std::vector<GridAggregates::PrefixEntry> spare_;
};

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_SHARDED_DELTA_STORE_H_
