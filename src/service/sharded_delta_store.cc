#include "service/sharded_delta_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/huge_pages.h"
#include "common/thread_pool.h"
#include "service/wal.h"

namespace fairidx {
namespace {

using PrefixEntry = GridAggregates::PrefixEntry;

}  // namespace

void ShardedDeltaStore::SnapshotDeleter::operator()(
    const GridAggregates* snapshot) const {
  if (recycle_into != nullptr) {
    // Only the store's own reset reaches here with the pointer set, and
    // only on a snapshot it solely owned: nothing else can see it now.
    *recycle_into =
        std::move(*const_cast<GridAggregates*>(snapshot)).ReleaseStorage();
  }
  delete snapshot;
}

std::shared_ptr<const GridAggregates> ShardedDeltaStore::MakeSnapshot(
    GridAggregates sealed) {
  return std::shared_ptr<const GridAggregates>(
      new GridAggregates(std::move(sealed)), SnapshotDeleter{});
}

ShardedDeltaStore::ShardedDeltaStore(const Grid& grid,
                                     std::vector<PrefixEntry> cell_sums,
                                     const ShardedDeltaStoreOptions& options)
    : rows_(grid.rows()),
      cols_(grid.cols()),
      num_shards_(std::max(1, options.num_shards)),
      fold_threads_(std::max(1, options.num_threads)),
      force_sharded_fold_(options.force_sharded_fold),
      wal_(options.wal),
      cell_sums_(std::move(cell_sums)),
      cell_dirty_epoch_(HugePageBackedVector<long long>(
          static_cast<size_t>(grid.num_cells()), -1)) {}

Result<std::unique_ptr<ShardedDeltaStore>> ShardedDeltaStore::Build(
    const Grid& grid, const AggregateBatch& warmup,
    const ShardedDeltaStoreOptions& options) {
  // AccumulateCellSums + FromCellSums is Build split in two, so epoch 0
  // is bit-identical to GridAggregates::Build over the warmup records.
  FAIRIDX_ASSIGN_OR_RETURN(
      std::vector<PrefixEntry> cell_sums,
      GridAggregates::AccumulateCellSums(grid, warmup.cell_ids,
                                         warmup.labels, warmup.scores,
                                         warmup.residuals));
  FAIRIDX_ASSIGN_OR_RETURN(
      GridAggregates sealed,
      GridAggregates::FromCellSums(grid.rows(), grid.cols(), cell_sums,
                                   std::max(1, options.num_threads)));
  std::unique_ptr<ShardedDeltaStore> store(
      new ShardedDeltaStore(grid, std::move(cell_sums), options));
  for (int cell : warmup.cell_ids) {
    store->cell_dirty_epoch_[static_cast<size_t>(cell)] = 0;
  }
  store->snapshot_ = MakeSnapshot(std::move(sealed));
  const long long n = static_cast<long long>(warmup.size());
  store->num_records_.store(n, std::memory_order_release);
  store->sealed_records_.store(n, std::memory_order_release);
  store->history_.push_back(SealedEpoch{0, store->snapshot_});
  return store;
}

Result<std::unique_ptr<ShardedDeltaStore>> ShardedDeltaStore::Restore(
    const Grid& grid, std::vector<PrefixEntry> cell_sums, long long epoch,
    long long sealed_records, const ShardedDeltaStoreOptions& options) {
  if (epoch < 0 || sealed_records < 0) {
    return InvalidArgumentError(
        "ShardedDeltaStore: negative epoch or record count");
  }
  if (cell_sums.size() != static_cast<size_t>(grid.num_cells())) {
    return InvalidArgumentError(
        "ShardedDeltaStore: cell sums cover " +
        std::to_string(cell_sums.size()) + " cells, grid has " +
        std::to_string(grid.num_cells()));
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      GridAggregates sealed,
      GridAggregates::FromCellSums(grid.rows(), grid.cols(), cell_sums,
                                   std::max(1, options.num_threads)));
  std::unique_ptr<ShardedDeltaStore> store(
      new ShardedDeltaStore(grid, std::move(cell_sums), options));
  for (size_t cell = 0; cell < store->cell_sums_.size(); ++cell) {
    if (store->cell_sums_[cell].count != 0) {
      store->cell_dirty_epoch_[cell] = epoch;
    }
  }
  store->snapshot_ = MakeSnapshot(std::move(sealed));
  store->epoch_.store(epoch, std::memory_order_release);
  store->num_records_.store(sealed_records, std::memory_order_release);
  store->sealed_records_.store(sealed_records, std::memory_order_release);
  store->history_.push_back(SealedEpoch{epoch, store->snapshot_});
  return store;
}

Result<long long> ShardedDeltaStore::Ingest(AggregateBatch batch) {
  // Whole-batch validation: the batch is accepted or rejected atomically,
  // so a failed Ingest leaves no partial per-shard state behind.
  FAIRIDX_RETURN_IF_ERROR(GridAggregates::ValidateRecords(
      rows_ * cols_, batch.cell_ids, batch.labels, batch.scores,
      batch.residuals));
  // Take ownership outside any lock; sharding happens at fold time
  // (writer-side slicing measured allocation-bound).
  const long long batch_records = static_cast<long long>(batch.size());
  PendingBatch pending;
  pending.batch = std::move(batch);

  // Sequence assignment and the pending append happen under the shared
  // side of the ingest gate: when Seal acquires the exclusive side, every
  // sequence number it can observe is fully appended, so its cut is a
  // consistent batch-set boundary.
  std::shared_lock<std::shared_mutex> gate(ingest_gate_);
  const long long seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed);
  pending.seq = seq;
  // Log-before-pending, still under the shared gate: an accepted batch is
  // in the WAL before any seal can capture it, and a failed append
  // rejects the batch outright, so the log and the pending set can never
  // disagree about which batches exist.
  if (wal_ != nullptr) {
    FAIRIDX_RETURN_IF_ERROR(wal_->AppendBatch(seq, pending.batch));
  }
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.push_back(std::move(pending));
  }
  num_records_.fetch_add(batch_records, std::memory_order_acq_rel);
  pending_records_.fetch_add(batch_records, std::memory_order_acq_rel);
  return seq;
}

Result<SealedEpoch> ShardedDeltaStore::Seal(
    const SealAnnotation& annotation) {
  std::lock_guard<std::mutex> seal_lock(seal_mutex_);

  // The cut: swap the pending list out under the exclusive side of the
  // ingest gate. Writers are blocked only for this swap; the fold below
  // runs with ingest flowing again (new batches land in the emptied
  // pending list and belong to the next epoch).
  std::vector<PendingBatch> captured;
  long long captured_records = 0;
  {
    std::unique_lock<std::shared_mutex> gate(ingest_gate_);
    if (wal_ != nullptr) {
      // The seal record goes into the log BEFORE the swap, still inside
      // the exclusive window: pending_records_ is stable here (writers
      // are gated), so the record's captured flag matches the cut, file
      // order equals cut order, and a failed append aborts the seal with
      // the pending set untouched.
      const bool will_capture =
          pending_records_.load(std::memory_order_acquire) > 0;
      const long long sealed_epoch =
          epoch_.load(std::memory_order_acquire) + (will_capture ? 1 : 0);
      FAIRIDX_RETURN_IF_ERROR(
          wal_->AppendSeal(sealed_epoch, will_capture, annotation.refine,
                           annotation.drift_bound));
    }
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      captured.swap(pending_);
    }
    captured_records =
        pending_records_.exchange(0, std::memory_order_acq_rel);
  }
  if (captured_records == 0) {
    // seal_mutex_ is held: epoch_ and snapshot_ cannot move under us, so
    // the pair is consistent.
    SealedEpoch out;
    out.epoch = epoch_.load(std::memory_order_acquire);
    out.snapshot = snapshot();
    return out;
  }
  std::sort(captured.begin(), captured.end(),
            [](const PendingBatch& a, const PendingBatch& b) {
              return a.seq < b.seq;
            });

  // Fold. Sharded path: one task per shard, each walking the captured
  // batches in sequence order and accumulating ONLY its contiguous cell
  // range, so the dense cell_sums_ writes never overlap (or share cache
  // lines) and each cell sees its records in exactly the order Build
  // would over the sequence-ordered records. The range test is one
  // compare pair per record — cheaper than writer-side slicing, and the
  // scans run in parallel. When the fold
  // cannot actually run concurrently (one fold thread, one shard, or a
  // workerless pool on a single-core host), the duplicated range scans
  // are pure overhead, so the fold degenerates to ONE sequence-order
  // pass over every record — the restriction to shard ranges commutes
  // with the scan, so both paths accumulate every cell in the identical
  // order.
  const int max_parallelism = std::min(fold_threads_, num_shards_);
  const bool sharded_fold =
      max_parallelism > 1 &&
      (ThreadPool::Shared().num_workers() > 0 || force_sharded_fold_);
  // captured_records > 0 here, so this fold WILL advance the epoch: the
  // dirty stamps written below carry the post-fold epoch number, and they
  // follow the same disjoint-cell-range discipline as cell_sums_ (the
  // sharded tasks each stamp only their own range).
  const long long sealing_epoch =
      epoch_.load(std::memory_order_acquire) + 1;
  if (!sharded_fold) {
    for (const PendingBatch& pending : captured) {
      const AggregateBatch& batch = pending.batch;
      for (size_t i = 0; i < batch.size(); ++i) {
        GridAggregates::AccumulateRecord(
            &cell_sums_[static_cast<size_t>(batch.cell_ids[i])],
            batch.labels[i], batch.scores[i],
            batch.residuals.empty() ? batch.scores[i] - batch.labels[i]
                                    : batch.residuals[i]);
        cell_dirty_epoch_[static_cast<size_t>(batch.cell_ids[i])] =
            sealing_epoch;
      }
    }
  } else {
    const long long num_cells =
        static_cast<long long>(rows_) * static_cast<long long>(cols_);
    ThreadPool::Shared().ParallelFor(
        static_cast<size_t>(num_shards_), max_parallelism, [&](size_t s) {
          const int lo = static_cast<int>(
              static_cast<long long>(s) * num_cells / num_shards_);
          const int hi = static_cast<int>(
              (static_cast<long long>(s) + 1) * num_cells / num_shards_);
          for (const PendingBatch& pending : captured) {
            const AggregateBatch& batch = pending.batch;
            for (size_t i = 0; i < batch.size(); ++i) {
              const int cell = batch.cell_ids[i];
              if (cell < lo || cell >= hi) continue;
              GridAggregates::AccumulateRecord(
                  &cell_sums_[static_cast<size_t>(cell)], batch.labels[i],
                  batch.scores[i],
                  batch.residuals.empty()
                      ? batch.scores[i] - batch.labels[i]
                      : batch.residuals[i]);
              cell_dirty_epoch_[static_cast<size_t>(cell)] = sealing_epoch;
            }
          }
        });
  }

  // The fold's thread budget also drives the prefix integration: the
  // band pipeline is bit-identical at any thread count, so the sealed
  // snapshot stays byte-for-byte Build's. It writes into the prefix array
  // the last trim recycled, when there is one.
  std::vector<PrefixEntry> storage;
  {
    std::lock_guard<std::mutex> lock(history_mutex_);
    storage.swap(spare_);
  }
  FAIRIDX_ASSIGN_OR_RETURN(
      GridAggregates sealed,
      GridAggregates::FromCellSums(rows_, cols_, cell_sums_, fold_threads_,
                                   std::move(storage)));
  SealedEpoch out;
  out.snapshot = MakeSnapshot(std::move(sealed));
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = out.snapshot;
  }
  sealed_records_.fetch_add(captured_records, std::memory_order_acq_rel);
  out.epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  {
    // The previous epoch left snapshot_ above, so unless a reader or
    // caller still pins it, this trim is its final release and its
    // prefix array becomes the next seal's spare.
    std::lock_guard<std::mutex> lock(history_mutex_);
    history_.push_back(out);
    TrimHistoryLocked();
  }
  return out;
}

ShardedDeltaStore::SealedState ShardedDeltaStore::CaptureSealedState()
    const {
  // seal_mutex_ serializes against folds, and epoch_ / sealed_records_ /
  // cell_sums_ all mutate only with it held, so the triple is a
  // consistent sealed state.
  std::lock_guard<std::mutex> seal_lock(seal_mutex_);
  SealedState state;
  state.epoch = epoch_.load(std::memory_order_acquire);
  state.sealed_records = sealed_records_.load(std::memory_order_acquire);
  state.cell_sums = cell_sums_;
  return state;
}

ShardedDeltaStore::DirtyCells ShardedDeltaStore::CaptureDirtySince(
    long long since_epoch) const {
  // Same consistency argument as CaptureSealedState: seal_mutex_
  // serializes against folds, so the epoch / sums / dirty stamps triple
  // can never interleave with a fold.
  std::lock_guard<std::mutex> seal_lock(seal_mutex_);
  DirtyCells out;
  out.epoch = epoch_.load(std::memory_order_acquire);
  out.sealed_records = sealed_records_.load(std::memory_order_acquire);
  // Count first, then fill exactly sized (and advised) vectors: growing
  // them would touch up to twice the bytes the capture keeps.
  size_t count = 0;
  for (const long long stamp : cell_dirty_epoch_) {
    count += stamp > since_epoch ? 1 : 0;
  }
  out.cells.reserve(count);
  out.sums.reserve(count);
  AdviseHugePages(out.cells.data(), count * sizeof(int));
  AdviseHugePages(out.sums.data(), count * sizeof(PrefixEntry));
  for (size_t cell = 0; cell < cell_dirty_epoch_.size(); ++cell) {
    if (cell_dirty_epoch_[cell] > since_epoch) {
      out.cells.push_back(static_cast<int>(cell));
      out.sums.push_back(cell_sums_[cell]);
    }
  }
  return out;
}

int ShardedDeltaStore::RetainEpochs(int keep_last) {
  std::lock_guard<std::mutex> lock(history_mutex_);
  keep_ = static_cast<size_t>(std::max(1, keep_last));
  TrimHistoryLocked();
  return static_cast<int>(std::min<long long>(
      std::exchange(retired_, 0), std::numeric_limits<int>::max()));
}

void ShardedDeltaStore::TrimHistoryLocked() {
  if (history_.size() <= keep_) return;
  // Drop from the front, sparing entries whose snapshot a reader still
  // pins (use_count above the history's own reference; snapshot() copies
  // taken by readers keep the aggregates alive regardless — retention
  // only bounds what the STORE keeps alive).
  const size_t boundary = history_.size() - keep_;
  size_t kept = 0;
  for (size_t i = 0; i < history_.size(); ++i) {
    std::shared_ptr<const GridAggregates>& snapshot = history_[i].snapshot;
    if (i < boundary && snapshot.use_count() <= 1) {
      // The history holds the only reference, and no one can take a new
      // one without it, so this reset is the final release: while the
      // spare slot is empty, its deleter moves the prefix array there for
      // the next Seal. The newest entry (i >= boundary) is never dropped.
      if (spare_.empty()) {
        std::get_deleter<SnapshotDeleter>(snapshot)->recycle_into = &spare_;
      }
      snapshot.reset();
      ++retired_;
      continue;
    }
    if (kept != i) history_[kept] = std::move(history_[i]);
    ++kept;
  }
  history_.resize(kept);
}

int ShardedDeltaStore::history_size() const {
  std::lock_guard<std::mutex> lock(history_mutex_);
  return static_cast<int>(history_.size());
}

std::shared_ptr<const GridAggregates> ShardedDeltaStore::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::vector<RegionAggregate> ShardedDeltaStore::QueryMany(
    Span<CellRect> rects) const {
  return snapshot()->QueryMany(rects);
}

RegionAggregate ShardedDeltaStore::Query(const CellRect& rect) const {
  return snapshot()->Query(rect);
}

}  // namespace fairidx
