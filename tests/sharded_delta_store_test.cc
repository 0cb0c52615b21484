// Equivalence and concurrency tests for the epoch-based ShardedDeltaStore:
// a sealed snapshot must be BIT-identical to GridAggregates::Build over
// the same records in batch-sequence order — at any shard count, after
// any seal cadence, and under concurrent multi-threaded ingest + query +
// seal interleavings (the stress tests here are also the ThreadSanitizer
// targets for the serving layer).

#include "service/sharded_delta_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "service/wal.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

AggregateBatch RandomBatch(Rng& rng, const Grid& grid, int n) {
  AggregateBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.Append(static_cast<int>(rng.NextBounded(grid.num_cells())),
                 rng.Bernoulli(0.5) ? 1 : 0, rng.NextDouble());
  }
  return batch;
}

void ExpectAggBitEq(const RegionAggregate& a, const RegionAggregate& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_labels, b.sum_labels);
  EXPECT_EQ(a.sum_scores, b.sum_scores);
  EXPECT_EQ(a.sum_residuals, b.sum_residuals);
  EXPECT_EQ(a.sum_cell_abs_miscalibration, b.sum_cell_abs_miscalibration);
}

// Equality of every prefix rectangle {[0,r) x [0,c)} pins the two prefix
// structures bit for bit (every stored corner entry is one such query).
void ExpectSnapshotBitEq(const GridAggregates& sealed,
                         const GridAggregates& replayed) {
  ASSERT_EQ(sealed.rows(), replayed.rows());
  ASSERT_EQ(sealed.cols(), replayed.cols());
  for (int r = 0; r <= sealed.rows(); ++r) {
    for (int c = 0; c <= sealed.cols(); ++c) {
      ExpectAggBitEq(sealed.Query(CellRect{0, r, 0, c}),
                     replayed.Query(CellRect{0, r, 0, c}));
    }
  }
}

// Appends every record of `batch` to `accepted` (residuals too, so both
// must carry them or neither).
void AppendRecords(const AggregateBatch& batch, AggregateBatch* accepted) {
  auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(accepted->cell_ids, batch.cell_ids);
  append(accepted->labels, batch.labels);
  append(accepted->scores, batch.scores);
  append(accepted->residuals, batch.residuals);
}

GridAggregates BuildOver(const Grid& grid, const AggregateBatch& records) {
  return GridAggregates::Build(grid, records.cell_ids, records.labels,
                               records.scores, records.residuals)
      .value();
}

// Serial oracle: GridAggregates::Build over the warmup plus every batch
// in `order`, concatenated.
GridAggregates SerialReplay(const Grid& grid, const AggregateBatch& warmup,
                            const std::vector<AggregateBatch>& batches,
                            const std::vector<size_t>& order) {
  AggregateBatch accepted = warmup;
  for (size_t index : order) AppendRecords(batches[index], &accepted);
  return BuildOver(grid, accepted);
}

TEST(ShardedDeltaStoreTest, SealedSnapshotMatchesSerialReplayAtAnyShardCount) {
  const Grid grid = MakeGrid(16, 12);
  Rng data_rng(1234);
  const AggregateBatch warmup = RandomBatch(data_rng, grid, 300);
  std::vector<AggregateBatch> batches;
  for (int b = 0; b < 24; ++b) {
    batches.push_back(
        RandomBatch(data_rng, grid, 1 + static_cast<int>(
                                            data_rng.NextBounded(60))));
  }
  std::vector<size_t> order(batches.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int shards : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE(shards);
    ShardedDeltaStoreOptions options;
    options.num_shards = shards;
    options.num_threads = 4;
    // Pin the sharded range-fold path itself, even on a workerless pool.
    options.force_sharded_fold = true;
    auto store = ShardedDeltaStore::Build(grid, warmup, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();

    // Epoch 0 covers exactly the warmup.
    ExpectSnapshotBitEq(*(*store)->snapshot(),
                        SerialReplay(grid, warmup, batches, {}));

    // Uneven seal cadence: fold after batches 5, 6 and 23, verifying the
    // sealed prefix equals the serial replay of that batch PREFIX each
    // time (not just at the end).
    std::vector<size_t> sealed_prefix;
    size_t next = 0;
    for (size_t cut : {size_t{6}, size_t{7}, batches.size()}) {
      for (; next < cut; ++next) {
        auto seq = (*store)->Ingest(batches[next]);
        ASSERT_TRUE(seq.ok());
        EXPECT_EQ(*seq, static_cast<long long>(next));
        sealed_prefix.push_back(next);
      }
      ASSERT_TRUE((*store)->Seal().ok());
      ExpectSnapshotBitEq(*(*store)->snapshot(),
                          SerialReplay(grid, warmup, batches,
                                       sealed_prefix));
    }
    EXPECT_EQ((*store)->epoch(), 3);
    EXPECT_EQ((*store)->pending_records(), 0);
    EXPECT_EQ((*store)->num_records(), (*store)->sealed_records());
  }
}

TEST(ShardedDeltaStoreTest, ResidualsFollowTheOverlayContract) {
  const Grid grid = MakeGrid(6, 5);
  Rng rng(77);
  AggregateBatch warmup = RandomBatch(rng, grid, 40);
  AggregateBatch batch = RandomBatch(rng, grid, 25);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch.residuals.push_back(rng.NextDouble() - 0.5);
  }
  auto store = ShardedDeltaStore::Build(grid, warmup,
                                        ShardedDeltaStoreOptions{3, 2});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Ingest(batch).ok());
  ASSERT_TRUE((*store)->Seal().ok());

  // The store defaulted the warmup's residuals to score - label; the
  // oracle spells them out so the records can carry the batch's explicit
  // ones.
  AggregateBatch accepted = warmup;
  for (size_t i = 0; i < warmup.size(); ++i) {
    accepted.residuals.push_back(warmup.scores[i] - warmup.labels[i]);
  }
  AppendRecords(batch, &accepted);
  ExpectSnapshotBitEq(*(*store)->snapshot(), BuildOver(grid, accepted));
}

TEST(ShardedDeltaStoreTest, RejectsBadBatchesAtomically) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(5);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 20),
                                        ShardedDeltaStoreOptions{2, 1});
  ASSERT_TRUE(store.ok());
  const long long before = (*store)->num_records();

  AggregateBatch bad = RandomBatch(rng, grid, 10);
  bad.cell_ids[7] = grid.num_cells();  // Out of range, mid-batch.
  EXPECT_FALSE((*store)->Ingest(bad).ok());
  AggregateBatch mismatched = RandomBatch(rng, grid, 3);
  mismatched.scores.pop_back();
  EXPECT_FALSE((*store)->Ingest(mismatched).ok());

  // Nothing from the rejected batches leaked into the store: the epoch
  // does not advance (nothing pending) and counters are untouched.
  EXPECT_EQ((*store)->num_records(), before);
  EXPECT_EQ((*store)->pending_records(), 0);
  ASSERT_TRUE((*store)->Seal().ok());
  EXPECT_EQ((*store)->epoch(), 0);
}

TEST(ShardedDeltaStoreTest, EmptySealKeepsEpochAndSnapshot) {
  const Grid grid = MakeGrid(5, 5);
  Rng rng(9);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 30),
                                        ShardedDeltaStoreOptions{4, 2});
  ASSERT_TRUE(store.ok());
  const std::shared_ptr<const GridAggregates> epoch0 = (*store)->snapshot();
  auto sealed = (*store)->Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->epoch, 0);
  // Identical object, not merely identical contents: nothing was folded,
  // and the returned pair carries the same pinned snapshot.
  EXPECT_EQ((*store)->snapshot().get(), epoch0.get());
  EXPECT_EQ(sealed->snapshot.get(), epoch0.get());
}

TEST(ShardedDeltaStoreTest, SnapshotsStayValidAcrossLaterEpochs) {
  const Grid grid = MakeGrid(8, 8);
  Rng rng(21);
  const AggregateBatch warmup = RandomBatch(rng, grid, 50);
  auto store = ShardedDeltaStore::Build(grid, warmup,
                                        ShardedDeltaStoreOptions{2, 2});
  ASSERT_TRUE(store.ok());
  const std::shared_ptr<const GridAggregates> epoch0 = (*store)->snapshot();
  const RegionAggregate before = epoch0->Total();
  ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 40)).ok());
  ASSERT_TRUE((*store)->Seal().ok());
  // The pinned epoch-0 snapshot still answers exactly as before the seal.
  ExpectAggBitEq(epoch0->Total(), before);
  EXPECT_GT((*store)->snapshot()->Total().count, before.count);
}

// The concurrency pin: many writer threads ingesting interleaved with
// seals and reader queries must produce sealed snapshots bit-identical to
// GridAggregates::Build over the batches in the sequence order the store
// actually assigned. Run under TSan in CI.
TEST(ShardedDeltaStoreTest, ConcurrentIngestSealQueryMatchesSerialReplay) {
  const Grid grid = MakeGrid(24, 18);
  Rng data_rng(4321);
  const AggregateBatch warmup = RandomBatch(data_rng, grid, 200);
  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 30;
  std::vector<std::vector<AggregateBatch>> per_writer(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 0; b < kBatchesPerWriter; ++b) {
      per_writer[w].push_back(RandomBatch(
          data_rng, grid,
          1 + static_cast<int>(data_rng.NextBounded(40))));
    }
  }

  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    ShardedDeltaStoreOptions options;
    options.num_shards = shards;
    options.num_threads = 4;
    options.force_sharded_fold = true;
    auto store = ShardedDeltaStore::Build(grid, warmup, options);
    ASSERT_TRUE(store.ok());

    // seq -> (writer, batch) mapping, filled by the writers.
    std::vector<std::pair<int, int>> by_seq(
        static_cast<size_t>(kWriters) * kBatchesPerWriter);
    std::atomic<int> writers_done{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int b = 0; b < kBatchesPerWriter; ++b) {
          auto seq = (*store)->Ingest(per_writer[w][b]);
          if (!seq.ok()) {
            failed.store(true);
            break;
          }
          by_seq[static_cast<size_t>(*seq)] = {w, b};
        }
        writers_done.fetch_add(1);
      });
    }
    // A sealer thread folding epochs while writers run, and a reader
    // thread hammering sealed-snapshot queries; neither may disturb the
    // writers or tear a snapshot.
    threads.emplace_back([&] {
      while (writers_done.load() < kWriters) {
        if (!(*store)->Seal().ok()) failed.store(true);
        std::this_thread::yield();
      }
    });
    threads.emplace_back([&] {
      const CellRect half{0, grid.rows() / 2, 0, grid.cols()};
      double sink = 0.0;
      while (writers_done.load() < kWriters) {
        // Both queries must read the SAME pinned snapshot: two separate
        // snapshot() calls may straddle a seal and legitimately disagree.
        const std::shared_ptr<const GridAggregates> pinned =
            (*store)->snapshot();
        const RegionAggregate whole = pinned->Total();
        const RegionAggregate part = pinned->Query(half);
        // Monotone sanity on one immutable snapshot; values themselves
        // are timing-dependent.
        sink += whole.count + part.count;
        if (part.count > whole.count + 0.5) failed.store(true);
      }
      EXPECT_GE(sink, 0.0);
    });
    for (std::thread& thread : threads) thread.join();
    ASSERT_FALSE(failed.load());
    ASSERT_TRUE((*store)->Seal().ok());
    EXPECT_EQ((*store)->pending_records(), 0);

    // Replay serially in assigned-sequence order and pin bit-identity.
    AggregateBatch accepted = warmup;
    for (const auto& [w, b] : by_seq) {
      AppendRecords(per_writer[w][b], &accepted);
    }
    ExpectSnapshotBitEq(*(*store)->snapshot(), BuildOver(grid, accepted));
  }
}

TEST(ShardedDeltaStoreTest, EmptyBatchIsAcceptedAndDiscardedAtSeal) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(11);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 20),
                                        ShardedDeltaStoreOptions{2, 1});
  ASSERT_TRUE(store.ok());

  // An empty batch is a valid no-op: it consumes a sequence number but
  // adds no records, so the next seal has nothing to capture.
  auto seq = (*store)->Ingest(AggregateBatch{});
  ASSERT_TRUE(seq.ok()) << seq.status();
  EXPECT_EQ((*store)->num_records(), 20);
  EXPECT_EQ((*store)->pending_records(), 0);
  auto sealed = (*store)->Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->epoch, 0);
  // The sequence counter still advanced: a later real batch continues
  // strictly after the empty one.
  auto next = (*store)->Ingest(RandomBatch(rng, grid, 3));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(*next, *seq);
}

TEST(ShardedDeltaStoreTest, IngestAfterWalCloseIsRejectedAtomically) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(12);
  const std::string dir =
      ::testing::TempDir() + "/fairidx_store_walclose";
  std::filesystem::remove_all(dir);
  auto wal = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status();
  ShardedDeltaStoreOptions options;
  options.num_shards = 2;
  options.wal = wal->get();
  auto store =
      ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 20), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 5)).ok());
  const long long before_records = (*store)->num_records();
  const long long before_pending = (*store)->pending_records();

  // Once the log can no longer accept the record, the batch must be
  // rejected whole — log-before-apply means the store and the log never
  // disagree about what was accepted.
  ASSERT_TRUE((*wal)->Close().ok());
  EXPECT_FALSE((*store)->Ingest(RandomBatch(rng, grid, 5)).ok());
  EXPECT_EQ((*store)->num_records(), before_records);
  EXPECT_EQ((*store)->pending_records(), before_pending);
  // Sealing is equally off the table (the seal record cannot be logged),
  // so the pending records stay pending rather than vanish.
  EXPECT_FALSE((*store)->Seal().ok());
  EXPECT_EQ((*store)->pending_records(), before_pending);
}

TEST(ShardedDeltaStoreTest, RetainEpochsKeepsNewestAndReaderPinned) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(13);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 10),
                                        ShardedDeltaStoreOptions{2, 1});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->history_size(), 1);  // Epoch 0 seeds the history.

  // A reader pins epoch 2's snapshot; epochs keep sealing past it.
  std::shared_ptr<const GridAggregates> pinned;
  for (int epoch = 1; epoch <= 5; ++epoch) {
    ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 4)).ok());
    ASSERT_TRUE((*store)->Seal().ok());
    if (epoch == 2) pinned = (*store)->snapshot();
  }
  // The default bound: each seal kept only the newest epoch plus the
  // reader-pinned epoch 2, dropping epochs 0, 1, 3 and 4.
  EXPECT_EQ((*store)->history_size(), 2);

  // The first call reports every entry the seals dropped; keep_last = 2
  // then holds epochs 5 and 6 plus the reader-pinned epoch 2.
  EXPECT_EQ((*store)->RetainEpochs(2), 4);
  ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 4)).ok());
  ASSERT_TRUE((*store)->Seal().ok());
  EXPECT_EQ((*store)->history_size(), 3);
  // The pinned snapshot stays fully usable regardless of retention.
  EXPECT_GT(pinned->Total().count, 0.0);
  // Releasing the pin lets the next retention pass drop it.
  pinned.reset();
  EXPECT_EQ((*store)->RetainEpochs(2), 1);
  EXPECT_EQ((*store)->history_size(), 2);
  // keep_last < 1 clamps to "newest only": the serving snapshot can
  // never be retired out from under readers.
  EXPECT_EQ((*store)->RetainEpochs(0), 1);
  EXPECT_EQ((*store)->history_size(), 1);
  EXPECT_GT((*store)->snapshot()->Total().count, 0.0);
}

TEST(ShardedDeltaStoreTest, NonFiniteRecordIsRejectedBeforeTheWal) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(14);
  const std::string dir = ::testing::TempDir() + "/fairidx_store_nan";
  std::filesystem::remove_all(dir);
  auto wal = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status();
  ShardedDeltaStoreOptions options;
  options.num_shards = 2;
  options.wal = wal->get();
  auto store =
      ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 20), options);
  ASSERT_TRUE(store.ok());
  const long long wal_bytes = (*wal)->bytes_appended();

  // One NaN score, one infinite residual: each batch is refused whole,
  // with a one-line InvalidArgument, before anything reaches the log.
  AggregateBatch nan_score = RandomBatch(rng, grid, 10);
  nan_score.scores[3] = std::nan("");
  AggregateBatch inf_residual = RandomBatch(rng, grid, 10);
  inf_residual.residuals.assign(10, 0.25);
  inf_residual.residuals[9] = -std::numeric_limits<double>::infinity();
  for (const AggregateBatch* bad : {&nan_score, &inf_residual}) {
    const Status status = (*store)->Ingest(*bad).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_EQ(status.message().find('\n'), std::string::npos) << status;
  }
  EXPECT_EQ((*wal)->bytes_appended(), wal_bytes);
  EXPECT_EQ((*store)->pending_records(), 0);

  // The good records around them still seal, and every cell stays finite.
  ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 10)).ok());
  ASSERT_TRUE((*store)->Seal().ok());
  for (int r = 0; r < grid.rows(); ++r) {
    for (int c = 0; c < grid.cols(); ++c) {
      const RegionAggregate cell = (*store)->snapshot()->Cell(r, c);
      EXPECT_TRUE(std::isfinite(cell.sum_scores) &&
                  std::isfinite(cell.sum_residuals) &&
                  std::isfinite(cell.sum_cell_abs_miscalibration));
    }
  }
}

// Snapshot recycling: every trim, Seal's own and RetainEpochs', hands a
// dropped snapshot's prefix array to the next Seal. Every sealed snapshot
// must still equal a fresh FromCellSums of the sealed sums, bit for bit,
// whether or not the caller ever sets a retention bound.
TEST(ShardedDeltaStoreTest, RecycledSnapshotsMatchFreshIntegration) {
  const Grid grid = MakeGrid(12, 150);
  for (const bool retain : {true, false}) {
    SCOPED_TRACE(retain);
    Rng rng(15);
    auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 400),
                                          ShardedDeltaStoreOptions{3, 4});
    ASSERT_TRUE(store.ok());
    for (int epoch = 1; epoch <= 8; ++epoch) {
      SCOPED_TRACE(epoch);
      ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 300)).ok());
      ASSERT_TRUE((*store)->Seal().ok());
      const ShardedDeltaStore::SealedState state =
          (*store)->CaptureSealedState();
      ExpectSnapshotBitEq(
          *(*store)->snapshot(),
          GridAggregates::FromCellSums(grid.rows(), grid.cols(),
                                       state.cell_sums, 1)
              .value());
      if (retain) {
        (*store)->RetainEpochs(epoch % 2 + 1);
      } else {
        // Never told a bound, the store keeps the newest epoch only.
        EXPECT_EQ((*store)->history_size(), 1);
      }
    }
  }
}

// CaptureDirtySince counts before it fills: it returns exactly the cells
// the old scan-and-push_back loop returned — every cell stamped after
// `since`, ascending, with its sealed sums — in vectors sized exactly.
TEST(ShardedDeltaStoreTest, CaptureDirtySinceIsExactAndInScanOrder) {
  const Grid grid = MakeGrid(20, 90);
  Rng rng(18);
  // The epoch each cell was last sealed at, as the store stamps it.
  std::vector<long long> stamp(static_cast<size_t>(grid.num_cells()), -1);
  const AggregateBatch warmup = RandomBatch(rng, grid, 250);
  for (int cell : warmup.cell_ids) stamp[static_cast<size_t>(cell)] = 0;
  auto store = ShardedDeltaStore::Build(grid, warmup,
                                        ShardedDeltaStoreOptions{3, 4});
  ASSERT_TRUE(store.ok());
  constexpr int kEpochs = 5;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const AggregateBatch batch = RandomBatch(rng, grid, 40 * epoch);
    for (int cell : batch.cell_ids) stamp[static_cast<size_t>(cell)] = epoch;
    ASSERT_TRUE((*store)->Ingest(batch).ok());
    ASSERT_TRUE((*store)->Seal().ok());
  }
  const std::vector<GridAggregates::PrefixEntry> sums =
      (*store)->CaptureSealedState().cell_sums;
  for (long long since = -1; since <= kEpochs; ++since) {
    SCOPED_TRACE(since);
    std::vector<int> want_cells;
    std::vector<GridAggregates::PrefixEntry> want_sums;
    for (size_t cell = 0; cell < stamp.size(); ++cell) {
      if (stamp[cell] > since) {
        want_cells.push_back(static_cast<int>(cell));
        want_sums.push_back(sums[cell]);
      }
    }
    const ShardedDeltaStore::DirtyCells got =
        (*store)->CaptureDirtySince(since);
    EXPECT_EQ(got.epoch, kEpochs);
    EXPECT_EQ(got.cells, want_cells);
    ASSERT_EQ(got.sums.size(), want_sums.size());
    if (!want_sums.empty()) {
      EXPECT_EQ(std::memcmp(got.sums.data(), want_sums.data(),
                            want_sums.size() * sizeof(want_sums[0])),
                0);
    }
    EXPECT_EQ(got.cells.capacity(), got.cells.size());
    EXPECT_EQ(got.sums.capacity(), got.sums.size());
  }
}

// A snapshot a reader pins, or a SealedEpoch a caller holds, is never
// recycled: its bits survive any number of Seal + RetainEpochs cycles.
TEST(ShardedDeltaStoreTest, PinnedSnapshotsAreNeverRecycled) {
  const Grid grid = MakeGrid(10, 130);
  Rng rng(16);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 200),
                                        ShardedDeltaStoreOptions{2, 4});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 200)).ok());
  auto held = (*store)->Seal();
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 200)).ok());
  ASSERT_TRUE((*store)->Seal().ok());
  const std::shared_ptr<const GridAggregates> pinned = (*store)->snapshot();
  const GridAggregates pinned_copy = *pinned;
  const GridAggregates held_copy = *held->snapshot;

  for (int cycle = 0; cycle < 6; ++cycle) {
    ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 200)).ok());
    ASSERT_TRUE((*store)->Seal().ok());
    (*store)->RetainEpochs(1);
  }
  ExpectSnapshotBitEq(*pinned, pinned_copy);
  ExpectSnapshotBitEq(*held->snapshot, held_copy);
  // Retention kept both pinned epochs next to the newest one.
  EXPECT_EQ((*store)->history_size(), 3);
}

// TSan stress for recycling: readers pin and release snapshots while a
// sealer ingests, seals and trims to one epoch. A recycled buffer written
// while still pinned shows up as a changed read (and a race under TSan).
TEST(ShardedDeltaStoreTest, ConcurrentPinningUnderSealAndRetention) {
  const Grid grid = MakeGrid(16, 140);
  Rng rng(17);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 300),
                                        ShardedDeltaStoreOptions{2, 4});
  ASSERT_TRUE(store.ok());
  std::vector<AggregateBatch> batches;
  for (int b = 0; b < 40; ++b) batches.push_back(RandomBatch(rng, grid, 150));

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      const CellRect part{r, grid.rows(), 0, grid.cols() / 2};
      while (!done.load()) {
        const std::shared_ptr<const GridAggregates> pinned =
            (*store)->snapshot();
        const RegionAggregate first = pinned->Query(part);
        std::this_thread::yield();
        const RegionAggregate again = pinned->Query(part);
        if (std::memcmp(&first, &again, sizeof first) != 0) failed.store(true);
      }
    });
  }
  for (const AggregateBatch& batch : batches) {
    ASSERT_TRUE((*store)->Ingest(batch).ok());
    ASSERT_TRUE((*store)->Seal().ok());
    (*store)->RetainEpochs(1);
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());
  const ShardedDeltaStore::SealedState state = (*store)->CaptureSealedState();
  ExpectSnapshotBitEq(*(*store)->snapshot(),
                      GridAggregates::FromCellSums(grid.rows(), grid.cols(),
                                                   state.cell_sums, 1)
                          .value());
}

}  // namespace
}  // namespace fairidx
