// Crash-recovery differential suite for the durable serving layer:
// FairIndexService::Recover must rebuild a service BIT-identical to the
// uninterrupted run — sealed snapshot cell sums, published partition,
// epoch and record counters — from the newest checkpoint plus a WAL tail
// replay, across shard counts, concurrent writers, every cut point, and
// a torn trailing WAL record. A randomized kill-and-recover sweep then
// truncates the log at arbitrary byte offsets (>= 20 crash points) and
// pins the no-data-loss invariant: resuming from the recovered record
// count always reaches the full stream total.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "service/checkpoint.h"
#include "service/fair_index_service.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

AggregateBatch RandomRecords(Rng& rng, const Grid& grid, int n) {
  AggregateBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.Append(static_cast<int>(rng.NextBounded(grid.num_cells())),
                 rng.Bernoulli(0.5) ? 1 : 0, rng.NextDouble());
  }
  return batch;
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/fairidx_recovery_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

FairIndexServiceOptions DurableOptions(const std::string& dir, int shards,
                                       long long checkpoint_interval) {
  FairIndexServiceOptions options;
  options.algorithm = "fair_kd_tree";
  options.build.height = 3;
  options.store.num_shards = shards;
  options.durability.wal_dir = dir;
  options.durability.checkpoint_interval = checkpoint_interval;
  options.durability.fsync = WalFsync::kNone;  // SIGKILL-safe regardless.
  return options;
}

// Every prefix rectangle pins the prefix structure bit for bit.
void ExpectSnapshotBitEq(const GridAggregates& a, const GridAggregates& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int r = 0; r <= a.rows(); ++r) {
    for (int c = 0; c <= a.cols(); ++c) {
      const RegionAggregate x = a.Query(CellRect{0, r, 0, c});
      const RegionAggregate y = b.Query(CellRect{0, r, 0, c});
      ASSERT_EQ(x.count, y.count) << "(" << r << "," << c << ")";
      ASSERT_EQ(x.sum_labels, y.sum_labels);
      ASSERT_EQ(x.sum_scores, y.sum_scores);
      ASSERT_EQ(x.sum_residuals, y.sum_residuals);
      ASSERT_EQ(x.sum_cell_abs_miscalibration,
                y.sum_cell_abs_miscalibration);
    }
  }
}

struct ServiceState {
  long long epoch = 0;
  long long num_records = 0;
  long long pending = 0;
  long long total_resplits = 0;
  std::vector<CellRect> regions;
  std::shared_ptr<const GridAggregates> snapshot;
};

ServiceState CaptureState(const FairIndexService& service) {
  ServiceState state;
  state.epoch = service.store().epoch();
  state.num_records = service.store().num_records();
  state.pending = service.store().pending_records();
  state.total_resplits = service.total_resplits();
  state.regions = *service.regions();
  state.snapshot = service.store().snapshot();
  return state;
}

void ExpectStateBitEq(const ServiceState& a, const ServiceState& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.num_records, b.num_records);
  EXPECT_EQ(a.pending, b.pending);
  EXPECT_EQ(a.total_resplits, b.total_resplits);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].row_begin, b.regions[i].row_begin) << i;
    EXPECT_EQ(a.regions[i].row_end, b.regions[i].row_end) << i;
    EXPECT_EQ(a.regions[i].col_begin, b.regions[i].col_begin) << i;
    EXPECT_EQ(a.regions[i].col_end, b.regions[i].col_end) << i;
  }
  ExpectSnapshotBitEq(*a.snapshot, *b.snapshot);
}

// The deterministic op sequence both the reference run and every
// crashed+recovered run execute: ingest batch i, then MaybeRefine after
// every third batch. `from`..`to` selects the resumed suffix.
Status RunOps(FairIndexService* service,
              const std::vector<AggregateBatch>& batches, size_t from,
              size_t to) {
  for (size_t i = from; i < to; ++i) {
    FAIRIDX_RETURN_IF_ERROR(service->Ingest(batches[i]).status());
    if ((i + 1) % 3 == 0) {
      FAIRIDX_RETURN_IF_ERROR(service->MaybeRefine().status());
    }
  }
  return Status::Ok();
}

void TruncateNewestSegment(const std::string& dir, long long cut_bytes) {
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok()) << segments.status();
  ASSERT_FALSE(segments->empty());
  const std::string path = segments->back().path;
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(static_cast<long long>(size), cut_bytes);
  std::filesystem::resize_file(path,
                               size - static_cast<uintmax_t>(cut_bytes));
}

// The core differential matrix: shards x cut points x {clean crash, torn
// trailing record}. A "clean crash" destroys the service (the WAL holds
// every accepted record); the torn variant then cuts 3 bytes off the
// newest segment, exactly what a power cut mid-append leaves.
TEST(RecoveryDifferentialTest, BitIdenticalAcrossShardsCutPointsAndTornTails) {
  const Grid grid = MakeGrid(6, 6);
  constexpr size_t kBatches = 12;
  constexpr int kBatchRecords = 15;
  Rng rng(20240807);
  const AggregateBatch warmup = RandomRecords(rng, grid, 120);
  std::vector<AggregateBatch> batches;
  for (size_t i = 0; i < kBatches; ++i) {
    batches.push_back(RandomRecords(rng, grid, kBatchRecords));
  }

  for (int shards : {1, 3}) {
    // Uninterrupted reference for this shard count.
    const std::string ref_dir =
        FreshDir("ref_s" + std::to_string(shards));
    auto reference = FairIndexService::Create(
        grid, warmup, DurableOptions(ref_dir, shards, 2));
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_TRUE(RunOps(reference->get(), batches, 0, kBatches).ok());
    ASSERT_TRUE((*reference)->Seal().ok());
    const ServiceState want = CaptureState(**reference);
    reference->reset();

    for (size_t cut = 1; cut < kBatches; ++cut) {
      for (const bool torn : {false, true}) {
        // A torn tail must cut a BATCH record to keep the op sequence
        // replayable at the same global positions; after a refine the
        // newest record is its seal, so skip those cuts.
        if (torn && cut % 3 == 0) continue;
        const std::string dir =
            FreshDir("cut_s" + std::to_string(shards) + "_" +
                     std::to_string(cut) + (torn ? "_torn" : ""));
        FairIndexServiceOptions options = DurableOptions(dir, shards, 2);
        auto crashed = FairIndexService::Create(grid, warmup, options);
        ASSERT_TRUE(crashed.ok()) << crashed.status();
        ASSERT_TRUE(RunOps(crashed->get(), batches, 0, cut).ok());
        crashed->reset();  // The crash: no final checkpoint, WAL only.
        if (torn) TruncateNewestSegment(dir, 3);

        auto recovered = FairIndexService::Recover(grid, options);
        ASSERT_TRUE(recovered.ok())
            << "shards=" << shards << " cut=" << cut << " torn=" << torn
            << ": " << recovered.status();
        // Resume at the first batch the recovered store never accepted
        // (the torn variant re-ingests the cut batch here) and finish
        // the identical op sequence.
        const long long accepted = (*recovered)->store().num_records();
        const size_t resume = static_cast<size_t>(
            (accepted - static_cast<long long>(warmup.size())) /
            kBatchRecords);
        EXPECT_EQ(resume, torn ? cut - 1 : cut);
        ASSERT_TRUE(
            RunOps(recovered->get(), batches, resume, kBatches).ok());
        ASSERT_TRUE((*recovered)->Seal().ok());
        ExpectStateBitEq(CaptureState(**recovered), want);
      }
    }
  }
}

// Concurrent writers race their WAL appends, so the log's file order is
// NOT sequence order. Recovery must still land bit-identically on the
// exact state the crashed process had sealed (replay sorts each epoch's
// batches by their original sequence numbers before re-folding).
TEST(RecoveryDifferentialTest, MultiWriterReplayMatchesCrashedState) {
  const Grid grid = MakeGrid(5, 7);
  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 6;
  Rng rng(77);
  const AggregateBatch warmup = RandomRecords(rng, grid, 100);
  std::vector<std::vector<AggregateBatch>> per_writer(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 0; b < kBatchesPerWriter; ++b) {
      per_writer[w].push_back(RandomRecords(rng, grid, 9));
    }
  }

  const std::string dir = FreshDir("multiwriter");
  FairIndexServiceOptions options = DurableOptions(dir, 4, 3);
  auto service = FairIndexService::Create(grid, warmup, options);
  ASSERT_TRUE(service.ok()) << service.status();

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const AggregateBatch& batch : per_writer[w]) {
        EXPECT_TRUE((*service)->Ingest(batch).ok());
      }
    });
  }
  for (std::thread& thread : writers) thread.join();
  // Two seals while quiesced plus a refine give the log several epochs
  // whose batch records are interleaved across writers.
  ASSERT_TRUE((*service)->MaybeRefine().ok());
  ASSERT_TRUE((*service)->Seal().ok());
  const ServiceState want = CaptureState(**service);
  service->reset();

  auto recovered = FairIndexService::Recover(grid, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectStateBitEq(CaptureState(**recovered), want);
}

// Randomized kill-and-recover: truncate the newest WAL segment at >= 24
// arbitrary byte offsets. Whatever the cut, recovery must succeed and
// resuming from the recovered record count must reach the full stream —
// the only loss window is the torn tail itself, and those records are
// still in the caller's hands to re-send.
TEST(RecoveryKillTest, RandomizedCrashPointsLoseNothingOnResume) {
  const Grid grid = MakeGrid(4, 5);
  Rng rng(31337);
  const int kTotal = 400;
  const AggregateBatch all = RandomRecords(rng, grid, kTotal);
  const AggregateBatch warmup = all.Slice(0, 80);
  double want_labels = 0.0;
  for (int label : all.labels) want_labels += label;

  // One finished durable run to template the on-disk state from.
  const std::string master = FreshDir("kill_master");
  {
    FairIndexServiceOptions options = DurableOptions(master, 2, 4);
    auto service = FairIndexService::Create(grid, warmup, options);
    ASSERT_TRUE(service.ok()) << service.status();
    for (size_t next = 80; next < static_cast<size_t>(kTotal);) {
      const size_t end = std::min<size_t>(kTotal, next + 32);
      ASSERT_TRUE((*service)->Ingest(all.Slice(next, end)).ok());
      // No seal on the final batch: the newest segment must end with
      // real batch records so the truncation sweep has bytes to cut.
      if ((end / 32) % 2 == 0 && end < static_cast<size_t>(kTotal)) {
        ASSERT_TRUE((*service)->Seal().ok());
      }
      next = end;
    }
    service->reset();  // Crash before any final seal/checkpoint.
  }

  auto segments = ListWalSegments(master);
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments->empty());
  const std::string newest = segments->back().path;
  const long long newest_size =
      static_cast<long long>(std::filesystem::file_size(newest));

  Rng cuts(4242);
  for (int trial = 0; trial < 24; ++trial) {
    const std::string dir = FreshDir("kill_" + std::to_string(trial));
    std::filesystem::copy(master, dir);
    const long long cut =
        static_cast<long long>(cuts.NextBounded(
            static_cast<int>(std::min<long long>(newest_size, 1 << 30))));
    std::filesystem::resize_file(
        dir + "/" + std::filesystem::path(newest).filename().string(),
        static_cast<uintmax_t>(newest_size - cut));

    FairIndexServiceOptions options = DurableOptions(dir, 2, 4);
    auto recovered = FairIndexService::Recover(grid, options);
    ASSERT_TRUE(recovered.ok())
        << "trial " << trial << " cut " << cut << ": "
        << recovered.status();
    const long long accepted = (*recovered)->store().num_records();
    ASSERT_GE(accepted, 80);
    ASSERT_LE(accepted, kTotal);
    // Resume: re-send everything past the recovered record count.
    if (accepted < kTotal) {
      ASSERT_TRUE((*recovered)
                      ->Ingest(all.Slice(static_cast<size_t>(accepted),
                                         kTotal))
                      .ok());
    }
    ASSERT_TRUE((*recovered)->Seal().ok());
    const RegionAggregate total =
        (*recovered)->store().snapshot()->Total();
    EXPECT_EQ(total.count, static_cast<double>(kTotal))
        << "trial " << trial << " cut " << cut;
    EXPECT_EQ(total.sum_labels, want_labels);
  }
}

// Link-chain differential: with full_snapshot_interval > 1 the newest
// on-disk checkpoint is usually a LINK whose chain must be resolved back
// to a base before the WAL tail replays. Across shard counts and every
// cut point, recovery off a link chain must land bit-identical to (a)
// the state the crashed process held and (b) the final state of the
// base-only reference — and the sweep must actually hit link heads, not
// just bases, or it proves nothing.
TEST(RecoveryDifferentialTest, DeltaChainRecoveryBitIdenticalToFullSnapshots) {
  const Grid grid = MakeGrid(6, 6);
  constexpr size_t kBatches = 12;
  constexpr int kBatchRecords = 15;
  Rng rng(20260808);
  const AggregateBatch warmup = RandomRecords(rng, grid, 120);
  std::vector<AggregateBatch> batches;
  for (size_t i = 0; i < kBatches; ++i) {
    batches.push_back(RandomRecords(rng, grid, kBatchRecords));
  }

  for (int shards : {1, 3}) {
    // Base-only reference (full_snapshot_interval = 1), run
    // uninterrupted.
    const std::string ref_dir =
        FreshDir("delta_ref_s" + std::to_string(shards));
    auto reference = FairIndexService::Create(
        grid, warmup, DurableOptions(ref_dir, shards, 1));
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_TRUE(RunOps(reference->get(), batches, 0, kBatches).ok());
    ASSERT_TRUE((*reference)->Seal().ok());
    const ServiceState want = CaptureState(**reference);
    reference->reset();

    int delta_head_cuts = 0;
    for (size_t cut = 1; cut <= kBatches; ++cut) {
      const std::string dir =
          FreshDir("delta_cut_s" + std::to_string(shards) + "_" +
                   std::to_string(cut));
      FairIndexServiceOptions options = DurableOptions(dir, shards, 1);
      options.durability.full_snapshot_interval = 3;
      auto crashed = FairIndexService::Create(grid, warmup, options);
      ASSERT_TRUE(crashed.ok()) << crashed.status();
      ASSERT_TRUE(RunOps(crashed->get(), batches, 0, cut).ok());
      // No seal at the cut: an extra fold would bump the epoch count past
      // the reference's. Pending records ride the WAL tail back into the
      // pending set, exactly where the crashed process held them.
      const ServiceState at_cut = CaptureState(**crashed);
      crashed->reset();  // The crash: checkpoints + WAL tail only.

      // Is the newest on-disk head a link? (The cadence makes it one
      // for most cuts; count them so the sweep provably covers chains.)
      auto listed = ListCheckpoints(dir);
      ASSERT_TRUE(listed.ok());
      ASSERT_FALSE(listed->empty());
      if (listed->back().is_link) ++delta_head_cuts;

      auto recovered = FairIndexService::Recover(grid, options);
      ASSERT_TRUE(recovered.ok())
          << "shards=" << shards << " cut=" << cut << ": "
          << recovered.status();
      // Bit-identical to the crashed process the moment recovery lands.
      ExpectStateBitEq(CaptureState(**recovered), at_cut);
      // Finishing the identical op sequence lands on the full-snapshot
      // reference's final state, bit for bit.
      ASSERT_TRUE(RunOps(recovered->get(), batches, cut, kBatches).ok());
      ASSERT_TRUE((*recovered)->Seal().ok());
      ExpectStateBitEq(CaptureState(**recovered), want);
    }
    EXPECT_GE(delta_head_cuts, 4) << "shards=" << shards
                                  << ": sweep never exercised delta heads";
  }
}

// Recover must refuse mismatched callers loudly instead of replaying a
// log into the wrong shape, and Create must refuse to clobber state.
TEST(RecoveryTest, MismatchesAndClobbersAreRejected) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(5);
  const AggregateBatch warmup = RandomRecords(rng, grid, 60);
  const std::string dir = FreshDir("mismatch");
  FairIndexServiceOptions options = DurableOptions(dir, 1, 2);
  {
    auto service = FairIndexService::Create(grid, warmup, options);
    ASSERT_TRUE(service.ok()) << service.status();
  }
  // Same directory, second Create: refused (use Recover).
  EXPECT_EQ(FairIndexService::Create(grid, warmup, options).status().code(),
            StatusCode::kFailedPrecondition);
  // Wrong grid shape.
  EXPECT_EQ(
      FairIndexService::Recover(MakeGrid(5, 4), options).status().code(),
      StatusCode::kFailedPrecondition);
  // Wrong algorithm.
  FairIndexServiceOptions wrong = options;
  wrong.algorithm = "median_kd_tree";
  EXPECT_EQ(FairIndexService::Recover(grid, wrong).status().code(),
            StatusCode::kFailedPrecondition);
  // No durability dir at all.
  FairIndexServiceOptions none = options;
  none.durability.wal_dir.clear();
  EXPECT_EQ(FairIndexService::Recover(grid, none).status().code(),
            StatusCode::kInvalidArgument);
  // The matching caller still recovers fine.
  auto recovered = FairIndexService::Recover(grid, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->store().num_records(),
            static_cast<long long>(warmup.size()));
}

// Mid-log corruption (bytes behind the damage) must fail recovery with
// the one-line diagnostic, never silently drop records.
TEST(RecoveryTest, MidLogCorruptionFailsLoudly) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(6);
  const AggregateBatch warmup = RandomRecords(rng, grid, 60);
  const std::string dir = FreshDir("midlog");
  FairIndexServiceOptions options = DurableOptions(dir, 1, 100);
  {
    auto service = FairIndexService::Create(grid, warmup, options);
    ASSERT_TRUE(service.ok()) << service.status();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          (*service)->Ingest(RandomRecords(rng, grid, 10)).ok());
    }
  }
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  const std::string path = segments->back().path;
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  bytes[bytes.size() / 2] ^= 0x3c;  // Damage with bytes behind it.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Status status = FairIndexService::Recover(grid, options).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("CRC mismatch mid-log"),
            std::string::npos)
      << status;
}

// A base lists exactly the cells that hold records: the warmup's after
// Create, and after Recover every restored cell too (Restore stamps them
// with the restored epoch). Recovering twice through such bases lands
// bit-identical to a run that was never interrupted.
TEST(RecoveryTest, BasesListExactlyTheTouchedCells) {
  const Grid grid = MakeGrid(16, 16);
  Rng rng(12);
  const AggregateBatch warmup = RandomRecords(rng, grid, 20);
  std::vector<AggregateBatch> batches;
  for (int i = 0; i < 6; ++i) {
    batches.push_back(RandomRecords(rng, grid, 10));
  }
  // The ascending distinct cells of the warmup and the first `n` batches.
  const auto touched = [&](size_t n) {
    std::vector<int> cells = warmup.cell_ids;
    for (size_t i = 0; i < n; ++i) {
      cells.insert(cells.end(), batches[i].cell_ids.begin(),
                   batches[i].cell_ids.end());
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    return cells;
  };
  const auto newest_base_cells = [](const std::string& dir) {
    auto listed = ListCheckpoints(dir);
    EXPECT_TRUE(listed.ok() && !listed->empty());
    EXPECT_FALSE(listed->back().is_link);
    return ReadCheckpoint(listed->back().path).value().cells;
  };
  ASSERT_LT(touched(6).size(), static_cast<size_t>(grid.num_cells()));

  const std::string ref_dir = FreshDir("bases_ref");
  auto reference = FairIndexService::Create(grid, warmup,
                                            DurableOptions(ref_dir, 2, 0));
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE((*reference)->Ingest(batches[i]).ok());
    if (i == 2 || i == 5) ASSERT_TRUE((*reference)->Seal().ok());
  }

  const std::string dir = FreshDir("bases");
  const FairIndexServiceOptions options = DurableOptions(dir, 2, 0);
  {
    auto created = FairIndexService::Create(grid, warmup, options);
    ASSERT_TRUE(created.ok()) << created.status();
    EXPECT_EQ(newest_base_cells(dir), touched(0));
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*created)->Ingest(batches[i]).ok());
    }
    ASSERT_TRUE((*created)->Seal().ok());
  }
  {
    auto recovered = FairIndexService::Recover(grid, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    for (size_t i = 3; i < 6; ++i) {
      ASSERT_TRUE((*recovered)->Ingest(batches[i]).ok());
    }
    ASSERT_TRUE((*recovered)->Seal().ok());
    ASSERT_TRUE((*recovered)->Checkpoint().ok());
    EXPECT_EQ(newest_base_cells(dir), touched(6));
  }
  auto twice = FairIndexService::Recover(grid, options);
  ASSERT_TRUE(twice.ok()) << twice.status();
  EXPECT_EQ(newest_base_cells(dir), touched(6));

  ExpectStateBitEq(CaptureState(**twice), CaptureState(**reference));
  const std::vector<RegionAggregate> got = (*twice)->QueryRegions();
  const std::vector<RegionAggregate> want = (*reference)->QueryRegions();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(RegionAggregate)),
            0);
  const auto got_sums = (*twice)->store().CaptureSealedState().cell_sums;
  const auto want_sums =
      (*reference)->store().CaptureSealedState().cell_sums;
  ASSERT_EQ(got_sums.size(), want_sums.size());
  EXPECT_EQ(std::memcmp(got_sums.data(), want_sums.data(),
                        got_sums.size() * sizeof(got_sums[0])),
            0);
}

// A Recover whose only checkpoint fails its CRC keeps NotFound, and its
// one-line message names the file and the reason.
TEST(RecoveryTest, CorruptOnlyCheckpointFailsWithItsReason) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(9);
  const std::string dir = FreshDir("corrupt_only");
  const FairIndexServiceOptions options = DurableOptions(dir, 1, 0);
  {
    auto service = FairIndexService::Create(
        grid, RandomRecords(rng, grid, 30), options);
    ASSERT_TRUE(service.ok()) << service.status();
  }
  {
    std::fstream file(dir + "/checkpoint-0-1.ckpt",
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(40);
    const char byte = static_cast<char>(file.get());
    file.seekp(40);
    file.put(static_cast<char>(byte ^ 0x3c));
  }
  const Status status = FairIndexService::Recover(grid, options).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status;
  EXPECT_NE(status.message().find("checkpoint-0-1.ckpt: CRC mismatch"),
            std::string::npos)
      << status;
  EXPECT_EQ(status.message().find('\n'), std::string::npos) << status;
}

// Version-1 files (the separate full and delta formats) are refused:
// Recover over a directory holding only them fails with one line naming
// the newest file and its version.
TEST(RecoveryTest, VersionOneCheckpointsFailWithOneLine) {
  const Grid grid = MakeGrid(4, 4);
  const std::string dir = FreshDir("version_one");
  std::filesystem::create_directories(dir);
  const struct {
    const char* name;
    uint32_t magic;
  } files[] = {{"checkpoint-0-1.ckpt", 0x4658434Bu},  // "FXCK" full
               {"delta-2-1.ckpt", 0x46584443u}};      // "FXDC" delta
  for (const auto& file : files) {
    const std::string body(64, '\x01');
    BinaryWriter framed;
    framed.PutU32(file.magic);
    framed.PutU32(1);
    framed.PutU32(static_cast<uint32_t>(body.size()));
    framed.PutU32(Crc32(body.data(), body.size()));
    framed.PutBytes(body.data(), body.size());
    std::ofstream(dir + "/" + file.name, std::ios::binary)
        << framed.buffer();
  }
  const Status status =
      FairIndexService::Recover(grid, DurableOptions(dir, 1, 0)).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status;
  EXPECT_NE(status.message().find("delta-2-1.ckpt: bad magic or version 1"),
            std::string::npos)
      << status;
  EXPECT_EQ(status.message().find('\n'), std::string::npos) << status;
}

// Two records scoring 1e308 in cell 0 of a 4x4 grid: finite, but enough
// to overflow the prefix sums and turn every region's aggregate to NaN.
AggregateBatch HugeScoreBatch() {
  AggregateBatch batch;
  batch.Append(0, 1, 1e308);
  batch.Append(0, 0, 1e308);
  batch.Append(5, 1, 0.5);
  return batch;
}

// The service refuses the batch with one line before it reaches the log.
TEST(RecordBoundsTest, HugeScoreIsRejectedAtIngestBeforeTheWal) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(7);
  const std::string dir = FreshDir("huge_ingest");
  auto service = FairIndexService::Create(grid, RandomRecords(rng, grid, 60),
                                          DurableOptions(dir, 2, 2));
  ASSERT_TRUE(service.ok()) << service.status();
  const long long wal_bytes = (*service)->wal()->bytes_appended();
  const Status status = (*service)->Ingest(HugeScoreBatch()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_EQ(status.message().find('\n'), std::string::npos) << status;
  EXPECT_EQ((*service)->wal()->bytes_appended(), wal_bytes);
  EXPECT_EQ((*service)->store().pending_records(), 0);
}

// A log written before the bound existed (here: by the WAL writer
// directly) replays through the same validation: Recover fails with one
// line and seals nothing, so the epoch-0 checkpoint stays the only one.
TEST(RecordBoundsTest, HugeScoreInALoggedSegmentFailsReplay) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(8);
  const std::string dir = FreshDir("huge_replay");
  const FairIndexServiceOptions options = DurableOptions(dir, 1, 2);
  {
    auto service = FairIndexService::Create(
        grid, RandomRecords(rng, grid, 60), options);
    ASSERT_TRUE(service.ok()) << service.status();
  }
  {
    auto wal = WalWriter::Open(dir, /*generation=*/2, /*next_epoch=*/1,
                               WalOptions{});
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->AppendBatch(/*seq=*/0, HugeScoreBatch()).ok());
  }
  const Status status = FairIndexService::Recover(grid, options).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_EQ(status.message().find('\n'), std::string::npos) << status;
  auto checkpoints = ListCheckpoints(dir);
  ASSERT_TRUE(checkpoints.ok()) << checkpoints.status();
  ASSERT_EQ(checkpoints->size(), 1u);
  EXPECT_EQ(checkpoints->front().epoch, 0);
}

}  // namespace
}  // namespace fairidx
