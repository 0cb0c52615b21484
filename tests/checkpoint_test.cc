// Tests for checkpoint records (service/checkpoint.h): framed round trip
// of every CheckpointData field of a base, atomic installation under
// injected I/O faults, corrupt-checkpoint skipping in
// LoadLatestCheckpoint (and the reason it keeps when every head fails),
// and the two pruning helpers.

#include "service/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault_injection.h"
#include "service/wal.h"

namespace fairidx {
namespace {

using testing_fault::FaultMode;
using testing_fault::FaultPlan;
using testing_fault::MakeFaultyFactory;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fairidx_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A 2x3 grid base at `epoch` listing cells 0, 2, 3 and 5.
CheckpointData MakeData(long long epoch) {
  CheckpointData data;
  data.rows = 2;
  data.cols = 3;
  data.epoch = epoch;
  data.sealed_records = 40 + epoch;
  data.wal_generation = 2;
  data.total_resplits = 5;
  data.algorithm = "fair_kd_tree";
  for (int i : {0, 2, 3, 5}) {
    GridAggregates::PrefixEntry entry;
    entry.count = i + 1.0;
    entry.labels = i * 0.5;
    entry.scores = i * 0.25 + 0.125;
    entry.residuals = -0.5 * i;
    entry.cell_abs = 0.0625 * i;
    data.cells.push_back(i);
    data.sums.push_back(entry);
  }
  data.maintained_blob = std::string("tree-bytes\x00\x01\x7f", 13);
  return data;
}

TEST(CheckpointTest, RoundTripsEveryField) {
  const std::string dir = FreshDir("roundtrip");
  const CheckpointData data = MakeData(7);
  ASSERT_TRUE(WriteCheckpoint(dir, data).ok());

  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].epoch, 7);
  EXPECT_EQ((*listed)[0].generation, 2);
  EXPECT_FALSE((*listed)[0].is_link);
  EXPECT_EQ(std::filesystem::path((*listed)[0].path).filename(),
            CheckpointFileName(7, 2, /*is_link=*/false));

  auto loaded = ReadCheckpoint((*listed)[0].path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rows, data.rows);
  EXPECT_EQ(loaded->cols, data.cols);
  EXPECT_EQ(loaded->epoch, data.epoch);
  EXPECT_EQ(loaded->sealed_records, data.sealed_records);
  EXPECT_EQ(loaded->wal_generation, data.wal_generation);
  EXPECT_EQ(loaded->total_resplits, data.total_resplits);
  EXPECT_EQ(loaded->algorithm, data.algorithm);
  EXPECT_FALSE(loaded->prev.has_value());
  EXPECT_EQ(loaded->cells, data.cells);
  ASSERT_EQ(loaded->sums.size(), data.sums.size());
  for (size_t i = 0; i < data.sums.size(); ++i) {
    EXPECT_EQ(loaded->sums[i].count, data.sums[i].count);
    EXPECT_EQ(loaded->sums[i].labels, data.sums[i].labels);
    EXPECT_EQ(loaded->sums[i].scores, data.sums[i].scores);
    EXPECT_EQ(loaded->sums[i].residuals, data.sums[i].residuals);
    EXPECT_EQ(loaded->sums[i].cell_abs, data.sums[i].cell_abs);
  }
  EXPECT_EQ(loaded->maintained_blob, data.maintained_blob);

  // A base resolves to itself.
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->cells, data.cells);
  EXPECT_EQ(latest->maintained_blob, data.maintained_blob);
}

TEST(CheckpointTest, CorruptNewestFallsBackToOlderValidOne) {
  const std::string dir = FreshDir("fallback");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(3)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(9)).ok());
  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);

  // Corrupt the newest file's body; the loader must skip it and return
  // the older valid checkpoint rather than fail or trust garbage.
  const std::string newest = (*listed)[1].path;
  {
    std::ifstream in(newest, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    bytes[40] ^= 0x7e;
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ReadCheckpoint(newest).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
}

TEST(CheckpointTest, LoadLatestFailsCleanlyWithNoValidCheckpoint) {
  const std::string dir = FreshDir("none");
  std::filesystem::create_directories(dir);
  EXPECT_EQ(LoadLatestCheckpoint(dir).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LoadLatestCheckpoint(dir + "/missing").status().code(),
            StatusCode::kNotFound);
}

// When every head fails, the NotFound keeps the newest head's own reason.
TEST(CheckpointTest, LoadLatestKeepsTheNewestHeadsReason) {
  const std::string dir = FreshDir("reason");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(3)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(9)).ok());
  for (const char* name : {"/checkpoint-3-2.ckpt", "/checkpoint-9-2.ckpt"}) {
    std::fstream file(dir + name,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    file.put('\x7e');
  }
  const Status status = LoadLatestCheckpoint(dir).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status;
  EXPECT_NE(status.message().find("checkpoint-9-2.ckpt: CRC mismatch"),
            std::string::npos)
      << status;
  EXPECT_EQ(status.message().find('\n'), std::string::npos) << status;
}

TEST(CheckpointTest, TruncatedFileIsRejectedWithByteCounts) {
  const std::string dir = FreshDir("truncated");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(1)).ok());
  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  const std::string path = (*listed)[0].path;
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 10));
  }
  const Status status = ReadCheckpoint(path).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated body"), std::string::npos)
      << status;
}

TEST(CheckpointTest, FaultedWriteInstallsNothing) {
  const std::string dir = FreshDir("faulted");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(2)).ok());

  // Fail each stage of the next write (append, sync, close): the .tmp
  // staging must keep a half-written epoch-5 checkpoint from ever
  // becoming loadable, and the epoch-2 one must keep working.
  for (long long fault_at = 0; fault_at < 3; ++fault_at) {
    FaultPlan plan;
    plan.mode = FaultMode::kFailOp;
    plan.ops_until_fault.store(fault_at);
    EXPECT_FALSE(WriteCheckpoint(dir, MakeData(5),
                                 MakeFaultyFactory(&plan))
                     .ok())
        << "fault at op " << fault_at;
    auto latest = LoadLatestCheckpoint(dir);
    ASSERT_TRUE(latest.ok()) << latest.status();
    EXPECT_EQ(latest->epoch, 2);
  }
  // Dropped writes (crash before anything landed): same story.
  FaultPlan plan;
  plan.mode = FaultMode::kDropWrites;
  plan.ops_until_fault.store(0);
  (void)WriteCheckpoint(dir, MakeData(6), MakeFaultyFactory(&plan));
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->epoch, 2);
}

TEST(CheckpointTest, PruneCheckpointsKeepsTheNewest) {
  const std::string dir = FreshDir("prune");
  for (long long epoch : {1, 4, 6, 9}) {
    ASSERT_TRUE(WriteCheckpoint(dir, MakeData(epoch)).ok());
  }
  EXPECT_EQ(PruneCheckpoints(dir, 0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(PruneCheckpoints(dir, 2).ok());
  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].epoch, 6);
  EXPECT_EQ((*listed)[1].epoch, 9);
}

TEST(CheckpointTest, PruneWalSegmentsDropsCoveredEpochsAcrossGenerations) {
  const std::string dir = FreshDir("prune_wal");
  std::filesystem::create_directories(dir);
  for (const char* name :
       {"wal-1-1.log", "wal-1-2.log", "wal-2-3.log", "wal-2-4.log"}) {
    std::ofstream(dir + "/" + name) << "x";
  }
  ASSERT_TRUE(PruneWalSegments(dir, /*through_epoch=*/3).ok());
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].epoch, 4);
}

}  // namespace
}  // namespace fairidx
