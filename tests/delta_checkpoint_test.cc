// Tests for delta checkpoints (service/checkpoint.h): framed round trip
// of every CheckpointDelta field, chain resolution in
// LoadLatestCheckpoint (overlay order, head-field precedence,
// bit-identity with the equivalent full checkpoint), fallback on broken /
// corrupt / cyclic chains, chain-aware pruning, and the write-side
// validation seams.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "service/checkpoint.h"

namespace fairidx {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fairidx_delta_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

GridAggregates::PrefixEntry Entry(double seed) {
  GridAggregates::PrefixEntry entry;
  entry.count = seed;
  entry.labels = seed * 0.5;
  entry.scores = seed * 0.25 + 0.125;
  entry.residuals = -0.5 * seed;
  entry.cell_abs = 0.0625 * seed;
  return entry;
}

// A 2x3 grid base at epoch `epoch`: cell i holds Entry(i + epoch).
CheckpointData MakeBase(long long epoch) {
  CheckpointData data;
  data.rows = 2;
  data.cols = 3;
  data.epoch = epoch;
  data.sealed_records = 100 + epoch;
  data.wal_generation = 2;
  data.total_resplits = 1;
  data.algorithm = "fair_kd_tree";
  for (int i = 0; i < 6; ++i) data.cell_sums.push_back(Entry(i + epoch));
  data.partition = Partition::FromCellMapExact({0, 0, 1, 0, 0, 1}, 2).value();
  data.regions = {CellRect{0, 2, 0, 2}, CellRect{0, 2, 2, 3}};
  data.maintained_blob = "base-blob";
  return data;
}

// A delta on top of (prev_epoch, prev_generation): touches cells 1 and 4
// with absolute sums derived from its own epoch, and re-splits the left
// region so the resolved partition differs from the base's.
CheckpointDelta MakeDelta(long long epoch, long long prev_epoch,
                          long long prev_generation) {
  CheckpointDelta delta;
  delta.rows = 2;
  delta.cols = 3;
  delta.epoch = epoch;
  delta.sealed_records = 100 + epoch;
  delta.wal_generation = 2;
  delta.total_resplits = 2 + epoch;
  delta.algorithm = "fair_kd_tree";
  delta.prev_epoch = prev_epoch;
  delta.prev_generation = prev_generation;
  delta.cells = {1, 4};
  delta.sums = {Entry(100.0 + epoch), Entry(200.0 + epoch)};
  delta.regions = {CellRect{0, 1, 0, 2}, CellRect{0, 2, 2, 3},
                   CellRect{1, 2, 0, 2}};
  delta.maintained_blob = "delta-blob-" + std::to_string(epoch);
  return delta;
}

void CorruptFile(const std::string& path, size_t offset) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x5a;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DeltaCheckpointTest, RoundTripsEveryField) {
  const std::string dir = FreshDir("roundtrip");
  const CheckpointDelta delta = MakeDelta(9, 7, 2);
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, delta).ok());

  auto listed = ListDeltaCheckpoints(dir);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].epoch, 9);
  EXPECT_EQ((*listed)[0].generation, 2);

  auto loaded = ReadDeltaCheckpoint((*listed)[0].path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rows, delta.rows);
  EXPECT_EQ(loaded->cols, delta.cols);
  EXPECT_EQ(loaded->epoch, delta.epoch);
  EXPECT_EQ(loaded->sealed_records, delta.sealed_records);
  EXPECT_EQ(loaded->wal_generation, delta.wal_generation);
  EXPECT_EQ(loaded->total_resplits, delta.total_resplits);
  EXPECT_EQ(loaded->algorithm, delta.algorithm);
  EXPECT_EQ(loaded->prev_epoch, 7);
  EXPECT_EQ(loaded->prev_generation, 2);
  ASSERT_EQ(loaded->cells, delta.cells);
  ASSERT_EQ(loaded->sums.size(), delta.sums.size());
  for (size_t i = 0; i < delta.sums.size(); ++i) {
    EXPECT_EQ(loaded->sums[i].count, delta.sums[i].count);
    EXPECT_EQ(loaded->sums[i].labels, delta.sums[i].labels);
    EXPECT_EQ(loaded->sums[i].scores, delta.sums[i].scores);
    EXPECT_EQ(loaded->sums[i].residuals, delta.sums[i].residuals);
    EXPECT_EQ(loaded->sums[i].cell_abs, delta.sums[i].cell_abs);
  }
  ASSERT_EQ(loaded->regions.size(), delta.regions.size());
  EXPECT_TRUE(loaded->regions[2] == delta.regions[2]);
  EXPECT_EQ(loaded->maintained_blob, delta.maintained_blob);
}

TEST(DeltaCheckpointTest, ListsSeparateFullAndDeltaNamespaces) {
  const std::string dir = FreshDir("namespaces");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(5, 3, 2)).ok());
  auto fulls = ListCheckpoints(dir);
  auto deltas = ListDeltaCheckpoints(dir);
  ASSERT_TRUE(fulls.ok());
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(fulls->size(), 1u);
  ASSERT_EQ(deltas->size(), 1u);
  EXPECT_NE((*fulls)[0].path, (*deltas)[0].path);
  EXPECT_EQ(DeltaCheckpointFileName(5, 2), "delta-5-2.ckpt");
}

TEST(DeltaCheckpointTest, WriteRejectsMismatchedCellAndSumCounts) {
  const std::string dir = FreshDir("mismatch");
  CheckpointDelta delta = MakeDelta(5, 3, 2);
  delta.sums.pop_back();
  EXPECT_EQ(WriteDeltaCheckpoint(dir, delta).code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaCheckpointTest, ReadRejectsNonAscendingOrOutOfGridCells) {
  const std::string dir = FreshDir("ascending");
  CheckpointDelta delta = MakeDelta(5, 3, 2);
  delta.cells = {4, 1};  // Descending.
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, delta).ok());
  auto listed = ListDeltaCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  Status status = ReadDeltaCheckpoint((*listed)[0].path).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("ascending"), std::string::npos) << status;

  delta.cells = {1, 6};  // Cell 6 is outside the 2x3 grid.
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, delta).ok());
  status = ReadDeltaCheckpoint((*listed)[0].path).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

// Frames `body` exactly as the writer does (magic, version, length, CRC)
// and installs it as a delta (or full) checkpoint file in `dir`.
std::string WriteFramed(const std::string& dir, const std::string& name,
                        uint32_t magic, const std::string& body) {
  std::filesystem::create_directories(dir);
  BinaryWriter framed;
  framed.PutU32(magic);
  framed.PutU32(1);
  framed.PutU32(static_cast<uint32_t>(body.size()));
  framed.PutU32(Crc32(body.data(), body.size()));
  framed.PutBytes(body.data(), body.size());
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(framed.buffer().data(),
            static_cast<std::streamsize>(framed.size()));
  return path;
}

// The fields every body starts with, for a rows x cols grid.
void PutCommonHeader(int32_t rows, int32_t cols, BinaryWriter* body) {
  body->PutI32(rows);
  body->PutI32(cols);
  body->PutI64(1);  // epoch
  body->PutI64(0);  // sealed_records
  body->PutI64(1);  // wal_generation
  body->PutI64(0);  // total_resplits
  body->PutString("fair_kd_tree");
}

// Lengths read from disk are bounded by the bytes left before anything is
// reserved: a body claiming 2^31 x 2^31 cells (or more entries than it
// holds) fails as DataLoss instead of throwing bad_alloc.
TEST(DeltaCheckpointTest, HugeClaimedLengthsAreDataLossNotBadAlloc) {
  const std::string dir = FreshDir("huge_lengths");
  constexpr uint32_t kFullMagic = 0x4658434Bu;   // "FXCK"
  constexpr uint32_t kDeltaMagic = 0x46584443u;  // "FXDC"
  constexpr int32_t kHuge = std::numeric_limits<int32_t>::max();
  const uint64_t huge_cells = uint64_t{kHuge} * kHuge;

  BinaryWriter full_overflow;  // Consistent, but rows * cols overflows.
  PutCommonHeader(kHuge, kHuge, &full_overflow);
  full_overflow.PutU64(huge_cells);
  BinaryWriter full_truncated;  // 1000 x 1000 fits an int; the sums do not.
  PutCommonHeader(1000, 1000, &full_truncated);
  full_truncated.PutU64(1000000);
  BinaryWriter full_rects;  // A valid 1x1 body up to a huge rect count.
  PutCommonHeader(1, 1, &full_rects);
  full_rects.PutU64(1);
  for (int f = 0; f < 5; ++f) full_rects.PutDouble(0.0);
  BinaryWriter partition;
  partition.PutU64(1);
  partition.PutI32(1);
  partition.PutI32(0);
  full_rects.PutString(partition.buffer());
  full_rects.PutU64(huge_cells);
  for (const BinaryWriter* body :
       {&full_overflow, &full_truncated, &full_rects}) {
    const std::string path = WriteFramed(dir, CheckpointFileName(1, 1),
                                         kFullMagic, body->buffer());
    const Status status = ReadCheckpoint(path).status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  }

  for (const int32_t side : {kHuge, int32_t{1000}}) {
    BinaryWriter delta;
    PutCommonHeader(side, side, &delta);
    delta.PutI64(0);  // prev_epoch
    delta.PutI64(1);  // prev_generation
    delta.PutU64(static_cast<uint64_t>(side) * side);  // Every cell dirty.
    const std::string path = WriteFramed(dir, DeltaCheckpointFileName(1, 1),
                                         kDeltaMagic, delta.buffer());
    const Status status = ReadDeltaCheckpoint(path).status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  }
}

// The core resolution contract: a full base plus a chain of two deltas
// loads to exactly the state a full checkpoint at the head's epoch would
// hold — overlaid sums where dirtied, base sums elsewhere, and every
// head field (epoch, counters, regions, blob, partition) from the head.
TEST(DeltaCheckpointTest, LoadLatestResolvesChainBitIdenticalToFull) {
  const std::string dir = FreshDir("chain");
  const CheckpointData base = MakeBase(3);
  ASSERT_TRUE(WriteCheckpoint(dir, base).ok());
  const CheckpointDelta first = MakeDelta(5, 3, 2);
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, first).ok());
  CheckpointDelta head = MakeDelta(8, 5, 2);
  head.cells = {0, 4};  // Re-dirty cell 4 (newer overlay must win) + cell 0.
  head.sums = {Entry(1000.0), Entry(2000.0)};
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, head).ok());

  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 8);
  EXPECT_EQ(latest->sealed_records, 108);
  EXPECT_EQ(latest->wal_generation, 2);
  EXPECT_EQ(latest->total_resplits, head.total_resplits);
  EXPECT_EQ(latest->algorithm, "fair_kd_tree");
  EXPECT_EQ(latest->maintained_blob, head.maintained_blob);

  // Overlay: cell 0 and 4 from the head, cell 1 from the older delta,
  // the rest from the base.
  ASSERT_EQ(latest->cell_sums.size(), 6u);
  EXPECT_EQ(latest->cell_sums[0].count, Entry(1000.0).count);
  EXPECT_EQ(latest->cell_sums[1].count, Entry(105.0).count);
  EXPECT_EQ(latest->cell_sums[2].count, base.cell_sums[2].count);
  EXPECT_EQ(latest->cell_sums[3].count, base.cell_sums[3].count);
  EXPECT_EQ(latest->cell_sums[4].count, Entry(2000.0).count);
  EXPECT_EQ(latest->cell_sums[5].count, base.cell_sums[5].count);

  // The partition is rebuilt from the head's region rects with region id
  // == rect position — bitwise what FromRects derives.
  ASSERT_EQ(latest->regions.size(), head.regions.size());
  const Grid grid =
      Grid::Create(2, 3, BoundingBox{0, 0, 3, 2}).value();
  const Partition expected =
      Partition::FromRects(grid, head.regions).value();
  EXPECT_EQ(latest->partition.cell_to_region(), expected.cell_to_region());
  EXPECT_EQ(latest->partition.num_regions(), expected.num_regions());
}

TEST(DeltaCheckpointTest, BrokenChainFallsBackToOlderHead) {
  const std::string dir = FreshDir("broken");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  // Head names a predecessor that never existed: the chain is
  // unresolvable, so the loader must fall back to the full base.
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(9, 6, 2)).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
  EXPECT_EQ(latest->maintained_blob, "base-blob");
}

TEST(DeltaCheckpointTest, CorruptLinkFallsBackToOlderHead) {
  const std::string dir = FreshDir("corrupt_link");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(5, 3, 2)).ok());
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(8, 5, 2)).ok());
  // Corrupt the MIDDLE link: the head parses fine but its chain cannot
  // resolve, so the loader lands on the full base, not the torn state.
  CorruptFile(dir + "/" + DeltaCheckpointFileName(5, 2), 60);
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
}

TEST(DeltaCheckpointTest, CyclicChainFallsBackToOlderHead) {
  const std::string dir = FreshDir("cycle");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  // Two deltas naming each other: resolution must terminate and fall
  // back rather than walk the loop forever.
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(5, 8, 2)).ok());
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(8, 5, 2)).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
}

TEST(DeltaCheckpointTest, FullNewerThanDeltaWinsAsHead) {
  const std::string dir = FreshDir("full_head");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(5, 3, 2)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(9)).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 9);
  EXPECT_EQ(latest->maintained_blob, "base-blob");
}

TEST(DeltaCheckpointTest, PruneKeepsLiveChainDropsOrphanedDeltas) {
  const std::string dir = FreshDir("prune");
  // History: full@2, delta@3 (chains to full@2), full@6, delta@7 and
  // delta@9 (the live chain on full@6).
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(2)).ok());
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(3, 2, 2)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(6)).ok());
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(7, 6, 2)).ok());
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, MakeDelta(9, 7, 2)).ok());

  // keep_last = 1 full: full@2 goes, and delta@3 with it (its base is
  // gone, it can never resolve); the live chain on full@6 survives.
  ASSERT_TRUE(PruneCheckpoints(dir, 1).ok());
  auto fulls = ListCheckpoints(dir);
  auto deltas = ListDeltaCheckpoints(dir);
  ASSERT_TRUE(fulls.ok());
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(fulls->size(), 1u);
  EXPECT_EQ((*fulls)[0].epoch, 6);
  ASSERT_EQ(deltas->size(), 2u);
  EXPECT_EQ((*deltas)[0].epoch, 7);
  EXPECT_EQ((*deltas)[1].epoch, 9);

  // The surviving chain still resolves to the newest head.
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 9);
}

TEST(DeltaCheckpointTest, ChainDisagreeingWithBaseShapeFallsBack) {
  const std::string dir = FreshDir("shape");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  CheckpointDelta delta = MakeDelta(5, 3, 2);
  delta.rows = 4;  // Base is 2x3: the overlay must refuse, not misapply.
  ASSERT_TRUE(WriteDeltaCheckpoint(dir, delta).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
}

}  // namespace
}  // namespace fairidx
