// Tests for link checkpoints (service/checkpoint.h): framed round trip
// of every field of a link record, the name <-> kind rule, chain
// resolution in LoadLatestCheckpoint (overlay order, head-field
// precedence, cells no record lists), fallback on broken / corrupt /
// cyclic chains, chain-aware pruning, and the write- and read-side
// validation.

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

// A 2x3 grid base at `epoch`: cells 0, 2, 3 and 5 hold Entry(i + epoch);
// cells 1 and 4 are empty.
CheckpointData MakeBase(long long epoch) {
  CheckpointData data;
  data.rows = 2;
  data.cols = 3;
  data.epoch = epoch;
  data.sealed_records = 100 + epoch;
  data.wal_generation = 2;
  data.total_resplits = 1;
  data.algorithm = "fair_kd_tree";
  for (int i : {0, 2, 3, 5}) {
    data.cells.push_back(i);
    data.sums.push_back(Entry(i + epoch));
  }
  data.maintained_blob = "base-blob";
  return data;
}

// A link on top of (prev_epoch, prev_generation): lists cells 1 and 4
// with absolute sums derived from its own epoch.
CheckpointData MakeLink(long long epoch, long long prev_epoch,
                        long long prev_generation) {
  CheckpointData link;
  link.rows = 2;
  link.cols = 3;
  link.epoch = epoch;
  link.sealed_records = 100 + epoch;
  link.wal_generation = 2;
  link.total_resplits = 2 + epoch;
  link.algorithm = "fair_kd_tree";
  link.prev = CheckpointLink{prev_epoch, prev_generation};
  link.cells = {1, 4};
  link.sums = {Entry(100.0 + epoch), Entry(200.0 + epoch)};
  link.maintained_blob = "delta-blob-" + std::to_string(epoch);
  return link;
}

std::string LinkPath(const std::string& dir, long long epoch) {
  return dir + "/" + CheckpointFileName(epoch, 2, /*is_link=*/true);
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

void ExpectEntryEq(const GridAggregates::PrefixEntry& got,
                   const GridAggregates::PrefixEntry& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.residuals, want.residuals);
  EXPECT_EQ(got.cell_abs, want.cell_abs);
}

TEST(DeltaCheckpointTest, RoundTripsEveryField) {
  const std::string dir = FreshDir("roundtrip");
  const CheckpointData link = MakeLink(9, 7, 2);
  ASSERT_TRUE(WriteCheckpoint(dir, link).ok());

  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].epoch, 9);
  EXPECT_EQ((*listed)[0].generation, 2);
  EXPECT_TRUE((*listed)[0].is_link);
  EXPECT_EQ((*listed)[0].path, LinkPath(dir, 9));

  auto loaded = ReadCheckpoint((*listed)[0].path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rows, link.rows);
  EXPECT_EQ(loaded->cols, link.cols);
  EXPECT_EQ(loaded->epoch, link.epoch);
  EXPECT_EQ(loaded->sealed_records, link.sealed_records);
  EXPECT_EQ(loaded->wal_generation, link.wal_generation);
  EXPECT_EQ(loaded->total_resplits, link.total_resplits);
  EXPECT_EQ(loaded->algorithm, link.algorithm);
  ASSERT_TRUE(loaded->prev.has_value());
  EXPECT_EQ(loaded->prev->epoch, 7);
  EXPECT_EQ(loaded->prev->generation, 2);
  ASSERT_EQ(loaded->cells, link.cells);
  ASSERT_EQ(loaded->sums.size(), link.sums.size());
  for (size_t i = 0; i < link.sums.size(); ++i) {
    ExpectEntryEq(loaded->sums[i], link.sums[i]);
  }
  EXPECT_EQ(loaded->maintained_blob, link.maintained_blob);
}

// Bases and links share one list; the name alone says which is which.
TEST(DeltaCheckpointTest, ListsSeparateFullAndDeltaNamespaces) {
  const std::string dir = FreshDir("namespaces");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(5, 3, 2)).ok());
  std::ofstream(dir + "/wal-1-1.log") << "x";
  std::ofstream(dir + "/delta-5-2.ckpt.tmp") << "x";
  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_FALSE((*listed)[0].is_link);
  EXPECT_EQ((*listed)[0].epoch, 3);
  EXPECT_TRUE((*listed)[1].is_link);
  EXPECT_EQ((*listed)[1].epoch, 5);
  EXPECT_EQ(CheckpointFileName(5, 2, /*is_link=*/true), "delta-5-2.ckpt");
  EXPECT_EQ(CheckpointFileName(3, 2, /*is_link=*/false),
            "checkpoint-3-2.ckpt");
}

// A file whose name disagrees with its record — kind, epoch or
// generation — is DataLoss, so listing by name alone stays truthful.
TEST(DeltaCheckpointTest, ReadRejectsANameThatDisagreesWithTheRecord) {
  const std::string dir = FreshDir("name_mismatch");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(5, 3, 2)).ok());
  const std::string base = dir + "/checkpoint-3-2.ckpt";
  const std::string link = LinkPath(dir, 5);
  for (const auto& [from, to] :
       {std::pair{base, dir + "/delta-3-2.ckpt"},
        std::pair{link, dir + "/checkpoint-5-2.ckpt"},
        std::pair{base, dir + "/checkpoint-4-2.ckpt"},
        std::pair{base, dir + "/checkpoint-3-1.ckpt"}}) {
    std::filesystem::copy_file(from, to);
    const Status status = ReadCheckpoint(to).status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << to;
    EXPECT_NE(status.message().find("file name disagrees"),
              std::string::npos)
        << status;
    std::filesystem::remove(to);
  }
  EXPECT_EQ(ReadCheckpoint(dir + "/not-a-checkpoint").status().code(),
            StatusCode::kDataLoss);
}

TEST(DeltaCheckpointTest, WriteRejectsMismatchedCellAndSumCounts) {
  const std::string dir = FreshDir("mismatch");
  CheckpointData link = MakeLink(5, 3, 2);
  link.sums.pop_back();
  EXPECT_EQ(WriteCheckpoint(dir, link).code(), StatusCode::kInvalidArgument);
}

TEST(DeltaCheckpointTest, ReadRejectsNonAscendingOrOutOfGridCells) {
  const std::string dir = FreshDir("ascending");
  CheckpointData link = MakeLink(5, 3, 2);
  link.cells = {4, 1};  // Descending.
  ASSERT_TRUE(WriteCheckpoint(dir, link).ok());
  Status status = ReadCheckpoint(LinkPath(dir, 5)).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("ascending"), std::string::npos) << status;

  link.cells = {1, 6};  // Cell 6 is outside the 2x3 grid.
  ASSERT_TRUE(WriteCheckpoint(dir, link).ok());
  status = ReadCheckpoint(LinkPath(dir, 5)).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

// Frames `body` exactly as the writer does (magic, version, length, CRC)
// and installs it as `name` in `dir`.
std::string WriteFramed(const std::string& dir, const std::string& name,
                        const std::string& body) {
  std::filesystem::create_directories(dir);
  BinaryWriter framed;
  framed.PutU32(0x4658434Bu);  // "FXCK"
  framed.PutU32(2);
  framed.PutU32(static_cast<uint32_t>(body.size()));
  framed.PutU32(Crc32(body.data(), body.size()));
  framed.PutBytes(body.data(), body.size());
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(framed.buffer().data(),
            static_cast<std::streamsize>(framed.size()));
  return path;
}

// The header every body starts with, for a rows x cols grid at epoch 1,
// generation 1; `link` names (0, 1) as the predecessor.
void PutHeader(int32_t rows, int32_t cols, bool link, BinaryWriter* body) {
  body->PutI32(rows);
  body->PutI32(cols);
  body->PutI64(1);  // epoch
  body->PutI64(0);  // sealed_records
  body->PutI64(1);  // wal_generation
  body->PutI64(0);  // total_resplits
  body->PutString("fair_kd_tree");
  body->PutI64(0);                // prev epoch
  body->PutI64(link ? 1 : 0);     // prev generation (0: a base)
}

// Lengths read from disk are bounded by the bytes left before anything is
// reserved: a body claiming 2^31 x 2^31 cells (or more entries than it
// holds) fails as DataLoss instead of throwing bad_alloc.
TEST(DeltaCheckpointTest, HugeClaimedLengthsAreDataLossNotBadAlloc) {
  const std::string dir = FreshDir("huge_lengths");
  constexpr int32_t kHuge = std::numeric_limits<int32_t>::max();
  for (const bool link : {false, true}) {
    const std::string name = CheckpointFileName(1, 1, link);
    BinaryWriter overflow;  // Consistent, but rows * cols overflows.
    PutHeader(kHuge, kHuge, link, &overflow);
    overflow.PutU64(0);
    overflow.PutString("");
    BinaryWriter truncated;  // 1000 x 1000 fits an int; the cells do not.
    PutHeader(1000, 1000, link, &truncated);
    truncated.PutU64(1000000);
    BinaryWriter blob;  // A valid 1x1 body up to a huge blob length.
    PutHeader(1, 1, link, &blob);
    blob.PutU64(1);
    blob.PutU32(0);
    for (int f = 0; f < 5; ++f) blob.PutDouble(1.0);
    blob.PutU64(uint64_t{1} << 62);
    for (const BinaryWriter* body : {&overflow, &truncated, &blob}) {
      const std::string path = WriteFramed(dir, name, body->buffer());
      const Status status = ReadCheckpoint(path).status();
      EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
    }
  }
}

// The core resolution contract: a base plus a chain of two links loads
// to exactly the record a base at the head's epoch would hold — the
// newest sums of every cell any record lists, the head's header and
// blob, and no link.
TEST(DeltaCheckpointTest, LoadLatestResolvesChainBitIdenticalToFull) {
  const std::string dir = FreshDir("chain");
  const CheckpointData base = MakeBase(3);
  ASSERT_TRUE(WriteCheckpoint(dir, base).ok());
  const CheckpointData first = MakeLink(5, 3, 2);
  ASSERT_TRUE(WriteCheckpoint(dir, first).ok());
  CheckpointData head = MakeLink(8, 5, 2);
  head.cells = {0, 4};  // Re-lists cell 4 (newer must win) + base cell 0.
  head.sums = {Entry(1000.0), Entry(2000.0)};
  ASSERT_TRUE(WriteCheckpoint(dir, head).ok());

  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 8);
  EXPECT_EQ(latest->sealed_records, 108);
  EXPECT_EQ(latest->wal_generation, 2);
  EXPECT_EQ(latest->total_resplits, head.total_resplits);
  EXPECT_EQ(latest->algorithm, "fair_kd_tree");
  EXPECT_EQ(latest->maintained_blob, head.maintained_blob);
  EXPECT_FALSE(latest->prev.has_value());

  // Overlay: cells 0 and 4 from the head, cell 1 from the older link,
  // the rest from the base.
  ASSERT_EQ(latest->cells, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  ExpectEntryEq(latest->sums[0], Entry(1000.0));
  ExpectEntryEq(latest->sums[1], Entry(105.0));
  ExpectEntryEq(latest->sums[2], base.sums[1]);
  ExpectEntryEq(latest->sums[3], base.sums[2]);
  ExpectEntryEq(latest->sums[4], Entry(2000.0));
  ExpectEntryEq(latest->sums[5], base.sums[3]);
}

TEST(DeltaCheckpointTest, BrokenChainFallsBackToOlderHead) {
  const std::string dir = FreshDir("broken");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  // Head names a predecessor that never existed: the chain is
  // unresolvable, so the loader must fall back to the base.
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(9, 6, 2)).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
  EXPECT_EQ(latest->maintained_blob, "base-blob");
}

TEST(DeltaCheckpointTest, CorruptLinkFallsBackToOlderHead) {
  const std::string dir = FreshDir("corrupt_link");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(5, 3, 2)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(8, 5, 2)).ok());
  // Corrupt the MIDDLE link: the head parses fine but its chain cannot
  // resolve, so the loader lands on the base, not the torn state.
  CorruptFile(LinkPath(dir, 5), 60);
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
}

TEST(DeltaCheckpointTest, CyclicChainFallsBackToOlderHead) {
  const std::string dir = FreshDir("cycle");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  // Two links naming each other: the one naming a newer predecessor is
  // refused on read, so resolution terminates and falls back.
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(5, 8, 2)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(8, 5, 2)).ok());
  EXPECT_NE(ReadCheckpoint(LinkPath(dir, 5))
                .status()
                .message()
                .find("older checkpoint"),
            std::string::npos);
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
}

TEST(DeltaCheckpointTest, FullNewerThanDeltaWinsAsHead) {
  const std::string dir = FreshDir("full_head");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(5, 3, 2)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(9)).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 9);
  EXPECT_EQ(latest->maintained_blob, "base-blob");
  EXPECT_EQ(latest->cells, MakeBase(9).cells);
}

TEST(DeltaCheckpointTest, PruneKeepsLiveChainDropsOrphanedDeltas) {
  const std::string dir = FreshDir("prune");
  // History: base@2, link@3 (chains to base@2), base@6, link@7 and
  // link@9 (the live chain on base@6).
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(2)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(3, 2, 2)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(6)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(7, 6, 2)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeLink(9, 7, 2)).ok());

  // keep_last = 1 base: base@2 goes, and link@3 with it (its base is
  // gone, it can never resolve); the live chain on base@6 survives.
  ASSERT_TRUE(PruneCheckpoints(dir, 1).ok());
  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 3u);
  EXPECT_FALSE((*listed)[0].is_link);
  EXPECT_EQ((*listed)[0].epoch, 6);
  EXPECT_TRUE((*listed)[1].is_link);
  EXPECT_EQ((*listed)[1].epoch, 7);
  EXPECT_TRUE((*listed)[2].is_link);
  EXPECT_EQ((*listed)[2].epoch, 9);

  // The surviving chain still resolves to the newest head.
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 9);
}

TEST(DeltaCheckpointTest, ChainDisagreeingWithBaseShapeFallsBack) {
  const std::string dir = FreshDir("shape");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeBase(3)).ok());
  CheckpointData link = MakeLink(5, 3, 2);
  link.rows = 4;  // Base is 2x3: the overlay must refuse, not misapply.
  ASSERT_TRUE(WriteCheckpoint(dir, link).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
}

}  // namespace
}  // namespace fairidx
