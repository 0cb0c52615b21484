// Tests for partition serialization and WKT export.

#include "index/partition_io.h"

#include <gtest/gtest.h>

#include <string>

#include "index/uniform_grid.h"

namespace fairidx {
namespace {

Grid MakeGrid() {
  return Grid::Create(4, 4, BoundingBox{0, 0, 4, 4}).value();
}

TEST(PartitionIoTest, CsvRoundTripIsEquivalentUpToRelabeling) {
  const Grid grid = MakeGrid();
  const PartitionResult built =
      BuildUniformGridPartition(grid, 3).value();
  const std::string csv = SerializePartitionCsv(grid, built.partition);
  const Partition loaded = ParsePartitionCsv(grid, csv).value();
  EXPECT_EQ(loaded.num_regions(), built.partition.num_regions());
  // Mutual refinement == identical partitions up to region renaming
  // (loading compacts ids in first-appearance order).
  EXPECT_TRUE(loaded.IsRefinedBy(built.partition));
  EXPECT_TRUE(built.partition.IsRefinedBy(loaded));
}

TEST(PartitionIoTest, FileRoundTrip) {
  const Grid grid = MakeGrid();
  const PartitionResult built =
      BuildUniformGridPartition(grid, 2).value();
  const std::string path =
      ::testing::TempDir() + "/fairidx_partition_test.csv";
  ASSERT_TRUE(SavePartitionCsv(path, grid, built.partition).ok());
  const Partition loaded = LoadPartitionCsv(path, grid).value();
  EXPECT_EQ(loaded.cell_to_region(), built.partition.cell_to_region());
}

TEST(PartitionIoTest, ParseRejectsWrongCellCount) {
  const Grid grid = MakeGrid();
  const std::string csv = "cell_id,row,col,region\n0,0,0,0\n";
  EXPECT_FALSE(ParsePartitionCsv(grid, csv).ok());
}

TEST(PartitionIoTest, ParseRejectsDuplicateCells) {
  const Grid small = Grid::Create(1, 2, BoundingBox{0, 0, 2, 1}).value();
  const std::string csv =
      "cell_id,row,col,region\n0,0,0,0\n0,0,0,1\n";
  EXPECT_FALSE(ParsePartitionCsv(small, csv).ok());
}

TEST(PartitionIoTest, ParseRejectsOutOfRangeCell) {
  const Grid small = Grid::Create(1, 2, BoundingBox{0, 0, 2, 1}).value();
  const std::string csv =
      "cell_id,row,col,region\n0,0,0,0\n7,0,1,1\n";
  EXPECT_FALSE(ParsePartitionCsv(small, csv).ok());
}

TEST(PartitionIoTest, ParseRejectsMissingColumns) {
  const Grid grid = MakeGrid();
  EXPECT_FALSE(ParsePartitionCsv(grid, "a,b\n1,2\n").ok());
}

TEST(PartitionIoTest, ParseRejectsRowColMismatch) {
  // Cell 1 of a 1x2 grid lives at (row 0, col 1); a CSV claiming it sits
  // at (1, 0) was written against a different grid shape and must not be
  // silently reinterpreted.
  const Grid small = Grid::Create(1, 2, BoundingBox{0, 0, 2, 1}).value();
  const std::string csv =
      "cell_id,row,col,region\n0,0,0,0\n1,1,0,1\n";
  const Status status = ParsePartitionCsv(small, csv).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("claims"), std::string::npos) << status;
}

TEST(PartitionIoTest, ParseRejectsNonIntegerFields) {
  const Grid small = Grid::Create(1, 2, BoundingBox{0, 0, 2, 1}).value();
  EXPECT_FALSE(ParsePartitionCsv(
                   small, "cell_id,row,col,region\n0,0,0,0\nx,0,1,1\n")
                   .ok());
  EXPECT_FALSE(ParsePartitionCsv(
                   small, "cell_id,row,col,region\n0,0,0,0\n1,0,1,1.5\n")
                   .ok());
}

TEST(PartitionIoTest, WktHasOnePolygonPerRegion) {
  const Grid grid = MakeGrid();
  const PartitionResult built =
      BuildUniformGridPartition(grid, 2).value();
  const std::string wkt = PartitionRectsToWkt(grid, built.regions);
  size_t polygons = 0;
  size_t pos = 0;
  while ((pos = wkt.find("POLYGON", pos)) != std::string::npos) {
    ++polygons;
    pos += 7;
  }
  EXPECT_EQ(polygons, built.regions.size());
}

TEST(PartitionIoTest, WktPolygonsAreClosedRings) {
  const Grid grid = MakeGrid();
  const std::string wkt =
      PartitionRectsToWkt(grid, {CellRect{0, 2, 0, 2}});
  // First and last coordinate pair must match (closed ring).
  const size_t open = wkt.find("((");
  const size_t close = wkt.find("))");
  ASSERT_NE(open, std::string::npos);
  const std::string first_pair =
      wkt.substr(open + 2, wkt.find(',', open) - open - 2);
  const size_t last_comma = wkt.rfind(',', close);
  const std::string last_pair =
      wkt.substr(last_comma + 2, close - last_comma - 2);
  EXPECT_EQ(first_pair, last_pair);
}

TEST(PartitionIoTest, WktHandlesEmptyRect) {
  const Grid grid = MakeGrid();
  const std::string wkt =
      PartitionRectsToWkt(grid, {CellRect{1, 1, 0, 4}});
  EXPECT_NE(wkt.find("POLYGON EMPTY"), std::string::npos);
}

}  // namespace
}  // namespace fairidx
