#include "index/partition_io.h"

#include "common/csv.h"
#include "common/string_util.h"

namespace fairidx {

std::string SerializePartitionCsv(const Grid& grid,
                                  const Partition& partition) {
  CsvTable table;
  table.header = {"cell_id", "row", "col", "region"};
  table.rows.reserve(static_cast<size_t>(grid.num_cells()));
  for (int cell = 0; cell < grid.num_cells(); ++cell) {
    table.rows.push_back({
        std::to_string(cell),
        std::to_string(grid.RowOfCell(cell)),
        std::to_string(grid.ColOfCell(cell)),
        std::to_string(partition.RegionOfCell(cell)),
    });
  }
  return WriteCsv(table);
}

Result<Partition> ParsePartitionCsv(const Grid& grid,
                                    const std::string& csv_text) {
  FAIRIDX_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(csv_text));
  FAIRIDX_ASSIGN_OR_RETURN(size_t cell_col, table.ColumnIndex("cell_id"));
  FAIRIDX_ASSIGN_OR_RETURN(size_t row_col, table.ColumnIndex("row"));
  FAIRIDX_ASSIGN_OR_RETURN(size_t col_col, table.ColumnIndex("col"));
  FAIRIDX_ASSIGN_OR_RETURN(size_t region_col, table.ColumnIndex("region"));
  if (table.rows.size() != static_cast<size_t>(grid.num_cells())) {
    return InvalidArgumentError(
        "partition CSV has " + std::to_string(table.rows.size()) +
        " cells, grid expects " + std::to_string(grid.num_cells()));
  }
  std::vector<int> cell_to_region(static_cast<size_t>(grid.num_cells()), -1);
  for (const auto& row : table.rows) {
    FAIRIDX_ASSIGN_OR_RETURN(int cell, ParseInt(row[cell_col]));
    FAIRIDX_ASSIGN_OR_RETURN(int cell_row, ParseInt(row[row_col]));
    FAIRIDX_ASSIGN_OR_RETURN(int cell_column, ParseInt(row[col_col]));
    FAIRIDX_ASSIGN_OR_RETURN(int region, ParseInt(row[region_col]));
    if (cell < 0 || cell >= grid.num_cells()) {
      return OutOfRangeError("partition CSV: cell id " +
                             std::to_string(cell) + " outside [0, " +
                             std::to_string(grid.num_cells()) + ")");
    }
    if (cell_row != grid.RowOfCell(cell) ||
        cell_column != grid.ColOfCell(cell)) {
      return InvalidArgumentError(
          "partition CSV: cell " + std::to_string(cell) + " claims (row " +
          std::to_string(cell_row) + ", col " + std::to_string(cell_column) +
          "), grid places it at (row " +
          std::to_string(grid.RowOfCell(cell)) + ", col " +
          std::to_string(grid.ColOfCell(cell)) + ")");
    }
    if (cell_to_region[static_cast<size_t>(cell)] != -1) {
      return InvalidArgumentError("partition CSV: duplicate cell " +
                                  std::to_string(cell));
    }
    cell_to_region[static_cast<size_t>(cell)] = region;
  }
  return Partition::FromCellMap(std::move(cell_to_region));
}

Status SavePartitionCsv(const std::string& path, const Grid& grid,
                        const Partition& partition) {
  const std::string text = SerializePartitionCsv(grid, partition);
  FAIRIDX_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text));
  return WriteCsvFile(path, table);
}

Result<Partition> LoadPartitionCsv(const std::string& path,
                                   const Grid& grid) {
  FAIRIDX_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path));
  return ParsePartitionCsv(grid, WriteCsv(table));
}

std::string PartitionRectsToWkt(const Grid& grid,
                                const std::vector<CellRect>& regions) {
  std::string out;
  for (const CellRect& rect : regions) {
    if (rect.empty()) {
      out += "POLYGON EMPTY\n";
      continue;
    }
    const BoundingBox lo = grid.CellBounds(rect.row_begin, rect.col_begin);
    const BoundingBox hi =
        grid.CellBounds(rect.row_end - 1, rect.col_end - 1);
    out += StrFormat(
        "POLYGON ((%.6f %.6f, %.6f %.6f, %.6f %.6f, %.6f %.6f, %.6f "
        "%.6f))\n",
        lo.min_x, lo.min_y, hi.max_x, lo.min_y, hi.max_x, hi.max_y,
        lo.min_x, hi.max_y, lo.min_x, lo.min_y);
  }
  return out;
}

}  // namespace fairidx
