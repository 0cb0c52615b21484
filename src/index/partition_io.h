// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Partition serialization: save a published neighborhood map to disk and
// load it back, plus a WKT export of rectangle-based partitions for GIS
// visualization. The on-disk format is CSV with a small header row:
//
//   cell_id,row,col,region
//   0,0,0,3
//   ...
//
// The grid shape is recoverable from the max row/col; loaders verify the
// map covers the expected grid.

#ifndef FAIRIDX_INDEX_PARTITION_IO_H_
#define FAIRIDX_INDEX_PARTITION_IO_H_

#include <string>

#include "common/result.h"
#include "geo/grid.h"
#include "index/partition.h"

namespace fairidx {

/// Serialises the partition's cell map to CSV text.
std::string SerializePartitionCsv(const Grid& grid,
                                  const Partition& partition);

/// Parses a partition from CSV text produced by SerializePartitionCsv.
/// Verifies the map covers `grid` exactly. Region ids are compacted in
/// first-appearance order, so the loaded partition equals the saved one up
/// to region relabeling.
Result<Partition> ParsePartitionCsv(const Grid& grid,
                                    const std::string& csv_text);

/// Saves / loads via files.
Status SavePartitionCsv(const std::string& path, const Grid& grid,
                        const Partition& partition);
Result<Partition> LoadPartitionCsv(const std::string& path,
                                   const Grid& grid);

/// Exports a rectangle-based partition (e.g. KD-tree leaves) as one WKT
/// POLYGON per line, in region order — loadable by QGIS/PostGIS.
std::string PartitionRectsToWkt(const Grid& grid,
                                const std::vector<CellRect>& regions);

}  // namespace fairidx

#endif  // FAIRIDX_INDEX_PARTITION_IO_H_
