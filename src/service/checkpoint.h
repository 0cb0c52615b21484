// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Sealed-state checkpoints for the serving layer. Every checkpoint file
// is one record: the header (grid shape, epoch, sealed record count, WAL
// generation, re-split counter, algorithm), an optional predecessor link,
// ascending cell ids and their cumulative PrefixEntry sums, and the
// partitioner's maintenance blob (Partitioner::SaveMaintained). The
// partition itself is not stored: Restore rebuilds it from the blob's
// region rects. Recovery loads the newest resolvable record and replays
// only WAL segments with epoch > its epoch.
//
// Two kinds of file share the record, and the name says which is which:
//
//   checkpoint-<epoch>-<generation>.ckpt  a BASE: no link; it lists every
//                                         cell that holds records.
//   delta-<epoch>-<generation>.ckpt       a LINK: it names its predecessor
//                                         (base or link) by (epoch,
//                                         generation) and lists the cells
//                                         sealed since that predecessor.
//
// Sums are absolute, so resolving a chain is pure overwrite: walk a link
// head back to its base and overlay the records oldest first; a cell no
// record lists is empty. A link must name a strictly older predecessor,
// so chains cannot cycle. LoadLatestCheckpoint tries heads newest first
// and falls back to the next-older head when a file, or any link of its
// chain, is missing or corrupt.
//
// Files are written atomically: serialize to `<name>.tmp`, fsync, rename.
// The body is one CRC32-framed block, so a torn or corrupt file is
// detected on read.

#ifndef FAIRIDX_SERVICE_CHECKPOINT_H_
#define FAIRIDX_SERVICE_CHECKPOINT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "geo/grid_aggregates.h"
#include "service/wal.h"

namespace fairidx {

/// A link's predecessor checkpoint file.
struct CheckpointLink {
  long long epoch = 0;
  long long generation = 0;
};

/// One checkpoint record (see file header).
struct CheckpointData {
  int rows = 0;
  int cols = 0;
  long long epoch = 0;
  long long sealed_records = 0;
  /// WAL generation current when the checkpoint was written; recovery
  /// replays segments with epoch > `epoch` and opens generation
  /// max(this, on-disk) + 1.
  long long wal_generation = 1;
  /// Service lifetime re-split counter, restored for observability.
  long long total_resplits = 0;
  /// Registry name of the partitioner (sanity-checked on recover).
  std::string algorithm;
  /// Set for a link (a delta-*.ckpt file), unset for a base.
  std::optional<CheckpointLink> prev;
  /// Ascending cell ids and their absolute cumulative sums (parallel).
  std::vector<int> cells;
  std::vector<GridAggregates::PrefixEntry> sums;
  /// Partitioner::SaveMaintained blob (empty when unavailable).
  std::string maintained_blob;
};

/// One on-disk checkpoint file, parsed from its name.
struct CheckpointInfo {
  long long epoch = 0;
  long long generation = 0;
  /// A delta-*.ckpt file; otherwise a checkpoint-*.ckpt base.
  bool is_link = false;
  std::string path;
};

/// delta-<epoch>-<generation>.ckpt for a link, checkpoint-<epoch>-
/// <generation>.ckpt for a base.
std::string CheckpointFileName(long long epoch, long long generation,
                               bool is_link);

/// Every checkpoint file under `dir`, bases and links, sorted ascending
/// by (epoch, generation), a link before a base at the same pair. Files
/// are classified by name alone; other files are ignored.
Result<std::vector<CheckpointInfo>> ListCheckpoints(const std::string& dir);

/// Serializes `data` and atomically installs it in `dir` under its name
/// (tmp + fsync + rename); `data.prev` picks the kind.
/// `file_factory` is the fault-injection seam; null uses OpenWritableFile.
Status WriteCheckpoint(const std::string& dir, const CheckpointData& data,
                       const WritableFileFactory& file_factory = nullptr);

/// Reads and validates one checkpoint file: magic, version, CRC, in-grid
/// ascending cells, a link strictly older than the record, and a name
/// that agrees with the record's kind, epoch and generation. Failures
/// are DataLoss (NotFound when the file cannot be opened).
Result<CheckpointData> ReadCheckpoint(const std::string& path);

/// Resolves the newest head under `dir` into one base record: the head's
/// header and blob, no link, and the chain's cells overlaid oldest first.
/// A head that fails to read or resolve is skipped for the next-older
/// one. NotFound when none resolves; the message then carries the newest
/// head's own error.
Result<CheckpointData> LoadLatestCheckpoint(const std::string& dir);

/// Deletes all but the newest `keep_last` bases, plus every link older
/// than the oldest kept base (such links can only chain to pruned
/// state). Newer links are kept: one of them may be the live head.
Status PruneCheckpoints(const std::string& dir, int keep_last);

/// Deletes WAL segments whose records are fully covered by a checkpoint
/// at `through_epoch` (segment epoch <= through_epoch, any generation).
Status PruneWalSegments(const std::string& dir, long long through_epoch);

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_CHECKPOINT_H_
