#include "service/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <tuple>
#include <utility>

#include "common/binary_io.h"

namespace fairidx {
namespace {

constexpr uint32_t kCheckpointMagic = 0x4658434Bu;  // "FXCK"
// Version 2 is the one-record format. Version 1 files (a full format with
// a partition map and a separate delta format) are refused.
constexpr uint32_t kCheckpointVersion = 2;

// Every checkpoint file is a 16-byte header — magic, version, body length,
// body CRC-32 — followed by the body.
constexpr size_t kFrameHeaderBytes = 16;
// One listed cell: its u32 id and its five PrefixEntry doubles.
constexpr size_t kCellBytes = sizeof(uint32_t) + 5 * sizeof(double);

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

// Best-effort directory fsync so the rename itself survives power loss.
// Failure is ignored: some filesystems reject directory fsync, and the
// checkpoint contents are already synced.
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

bool KeyLess(long long epoch_a, long long generation_a, long long epoch_b,
             long long generation_b) {
  return std::tie(epoch_a, generation_a) < std::tie(epoch_b, generation_b);
}

// Parses a bare checkpoint file name into `info` (path untouched); false
// when `name` is not one.
bool ParseFileName(const std::string& name, CheckpointInfo* info) {
  for (const bool is_link : {false, true}) {
    const char* pattern =
        is_link ? "delta-%lld-%lld.ckpt%n" : "checkpoint-%lld-%lld.ckpt%n";
    int consumed = 0;
    if (std::sscanf(name.c_str(), pattern, &info->epoch, &info->generation,
                    &consumed) == 2 &&
        consumed == static_cast<int>(name.size())) {
      info->is_link = is_link;
      return true;
    }
  }
  return false;
}

Result<GridAggregates::PrefixEntry> ReadEntry(BinaryReader& in) {
  GridAggregates::PrefixEntry entry;
  FAIRIDX_ASSIGN_OR_RETURN(entry.count, in.ReadDouble());
  FAIRIDX_ASSIGN_OR_RETURN(entry.labels, in.ReadDouble());
  FAIRIDX_ASSIGN_OR_RETURN(entry.scores, in.ReadDouble());
  FAIRIDX_ASSIGN_OR_RETURN(entry.residuals, in.ReadDouble());
  FAIRIDX_ASSIGN_OR_RETURN(entry.cell_abs, in.ReadDouble());
  return entry;
}

// The framed file image. The body is serialized straight after a
// placeholder frame header that is patched at the end, so the image is
// the only full-size buffer. A base writes the link as (0, 0):
// generations start at 1.
std::string SerializeFramed(const CheckpointData& data) {
  const CheckpointLink link = data.prev.value_or(CheckpointLink{});
  BinaryWriter out;
  // The exact size: a reservation that falls short by even a few bytes
  // makes the buffer double.
  out.Reserve(kFrameHeaderBytes + 2 * sizeof(int32_t) +
              6 * sizeof(int64_t) + sizeof(uint64_t) + data.algorithm.size() +
              sizeof(uint64_t) + data.cells.size() * kCellBytes +
              sizeof(uint64_t) + data.maintained_blob.size());
  for (size_t i = 0; i < kFrameHeaderBytes; i += 4) out.PutU32(0);
  out.PutI32(data.rows);
  out.PutI32(data.cols);
  out.PutI64(data.epoch);
  out.PutI64(data.sealed_records);
  out.PutI64(data.wal_generation);
  out.PutI64(data.total_resplits);
  out.PutString(data.algorithm);
  out.PutI64(link.epoch);
  out.PutI64(link.generation);
  // Ids, then their sums: two bulk appends. A PrefixEntry is five
  // contiguous doubles (pinned in geo/grid_aggregates.h).
  out.PutU64(data.cells.size());
  out.PutI32Array(data.cells.data(), data.cells.size());
  out.PutDoubleArray(reinterpret_cast<const double*>(data.sums.data()),
                     5 * data.sums.size());
  out.PutString(data.maintained_blob);
  const size_t body_bytes = out.size() - kFrameHeaderBytes;
  out.PatchU32(0, kCheckpointMagic);
  out.PatchU32(4, kCheckpointVersion);
  out.PatchU32(8, static_cast<uint32_t>(body_bytes));
  out.PatchU32(12,
               Crc32(out.buffer().data() + kFrameHeaderBytes, body_bytes));
  return out.Release();
}

Result<CheckpointData> ParseBody(BinaryReader in, const std::string& path) {
  CheckpointData data;
  CheckpointLink link;
  FAIRIDX_ASSIGN_OR_RETURN(data.rows, in.ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(data.cols, in.ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(data.epoch, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(data.sealed_records, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(data.wal_generation, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(data.total_resplits, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(data.algorithm, in.ReadString());
  FAIRIDX_ASSIGN_OR_RETURN(link.epoch, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(link.generation, in.ReadI64());
  if (data.rows < 1 || data.cols < 1 || data.epoch < 0 ||
      data.sealed_records < 0 || data.wal_generation < 1 ||
      link.epoch < 0 || link.generation < 0 ||
      (link.generation == 0 && link.epoch != 0)) {
    return DataLossError("checkpoint " + path + ": invalid header fields");
  }
  if (link.generation > 0) {
    // Strictly older predecessors make every chain terminate.
    if (!KeyLess(link.epoch, link.generation, data.epoch,
                 data.wal_generation)) {
      return DataLossError("checkpoint " + path +
                           ": link does not name an older checkpoint");
    }
    data.prev = link;
  }
  const uint64_t grid_cells =
      static_cast<uint64_t>(data.rows) * static_cast<uint64_t>(data.cols);
  if (grid_cells > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return DataLossError("checkpoint " + path + ": grid shape overflows");
  }
  Result<uint64_t> num_cells = in.ReadCount(kCellBytes);
  if (!num_cells.ok()) {
    return DataLossError("checkpoint " + path + ": cells: " +
                         num_cells.status().message());
  }
  if (*num_cells > grid_cells) {
    return DataLossError("checkpoint " + path +
                         ": more cells than the grid holds");
  }
  data.cells.reserve(static_cast<size_t>(*num_cells));
  for (uint64_t i = 0; i < *num_cells; ++i) {
    FAIRIDX_ASSIGN_OR_RETURN(const uint32_t cell, in.ReadU32());
    if (cell >= grid_cells ||
        (!data.cells.empty() &&
         static_cast<uint32_t>(data.cells.back()) >= cell)) {
      return DataLossError("checkpoint " + path +
                           ": cells not ascending in-grid ids");
    }
    data.cells.push_back(static_cast<int>(cell));
  }
  data.sums.resize(data.cells.size());
  for (GridAggregates::PrefixEntry& entry : data.sums) {
    FAIRIDX_ASSIGN_OR_RETURN(entry, ReadEntry(in));
  }
  FAIRIDX_ASSIGN_OR_RETURN(data.maintained_blob, in.ReadString());
  if (in.remaining() != 0) {
    return DataLossError("checkpoint " + path + ": trailing bytes");
  }
  return data;
}

// Overlays `link`'s cells onto `base`'s (both ascending): a cell both
// list takes the link's sums.
void Overlay(const CheckpointData& link, CheckpointData* base) {
  std::vector<int> cells;
  std::vector<GridAggregates::PrefixEntry> sums;
  cells.reserve(base->cells.size() + link.cells.size());
  sums.reserve(base->cells.size() + link.cells.size());
  size_t i = 0;
  for (size_t j = 0; j < link.cells.size(); ++j) {
    for (; i < base->cells.size() && base->cells[i] < link.cells[j]; ++i) {
      cells.push_back(base->cells[i]);
      sums.push_back(base->sums[i]);
    }
    if (i < base->cells.size() && base->cells[i] == link.cells[j]) ++i;
    cells.push_back(link.cells[j]);
    sums.push_back(link.sums[j]);
  }
  cells.insert(cells.end(), base->cells.begin() + i, base->cells.end());
  sums.insert(sums.end(), base->sums.begin() + i, base->sums.end());
  base->cells = std::move(cells);
  base->sums = std::move(sums);
}

// Resolves files[head] into one base record: reads the head, follows its
// links back to a base, then overlays the links oldest first and takes
// the head's header and blob. A missing or unreadable link, or a chain
// whose shape or algorithm disagrees with its base, fails as DataLoss.
Result<CheckpointData> Resolve(const std::vector<CheckpointInfo>& files,
                               size_t head) {
  const std::string& head_path = files[head].path;
  FAIRIDX_ASSIGN_OR_RETURN(CheckpointData record, ReadCheckpoint(head_path));
  std::vector<CheckpointData> links;  // Head first.
  while (record.prev.has_value()) {
    const CheckpointLink link = *record.prev;
    // A base at the named pair is preferred over a link at the same pair.
    const CheckpointInfo* prev = nullptr;
    for (const CheckpointInfo& info : files) {
      if (info.epoch == link.epoch && info.generation == link.generation &&
          (prev == nullptr || !info.is_link)) {
        prev = &info;
      }
    }
    if (prev == nullptr) {
      return DataLossError("checkpoint " + head_path +
                           ": chain broken at predecessor (" +
                           std::to_string(link.epoch) + ", " +
                           std::to_string(link.generation) + ")");
    }
    links.push_back(std::move(record));
    FAIRIDX_ASSIGN_OR_RETURN(record, ReadCheckpoint(prev->path));
  }
  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    if (it->rows != record.rows || it->cols != record.cols ||
        it->algorithm != record.algorithm) {
      return DataLossError("checkpoint " + head_path +
                           ": chain disagrees with its base");
    }
    Overlay(*it, &record);
  }
  if (!links.empty()) {
    CheckpointData& newest = links.front();
    record.epoch = newest.epoch;
    record.sealed_records = newest.sealed_records;
    record.wal_generation = newest.wal_generation;
    record.total_resplits = newest.total_resplits;
    record.maintained_blob = std::move(newest.maintained_blob);
  }
  return record;
}

}  // namespace

std::string CheckpointFileName(long long epoch, long long generation,
                               bool is_link) {
  return (is_link ? "delta-" : "checkpoint-") + std::to_string(epoch) + "-" +
         std::to_string(generation) + ".ckpt";
}

Result<std::vector<CheckpointInfo>> ListCheckpoints(const std::string& dir) {
  std::error_code ec;
  std::vector<CheckpointInfo> checkpoints;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return NotFoundError("cannot list checkpoint dir '" + dir +
                         "': " + ec.message());
  }
  for (const auto& entry : it) {
    CheckpointInfo info;
    if (ParseFileName(entry.path().filename().string(), &info)) {
      info.path = entry.path().string();
      checkpoints.push_back(std::move(info));
    }
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return std::make_tuple(a.epoch, a.generation, !a.is_link) <
                     std::make_tuple(b.epoch, b.generation, !b.is_link);
            });
  return checkpoints;
}

Status WriteCheckpoint(const std::string& dir, const CheckpointData& data,
                       const WritableFileFactory& file_factory) {
  if (data.sums.size() != data.cells.size()) {
    return InvalidArgumentError("WriteCheckpoint: cells/sums size mismatch");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create checkpoint dir '" + dir +
                         "': " + ec.message());
  }
  const std::string framed = SerializeFramed(data);
  const std::string final_path = JoinPath(
      dir, CheckpointFileName(data.epoch, data.wal_generation,
                              data.prev.has_value()));
  const std::string tmp_path = final_path + ".tmp";
  {
    Result<std::unique_ptr<WritableFile>> file =
        file_factory ? file_factory(tmp_path) : OpenWritableFile(tmp_path);
    FAIRIDX_RETURN_IF_ERROR(file.status());
    FAIRIDX_RETURN_IF_ERROR((*file)->Append(framed.data(), framed.size()));
    FAIRIDX_RETURN_IF_ERROR((*file)->Sync());
    FAIRIDX_RETURN_IF_ERROR((*file)->Close());
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return InternalError("cannot install checkpoint '" + final_path +
                         "': " + ec.message());
  }
  SyncDir(dir);
  return Status::Ok();
}

Result<CheckpointData> ReadCheckpoint(const std::string& path) {
  CheckpointInfo name;
  if (!ParseFileName(std::filesystem::path(path).filename().string(),
                     &name)) {
    return DataLossError("checkpoint " + path +
                         ": not a checkpoint file name");
  }
  FAIRIDX_ASSIGN_OR_RETURN(const std::string bytes,
                           ReadWholeFile(path, "checkpoint"));
  BinaryReader frame(bytes);
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t magic, frame.ReadU32());
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t version, frame.ReadU32());
  if (magic != kCheckpointMagic || version != kCheckpointVersion) {
    return DataLossError("checkpoint " + path + ": bad magic or version " +
                         std::to_string(version) + " (reads version " +
                         std::to_string(kCheckpointVersion) + " only)");
  }
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t body_len, frame.ReadU32());
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t expected_crc, frame.ReadU32());
  if (frame.remaining() != body_len) {
    return DataLossError("checkpoint " + path + ": truncated body (" +
                         std::to_string(frame.remaining()) + " of " +
                         std::to_string(body_len) + " bytes)");
  }
  const char* body = bytes.data() + kFrameHeaderBytes;
  if (Crc32(body, body_len) != expected_crc) {
    return DataLossError("checkpoint " + path + ": CRC mismatch");
  }
  FAIRIDX_ASSIGN_OR_RETURN(CheckpointData data,
                           ParseBody(BinaryReader(body, body_len), path));
  if (data.prev.has_value() != name.is_link || data.epoch != name.epoch ||
      data.wal_generation != name.generation) {
    return DataLossError("checkpoint " + path +
                         ": file name disagrees with the record");
  }
  return data;
}

Result<CheckpointData> LoadLatestCheckpoint(const std::string& dir) {
  FAIRIDX_ASSIGN_OR_RETURN(const std::vector<CheckpointInfo> files,
                           ListCheckpoints(dir));
  std::string newest_error;
  for (size_t head = files.size(); head-- > 0;) {
    Result<CheckpointData> data = Resolve(files, head);
    if (data.ok()) return data;
    if (newest_error.empty()) newest_error = ": " + data.status().message();
  }
  return NotFoundError("no valid checkpoint under '" + dir + "'" +
                       newest_error);
}

Status PruneCheckpoints(const std::string& dir, int keep_last) {
  if (keep_last < 1) {
    return InvalidArgumentError("PruneCheckpoints: keep_last must be >= 1");
  }
  FAIRIDX_ASSIGN_OR_RETURN(const std::vector<CheckpointInfo> files,
                           ListCheckpoints(dir));
  std::vector<const CheckpointInfo*> bases;
  for (const CheckpointInfo& info : files) {
    if (!info.is_link) bases.push_back(&info);
  }
  if (bases.empty()) return Status::Ok();
  // Files older than the oldest kept base go: older bases by the count,
  // and older links because they can only chain to pruned state (the
  // service never chains a link across a newer base).
  const CheckpointInfo& oldest_kept =
      *bases[bases.size() -
             std::min(bases.size(), static_cast<size_t>(keep_last))];
  std::error_code ec;
  for (const CheckpointInfo& info : files) {
    if (KeyLess(info.epoch, info.generation, oldest_kept.epoch,
                oldest_kept.generation)) {
      std::filesystem::remove(info.path, ec);
    }
  }
  return Status::Ok();
}

Status PruneWalSegments(const std::string& dir, long long through_epoch) {
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                           ListWalSegments(dir));
  std::error_code ec;
  for (const WalSegmentInfo& segment : segments) {
    if (segment.epoch <= through_epoch) {
      std::filesystem::remove(segment.path, ec);
    }
  }
  return Status::Ok();
}

}  // namespace fairidx
