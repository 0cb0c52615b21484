// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Little-endian binary encoding helpers plus CRC-32, shared by the
// durability layer (service/wal.h, service/checkpoint.h) and the tree
// maintainers' state blobs. Doubles are serialized as their
// raw IEEE-754 bit pattern, so a round trip is bit-exact — the property the
// recovery differential suite pins. Encoding is explicit byte shifts (not
// memcpy of host integers), so the format is identical on any host.

#ifndef FAIRIDX_COMMON_BINARY_IO_H_
#define FAIRIDX_COMMON_BINARY_IO_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace fairidx {

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of `size` bytes.
/// Chain blocks by passing the previous return value as `seed`.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// CRC-32C (Castagnoli, reflected, polynomial 0x1EDC6F41) — the checksum
/// the WAL frames every record with. Uses the SSE4.2 crc32 instruction
/// when the CPU has it (several times faster than any table method, and
/// record checksums sit on the ingest hot path); the software fallback
/// produces identical values. Detection goes through
/// common/cpu_features.h, so FAIRIDX_FORCE_SCALAR pins the software
/// table. Seed-chainable like Crc32.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

/// Reads the whole file at `path` into one string sized from the file —
/// the durability layer's one whole-file reader (checkpoints and WAL
/// segments). `what` names the file kind in the errors: NotFound "cannot
/// open <what> '<path>'" and DataLoss "<what> <path>: read failed".
Result<std::string> ReadWholeFile(const std::string& path,
                                  const std::string& what);

/// Appends fixed-width little-endian values to a growing byte string.
class BinaryWriter {
 public:
  void PutU8(uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void PutU32(uint32_t value);
  void PutI32(int32_t value) { PutU32(static_cast<uint32_t>(value)); }
  void PutU64(uint64_t value);
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  /// Raw IEEE-754 bit pattern; bit-exact round trip.
  void PutDouble(double value);
  void PutBytes(const void* data, size_t size);
  /// u64 length prefix + raw bytes.
  void PutString(const std::string& value);

  /// Bulk element writers — identical bytes to calling PutI32/PutDouble
  /// per element, but a single append on little-endian hosts. The WAL
  /// serializes every ingested batch through these on the hot path.
  void PutI32Array(const int* values, size_t count);
  void PutDoubleArray(const double* values, size_t count);

  /// Pre-size the buffer for `bytes` more output, huge-page advised
  /// (common/huge_pages.h) when that is a checkpoint-sized image.
  void Reserve(size_t bytes);

  /// Overwrites 4 already-written bytes at `offset` (little-endian) —
  /// for length/checksum headers patched after the body is serialized,
  /// so framing needs no second buffer.
  void PatchU32(size_t offset, uint32_t value);

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Reads BinaryWriter output back. Every read checks the remaining length
/// and fails with DataLoss on truncation, so corrupt inputs surface as
/// errors instead of reads past the end.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit BinaryReader(const std::string& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<int32_t> ReadI32() {
    FAIRIDX_ASSIGN_OR_RETURN(const uint32_t value, ReadU32());
    return static_cast<int32_t>(value);
  }
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64() {
    FAIRIDX_ASSIGN_OR_RETURN(const uint64_t value, ReadU64());
    return static_cast<int64_t>(value);
  }
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// Reads a u64 count of entries of at least `entry_bytes` bytes each
  /// that follow it, and fails with DataLoss when that many could not fit
  /// in the bytes left: a corrupt count never reaches a `reserve`.
  Result<uint64_t> ReadCount(size_t entry_bytes);

  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t bytes) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace fairidx

#endif  // FAIRIDX_COMMON_BINARY_IO_H_
