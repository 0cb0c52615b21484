// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

namespace fairidx {
namespace e2e {
namespace {

// One thread's span buffer. Only its thread appends; collection runs
// after every worker thread has been joined.
struct ThreadSpans {
  uint32_t slot = 0;
  std::vector<SpanRecord> records;
  std::vector<uint64_t> open;  // Ids of the spans this thread has open.
};

std::atomic<bool> g_tracing{false};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadSpans>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadSpans>>();
  return *buffers;
}

ThreadSpans& ThisThreadSpans() {
  thread_local ThreadSpans* spans = nullptr;
  if (spans == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    auto owned = std::make_unique<ThreadSpans>();
    owned->slot = static_cast<uint32_t>(Buffers().size());
    owned->records.reserve(1 << 16);
    spans = owned.get();
    Buffers().push_back(std::move(owned));
  }
  return *spans;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kSpanPass:
      return "pass";
    case kSpanCreate:
      return "service.Create";
    case kSpanIngest:
      return "service.Ingest";
    case kSpanSeal:
      return "service.Seal";
    case kSpanCheckpoint:
      return "service.Checkpoint";
    case kSpanRecover:
      return "service.Recover";
    case kSpanMaybeRefine:
      return "service.MaybeRefine";
    case kSpanLookupMany:
      return "service.LookupMany";
    case kSpanFromCellSums:
      return "geo.FromCellSums";
    case kSpanFromRects:
      return "index.FromRects";
    case kSpanTrainOnBaseGrid:
      return "ml.TrainOnBaseGrid";
    case kSpanPartitionerBuild:
      return "index.PartitionerBuild";
    case kSpanRunPipeline:
      return "core.RunPipeline";
    case kNumSpanNames:
      break;
  }
  return "unknown";
}

void SetTracing(bool enabled) { g_tracing.store(enabled); }
bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(SpanName name, uint64_t parent, bool record)
    : start_ns_(NowNs()) {
  if (!record || !TracingEnabled()) return;
  ThreadSpans& spans = ThisThreadSpans();
  SpanRecord span;
  span.start_ns = start_ns_;
  span.parent =
      parent != 0 ? parent : (spans.open.empty() ? 0 : spans.open.back());
  span.name = name;
  spans.records.push_back(span);
  id_ = (static_cast<uint64_t>(spans.slot) << 32) | spans.records.size();
  spans.open.push_back(id_);
}

int64_t ScopedSpan::End() {
  const int64_t end_ns = NowNs();
  ended_ = true;
  if (id_ != 0) {
    ThreadSpans& spans = ThisThreadSpans();
    spans.records[(id_ & 0xffffffffu) - 1].end_ns = end_ns;
    spans.open.pop_back();
  }
  return end_ns - start_ns_;
}

std::vector<SpanStats> CollectSpanStats() {
  std::vector<SpanStats> stats(kNumSpanNames);
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : Buffers()) {
    for (const SpanRecord& record : buffer->records) {
      SpanStats& s = stats[record.name];
      const double ns = static_cast<double>(record.end_ns - record.start_ns);
      ++s.calls;
      s.busy_ns += ns;
      s.durations_ns.push_back(ns);
    }
  }
  for (SpanStats& s : stats) {
    std::sort(s.durations_ns.begin(), s.durations_ns.end());
  }
  return stats;
}

long long RecordedSpanCount() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  long long total = 0;
  for (const auto& buffer : Buffers()) {
    total += static_cast<long long>(buffer->records.size());
  }
  return total;
}

bool WriteSpans(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id,parent,name,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : Buffers()) {
    for (size_t i = 0; i < buffer->records.size(); ++i) {
      const SpanRecord& r = buffer->records[i];
      const uint64_t id = (static_cast<uint64_t>(buffer->slot) << 32) | (i + 1);
      std::fprintf(file, "%llu,%llu,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(r.parent),
                   SpanNameString(static_cast<SpanName>(r.name)),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, 0.5);
}

Tail TailOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  if (values.size() >= 1000) {
    tail.q = 0.99;
  } else if (values.size() >= 20) {
    tail.q = 1.0 - 10.0 / n;
  } else {
    tail.q = 1.0;
  }
  tail.value = PercentileSorted(values, tail.q);
  return tail;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"ingest_rps", "1/s"},    {"visible_p50_ms", "ms"},
      {"visible_p99_ms", "ms"}, {"call_p50_us", "us"},
      {"call_p99_us", "us"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"service.Seal.calls", "count"},
      {"service.Seal.p50_ms", "ms"},
      {"service.Seal.p99_ms", "ms"},
      {"service.Seal.max_ms", "ms"},
      {"service.Seal.busy_s", "s"},
      {"service.Seal.share", "ratio"},
      {"service.Seal.failed", "count"},
      {"geo.FromCellSums.ms", "ms"},
      {"service.Ingest.calls", "count"},
      {"service.Ingest.p50_us", "us"},
      {"service.Ingest.p99_us", "us"},
      {"service.Ingest.busy_s", "s"},
      {"service.Ingest.share", "ratio"},
      {"service.Ingest.failed", "count"},
      {"service.Create.failed", "count"},
      {"service.Checkpoint.calls", "count"},
      {"service.Checkpoint.p50_ms", "ms"},
      {"service.Checkpoint.max_ms", "ms"},
      {"service.Checkpoint.failed", "count"},
      {"service.wal_bytes", "bytes"},
      {"service.write_bytes_per_rec", "B/rec"},
      {"service.Recover.s", "s"},
      {"service.Recover.failed", "count"},
      {"service.MaybeRefine.calls", "count"},
      {"service.MaybeRefine.p50_ms", "ms"},
      {"service.MaybeRefine.p99_ms", "ms"},
      {"service.MaybeRefine.busy_s", "s"},
      {"service.MaybeRefine.share", "ratio"},
      {"service.MaybeRefine.failed", "count"},
      {"service.resplits", "count"},
      {"service.publications_patched", "count"},
      {"service.publications_fallback", "count"},
      {"service.refine.publish_ratio", "ratio"},
      {"index.FromRects.ms", "ms"},
      {"service.publish_stall_max_us", "us"},
      {"service.scheduler.passes", "count"},
      {"service.scheduler.refines", "count"},
      {"service.scheduler.published", "count"},
      {"service.scheduler.errors", "count"},
      {"service.store.pending_max", "count"},
      {"service.LookupMany.calls", "count"},
      {"service.LookupMany.ns_per_pt", "ns"},
      {"service.LookupMany.share", "ratio"},
      {"service.LookupMany.failed", "count"},
      {"ml.TrainOnBaseGrid.s", "s"},
      {"ml.TrainOnBaseGrid.failed", "count"},
      {"ml.test_accuracy", "ratio"},
      {"index.PartitionerBuild.s", "s"},
      {"index.PartitionerBuild.failed", "count"},
      {"core.RunPipeline.partition_s", "s"},
      {"core.RunPipeline.fits", "count"},
      {"core.RunPipeline.failed", "count"},
      {"fairness.final_ence", "ence"},
      {"load.writer_late_p99_ms", "ms"},
      {"samples.visible", "count"},
      {"samples.call", "count"},
      {"trace.spans", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

void Report::Ops(SpanName name, long long attempted, long long failed) {
  attempted_ += attempted;
  failed_ += failed;
  values_[std::string(SpanNameString(name)) + ".failed"] += failed;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  notes_.push_back("CHECK FAILED: " + what);
}

void Report::AddSpanMetrics(const std::map<SpanName, double>& share_base_ns) {
  const std::vector<SpanStats> stats = CollectSpanStats();
  for (int n = 0; n < kNumSpanNames; ++n) {
    const SpanStats& s = stats[n];
    if (s.calls == 0) continue;
    const std::string prefix = SpanNameString(static_cast<SpanName>(n));
    const auto& d = s.durations_ns;
    values_[prefix + ".calls"] = static_cast<double>(s.calls);
    values_[prefix + ".busy_s"] = s.busy_ns * 1e-9;
    values_[prefix + ".p50_ms"] = PercentileSorted(d, 0.5) * 1e-6;
    values_[prefix + ".p99_ms"] = PercentileSorted(d, 0.99) * 1e-6;
    values_[prefix + ".max_ms"] = d.back() * 1e-6;
    values_[prefix + ".p50_us"] = PercentileSorted(d, 0.5) * 1e-3;
    values_[prefix + ".p99_us"] = PercentileSorted(d, 0.99) * 1e-3;
    values_[prefix + ".ms"] = PercentileSorted(d, 0.5) * 1e-6;
    values_[prefix + ".s"] = PercentileSorted(d, 0.5) * 1e-9;
    auto base = share_base_ns.find(static_cast<SpanName>(n));
    if (base != share_base_ns.end() && base->second > 0.0) {
      values_[prefix + ".share"] = s.busy_ns / base->second;
    }
  }
  const double points = Get("service.LookupMany.points");
  if (points > 0.0) {
    values_["service.LookupMany.ns_per_pt"] =
        stats[kSpanLookupMany].busy_ns / points;
  }
  values_["trace.spans"] = static_cast<double>(RecordedSpanCount());
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

long long WrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  long long value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return -1;
}

}  // namespace e2e
}  // namespace fairidx
