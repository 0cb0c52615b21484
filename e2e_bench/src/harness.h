// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Measurement plumbing of the end-to-end benchmark: a monotonic clock,
// in-memory spans for the traced run, exact percentiles over raw samples,
// the metric catalog, and the Report every workload fills.
//
// Every library call a workload makes goes through a ScopedSpan. With
// tracing off a span only reads the clock twice (the workload needs the duration
// for its own end-to-end numbers); with tracing on it also appends a
// record {name, start, end, parent} to its thread's buffer. Buffers stay
// in memory and are written out once, when the run ends.

#ifndef FAIRIDX_E2E_BENCH_HARNESS_H_
#define FAIRIDX_E2E_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fairidx {
namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The library calls the benchmark times, named after the layer that
/// serves them (layer.Call).
enum SpanName : uint16_t {
  kSpanPass,
  kSpanCreate,
  kSpanIngest,
  kSpanSeal,
  kSpanCheckpoint,
  kSpanRecover,
  kSpanMaybeRefine,
  kSpanLookupMany,
  kSpanFromCellSums,
  kSpanFromRects,
  kSpanTrainOnBaseGrid,
  kSpanPartitionerBuild,
  kSpanRunPipeline,
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

/// One recorded span. Ids are (thread slot << 32) | (index + 1); parent 0
/// means a root.
struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t parent = 0;
  uint16_t name = 0;
};

/// Turns span recording on or off. Flip only while no workload thread
/// runs (between passes).
void SetTracing(bool enabled);
bool TracingEnabled();

/// A timed library call. The parent is the innermost open span of the
/// calling thread unless `parent` names one (a worker thread's root
/// pointing at the pass that started it). With `record` false the call is
/// only timed, even in a traced pass (sampling for very frequent calls).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, uint64_t parent = 0, bool record = true);
  ~ScopedSpan() {
    if (!ended_) End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span; returns its duration in nanoseconds.
  int64_t End();

  /// 0 when tracing is off.
  uint64_t id() const { return id_; }

 private:
  int64_t start_ns_;
  uint64_t id_ = 0;
  bool ended_ = false;
};

/// Per-name aggregate over every recorded span.
struct SpanStats {
  long long calls = 0;
  double busy_ns = 0.0;
  std::vector<double> durations_ns;  // Sorted.
};
std::vector<SpanStats> CollectSpanStats();
long long RecordedSpanCount();

/// Writes every recorded span to `path` (one "id,parent,name,start_ns,
/// end_ns" line each). Returns false on an I/O error.
bool WriteSpans(const std::string& path);

/// Exact percentile (linear interpolation between order statistics) of
/// sorted samples; q in [0, 1]. 0 for an empty vector.
double PercentileSorted(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it, capped at
/// p99: p99 from 1000 samples on; max below 10.
struct Tail {
  double value = 0.0;
  double q = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// One metric of the catalog (mirrors BENCHMARK.json).
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// What a workload run produced: metric values, correctness checks,
/// operation counts and human-readable notes.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double delta) { values_[name] += delta; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Counts one library call; a failure also bumps `<span>.failed`.
  void Op(SpanName name, bool ok) { Ops(name, 1, ok ? 0 : 1); }
  void Ops(SpanName name, long long attempted, long long failed);

  /// A correctness check: counted as attempted, and as failed (with the
  /// reason noted) when it does not hold.
  void Check(bool ok, const std::string& what);

  void Note(const std::string& line) { notes_.push_back(line); }

  /// Adds per-span metrics (calls, percentiles, busy time, shares) from
  /// the recorded spans. `share_base_ns` maps span names to the thread-
  /// time their busy share is taken against.
  void AddSpanMetrics(const std::map<SpanName, double>& share_base_ns);

  bool correct() const { return correct_; }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  bool correct_ = true;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Bytes this process has passed to write() so far (/proc/self/io
/// wchar); -1 when unavailable.
long long WrittenBytes();

}  // namespace e2e
}  // namespace fairidx

#endif  // FAIRIDX_E2E_BENCH_HARNESS_H_
