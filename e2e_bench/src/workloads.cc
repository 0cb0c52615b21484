// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/experiment_config.h"
#include "core/pipeline.h"
#include "data/split.h"
#include "fairness/region_metrics.h"
#include "geo/grid_aggregates.h"
#include "index/partition.h"
#include "index/partitioner.h"
#include "inputs.h"
#include "service/fair_index_service.h"

namespace fairidx {
namespace e2e {
namespace {

constexpr double kHotspotBias = 0.15;
constexpr int kHotspotBands = 10;

std::string Hex(uint64_t value) {
  char text[32];
  std::snprintf(text, sizeof text, "%016" PRIx64, value);
  return text;
}

std::vector<AggregateBatch> Batches(const AggregateBatch& records,
                                    size_t begin, size_t batch_size) {
  std::vector<AggregateBatch> batches;
  for (size_t b = begin; b < records.size(); b += batch_size) {
    batches.push_back(
        records.Slice(b, std::min(records.size(), b + batch_size)));
  }
  return batches;
}

bool SameBits(const std::vector<RegionAggregate>& a,
              const std::vector<RegionAggregate>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(RegionAggregate)) == 0);
}

FairIndexServiceOptions ServingOptions(const RunConfig& config, int height) {
  FairIndexServiceOptions options;
  options.algorithm = "fair_kd_tree";
  options.build.height = height;
  options.build.num_threads = config.nproc;
  options.store.num_shards = config.nproc;
  options.store.num_threads = config.nproc;
  return options;
}

Result<std::unique_ptr<FairIndexService>> CreateService(
    const Grid& grid, const AggregateBatch& warmup,
    const FairIndexServiceOptions& options, std::vector<double>* setup_s,
    Report* report) {
  ScopedSpan span(kSpanCreate);
  Result<std::unique_ptr<FairIndexService>> service =
      FairIndexService::Create(grid, warmup, options);
  const int64_t ns = span.End();
  report->Op(kSpanCreate, service.ok());
  if (service.ok()) setup_s->push_back(ns * 1e-9);
  return service;
}

// The seal's integrate stage and the publish path's cell-map fill, timed
// alone on the final sealed state (traced passes only).
void TimeSealStages(const Grid& grid, const FairIndexService& service,
                    Report* report) {
  const ShardedDeltaStore::SealedState state =
      service.store().CaptureSealedState();
  {
    ScopedSpan span(kSpanFromCellSums);
    report->Op(kSpanFromCellSums,
               GridAggregates::FromCellSums(grid.rows(), grid.cols(),
                                            state.cell_sums)
                   .ok());
  }
  {
    ScopedSpan span(kSpanFromRects);
    report->Op(kSpanFromRects,
               Partition::FromRects(grid, *service.regions()).ok());
  }
}

// End-to-end samples of a run. Each timing is computed per pass — a
// median, and a tail that is the highest percentile with ten samples
// beyond it, up to p99 — and the run reports its best pass. On a shared
// host, interference only ever slows a pass, so the best pass is the
// steadiest estimate of what the code does. Set-up is the median over
// passes.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> ingest_rps;
  std::vector<double> final_ence;
  // This pass's samples; EndPass folds them into per-pass statistics.
  std::vector<double> visible_ms;
  std::vector<double> call_us;
  std::vector<double> visible_p50, visible_tail, call_p50, call_tail;
  Tail visible_shape, call_shape;  // Percentile and samples of one pass.
  size_t visible_samples = 0;
  size_t call_samples = 0;

  void EndPass() {
    visible_p50.push_back(Median(visible_ms));
    visible_shape = TailOf(std::move(visible_ms));
    visible_tail.push_back(visible_shape.value);
    call_p50.push_back(Median(call_us));
    call_shape = TailOf(std::move(call_us));
    call_tail.push_back(call_shape.value);
    visible_samples += visible_shape.samples;
    call_samples += call_shape.samples;
    visible_ms.clear();
    call_us.clear();
  }

  void Emit(const char* call, Report* report) const {
    report->Set("setup_s", Median(setup_s));
    report->Set("ingest_rps",
                *std::max_element(ingest_rps.begin(), ingest_rps.end()));
    report->Set("fairness.final_ence", Median(final_ence));
    report->Set("visible_p50_ms", Best(visible_p50));
    report->Set("visible_p99_ms", Best(visible_tail));
    report->Set("call_p50_us", Best(call_p50));
    report->Set("call_p99_us", Best(call_tail));
    report->Set("samples.visible", static_cast<double>(visible_samples));
    report->Set("samples.call", static_cast<double>(call_samples));
    char line[256];
    std::snprintf(line, sizeof line,
                  "%zu passes; per pass, visible_p99_ms is p%.2f of %zu "
                  "batches and call_p99_us is p%.2f of %zu %s calls",
                  ingest_rps.size(), visible_shape.q * 100,
                  visible_shape.samples, call_shape.q * 100,
                  call_shape.samples, call);
    report->Note(line);
  }

  static double Best(const std::vector<double>& per_pass) {
    return *std::min_element(per_pass.begin(), per_pass.end());
  }
};

// Batches waiting to become visible, in cumulative-record order. A batch
// is visible once the published lookup snapshot's region counts sum to at
// least its cumulative end; its lag runs from `since_ns` (its Ingest, or
// its intended send time in an open loop) to the observation.
class Visibility {
 public:
  explicit Visibility(std::vector<double>* lags_ms) : lags_ms_(lags_ms) {}

  void Add(long long cumulative_end, int64_t since_ns) {
    pending_.emplace_back(cumulative_end, since_ns);
  }

  void Observe(const FairIndexService& service) {
    const std::shared_ptr<const PointLookupIndex> snapshot = service.lookup();
    if (snapshot->epoch() == last_epoch_) return;
    last_epoch_ = snapshot->epoch();
    double covered = 0.0;
    for (const RegionAggregate& region : snapshot->aggregates()) {
      covered += region.count;
    }
    const int64_t now = NowNs();
    for (; next_ < pending_.size() &&
           static_cast<double>(pending_[next_].first) <= covered;
         ++next_) {
      lags_ms_->push_back((now - pending_[next_].second) * 1e-6);
    }
  }

  bool all_visible() const { return next_ == pending_.size(); }

 private:
  std::vector<double>* lags_ms_;
  std::vector<std::pair<long long, int64_t>> pending_;
  size_t next_ = 0;
  long long last_epoch_ = -1;
};

// Runs whole passes until the budget is spent (a pass starts only when
// one more of the last pass's length still fits), at least one — two in a
// traced run, which alternates untraced and traced passes. `pass` gets
// the pass span's id and returns the pass's cost in ns: the part traced
// and untraced passes are compared on for the tracing overhead.
template <typename PassFn>
Status RunPasses(const RunConfig& config, Report* report, PassFn&& pass) {
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  std::vector<double> plain_cost;
  std::vector<double> traced_cost;
  for (int done = 0;;) {
    const bool traced = config.trace && done % 2 == 1;
    SetTracing(traced);
    const int64_t start = NowNs();
    Result<double> cost = [&] {
      ScopedSpan span(kSpanPass);
      return pass(span.id());
    }();
    SetTracing(false);
    if (!cost.ok()) return cost.status();
    (traced ? traced_cost : plain_cost).push_back(*cost);
    // Later passes only repeat the workload; the peak is taken through the
    // first, before allocator reuse across passes can move it.
    if (++done == 1) report->Set("peak_rss_mb", PeakRssMb());
    const bool enough = done >= (config.trace ? 2 : 1) &&
                        (!config.trace || done % 2 == 0);
    if (enough && NowNs() + (NowNs() - start) > deadline) break;
  }
  if (config.trace) {
    report->Set("trace.overhead_frac",
                Median(traced_cost) / Median(plain_cost) - 1.0);
  }
  return Status::Ok();
}

}  // namespace

// ingest_durable: two closed-loop writers, a caller-driven seal every
// epoch_records, an explicit checkpoint every 4th epoch (alternating full
// and delta), WAL with fsync = none, and Recover at the end of each pass.
Status RunIngestDurable(const RunConfig& config, Report* report) {
  const bool smoke = config.smoke;
  const int side = smoke ? 64 : 1024;
  const size_t warmup_n = smoke ? 2000 : 100000;
  const size_t stream_n = smoke ? 20000 : 1000000;
  const size_t batch_n = smoke ? 100 : 1000;
  const size_t batches_per_epoch = smoke ? 20 : 50;
  const int writers = std::min(2, config.nproc);

  FAIRIDX_ASSIGN_OR_RETURN(
      ScoredRecords in,
      GenerateScoredRecords(static_cast<int>(warmup_n + stream_n), side,
                            config.seed));
  report->Note("records checksum " + Hex(Checksum(in.records)));
  const AggregateBatch warmup = in.records.Slice(0, warmup_n);
  const std::vector<AggregateBatch> batches =
      Batches(in.records, warmup_n, batch_n);

  FairIndexServiceOptions options = ServingOptions(config, smoke ? 6 : 10);
  options.refine.drift_bound = -1.0;
  options.durability.wal_dir = config.work_dir + "/wal-ingest_durable";
  options.durability.fsync = WalFsync::kNone;
  options.durability.checkpoint_interval = 0;
  options.durability.full_snapshot_interval = 4;
  report->Note("durability: fsync=none; Checkpoint() every 4th epoch; "
               "full_snapshot_interval=4");

  EndToEnd e2e;
  std::map<SpanName, double> share_base;
  auto pass = [&](uint64_t pass_span) -> Result<double> {
    std::error_code ignored;
    std::filesystem::remove_all(options.durability.wal_dir, ignored);
    std::filesystem::create_directories(options.durability.wal_dir, ignored);
    FAIRIDX_ASSIGN_OR_RETURN(
        std::unique_ptr<FairIndexService> service,
        CreateService(in.grid, warmup, options, &e2e.setup_s, report));

    std::vector<double> visible_ms;
    Visibility visibility(&visible_ms);
    // Per writer: (sequence number, Ingest return time) of this epoch's
    // batches, and every Ingest's latency.
    std::vector<std::vector<std::pair<long long, int64_t>>> ingested(writers);
    std::vector<std::vector<double>> ingest_us(writers);
    std::vector<long long> ingest_failed(writers, 0);
    long long first_seq = -1;
    long long epochs = 0;
    const long long written_before = WrittenBytes();
    const int64_t stream_start = NowNs();
    int64_t last_seal_end = stream_start;
    for (size_t begin = 0; begin < batches.size();
         begin += batches_per_epoch) {
      const size_t end = std::min(batches.size(), begin + batches_per_epoch);
      std::vector<std::thread> threads;
      for (int w = 0; w < writers; ++w) {
        threads.emplace_back([&, w] {
          for (size_t b = begin + w; b < end; b += writers) {
            ScopedSpan span(kSpanIngest, pass_span);
            Result<long long> seq = service->Ingest(batches[b]);
            const int64_t ns = span.End();
            if (!seq.ok()) {
              ++ingest_failed[w];
              continue;
            }
            ingest_us[w].push_back(ns * 1e-3);
            ingested[w].emplace_back(*seq, NowNs());
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      // The barrier: every batch of this epoch is in; the seal covers them.
      std::vector<std::pair<long long, int64_t>> epoch_batches;
      for (auto& mine : ingested) {
        epoch_batches.insert(epoch_batches.end(), mine.begin(), mine.end());
        mine.clear();
      }
      std::sort(epoch_batches.begin(), epoch_batches.end());
      if (first_seq < 0 && !epoch_batches.empty()) {
        first_seq = epoch_batches.front().first;
      }
      for (const auto& [seq, at] : epoch_batches) {
        visibility.Add(static_cast<long long>(warmup_n) +
                           (seq - first_seq + 1) *
                               static_cast<long long>(batch_n),
                       at);
      }
      ScopedSpan seal_span(kSpanSeal);
      Result<long long> sealed = service->Seal();
      seal_span.End();
      report->Op(kSpanSeal, sealed.ok());
      if (!sealed.ok()) return sealed.status();
      visibility.Observe(*service);
      last_seal_end = NowNs();
      service->ApplyRetention(2);
      if (++epochs % 4 == 0) {
        ScopedSpan checkpoint_span(kSpanCheckpoint);
        const Status checkpointed = service->Checkpoint();
        checkpoint_span.End();
        report->Op(kSpanCheckpoint, checkpointed.ok());
        FAIRIDX_RETURN_IF_ERROR(checkpointed);
      }
    }
    const long long written_after = WrittenBytes();
    const int64_t stream_ns = last_seal_end - stream_start;

    for (int w = 0; w < writers; ++w) {
      report->Ops(kSpanIngest,
                  static_cast<long long>(ingest_us[w].size()) +
                      ingest_failed[w],
                  ingest_failed[w]);
      e2e.call_us.insert(e2e.call_us.end(), ingest_us[w].begin(),
                         ingest_us[w].end());
    }
    report->Check(visibility.all_visible(),
                  "ingest_durable: a batch stayed invisible after its seal");
    e2e.ingest_rps.push_back(static_cast<double>(stream_n) /
                             (stream_ns * 1e-9));
    e2e.visible_ms.insert(e2e.visible_ms.end(), visible_ms.begin(),
                          visible_ms.end());

    const std::vector<RegionAggregate> before = service->QueryRegions();
    const long long epoch_before = service->store().epoch();
    const long long sealed_before = service->store().sealed_records();
    e2e.final_ence.push_back(RegionEnce(before).ence);
    report->Check(sealed_before ==
                      static_cast<long long>(warmup_n + stream_n),
                  "ingest_durable: sealed_records != records ingested");
    report->Set("service.wal_bytes",
                static_cast<double>(service->wal()->bytes_appended()));
    if (written_before >= 0 && written_after >= 0) {
      report->Set("service.write_bytes_per_rec",
                  static_cast<double>(written_after - written_before) /
                      static_cast<double>(stream_n));
    }
    report->Set("service.publish_stall_max_us",
                static_cast<double>(service->max_publish_stall_us()));
    if (TracingEnabled()) {
      share_base[kSpanSeal] += stream_ns;
      share_base[kSpanIngest] += static_cast<double>(stream_ns) * writers;
      TimeSealStages(in.grid, *service, report);
    }
    service.reset();

    ScopedSpan recover_span(kSpanRecover);
    Result<std::unique_ptr<FairIndexService>> recovered =
        FairIndexService::Recover(in.grid, options);
    recover_span.End();
    report->Op(kSpanRecover, recovered.ok());
    if (!recovered.ok()) return recovered.status();
    const FairIndexService& restored = **recovered;
    report->Check(SameBits(before, restored.QueryRegions()) &&
                      restored.store().epoch() == epoch_before &&
                      restored.store().sealed_records() == sealed_before,
                  "ingest_durable: the recovered service differs from the "
                  "pre-recovery one");
    e2e.EndPass();
    recovered->reset();
    std::filesystem::remove_all(options.durability.wal_dir, ignored);
    return static_cast<double>(stream_ns);
  };
  FAIRIDX_RETURN_IF_ERROR(RunPasses(config, report, pass));
  e2e.Emit("service.Ingest", report);
  if (config.trace) report->AddSpanMetrics(share_base);
  return Status::Ok();
}

namespace {

// A sample of lookups against the current snapshot must name the rect that
// contains each point's cell and that rect's aggregate, bit for bit.
void CheckLookups(const Grid& grid, const FairIndexService& service,
                  const std::vector<Point>& sample, Report* report) {
  const std::shared_ptr<const PointLookupIndex> snapshot = service.lookup();
  const std::vector<PointLookupResult> got = snapshot->LookupMany(sample);
  const std::vector<CellRect>& rects = *snapshot->regions();
  bool ok = got.size() == sample.size();
  for (size_t i = 0; ok && i < sample.size(); ++i) {
    const int cell = grid.CellIdOf(sample[i]);
    const int row = grid.RowOfCell(cell);
    const int col = grid.ColOfCell(cell);
    size_t region = 0;
    while (region < rects.size() &&
           !(row >= rects[region].row_begin && row < rects[region].row_end &&
             col >= rects[region].col_begin && col < rects[region].col_end)) {
      ++region;
    }
    ok = region < rects.size() && got[i].region == region &&
         std::memcmp(&got[i].aggregate, &snapshot->aggregates()[region],
                     sizeof(RegionAggregate)) == 0;
  }
  report->Check(ok, "lookups disagree with a scan of the published rects");
}

}  // namespace

// serve_zipf: two closed-loop readers issue 256-point LookupMany calls over
// Zipf-skewed points while one open-loop writer sends the drifting last
// 10% of the records at a fixed rate; the service's own scheduler seals
// and refines.
Status RunServeZipf(const RunConfig& config, Report* report) {
  const bool smoke = config.smoke;
  const int side = smoke ? 64 : 1024;
  const size_t total_n = smoke ? 20000 : 1000000;
  const size_t warmup_n = total_n / 10 * 9;
  const size_t batch_n = smoke ? 100 : 1000;
  const double offered_rps = smoke ? 50000.0 : 200000.0;
  const size_t pool_n = smoke ? (1u << 14) : (1u << 20);
  constexpr size_t kPointsPerCall = 256;
  // One LookupMany call in this many is recorded as a span in traced
  // passes (all are timed); it keeps the span file to a few MB.
  constexpr size_t kLookupSpanEvery = 16;
  constexpr size_t kCheckedPoints = 4096;
  const int readers = std::min(2, config.nproc);

  FAIRIDX_ASSIGN_OR_RETURN(
      ScoredRecords in,
      GenerateScoredRecords(static_cast<int>(total_n), side, config.seed));
  MarchHotspot(in.grid, warmup_n, kHotspotBands, kHotspotBias, &in.records);
  const std::vector<Point> points =
      ZipfPoints(in.grid, pool_n, 1.0, config.seed ^ 0x9e3779b97f4a7c15ull);
  report->Note("records checksum " + Hex(Checksum(in.records)) +
               "; lookup points checksum " + Hex(Checksum(points)));
  const AggregateBatch warmup = in.records.Slice(0, warmup_n);
  const std::vector<AggregateBatch> batches =
      Batches(in.records, warmup_n, batch_n);
  const std::vector<Point> checked(
      points.begin(), points.begin() + std::min(pool_n, kCheckedPoints));

  FairIndexServiceOptions options = ServingOptions(config, smoke ? 6 : 10);
  options.refine.drift_bound = 0.02;
  options.auto_maintain = true;
  options.maintain.seal_records = smoke ? 2000 : 20000;
  options.maintain.drift_bound = 0.02;
  options.maintain.retain_epochs = 2;
  char line[160];
  std::snprintf(line, sizeof line,
                "open-loop writer at %.0f records/s in %zu-record batches; "
                "%d closed-loop readers",
                offered_rps, batch_n, readers);
  report->Note(line);

  EndToEnd e2e;
  std::map<SpanName, double> share_base;
  long long traced_calls = 0;
  auto pass = [&](uint64_t pass_span) -> Result<double> {
    FAIRIDX_ASSIGN_OR_RETURN(
        std::unique_ptr<FairIndexService> service,
        CreateService(in.grid, warmup, options, &e2e.setup_s, report));

    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> lookup_us(readers);
    std::vector<std::thread> threads;
    const int64_t readers_start = NowNs();
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        std::vector<PointLookupResult> out(kPointsPerCall);
        size_t pos = pool_n / readers * r;
        lookup_us[r].reserve(1 << 22);
        for (size_t call = 0; !stop.load(std::memory_order_relaxed); ++call) {
          ScopedSpan span(kSpanLookupMany, pass_span,
                          call % kLookupSpanEvery == 0);
          service->LookupMany(Span<Point>(points.data() + pos, kPointsPerCall),
                              out.data());
          lookup_us[r].push_back(span.End() * 1e-3);
          pos = pos + kPointsPerCall >= pool_n ? 0 : pos + kPointsPerCall;
        }
      });
    }

    // The open-loop writer: batch k is due at start + k * interval and is
    // timed from then, however late the send. Between sends it watches for
    // publications.
    std::vector<double> visible_ms;
    std::vector<double> late_ms;
    Visibility visibility(&visible_ms);
    long long pending_max = 0;
    long long ingest_failed = 0;
    const double interval_ns = static_cast<double>(batch_n) / offered_rps * 1e9;
    const int64_t stream_start = NowNs();
    for (size_t k = 0; k < batches.size(); ++k) {
      const int64_t due =
          stream_start + static_cast<int64_t>(static_cast<double>(k) *
                                              interval_ns);
      for (int64_t now = NowNs(); now < due; now = NowNs()) {
        visibility.Observe(*service);
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<int64_t>(due - now, 100000)));
      }
      late_ms.push_back((NowNs() - due) * 1e-6);
      ScopedSpan span(kSpanIngest);
      if (!service->Ingest(batches[k]).ok()) ++ingest_failed;
      span.End();
      visibility.Add(static_cast<long long>(warmup_n + (k + 1) * batch_n),
                     due);
      pending_max =
          std::max(pending_max, service->store().pending_records());
      visibility.Observe(*service);
    }
    // The last covering seal: stop the scheduler, then seal what it left.
    service->StopMaintenance();
    ScopedSpan seal_span(kSpanSeal);
    Result<long long> sealed = service->Seal();
    seal_span.End();
    report->Op(kSpanSeal, sealed.ok());
    visibility.Observe(*service);
    const int64_t stream_ns = NowNs() - stream_start;
    stop.store(true);
    for (std::thread& thread : threads) thread.join();
    const int64_t readers_ns = NowNs() - readers_start;
    if (!sealed.ok()) return sealed.status();

    long long calls = 0;
    long long recorded = 0;
    std::vector<double> pass_lookup_us;
    for (const std::vector<double>& mine : lookup_us) {
      calls += static_cast<long long>(mine.size());
      recorded += static_cast<long long>(
          (mine.size() + kLookupSpanEvery - 1) / kLookupSpanEvery);
      pass_lookup_us.insert(pass_lookup_us.end(), mine.begin(), mine.end());
    }
    report->Ops(kSpanLookupMany, calls, 0);
    report->Ops(kSpanIngest, static_cast<long long>(batches.size()),
                ingest_failed);
    e2e.call_us.insert(e2e.call_us.end(), pass_lookup_us.begin(),
                       pass_lookup_us.end());
    e2e.visible_ms.insert(e2e.visible_ms.end(), visible_ms.begin(),
                          visible_ms.end());
    e2e.ingest_rps.push_back(static_cast<double>(total_n - warmup_n) /
                             (stream_ns * 1e-9));
    e2e.final_ence.push_back(RegionEnce(service->QueryRegions()).ence);

    report->Check(visibility.all_visible(),
                  "serve_zipf: a batch stayed invisible after the last seal");
    report->Check(service->store().sealed_records() ==
                      static_cast<long long>(total_n),
                  "serve_zipf: sealed_records != records generated");
    CheckLookups(in.grid, *service, checked, report);
    const MaintenanceStats stats = service->maintenance_stats();
    report->Check(stats.errors == 0, "serve_zipf: scheduler passes failed");
    report->Set("service.scheduler.passes", static_cast<double>(stats.passes));
    report->Set("service.scheduler.refines",
                static_cast<double>(stats.refines));
    report->Set("service.scheduler.published",
                static_cast<double>(stats.published));
    report->Set("service.scheduler.errors", static_cast<double>(stats.errors));
    report->Set("service.resplits",
                static_cast<double>(service->total_resplits()));
    report->Set("service.publications_patched",
                static_cast<double>(service->publications_patched()));
    report->Set("service.publications_fallback",
                static_cast<double>(service->publications_fallback()));
    report->Set("service.publish_stall_max_us",
                static_cast<double>(service->max_publish_stall_us()));
    report->Set("service.store.pending_max", static_cast<double>(pending_max));
    report->Set("load.writer_late_p99_ms", TailOf(late_ms).value);
    if (TracingEnabled()) {
      // Shares and per-point cost are estimated from the recorded sample.
      share_base[kSpanLookupMany] +=
          static_cast<double>(readers_ns) * readers / kLookupSpanEvery;
      share_base[kSpanIngest] += static_cast<double>(stream_ns);
      traced_calls += calls;
      report->Add("service.LookupMany.points",
                  static_cast<double>(recorded * kPointsPerCall));
      TimeSealStages(in.grid, *service, report);
    }
    e2e.EndPass();
    return Median(std::move(pass_lookup_us)) * 1e3;
  };
  FAIRIDX_RETURN_IF_ERROR(RunPasses(config, report, pass));
  e2e.Emit("service.LookupMany", report);
  if (config.trace) {
    report->AddSpanMetrics(share_base);
    report->Set("service.LookupMany.calls", static_cast<double>(traced_calls));
  }
  return Status::Ok();
}

// refine_drift: one caller thread ingests a moving-hotspot tail and calls
// MaybeRefine every refine_records; no durability. Fully deterministic.
Status RunRefineDrift(const RunConfig& config, Report* report) {
  const bool smoke = config.smoke;
  const int side = smoke ? 64 : 512;
  const size_t total_n = smoke ? 20000 : 1000000;
  const size_t warmup_n = total_n / 10;
  const size_t batch_n = smoke ? 100 : 1000;
  const size_t batches_per_refine = 20;

  FAIRIDX_ASSIGN_OR_RETURN(
      ScoredRecords in,
      GenerateScoredRecords(static_cast<int>(total_n), side, config.seed));
  MarchHotspot(in.grid, warmup_n, kHotspotBands, kHotspotBias, &in.records);
  report->Note("records checksum " + Hex(Checksum(in.records)));
  const AggregateBatch warmup = in.records.Slice(0, warmup_n);
  const std::vector<AggregateBatch> batches =
      Batches(in.records, warmup_n, batch_n);
  // The reference every pass's final state is checked against.
  FAIRIDX_ASSIGN_OR_RETURN(
      const GridAggregates expected,
      GridAggregates::Build(in.grid, in.records.cell_ids, in.records.labels,
                            in.records.scores));

  FairIndexServiceOptions options = ServingOptions(config, smoke ? 6 : 12);
  options.refine.drift_bound = 0.02;

  EndToEnd e2e;
  std::map<SpanName, double> share_base;
  auto pass = [&](uint64_t) -> Result<double> {
    FAIRIDX_ASSIGN_OR_RETURN(
        std::unique_ptr<FairIndexService> service,
        CreateService(in.grid, warmup, options, &e2e.setup_s, report));
    std::vector<double> visible_ms;
    Visibility visibility(&visible_ms);
    long long refines = 0;
    long long publishing = 0;
    long long ingest_failed = 0;
    const int64_t stream_start = NowNs();
    int64_t last_refine_end = stream_start;
    for (size_t k = 0; k < batches.size(); ++k) {
      ScopedSpan span(kSpanIngest);
      if (!service->Ingest(batches[k]).ok()) ++ingest_failed;
      span.End();
      visibility.Add(static_cast<long long>(warmup_n + (k + 1) * batch_n),
                     NowNs());
      if ((k + 1) % batches_per_refine != 0 && k + 1 != batches.size()) {
        continue;
      }
      ScopedSpan refine_span(kSpanMaybeRefine);
      Result<ServiceRefineResult> refined = service->MaybeRefine();
      const int64_t ns = refine_span.End();
      report->Op(kSpanMaybeRefine, refined.ok());
      if (!refined.ok()) return refined.status();
      e2e.call_us.push_back(ns * 1e-3);
      ++refines;
      if (refined->stats.changed) ++publishing;
      visibility.Observe(*service);
      last_refine_end = NowNs();
    }
    const int64_t stream_ns = last_refine_end - stream_start;
    report->Ops(kSpanIngest, static_cast<long long>(batches.size()),
                ingest_failed);
    report->Check(visibility.all_visible(),
                  "refine_drift: a batch stayed invisible after its refine");
    e2e.ingest_rps.push_back(static_cast<double>(total_n - warmup_n) /
                             (stream_ns * 1e-9));
    e2e.visible_ms.insert(e2e.visible_ms.end(), visible_ms.begin(),
                          visible_ms.end());

    const std::shared_ptr<const std::vector<CellRect>> rects =
        service->regions();
    const std::vector<RegionAggregate> got = service->QueryRegions();
    e2e.final_ence.push_back(RegionEnce(got).ence);
    report->Check(SameBits(got, expected.QueryMany(*rects)),
                  "refine_drift: region aggregates differ from "
                  "GridAggregates::Build over every record");
    ScopedSpan from_rects(kSpanFromRects);
    Result<Partition> rebuilt = Partition::FromRects(in.grid, *rects);
    from_rects.End();
    report->Op(kSpanFromRects, rebuilt.ok());
    report->Check(rebuilt.ok() &&
                      rebuilt->cell_to_region() ==
                          service->lookup()->partition()->cell_to_region(),
                  "refine_drift: the published cell map differs from "
                  "Partition::FromRects of the published rects");

    report->Set("service.resplits",
                static_cast<double>(service->total_resplits()));
    report->Set("service.publications_patched",
                static_cast<double>(service->publications_patched()));
    report->Set("service.publications_fallback",
                static_cast<double>(service->publications_fallback()));
    report->Set("service.refine.publish_ratio",
                static_cast<double>(publishing) / refines);
    report->Set("service.publish_stall_max_us",
                static_cast<double>(service->max_publish_stall_us()));
    if (TracingEnabled()) {
      share_base[kSpanMaybeRefine] += stream_ns;
      share_base[kSpanIngest] += stream_ns;
      TimeSealStages(in.grid, *service, report);
    }
    e2e.EndPass();
    return static_cast<double>(stream_ns);
  };
  FAIRIDX_RETURN_IF_ERROR(RunPasses(config, report, pass));
  e2e.Emit("service.MaybeRefine", report);
  if (config.trace) report->AddSpanMetrics(share_base);
  return Status::Ok();
}

// paper_batch: the paper's Fig. 2-3 job — RunPipeline with the Fair
// KD-tree and logistic regression over one city. Like the paper's fixed
// EdGap data, the city is the same in every run; the seed draws the
// train/test split. (A city per seed moves the fit's cost and memory with
// the data far more than any code change this workload should judge.)
Status RunPaperBatch(const RunConfig& config, Report* report) {
  const bool smoke = config.smoke;
  const int records = smoke ? 2000 : 100000;
  constexpr uint64_t kCitySeed = 20240601;
  FAIRIDX_ASSIGN_OR_RETURN(
      const Dataset city, GenerateCity(records, smoke ? 64 : 512, kCitySeed));
  const std::unique_ptr<Classifier> prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kFairKdTree;
  options.height = smoke ? 5 : 10;
  options.num_threads = config.nproc;
  options.split_seed = config.seed;
  report->Note("city checksum " + Hex(Checksum(city)) + "; split seed " +
               std::to_string(options.split_seed));
  Rng split_rng(options.split_seed);
  FAIRIDX_ASSIGN_OR_RETURN(
      const TrainTestSplit split,
      MakeStratifiedSplit(city.labels(options.task), options.test_fraction,
                          split_rng));
  EvalOptions eval_options;
  eval_options.task = options.task;
  eval_options.encoding = options.encoding;
  const Grid& grid = city.grid();

  // Set-up is the stage-1 base-grid fit every partition build starts
  // from. It runs in the first passes only, so the batch job itself gets
  // more passes.
  constexpr size_t kSetups = 3;
  EndToEnd e2e;
  auto pass = [&](uint64_t) -> Result<double> {
    if (e2e.setup_s.size() < kSetups) {
      ScopedSpan train_span(kSpanTrainOnBaseGrid);
      Result<TrainedEvaluation> base =
          TrainOnBaseGrid(city, split, *prototype, eval_options);
      const int64_t setup_ns = train_span.End();
      report->Op(kSpanTrainOnBaseGrid, base.ok());
      if (!base.ok()) return base.status();
      e2e.setup_s.push_back(setup_ns * 1e-9);
    }

    ScopedSpan run_span(kSpanRunPipeline);
    Result<PipelineRunResult> result = RunPipeline(city, *prototype, options);
    const int64_t batch_ns = run_span.End();
    report->Op(kSpanRunPipeline, result.ok());
    if (!result.ok()) return result.status();

    if (TracingEnabled()) {
      // The partition build alone, its stage-1 scores computed first.
      PartitionerContext context = MakePipelinePartitionerContext(
          city, split, *prototype, ToPartitionerBuildOptions(options));
      FAIRIDX_RETURN_IF_ERROR(context.ScoredAggregates().status());
      FAIRIDX_ASSIGN_OR_RETURN(
          std::unique_ptr<Partitioner> partitioner,
          PartitionerRegistry::Global().Create("fair_kd_tree"));
      ScopedSpan build_span(kSpanPartitionerBuild);
      report->Op(kSpanPartitionerBuild, partitioner->Build(context).ok());
    }

    const EvaluationResult& eval = result->final_model.eval;
    const Partition& partition = result->partition.partition;
    long long area = 0;
    for (const CellRect& rect : result->partition.regions) {
      area += rect.num_cells();
    }
    bool ids_ok = true;
    for (int region : partition.cell_to_region()) {
      ids_ok = ids_ok && region >= 0 && region < partition.num_regions();
    }
    report->Check(std::isfinite(eval.test_ence),
                  "paper_batch: test_ence is not finite");
    report->Check(result->has_cell_partition &&
                      partition.num_cells() == grid.num_cells() &&
                      area == grid.num_cells() && ids_ok,
                  "paper_batch: the partition does not cover the grid");

    e2e.ingest_rps.push_back(records / (batch_ns * 1e-9));
    e2e.visible_ms.push_back(batch_ns * 1e-6);
    e2e.call_us.push_back(batch_ns * 1e-3);
    e2e.final_ence.push_back(eval.test_ence);
    report->Set("core.RunPipeline.partition_s",
                result->partition_seconds);
    report->Set("core.RunPipeline.fits", result->partition_stage_fits);
    report->Set("ml.test_accuracy", eval.test_accuracy);
    e2e.EndPass();
    return static_cast<double>(batch_ns);
  };
  FAIRIDX_RETURN_IF_ERROR(RunPasses(config, report, pass));
  e2e.Emit("core.RunPipeline", report);
  if (config.trace) report->AddSpanMetrics({});
  return Status::Ok();
}

}  // namespace e2e
}  // namespace fairidx
