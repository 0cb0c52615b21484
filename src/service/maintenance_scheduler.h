// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Service-owned background maintenance: the piece that turns
// FairIndexService from "caller must remember to MaybeRefine" into a
// hands-off serving system. A MaintenancePolicy names the cadence (seal
// once N records are pending, or at least every T seconds while anything
// is pending) and the action (drift-bounded MaybeRefine, or a plain Seal
// when drift_bound < 0); a MaintenanceScheduler runs that policy on its
// own thread against a service.
//
// The scheduler only uses the service's public thread-safe surface —
// store() counters to decide, MaybeRefine()/Seal() to act — so everything
// it does is exactly what a caller-driven maintenance loop could have
// done: epochs still seal at consistent batch boundaries, refines still
// key off the epoch they seal, and readers keep serving the previously
// published partition throughout. Ingest wakes the scheduler
// (FairIndexService::Ingest calls NotifyIngest) so record-count cadences
// react promptly; wall-clock cadences resolve at poll_interval_seconds.

#ifndef FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_
#define FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/result.h"

namespace fairidx {

class FairIndexService;

/// When and how background maintenance acts. At least one cadence must be
/// enabled (StartMaintenance validates).
struct MaintenancePolicy {
  /// Act once this many records are pending (<= 0 disables the
  /// record-count cadence).
  long long seal_records = 1;
  /// Act at least this often (wall clock) while records are pending
  /// (<= 0 disables the clock cadence).
  double seal_interval_seconds = 0.0;
  /// MaybeRefine drift bound for each pass; < 0 seals without refining
  /// (the published partition stays fixed).
  double drift_bound = 0.02;
  /// Scheduler wakeup cadence — the resolution of the clock cadence and
  /// the fallback poll when no ingest notification arrives.
  double poll_interval_seconds = 0.005;
  /// After each maintenance pass, drop sealed-snapshot history beyond the
  /// newest this many epochs (reader-pinned snapshots are always kept;
  /// see ShardedDeltaStore::RetainEpochs). <= 0 leaves the store's
  /// default bound: the newest epoch only.
  int retain_epochs = 0;
};

/// Counters of everything a scheduler did (all monotone; readable while
/// the thread runs).
struct MaintenanceStats {
  /// Policy evaluations (wakeups that checked the cadences).
  long long ticks = 0;
  /// Maintenance actions taken (seal-only passes + refine passes).
  long long passes = 0;
  /// Passes that ran MaybeRefine (drift_bound >= 0).
  long long refines = 0;
  /// Refine passes that re-split at least one subtree and published a new
  /// partition. Zero-drift passes never publish.
  long long published = 0;
  /// Published passes whose partition went out via an O(changed area)
  /// cell-map patch (in-place or splice-path; see KdRefineStats).
  long long published_patched = 0;
  /// Published passes that fell back to a full O(grid) cell-map rebuild.
  long long published_fallback = 0;
  /// Subtree re-splits across all published passes.
  long long resplits = 0;
  /// Sealed-snapshot history entries the store dropped, counted when the
  /// policy sets retain_epochs > 0.
  long long epochs_retired = 0;
  /// Passes that failed (the service call returned an error).
  long long errors = 0;
};

/// Runs one MaintenancePolicy against one service on a background thread.
/// Create/Start via FairIndexService::StartMaintenance (which validates
/// the policy and wires ingest notifications); Stop() joins and is
/// idempotent. The referenced service must outlive the scheduler —
/// FairIndexService guarantees this by stopping maintenance in its
/// destructor before any member is torn down.
class MaintenanceScheduler {
 public:
  MaintenanceScheduler(FairIndexService* service, MaintenancePolicy policy);
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  /// Spawns the maintenance thread (no-op when already running).
  void Start();

  /// Signals the thread and joins it. Idempotent; safe without Start().
  void Stop();

  bool running() const;

  /// Wakes the thread so a record-count cadence is evaluated now instead
  /// of at the next poll.
  void NotifyIngest();

  /// One synchronous policy evaluation — what the thread runs per wakeup.
  /// Public so drivers and tests can tick deterministically; thread-safe
  /// against the background thread (the service serializes maintenance).
  /// Returns true when a maintenance pass ran.
  bool TickNow();

  MaintenanceStats stats() const;
  const MaintenancePolicy& policy() const { return policy_; }

 private:
  void Run();
  /// True when either cadence is due given the pending-record count.
  bool Due(std::chrono::steady_clock::time_point now) const;

  FairIndexService* service_;
  const MaintenancePolicy policy_;

  mutable std::mutex mutex_;
  std::condition_variable wakeup_;
  bool stop_ = false;
  bool notified_ = false;
  bool running_ = false;
  std::thread thread_;

  /// Guards last_pass_ and stats_ (ticks may come from the thread and
  /// from TickNow callers concurrently).
  mutable std::mutex state_mutex_;
  std::chrono::steady_clock::time_point last_pass_;
  MaintenanceStats stats_;
};

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_
