// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Service-owned background maintenance: the piece that turns
// FairIndexService from "caller must remember to MaybeRefine" into a
// hands-off serving system. A MaintenancePolicy names the cadence (seal
// once N records are pending, or at least every T seconds while anything
// is pending) and the action (drift-bounded MaybeRefine, or a plain Seal
// when drift_bound < 0).
//
// A MaintenanceScheduler is the one maintenance thread host: it runs a
// list of (service, policy) members on one background thread. A
// FairIndexService with `auto_maintain` owns a scheduler over a list of
// one; a TenantRegistry owns one over its serving tenants. Every pass is
// a rotating claim-then-act TickNow() over the members, and it only uses
// each service's public thread-safe surface — store() counters to
// decide, MaybeRefine()/Seal() to act — so everything it does is exactly
// what a caller-driven maintenance loop could have done: epochs still
// seal at consistent batch boundaries, refines still key off the epoch
// they seal, and readers keep serving the previously published partition
// throughout.
//
// There is no poll. A started scheduler is its members' host, and
// FairIndexService::Ingest wakes the host of its service whoever called
// it, so record-count cadences react at once. Between ingests the thread
// sleeps until the earliest clock deadline (last pass +
// seal_interval_seconds) among members with pending records, or until
// Stop(). A failed pass is retried at the next wakeup.

#ifndef FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_
#define FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"

namespace fairidx {

class FairIndexService;

/// When and how background maintenance acts. At least one cadence must be
/// enabled (ValidateMaintenancePolicy).
struct MaintenancePolicy {
  /// Act once this many records are pending (<= 0 disables the
  /// record-count cadence).
  long long seal_records = 1;
  /// Act at least this often (wall clock) while records are pending
  /// (<= 0 or NaN disables the clock cadence; intervals beyond a year
  /// act yearly).
  double seal_interval_seconds = 0.0;
  /// MaybeRefine drift bound for each pass; < 0 seals without refining
  /// (the published partition stays fixed).
  double drift_bound = 0.02;
  /// After each maintenance pass, drop sealed-snapshot history beyond the
  /// newest this many epochs (reader-pinned snapshots are always kept;
  /// see ShardedDeltaStore::RetainEpochs). <= 0 leaves the store's
  /// default bound: the newest epoch only.
  int retain_epochs = 0;
};

/// The one policy rule, checked for every member when a scheduler
/// starts: a policy with neither cadence enabled would never act.
Status ValidateMaintenancePolicy(const MaintenancePolicy& policy);

/// Counters of everything a scheduler did for one member (all monotone;
/// readable while the thread runs).
struct MaintenanceStats {
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

/// One service a scheduler maintains, under its own policy.
struct MaintenanceMember {
  FairIndexService* service = nullptr;
  MaintenancePolicy policy;
};

/// Runs each member's MaintenancePolicy against its service on one
/// background thread. Start() validates every policy and makes the
/// scheduler its members' host; Stop() joins and is idempotent. The
/// member services must outlive the scheduler.
class MaintenanceScheduler {
 public:
  explicit MaintenanceScheduler(std::vector<MaintenanceMember> members);
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  /// Validates every member's policy, becomes each member service's
  /// host (its Ingest wakes this scheduler) and spawns the thread.
  /// FailedPrecondition when already running or when a member service
  /// is hosted by another running scheduler.
  Status Start();

  /// Signals the thread, joins it and releases the members. Idempotent;
  /// safe without Start(). A stopped scheduler may be started again.
  void Stop();

  bool running() const;

  /// Wakes the thread so the cadences are evaluated now.
  void NotifyIngest();

  /// One synchronous pass — what the thread runs per wakeup: every
  /// member whose cadence is due acts, starting from a slot that rotates
  /// per pass so no member is permanently first in line. Public so
  /// drivers and tests can tick deterministically; thread-safe against
  /// the background thread (each service serializes its maintenance).
  /// Returns true when any member's pass ran.
  bool TickNow();

  /// Counters for `service` (zeros when it is not a member).
  MaintenanceStats stats(const FairIndexService* service) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Member {
    FairIndexService* service;
    MaintenancePolicy policy;
    Clock::time_point last_pass;  // Guarded by state_mutex_.
    MaintenanceStats stats;       // Guarded by state_mutex_.
  };

  void Run();
  /// Claims and runs `member`'s pass when a cadence is due.
  bool TickMember(Member& member);
  /// The earliest clock deadline among members with pending records;
  /// Clock::time_point::max() when none.
  Clock::time_point NextDeadline() const;

  std::vector<Member> members_;
  /// Rotating start slot of TickNow.
  std::atomic<size_t> next_start_{0};

  /// Serializes Start/Stop; the thread is joinable exactly while the
  /// scheduler runs.
  mutable std::mutex lifecycle_mutex_;
  std::thread thread_;

  /// Wakeup state of the thread.
  std::mutex mutex_;
  std::condition_variable wakeup_;
  bool stop_ = false;
  bool notified_ = false;

  /// Guards every member's last_pass and stats (ticks may come from the
  /// thread and from TickNow callers concurrently).
  mutable std::mutex state_mutex_;
};

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_
