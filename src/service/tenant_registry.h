// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Multi-tenant serving: one process hosts N independent fair-index
// tenants. Each tenant is a full FairIndexService — its own grid shape,
// ShardedDeltaStore, published partition + PointLookupIndex snapshot,
// and (when durability is on) its own WAL/checkpoint namespace under
// `<wal_dir>/<tenant>/` — while all tenants share the global ThreadPool
// and ONE background maintenance thread owned by the registry.
//
// The shared thread round-robins claim-then-act ticks across tenants:
// every wakeup it walks the tenant table from a rotating start slot and
// runs each tenant's own MaintenanceScheduler::TickNow() — the same
// synchronous policy evaluation the single-tenant background thread
// runs, against that tenant's per-tenant MaintenancePolicy (seal
// cadence, drift bound, retention). Because TickNow only uses the
// tenant service's public thread-safe surface, everything the shared
// thread does is exactly what N dedicated per-tenant threads could have
// done; tenants never observe each other except through CPU time. That
// is the isolation contract tests/tenant_registry_test.cc pins: a
// tenant's sealed snapshots, published partitions and recovery output
// are bit-identical to an isolated single-tenant run with the same
// inputs, at any shard count, with the shared scheduler live.
//
// Recovery is per-tenant and fault-isolated: TenantRegistry::Recover
// rebuilds every tenant whose namespace holds a checkpoint via
// FairIndexService::Recover, creates fresh tenants for namespaces that
// do not (a tenant added between restarts), and marks a tenant whose
// recovery FAILS (corrupt WAL/checkpoint) as degraded instead of
// aborting the process — the other tenants come back bit-identically
// and keep serving, and the degraded tenant's error is surfaced
// through statuses(). See docs/operations.md for the on-disk layout
// and the degraded-tenant runbook.

#ifndef FAIRIDX_SERVICE_TENANT_REGISTRY_H_
#define FAIRIDX_SERVICE_TENANT_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "service/fair_index_service.h"

namespace fairidx {

/// The one tenant-name rule: names double as on-disk namespace
/// directories (`<wal_dir>/<name>/`), so only [A-Za-z0-9_-]+ is accepted
/// — no separators, no traversal. The registry, the scenario parser and
/// the CLI's --tenant all check names here.
Status ValidateTenantName(const std::string& name);

/// One tenant's full configuration: a name (its identity and its
/// durability namespace), a grid, the warmup batch that builds its
/// initial partition, and the per-tenant service options — including
/// the per-tenant MaintenancePolicy the shared scheduler runs for it.
struct TenantSpec {
  /// Unique within the registry; also the on-disk namespace directory
  /// (see ValidateTenantName).
  std::string name;
  Grid grid;
  /// Builds epoch 0 and the initial partition when the tenant is
  /// created fresh (ignored on the recovery path — the checkpoint + WAL
  /// replay rebuild the exact pre-crash state instead).
  AggregateBatch warmup;
  /// Per-tenant algorithm/build/store/refine knobs, the per-tenant
  /// MaintenancePolicy (`maintain`), and per-tenant durability settings
  /// (fsync mode, checkpoint cadence, full-snapshot interval). The
  /// registry owns maintenance and the WAL namespace, so
  /// `auto_maintain` is forced off and `durability.wal_dir` is
  /// rewritten to `<registry wal_dir>/<name>` when the registry has a
  /// durability root (and cleared when it does not).
  FairIndexServiceOptions options;
};

/// Registry-level configuration.
struct TenantRegistryOptions {
  /// Durability root; every tenant logs and checkpoints under its own
  /// `<wal_dir>/<name>/` subdirectory. Empty disables durability for
  /// all tenants.
  std::string wal_dir;
};

enum class TenantState {
  /// The tenant's service is live (created fresh or recovered).
  kServing,
  /// Recovery failed (corrupt WAL/checkpoint); the tenant holds no
  /// service, Ingest/tenant() return FailedPrecondition, and the
  /// shared scheduler skips it. Its on-disk state is left untouched
  /// for offline repair.
  kDegraded,
};

/// One tenant's externally visible condition.
struct TenantStatus {
  std::string name;
  TenantState state = TenantState::kServing;
  /// Why the tenant is degraded (Ok while serving).
  Status error = Status::Ok();
  /// True when this tenant was rebuilt from existing WAL/checkpoint
  /// state (vs. created fresh from its warmup batch).
  bool recovered = false;
};

/// Hosts N independent FairIndexService tenants behind one maintenance
/// thread. All public methods are thread-safe; the tenant table itself
/// is immutable after Create/Recover (per-tenant mutation goes through
/// each tenant's own thread-safe service).
class TenantRegistry {
 public:
  /// Creates every tenant fresh from its warmup batch. Fails on
  /// duplicate/invalid names, an empty spec list, or any tenant
  /// creation failure — including a durability namespace that already
  /// holds WAL/checkpoint state (use Recover for restarts, exactly like
  /// FairIndexService::Create vs Recover).
  static Result<std::unique_ptr<TenantRegistry>> Create(
      std::vector<TenantSpec> specs, const TenantRegistryOptions& options);

  /// Per-tenant recover-or-create: a tenant whose namespace holds a
  /// checkpoint is rebuilt bit-identically via FairIndexService::
  /// Recover; a tenant with no durable state (or no durability at all)
  /// is created fresh from its warmup. A tenant whose RECOVERY fails is
  /// marked kDegraded — its error is surfaced via statuses(), its disk
  /// state is left for repair, and the other tenants are unaffected.
  /// Only when every tenant fails does Recover return the first error.
  static Result<std::unique_ptr<TenantRegistry>> Recover(
      std::vector<TenantSpec> specs, const TenantRegistryOptions& options);

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Stops the shared maintenance thread before tearing down tenants.
  ~TenantRegistry();

  /// Appends one batch to `tenant`'s store and wakes the shared
  /// scheduler (record-count cadences react promptly, exactly like the
  /// single-tenant ingest notification). FailedPrecondition for a
  /// degraded tenant, NotFound for an unknown one.
  Result<long long> Ingest(const std::string& tenant, AggregateBatch batch);

  /// The tenant's service, for reads and direct maintenance
  /// (Lookup/LookupMany/Query*/Seal/MaybeRefine/...). Stable for the
  /// registry's lifetime. FailedPrecondition for a degraded tenant,
  /// NotFound for an unknown one.
  Result<FairIndexService*> tenant(const std::string& name) const;

  /// Every tenant's condition, in spec order.
  std::vector<TenantStatus> statuses() const;

  size_t num_tenants() const { return tenants_.size(); }
  /// Tenants currently serving (num_tenants() minus degraded ones).
  size_t num_serving() const;

  /// Starts the ONE shared maintenance thread (validates every serving
  /// tenant's policy the way FairIndexService::StartMaintenance does:
  /// at least one cadence enabled, positive poll interval). Fails when
  /// already running.
  Status StartMaintenance();

  /// Stops and joins the shared thread. Idempotent.
  void StopMaintenance();

  bool maintenance_running() const;

  /// One synchronous round-robin maintenance pass: runs TickNow() on
  /// every serving tenant's scheduler, starting from a rotating slot so
  /// no tenant is permanently first in line. What the shared thread
  /// runs per wakeup; public so drivers and tests can tick
  /// deterministically (the single-tenant TickNow contract, extended
  /// across the fleet). Returns true when any tenant's pass ran.
  bool TickMaintenanceNow();

  /// Maintenance counters for one tenant (zeros for unknown/degraded).
  MaintenanceStats maintenance_stats(const std::string& tenant) const;

 private:
  struct Tenant {
    std::string name;
    /// Null while degraded.
    std::unique_ptr<FairIndexService> service;
    /// The per-tenant policy evaluator the shared thread ticks. Never
    /// Start()ed — the registry thread IS its thread. Null while
    /// degraded.
    std::unique_ptr<MaintenanceScheduler> scheduler;
    Status error = Status::Ok();
    bool recovered = false;
  };

  TenantRegistry() = default;

  /// Shared construction: validates names, rewrites per-tenant
  /// durability namespaces, then creates or recovers each tenant.
  /// `allow_recover` selects the Recover path semantics.
  static Result<std::unique_ptr<TenantRegistry>> Build(
      std::vector<TenantSpec> specs, const TenantRegistryOptions& options,
      bool allow_recover);

  const Tenant* Find(const std::string& name) const;

  void MaintenanceRun();

  /// Spec order; immutable after Build (pointers handed out by
  /// tenant() stay valid for the registry's lifetime).
  std::vector<std::unique_ptr<Tenant>> tenants_;

  /// Rotating start slot for the round-robin tick.
  std::atomic<size_t> next_tick_start_{0};

  /// Shared maintenance thread state (same shape as the single-tenant
  /// scheduler's: condvar wakeups from Ingest, poll fallback at the
  /// minimum serving-tenant poll interval).
  mutable std::mutex maint_mutex_;
  std::condition_variable maint_wakeup_;
  bool maint_stop_ = false;
  bool maint_notified_ = false;
  bool maint_running_ = false;
  double maint_poll_seconds_ = 0.005;
  std::thread maint_thread_;
};

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_TENANT_REGISTRY_H_
