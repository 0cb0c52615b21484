#include "service/tenant_registry.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "service/checkpoint.h"

namespace fairidx {
namespace {

Status ValidateTenantPolicy(const std::string& name,
                            const MaintenancePolicy& policy) {
  if (policy.seal_records <= 0 && policy.seal_interval_seconds <= 0.0) {
    return InvalidArgumentError(
        "TenantRegistry: tenant '" + name +
        "' maintenance policy would never act (enable seal_records or "
        "seal_interval_seconds)");
  }
  if (!(policy.poll_interval_seconds > 0.0)) {
    return InvalidArgumentError("TenantRegistry: tenant '" + name +
                                "' poll_interval_seconds must be > 0");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateTenantName(const std::string& name) {
  if (name.empty()) {
    return InvalidArgumentError("empty tenant name");
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return InvalidArgumentError(
          "tenant name '" + name +
          "' must match [A-Za-z0-9_-]+ (it names a directory)");
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<TenantRegistry>> TenantRegistry::Create(
    std::vector<TenantSpec> specs, const TenantRegistryOptions& options) {
  return Build(std::move(specs), options, /*allow_recover=*/false);
}

Result<std::unique_ptr<TenantRegistry>> TenantRegistry::Recover(
    std::vector<TenantSpec> specs, const TenantRegistryOptions& options) {
  return Build(std::move(specs), options, /*allow_recover=*/true);
}

Result<std::unique_ptr<TenantRegistry>> TenantRegistry::Build(
    std::vector<TenantSpec> specs, const TenantRegistryOptions& options,
    bool allow_recover) {
  if (specs.empty()) {
    return InvalidArgumentError("TenantRegistry: no tenants");
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    FAIRIDX_RETURN_IF_ERROR(ValidateTenantName(specs[i].name));
    for (size_t j = 0; j < i; ++j) {
      if (specs[j].name == specs[i].name) {
        return InvalidArgumentError("TenantRegistry: duplicate tenant '" +
                                    specs[i].name + "'");
      }
    }
  }

  std::unique_ptr<TenantRegistry> registry(new TenantRegistry());
  Status first_error = Status::Ok();
  for (TenantSpec& spec : specs) {
    // The registry owns maintenance (one shared thread) and the WAL
    // namespace; per-tenant options must not fight either.
    spec.options.auto_maintain = false;
    spec.options.durability.wal_dir =
        options.wal_dir.empty() ? std::string()
                                : options.wal_dir + "/" + spec.name;

    auto tenant = std::make_unique<Tenant>();
    tenant->name = spec.name;

    // Recover-or-create: a namespace that already holds a checkpoint is
    // a previous run's state — rebuild it; anything else (no durability,
    // or a tenant added since the last restart) starts fresh.
    bool has_state = false;
    if (allow_recover && !spec.options.durability.wal_dir.empty()) {
      auto checkpoints = ListCheckpoints(spec.options.durability.wal_dir);
      has_state = checkpoints.ok() && !checkpoints->empty();
    }
    Result<std::unique_ptr<FairIndexService>> service =
        has_state
            ? FairIndexService::Recover(spec.grid, spec.options)
            : FairIndexService::Create(spec.grid, spec.warmup, spec.options);
    if (service.ok()) {
      tenant->service = std::move(*service);
      tenant->scheduler = std::make_unique<MaintenanceScheduler>(
          tenant->service.get(), spec.options.maintain);
      tenant->recovered = has_state;
    } else if (allow_recover) {
      // Fault isolation: one corrupt tenant must not take down the
      // fleet. Surface the error, leave the disk state for repair.
      tenant->error = service.status();
      if (first_error.ok()) first_error = service.status();
    } else {
      return service.status();
    }
    registry->tenants_.push_back(std::move(tenant));
  }
  if (registry->num_serving() == 0) {
    // Nothing recovered and nothing created: an empty registry serves
    // no one, so propagate the cause instead of a zombie process.
    return first_error;
  }
  return registry;
}

TenantRegistry::~TenantRegistry() { StopMaintenance(); }

const TenantRegistry::Tenant* TenantRegistry::Find(
    const std::string& name) const {
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    if (tenant->name == name) return tenant.get();
  }
  return nullptr;
}

Result<long long> TenantRegistry::Ingest(const std::string& tenant,
                                         AggregateBatch batch) {
  const Tenant* t = Find(tenant);
  if (t == nullptr) {
    return NotFoundError("TenantRegistry: unknown tenant '" + tenant + "'");
  }
  if (t->service == nullptr) {
    return FailedPreconditionError("TenantRegistry: tenant '" + tenant +
                                   "' is degraded: " + t->error.ToString());
  }
  Result<long long> seq = t->service->Ingest(std::move(batch));
  if (seq.ok()) {
    std::lock_guard<std::mutex> lock(maint_mutex_);
    if (maint_running_) {
      maint_notified_ = true;
      maint_wakeup_.notify_one();
    }
  }
  return seq;
}

Result<FairIndexService*> TenantRegistry::tenant(
    const std::string& name) const {
  const Tenant* t = Find(name);
  if (t == nullptr) {
    return NotFoundError("TenantRegistry: unknown tenant '" + name + "'");
  }
  if (t->service == nullptr) {
    return FailedPreconditionError("TenantRegistry: tenant '" + name +
                                   "' is degraded: " + t->error.ToString());
  }
  return t->service.get();
}

std::vector<TenantStatus> TenantRegistry::statuses() const {
  std::vector<TenantStatus> out;
  out.reserve(tenants_.size());
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    TenantStatus status;
    status.name = tenant->name;
    status.state = tenant->service != nullptr ? TenantState::kServing
                                              : TenantState::kDegraded;
    status.error = tenant->error;
    status.recovered = tenant->recovered;
    out.push_back(std::move(status));
  }
  return out;
}

size_t TenantRegistry::num_serving() const {
  size_t serving = 0;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    if (tenant->service != nullptr) ++serving;
  }
  return serving;
}

Status TenantRegistry::StartMaintenance() {
  double poll = 0.0;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    if (tenant->service == nullptr) continue;
    const MaintenancePolicy& policy = tenant->scheduler->policy();
    FAIRIDX_RETURN_IF_ERROR(ValidateTenantPolicy(tenant->name, policy));
    poll = poll == 0.0 ? policy.poll_interval_seconds
                       : std::min(poll, policy.poll_interval_seconds);
  }
  std::lock_guard<std::mutex> lock(maint_mutex_);
  if (maint_running_) {
    return FailedPreconditionError(
        "TenantRegistry: maintenance is already running");
  }
  maint_stop_ = false;
  maint_notified_ = false;
  maint_running_ = true;
  // The shared thread polls at the most demanding tenant's cadence, so
  // every tenant's wall-clock policy resolves at least as often as its
  // own dedicated thread would have.
  maint_poll_seconds_ = poll > 0.0 ? poll : 0.005;
  maint_thread_ = std::thread([this] { MaintenanceRun(); });
  return Status::Ok();
}

void TenantRegistry::StopMaintenance() {
  {
    std::lock_guard<std::mutex> lock(maint_mutex_);
    if (!maint_running_) return;
    maint_stop_ = true;
    maint_wakeup_.notify_one();
  }
  maint_thread_.join();
  std::lock_guard<std::mutex> lock(maint_mutex_);
  maint_running_ = false;
}

bool TenantRegistry::maintenance_running() const {
  std::lock_guard<std::mutex> lock(maint_mutex_);
  return maint_running_;
}

bool TenantRegistry::TickMaintenanceNow() {
  const size_t n = tenants_.size();
  // Claim-then-act round robin: every pass starts one slot later, so
  // over any window of passes each tenant is first in line equally
  // often and a slow tenant's refine cannot starve the others of their
  // turn position.
  const size_t start =
      next_tick_start_.fetch_add(1, std::memory_order_relaxed) % n;
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    Tenant& tenant = *tenants_[(start + i) % n];
    if (tenant.service == nullptr) continue;
    if (tenant.scheduler->TickNow()) any = true;
  }
  return any;
}

MaintenanceStats TenantRegistry::maintenance_stats(
    const std::string& tenant) const {
  const Tenant* t = Find(tenant);
  if (t == nullptr || t->scheduler == nullptr) return MaintenanceStats{};
  return t->scheduler->stats();
}

void TenantRegistry::MaintenanceRun() {
  std::unique_lock<std::mutex> lock(maint_mutex_);
  while (!maint_stop_) {
    maint_wakeup_.wait_for(
        lock, std::chrono::duration<double>(maint_poll_seconds_),
        [this] { return maint_stop_ || maint_notified_; });
    maint_notified_ = false;
    if (maint_stop_) break;
    lock.unlock();
    TickMaintenanceNow();
    lock.lock();
  }
}

}  // namespace fairidx
