#include "service/tenant_registry.h"

#include <utility>

#include "service/checkpoint.h"

namespace fairidx {

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
  std::vector<MaintenanceMember> members;
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
      members.push_back({tenant->service.get(), spec.options.maintain});
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
  registry->scheduler_ =
      std::make_unique<MaintenanceScheduler>(std::move(members));
  return registry;
}

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
  return t->service->Ingest(std::move(batch));
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

Status TenantRegistry::StartMaintenance() { return scheduler_->Start(); }

void TenantRegistry::StopMaintenance() { scheduler_->Stop(); }

bool TenantRegistry::maintenance_running() const {
  return scheduler_->running();
}

bool TenantRegistry::TickMaintenanceNow() { return scheduler_->TickNow(); }

MaintenanceStats TenantRegistry::maintenance_stats(
    const std::string& tenant) const {
  const Tenant* t = Find(tenant);
  if (t == nullptr) return MaintenanceStats{};
  return scheduler_->stats(t->service.get());
}

}  // namespace fairidx
