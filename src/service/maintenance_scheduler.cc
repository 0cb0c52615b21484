#include "service/maintenance_scheduler.h"

#include <algorithm>

#include "service/fair_index_service.h"

namespace fairidx {

namespace {

// A clock cadence longer than this acts at this interval instead, which
// keeps every deadline representable on the steady clock.
constexpr double kMaxSealIntervalSeconds = 365.0 * 24.0 * 3600.0;

// When `policy`'s clock cadence next comes due after a pass at
// `last_pass`; time_point::max() when the policy has no clock cadence.
std::chrono::steady_clock::time_point ClockDeadline(
    const MaintenancePolicy& policy,
    std::chrono::steady_clock::time_point last_pass) {
  if (!(policy.seal_interval_seconds > 0.0)) {
    return std::chrono::steady_clock::time_point::max();
  }
  const double seconds =
      std::min(policy.seal_interval_seconds, kMaxSealIntervalSeconds);
  return last_pass +
         std::chrono::ceil<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

}  // namespace

Status ValidateMaintenancePolicy(const MaintenancePolicy& policy) {
  if (policy.seal_records <= 0 && !(policy.seal_interval_seconds > 0.0)) {
    return InvalidArgumentError(
        "maintenance policy would never act (enable seal_records or "
        "seal_interval_seconds)");
  }
  return Status::Ok();
}

MaintenanceScheduler::MaintenanceScheduler(
    std::vector<MaintenanceMember> members) {
  const Clock::time_point now = Clock::now();
  members_.reserve(members.size());
  for (const MaintenanceMember& member : members) {
    members_.push_back(Member{member.service, member.policy, now, {}});
  }
}

MaintenanceScheduler::~MaintenanceScheduler() { Stop(); }

Status MaintenanceScheduler::Start() {
  for (const Member& member : members_) {
    FAIRIDX_RETURN_IF_ERROR(ValidateMaintenancePolicy(member.policy));
  }
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (thread_.joinable()) {
    return FailedPreconditionError("maintenance is already running");
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i].service->AttachHost(this)) {
      for (size_t j = 0; j < i; ++j) members_[j].service->DetachHost(this);
      return FailedPreconditionError(
          "a member service is already maintained by another scheduler");
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
    notified_ = false;
  }
  thread_ = std::thread(&MaintenanceScheduler::Run, this);
  return Status::Ok();
}

void MaintenanceScheduler::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    wakeup_.notify_all();
  }
  thread_.join();
  for (Member& member : members_) member.service->DetachHost(this);
}

bool MaintenanceScheduler::running() const {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  return thread_.joinable();
}

void MaintenanceScheduler::NotifyIngest() {
  std::lock_guard<std::mutex> lock(mutex_);
  notified_ = true;
  wakeup_.notify_all();
}

bool MaintenanceScheduler::TickNow() {
  const size_t n = members_.size();
  if (n == 0) return false;
  const size_t start = next_start_.fetch_add(1, std::memory_order_relaxed) % n;
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    if (TickMember(members_[(start + i) % n])) any = true;
  }
  return any;
}

bool MaintenanceScheduler::TickMember(Member& member) {
  FairIndexService& service = *member.service;
  const MaintenancePolicy& policy = member.policy;
  {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(state_mutex_);
    const long long pending = service.store().pending_records();
    if (pending <= 0) return false;  // Nothing to seal: never act.
    const bool due =
        (policy.seal_records > 0 && pending >= policy.seal_records) ||
        now >= ClockDeadline(policy, member.last_pass);
    if (!due) return false;
    // Claim the pass before acting so a concurrent ticker does not
    // double-fire the clock cadence for the same interval.
    member.last_pass = now;
  }
  // Act outside the state lock: the service serializes maintenance
  // itself, and stats() readers should not block on an O(UV) fold.
  if (policy.drift_bound >= 0.0) {
    KdRefineOptions refine_options;
    refine_options.drift_bound = policy.drift_bound;
    const Result<ServiceRefineResult> refined =
        service.MaybeRefine(refine_options);
    std::lock_guard<std::mutex> lock(state_mutex_);
    MaintenanceStats& stats = member.stats;
    ++stats.passes;
    ++stats.refines;
    if (!refined.ok()) {
      ++stats.errors;
    } else if (refined->stats.changed) {
      ++stats.published;
      stats.resplits += refined->stats.subtrees_rebuilt;
      if (refined->stats.patched_in_place || refined->stats.patched_splice) {
        ++stats.published_patched;
      } else {
        ++stats.published_fallback;
      }
    }
  } else {
    const Result<long long> sealed = service.Seal();
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++member.stats.passes;
    if (!sealed.ok()) ++member.stats.errors;
  }
  if (policy.retain_epochs > 0) {
    // Retention rides the maintenance cadence: each pass seals at most one
    // epoch, so trimming here bounds the history at retain_epochs plus
    // whatever readers still pin.
    const int dropped = service.ApplyRetention(policy.retain_epochs);
    if (dropped > 0) {
      std::lock_guard<std::mutex> lock(state_mutex_);
      member.stats.epochs_retired += dropped;
    }
  }
  return true;
}

MaintenanceStats MaintenanceScheduler::stats(
    const FairIndexService* service) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (const Member& member : members_) {
    if (member.service == service) return member.stats;
  }
  return MaintenanceStats{};
}

MaintenanceScheduler::Clock::time_point MaintenanceScheduler::NextDeadline()
    const {
  Clock::time_point deadline = Clock::time_point::max();
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (const Member& member : members_) {
    if (member.service->store().pending_records() <= 0) continue;
    deadline =
        std::min(deadline, ClockDeadline(member.policy, member.last_pass));
  }
  return deadline;
}

void MaintenanceScheduler::Run() {
  const auto woken = [this] { return stop_ || notified_; };
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    // Cleared before the pass: an ingest that lands during it sets the
    // flag again, so the wait below returns at once instead of missing
    // it.
    notified_ = false;
    lock.unlock();
    TickNow();
    // Record-count cadences need no deadline: they come due only on an
    // ingest, which wakes the thread. A pass that failed keeps its claim
    // on last_pass, so it is retried at the next wakeup, not in a spin.
    const Clock::time_point deadline = NextDeadline();
    lock.lock();
    if (deadline == Clock::time_point::max()) {
      wakeup_.wait(lock, woken);
    } else {
      wakeup_.wait_until(lock, deadline, woken);
    }
  }
}

}  // namespace fairidx
