// Multi-tenant isolation differential suite for TenantRegistry: each
// tenant hosted behind the shared round-robin maintenance thread must
// end up BIT-identical — sealed snapshot cell sums, published
// partition, epoch and record counters — to an isolated single-tenant
// FairIndexService run with the same inputs and policy, at shard
// counts {1, 3}, under deterministic ticking and under the LIVE shared
// scheduler. Recovery is differential too: a registry restart rebuilds
// every tenant bit-identically, and corrupting ONE tenant's checkpoints
// degrades only that tenant while the others recover byte-identically.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "service/checkpoint.h"
#include "service/fair_index_service.h"
#include "service/tenant_registry.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

AggregateBatch RandomRecords(Rng& rng, const Grid& grid, int n) {
  AggregateBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.Append(static_cast<int>(rng.NextBounded(grid.num_cells())),
                 rng.Bernoulli(0.5) ? 1 : 0, rng.NextDouble());
  }
  return batch;
}

// Polls `done` until it returns true or ~10s pass (generous: the TSan
// lane runs these suites an order of magnitude slower).
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fairidx_tenant_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Every prefix rectangle pins the prefix structure bit for bit.
void ExpectSnapshotBitEq(const GridAggregates& a, const GridAggregates& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int r = 0; r <= a.rows(); ++r) {
    for (int c = 0; c <= a.cols(); ++c) {
      const RegionAggregate x = a.Query(CellRect{0, r, 0, c});
      const RegionAggregate y = b.Query(CellRect{0, r, 0, c});
      ASSERT_EQ(x.count, y.count) << "(" << r << "," << c << ")";
      ASSERT_EQ(x.sum_labels, y.sum_labels);
      ASSERT_EQ(x.sum_scores, y.sum_scores);
      ASSERT_EQ(x.sum_residuals, y.sum_residuals);
      ASSERT_EQ(x.sum_cell_abs_miscalibration,
                y.sum_cell_abs_miscalibration);
    }
  }
}

struct ServiceState {
  long long epoch = 0;
  long long num_records = 0;
  long long pending = 0;
  long long total_resplits = 0;
  std::vector<CellRect> regions;
  std::shared_ptr<const GridAggregates> snapshot;
};

ServiceState CaptureState(const FairIndexService& service) {
  ServiceState state;
  state.epoch = service.store().epoch();
  state.num_records = service.store().num_records();
  state.pending = service.store().pending_records();
  state.total_resplits = service.total_resplits();
  state.regions = *service.regions();
  state.snapshot = service.store().snapshot();
  return state;
}

void ExpectStateBitEq(const ServiceState& a, const ServiceState& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.num_records, b.num_records);
  EXPECT_EQ(a.pending, b.pending);
  EXPECT_EQ(a.total_resplits, b.total_resplits);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].row_begin, b.regions[i].row_begin) << i;
    EXPECT_EQ(a.regions[i].row_end, b.regions[i].row_end) << i;
    EXPECT_EQ(a.regions[i].col_begin, b.regions[i].col_begin) << i;
    EXPECT_EQ(a.regions[i].col_end, b.regions[i].col_end) << i;
  }
  ExpectSnapshotBitEq(*a.snapshot, *b.snapshot);
}

// One tenant's full deterministic fixture: its grid shape, warmup,
// batches and per-tenant policy all differ across tenants so the
// differential below cannot pass by accident.
struct TenantFixture {
  std::string name;
  Grid grid;
  AggregateBatch warmup;
  std::vector<AggregateBatch> batches;
  FairIndexServiceOptions options;
};

// Three tenants with distinct grids, tree heights and maintenance
// cadences. All seeded independently of the order they run in.
std::vector<TenantFixture> MakeFixtures(int shards, uint64_t seed) {
  const int heights[] = {3, 4, 2};
  const int dims[][2] = {{6, 6}, {8, 5}, {4, 9}};
  const long long seal_records[] = {20, 45, 1};
  const double drift_bounds[] = {0.02, 0.05, -1.0};
  std::vector<TenantFixture> fixtures;
  for (int t = 0; t < 3; ++t) {
    Rng rng(seed + static_cast<uint64_t>(t) * 1000);
    const Grid grid = MakeGrid(dims[t][0], dims[t][1]);
    TenantFixture fixture{"tenant-" + std::to_string(t), grid,
                          RandomRecords(rng, grid, 100 + 20 * t),
                          {},
                          {}};
    for (int i = 0; i < 10; ++i) {
      fixture.batches.push_back(RandomRecords(rng, grid, 12 + 3 * t));
    }
    fixture.options.algorithm = "fair_kd_tree";
    fixture.options.build.height = heights[t];
    fixture.options.store.num_shards = shards;
    fixture.options.maintain.seal_records = seal_records[t];
    fixture.options.maintain.drift_bound = drift_bounds[t];
    fixtures.push_back(std::move(fixture));
  }
  return fixtures;
}

std::vector<TenantSpec> MakeSpecs(const std::vector<TenantFixture>& fixtures) {
  std::vector<TenantSpec> specs;
  for (const TenantFixture& fixture : fixtures) {
    specs.push_back(TenantSpec{fixture.name, fixture.grid, fixture.warmup,
                               fixture.options});
  }
  return specs;
}

// The isolated single-tenant reference: the tenant's own service driven
// by its own scheduler, ticked at the same points the registry ticks.
ServiceState RunIsolatedReference(const TenantFixture& fixture,
                                  const std::string& wal_dir) {
  FairIndexServiceOptions options = fixture.options;
  options.durability.wal_dir = wal_dir;
  auto service =
      FairIndexService::Create(fixture.grid, fixture.warmup, options);
  EXPECT_TRUE(service.ok()) << service.status();
  MaintenanceScheduler scheduler({{service->get(), options.maintain}});
  for (const AggregateBatch& batch : fixture.batches) {
    EXPECT_TRUE((*service)->Ingest(batch).ok());
    scheduler.TickNow();
  }
  return CaptureState(**service);
}

// The core differential: ingest the same batches through the registry,
// tick the SHARED round-robin scheduler once per batch round, and
// require every tenant bit-identical to its isolated reference — at
// shard counts 1 and 3, with per-tenant grids, heights and policies all
// different.
TEST(TenantRegistryDifferentialTest, BitIdenticalToIsolatedSingleTenant) {
  for (int shards : {1, 3}) {
    const std::vector<TenantFixture> fixtures = MakeFixtures(shards, 77);
    auto registry =
        TenantRegistry::Create(MakeSpecs(fixtures), TenantRegistryOptions{});
    ASSERT_TRUE(registry.ok()) << registry.status();
    for (size_t i = 0; i < fixtures[0].batches.size(); ++i) {
      for (const TenantFixture& fixture : fixtures) {
        ASSERT_TRUE(
            (*registry)->Ingest(fixture.name, fixture.batches[i]).ok());
      }
      // One shared pass serves every tenant's policy, whatever slot the
      // rotating cursor starts it in.
      (*registry)->TickMaintenanceNow();
    }
    for (const TenantFixture& fixture : fixtures) {
      const ServiceState want = RunIsolatedReference(fixture, "");
      auto service = (*registry)->tenant(fixture.name);
      ASSERT_TRUE(service.ok()) << service.status();
      ExpectStateBitEq(CaptureState(**service), want);
    }
  }
}

// Same differential under the LIVE shared scheduler with seal-only
// policies: wall-clock tick timing then affects only WHEN seals happen,
// never the partition, so after quiescing and a final Seal the sealed
// snapshot depends only on the record multiset — which is identical.
TEST(TenantRegistryDifferentialTest, LiveSharedSchedulerSealOnlyBitIdentity) {
  for (int shards : {1, 3}) {
    std::vector<TenantFixture> fixtures = MakeFixtures(shards, 311);
    for (TenantFixture& fixture : fixtures) {
      fixture.options.maintain.drift_bound = -1.0;  // Seal-only.
      fixture.options.maintain.seal_records = 8;
    }
    auto registry =
        TenantRegistry::Create(MakeSpecs(fixtures), TenantRegistryOptions{});
    ASSERT_TRUE(registry.ok()) << registry.status();
    ASSERT_TRUE((*registry)->StartMaintenance().ok());
    ASSERT_TRUE((*registry)->maintenance_running());

    std::vector<std::thread> writers;
    for (const TenantFixture& fixture : fixtures) {
      writers.emplace_back([&registry, &fixture] {
        for (const AggregateBatch& batch : fixture.batches) {
          ASSERT_TRUE(
              (*registry)->Ingest(fixture.name, batch).ok());
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    (*registry)->StopMaintenance();
    ASSERT_FALSE((*registry)->maintenance_running());

    for (const TenantFixture& fixture : fixtures) {
      // Isolated reference: same records, one final seal. Seal-only
      // maintenance can never change the partition, so the sealed sums
      // and regions must match regardless of how the live scheduler
      // interleaved its epoch seals.
      FairIndexServiceOptions options = fixture.options;
      auto reference =
          FairIndexService::Create(fixture.grid, fixture.warmup, options);
      ASSERT_TRUE(reference.ok()) << reference.status();
      for (const AggregateBatch& batch : fixture.batches) {
        ASSERT_TRUE((*reference)->Ingest(batch).ok());
      }
      ASSERT_TRUE((*reference)->Seal().ok());

      auto service = (*registry)->tenant(fixture.name);
      ASSERT_TRUE(service.ok()) << service.status();
      ASSERT_TRUE((*service)->Seal().ok());
      const ServiceState got = CaptureState(**service);
      const ServiceState want = CaptureState(**reference);
      EXPECT_EQ(got.num_records, want.num_records) << fixture.name;
      EXPECT_EQ(got.pending, 0) << fixture.name;
      ASSERT_EQ(got.regions.size(), want.regions.size()) << fixture.name;
      ExpectSnapshotBitEq(*got.snapshot, *want.snapshot);
    }
  }
}

// Registry restart: every tenant recovers bit-identically from its own
// WAL/checkpoint namespace, in one Recover call.
TEST(TenantRegistryRecoveryTest, RecoverRebuildsEveryTenantBitIdentically) {
  const std::string root = FreshDir("recover_all");
  const std::vector<TenantFixture> fixtures = MakeFixtures(1, 555);
  TenantRegistryOptions options;
  options.wal_dir = root;
  std::vector<ServiceState> want;
  {
    auto registry = TenantRegistry::Create(MakeSpecs(fixtures), options);
    ASSERT_TRUE(registry.ok()) << registry.status();
    for (size_t i = 0; i < fixtures[0].batches.size(); ++i) {
      for (const TenantFixture& fixture : fixtures) {
        ASSERT_TRUE(
            (*registry)->Ingest(fixture.name, fixture.batches[i]).ok());
      }
      (*registry)->TickMaintenanceNow();
    }
    for (const TenantFixture& fixture : fixtures) {
      want.push_back(CaptureState(**(*registry)->tenant(fixture.name)));
    }
    // Destructor = the crash (no final checkpoint; WAL holds the rest).
  }

  auto recovered = TenantRegistry::Recover(MakeSpecs(fixtures), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->num_serving(), fixtures.size());
  const std::vector<TenantStatus> statuses = (*recovered)->statuses();
  for (size_t t = 0; t < fixtures.size(); ++t) {
    EXPECT_TRUE(statuses[t].recovered) << fixtures[t].name;
    EXPECT_EQ(statuses[t].state, TenantState::kServing);
    auto service = (*recovered)->tenant(fixtures[t].name);
    ASSERT_TRUE(service.ok()) << service.status();
    ExpectStateBitEq(CaptureState(**service), want[t]);
  }
}

// Fault isolation: runs the fixtures under a durable registry, lets
// `corrupt` rewrite ONE tenant's directory, and recovers. That tenant
// comes up degraded (error surfaced, disk state untouched, Ingest/tenant()
// refuse) while the other tenants recover bit-identically and the shared
// scheduler keeps running for them.
void ExpectCorruptionDegradesOnlyThatTenant(
    const std::string& root,
    const std::function<void(const std::string& victim_dir)>& corrupt) {
  const std::vector<TenantFixture> fixtures = MakeFixtures(1, 901);
  TenantRegistryOptions options;
  options.wal_dir = root;
  std::vector<ServiceState> want;
  {
    auto registry = TenantRegistry::Create(MakeSpecs(fixtures), options);
    ASSERT_TRUE(registry.ok()) << registry.status();
    for (size_t i = 0; i < fixtures[0].batches.size(); ++i) {
      for (const TenantFixture& fixture : fixtures) {
        ASSERT_TRUE(
            (*registry)->Ingest(fixture.name, fixture.batches[i]).ok());
      }
      (*registry)->TickMaintenanceNow();
    }
    for (const TenantFixture& fixture : fixtures) {
      want.push_back(CaptureState(**(*registry)->tenant(fixture.name)));
    }
  }

  const std::string victim = fixtures[1].name;
  corrupt(root + "/" + victim);

  auto recovered = TenantRegistry::Recover(MakeSpecs(fixtures), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->num_tenants(), fixtures.size());
  EXPECT_EQ((*recovered)->num_serving(), fixtures.size() - 1);

  const std::vector<TenantStatus> statuses = (*recovered)->statuses();
  EXPECT_EQ(statuses[1].state, TenantState::kDegraded);
  EXPECT_FALSE(statuses[1].error.ok());
  EXPECT_FALSE((*recovered)->tenant(victim).ok());
  AggregateBatch one;
  one.Append(0, 1, 0.5);
  const auto refused = (*recovered)->Ingest(victim, one);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("degraded"),
            std::string::npos);

  // The healthy tenants recovered bit-identically and still maintain.
  for (size_t t = 0; t < fixtures.size(); ++t) {
    if (t == 1) continue;
    EXPECT_EQ(statuses[t].state, TenantState::kServing);
    auto service = (*recovered)->tenant(fixtures[t].name);
    ASSERT_TRUE(service.ok()) << service.status();
    ExpectStateBitEq(CaptureState(**service), want[t]);
  }
  ASSERT_TRUE((*recovered)->StartMaintenance().ok());
  ASSERT_TRUE(
      (*recovered)->Ingest(fixtures[0].name, fixtures[0].batches[0]).ok());
  (*recovered)->StopMaintenance();

  // The degraded tenant's disk state was left for repair, not deleted.
  EXPECT_TRUE(std::filesystem::exists(root + "/" + victim));
}

// Every checkpoint of the victim is overwritten in place (names kept,
// contents garbage): recovery must fail on it, not fall back to
// recreating it fresh.
TEST(TenantRegistryRecoveryTest, CorruptOneTenantDegradesOnlyThatTenant) {
  ExpectCorruptionDegradesOnlyThatTenant(
      FreshDir("corrupt_one"), [](const std::string& dir) {
        auto checkpoints = ListCheckpoints(dir);
        ASSERT_TRUE(checkpoints.ok()) << checkpoints.status();
        ASSERT_FALSE(checkpoints->empty());
        for (const CheckpointInfo& info : *checkpoints) {
          std::ofstream out(info.path, std::ios::binary | std::ios::trunc);
          out << "not a checkpoint";
        }
      });
}

// Every checkpoint of the victim, base and link, is rewritten CRC-valid
// but with a maintainer blob whose valid header claims 2^60 tree nodes in
// 24 bytes. Restore must answer DataLoss (not abort on the allocation),
// so only that tenant degrades.
TEST(TenantRegistryRecoveryTest, HostileMaintainerBlobDegradesOnlyThatTenant) {
  ExpectCorruptionDegradesOnlyThatTenant(
      FreshDir("hostile_blob"), [](const std::string& dir) {
        // Keeps the blob's magic, version and split-scan count.
        const auto hostile = [](const std::string& blob) {
          BinaryWriter count;
          count.PutU64(uint64_t{1} << 60);
          return blob.substr(0, 16) + count.buffer();
        };
        auto checkpoints = ListCheckpoints(dir);
        ASSERT_TRUE(checkpoints.ok()) << checkpoints.status();
        ASSERT_FALSE(checkpoints->empty());
        for (const CheckpointInfo& info : *checkpoints) {
          auto data = ReadCheckpoint(info.path);
          ASSERT_TRUE(data.ok()) << data.status();
          ASSERT_GE(data->maintained_blob.size(), 16u);
          data->maintained_blob = hostile(data->maintained_blob);
          ASSERT_TRUE(WriteCheckpoint(dir, *data).ok());
        }
      });
}

TEST(TenantRegistryTest, RejectsBadSpecs) {
  const std::vector<TenantFixture> fixtures = MakeFixtures(1, 13);
  EXPECT_FALSE(TenantRegistry::Create({}, TenantRegistryOptions{}).ok());

  // One table of names through both front doors that share the
  // ValidateTenantName rule: the registry itself and the scenario
  // parser's tenant.<name>.* sections.
  const struct {
    const char* name;
    bool valid;
  } names[] = {{"", false},    {"a/b", false},   {"..", false},
               {"a b", false}, {"ok_-9", true}};
  for (const auto& entry : names) {
    SCOPED_TRACE(entry.name);
    std::vector<TenantSpec> specs = MakeSpecs(fixtures);
    specs[0].name = entry.name;
    EXPECT_EQ(
        TenantRegistry::Create(std::move(specs), TenantRegistryOptions{})
            .ok(),
        entry.valid);
    EXPECT_EQ(ParseScenarioText(
                  "workload = multi_tenant\nmaintain_policy = auto\n"
                  "seal_interval = 0.01\ntenant." +
                      std::string(entry.name) + ".height = 4\n",
                  "")
                  .ok(),
              entry.valid);
  }

  std::vector<TenantSpec> duplicate = MakeSpecs(fixtures);
  duplicate[2].name = duplicate[0].name;
  EXPECT_FALSE(
      TenantRegistry::Create(std::move(duplicate), TenantRegistryOptions{})
          .ok());
}

TEST(TenantRegistryTest, UnknownTenantIsNotFound) {
  const std::vector<TenantFixture> fixtures = MakeFixtures(1, 14);
  auto registry =
      TenantRegistry::Create(MakeSpecs(fixtures), TenantRegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  EXPECT_FALSE((*registry)->tenant("nope").ok());
  AggregateBatch one;
  one.Append(0, 1, 0.5);
  EXPECT_FALSE((*registry)->Ingest("nope", std::move(one)).ok());
  EXPECT_EQ((*registry)->num_tenants(), fixtures.size());
  EXPECT_EQ((*registry)->num_serving(), fixtures.size());
}

TEST(TenantRegistryTest, StartMaintenanceValidatesAndRefusesDoubleStart) {
  std::vector<TenantFixture> fixtures = MakeFixtures(1, 15);
  auto registry =
      TenantRegistry::Create(MakeSpecs(fixtures), TenantRegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  ASSERT_TRUE((*registry)->StartMaintenance().ok());
  EXPECT_FALSE((*registry)->StartMaintenance().ok());
  (*registry)->StopMaintenance();
  (*registry)->StopMaintenance();  // Idempotent.
  EXPECT_FALSE((*registry)->maintenance_running());

  // A policy that can never act is a config bug, not a silent no-op.
  fixtures[1].options.maintain.seal_records = 0;
  fixtures[1].options.maintain.seal_interval_seconds = 0.0;
  auto never =
      TenantRegistry::Create(MakeSpecs(fixtures), TenantRegistryOptions{});
  ASSERT_TRUE(never.ok()) << never.status();
  EXPECT_FALSE((*never)->StartMaintenance().ok());
}

// One shared pass visits every tenant: with a 1-record seal cadence and
// pending records everywhere, a single TickMaintenanceNow drains every
// tenant's pending set, wherever the rotating cursor started.
TEST(TenantRegistryTest, OneTickServesEveryTenant) {
  std::vector<TenantFixture> fixtures = MakeFixtures(1, 16);
  for (TenantFixture& fixture : fixtures) {
    fixture.options.maintain.seal_records = 1;
    fixture.options.maintain.drift_bound = -1.0;
  }
  auto registry =
      TenantRegistry::Create(MakeSpecs(fixtures), TenantRegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  for (int round = 0; round < 4; ++round) {  // Rotate past every slot.
    for (const TenantFixture& fixture : fixtures) {
      ASSERT_TRUE(
          (*registry)->Ingest(fixture.name, fixture.batches[0]).ok());
    }
    EXPECT_TRUE((*registry)->TickMaintenanceNow());
    for (const TenantFixture& fixture : fixtures) {
      auto service = (*registry)->tenant(fixture.name);
      ASSERT_TRUE(service.ok());
      EXPECT_EQ((*service)->store().pending_records(), 0)
          << fixture.name << " round " << round;
      EXPECT_GE(
          (*registry)->maintenance_stats(fixture.name).passes, round + 1);
    }
  }
}

// The shared scheduler has no poll: with record-count cadences only, a
// pass comes only because an ingest woke it. Ingesting straight through
// a tenant's service, bypassing TenantRegistry::Ingest, must wake it
// just the same.
TEST(TenantRegistryTest, DirectTenantIngestWakesSharedScheduler) {
  std::vector<TenantFixture> fixtures = MakeFixtures(1, 17);
  for (TenantFixture& fixture : fixtures) {
    fixture.options.maintain.seal_records = 1;
    fixture.options.maintain.seal_interval_seconds = 0.0;
    fixture.options.maintain.drift_bound = -1.0;
  }
  auto registry =
      TenantRegistry::Create(MakeSpecs(fixtures), TenantRegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  ASSERT_TRUE((*registry)->StartMaintenance().ok());
  for (const TenantFixture& fixture : fixtures) {
    auto service = (*registry)->tenant(fixture.name);
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->Ingest(fixture.batches[0]).ok());
    EXPECT_TRUE(WaitFor([&] {
      return (*registry)->maintenance_stats(fixture.name).passes >= 1;
    })) << fixture.name;
    EXPECT_EQ((*service)->store().pending_records(), 0) << fixture.name;
  }
  (*registry)->StopMaintenance();
}

// TSan stress: per-tenant writers and readers racing the live shared
// scheduler. Correctness here is "no data race, no lost records";
// ordering is covered by the differentials above.
TEST(TenantRegistryStressTest, ConcurrentTenantsWithSharedScheduler) {
  std::vector<TenantFixture> fixtures = MakeFixtures(2, 4242);
  for (TenantFixture& fixture : fixtures) {
    fixture.options.maintain.seal_records = 5;
  }
  auto registry =
      TenantRegistry::Create(MakeSpecs(fixtures), TenantRegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  ASSERT_TRUE((*registry)->StartMaintenance().ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (const TenantFixture& fixture : fixtures) {
    threads.emplace_back([&registry, &fixture] {
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE((*registry)
                        ->Ingest(fixture.name,
                                 fixture.batches[i % fixture.batches.size()])
                        .ok());
      }
    });
    threads.emplace_back([&registry, &fixture, &stop] {
      Rng rng(7);
      while (!stop.load(std::memory_order_relaxed)) {
        auto service = (*registry)->tenant(fixture.name);
        ASSERT_TRUE(service.ok());
        const BoundingBox& extent = fixture.grid.extent();
        (*service)->Lookup(rng.Uniform(extent.min_x, extent.max_x),
                           rng.Uniform(extent.min_y, extent.max_y));
        (*service)->QueryRegions();
      }
    });
  }
  for (size_t i = 0; i < fixtures.size(); ++i) threads[2 * i].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = 0; i < fixtures.size(); ++i) threads[2 * i + 1].join();
  (*registry)->StopMaintenance();

  for (const TenantFixture& fixture : fixtures) {
    auto service = (*registry)->tenant(fixture.name);
    ASSERT_TRUE(service.ok());
    const long long expected =
        static_cast<long long>(fixture.warmup.size()) +
        40 * static_cast<long long>(fixture.batches[0].size());
    EXPECT_EQ((*service)->store().num_records(), expected) << fixture.name;
  }
}

}  // namespace
}  // namespace fairidx
