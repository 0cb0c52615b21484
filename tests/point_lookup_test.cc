// PointLookupIndex tests: the snapshot must VIEW the partition's cell map
// (no copy — pointer identity pinned), answer point lookups exactly like
// Partition::RegionOfCell over Grid::CellIdOf, and — through
// FairIndexService — return aggregates bit-identical to QueryRegions()
// from the same sealed epoch. The concurrent case (live writers + live
// MaintenanceScheduler) is a ThreadSanitizer target: readers pin one
// snapshot and every answer must be internally consistent with it.

#include "service/point_lookup.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geo/grid_aggregates.h"
#include "index/partition.h"
#include "service/fair_index_service.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

// Left/right half split of a rows x cols grid.
std::vector<CellRect> HalfRects(int rows, int cols) {
  CellRect left;
  left.row_begin = 0;
  left.row_end = rows;
  left.col_begin = 0;
  left.col_end = cols / 2;
  CellRect right = left;
  right.col_begin = cols / 2;
  right.col_end = cols;
  return {left, right};
}

bool SameAggregate(const RegionAggregate& a, const RegionAggregate& b) {
  return a.count == b.count && a.sum_labels == b.sum_labels &&
         a.sum_scores == b.sum_scores && a.sum_residuals == b.sum_residuals &&
         a.sum_cell_abs_miscalibration == b.sum_cell_abs_miscalibration;
}

// The center of every grid cell plus points outside the extent (which
// must clamp to border cells, exactly like Grid::CellIdOf).
std::vector<Point> ProbePoints(const Grid& grid) {
  std::vector<Point> points;
  for (int row = 0; row < grid.rows(); ++row) {
    for (int col = 0; col < grid.cols(); ++col) {
      const BoundingBox b = grid.CellBounds(row, col);
      points.push_back(Point{(b.min_x + b.max_x) / 2, (b.min_y + b.max_y) / 2});
    }
  }
  const BoundingBox extent = grid.CellBounds(0, 0);
  points.push_back(Point{extent.min_x - 100.0, extent.min_y - 100.0});
  points.push_back(Point{extent.min_x - 5.0, extent.max_y + 1e9});
  points.push_back(Point{1e12, -1e12});
  return points;
}

// --- Satellite pin: the partition accessor is a zero-copy view. ---

TEST(PointLookupTest, CellRegionIdsViewsPartitionStorageWithoutCopy) {
  const Grid grid = MakeGrid(4, 6);
  const Partition partition =
      Partition::FromRects(grid, HalfRects(4, 6)).value();

  const Span<const uint32_t> ids = partition.CellRegionIds();
  ASSERT_EQ(ids.size(), partition.cell_to_region().size());
  // Same storage, not a converted copy.
  EXPECT_EQ(static_cast<const void*>(ids.data()),
            static_cast<const void*>(partition.cell_to_region().data()));
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(static_cast<int>(ids[i]), partition.cell_to_region()[i]);
  }
}

TEST(PointLookupTest, BuildViewsThePartitionAndSharesOwnership) {
  const Grid grid = MakeGrid(4, 6);
  auto rects = std::make_shared<const std::vector<CellRect>>(HalfRects(4, 6));
  auto partition = std::make_shared<const Partition>(
      Partition::FromRects(grid, *rects).value());
  std::vector<RegionAggregate> aggregates(2);

  auto built = PointLookupIndex::Build(grid, partition, rects,
                                       std::move(aggregates), 7);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const PointLookupIndex& index = *built;

  EXPECT_EQ(index.epoch(), 7);
  EXPECT_EQ(index.num_regions(), 2);
  // The snapshot shares the partition and rects objects...
  EXPECT_EQ(index.partition().get(), partition.get());
  EXPECT_EQ(index.regions().get(), rects.get());
  // ...and its flat map is a view into the partition's cell map.
  EXPECT_EQ(static_cast<const void*>(index.cell_to_region().data()),
            static_cast<const void*>(partition->cell_to_region().data()));
  EXPECT_EQ(index.cell_to_region().size(),
            static_cast<size_t>(grid.num_cells()));
}

TEST(PointLookupTest, BuildRejectsInconsistentInputs) {
  const Grid grid = MakeGrid(4, 6);
  auto rects = std::make_shared<const std::vector<CellRect>>(HalfRects(4, 6));
  auto partition = std::make_shared<const Partition>(
      Partition::FromRects(grid, *rects).value());

  // Null partition / null rects.
  EXPECT_FALSE(PointLookupIndex::Build(grid, nullptr, rects,
                                       std::vector<RegionAggregate>(2), 0)
                   .ok());
  EXPECT_FALSE(PointLookupIndex::Build(grid, partition, nullptr,
                                       std::vector<RegionAggregate>(2), 0)
                   .ok());
  // Partition built for a different grid.
  const Grid other = MakeGrid(8, 8);
  EXPECT_FALSE(PointLookupIndex::Build(other, partition, rects,
                                       std::vector<RegionAggregate>(2), 0)
                   .ok());
  // One aggregate per region, exactly.
  EXPECT_FALSE(PointLookupIndex::Build(grid, partition, rects,
                                       std::vector<RegionAggregate>(1), 0)
                   .ok());
  EXPECT_FALSE(PointLookupIndex::Build(grid, partition, rects,
                                       std::vector<RegionAggregate>(3), 0)
                   .ok());
  // Non-empty rects must match the region count too.
  auto short_rects = std::make_shared<const std::vector<CellRect>>(
      std::vector<CellRect>{(*rects)[0]});
  EXPECT_FALSE(PointLookupIndex::Build(grid, partition, short_rects,
                                       std::vector<RegionAggregate>(2), 0)
                   .ok());
  // Empty rects are allowed (non-rectangular partitioners).
  auto empty_rects =
      std::make_shared<const std::vector<CellRect>>(std::vector<CellRect>{});
  EXPECT_TRUE(PointLookupIndex::Build(grid, partition, empty_rects,
                                      std::vector<RegionAggregate>(2), 0)
                  .ok());
}

// --- Differential: lookups == partition + sealed aggregates, bit for bit. ---

TEST(PointLookupTest, LookupMatchesPartitionAndAggregates) {
  const Grid grid = MakeGrid(6, 8);
  auto rects =
      std::make_shared<const std::vector<CellRect>>(HalfRects(6, 8));
  auto partition = std::make_shared<const Partition>(
      Partition::FromRects(grid, *rects).value());

  // Real aggregates off a random record set, through the same QueryMany
  // path the service uses.
  Rng rng(11);
  std::vector<int> cell_ids;
  std::vector<int> labels;
  std::vector<double> scores;
  for (int i = 0; i < 500; ++i) {
    cell_ids.push_back(static_cast<int>(rng.NextBounded(grid.num_cells())));
    labels.push_back(rng.Bernoulli(0.4) ? 1 : 0);
    scores.push_back(rng.NextDouble());
  }
  const GridAggregates aggs =
      GridAggregates::Build(grid, cell_ids, labels, scores).value();
  std::vector<RegionAggregate> region_aggs = aggs.QueryMany(*rects);

  const PointLookupIndex index =
      PointLookupIndex::Build(grid, partition, rects, region_aggs, 1).value();

  const std::vector<Point> points = ProbePoints(grid);
  std::vector<PointLookupResult> batched(points.size());
  index.LookupMany(Span<Point>(points), batched.data());
  const std::vector<PointLookupResult> batched_vec =
      index.LookupMany(Span<Point>(points));

  for (size_t i = 0; i < points.size(); ++i) {
    const int cell = grid.CellIdOf(points[i]);
    const uint32_t want_region =
        static_cast<uint32_t>(partition->RegionOfCell(cell));
    EXPECT_EQ(index.RegionOfPoint(points[i]), want_region);

    const PointLookupResult single = index.Lookup(points[i]);
    EXPECT_EQ(single.region, want_region);
    EXPECT_TRUE(SameAggregate(single.aggregate, region_aggs[want_region]));

    // Batched == single, bit for bit, both overloads.
    EXPECT_EQ(batched[i].region, single.region);
    EXPECT_TRUE(SameAggregate(batched[i].aggregate, single.aggregate));
    EXPECT_EQ(batched_vec[i].region, single.region);
    EXPECT_TRUE(SameAggregate(batched_vec[i].aggregate, single.aggregate));
  }
}

// --- Through the service: serial differential at several shard counts. ---

// A stream whose tail drifts into one quadrant so refines re-split.
struct DriftStream {
  AggregateBatch warmup;
  std::vector<AggregateBatch> batches;
};

DriftStream MakeDriftStream(Rng& rng, const Grid& grid, int warmup_n,
                            int num_batches, int batch_n) {
  DriftStream stream;
  for (int i = 0; i < warmup_n; ++i) {
    stream.warmup.Append(static_cast<int>(rng.NextBounded(grid.num_cells())),
                         rng.Bernoulli(0.5) ? 1 : 0, rng.NextDouble());
  }
  for (int b = 0; b < num_batches; ++b) {
    AggregateBatch batch;
    for (int i = 0; i < batch_n; ++i) {
      const int row = static_cast<int>(rng.NextBounded(grid.rows() / 2));
      const int col = static_cast<int>(rng.NextBounded(grid.cols() / 2));
      batch.Append(grid.CellId(row, col), rng.Bernoulli(0.9) ? 1 : 0,
                   rng.NextDouble());
    }
    stream.batches.push_back(std::move(batch));
  }
  return stream;
}

FairIndexServiceOptions ServiceOptions(int height, int shards) {
  FairIndexServiceOptions options;
  options.algorithm = "fair_kd_tree";
  options.build.height = height;
  options.store.num_shards = shards;
  options.store.num_threads = 2;
  options.refine.drift_bound = 0.02;
  return options;
}

// Every published snapshot must agree with the service's own region list
// and QueryRegions() oracle — at every batch, whether the publication came
// from a Seal (aggregates-only refresh) or a MaybeRefine (possible
// partition change), at several shard counts.
TEST(PointLookupServiceTest, SerialLoopMatchesQueryRegionsBitForBit) {
  const Grid grid = MakeGrid(32, 32);
  Rng rng(404);
  const DriftStream stream = MakeDriftStream(rng, grid, 600, 10, 80);
  const std::vector<Point> points = ProbePoints(grid);

  for (int shards : {1, 3}) {
    SCOPED_TRACE(shards);
    auto service =
        FairIndexService::Create(grid, stream.warmup, ServiceOptions(6, shards));
    ASSERT_TRUE(service.ok()) << service.status().ToString();

    long long last_epoch = -1;
    for (size_t b = 0; b < stream.batches.size(); ++b) {
      ASSERT_TRUE((*service)->Ingest(stream.batches[b]).ok());
      if (b % 2 == 0) {
        ASSERT_TRUE((*service)->Seal().ok());
      } else {
        ASSERT_TRUE((*service)->MaybeRefine().ok());
      }

      const auto snap = (*service)->lookup();
      ASSERT_NE(snap, nullptr);
      // Same sealed epoch as the store, and monotone across publications.
      EXPECT_EQ(snap->epoch(), (*service)->store().epoch());
      EXPECT_GE(snap->epoch(), last_epoch);
      last_epoch = snap->epoch();
      // The snapshot's rects ARE the published region list object.
      EXPECT_EQ(snap->regions().get(), (*service)->regions().get());

      // Aggregates bit-identical to the monitoring query.
      const std::vector<RegionAggregate> oracle = (*service)->QueryRegions();
      ASSERT_EQ(oracle.size(), snap->aggregates().size());
      for (size_t r = 0; r < oracle.size(); ++r) {
        EXPECT_TRUE(SameAggregate(oracle[r], snap->aggregates()[r]));
      }

      // Point differential: service lookups == partition + oracle.
      const std::vector<PointLookupResult> got =
          (*service)->LookupMany(Span<Point>(points));
      for (size_t i = 0; i < points.size(); ++i) {
        const uint32_t want = static_cast<uint32_t>(
            snap->partition()->RegionOfCell(grid.CellIdOf(points[i])));
        EXPECT_EQ(got[i].region, want);
        EXPECT_TRUE(SameAggregate(got[i].aggregate, oracle[want]));
        const PointLookupResult single = (*service)->Lookup(points[i]);
        EXPECT_EQ(single.region, want);
        EXPECT_TRUE(SameAggregate(single.aggregate, oracle[want]));
      }
    }
  }
}

// A plain Seal is an aggregates-only refresh: a fresh snapshot object with
// the SAME partition and rects objects (no republication of regions_).
TEST(PointLookupServiceTest, SealRefreshesAggregatesWithoutNewPartition) {
  const Grid grid = MakeGrid(16, 16);
  Rng rng(7);
  const DriftStream stream = MakeDriftStream(rng, grid, 400, 1, 60);

  auto service =
      FairIndexService::Create(grid, stream.warmup, ServiceOptions(4, 2));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const auto before = (*service)->lookup();
  ASSERT_TRUE((*service)->Ingest(stream.batches[0]).ok());
  ASSERT_TRUE((*service)->Seal().ok());
  const auto after = (*service)->lookup();

  EXPECT_NE(after.get(), before.get());
  EXPECT_GT(after->epoch(), before->epoch());
  EXPECT_EQ(after->partition().get(), before->partition().get());
  EXPECT_EQ(after->regions().get(), before->regions().get());
  // The new records changed the aggregates.
  double count_before = 0, count_after = 0;
  for (const RegionAggregate& a : before->aggregates()) count_before += a.count;
  for (const RegionAggregate& a : after->aggregates()) count_after += a.count;
  EXPECT_EQ(count_after - count_before,
            static_cast<double>(stream.batches[0].size()));
}

// The TSan target: writer threads + a live MaintenanceScheduler while
// reader threads pin snapshots and verify every batched answer against the
// SAME snapshot's partition and aggregates. After quiescing, the final
// snapshot must match QueryRegions() bit for bit.
TEST(PointLookupServiceTest, ConcurrentLookupsUnderLiveMaintenance) {
  const Grid grid = MakeGrid(32, 32);
  Rng rng(99);
  const DriftStream stream = MakeDriftStream(rng, grid, 600, 24, 60);
  std::vector<Point> points = ProbePoints(grid);
  points.resize(96);  // Enough coverage without slowing the race window.

  for (int shards : {1, 3}) {
    SCOPED_TRACE(shards);
    FairIndexServiceOptions options = ServiceOptions(6, shards);
    options.auto_maintain = true;
    options.maintain.seal_records = 100;

    auto service = FairIndexService::Create(grid, stream.warmup, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    FairIndexService* svc = service->get();

    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        long long last_epoch = -1;
        std::vector<PointLookupResult> out(points.size());
        while (!done.load(std::memory_order_relaxed)) {
          const auto snap = svc->lookup();
          if (snap == nullptr || snap->epoch() < last_epoch) {
            failed.store(true);
            return;
          }
          last_epoch = snap->epoch();
          // Internal consistency of the pinned snapshot.
          if (snap->num_regions() != snap->partition()->num_regions() ||
              (!snap->regions()->empty() &&
               static_cast<int>(snap->regions()->size()) !=
                   snap->num_regions())) {
            failed.store(true);
            return;
          }
          snap->LookupMany(Span<Point>(points), out.data());
          for (size_t i = 0; i < points.size(); ++i) {
            const uint32_t want = static_cast<uint32_t>(
                snap->partition()->RegionOfCell(grid.CellIdOf(points[i])));
            if (out[i].region != want ||
                !SameAggregate(out[i].aggregate, snap->aggregates()[want])) {
              failed.store(true);
              return;
            }
          }
          // Exercise the service-pinned path under the race too (values
          // checked by the serial differential test).
          (void)svc->Lookup(points[r]);
          (void)svc->LookupMany(Span<Point>(points));
        }
      });
    }

    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        for (size_t b = w; b < stream.batches.size(); b += 2) {
          if (!svc->Ingest(stream.batches[b]).ok()) {
            failed.store(true);
            return;
          }
        }
      });
    }

    for (std::thread& t : writers) t.join();
    done.store(true);
    for (std::thread& t : readers) t.join();
    svc->StopMaintenance();
    EXPECT_FALSE(failed.load());

    // Quiesced differential: one final seal, then the published snapshot
    // must be bit-identical to the monitoring oracle.
    ASSERT_TRUE(svc->Seal().ok());
    const auto snap = svc->lookup();
    EXPECT_EQ(snap->epoch(), svc->store().epoch());
    EXPECT_EQ(snap->regions().get(), svc->regions().get());
    const std::vector<RegionAggregate> oracle = svc->QueryRegions();
    ASSERT_EQ(oracle.size(), snap->aggregates().size());
    for (size_t r = 0; r < oracle.size(); ++r) {
      EXPECT_TRUE(SameAggregate(oracle[r], snap->aggregates()[r]));
    }
    const std::vector<PointLookupResult> got =
        svc->LookupMany(Span<Point>(points));
    for (size_t i = 0; i < points.size(); ++i) {
      const uint32_t want = static_cast<uint32_t>(
          snap->partition()->RegionOfCell(grid.CellIdOf(points[i])));
      EXPECT_EQ(got[i].region, want);
      EXPECT_TRUE(SameAggregate(got[i].aggregate, oracle[want]));
    }
  }
}

}  // namespace
}  // namespace fairidx
