// FairIndexService tests: the serving façade must reproduce the
// hand-wired loop (GridAggregates::Build over the accepted records +
// KdTreeMaintainer) exactly — pinned here at SEVERAL shard counts since
// sealed epochs are shard-count-invariant — and must survive concurrent
// ingest + query + maintenance (the refine-during-ingest stress test, a
// ThreadSanitizer target).

#include "service/fair_index_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fairness/region_metrics.h"
#include "index/kd_tree_maintainer.h"
#include "index/partition.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

// Appends every record of `batch` to `accepted`.
void AppendRecords(const AggregateBatch& batch, AggregateBatch* accepted) {
  for (size_t i = 0; i < batch.size(); ++i) {
    accepted->Append(batch.cell_ids[i], batch.labels[i], batch.scores[i]);
  }
}

// A stream whose tail drifts: the second half's labels are biased high in
// the top-left quadrant, so refine passes have real subtrees to re-split.
struct DriftStream {
  AggregateBatch warmup;
  std::vector<AggregateBatch> batches;
};

DriftStream MakeDriftStream(Rng& rng, const Grid& grid, int warmup_n,
                            int num_batches, int batch_n) {
  DriftStream stream;
  for (int i = 0; i < warmup_n; ++i) {
    stream.warmup.Append(
        static_cast<int>(rng.NextBounded(grid.num_cells())),
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

FairIndexServiceOptions ServiceOptions(const std::string& algorithm,
                                       int height, int shards) {
  FairIndexServiceOptions options;
  options.algorithm = algorithm;
  options.build.height = height;
  options.store.num_shards = shards;
  options.store.num_threads = 2;
  options.refine.drift_bound = 0.05;
  return options;
}

TEST(FairIndexServiceTest, RejectsUnknownAndNonRefinableAlgorithms) {
  const Grid grid = MakeGrid(8, 8);
  Rng rng(3);
  DriftStream stream = MakeDriftStream(rng, grid, 50, 0, 0);
  EXPECT_FALSE(FairIndexService::Create(
                   grid, stream.warmup,
                   ServiceOptions("no_such_algorithm", 4, 1))
                   .ok());
  // Registered but not supports_refine: a serving build must refuse it
  // rather than silently dropping maintenance.
  EXPECT_FALSE(FairIndexService::Create(
                   grid, stream.warmup,
                   ServiceOptions("grid_reweighting", 4, 1))
                   .ok());
}

// The no-fork pin: a service driven by one thread — ingest batch, then
// MaybeRefine — must match the hand-wired loop (GridAggregates::Build over
// every accepted record after each batch, Refine on that prefix) region
// for region and bit for bit, at every batch, at any shard count.
TEST(FairIndexServiceTest, MatchesHandWiredSingleWriterLoop) {
  const Grid grid = MakeGrid(32, 32);
  Rng rng(2025);
  const DriftStream stream = MakeDriftStream(rng, grid, 600, 12, 80);
  const int height = 6;
  KdRefineOptions refine_options;
  refine_options.drift_bound = 0.05;

  for (const char* algorithm : {"fair_kd_tree", "median_kd_tree"}) {
    SCOPED_TRACE(algorithm);
    // Hand-wired oracle.
    const GridAggregates warm_aggregates =
        GridAggregates::Build(grid, stream.warmup.cell_ids,
                              stream.warmup.labels, stream.warmup.scores)
            .value();
    KdTreeOptions tree_options;
    tree_options.height = height;
    if (std::string(algorithm) == "median_kd_tree") {
      tree_options.objective.kind = SplitObjectiveKind::kMedianCount;
    }
    KdTreeMaintainer maintainer =
        KdTreeMaintainer::Build(grid, warm_aggregates, tree_options)
            .value();

    for (int shards : {1, 3}) {
      SCOPED_TRACE(shards);
      auto service = FairIndexService::Create(
          grid, stream.warmup, ServiceOptions(algorithm, height, shards));
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      // Identical initial partitions.
      EXPECT_EQ(*(*service)->regions(),
                maintainer.tree().result.regions);

      // Fresh oracle per shard count: maintenance state is replayed from
      // the warmup tree so both shard counts check the full loop.
      KdTreeMaintainer oracle = maintainer;  // Copy: fresh warmup tree.
      AggregateBatch accepted = stream.warmup;
      for (const AggregateBatch& batch : stream.batches) {
        ASSERT_TRUE((*service)->Ingest(batch).ok());
        auto refined = (*service)->MaybeRefine(refine_options);
        ASSERT_TRUE(refined.ok()) << refined.status().ToString();

        AppendRecords(batch, &accepted);
        const GridAggregates oracle_aggregates =
            GridAggregates::Build(grid, accepted.cell_ids, accepted.labels,
                                  accepted.scores)
                .value();
        auto stats = oracle.Refine(oracle_aggregates, refine_options);
        ASSERT_TRUE(stats.ok());

        EXPECT_EQ(refined->stats.subtrees_rebuilt,
                  stats->subtrees_rebuilt);
        EXPECT_EQ(refined->stats.changed, stats->changed);
        ASSERT_EQ(*(*service)->regions(), oracle.tree().result.regions);
        // Region aggregates off the sealed epoch are bit-identical to
        // the oracle's Build.
        const std::vector<RegionAggregate> service_aggs =
            (*service)->QueryRegions();
        const std::vector<RegionAggregate> oracle_aggs =
            oracle_aggregates.QueryMany(oracle.tree().result.regions);
        ASSERT_EQ(service_aggs.size(), oracle_aggs.size());
        for (size_t i = 0; i < service_aggs.size(); ++i) {
          EXPECT_EQ(service_aggs[i].count, oracle_aggs[i].count);
          EXPECT_EQ(service_aggs[i].sum_labels, oracle_aggs[i].sum_labels);
          EXPECT_EQ(service_aggs[i].sum_scores, oracle_aggs[i].sum_scores);
          EXPECT_EQ(service_aggs[i].sum_residuals,
                    oracle_aggs[i].sum_residuals);
          EXPECT_EQ(service_aggs[i].sum_cell_abs_miscalibration,
                    oracle_aggs[i].sum_cell_abs_miscalibration);
        }
      }
      EXPECT_GT((*service)->total_resplits(), 0);
    }
  }
}

// A refine loop that never sets retention holds the newest sealed epoch
// only, plus whatever a reader pins: the pinned snapshot stays in the
// history and keeps its bits while dozens of seals recycle around it.
TEST(FairIndexServiceTest, RefineLoopWithoutRetentionKeepsNewestEpoch) {
  const Grid grid = MakeGrid(32, 32);
  Rng rng(31);
  const DriftStream stream = MakeDriftStream(rng, grid, 400, 30, 60);
  auto service = FairIndexService::Create(
      grid, stream.warmup, ServiceOptions("fair_kd_tree", 6, 2));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->store().history_size(), 1);

  // Every prefix rectangle, so equal corners mean equal snapshots.
  const auto corners = [&](const GridAggregates& snapshot) {
    std::vector<RegionAggregate> out;
    for (int r = 0; r <= grid.rows(); ++r) {
      for (int c = 0; c <= grid.cols(); ++c) {
        out.push_back(snapshot.Query(CellRect{0, r, 0, c}));
      }
    }
    return out;
  };
  std::shared_ptr<const GridAggregates> pinned;
  std::vector<RegionAggregate> pinned_corners;
  for (int round = 1; round <= 30; ++round) {
    SCOPED_TRACE(round);
    ASSERT_TRUE((*service)->Ingest(stream.batches[round - 1]).ok());
    ASSERT_TRUE((*service)->MaybeRefine().ok());
    EXPECT_EQ((*service)->store().history_size(), pinned ? 2 : 1);
    if (round == 3) {
      pinned = (*service)->store().snapshot();
      pinned_corners = corners(*pinned);
    }
    if (round == 25) {
      const std::vector<RegionAggregate> now = corners(*pinned);
      ASSERT_EQ(now.size(), pinned_corners.size());
      EXPECT_EQ(std::memcmp(now.data(), pinned_corners.data(),
                            now.size() * sizeof(RegionAggregate)),
                0);
      pinned.reset();
    }
  }
  EXPECT_EQ((*service)->store().history_size(), 1);
  EXPECT_EQ((*service)->store().epoch(), 30);
}

// Maintenance concurrent with ingest and queries: MaybeRefine keys off
// the epoch it seals while writers keep appending and readers keep
// serving the previously published partition. After quiescence the
// published regions must still form a complete disjoint partition and
// the final sealed state must account for every ingested record.
TEST(FairIndexServiceTest, RefineDuringConcurrentIngestStaysConsistent) {
  const Grid grid = MakeGrid(24, 24);
  Rng rng(99);
  const DriftStream stream = MakeDriftStream(rng, grid, 400, 0, 0);
  auto service = FairIndexService::Create(
      grid, stream.warmup, ServiceOptions("fair_kd_tree", 5, 4));
  ASSERT_TRUE(service.ok());

  constexpr int kWriters = 3;
  constexpr int kBatchesPerWriter = 40;
  std::vector<std::vector<AggregateBatch>> per_writer(kWriters);
  long long streamed = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 0; b < kBatchesPerWriter; ++b) {
      AggregateBatch batch;
      for (int i = 0; i < 30; ++i) {
        batch.Append(grid.CellId(
                         static_cast<int>(rng.NextBounded(grid.rows() / 2)),
                         static_cast<int>(rng.NextBounded(grid.cols() / 2))),
                     rng.Bernoulli(0.9) ? 1 : 0, rng.NextDouble());
      }
      streamed += static_cast<long long>(batch.size());
      per_writer[w].push_back(std::move(batch));
    }
  }

  std::atomic<int> writers_done{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (const AggregateBatch& batch : per_writer[w]) {
        if (!(*service)->Ingest(batch).ok()) {
          failed.store(true);
          break;
        }
      }
      writers_done.fetch_add(1);
    });
  }
  // The maintenance thread: seal + drift-bounded refine in a loop.
  threads.emplace_back([&] {
    KdRefineOptions options;
    options.drift_bound = 0.02;
    while (writers_done.load() < kWriters) {
      if (!(*service)->MaybeRefine(options).ok()) failed.store(true);
      std::this_thread::yield();
    }
  });
  // Readers: published regions + sealed snapshots must always pair into
  // a coherent monitoring answer (region counts can never exceed the
  // snapshot total).
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (writers_done.load() < kWriters) {
        const std::vector<RegionAggregate> aggs =
            (*service)->QueryRegions();
        const double total = (*service)->store().snapshot()->Total().count;
        double sum = 0.0;
        for (const RegionAggregate& agg : aggs) sum += agg.count;
        if (sum > total + 0.5) failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  // Quiesce: one final seal + refine, then audit.
  ASSERT_TRUE((*service)->Seal().ok());
  ASSERT_TRUE((*service)->MaybeRefine().ok());
  const std::shared_ptr<const std::vector<CellRect>> regions =
      (*service)->regions();
  EXPECT_TRUE(Partition::FromRects(grid, *regions).ok());
  const std::vector<RegionAggregate> final_aggs =
      (*service)->QueryRegions();
  double total = 0.0;
  for (const RegionAggregate& agg : final_aggs) total += agg.count;
  EXPECT_EQ(static_cast<long long>(total),
            static_cast<long long>(stream.warmup.size()) + streamed);
  EXPECT_EQ((*service)->store().num_records(),
            (*service)->store().sealed_records());
}

}  // namespace
}  // namespace fairidx
