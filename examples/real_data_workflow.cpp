// Scenario: the full production workflow on "real" data.
//
//   1. ingest an EdGap-style CSV (here: a synthetic city exported to CSV,
//      standing in for the analyst's real extract);
//   2. sweep tree heights with RunPipeline and keep the finest one whose
//      train ENCE stays within a budget;
//   3. keep that height's fair index and report its held-out quality;
//   4. persist the published district map (CSV + WKT) and look a point
//      up in the reloaded map.

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "core/experiment_config.h"
#include "core/pipeline.h"
#include "data/csv_dataset.h"
#include "data/edgap_synthetic.h"
#include "index/partition_io.h"

using namespace fairidx;

int main() {
  // --- 1. Ingest. ---------------------------------------------------
  // Export a synthetic city to CSV, then load it through the same code
  // path a real EdGap extract would use.
  auto source = GenerateEdgapCity(HoustonConfig());
  if (!source.ok()) return 1;
  const std::string csv = DatasetToCsv(*source);
  // The exporter writes labels; the loader expects raw indicator columns,
  // so for this demo we rebuild the CSV with indicators. A real extract
  // ships act_score / employment_hardship_pct directly.
  std::string ingest_csv =
      "x,y,unemployment_pct,college_degree_pct,marriage_pct,"
      "median_income_k,reduced_lunch_pct,act_score,"
      "employment_hardship_pct,zip\n";
  for (size_t i = 0; i < source->num_records(); ++i) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%.6f,%.6f,%.3f,%.3f,%.3f,%.3f,%.3f,%.1f,%.1f,%d\n",
                  source->locations()[i].x, source->locations()[i].y,
                  source->features()(i, 0), source->features()(i, 1),
                  source->features()(i, 2), source->features()(i, 3),
                  source->features()(i, 4),
                  // Indicator columns consistent with the stored labels.
                  source->labels(kEdgapTaskAct)[i] == 1 ? 25.0 : 18.0,
                  source->labels(kEdgapTaskEmployment)[i] == 1 ? 15.0 : 5.0,
                  source->zip_codes()[i]);
    ingest_csv += line;
  }
  auto dataset = LoadEdgapCsv(ingest_csv, CsvDatasetOptions{});
  if (!dataset.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested %zu records from CSV (%d tasks, zips: %s)\n",
              dataset->num_records(), dataset->num_tasks(),
              dataset->has_zip_codes() ? "yes" : "no");

  // --- 2. Pick the finest height within an ENCE budget. -------------
  // Each height is one RunPipeline; the last one within budget wins (ENCE
  // falls with height in expectation, not monotonically).
  auto model = MakeClassifier(ClassifierKind::kLogisticRegression);
  const double ence_budget = 0.05;
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kFairKdTree;
  std::optional<PipelineRunResult> run;
  std::printf("\nheight sweep (budget: train ENCE <= %.2f):\n", ence_budget);
  for (int height = 0; height <= 8; ++height) {
    PipelineOptions point = options;
    point.height = height;
    auto result = RunPipeline(*dataset, *model, point);
    if (!result.ok()) return 1;
    const EvaluationResult& eval = result->final_model.eval;
    const bool within = eval.train_ence <= ence_budget;
    std::printf("  h=%d regions=%3d train_ence=%.4f test_acc=%.3f%s\n",
                height, eval.num_neighborhoods, eval.train_ence,
                eval.test_accuracy, within ? "  within budget" : "");
    // Height 0 is the fallback when no height meets the budget.
    if (within || height == 0) {
      options.height = height;
      run = std::move(*result);
    }
  }

  // --- 3. The fair index at the selected height. ---------------------
  const EvaluationResult& eval = run->final_model.eval;
  std::printf(
      "\nfair index at height %d: train ENCE %.4f, test ENCE %.4f, "
      "test accuracy %.3f\n",
      options.height, eval.train_ence, eval.test_ence, eval.test_accuracy);

  // --- 4. Persist and query the published district map. -------------
  const std::string partition_path = "/tmp/fairidx_districts.csv";
  if (!SavePartitionCsv(partition_path, dataset->grid(),
                        run->partition.partition)
           .ok()) {
    return 1;
  }
  auto reloaded = LoadPartitionCsv(partition_path, dataset->grid());
  if (!reloaded.ok()) return 1;

  const Point city_center{dataset->grid().extent().width() / 2.0,
                          dataset->grid().extent().height() / 2.0};
  const int center_region =
      reloaded->RegionOfCell(dataset->grid().CellIdOf(city_center));
  std::printf(
      "\npublished %d districts to %s; city center falls in district %d\n",
      reloaded->num_regions(), partition_path.c_str(), center_region);

  const std::string wkt =
      PartitionRectsToWkt(dataset->grid(), run->partition.regions);
  std::printf("WKT export: %zu polygons (load into QGIS/PostGIS)\n",
              static_cast<size_t>(run->partition.regions.size()));
  std::printf("first polygon: %s", wkt.substr(0, wkt.find('\n') + 1).c_str());
  return 0;
}
