// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The fairidx_cli flag specification: one table naming every flag, the
// subcommands it applies to, its value hint, the scenario key it sets,
// and its one-line help.
// fairidx_cli.cc generates `--help` from this table AND validates
// parsed flags against it (an unknown flag is an error, not a silent
// no-op), so the help text and the accepted-flag set cannot drift
// apart. tests/cli_spec_test.cc pins the table against the README flag
// table the same way serve_scenario_test.cc pins ScenarioKeyNames()
// against docs/scenario_reference.md.
//
// Header-only on purpose: the test includes it relatively
// (#include "../tools/cli_spec.h") without any build wiring.

#ifndef FAIRIDX_TOOLS_CLI_SPEC_H_
#define FAIRIDX_TOOLS_CLI_SPEC_H_

#include <string>
#include <vector>

namespace fairidx {
namespace cli {

struct CliFlagSpec {
  /// Flag name without the leading `--`.
  const char* name;
  /// Space-separated subcommands the flag applies to.
  const char* commands;
  /// Value placeholder for help text; "" marks a boolean flag.
  const char* value;
  /// The scenario key (core/scenario.h) the flag sets in the flag forms
  /// of a scenario (run, sweep, stream); "" when it sets none.
  const char* scenario_key;
  /// One-line help.
  const char* help;
};

/// Every flag fairidx_cli accepts, grouped by theme. Order is the
/// `--help` display order.
inline constexpr CliFlagSpec kCliFlags[] = {
    // Dataset selection (shared by every data-driven subcommand).
    {"city", "generate run sweep disparity export stream", "la|houston",
     "city", "synthetic city to generate (default la)"},
    {"csv", "generate run sweep disparity export stream", "FILE", "csv",
     "EdGap-style CSV extract instead of a synthetic city"},
    // Batch pipeline.
    {"algorithm", "run sweep export stream", "NAME", "algorithm",
     "partition algorithm (fair_kd_tree|median_kd_tree|"
     "iterative_fair_kd_tree|uniform_grid_reweight|fair_quadtree)"},
    {"height", "run export stream", "N", "height",
     "partition tree height (default 6)"},
    {"classifier", "run sweep", "lr|tree|nb", "classifier",
     "classifier trained per region (default lr)"},
    {"task", "run sweep", "K", "task", "label column index (default 0)"},
    {"threads", "run sweep export stream", "N", "threads",
     "parallel partition-build / store threads (default 1)"},
    {"out", "generate export", "FILE", "", "output path"},
    {"wkt", "export", "FILE", "", "also write region polygons as WKT"},
    {"top", "disparity", "K", "", "zip codes per table side (default 10)"},
    // Streaming / serving.
    {"seed", "stream", "SEED", "seed",
     "train/test split seed (default 20240601)"},
    {"batch", "stream", "N", "stream_batch",
     "records per ingest batch (default 200)"},
    {"warmup-pct", "stream", "P", "stream_warmup_pct",
     "warmup prefix percent that builds the initial partition (default 50)"},
    {"shards", "stream", "N", "stream_shards",
     "delta-store ingest shards (default 1)"},
    {"seal-records", "stream", "N", "stream_seal_records",
     "records pending before an epoch seal (0 = seal every batch)"},
    {"refine-bound", "stream", "B", "drift_bound",
     "incremental subtree re-splits when region drift exceeds B"},
    {"auto-maintain", "stream", "", "",
     "background maintenance thread seals/refines instead of the loop"},
    {"seal-interval", "stream", "S", "seal_interval",
     "auto-maintain wall-clock seal cadence in seconds"},
    // Durability.
    {"wal", "stream", "DIR", "wal_dir",
     "durable mode: WAL + checkpoints under DIR/<algorithm>-h<height>-"
     "s<seed>; a rerun recovers and resumes what is there"},
    {"tenant", "stream", "NAME", "",
     "tenant namespace: log and checkpoint under DIR/NAME/<algorithm>-"
     "h<height>-s<seed> (wal_dir = DIR/NAME; see docs/operations.md)"},
    {"checkpoint-interval", "stream", "N", "checkpoint_interval",
     "checkpoint every N sealed epochs (default 8)"},
    {"full-snapshot-interval", "stream", "N", "full_snapshot_interval",
     "every Nth checkpoint is a base, the rest O(changed) links "
     "(1 = all bases)"},
    {"fsync", "stream", "none|batch|always", "fsync",
     "stable-storage window for WAL appends (default batch)"},
    {"retain-epochs", "stream", "K", "retain_epochs",
     "bound the sealed-snapshot history to K epochs (0 = newest only)"},
    {"regions-out", "stream", "FILE", "",
     "write final region aggregates with full precision for exact diffing"},
    {"crash-after-batches", "stream", "N", "",
     "testing: raise SIGKILL after the Nth accepted batch, before its "
     "seal (rerun with the same --wal to recover)"},
    {"help", "generate run sweep disparity export stream check", "", "",
     "print usage and exit"},
};

/// True when `flag` (no leading --) is accepted by `command`.
inline bool CliCommandHasFlag(const std::string& command,
                              const std::string& flag) {
  for (const CliFlagSpec& spec : kCliFlags) {
    if (flag != spec.name) continue;
    const std::string commands = " " + std::string(spec.commands) + " ";
    if (commands.find(" " + command + " ") != std::string::npos) return true;
  }
  return false;
}

/// The accepted flag names for one subcommand, in table order.
inline std::vector<std::string> CliFlagNamesFor(const std::string& command) {
  std::vector<std::string> names;
  for (const CliFlagSpec& spec : kCliFlags) {
    if (CliCommandHasFlag(command, spec.name)) names.push_back(spec.name);
  }
  return names;
}

/// The full `--help` text, generated from kCliFlags so it can never
/// miss a flag the parser accepts (tests/cli_spec_test.cc pins this).
inline std::string CliHelpText() {
  std::string text =
      "usage: fairidx_cli "
      "<generate|run|sweep|disparity|export|stream|check> [flags]\n"
      "       fairidx_cli run <scenario.cfg>    declarative sweep "
      "(workload = pipeline|stream|serve|multi_tenant; see\n"
      "                docs/scenario_reference.md and "
      "examples/scenarios/)\n"
      "       fairidx_cli check <scenario.cfg>  parse + validate a "
      "scenario file without running it\n"
      "\n"
      "flags (each line: --flag VALUE   [subcommands]   what it does):\n";
  for (const CliFlagSpec& spec : kCliFlags) {
    text += "  --" + std::string(spec.name);
    if (spec.value[0] != '\0') text += " " + std::string(spec.value);
    text += "\n      [" + std::string(spec.commands) + "] " +
            std::string(spec.help) + "\n";
  }
  text +=
      "\nsee the fairidx_cli.cc file header and README.md for the full "
      "reference\n";
  return text;
}

}  // namespace cli
}  // namespace fairidx

#endif  // FAIRIDX_TOOLS_CLI_SPEC_H_
