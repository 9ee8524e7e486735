#pragma once

#include <string>

#include "support/json.h"
#include "tune/table.h"

/// \file tables.h
/// Pinned tuned tables: the benchmark serves from tables trained once and
/// committed as data (tables/<family>_L<level>.json), never from the
/// config cache, because the trainer picks cells by timing and a fresh
/// training would turn training noise into latency noise.
///
/// File layout:
///   {"family": "poisson", "level": 10, "train_threads": 4,
///    "training_seed": 20091114, "commit": "<git sha>",
///    "host": {...probe_host()...}, "config": {...TunedConfig::to_json...}}

namespace perfbench {

struct PinnedTable {
  pbmg::tune::TunedConfig config;
  pbmg::Json provenance;  ///< every field of the file except "config"
};

/// Path of a family's table under `dir`.
std::string table_path(const std::string& dir, const std::string& family,
                       int level);

/// Reads and validates a pinned table (throws pbmg::Error subclasses or
/// std::runtime_error on a missing file or a family/level mismatch).
PinnedTable load_pinned_table(const std::string& dir,
                              const std::string& family, int level);

}  // namespace perfbench
