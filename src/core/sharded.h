// Copyright (c) DBExplorer reproduction authors.
// Pivot partitioning for CAD View builds (DESIGN.md §13). Every build without
// a caller-given PartitionSeed gets its seed here: the table's rows are split
// into contiguous ranges, each range is scanned into per-pivot-code member
// lists, and the lists merge into the exact seed a single-pass scan would
// produce. One range is the unsharded build, so the finished view's bytes are
// independent of the shard count, exactly as they are of the thread count.

#pragma once

#include <cstddef>

#include "src/core/cad_view_builder.h"
#include "src/stats/discretizer.h"
#include "src/util/result.h"

namespace dbx {

/// Scans the pivot column of `dt` over EffectiveShardCount(sharding) row
/// ranges (one task per range on the shared pool) and merges the per-range
/// member lists in range order: codes ascending, non-empty members only, each
/// list ascending. The result is identical for any shard or thread count.
[[nodiscard]] Result<PartitionSeed> BuildShardedPartitionSeed(
    const DiscretizedTable& dt, size_t pivot_attr_index,
    const ShardOptions& sharding, size_t num_threads);

}  // namespace dbx
