#include "src/core/sharded.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/util/shard.h"
#include "src/util/thread_pool.h"

namespace dbx {
namespace {

/// One row range's view of the pivot column: for each pivot code, the member
/// row positions inside the range, ascending. `members[c]` indexes code c
/// over the pivot's full discretized cardinality.
struct PartitionSketch {
  std::vector<std::vector<size_t>> members;
};

/// Scans `pivot_codes[range.begin, range.end)` into a sketch. Negative codes
/// (nulls) are skipped.
PartitionSketch ScanPartitionSketch(const std::vector<int32_t>& pivot_codes,
                                    size_t cardinality, ShardRange range) {
  PartitionSketch sketch;
  sketch.members.resize(cardinality);
  size_t end = std::min(range.end, pivot_codes.size());
  for (size_t i = range.begin; i < end; ++i) {
    int32_t c = pivot_codes[i];
    if (c >= 0 && static_cast<size_t>(c) < cardinality) {
      sketch.members[static_cast<size_t>(c)].push_back(i);
    }
  }
  return sketch;
}

/// Folds `from` into `into` (same cardinality) with a per-code sorted merge;
/// for sketches over disjoint ranges the result equals one scan of their
/// union.
void MergePartitionSketch(PartitionSketch* into, PartitionSketch&& from) {
  for (size_t c = 0; c < into->members.size(); ++c) {
    if (from.members[c].empty()) continue;
    if (into->members[c].empty()) {
      into->members[c] = std::move(from.members[c]);
      continue;
    }
    std::vector<size_t> merged;
    merged.reserve(into->members[c].size() + from.members[c].size());
    std::merge(into->members[c].begin(), into->members[c].end(),
               from.members[c].begin(), from.members[c].end(),
               std::back_inserter(merged));
    into->members[c] = std::move(merged);
  }
}

/// The sketch as a PartitionSeed: codes ascending, non-empty members only.
PartitionSeed SeedFromSketch(PartitionSketch&& sketch) {
  PartitionSeed seed;
  for (size_t c = 0; c < sketch.members.size(); ++c) {
    if (!sketch.members[c].empty()) {
      seed.members_by_code.emplace_back(static_cast<int32_t>(c),
                                        std::move(sketch.members[c]));
    }
  }
  return seed;
}

}  // namespace

Result<PartitionSeed> BuildShardedPartitionSeed(const DiscretizedTable& dt,
                                                size_t pivot_attr_index,
                                                const ShardOptions& sharding,
                                                size_t num_threads) {
  if (pivot_attr_index >= dt.num_attrs()) {
    return Status::OutOfRange("pivot attribute index out of range");
  }
  const DiscreteAttr& pivot = dt.attr(pivot_attr_index);
  size_t shards = EffectiveShardCount(dt.num_rows(), sharding.num_shards,
                                      sharding.min_rows_per_shard);
  std::vector<ShardRange> ranges = MakeShardRanges(dt.num_rows(), shards);
  // Each range fills its own slot, then the slots merge in range order. No
  // more workers than ranges: a one-range scan runs inline, off the pool.
  std::vector<PartitionSketch> sketches(ranges.size());
  DBX_RETURN_IF_ERROR(ParallelFor(
      std::min(num_threads, ranges.size()), 0, ranges.size(), 1,
      [&](size_t s) -> Status {
        sketches[s] =
            ScanPartitionSketch(pivot.codes, pivot.cardinality(), ranges[s]);
        return Status::OK();
      }));
  PartitionSketch merged = std::move(sketches[0]);
  for (size_t s = 1; s < sketches.size(); ++s) {
    MergePartitionSketch(&merged, std::move(sketches[s]));
  }
  return SeedFromSketch(std::move(merged));
}

}  // namespace dbx
