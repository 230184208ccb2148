#include "src/stats/feature_selection.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/obs/metrics.h"
#include "src/stats/contingency.h"
#include "src/util/shard.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace dbx {

const char* FeatureRankerName(FeatureRanker r) {
  switch (r) {
    case FeatureRanker::kChiSquare: return "chi-square";
    case FeatureRanker::kMutualInformation: return "mutual-information";
    case FeatureRanker::kCramersV: return "cramers-v";
  }
  return "?";
}

Result<std::vector<FeatureScore>> RankFeatures(
    const DiscretizedTable& dt, const std::vector<int32_t>& pivot_codes,
    size_t pivot_cardinality, const std::vector<size_t>& candidates,
    const FeatureSelectionOptions& options) {
  if (pivot_codes.size() != dt.num_rows()) {
    return Status::InvalidArgument("pivot coding length != table rows");
  }
  if (pivot_cardinality < 1) {
    return Status::InvalidArgument("pivot cardinality must be >= 1");
  }
  size_t shards = EffectiveShardCount(
      dt.num_rows(), std::max<size_t>(1, options.num_shards), 1);
  ScopedSpan span(options.tracer, "chi_square", options.trace_parent);
  span.AddArg("ranker", FeatureRankerName(options.ranker));
  span.AddArg("candidates", static_cast<uint64_t>(candidates.size()));
  span.AddArg("rows", static_cast<uint64_t>(dt.num_rows()));
  span.AddArg("shards", static_cast<uint64_t>(shards));
  Stopwatch timer;
  for (size_t idx : candidates) {
    if (idx >= dt.num_attrs()) {
      return Status::OutOfRange("candidate attribute index out of range");
    }
  }
  // Sharded counting (DESIGN.md §13): one task per (candidate, shard) pair
  // fills its own slot; each candidate's shard tables then merge in shard
  // order. Count addition is exact, so the merged table — and every score
  // derived from it — equals a single pass for any shard count, one shard
  // being the single-range case.
  std::vector<ShardRange> ranges = MakeShardRanges(dt.num_rows(), shards);
  std::vector<std::unique_ptr<ContingencyTable>> cells(candidates.size() *
                                                       shards);
  DBX_RETURN_IF_ERROR(ParallelFor(
      options.num_threads, 0, cells.size(), 1, [&](size_t t) -> Status {
        size_t c = t / shards;
        size_t s = t % shards;
        const DiscreteAttr& a = dt.attr(candidates[c]);
        cells[t] = std::make_unique<ContingencyTable>(
            ContingencyTable::FromCodesRange(
                pivot_codes, pivot_cardinality, a.codes, a.cardinality(),
                ranges[s].begin, ranges[s].end));
        return Status::OK();
      }));
  // Scores in candidate order; the sort afterwards makes the ranking
  // independent of execution order.
  std::vector<FeatureScore> scores;
  scores.reserve(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    ContingencyTable ct = std::move(*cells[c * shards]);
    for (size_t s = 1; s < shards; ++s) {
      DBX_RETURN_IF_ERROR(ct.MergeFrom(*cells[c * shards + s]));
    }
    ChiSquareResult chi = ChiSquareTest(ct);
    FeatureScore fs;
    fs.attr_index = candidates[c];
    fs.name = dt.attr(candidates[c]).name;
    fs.chi2 = chi.statistic;
    fs.df = chi.df;
    fs.p_value = chi.p_value;
    fs.significant = chi.p_value <= options.significance && chi.df > 0;
    switch (options.ranker) {
      case FeatureRanker::kChiSquare:
        fs.score = chi.statistic;
        break;
      case FeatureRanker::kMutualInformation:
        fs.score = MutualInformationBits(ct);
        break;
      case FeatureRanker::kCramersV:
        fs.score = CramersV(ct);
        break;
    }
    scores.push_back(std::move(fs));
  }
  std::stable_sort(scores.begin(), scores.end(),
                   [](const FeatureScore& a, const FeatureScore& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.attr_index < b.attr_index;
                   });
  MetricsRegistry* reg = MetricsRegistry::Global();
  reg->GetCounter("dbx_stats_rank_features_total")->Increment();
  reg->GetCounter("dbx_stats_candidates_ranked_total")
      ->Increment(candidates.size());
  reg->GetHistogram("dbx_stats_rank_features_ms")
      ->ObserveNs(timer.ElapsedNanos());
  return scores;
}

}  // namespace dbx
