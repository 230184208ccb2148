#include "src/core/cad_view_builder.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/cluster_metrics.h"
#include "src/cluster/coreset.h"
#include "src/cluster/kmeans.h"
#include "src/obs/metrics.h"
#include "src/core/iunit_similarity.h"
#include "src/core/sharded.h"
#include "src/stats/sampling.h"
#include "src/util/shard.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace dbx {
namespace {

// The view's rows: the selected pivot value codes in view order.
struct PivotPlan {
  std::vector<int32_t> value_codes;       // selected pivot codes, view order
  std::vector<std::string> value_labels;  // parallel
};

// Plans the rows from the partition membership in `seed`. Explicit
// `pivot_values` resolve against the pivot's full-domain labels; without
// them every code with members is a row, most frequent first, then by code.
Result<PivotPlan> PlanPivotFromSeed(const DiscreteAttr& pivot,
                                    const CadViewOptions& options,
                                    const PartitionSeed& seed) {
  PivotPlan plan;
  if (options.pivot_values.empty()) {
    std::vector<std::pair<int32_t, size_t>> counts;
    for (const auto& [code, members] : seed.members_by_code) {
      if (code >= 0 && !members.empty() &&
          static_cast<size_t>(code) < pivot.cardinality()) {
        counts.emplace_back(code, members.size());
      }
    }
    std::stable_sort(counts.begin(), counts.end(),
                     [](const auto& a, const auto& b) {
                       if (a.second != b.second) return a.second > b.second;
                       return a.first < b.first;
                     });
    for (const auto& [code, n] : counts) {
      plan.value_codes.push_back(code);
      plan.value_labels.push_back(pivot.labels[code]);
    }
  } else {
    for (const std::string& v : options.pivot_values) {
      int32_t code = -1;
      for (size_t c = 0; c < pivot.labels.size(); ++c) {
        if (pivot.labels[c] == v) {
          code = static_cast<int32_t>(c);
          break;
        }
      }
      // Values absent from the domain still get a (possibly empty) row;
      // encode them with -2 so partitioning yields zero members.
      plan.value_codes.push_back(code >= 0 ? code : -2);
      plan.value_labels.push_back(v);
    }
  }
  if (plan.value_codes.empty()) {
    return Status::InvalidArgument("pivot attribute '" + options.pivot_attr +
                                   "' has no values in the fragment");
  }
  return plan;
}

}  // namespace

Result<CadView> BuildCadView(const TableSlice& slice,
                             const CadViewOptions& options) {
  Stopwatch total;
  Stopwatch sw;
  ScopedSpan discretize_span(options.tracer, "discretize",
                             options.trace_parent);
  auto dt = DiscretizedTable::Build(slice, options.discretizer);
  if (!dt.ok()) return dt.status();
  discretize_span.AddArg("rows", static_cast<uint64_t>(dt->num_rows()));
  discretize_span.AddArg("attrs", static_cast<uint64_t>(dt->num_attrs()));
  discretize_span.End();
  double discretize_ms = sw.ElapsedMillis();

  auto view = BuildCadViewFromDiscretized(*dt, options);
  if (!view.ok()) return view.status();
  view->timings.discretize_ms = discretize_ms;
  view->timings.total_ms = total.ElapsedMillis();
  return view;
}

Result<CadView> BuildCadViewFromDiscretized(const DiscretizedTable& dt,
                                            const CadViewOptions& options,
                                            const PartitionSeed* seed,
                                            CadViewBuildExtras* extras) {
  Stopwatch total;
  if (options.iunits_per_value == 0) {
    return Status::InvalidArgument("iunits_per_value must be >= 1");
  }
  if (options.max_compare_attrs == 0) {
    return Status::InvalidArgument("max_compare_attrs must be >= 1");
  }

  auto pivot_idx = dt.IndexOf(options.pivot_attr);
  if (!pivot_idx) {
    return Status::NotFound("pivot attribute '" + options.pivot_attr +
                            "' not in table");
  }
  const DiscreteAttr& pivot = dt.attr(*pivot_idx);
  const size_t effective_shards = EffectiveShardCount(
      dt.num_rows(), options.sharding.num_shards,
      options.sharding.min_rows_per_shard);

  // Partition rows by selected pivot value (DESIGN.md §13). A caller-given
  // seed means partition membership is already known; otherwise the pivot
  // column is scanned into one, over `effective_shards` row ranges. Either
  // way each partition lists its members in ascending row-position order.
  ScopedSpan partition_span(options.tracer, "partition", options.trace_parent);
  PartitionSeed scanned;
  if (seed == nullptr) {
    partition_span.AddArg("shards", static_cast<uint64_t>(effective_shards));
    DBX_ASSIGN_OR_RETURN(
        scanned, BuildShardedPartitionSeed(dt, *pivot_idx, options.sharding,
                                           options.num_threads));
  }
  const PartitionSeed& members = seed != nullptr ? *seed : scanned;
  DBX_ASSIGN_OR_RETURN(PivotPlan plan,
                       PlanPivotFromSeed(pivot, options, members));
  if (pivot.original_type != AttrType::kCategorical &&
      pivot.cardinality() > 64) {
    return Status::InvalidArgument(
        "pivot attribute '" + options.pivot_attr +
        "' has too many values; discretize it or choose another pivot");
  }

  // A code repeated in plan.value_codes feeds only its last occurrence;
  // earlier duplicates stay empty.
  std::vector<size_t> last_view_of_code;
  for (size_t v = 0; v < plan.value_codes.size(); ++v) {
    int32_t code = plan.value_codes[v];
    if (code < 0) continue;
    if (static_cast<size_t>(code) >= last_view_of_code.size()) {
      last_view_of_code.resize(static_cast<size_t>(code) + 1,
                               plan.value_codes.size());
    }
    last_view_of_code[static_cast<size_t>(code)] = v;
  }
  std::vector<std::vector<size_t>> partitions(plan.value_codes.size());
  for (size_t p = 0; p < members.members_by_code.size(); ++p) {
    const int32_t code = members.members_by_code[p].first;
    if (code < 0 || static_cast<size_t>(code) >= last_view_of_code.size()) {
      continue;
    }
    const size_t v = last_view_of_code[static_cast<size_t>(code)];
    if (v >= partitions.size()) continue;
    if (seed != nullptr) {
      partitions[v] = seed->members_by_code[p].second;
    } else {
      partitions[v] = std::move(scanned.members_by_code[p].second);
    }
  }

  // Class coding for feature selection: row -> index into plan.value_codes,
  // -1 for rows whose pivot value is not selected.
  std::vector<int32_t> cls(pivot.codes.size(), -1);
  for (size_t v = 0; v < partitions.size(); ++v) {
    for (size_t i : partitions[v]) cls[i] = static_cast<int32_t>(v);
  }

  partition_span.AddArg("partitions", static_cast<uint64_t>(partitions.size()));
  partition_span.AddArg("rows", static_cast<uint64_t>(pivot.codes.size()));
  partition_span.AddArg("seeded", seed != nullptr ? "yes" : "no");
  partition_span.End();

  CadView view;
  view.pivot_attr = options.pivot_attr;

  // --- Compare-Attribute selection (Problem 1.1) ---------------------------
  Stopwatch sw;
  FeatureSelectionOptions fs_options = options.feature_selection;
  fs_options.num_threads = options.num_threads;
  fs_options.num_shards = effective_shards;
  fs_options.tracer = options.tracer;
  fs_options.trace_parent = options.trace_parent;

  // User-selected attributes come first, in the order given.
  std::vector<size_t> chosen_attrs;
  for (const std::string& name : options.user_compare_attrs) {
    auto idx = dt.IndexOf(name);
    if (!idx) {
      return Status::NotFound("compare attribute '" + name + "' not in table");
    }
    if (*idx == *pivot_idx) {
      return Status::InvalidArgument(
          "pivot attribute cannot also be a compare attribute");
    }
    if (std::find(chosen_attrs.begin(), chosen_attrs.end(), *idx) !=
        chosen_attrs.end()) {
      return Status::InvalidArgument("duplicate compare attribute '" + name +
                                     "'");
    }
    chosen_attrs.push_back(*idx);
    CompareAttribute ca;
    ca.attr_index = *idx;
    ca.name = name;
    ca.user_selected = true;
    view.compare_attrs.push_back(std::move(ca));
  }
  if (chosen_attrs.size() > options.max_compare_attrs) {
    return Status::InvalidArgument(
        "more user compare attributes than LIMIT COLUMNS");
  }

  // Appends ranked candidates as compare attributes, up to the limit.
  auto append_ranked = [&](const std::vector<FeatureScore>& ranked,
                           bool significant_only) {
    for (const FeatureScore& fs : ranked) {
      if (view.compare_attrs.size() >= options.max_compare_attrs) break;
      if (significant_only && !fs.significant) continue;
      CompareAttribute ca;
      ca.attr_index = fs.attr_index;
      ca.name = fs.name;
      ca.relevance = fs.score;
      ca.p_value = fs.p_value;
      view.compare_attrs.push_back(std::move(ca));
    }
  };

  // Auto-select the remaining M - N by relevance to the pivot.
  if (chosen_attrs.size() < options.max_compare_attrs) {
    std::vector<size_t> candidates;
    for (size_t a = 0; a < dt.num_attrs(); ++a) {
      if (a == *pivot_idx) continue;
      if (std::find(chosen_attrs.begin(), chosen_attrs.end(), a) !=
          chosen_attrs.end()) {
        continue;
      }
      if (dt.attr(a).cardinality() == 0) continue;
      candidates.push_back(a);
    }

    // Optimization 1 (§6.3): rank over a uniform sample of row positions.
    const DiscretizedTable* rank_dt = &dt;
    const std::vector<int32_t>* rank_cls = &cls;
    DiscretizedTable sampled_dt;
    std::vector<int32_t> sampled_cls;
    if (options.feature_selection_sample > 0 &&
        options.feature_selection_sample < dt.num_rows()) {
      std::vector<uint32_t> positions(dt.num_rows());
      for (uint32_t i = 0; i < positions.size(); ++i) positions[i] = i;
      Rng rng(options.seed);
      RowSet pos_sample =
          SampleRows(positions, options.feature_selection_sample, &rng);
      sampled_cls.reserve(pos_sample.size());
      for (uint32_t pos : pos_sample) sampled_cls.push_back(cls[pos]);
      sampled_dt = dt.Project(pos_sample);
      rank_dt = &sampled_dt;
      rank_cls = &sampled_cls;
    }
    DBX_ASSIGN_OR_RETURN(
        std::vector<FeatureScore> ranked,
        RankFeatures(*rank_dt, *rank_cls, plan.value_codes.size(), candidates,
                     fs_options));
    append_ranked(ranked, /*significant_only=*/true);
  }
  if (view.compare_attrs.empty()) {
    // Degenerate fragment (e.g. a single pivot value): nothing passes the
    // significance test. Fall back to the top-scoring candidates so the view
    // still summarizes the fragment rather than failing.
    std::vector<size_t> candidates;
    for (size_t a = 0; a < dt.num_attrs(); ++a) {
      if (a != *pivot_idx && dt.attr(a).cardinality() > 0) {
        candidates.push_back(a);
      }
    }
    DBX_ASSIGN_OR_RETURN(std::vector<FeatureScore> ranked,
                         RankFeatures(dt, cls, plan.value_codes.size(),
                                      candidates, fs_options));
    append_ranked(ranked, /*significant_only=*/false);
  }
  if (view.compare_attrs.empty()) {
    return Status::FailedPrecondition(
        "no usable compare attributes in the fragment");
  }
  view.timings.compare_attrs_ms = sw.ElapsedMillis();
  view.tau = DefaultTau(view.compare_attrs.size(), options.similarity_alpha);

  // --- Candidate IUnit generation + labeling (Problems 1.2) ----------------
  sw.Reset();
  ScopedSpan iunit_span(options.tracer, "iunit_gen", options.trace_parent);
  iunit_span.AddArg("partitions", static_cast<uint64_t>(partitions.size()));
  std::vector<size_t> compare_indices;
  compare_indices.reserve(view.compare_attrs.size());
  for (const CompareAttribute& ca : view.compare_attrs) {
    compare_indices.push_back(ca.attr_index);
  }

  auto encoder = OneHotEncoder::Plan(dt, compare_indices);
  if (!encoder.ok()) return encoder.status();

  size_t k = options.iunits_per_value;
  struct Candidates {
    std::vector<IUnit> iunits;
  };
  std::vector<Candidates> all_candidates(partitions.size());

  auto build_partition = [&](size_t v) -> Status {
    std::vector<size_t>& members = partitions[v];
    if (members.empty()) return Status::OK();
    // Per-partition generator so parallel and serial builds are identical.
    Rng part_rng(options.seed ^ (0x9E3779B97F4A7C15ULL * (v + 1)));

    // Optimization 2: adaptive l.
    size_t l = options.generated_iunits;
    if (l == 0) {
      l = static_cast<size_t>(
          std::ceil(options.candidate_factor * static_cast<double>(k)));
    }
    if (options.adaptive_l && members.size() > options.adaptive_l_threshold) {
      size_t lmin = options.adaptive_l_min == 0 ? k : options.adaptive_l_min;
      l = std::max(k, lmin);
    }
    l = std::max<size_t>(1, l);

    // Optimization 1b: cluster over a sample of the partition. The coreset
    // mode (DESIGN.md §13) takes precedence: a bottom-k hash sample whose
    // membership depends only on (seed, row id), so sharded 100M-row builds
    // stay byte-identical across shard counts.
    std::vector<size_t> cluster_members;
    if (options.sharding.coreset_clustering &&
        options.sharding.coreset_budget > 0 &&
        options.sharding.coreset_budget < members.size()) {
      CoresetSketch sketch = BuildCoresetSketch(
          members, 0, members.size(),
          options.seed ^ (0xD1B54A32D192ED03ULL * (v + 1)),
          options.sharding.coreset_budget);
      cluster_members = CoresetMembers(sketch);
    } else if (options.clustering_sample > 0 &&
               options.clustering_sample < members.size()) {
      RowSet as_rows(members.begin(), members.end());
      RowSet sampled =
          SampleRows(as_rows, options.clustering_sample, &part_rng);
      cluster_members.assign(sampled.begin(), sampled.end());
    } else {
      cluster_members = members;
    }

    EncodedMatrix mat = encoder->Encode(dt, cluster_members);
    KMeansOptions ko;
    ko.k = std::min(l, cluster_members.size());
    ko.max_iterations = options.kmeans_max_iterations;
    ko.seed = options.seed + v;  // distinct but deterministic per partition
    ko.num_threads = options.num_threads;
    // Children of iunit_gen regardless of which pool worker runs this
    // partition — parenthood is the explicit id, not thread-local state.
    ko.tracer = options.tracer;
    ko.trace_parent = iunit_span.id();
    Result<KMeansResult> km = Status::Internal("unreached");
    if (options.auto_l) {  // NOLINT
      // §2.2.2: sweep plausible l values and keep the best-quality
      // clustering (simplified silhouette).
      size_t l_max = std::max(
          k, static_cast<size_t>(
                 std::ceil(options.auto_l_max_factor * static_cast<double>(k))));
      double best_quality = -2.0;
      for (size_t trial_l = k; trial_l <= l_max; ++trial_l) {
        KMeansOptions trial = ko;
        trial.k = std::min(trial_l, cluster_members.size());
        auto res = RunKMeans(mat, trial);
        if (!res.ok()) return res.status();
        double quality = SimplifiedSilhouette(mat, *res);
        if (quality > best_quality) {
          best_quality = quality;
          km = std::move(res);
        }
        if (trial.k == cluster_members.size()) break;
      }
    } else {
      km = RunKMeans(mat, ko);
    }
    if (!km.ok()) return km.status();

    // Materialize member lists per cluster.
    std::vector<std::vector<size_t>> cluster_rows(km->k_effective);
    for (size_t i = 0; i < cluster_members.size(); ++i) {
      cluster_rows[static_cast<size_t>(km->assignments[i])].push_back(
          cluster_members[i]);
    }
    ScopedSpan label_span(options.tracer, "labeling", iunit_span.id());
    label_span.AddArg("clusters", static_cast<uint64_t>(km->k_effective));
    label_span.AddArg("pivot_value", plan.value_labels[v]);
    for (size_t c = 0; c < cluster_rows.size(); ++c) {
      if (cluster_rows[c].empty()) continue;
      auto iu = LabelCluster(dt, compare_indices, std::move(cluster_rows[c]),
                             options.labeler);
      if (!iu.ok()) return iu.status();
      iu->pivot_value = plan.value_labels[v];
      iu->cluster_id = c;
      if (options.preference) {
        iu->score = options.preference(*iu);
      }
      all_candidates[v].iunits.push_back(std::move(*iu));
    }
    return Status::OK();
  };

  // Partitions are independent; each task writes only all_candidates[v], so
  // the result is byte-identical for any thread count.
  DBX_RETURN_IF_ERROR(ParallelFor(options.num_threads, 0, partitions.size(),
                                  1, build_partition));
  iunit_span.End();
  view.timings.iunit_gen_ms = sw.ElapsedMillis();

  // --- Diversified top-k (Problem 2) ---------------------------------------
  sw.Reset();
  ScopedSpan topk_span(options.tracer, "div_topk", options.trace_parent);
  topk_span.AddArg("algorithm", DivTopKAlgorithmName(options.topk_algorithm));
  for (size_t v = 0; v < partitions.size(); ++v) {
    CadViewRow row;
    row.pivot_value = plan.value_labels[v];
    row.pivot_code = plan.value_codes[v] >= 0 ? plan.value_codes[v] : -1;
    row.partition_size = partitions[v].size();

    std::vector<IUnit>& cand = all_candidates[v].iunits;
    if (!cand.empty()) {
      // O(l^2) similarity graph, parallel over the anchor index i. Cell
      // (r, c) is written only by the task with index min(r, c), so the
      // byte-backed adjacency matrix needs no locking.
      SimilarityGraph graph(cand.size());
      DBX_RETURN_IF_ERROR(ParallelFor(
          options.num_threads, 0, cand.size(), 2, [&](size_t i) -> Status {
            for (size_t j = i + 1; j < cand.size(); ++j) {
              if (IUnitsSimilar(cand[i], cand[j], view.tau)) {
                graph.SetSimilar(i, j);
              }
            }
            return Status::OK();
          }));
      std::vector<double> scores;
      scores.reserve(cand.size());
      for (const IUnit& u : cand) scores.push_back(u.score);
      auto chosen =
          DiversifiedTopK(scores, graph, k, options.topk_algorithm);
      if (!chosen.ok()) return chosen.status();
      row.iunits.reserve(chosen->size());
      for (size_t idx : *chosen) row.iunits.push_back(std::move(cand[idx]));
    }
    view.rows.push_back(std::move(row));
  }
  topk_span.End();
  view.timings.topk_ms = sw.ElapsedMillis();
  view.timings.total_ms = total.ElapsedMillis();
  MetricsRegistry* reg = MetricsRegistry::Global();
  reg->GetCounter("dbx_core_builds_total")->Increment();
  reg->GetCounter("dbx_core_build_rows_total")
      ->Increment(dt.num_rows());
  reg->GetHistogram("dbx_core_build_ms")
      ->Observe(view.timings.total_ms);

  if (extras != nullptr) {
    extras->partitions.members_by_code.clear();
    for (size_t v = 0; v < partitions.size(); ++v) {
      if (plan.value_codes[v] >= 0 && !partitions[v].empty()) {
        extras->partitions.members_by_code.emplace_back(plan.value_codes[v],
                                                        partitions[v]);
      }
    }
    std::sort(extras->partitions.members_by_code.begin(),
              extras->partitions.members_by_code.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  return view;
}

}  // namespace dbx
