// Ablation (paper §2.2.1): numeric-attribute binning strategy. The paper
// defers to histogram-construction literature [17]; this harness measures
// what the choice costs and buys on the used-car data: bin quality (within-
// bin price SSE), build latency, and whether the CAD View's chosen Compare
// Attributes move.

#include <cstdio>
#include <set>

#include "bench/bench_util.h"
#include "src/core/cad_view_builder.h"
#include "src/data/used_cars.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

int main() {
  using namespace dbx;
  bench::Header("Ablation: numeric binning strategy (equi-width / equi-depth "
                "/ V-optimal)");

  Table cars = GenerateUsedCars(20000, 7);
  auto price_col = *cars.ColByName("Price");
  std::vector<double> prices;
  for (size_t r = 0; r < cars.num_rows(); ++r) {
    prices.push_back(price_col->NumberAt(r));
  }
  // Build the value-order index up front, as the first CAD View build on a
  // table does, so each strategy's time below is its binning alone.
  std::shared_ptr<const ValueOrderIndex> price_index = price_col->OrderIndex();
  const RowSet all_rows = cars.AllRows();

  auto sse_of = [&](const Bins& b) {
    std::vector<double> sum(b.num_bins(), 0), cnt(b.num_bins(), 0);
    for (double x : prices) {
      int32_t bin = b.BinOf(x);
      sum[bin] += x;
      cnt[bin] += 1;
    }
    double sse = 0;
    for (double x : prices) {
      int32_t bin = b.BinOf(x);
      double mean = sum[bin] / cnt[bin];
      sse += (x - mean) * (x - mean);
    }
    return sse;
  };

  bench::Section("Price (20K values, 8 bins): quality and cost per strategy");
  double sse_ew = 0, sse_vo = 0;
  for (BinStrategy strategy : {BinStrategy::kEquiWidth,
                               BinStrategy::kEquiDepth,
                               BinStrategy::kVOptimal}) {
    DiscreteAttr price;
    Stopwatch sw;
    Status binned = BinNumeric(*price_index, all_rows,
                               DiscretizerOptions{8, strategy}, &price);
    double ms = sw.ElapsedMillis();
    if (!binned.ok()) return 1;
    double sse = sse_of(price.bins);
    std::printf("  %-12s %8.2f ms   SSE %.3e   bins %zu\n",
                BinStrategyName(strategy), ms, sse, price.bins.num_bins());
    if (strategy == BinStrategy::kEquiWidth) sse_ew = sse;
    if (strategy == BinStrategy::kVOptimal) sse_vo = sse;
  }

  bench::Section("effect on the CAD View's auto-chosen Compare Attributes");
  std::set<std::string> first_set;
  bool same_attrs = true;
  for (BinStrategy strategy : {BinStrategy::kEquiWidth,
                               BinStrategy::kEquiDepth,
                               BinStrategy::kVOptimal}) {
    CadViewOptions opt;
    opt.pivot_attr = "Make";
    opt.pivot_values = {"Toyota", "Honda", "Ford", "Chevrolet", "Jeep"};
    opt.max_compare_attrs = 5;
    opt.iunits_per_value = 3;
    opt.seed = 5;
    opt.discretizer.strategy = strategy;
    auto view = BuildCadView(TableSlice::All(cars), opt);
    if (!view.ok()) return 1;
    std::string names;
    std::set<std::string> attrs;
    for (const CompareAttribute& ca : view->compare_attrs) {
      if (!names.empty()) names += ", ";
      names += ca.name;
      attrs.insert(ca.name);
    }
    std::printf("  %-12s -> %s\n", BinStrategyName(strategy), names.c_str());
    if (first_set.empty()) {
      first_set = attrs;
    } else {
      same_attrs = same_attrs && attrs == first_set;
    }
  }

  bench::PaperShape(
      "V-optimal minimizes within-bin error (at a steep O(n'^2 b) cost) and "
      "equi-depth is the practical default; the Compare-Attribute choice is "
      "robust to the binning strategy, which is why the paper can treat "
      "binning as a pre-processing detail");
  bench::Measured(StringPrintf(
      "SSE equi-width %.3e vs V-optimal %.3e (%.1fx better); compare-attrs "
      "identical across strategies: %s",
      sse_ew, sse_vo, sse_ew / std::max(sse_vo, 1e-9),
      same_attrs ? "yes" : "no"));
  return sse_vo <= sse_ew ? 0 : 1;
}
