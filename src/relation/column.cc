#include "src/relation/column.h"

#include <algorithm>
#include <utility>

namespace dbx {

std::shared_ptr<const ValueOrderIndex> ValueOrderIndex::Build(
    const std::vector<double>& nums) {
  auto index = std::make_shared<ValueOrderIndex>();
  index->ranks.assign(nums.size(), kNullRank);
  // Sort (value, row) pairs by value; rows with equal values get the same
  // rank whatever their order, so the unstable sort is deterministic here.
  std::vector<std::pair<double, uint32_t>> order;
  order.reserve(nums.size());
  for (size_t r = 0; r < nums.size(); ++r) {
    if (!std::isnan(nums[r])) {
      order.emplace_back(nums[r] + 0.0, static_cast<uint32_t>(r));  // -0.0 -> 0.0
    }
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [value, row] : order) {
    if (index->distinct.empty() || value != index->distinct.back()) {
      index->distinct.push_back(value);
    }
    index->ranks[row] = static_cast<uint32_t>(index->distinct.size() - 1);
  }
  return index;
}

}  // namespace dbx
