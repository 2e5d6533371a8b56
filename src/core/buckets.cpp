#include "core/buckets.hpp"

namespace parsssp {

std::vector<vid_t> collect_bucket_members(std::span<const dist_t> dist_local,
                                          std::span<const char> settled,
                                          std::uint64_t k,
                                          std::uint32_t delta) {
  std::vector<vid_t> members;
  for (vid_t local = 0; local < dist_local.size(); ++local) {
    if (!settled[local] && bucket_of(dist_local[local], delta) == k) {
      members.push_back(local);
    }
  }
  return members;
}

std::uint64_t min_unsettled_bucket_above(std::span<const dist_t> dist_local,
                                         std::span<const char> settled,
                                         std::int64_t after,
                                         std::uint32_t delta,
                                         std::vector<vid_t>* members) {
  std::uint64_t best = kInfBucket;
  if (members != nullptr) members->clear();
  for (vid_t local = 0; local < dist_local.size(); ++local) {
    if (settled[local] || dist_local[local] == kInfDist) continue;
    const std::uint64_t b = bucket_of(dist_local[local], delta);
    if (static_cast<std::int64_t>(b) <= after || b > best) continue;
    if (b < best) {
      best = b;
      if (members != nullptr) members->clear();
    }
    if (members != nullptr) members->push_back(local);
  }
  return best;
}

std::vector<vid_t> collect_unsettled_reached(
    std::span<const dist_t> dist_local, std::span<const char> settled) {
  std::vector<vid_t> out;
  for (vid_t local = 0; local < dist_local.size(); ++local) {
    if (!settled[local] && dist_local[local] != kInfDist) {
      out.push_back(local);
    }
  }
  return out;
}

}  // namespace parsssp
