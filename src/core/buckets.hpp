// Bucket bookkeeping over a rank's owned distance slice.
//
// The engine, like the paper's implementation, re-derives bucket membership
// by scanning the owned tentative distances (this scan is exactly the
// "BktTime" overhead the paper measures in Fig. 10/11(b), so we keep it
// explicit rather than maintaining incremental bucket queues).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace parsssp {

/// Locals (offsets into the owned slice) of unsettled vertices currently in
/// bucket k.
std::vector<vid_t> collect_bucket_members(std::span<const dist_t> dist_local,
                                          std::span<const char> settled,
                                          std::uint64_t k,
                                          std::uint32_t delta);

/// Smallest bucket index > `after` holding an unsettled vertex with a finite
/// tentative distance; kInfBucket if none. Pass `after = kBeforeFirst` to
/// search from bucket 0. When `members` is given, the same scan also
/// leaves in it the locals of that bucket, ascending — exactly what
/// collect_bucket_members would return for it.
inline constexpr std::int64_t kBeforeFirst = -1;
std::uint64_t min_unsettled_bucket_above(std::span<const dist_t> dist_local,
                                         std::span<const char> settled,
                                         std::int64_t after,
                                         std::uint32_t delta,
                                         std::vector<vid_t>* members = nullptr);

/// Locals of unsettled vertices with finite distance (the grouped bucket "B"
/// the Bellman-Ford tail starts from after the hybrid switch).
std::vector<vid_t> collect_unsettled_reached(
    std::span<const dist_t> dist_local, std::span<const char> settled);

}  // namespace parsssp
