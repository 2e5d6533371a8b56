#include "core/engine_job.hpp"

#include <algorithm>
#include <utility>

#include "core/async_engine.hpp"
#include "core/delta_engine.hpp"
#include "core/multi_engine.hpp"
#include "core/parent_canon.hpp"
#include "core/stepping_engine.hpp"

namespace parsssp {

namespace {

/// Rewrites `parent` to canonical form over the arcs of the views, which
/// hold every vertex's full adjacency — the logical graph's, even where a
/// dynamic snapshot's base CSR lags it.
void canonicalize_over_views(const EngineJob& job) {
  for (rank_t r = 0; r < job.views->size(); ++r) {
    const LocalEdgeView& view = (*job.views)[r];
    for (vid_t local = 0; local < view.num_local(); ++local) {
      const vid_t v = job.part.global_id(r, local);
      (*job.parent)[v] =
          canonical_parent_of(v, job.root, *job.dist, [&](auto&& fn) {
            for (const Arc& a : view.all_arcs(local)) fn(a);
          });
    }
  }
}

}  // namespace

void run_engine(MachineSession& session, const EngineJob& job,
                const SsspOptions& options, std::shared_ptr<void> keepalive) {
  const bool seeded = job.settled_init != nullptr;
  if (!seeded) {
    job.dist->assign(job.part.num_vertices(), kInfDist);
    if (job.parent != nullptr) {
      job.parent->assign(job.part.num_vertices(), kInvalidVid);
    }
  }
  std::vector<RankCounters> counters(session.num_ranks());
  const auto run = [&](const auto& body) {
    session
        .submit([&](RankCtx& ctx) { counters[ctx.rank()] = body(ctx); },
                std::move(keepalive))
        .get();
  };
  if (seeded || options.algo == SsspAlgo::kBucketSync) {
    run([&](RankCtx& ctx) { return run_sssp_job(ctx, job, options); });
  } else if (options.algo == SsspAlgo::kAsync) {
    AsyncChannel<RelaxMsg> channel(session.num_ranks());
    LevelBoard board(session.num_ranks());
    run([&](RankCtx& ctx) {
      return run_async_sssp_job(ctx, job, options, channel, board);
    });
  } else {
    run([&](RankCtx& ctx) {
      return run_stepping_sssp_job(ctx, job, options);
    });
  }

  if (job.parent != nullptr && !seeded &&
      (options.canonical_parents || options.algo != SsspAlgo::kBucketSync)) {
    // Async and stepping parent trees depend on the message schedule;
    // canonicalizing makes them a pure function of (graph, dist) — see
    // docs/ASYNC.md and docs/STEPPING.md.
    canonicalize_over_views(job);
  }

  SsspStats& s = *job.stats;
  for (const RankCounters& c : counters) {
    s.short_relaxations += c.short_relaxations;
    s.long_push_relaxations += c.long_push_relaxations;
    s.pull_requests += c.pull_requests;
    s.pull_responses += c.pull_responses;
    s.bf_relaxations += c.bf_relaxations;
    s.async_relaxations += c.async_relaxations;
    s.stepping_relaxations += c.stepping_relaxations;
  }
}

MultiStats run_multi_engine(MachineSession& session,
                            const BlockPartition& part,
                            const std::vector<LocalEdgeView>& views,
                            std::span<const vid_t> roots,
                            std::span<std::vector<dist_t>> dists,
                            const SsspOptions& options,
                            std::shared_ptr<void> keepalive) {
  MultiStats total;
  // Each sweep batches up to kMaxMultiRoots roots; chunk statistics
  // accumulate (a chunked batch is sequential across chunks, so times add).
  for (std::size_t base = 0; base < roots.size(); base += kMaxMultiRoots) {
    const std::size_t count = std::min(kMaxMultiRoots, roots.size() - base);
    std::vector<std::vector<dist_t>*> slabs(count);
    for (std::size_t j = 0; j < count; ++j) {
      dists[base + j].assign(part.num_vertices(), kInfDist);
      slabs[j] = &dists[base + j];
    }
    MultiStats chunk;
    MultiEngineShared shared;
    shared.part = part;
    shared.views = &views;
    shared.roots = roots.subspan(base, count);
    shared.dists = std::span<std::vector<dist_t>* const>(slabs);
    shared.options = &options;
    shared.stats = &chunk;
    session
        .submit([&shared](RankCtx& ctx) { run_multi_sssp_job(ctx, shared); },
                keepalive)
        .get();

    total.num_roots += chunk.num_roots;
    total.epochs += chunk.epochs;
    total.phases += chunk.phases;
    total.relaxations += chunk.relaxations;
    total.per_root_relaxations.insert(total.per_root_relaxations.end(),
                                      chunk.per_root_relaxations.begin(),
                                      chunk.per_root_relaxations.end());
    total.model_time_s += chunk.model_time_s;
    total.wall_time_s += chunk.wall_time_s;
  }
  return total;
}

}  // namespace parsssp
