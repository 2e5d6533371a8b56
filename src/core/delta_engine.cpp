#include "core/delta_engine.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/buckets.hpp"
#include "core/hybrid.hpp"
#include "core/load_balance.hpp"
#include "core/push_pull.hpp"
#include "obs/trace.hpp"

namespace parsssp {
namespace {

// All wall-clock reads go through the obs/ helpers (PhaseTimer /
// TimedSection / ScopedSpan) so every accounted interval is also a trace
// span and the sum-to-wall self-check can audit the BktTime/OtherTime
// split (lint rule R8 enforces this).

/// Reduction payload for the push/pull decision heuristic.
struct PpReduce {
  std::uint64_t push_sum = 0;
  std::uint64_t pull_sum = 0;
  std::uint64_t push_max = 0;
  std::uint64_t pull_max = 0;
};
struct PpReduceOp {
  PpReduce operator()(const PpReduce& a, const PpReduce& b) const {
    return {a.push_sum + b.push_sum, a.pull_sum + b.pull_sum,
            std::max(a.push_max, b.push_max), std::max(a.pull_max, b.pull_max)};
  }
};

/// Reduction payload for receiver-side long-edge classification (Fig 7).
struct CatReduce {
  std::uint64_t self = 0;
  std::uint64_t backward = 0;
  std::uint64_t forward = 0;
};
struct CatReduceOp {
  CatReduce operator()(const CatReduce& a, const CatReduce& b) const {
    return {a.self + b.self, a.backward + b.backward, a.forward + b.forward};
  }
};

}  // namespace

DeltaEngine::DeltaEngine(RankCtx& ctx, const EngineJob& job,
                         const SsspOptions& options)
    : ctx_(ctx),
      job_(job),
      opt_(options),
      view_((*job.views)[ctx.rank()]),
      begin_(job.part.begin(ctx.rank())),
      nloc_(job.part.count(ctx.rank())),
      ws_(ctx.workspace<DeltaWorkspace>()),
      cost_(options.cost_model) {
  dist_ = std::span<dist_t>(job_.dist->data() + begin_, nloc_);
  if (job_.parent != nullptr) {
    parent_ = std::span<vid_t>(job_.parent->data() + begin_, nloc_);
  }
  // The workspace keeps its capacity across solves; assign() and resize()
  // below re-initialize without allocating once it is warm.
  seeded_ = job_.settled_init != nullptr;
  if (seeded_) {
    const char* preset = job_.settled_init->data() + begin_;
    ws_.settled.assign(preset, preset + nloc_);
    ws_.preset.assign(preset, preset + nloc_);
    settled_local_cum_ = static_cast<std::uint64_t>(
        std::count(ws_.settled.begin(), ws_.settled.end(), char{1}));
    if (job_.changed != nullptr) {
      changed_ = std::span<char>(job_.changed->data() + begin_, nloc_);
    }
  } else {
    ws_.settled.assign(nloc_, 0);
  }
  ws_.member_stamp.resize(nloc_, 0);  // below every epoch still to come
  ws_.in_frontier.assign(nloc_, 0);

  const unsigned lanes = ctx_.pool().lanes();
  ws_.relax_pool.configure(lanes, ctx_.num_ranks());
  ws_.req_pool.configure(1, ctx_.num_ranks());
  // One lane filters at emission, keyed on the global vertex id; more
  // lanes filter each destination's stream before the exchange, keyed on
  // its local ids, so the table stays one block long.
  ws_.filter.ensure(lanes == 1 ? job_.part.num_vertices()
                               : job_.part.block_size());
  ws_.lane_emitted.resize(lanes);
  ws_.lane_load.resize(lanes);
  ws_.lane_inserts.resize(lanes);
  ws_.lane_unsettled.resize(lanes);

  sync0_allreduces_ = ctx_.traffic().allreduces;
  sync0_barriers_ = ctx_.traffic().barriers;

  if (opt_.trace != nullptr) {
    tlane_ = &opt_.trace->thread_lane(
        "rank" + std::to_string(ctx_.rank()));
  }
}

bool DeltaEngine::any_active_globally(bool local_active) {
  TimedSection sw(counters_.wall_bucket_time_s, tlane_, SpanCat::kBucketScan);
  const bool any =
      ctx_.allreduce(static_cast<std::uint64_t>(local_active), OrOp{}) != 0;
  model_bkt_ns_ += cost_.scan_cost(0);
  return any;
}

DeltaEngine::StepReduce DeltaEngine::account_step(std::uint64_t work,
                                                  std::uint64_t bytes,
                                                  std::uint64_t relax) {
  const StepReduce red =
      ctx_.allreduce(StepReduce{0, work, bytes, relax}, StepReduceOp{});
  model_other_ns_ += cost_.step_cost(red.max_work, red.max_bytes);
  return red;
}

std::uint64_t DeltaEngine::next_bucket(std::int64_t after) {
  TimedSection sw(counters_.wall_bucket_time_s, tlane_, SpanCat::kBucketScan);
  // One scan finds the local minimum bucket and collects its members, so
  // process_epoch needs no second pass over the slice.
  local_min_bucket_ = min_unsettled_bucket_above(
      dist_, ws_.settled, after, opt_.delta, &ws_.bucket_members);
  model_bkt_ns_ += cost_.scan_cost(job_.part.block_size());
  return ctx_.allreduce(local_min_bucket_, MinOp{});
}

void DeltaEngine::begin_relax_emit(bool reduce) {
  ws_.relax_pool.begin_phase();
  filter_at_emit_ = reduce && ws_.relax_pool.lanes() == 1;
  filter_at_exchange_ = reduce && ws_.relax_pool.lanes() > 1;
  if (filter_at_emit_) ws_.filter.begin_stream();
  for (auto& e : ws_.lane_emitted) e.value = 0;
}

std::pair<std::uint64_t, std::uint64_t> DeltaEngine::emit_totals() const {
  std::uint64_t emitted = 0;
  std::uint64_t max_lane = 0;
  for (const auto& e : ws_.lane_emitted) {
    emitted += e.value;
    max_lane = std::max(max_lane, e.value);
  }
  return {emitted, max_lane};
}

std::uint64_t DeltaEngine::relax_exchange(PhaseKind kind) {
  if (filter_at_exchange_) {
    // Lanes emitted concurrently, so a destination's canonical stream
    // (lane ascending, push order) exists only now.
    for (rank_t d = 0; d < ctx_.num_ranks(); ++d) {
      const vid_t dest_begin = job_.part.begin(d);
      ws_.filter.begin_stream();
      for (unsigned l = 0; l < ws_.relax_pool.lanes(); ++l) {
        std::vector<RelaxMsg>& shard = ws_.relax_pool.shard(l, d);
        std::size_t kept = 0;
        for (const RelaxMsg& m : shard) {
          if (ws_.filter.admit(m.v - dest_begin, m.nd)) shard[kept++] = m;
        }
        shard.resize(kept);
      }
    }
  }
  const std::uint64_t posted = ws_.relax_pool.pending_messages();
  ctx_.exchange_pooled(ws_.relax_pool, kind);
  return posted;
}

std::uint64_t DeltaEngine::apply_incoming(std::uint64_t frontier_k,
                                          InsertMode mode) {
  std::uint64_t total = 0;
  for (const auto& batch : ws_.relax_pool.incoming()) total += batch.size();
  ScopedSpan span(tlane_, SpanCat::kApply, total);
  if (ctx_.pool().lanes() > 1 && total != 0) {
    apply_parallel(frontier_k, mode);
  } else {
    apply_serial(frontier_k, mode);
  }
  return total;
}

void DeltaEngine::apply_serial(std::uint64_t frontier_k, InsertMode mode) {
  const std::uint32_t delta = opt_.delta;
  for (const auto& batch : ws_.relax_pool.incoming()) {
    for (const RelaxMsg& m : batch) {
      const vid_t local = to_local(m.v);
      assert(local < nloc_);
      if (m.nd >= dist_[local]) continue;
      if (seeded_) {
        // A preset-settled vertex only carried an upper bound; improving
        // it reopens it (unsettle-on-improve). Strict-< guarantees the
        // distance drops on every unsettle, so the sweep terminates.
        if (ws_.settled[local]) {
          ws_.settled[local] = 0;
          ws_.preset[local] = 0;
          --settled_local_cum_;
        }
      } else {
        assert(!ws_.settled[local] && "relaxation improved a settled vertex");
      }
      dist_[local] = m.nd;
      if (!changed_.empty()) changed_[local] = 1;
      if (!parent_.empty()) parent_[local] = m.pred;
      if (mode == InsertMode::kNone || ws_.in_frontier[local]) continue;
      if (mode == InsertMode::kBucket &&
          bucket_of(m.nd, delta) != frontier_k) {
        continue;
      }
      ws_.in_frontier[local] = 1;
      ws_.frontier.push_back(local);
    }
  }
}

void DeltaEngine::apply_parallel(std::uint64_t frontier_k, InsertMode mode) {
  const std::uint32_t delta = opt_.delta;
  const auto& batches = ws_.relax_pool.incoming();
  const unsigned lanes = ctx_.pool().lanes();

  // Canonical index of each batch's first message, so lanes can tag their
  // frontier inserts with stream positions.
  ws_.batch_offsets.resize(batches.size());
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    ws_.batch_offsets[i] = offset;
    offset += batches[i].size();
  }

  // Each lane owns a contiguous destination-vertex range: dist/parent/
  // in_frontier writes are disjoint by construction, no atomics needed
  // (the shared-memory analogue of the paper's L2-atomic relaxation).
  const vid_t chunk = (nloc_ + lanes - 1) / lanes;
  ctx_.pool().run_on_lanes([&](unsigned lane) {
    const vid_t lo = std::min<vid_t>(nloc_, lane * chunk);
    const vid_t hi = std::min<vid_t>(nloc_, lo + chunk);
    auto& inserts = ws_.lane_inserts[lane].value;
    inserts.clear();
    ws_.lane_unsettled[lane].value = 0;
    if (lo >= hi) return;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const auto& batch = batches[i];
      for (std::size_t j = 0; j < batch.size(); ++j) {
        const RelaxMsg& m = batch[j];
        const vid_t local = to_local(m.v);
        assert(local < nloc_);
        if (local < lo || local >= hi) continue;
        if (m.nd >= dist_[local]) continue;
        if (seeded_) {
          // Unsettle-on-improve, mirrored from apply_serial. settled/
          // preset writes stay inside this lane's vertex range; the
          // settled count is summed from the per-lane counters below.
          if (ws_.settled[local]) {
            ws_.settled[local] = 0;
            ws_.preset[local] = 0;
            ++ws_.lane_unsettled[lane].value;
          }
        } else {
          assert(!ws_.settled[local] && "relaxation improved a settled vertex");
        }
        dist_[local] = m.nd;
        if (!changed_.empty()) changed_[local] = 1;
        if (!parent_.empty()) parent_[local] = m.pred;
        if (mode == InsertMode::kNone || ws_.in_frontier[local]) continue;
        if (mode == InsertMode::kBucket &&
            bucket_of(m.nd, delta) != frontier_k) {
          continue;
        }
        ws_.in_frontier[local] = 1;
        inserts.emplace_back(ws_.batch_offsets[i] + j, local);
      }
    }
  });
  if (seeded_) {
    for (unsigned l = 0; l < lanes; ++l) {
      settled_local_cum_ -= ws_.lane_unsettled[l].value;
    }
  }

  if (mode == InsertMode::kNone) return;
  // Frontier order is observable (it decides next phase's emission order,
  // hence equal-distance parent tie-breaks downstream): merge the per-lane
  // logs by canonical message index to reproduce the serial insert order.
  ws_.merged_inserts.clear();
  for (unsigned l = 0; l < lanes; ++l) {
    const auto& inserts = ws_.lane_inserts[l].value;
    ws_.merged_inserts.insert(ws_.merged_inserts.end(), inserts.begin(),
                              inserts.end());
  }
  std::sort(ws_.merged_inserts.begin(), ws_.merged_inserts.end());
  for (const auto& [idx, v] : ws_.merged_inserts) ws_.frontier.push_back(v);
}

void DeltaEngine::short_phases(std::uint64_t k) {
  const bool classify = classification_active();
  const bool ios = classify && opt_.ios;
  const dist_t limit = classify ? bucket_end(k) : 0;
  // With Delta = infinity these "short phases" over all arcs *are* the
  // Bellman-Ford algorithm; attribute the work accordingly.
  const bool bf_regime = opt_.bellman_ford_regime();
  std::uint64_t& relax_counter =
      bf_regime ? counters_.bf_relaxations : counters_.short_relaxations;
  const PhaseDetail::Kind detail_kind =
      bf_regime ? PhaseDetail::Kind::kBellmanFord : PhaseDetail::Kind::kShort;

  while (any_active_globally(!ws_.frontier.empty())) {
    ++phases_;
    ScopedSpan span(tlane_,
                    bf_regime ? SpanCat::kBellmanFord : SpanCat::kShortPhase,
                    k);
    // Pop the frontier: stamp epoch membership, clear flags.
    std::vector<vid_t>& active = ws_.active;
    active.swap(ws_.frontier);
    ws_.frontier.clear();
    for (const vid_t u : active) {
      ws_.in_frontier[u] = 0;
      if (ws_.member_stamp[u] != ws_.epoch) {
        ws_.member_stamp[u] = ws_.epoch;
        ws_.members.push_back(u);
      }
    }

    // Generate relaxations into the pooled shards. With classification on,
    // only short arcs are relaxed here; IOS additionally skips arcs whose
    // proposed distance falls outside the current bucket (those are
    // outer-short edges, deferred to the long phase).
    const unsigned lanes = ctx_.pool().lanes();
    begin_relax_emit(/*reduce=*/true);
    auto arcs_of = [&](vid_t u) {
      return classify ? view_.short_arcs(u) : view_.all_arcs(u);
    };
    lane_parallel_arcs(
        ctx_.pool(), active, view_, opt_.heavy_degree_threshold,
        arcs_of, [&](unsigned lane, vid_t u, const Arc& a) {
          const dist_t nd = dist_[u] + a.w;
          if (ios && nd > limit) return;
          ++ws_.lane_emitted[lane].value;
          push_relax(lane, {a.to, nd, to_global(u)});
        });
    const auto [emitted, max_lane] = emit_totals();
    relax_counter += emitted;

    const std::uint64_t posted = relax_exchange(
        bf_regime ? PhaseKind::kBellmanFord : PhaseKind::kShortPhase);
    const std::uint64_t applied = apply_incoming(k, InsertMode::kBucket);

    // Modeled rank time is bottlenecked by the busiest lane: generation by
    // the worst lane's emissions, application spread over all lanes (the
    // paper's L2-atomic relaxations). Bytes are what actually crossed the
    // wire (post-reduction); the relax count stays the emission count.
    const StepReduce red = account_step(max_lane + applied / lanes,
                                        posted * sizeof(RelaxMsg), emitted);
    if (opt_.collect_phase_details) {
      phase_details_.push_back({k, detail_kind, red.sum_relax});
    }
  }
}

bool DeltaEngine::decide_long_mode(std::uint64_t k) {
  const SsspOptions& o = opt_;
  if (!o.pruning && !o.collect_bucket_details) return false;
  ScopedSpan span(tlane_, SpanCat::kDecision, k);

  bool pull = false;
  bool need_estimates = o.collect_bucket_details;
  switch (o.prune_mode) {
    case PruneMode::kPushOnly:
      pull = false;
      break;
    case PruneMode::kPullOnly:
      pull = o.pruning;
      break;
    case PruneMode::kForcedSequence: {
      const std::size_t i = pull_decisions_.size();
      pull = o.pruning && i < o.forced_pull.size() && o.forced_pull[i];
      break;
    }
    case PruneMode::kHeuristic:
      need_estimates = true;
      break;
  }
  if (!need_estimates) return pull;

  const PushPullLocal local = estimate_push_pull_local(
      view_, dist_, ws_.settled, ws_.members, k, o.delta, o.estimator,
      job_.max_weight != 0 ? job_.max_weight : job_.graph->max_weight(), o.ios);
  const PpReduce global = ctx_.allreduce(
      PpReduce{local.push_volume, local.pull_requests, local.push_volume,
               local.pull_requests},
      PpReduceOp{});
  model_bkt_ns_ += cost_.scan_cost(job_.part.block_size());

  PushPullGlobal g;
  g.push_volume = global.push_sum;
  g.pull_requests = global.pull_sum;
  g.push_max_rank = global.push_max;
  g.pull_max_rank = global.pull_max;
  const PushPullDecision decision =
      decide_push_pull(g, ctx_.num_ranks(), o.load_lambda);
  if (o.prune_mode == PruneMode::kHeuristic && o.pruning) {
    pull = decision.pull;
  }

  if (o.collect_bucket_details) {
    BucketDetail detail;
    detail.bucket = k;
    detail.push_volume_estimate = g.push_volume;
    detail.pull_volume_estimate = 2 * g.pull_requests;
    detail.push_max_rank = g.push_max_rank;
    detail.pull_max_rank = g.pull_max_rank;
    detail.used_pull = pull;
    bucket_details_.push_back(detail);
  }
  return pull;
}

void DeltaEngine::long_phase_push(std::uint64_t k) {
  ScopedSpan span(tlane_, SpanCat::kLongPush, k);
  const SsspOptions& o = opt_;
  const bool ios = o.ios;
  const dist_t limit = bucket_end(k);
  const unsigned lanes = ctx_.pool().lanes();

  // Long arcs of every settled member; under IOS also the outer-short arcs
  // (short arcs whose proposed distance falls beyond the current bucket).
  // Fig 7's receiver-side classification counts every emitted relaxation,
  // so the diagnostic mode ships the unreduced stream.
  begin_relax_emit(/*reduce=*/!o.collect_bucket_details);
  lane_parallel_arcs(
      ctx_.pool(), ws_.members, view_, o.heavy_degree_threshold,
      [&](vid_t u) { return view_.all_arcs(u); },
      [&](unsigned lane, vid_t u, const Arc& a) {
        const dist_t nd = dist_[u] + a.w;
        if (a.w < o.delta) {               // short arc
          if (!ios || nd <= limit) return;  // inner-short: already relaxed
        }
        ++ws_.lane_emitted[lane].value;
        push_relax(lane, {a.to, nd, to_global(u)});
      });
  const auto [emitted, max_lane] = emit_totals();
  counters_.long_push_relaxations += emitted;

  const std::uint64_t posted = relax_exchange(PhaseKind::kLongPush);

  // Receiver-side edge classification (Fig 7): destination bucket relative
  // to k, *before* applying the batch.
  if (o.collect_bucket_details) {
    CatReduce cat;
    for (const auto& batch : ws_.relax_pool.incoming()) {
      for (const RelaxMsg& m : batch) {
        const std::uint64_t b = bucket_of(dist_[to_local(m.v)], o.delta);
        if (b == k) {
          ++cat.self;
        } else if (b < k) {
          ++cat.backward;
        } else {
          ++cat.forward;
        }
      }
    }
    const CatReduce total = ctx_.allreduce(cat, CatReduceOp{});
    if (!bucket_details_.empty() && bucket_details_.back().bucket == k) {
      bucket_details_.back().self_edges = total.self;
      bucket_details_.back().backward_edges = total.backward;
      bucket_details_.back().forward_edges = total.forward;
    }
  }

  const std::uint64_t applied = apply_incoming(kInfBucket, InsertMode::kNone);
  ++phases_;
  const StepReduce red = account_step(max_lane + applied / lanes,
                                      posted * sizeof(RelaxMsg), emitted);
  if (o.collect_phase_details) {
    phase_details_.push_back({k, PhaseDetail::Kind::kLongPush, red.sum_relax});
  }
}

void DeltaEngine::long_phase_pull(std::uint64_t k) {
  ScopedSpan span(tlane_, SpanCat::kLongPull, k);
  const SsspOptions& o = opt_;
  const dist_t kdelta = k * static_cast<dist_t>(o.delta);
  const unsigned lanes = ctx_.pool().lanes();

  // Modeled lane loads. Pull work is attributed to each vertex's owner
  // lane (the paper's fixed thread ownership); with load balancing on,
  // heavy vertices' work is spread round-robin over all lanes instead.
  for (auto& l : ws_.lane_load) l.value = 0;
  std::uint64_t spread_cursor = 0;
  auto charge = [&](vid_t local, std::uint64_t units) {
    if (units == 0) return;
    if (o.heavy_degree_threshold != 0 &&
        view_.degree(local) > o.heavy_degree_threshold) {
      for (std::uint64_t i = 0; i < units; ++i) {
        ++ws_.lane_load[spread_cursor++ % lanes].value;
      }
    } else {
      ws_.lane_load[local % lanes].value += units;
    }
  };
  auto take_max_load = [&] {
    std::uint64_t best = 0;
    for (auto& l : ws_.lane_load) {
      best = std::max(best, l.value);
      l.value = 0;
    }
    return best;
  };

  // Request side: every owned vertex in a later bucket asks the owners of
  // qualifying neighbours for their distance. Long arcs are weight-sorted,
  // so the qualifying prefix (w < d(v) - k*Delta, eq. (1)) is a range scan;
  // under IOS the short arcs also qualify wholesale (w < Delta <= bound).
  // Requests are not reducible (each (u, v, w) asks a distinct question),
  // so they ride the pool purely for buffer reuse and zero-copy transport.
  ws_.req_pool.begin_phase();
  std::uint64_t requests = 0;
  for (vid_t v = 0; v < nloc_; ++v) {
    // Preset-settled vertices still pull: their distance is an upper bound
    // the current bucket's members may beat across a long arc, and a pull
    // phase is the only channel that improvement could arrive on (the
    // members' push was pruned away). Vertices settled *by this sweep* are
    // final, exactly as in a standard run.
    if (ws_.settled[v] && !(seeded_ && ws_.preset[v])) continue;
    const dist_t dv = dist_[v];
    if (bucket_of(dv, o.delta) <= k) continue;
    const dist_t bound = dv == kInfDist ? kInfDist : dv - kdelta;
    const vid_t gv = to_global(v);
    std::uint64_t sent = 0;
    for (const Arc& a : view_.long_arcs(v)) {
      if (static_cast<dist_t>(a.w) >= bound) break;  // weight-sorted
      ws_.req_pool.shard(0, job_.part.owner(a.to)).push_back({a.to, gv, a.w});
      ++sent;
    }
    if (o.ios) {
      for (const Arc& a : view_.short_arcs(v)) {
        if (static_cast<dist_t>(a.w) >= bound) continue;
        ws_.req_pool.shard(0, job_.part.owner(a.to)).push_back({a.to, gv, a.w});
        ++sent;
      }
    }
    requests += sent;
    charge(v, sent);
  }
  counters_.pull_requests += requests;
  ctx_.exchange_pooled(ws_.req_pool, PhaseKind::kPullRequest);
  std::uint64_t req_received = 0;
  for (const auto& b : ws_.req_pool.incoming()) req_received += b.size();
  const StepReduce red_req = account_step(
      take_max_load() + req_received / lanes + 1,
      requests * sizeof(PullReqMsg), requests);

  // Response side: answer only for sources settled in the current bucket.
  begin_relax_emit(/*reduce=*/true);
  std::uint64_t responses = 0;
  for (const auto& batch : ws_.req_pool.incoming()) {
    for (const PullReqMsg& m : batch) {
      const vid_t lu = to_local(m.u);
      assert(lu < nloc_);
      // Answering a request is work done by u's owner lane; heavy hubs
      // attract request floods, the very imbalance §III-E addresses.
      charge(lu, 1);
      if (ws_.member_stamp[lu] != ws_.epoch) continue;  // u not in B_k
      push_relax(0, {m.v, dist_[lu] + m.w, m.u});
      ++responses;
    }
  }
  counters_.pull_responses += responses;
  const std::uint64_t resp_posted = relax_exchange(PhaseKind::kPullResponse);
  const std::uint64_t applied = apply_incoming(kInfBucket, InsertMode::kNone);
  ++phases_;
  const StepReduce red_resp = account_step(
      take_max_load() + applied / lanes + 1, resp_posted * sizeof(RelaxMsg),
      responses);

  if (o.collect_bucket_details && !bucket_details_.empty() &&
      bucket_details_.back().bucket == k) {
    bucket_details_.back().pull_requests = red_req.sum_relax;
    bucket_details_.back().pull_responses = red_resp.sum_relax;
  }
  if (o.collect_phase_details) {
    phase_details_.push_back({k, PhaseDetail::Kind::kLongPull,
                              red_req.sum_relax + red_resp.sum_relax});
  }
}

void DeltaEngine::process_epoch(std::uint64_t k) {
  ++ws_.epoch;
  ws_.members.clear();
  {
    TimedSection sw(counters_.wall_bucket_time_s, tlane_, SpanCat::kBucketScan,
                    k);
    // next_bucket already collected the members of this rank's smallest
    // bucket; a rank whose smallest bucket lies above k has none in B_k.
    ws_.frontier.clear();
    if (k == local_min_bucket_) ws_.frontier.swap(ws_.bucket_members);
    for (const vid_t u : ws_.frontier) ws_.in_frontier[u] = 1;
    model_bkt_ns_ += cost_.scan_cost(job_.part.block_size());
  }
  ++buckets_;

  short_phases(k);

  if (classification_active()) {
    const bool pull = decide_long_mode(k);
    if (pull) {
      long_phase_pull(k);
    } else {
      long_phase_push(k);
    }
    pull_decisions_.push_back(pull);
  }

  {
    // Settling the epoch's members is bucket bookkeeping: charge it to
    // BktTime (it used to be an unattributed sliver of OtherTime).
    TimedSection sw(counters_.wall_bucket_time_s, tlane_, SpanCat::kBucketScan,
                    k);
    for (const vid_t u : ws_.members) ws_.settled[u] = 1;
    settled_local_cum_ += ws_.members.size();
  }
}

void DeltaEngine::bellman_ford_tail(std::uint64_t from_bucket) {
  switched_ = true;
  switch_bucket_ = from_bucket;

  {
    TimedSection sw(counters_.wall_bucket_time_s, tlane_, SpanCat::kBucketScan,
                    from_bucket);
    ws_.frontier = collect_unsettled_reached(dist_, ws_.settled);
    for (const vid_t u : ws_.frontier) ws_.in_frontier[u] = 1;
    model_bkt_ns_ += cost_.scan_cost(job_.part.block_size());
  }
  ++buckets_;  // the grouped bucket "B"

  while (any_active_globally(!ws_.frontier.empty())) {
    ++phases_;
    ScopedSpan span(tlane_, SpanCat::kBellmanFord, from_bucket);
    std::vector<vid_t>& active = ws_.active;
    active.swap(ws_.frontier);
    ws_.frontier.clear();
    for (const vid_t u : active) ws_.in_frontier[u] = 0;

    const unsigned lanes = ctx_.pool().lanes();
    begin_relax_emit(/*reduce=*/true);
    lane_parallel_arcs(
        ctx_.pool(), active, view_, opt_.heavy_degree_threshold,
        [&](vid_t u) { return view_.all_arcs(u); },
        [&](unsigned lane, vid_t u, const Arc& a) {
          ++ws_.lane_emitted[lane].value;
          push_relax(lane, {a.to, dist_[u] + a.w, to_global(u)});
        });
    const auto [emitted, max_lane] = emit_totals();
    counters_.bf_relaxations += emitted;

    const std::uint64_t posted = relax_exchange(PhaseKind::kBellmanFord);
    // Any improved vertex becomes active next round, bucket-agnostic.
    const std::uint64_t applied =
        apply_incoming(kInfBucket, InsertMode::kAny);
    const StepReduce red = account_step(max_lane + applied / lanes,
                                        posted * sizeof(RelaxMsg), emitted);
    if (opt_.collect_phase_details) {
      phase_details_.push_back(
          {from_bucket, PhaseDetail::Kind::kBellmanFord, red.sum_relax});
    }
  }
}

void DeltaEngine::apply_seeds() {
  if (job_.seeds == nullptr) return;
  for (const RelaxMsg& m : *job_.seeds) {
    if (job_.part.owner(m.v) != ctx_.rank()) continue;
    const vid_t local = to_local(m.v);
    if (m.nd >= dist_[local]) continue;
    if (ws_.settled[local]) {
      ws_.settled[local] = 0;
      ws_.preset[local] = 0;
      --settled_local_cum_;
    }
    dist_[local] = m.nd;
    if (!changed_.empty()) changed_[local] = 1;
    if (!parent_.empty()) parent_[local] = m.pred;
  }
}

RankCounters DeltaEngine::run() {
  ctx_.set_trace(tlane_);
  double total_wall = 0;
  {
    PhaseTimer total(total_wall);
    ScopedSpan solve(tlane_, SpanCat::kSolve, ctx_.rank());
    {
      ScopedSpan init(tlane_, SpanCat::kInit);
      if (seeded_) {
        // The caller provided complete tentative dist/parent arrays; the
        // init step only folds in the seed relaxations this rank owns.
        apply_seeds();
      } else {
        std::fill(dist_.begin(), dist_.end(), kInfDist);
        if (!parent_.empty()) {
          std::fill(parent_.begin(), parent_.end(), kInvalidVid);
        }
        if (job_.part.owner(job_.root) == ctx_.rank()) {
          dist_[to_local(job_.root)] = 0;
          if (!parent_.empty()) parent_[to_local(job_.root)] = job_.root;
        }
      }
      ctx_.barrier();
    }

    std::uint64_t k = next_bucket(kBeforeFirst);
    while (k != kInfBucket) {
      process_epoch(k);
      k = next_bucket(static_cast<std::int64_t>(k));
      if (k == kInfBucket) break;
      if (opt_.hybrid_tau >= 0.0) {
        // Only the switch *decision* is bucket bookkeeping. The tail itself
        // must run outside this timer: it used to be called from inside the
        // BktTime stopwatch, so its whole wall time landed in BktTime *and*
        // its own bucket-scan sections were counted a second time, which
        // could drive OtherTime = total - BktTime negative.
        bool switch_now = false;
        {
          TimedSection sw(counters_.wall_bucket_time_s, tlane_,
                          SpanCat::kBucketScan, k);
          const std::uint64_t settled_total =
              ctx_.allreduce(settled_local_cum_, SumOp{});
          model_bkt_ns_ += cost_.scan_cost(0);
          switch_now = should_switch_to_bellman_ford(
              settled_total, job_.part.num_vertices(), opt_.hybrid_tau);
        }
        if (switch_now) {
          bellman_ford_tail(k);
          break;
        }
      }
    }
  }
  ctx_.set_trace(nullptr);
  counters_.wall_other_time_s = total_wall - counters_.wall_bucket_time_s;
  finalize();
  return counters_;
}

void DeltaEngine::finalize() {
  // Synchronization cost of the solve body (this final reduction included:
  // +1 below). Collective discipline makes the counts rank-identical, but
  // the reduction maxes anyway so a straggler shows rather than hides.
  counters_.allreduces = ctx_.traffic().allreduces - sync0_allreduces_ + 1;
  counters_.barriers = ctx_.traffic().barriers - sync0_barriers_;
  // Wall time of the run: bottleneck across ranks.
  const double wall =
      counters_.wall_bucket_time_s + counters_.wall_other_time_s;
  struct WallReduce {
    double total;
    double bucket;
    std::uint64_t allreduces;
    std::uint64_t barriers;
  };
  struct WallReduceOp {
    WallReduce operator()(const WallReduce& a, const WallReduce& b) const {
      return {std::max(a.total, b.total), std::max(a.bucket, b.bucket),
              std::max(a.allreduces, b.allreduces),
              std::max(a.barriers, b.barriers)};
    }
  };
  const WallReduce wr = ctx_.allreduce(
      WallReduce{wall, counters_.wall_bucket_time_s, counters_.allreduces,
                 counters_.barriers},
      WallReduceOp{});

  if (ctx_.rank() == 0) {
    SsspStats& s = *job_.stats;
    s.sync_allreduces = wr.allreduces;
    s.sync_barriers = wr.barriers;
    s.phases = phases_;
    s.buckets = buckets_;
    s.switched_to_bf = switched_;
    s.bf_switch_bucket = switch_bucket_;
    s.pull_decisions = pull_decisions_;
    s.phase_details = std::move(phase_details_);
    s.bucket_details = std::move(bucket_details_);
    s.model_bucket_time_s = model_bkt_ns_ * 1e-9;
    s.model_other_time_s = model_other_ns_ * 1e-9;
    s.model_time_s = (model_bkt_ns_ + model_other_ns_) * 1e-9;
    s.wall_time_s = wr.total;
    s.wall_bucket_time_s = wr.bucket;
    s.wall_other_time_s = wr.total - wr.bucket;
  }
}

RankCounters run_sssp_job(RankCtx& ctx, const EngineJob& job,
                          const SsspOptions& options) {
  DeltaEngine engine(ctx, job, options);
  return engine.run();
}

}  // namespace parsssp
