"""Arithmetic behind the reported numbers: percentiles, failure share, span
self time and the rate-ladder rule. Pure functions over raw samples, so
test_metrics.py can pin each one down without running a workload."""

import math

INF = math.inf


def nearest_rank(values, p):
    """The ceil(p * n)-th smallest value (1-based): an observed sample,
    never an interpolation. `values` may hold INF for failed operations."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 1:
        raise ValueError("percentile must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p * n - 1e-9))


def check_supported(n, p, min_beyond=10):
    """Raises unless at least `min_beyond` samples lie beyond the p-th
    percentile of n samples, the rule every reported tail keeps."""
    if beyond(n, p) < min_beyond:
        raise ValueError(f"p{p * 100:g} of {n} samples has only "
                         f"{beyond(n, p)} beyond it")


def tail_percentile(n, candidates=(0.99, 0.95, 0.9, 0.75, 0.5)):
    """The highest candidate percentile with at least ten samples beyond it
    (0.5 when even the median has fewer)."""
    for p in candidates:
        if beyond(n, p) >= 10:
            return p
    return 0.5


def sliced(values, k, stat):
    """Median over k consecutive, equal slices of `stat(slice)`: a slow
    spell that covers less than half the slices does not move it."""
    n = len(values) // k
    if n == 0:
        raise ValueError("fewer samples than slices")
    return median([stat(values[i * n:(i + 1) * n]) for i in range(k)])


def median_by_key(keys, values):
    """{key: median of the values recorded under it}."""
    groups = {}
    for k, v in zip(keys, values):
        groups.setdefault(k, []).append(v)
    return {k: median(v) for k, v in groups.items()}


def failure_share(attempted, failed):
    """Failed operations as a share of those attempted."""
    if attempted <= 0:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def latencies(start, end, ok):
    """end - start per operation; a failed operation counts as INF, so it
    misses every latency limit and pushes every percentile up."""
    return [e - s if good else INF for s, e, good in zip(start, end, ok)]


def median(values):
    return nearest_rank(values, 0.5)


def harmonic_mean(values):
    """Harmonic mean; 0 when any value is 0 (a failed solve)."""
    if not values:
        raise ValueError("harmonic mean of an empty sample")
    if any(v <= 0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans, waits=frozenset()):
    """Self time per category over the spans of one lane.

    `spans` is a list of (category, start, duration) in recording order. A
    span's children are the spans of the same lane that lie inside it, and
    its self time is its duration minus the part of it their union covers.
    Categories in `waits` record an interval something waited through
    (queue wait, snapshot limbo) rather than work: they keep their full
    duration and are neither parents nor children of other spans.

    Returns {category: total self time}."""
    out = {}
    work = []
    for i, (cat, start, dur) in enumerate(spans):
        if cat in waits:
            out[cat] = out.get(cat, 0) + dur
        else:
            work.append((start, start + dur, i, cat))
    # Outer spans first: earlier start, then later end, then recorded
    # later (a scope's span is recorded after the spans nested in it).
    work.sort(key=lambda s: (s[0], -s[1], -s[2]))
    children = {}
    stack = []
    for start, end, i, cat in work:
        # Every span left on the stack starts no later than this one; the
        # innermost that also ends no earlier contains it.
        while stack and stack[-1][1] < end:
            stack.pop()
        if stack:
            children.setdefault(stack[-1][2], []).append((start, end))
        stack.append((start, end, i))
    for start, end, i, cat in work:
        covered = union_length(
            [(max(s, start), min(e, end)) for s, e in children.get(i, [])])
        out[cat] = out.get(cat, 0) + (end - start) - covered
    return out


def backlog_at(t, arrive, done, ok):
    """Operations that had arrived by time t and were not yet done (failed
    ones never finish)."""
    return sum(1 for a, d, good in zip(arrive, done, ok)
               if a <= t and (not good or d > t))


def max_outstanding(arrive, done, ok):
    """Largest number of operations arrived and not yet done at once."""
    events = []
    for a, d, good in zip(arrive, done, ok):
        events.append((a, 1))
        if good:
            events.append((d, -1))
    depth = peak = 0
    # At equal times completions go first: a slot freed and reused at the
    # same instant does not count twice.
    for _, step in sorted(events, key=lambda e: (e[0], e[1])):
        depth += step
        peak = max(peak, depth)
    return peak


def rung_passes(rate, lat_s, backlog_end, limit_s, p=0.99, slack=0):
    """One rung of the rate ladder meets the limit when its p-th percentile
    latency is within `limit_s` and its backlog is not growing. By Little's
    law a queue that keeps its latency within the limit holds at most
    rate * limit_s operations; more than that (plus `slack`, one batch of
    in-service work) left at the end of the rung means arrivals outran
    service."""
    if nearest_rank(lat_s, p) > limit_s:
        return False
    return backlog_end <= rate * limit_s + slack


def sustained_rate(rungs, limit_s, p=0.99, slack=0):
    """Highest rate of an ascending ladder whose rung, and every rung below
    it, passes; 0 when the lowest rung fails. `rungs` holds
    (rate, latencies_s, backlog_at_end) tuples."""
    best = 0.0
    for rate, lat_s, backlog_end in sorted(rungs, key=lambda r: r[0]):
        if not rung_passes(rate, lat_s, backlog_end, limit_s, p, slack):
            break
        best = rate
    return best
