"""Seeded request-script generators for the perfbench workloads.

Everything here is a pure function of its arguments: the same seed gives
byte-identical scripts (tests/test_perfbench.py pins this). The program
under test only ever sees the generated request lines.

A script is a list of ``(op_class, request_json)`` pairs. ``op_class`` is
the latency class the load generator reports the round trip under; it
never reaches the server.
"""

import json
import random

# The tw-mask synthetic analog (two candidates), horizon 20, at three
# sizes. `scale` multiplies the analog's 8000 nodes.
INSTANCES = {
    "tw8k": {"scale": 1.0, "theta": 2 ** 18},
    "tw4k": {"scale": 0.5, "theta": 2 ** 17},
    "tw100k": {"scale": 12.5, "theta": 2 ** 21},
}

# Rank-sensitive and Copeland rules: the non-submodular sandwich path.
RANK_RULES = (
    {"rule": "plurality"},
    {"rule": "papproval", "p": 2},
    {"rule": "borda"},
    {"rule": "copeland"},
)

EVALUATE_POOL = 512  # distinct evaluate requests per script set


def render(request):
    """One request line; key order and spacing are fixed."""
    return json.dumps(request, separators=(", ", ": "))


def split_counts(total, shares):
    """Splits `total` into whole counts proportional to `shares`.

    Largest-remainder rounding, ties to the earlier share, so the counts
    always sum to `total` and depend on nothing but the arguments.
    """
    weight = float(sum(shares))
    exact = [total * s / weight for s in shares]
    counts = [int(x) for x in exact]
    order = sorted(range(len(shares)), key=lambda i: (counts[i] - exact[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def evaluate_pool(rng, n, size=EVALUATE_POOL):
    """Distinct evaluate requests: 1-5 seeds, a third with one override."""
    pool = []
    seen = set()
    while len(pool) < size:
        seeds = sorted(rng.sample(range(n), rng.randint(1, 5)))
        request = {"op": "evaluate", "seeds": seeds}
        if len(pool) % 3 == 2:
            request["override"] = [[rng.randrange(n),
                                    rng.randint(0, 100) / 100.0]]
        line = render(request)
        if line not in seen:
            seen.add(line)
            pool.append(line)
    return pool


def with_yardstick(script, every):
    """`script` with a yardstick line before every `every`-th request and
    after the last one. The client times a pass of the host-speed
    yardstick there instead of sending a request."""
    mark = ("yardstick", "-")
    out = []
    for i, item in enumerate(script):
        if i % every == 0:
            out.append(mark)
        out.append(item)
    out.append(mark)
    return out


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def interactive_script(rng, pool, count):
    """The interactive mix: 65% evaluate, 30% cumulative top-k at
    k in {10, 25, 50}, 5% cumulative min-seed at k_max = 32."""
    n_eval, n_topk, n_minseed = split_counts(count, (65, 30, 5))
    script = [("evaluate", rng.choice(pool)) for _ in range(n_eval)]
    for k, c in zip((10, 25, 50), split_counts(n_topk, (1, 1, 1))):
        script += [("topk", render({"op": "topk", "k": k}))] * c
    script += [("minseed", render({"op": "minseed", "k_max": 32}))] * n_minseed
    return shuffled(rng, script)


def interactive_warmup():
    """One request of each interactive class (untimed)."""
    return [("evaluate", render({"op": "evaluate", "seeds": [0]})),
            ("topk", render({"op": "topk", "k": 10})),
            ("minseed", render({"op": "minseed", "k_max": 32}))]


def rank_requests():
    """The rank_sweep request set: top-k under each rank rule at
    k in {10, 25}."""
    out = []
    for rule in RANK_RULES:
        for k in (10, 25):
            out.append(render(dict({"op": "topk", "k": k}, **rule)))
    return out


def rulesweep_request():
    return render({"op": "rulesweep", "v": 2, "k": 10})


def rank_script(rng, count):
    """rank_sweep: 90% rank-rule top-k spread evenly over the eight
    (rule, k) pairs, 10% rulesweep at k = 10."""
    n_topk, n_sweep = split_counts(count, (90, 10))
    topk = rank_requests()
    script = []
    for line, c in zip(topk, split_counts(n_topk, [1] * len(topk))):
        script += [("rank_topk", line)] * c
    script += [("rulesweep", rulesweep_request())] * n_sweep
    return shuffled(rng, script)


def rank_warmup():
    return [("rank_topk", rank_requests()[0]),
            ("rulesweep", rulesweep_request())]


class MutationGenerator:
    """Valid mutation batches against a known base edge set.

    Each batch holds `edges_per_batch` edge edits and one set_opinion.
    Adds pick a directed pair that is neither a self loop, nor a base
    edge, nor an edge this generator added and has not deleted. Deletes
    remove only edges added by an earlier batch, oldest first, so the
    edge count hovers at `live_target` added edges above the base graph.
    Opinion values and candidates are always in range.
    """

    def __init__(self, rng, n, base_edges, num_candidates=2,
                 edges_per_batch=7, live_target=32):
        self.rng = rng
        self.n = n
        self.base_edges = base_edges
        self.num_candidates = num_candidates
        self.edges_per_batch = edges_per_batch
        self.live_target = live_target
        self.live = []  # added and not yet deleted, oldest first
        self.live_set = set()

    def _new_edge(self):
        while True:
            u, v = self.rng.randrange(self.n), self.rng.randrange(self.n)
            if u != v and (u, v) not in self.base_edges and \
                    (u, v) not in self.live_set:
                return u, v

    def batch(self):
        """The next batch as a list of mutation objects."""
        mutations = []
        added = []  # joins self.live only after the batch: never deleted
        for _ in range(self.edges_per_batch):
            if self.live and (len(self.live) + len(added) >= self.live_target
                              or self.rng.random() < 0.5):
                u, v = self.live.pop(0)
                self.live_set.discard((u, v))
                mutations.append({"kind": "edge_del", "from": u, "to": v})
            else:
                u, v = self._new_edge()
                self.live_set.add((u, v))
                added.append((u, v))
                weight = self.rng.randint(50, 200) / 100.0
                mutations.append({"kind": "edge_add", "from": u, "to": v,
                                  "weight": weight})
        self.live.extend(added)
        mutations.append({"kind": "set_opinion",
                          "candidate": self.rng.randrange(self.num_candidates),
                          "node": self.rng.randrange(self.n),
                          "value": self.rng.randint(0, 100) / 100.0})
        return mutations

    def request(self):
        return render({"op": "mutate", "v": 4, "mutations": self.batch()})


def churn_final_queries(pool):
    """The fixed query set answered after a churn run, byte-checked
    against a fresh engine that replays the same mutation script."""
    lines = [("topk", render({"op": "topk", "k": k})) for k in (10, 25, 50)]
    lines.append(("minseed", render({"op": "minseed", "k_max": 32})))
    lines += [("evaluate", line) for line in pool[:16]]
    return lines


def read_edges(path):
    """The (from, to) pairs of a bundle's `.influence.edges` member."""
    edges = set()
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 2:
                edges.add((int(parts[0]), int(parts[1])))
    return edges


def make_rng(seed, stream):
    """An independent generator per (run seed, script stream)."""
    return random.Random("%d/%s" % (seed, stream))
