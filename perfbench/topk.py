"""``paper-topk``: cold ``ORDER BY ... LIMIT k`` requests, preprocessing included.

The request mix is every combination of {2hop, 3hop, 4hop, star3 on the
DBLP-like and IMDB-like graphs at scale 0.7 (|D| = 2800 and 3500: the
default bulk top-k path is still 3-19x slower than the heap path there
on 3hop/4hop/star3, and the run peaks under 1 GB); the bipartite 4-cycle on a small
DBLP-like instance (scale 0.15: it takes seconds at scale 1); an
LDBC-like union} x {SUM, LEX} x k in {1, 10, 100}, issued in an order
shuffled by the seed.  Every request builds a fresh ranking object, so
the engine's plan cache misses and each request pays parse (first time
per text), plan, reduce, score, queue build and the bulk top-k dispatch
the engine turns on by default.

The graphs are the generators' canonical instances; the seed draws the
order and a fresh random entity-weight table for every request.  Sixty
independent weight draws per pass average out; a fresh graph per seed
did not (the bulk path's join size, and with it peak memory, moved with
each graph's heavy hitters).
"""

from __future__ import annotations

import random
import time

from harness import Sample, State, digest, work_counts

TEXT = {
    "2hop": "Q(a1, a2) :- E(a1, p), E(a2, p)",
    "3hop": "Q(a1, p2) :- E(a1, p1), E(a2, p1), E(a2, p2)",
    "4hop": "Q(a1, a3) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a3, p2)",
    "star3": "Q(a1, a2, a3) :- E(a1, p), E(a2, p), E(a3, p)",
    "4cycle": "Q(a1, a2) :- E(a1, p1), E(a2, p1), E(a2, p2), E(a1, p2)",
    "union": "Q(x, y) :- K(x, z), K(y, z) ; Q(x, y) :- P(x, m), P(y, m)",
}

#: dataset -> queries asked of it.
SHAPES = {
    "dblp": ("2hop", "3hop", "4hop", "star3"),
    "imdb": ("2hop", "3hop", "4hop", "star3"),
    "bip": ("4cycle",),
    "ldbc": ("union",),
}
KINDS = ("sum", "lex")
SCALE = 0.7
LIMITS = (1, 10, 100)

#: Shapes whose full join is small enough for the materialise-and-sort
#: baseline to serve as a second oracle, at the small limits.  Its cost
#: does not depend on k, and it runs once per class, so larger joins or
#: limits would make the check cost more than the timed loop.
BASELINE_SHAPES = {("dblp", "2hop"), ("bip", "4cycle"), ("ldbc", "union")}
BASELINE_LIMITS = (1, 10)


def generate(seed: int) -> dict:
    from repro.workloads import make_dblp_like, make_imdb_like, make_ldbc_like
    from repro.workloads.weights import random_weights

    made = {
        "dblp": make_dblp_like(SCALE),
        "imdb": make_imdb_like(SCALE),
        "bip": make_dblp_like(0.15),
        "ldbc": make_ldbc_like(10.0),
    }
    # Entity kind -> domain size, per dataset (what the weights cover).
    domains = {
        name: {kind: len(table) for kind, table in w.entity_weights["random"].items()}
        for name, w in made.items()
    }
    requests = [
        {"cls": f"{name}/{shape}/{kind}/k{k}", "db": name, "shape": shape, "kind": kind, "k": k}
        for name, shapes in SHAPES.items()
        for shape in shapes
        for kind in KINDS
        for k in LIMITS
    ]
    rng = random.Random(seed)
    rng.shuffle(requests)
    for request in requests:
        request["weights"] = {
            entity: random_weights(range(size), seed=rng.randrange(2**32))
            for entity, size in domains[request["db"]].items()
        }
    return {
        "datasets": {
            name: {
                "relations": {
                    rel: (w.db[rel].attrs, list(w.db[rel].tuples)) for rel in w.db.names()
                },
                "meta": w.meta,
                "label": w.name,
            }
            for name, w in made.items()
        },
        "requests": requests,
    }


def setup(inputs: dict) -> State:
    from repro import Database, QueryEngine

    engines, dbs = {}, {}
    for name, part in inputs["datasets"].items():
        db = Database()
        for rel, (attrs, rows) in part["relations"].items():
            db.add_relation(rel, attrs, rows)
        engines[name] = QueryEngine(db)
        dbs[name] = db
    return State(engines=engines, dbs=dbs, inputs=inputs)


def _spec(shape: str):
    from repro.workloads import bipartite_cycle, four_hop, ldbc_q3_like, star, three_hop, two_hop

    return {
        "2hop": two_hop,
        "3hop": three_hop,
        "4hop": four_hop,
        "star3": lambda: star(3),
        "4cycle": lambda: bipartite_cycle(2),
        "union": ldbc_q3_like,
    }[shape]()


def cycle(state: State, seed: int) -> list[dict]:
    return state.inputs["requests"]


def ranking_for(state: State, request: dict):
    """A fresh ranking object over this request's own weight draw."""
    from repro.workloads import Workload

    part = state.inputs["datasets"][request["db"]]
    workload = Workload(part["label"], state.dbs[request["db"]], {"random": request["weights"]}, part["meta"])
    return workload.ranking(_spec(request["shape"]), kind=request["kind"])


def execute(state: State, request: dict) -> list[Sample]:
    engine = state.engines[request["db"]]
    ranking = ranking_for(state, request)
    before = engine.stats.snapshot()
    sample = Sample(request["cls"], time.perf_counter())
    answers = engine.execute(TEXT[request["shape"]], ranking, k=request["k"])
    sample.arrivals.append((time.perf_counter(), len(answers)))
    sample.answers = [(a.values, a.score) for a in answers]
    sample.counts = work_counts(engine, engine.last_enumerator, before)
    sample.extra["request"] = request
    return [sample]


def verify(state: State, samples) -> list[str]:
    """Every request against ``enumerate_ranked``; small ones also the baseline."""
    from repro import enumerate_ranked, parse_query
    from repro.algorithms.baseline import EngineBaseline
    failures: list[str] = []
    reference: dict[str, str] = {}
    for s in samples:
        if s.error is not None:
            continue
        if s.cls not in reference:
            name, shape, _kind, k = s.cls.split("/")
            k = int(k[1:])
            query = parse_query(TEXT[shape])
            db = state.dbs[name]
            ranking = ranking_for(state, s.extra["request"])
            answers = enumerate_ranked(query, db, ranking, k=k)
            reference[s.cls] = digest((a.values, a.score) for a in answers)
            if (name, shape) in BASELINE_SHAPES and k in BASELINE_LIMITS:
                base = EngineBaseline(query, db, ranking).top_k(k)
                if digest((a.values, a.score) for a in base) != reference[s.cls]:
                    failures.append(f"{s.cls}: enumerate_ranked and the baseline disagree")
        if s.digest != reference[s.cls]:
            failures.append(f"{s.cls} (request {s.rid}): answers differ from enumerate_ranked")
    return failures


def sizes(state: State) -> dict:
    from harness import relation_sizes

    out = {}
    for name, db in state.dbs.items():
        out.update(relation_sizes(db, prefix=f"{name}."))
    return out
