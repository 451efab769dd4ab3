"""Scenario: tuning the star-query space/delay tradeoff (Theorem 2).

A recommendation-style workload: triples of users who interacted with a
common item (the star query Q*_3), ranked by combined user weight.  The
ε knob moves smoothly between "no preprocessing, pay per answer"
(ε = 0, Theorem 1 behaviour) and "materialise everything, answer
instantly" (ε = 1) — the paper's Figure 7.  The instance is small
(|D| = 250, ~33k distinct answers) so that all five settings enumerate
their whole output in a few seconds; ``benchmarks/bench_fig7_star_tradeoff.py``
sweeps the same tradeoff at scale.

Run:  python examples/star_tradeoff.py
"""

import time

from repro.core import StarTradeoffEnumerator
from repro.workloads import make_imdb_like, star


def main() -> None:
    workload = make_imdb_like(scale=0.05, seed=3)
    spec = star(3)
    ranking = workload.ranking(spec, kind="sum")
    print(f"dataset: {workload.name}, |D| = {workload.db.size}")
    print(f"query:   {spec.query}\n")

    print(f"{'epsilon':>8} | {'delta':>6} | {'|O_H| (extra space)':>20} | "
          f"{'preprocess (ms)':>15} | {'delay (us/answer)':>17}")
    print("-" * 80)
    reference = None
    for epsilon in (0.0, 0.25, 0.5, 0.75, 1.0):
        enum = StarTradeoffEnumerator(
            spec.query, workload.db, ranking, epsilon=epsilon
        )
        t0 = time.perf_counter()
        enum.preprocess()
        t_pre = time.perf_counter() - t0
        t0 = time.perf_counter()
        answers = [a.values for a in enum]
        t_enum = time.perf_counter() - t0
        if reference is None:
            reference = answers
        assert answers == reference, "tradeoff must not change the output"
        print(
            f"{epsilon:>8.2f} | {enum.delta:>6} | {enum.heavy_output_size:>20} | "
            f"{t_pre * 1e3:>15.1f} | {t_enum / len(answers) * 1e6:>17.1f}"
        )
    print(f"\ntotal distinct answers: {len(reference)}")
    print("The output is identical at every ε; only where the time is spent moves.")


if __name__ == "__main__":
    main()
