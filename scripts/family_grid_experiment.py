"""Sweep the feasible (a, c) grid: indistinguishability and certification.

For each member this prints the worst correlation deviation from the
reference, the certification verdict, and the recovered flag populations.
Everything is exact algebra; no sampling.
"""

import numpy as np

from conjsim.family import SimParams
from conjsim.selftest import (
    check_against_reference,
    correlations,
    family_experiment,
    reference_experiment,
    run_selftest,
)


def grid():
    out = []
    for a in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        cmax = np.sqrt(a * (1 - a))
        for c in dict.fromkeys([0.0, cmax, cmax * 1j, cmax * np.exp(0.7j) / 2]):
            out.append(SimParams(a, c))
    return out


def main():
    print(f"{'a':>5} {'|c|':>6} {'arg c':>6} | {'worst dev':>10} "
          f"{'state fid':>10} {'pop_0':>7} {'pop_1':>7} verdict")
    print("-" * 72)
    ref = correlations(reference_experiment("extended"))
    for p in grid():
        exp = family_experiment(p, "extended")
        stats = check_against_reference(correlations(exp), ref, tol=1e-10)
        report = run_selftest(exp)
        pops = report.family_params
        print(f"{p.a:5.2f} {abs(p.c):6.3f} {np.angle(p.c):6.2f} | "
              f"{stats.worst_deviation:10.2e} {report.state_fidelity:10.7f} "
              f"{pops.population_0:7.4f} {pops.population_1:7.4f} "
              f"{'pass' if report.passed else 'FAIL ' + ','.join(report.failures)}")


if __name__ == "__main__":
    main()
