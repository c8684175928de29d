"""Run the 6-state protocol against each adversary strategy and tabulate QBER.

Shows the security-reduction story end to end: every family member is
error-free, premeasuring the flags causes no error in any basis, and pinning
mismatched flags errs in every sifted Y round and in no X or Z round, so Eve,
who pinned them, knows to flip her Y bits.  Both facts are read off the
sifted reports: a cell of probability 0 is never drawn.
"""

from conjsim.family import SimParams
from conjsim.sixstate import (
    BASES,
    Conjugate,
    Honest,
    MismatchedFlags,
    ZPremeasure,
    run_rounds,
    sift,
)

N = 30_000
SEED = 7


def show(name, report):
    rates = " ".join(f"{b}={report.rates[b]:.3f}" for b in BASES)
    print(f"{name:<28} sift={report.sift_fraction:.3f}  {rates}  -> {report.verdict}")


def main():
    print(f"n = {N} rounds per strategy, seed = {SEED}\n")
    strategies = [
        ("honest a=1 (reference)", Honest(SimParams(1.0, 0.0))),
        ("honest a=0.5 c=0.5", Honest(SimParams(0.5, 0.5))),
        ("honest a=0.25 c=0.2i", Honest(SimParams(0.25, 0.2j))),
        ("conjugate", Conjugate()),
        ("zpremeasure a=0.5 c=0.5", ZPremeasure(SimParams(0.5, 0.5))),
        ("mismatched flags (0,0)", MismatchedFlags(0, 0)),
        ("mismatched flags (0,1)", MismatchedFlags(0, 1)),
        ("mismatched flags (1,1)", MismatchedFlags(1, 1)),
    ]
    reports = {name: sift(run_rounds(strat, N, SEED)) for name, strat in strategies}
    for name, report in reports.items():
        show(name, report)

    premeasured = reports["zpremeasure a=0.5 c=0.5"]
    errors = " ".join(f"{b}={premeasured.errors[b]}" for b in BASES)
    print(f"\nEve premeasures the flags (a=0.5 c=0.5): errors {errors}")
    mismatched = reports["mismatched flags (0,1)"]
    errors = " ".join(f"{b}={mismatched.errors[b]}/{mismatched.sifted[b]}" for b in BASES)
    print(f"Eve pins the flags (0,1): errors/sifted {errors}; "
          f"flipping her Y bits leaves {mismatched.sifted['Y'] - mismatched.errors['Y']} "
          f"Y errors")


if __name__ == "__main__":
    main()
