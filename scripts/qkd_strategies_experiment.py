"""Run the 6-state protocol against each adversary strategy and tabulate QBER.

Shows the security-reduction story end to end: every family member is
error-free, premeasuring the flags changes nothing (its exact cell law, flags
summed out, is the honest one), and pinning mismatched flags flips exactly
the Y basis, which Eve can undo in her own reckoning.
"""

from conjsim.family import SimParams
from conjsim.linalg import ATOL, failing
from conjsim.sixstate import (
    Conjugate,
    Honest,
    MismatchedFlags,
    ZPremeasure,
    eve_flip_correction,
    run_rounds,
    sift,
    zpremeasure_analysis,
)

N = 30_000
SEED = 7


def show(name, report):
    rates = " ".join(f"{b}={report.rates[b]:.3f}" for b in ("X", "Y", "Z"))
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
    for name, strat in strategies:
        show(name, sift(run_rounds(strat, N, SEED)))

    print("\nEve's correction of the (0,1) mismatch:")
    report = sift(run_rounds(MismatchedFlags(0, 1), N, SEED))
    show("  before correction", report)
    show("  after correction", eve_flip_correction(report, (0, 1)))

    print("\nPremeasurement vs honest, a=0.5 c=0.5, exact cell laws:")
    residuals = zpremeasure_analysis(SimParams(0.5, 0.5))
    diffs = " ".join(f"{b}={residuals[f'rate:{b}']:.1e}" for b in ("X", "Y", "Z"))
    print(f"  rate differences {diffs}; largest cell difference {residuals['cells']:.1e}; "
          f"within tolerance: {not failing(residuals, ATOL)}")


if __name__ == "__main__":
    main()
