"""Command-line front-end: props, selftest, simulate, and qkd subcommands.

Exit codes: 0 = checks passed (or an adversarial strategy behaved as
documented), 1 = check failure or internal numerical failure, 2 = usage or
configuration error.  Every
report embeds the effective config, the seed, and the toolkit version.  A
JSON config file can stand in for flags; explicitly given flags win.

Each subcommand imports the numeric modules it runs only when it runs, after
the checks that need nothing but its flags, so parsing and usage errors never
load numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    import numpy as np

    from .family import SimParams

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _user_input(what: str):
    """Turn what decoding a malformed flag value or JSON document raises into a UsageError."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
        detail = str(err) if isinstance(err, ValueError) else f"{type(err).__name__}: {err}"
        raise UsageError(f"{what}: {detail}") from None


def _read_document(flag: str, path: str):
    """The JSON document at ``path``; an unreadable, non-UTF-8 or non-JSON file is a UsageError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        detail = err.strerror or str(err)
    except UnicodeDecodeError as err:
        detail = f"not UTF-8 text ({err.reason} at byte {err.start})"
    except json.JSONDecodeError as err:
        detail = f"not JSON ({err})"
    raise UsageError(f"{flag} {path}: {detail}")


def _check_output(flag: str, path: str) -> None:
    """Refuse, before any work, an output path that is a directory or has no parent directory."""
    if Path(path).is_dir():
        raise UsageError(f"{flag} {path}: Is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):      # the dirname of "d/" is d
        raise UsageError(f"{flag} {path}: parent directory does not exist")


def _write_output(path: str, write) -> None:
    """Call ``write(file)`` on a new file beside ``path``, then move it onto ``path``.

    A run that fails before or while writing leaves any file already at ``path`` intact.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as out:
            write(out)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _parse_kv(tokens, allowed, what):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"{what}: expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if key not in allowed:
            raise UsageError(f"{what}: unknown key {key!r} (allowed: {sorted(allowed)})")
        out[key] = val
    return out


def _family_params(tokens, flag: str) -> SimParams:
    """The family member named by key=value tokens; ``flag`` names their source in errors."""
    kv = _parse_kv(tokens, {"a", "c", "c_abs", "c_phase"}, flag)
    if "a" not in kv:
        raise UsageError(f"{flag} requires a=<float>")
    from .family import SimParams

    with _user_input(flag):
        c_abs = float(kv.get("c_abs", kv.get("c", 0.0)))
        return SimParams.from_polar(float(kv["a"]), c_abs, float(kv.get("c_phase", 0.0)))


def _strategy(tokens):
    if not tokens:
        raise UsageError("--strategy requires a strategy name")
    name, rest = tokens[0], tokens[1:]
    from .sixstate import Conjugate, Honest, MismatchedFlags, ZPremeasure

    if name == "honest":
        return Honest(_family_params(rest, "--strategy honest"))
    if name == "conjugate":
        return Conjugate()
    if name == "zpremeasure":
        return ZPremeasure(_family_params(rest, "--strategy zpremeasure"))
    if name == "mismatched":
        if len(rest) != 2:
            raise UsageError("--strategy mismatched needs two flag bits")
        with _user_input("--strategy mismatched"):
            return MismatchedFlags(int(rest[0]), int(rest[1]))
    if name == "custom":
        if len(rest) != 1:
            raise UsageError("--strategy custom needs a JSON state/strategy path")
        data = _read_document("--strategy custom", rest[0])
        from .serialize import strategy_from_json

        with _user_input(rest[0]):
            if "strategy" not in data:
                data = {"strategy": "custom_state", "state": data}
            return strategy_from_json(data)
    raise UsageError(f"unknown strategy {name!r}")


def _wrap(results: dict, config: dict, seed) -> str:
    from .serialize import dumps

    return dumps({"version": __version__, "seed": seed, "config": config,
                  "results": results})


def _emit(text: str, out: str | None):
    if out:
        _write_output(out, lambda f: f.write(text))
    else:
        sys.stdout.write(text)


def cmd_props(args) -> int:
    trials = args.trials if args.trials is not None else 100
    dim = args.dim if args.dim is not None else 4
    if dim > 8:
        raise UsageError(f"--dim {dim} exceeds the supported bound 8")
    import numpy as np

    from .family import c_property_suite, hamiltonian_identity_residual
    from .linalg import is_hermitian, is_psd, is_unitary, random_hermitian

    seed = 0 if args.seed is None else args.seed
    tol = args.tol if args.tol is not None else 1e-10
    report = c_property_suite(trials, dim, seed, tol=tol)
    items = [{"name": c.name, "max_residual": c.max_residual, "passed": c.passed}
             for c in report.checks]

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    ham_worst = 0.0
    for _ in range(trials // 10 + 1):
        dim = int(rng.integers(2, 5))
        ham_worst = max(ham_worst, hamiltonian_identity_residual(
            random_hermitian(dim, rng), (0.1, 1.0, np.pi)))
    items.append({"name": "hamiltonian_identity", "max_residual": ham_worst,
                  "passed": ham_worst <= 1e-8})

    stats_worst = _statistics_preservation_residual()
    items.append({"name": "statistics_preservation", "max_residual": stats_worst,
                  "passed": stats_worst <= tol})

    for label, m, lifted, claims in _fixtures(args.config_data):
        for claim in claims:
            check = {"hermitian": is_hermitian, "unitary": is_unitary, "psd": is_psd}.get(claim)
            if check is None:
                raise UsageError(f"fixture claim {claim!r} not recognized")
            ok = bool(check(lifted) and check(m))
            items.append({"name": f"fixture[{label}:{claim}]",
                          "max_residual": 0.0 if ok else 1.0, "passed": ok})

    passed = all(i["passed"] for i in items)
    _emit(_wrap({"items": items, "passed": passed}, vars_config(args), seed), args.out)
    return EXIT_PASS if passed else EXIT_FAIL


def _fixtures(config: dict) -> list[tuple[str, np.ndarray, np.ndarray, list[str]]]:
    """(label, matrix, lifted matrix, claims) of each fixture in the config file."""
    from .family import c_of
    from .serialize import matrix_from_json

    out = []
    with _user_input("config fixtures"):
        for fixture in config.get("fixtures", []):
            m = matrix_from_json(fixture["matrix"])
            out.append((str(fixture.get("label", "?")), m, c_of(m),
                        [str(claim) for claim in fixture.get("claims", [])]))
    return out


def _statistics_preservation_residual() -> float:
    """Outcome probabilities of lifted POVMs on family members vs the reference."""
    import numpy as np

    from .family import Povm, SimParams, multiparty_sim_state, sim_povm
    from .linalg import PAULIS
    from .states import StateVector

    plus = StateVector([2], np.array([1, 1]) / np.sqrt(2))
    imag = StateVector([2], np.array([1, 1j]) / np.sqrt(2))
    eye = np.eye(2)
    corpus = [
        (plus, [(eye + PAULIS["X"]) / 2, (eye - PAULIS["X"]) / 2]),
        (imag, [(eye + PAULIS["Y"]) / 2, (eye - PAULIS["Y"]) / 2]),
        (imag, [(eye + PAULIS["Z"]) / 2, (eye - PAULIS["Z"]) / 2]),
    ]
    worst = 0.0
    for a in (0.0, 0.25, 0.5, 1.0):
        cmax = np.sqrt(a * (1 - a))
        for c in {0.0, cmax, cmax * 1j}:
            p = SimParams(a, c)
            for psi, elements in corpus:
                povm = Povm(elements)
                ref = povm.probabilities(psi)
                sim = sim_povm(povm).probabilities(multiparty_sim_state(psi, 1, p))
                worst = max(worst, float(np.abs(ref - sim).max()))
    return worst


def _experiment_document(args):
    """The parsed --experiment file, or None; refuses --experiment together with --family."""
    if args.experiment and args.family:
        raise UsageError("give either --experiment or --family, not both")
    return _read_document("--experiment", args.experiment) if args.experiment else None


def _build_experiment(args, document):
    if args.experiment:
        from .serialize import experiment_from_json

        with _user_input(args.experiment):
            return experiment_from_json(document)
    from .selftest import family_experiment, reference_experiment

    if args.family:
        return family_experiment(_family_params(args.family, "--family"), args.kind)
    return reference_experiment(args.kind)


def _sampled(args) -> tuple[int | None, int | None]:
    """(n, seed) of the --sampled statistics, or (None, --seed) for exact statistics."""
    if not args.sampled:
        return None, args.seed
    kv = _parse_kv(args.sampled, {"n", "seed"}, "--sampled")
    if "n" not in kv:
        raise UsageError("--sampled requires n=<count>")
    with _user_input("--sampled"):
        n = int(kv["n"])
        seed = int(kv["seed"]) if "seed" in kv else args.seed
    if n < 1:
        raise UsageError("--sampled n must be at least 1")
    if seed is None:
        raise UsageError("sampled mode requires a seed (no wall-clock seeding)")
    if seed < 0:
        raise UsageError("--sampled seed must be non-negative")
    return n, seed


def cmd_selftest(args) -> int:
    document = _experiment_document(args)
    sampled_n, seed = _sampled(args)
    exp = _build_experiment(args, document)
    from .selftest import run_selftest
    from .serialize import equivalence_report_to_dict

    tol = args.tol if args.tol is not None else 1e-9
    stats_tol = args.stats_tol if args.stats_tol is not None else 1e-10
    report = run_selftest(exp, tol=tol, stats_tol=stats_tol,
                          sampled_n=sampled_n, seed=seed)
    _emit(_wrap(equivalence_report_to_dict(report), vars_config(args), seed), args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_simulate(args) -> int:
    exp = _build_experiment(args, _experiment_document(args))
    from .selftest import correlations
    from .serialize import correlation_table_to_csv, correlation_table_to_dict

    table = correlations(exp, include_cross_pairs=args.cross_pairs)
    if args.format == "csv":
        _emit(correlation_table_to_csv(table), args.out)
    else:
        _emit(_wrap(correlation_table_to_dict(table), vars_config(args), args.seed), args.out)
    return EXIT_PASS


def cmd_qkd(args) -> int:
    if args.seed is None:
        raise UsageError("qkd requires a seed (no wall-clock seeding)")
    strategy = _strategy(args.strategy)
    from .serialize import qber_report_to_dict, transcript_to_csv, transcript_to_json
    from .sixstate import expected_consistent, run_rounds, sift

    threshold = args.threshold if args.threshold is not None else 0.0
    n = args.n if args.n is not None else 30000
    transcript = run_rounds(strategy, n, args.seed)
    report = sift(transcript, abort_threshold=threshold)
    if args.transcript_out:
        encode = transcript_to_json if args.transcript_out.endswith(".json") else transcript_to_csv
        _write_output(args.transcript_out, lambda out: encode(transcript, out))
    _emit(_wrap(qber_report_to_dict(report), vars_config(args), args.seed), args.out)
    expected = expected_consistent(strategy)
    if expected is None:
        return EXIT_PASS if report.consistent else EXIT_FAIL
    return EXIT_PASS if report.consistent == expected else EXIT_FAIL


def vars_config(args) -> dict:
    skip = {"func", "config_data"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: _apply_config knows a flag as given only by its full name
    parser = argparse.ArgumentParser(
        prog="conjsim", allow_abbrev=False,
        description="Conjugation-simulation toolkit: property suites, EPR self-tests, 6-state QKD")
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path (default: stdout)")
    common.add_argument("--format", choices=["json", "csv"], default=None)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--workers", type=int, default=None,
                        help="accepted for interface stability; must not affect outputs")

    p = sub.add_parser("props", parents=[common], allow_abbrev=False,
                       help="run the lifting property suite and simulation invariants")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("selftest", parents=[common], allow_abbrev=False,
                       help="run the self-test pipeline")
    p.add_argument("--kind", choices=["mayersyao", "extended"], default="extended")
    p.add_argument("--experiment", help="experiment JSON path")
    p.add_argument("--family", nargs="+", metavar="K=V",
                   help="family member, e.g. a=0.5 c=0.5 c_phase=0")
    p.add_argument("--sampled", nargs="+", metavar="K=V",
                   help="sampled statistics, e.g. n=100000 seed=7")
    p.add_argument("--stats-tol", type=float, default=None, dest="stats_tol")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("simulate", parents=[common], allow_abbrev=False,
                       help="dump the exact correlation table of an experiment")
    p.add_argument("--kind", choices=["mayersyao", "extended"], default="extended")
    p.add_argument("--experiment")
    p.add_argument("--family", nargs="+", metavar="K=V")
    p.add_argument("--cross-pairs", action="store_true", dest="cross_pairs")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("qkd", parents=[common], allow_abbrev=False,
                       help="simulate 6-state protocol rounds")
    p.add_argument("--strategy", nargs="+", required=True,
                   help="honest a=.. c=.. | conjugate | zpremeasure a=.. c=.. | "
                        "mismatched FA FB | custom path.json")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--transcript-out", dest="transcript_out")
    p.set_defaults(func=cmd_qkd)
    return parser


def _apply_config(parser, args, argv):
    """Parse again with the config file's values appended as flags.

    Config values thereby get the same argparse types, choices and errors as
    the flags they stand in for.  Keys given as flags on the command line are
    left out, so those flags win; keys the subcommand does not know are
    ignored, and ``false`` or ``null`` leave the flag unset.
    """
    if not args.config:
        args.config_data = {}
        return args
    data = _read_document("--config", args.config)
    if not isinstance(data, dict):
        raise UsageError(f"--config {args.config}: expected a JSON object")
    given = {tok.lstrip("-").split("=")[0].replace("-", "_")
             for tok in argv if tok.startswith("--")}
    tokens: list[str] = []
    for key, value in data.items():
        if (key in ("fixtures", "command") or key in given or not hasattr(args, key)
                or value is None or value is False):
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens += [flag, *map(str, value)]
        else:
            tokens.append(f"{flag}={value}")      # "=" keeps a value like -inf a value
    args = parser.parse_args(argv + tokens)
    args.config_data = data
    return args


def main(argv=None) -> int:
    parser = build_parser()
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(raw_argv)
        args = _apply_config(parser, args, raw_argv)
        for key in ("workers", "n", "trials", "dim"):
            if getattr(args, key, None) is not None and getattr(args, key) < 1:
                raise UsageError(f"--{key} must be at least 1")
        if args.seed is not None and args.seed < 0:
            raise UsageError("--seed must be non-negative")
        for key in ("tol", "stats_tol", "threshold"):
            value = getattr(args, key, None)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise UsageError(f"--{key.replace('_', '-')} must be finite and non-negative")
        for flag in ("--out", "--transcript-out"):
            path = getattr(args, flag[2:].replace("-", "_"), None)
            if path:
                _check_output(flag, path)
        return args.func(args)
    except (UsageError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as err:
        detail = f" ({err})" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
