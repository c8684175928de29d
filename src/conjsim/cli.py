"""Command-line front-end: props, selftest, simulate, and qkd subcommands.

Exit codes: 0 = checks passed (or an adversarial strategy behaved as
documented), 1 = check failure, internal numerical failure or an output that
could not be written, 2 = usage or configuration error.  Every report embeds the
effective config and the toolkit version, and the seed of a run that draws one.
A subcommand takes only the flags it reads; a JSON config file can stand in for
them, explicit flags win.

Each subcommand imports the numeric modules it runs only when it runs, after
the checks that need nothing but its flags, so a parsing error or a flag out
of range never loads numpy.  An error that only the numeric code can find
loads it first: ``qkd --strategy honest a=0.5 c=0.9`` is refused by
``SimParams`` (|c| above sqrt(a(1 - a))) before the simulator loads and takes
about 130 ms, against about 50 ms for a flag-only error such as ``--n 0``
(median of 15 fresh processes each, 2 vCPUs, no bytecode cache).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
from pathlib import Path

from . import MAX_COUNT, MAX_PROPERTY_DIM, __version__

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    pass


class OutputError(Exception):
    """An output could not be written; the work has run, so this is no usage error."""


@contextlib.contextmanager
def _writing():
    """Turn an OSError raised while writing an output into an OutputError."""
    try:
        yield
    except OSError as err:
        raise OutputError(err) from None


@contextlib.contextmanager
def _user_input(what: str):
    """Turn what decoding a malformed flag value or JSON document raises into a UsageError."""
    try:
        yield
    except (OverflowError, ValueError) as err:
        raise UsageError(f"{what}: {err}") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key the object gives twice is refused, naming it."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} given twice")
        out[key] = value
    return out


def _read_document(flag: str, path: str):
    """The JSON document at ``path``; an unreadable, non-UTF-8 or non-JSON file, or an object
    with a repeated key, is a UsageError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as err:
        detail = err.strerror or str(err)
    except UnicodeDecodeError as err:
        detail = f"not UTF-8 text ({err.reason} at byte {err.start})"
    except json.JSONDecodeError as err:
        detail = f"not JSON ({err})"
    except ValueError as err:                   # from _unique_keys
        detail = str(err)
    raise UsageError(f"{flag} {path}: {detail}")


def _check_output(flag: str, path: str) -> None:
    """Refuse, before any work, an output path that is a directory or has no parent directory.

    The parent is checked both for ``path`` and for the file its symlinks resolve to.
    """
    if Path(path).is_dir():
        raise UsageError(f"{flag} {path}: Is a directory")
    parents = (os.path.dirname(path) or ".", os.path.dirname(os.path.realpath(path)))
    if not all(map(os.path.isdir, parents)):                  # the dirname of "d/" is d
        raise UsageError(f"{flag} {path}: parent directory does not exist")


def _write_output(path: str, write) -> None:
    """Call ``write(file)`` on a new file beside the file ``path`` names, then move it there.

    Symlinks in ``path`` are resolved first, so a link keeps pointing at the new
    file.  A run that fails before or while writing leaves any file already there
    intact.  A path that exists but is no regular file (a FIFO, a device) is
    written in place, since moving a file onto it would replace it.
    """
    with _writing():
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as out:
                write(out)
            return
        target = Path(os.path.realpath(path))
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as out:
                write(out)
            os.replace(tmp, target)
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
        if key in out:
            raise UsageError(f"{what}: key {key!r} given twice")
        out[key] = val
    return out


def _family_document(tokens, flag: str) -> dict:
    """The ``{"a", "c_abs", "c_phase"}`` document of a family member's key=value tokens, which
    are checked and converted before numpy loads; ``flag`` names their source in errors."""
    kv = _parse_kv(tokens, {"a", "c", "c_abs", "c_phase"}, flag)
    if "a" not in kv:
        raise UsageError(f"{flag} requires a=<float>")
    if "c" in kv and "c_abs" in kv:
        raise UsageError(f"{flag}: give c= or c_abs=, not both")
    with _user_input(flag):
        return {"a": float(kv["a"]), "c_abs": float(kv.get("c_abs", kv.get("c", 0.0))),
                "c_phase": float(kv.get("c_phase", 0.0))}


def _strategy(tokens):
    """The strategy named by --strategy's tokens, which are checked before numpy loads and
    then read as the ``describe()`` document they write."""
    if not tokens:
        raise UsageError("qkd requires --strategy")
    name, rest = tokens[0], tokens[1:]
    source = flag = f"--strategy {name}"
    if name in ("honest", "zpremeasure"):
        document = {"strategy": name, **_family_document(rest, flag)}
    elif name == "conjugate":
        if rest:
            raise UsageError(f"--strategy conjugate takes no values, got {rest[0]!r}")
        document = {"strategy": "conjugate"}
    elif name == "mismatched":
        if len(rest) != 2:
            raise UsageError("--strategy mismatched needs two flag bits")
        with _user_input(flag):
            document = {"strategy": "mismatched_flags", "flag_a": int(rest[0]),
                        "flag_b": int(rest[1])}
    elif name == "custom":
        if len(rest) != 1 or not rest[0]:
            raise UsageError("--strategy custom needs a JSON state/strategy path")
        document, source = _read_document(flag, rest[0]), rest[0]
    else:
        raise UsageError(f"unknown strategy {name!r}")
    from .serialize import strategy_from_json

    with _user_input(source):
        return strategy_from_json(document)


def _wrap(results: dict, args, seed) -> str:
    from .serialize import dumps

    config = {k: v for k, v in vars(args).items() if k not in ("func", "config_data")
              and v is not None}
    document = {"version": __version__, "config": config, "results": results}
    if seed is not None:
        document["seed"] = seed
    return dumps(document)


def _emit(text: str, out: str | None):
    if out:
        _write_output(out, lambda f: f.write(text))
        return
    with _writing():
        stdout = sys.stdout
        if stdout is None:          # descriptor 1 was closed when the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        if getattr(stdout, "buffer", None) is None:
            stdout.write(text)
        else:   # until all is taken: unbuffered, the buffer is a raw file that may take part
            stdout.flush()
            data = memoryview(text.encode(stdout.encoding, stdout.errors))
            while data:
                data = data[stdout.buffer.write(data):]
        stdout.flush()      # a closed reader surfaces here, buffered or not


def _error(message: str) -> None:
    """Print ``error: message`` on stderr; a closed or failing stderr loses only the line."""
    with contextlib.suppress(OSError, ValueError):
        print(f"error: {message}", file=sys.stderr, flush=True)


def cmd_props(args) -> int:
    trials = args.trials if args.trials is not None else 100
    dim = args.dim if args.dim is not None else 4
    if dim > MAX_PROPERTY_DIM:
        raise UsageError(f"--dim {dim} exceeds the supported bound {MAX_PROPERTY_DIM}")
    from .family import c_property_suite
    from .linalg import failing

    seed = 0 if args.seed is None else args.seed
    tol = {} if args.tol is None else {"tol": args.tol}
    from .serialize import fixtures_from_json

    with _user_input(args.config):
        fixtures = fixtures_from_json(args.config_data)
    residuals, bounds = c_property_suite(trials, dim, seed, fixtures=fixtures, **tol)
    failed = failing(residuals, bounds)
    items = [{"name": name, "max_residual": r, "passed": name not in failed}
             for name, r in residuals.items()]
    _emit(_wrap({"items": items, "passed": not failed}, args, seed), args.out)
    return EXIT_FAIL if failed else EXIT_PASS


def _build_experiment(args):
    """The experiment of --experiment, --family (not both) or the reference; ``args.kind`` is
    then the kind it has, and an explicit --kind that an experiment document disagrees with is
    refused."""
    if args.experiment and args.family:
        raise UsageError("give either --experiment or --family, not both")
    if args.experiment:
        document = _read_document("--experiment", args.experiment)
        from .serialize import experiment_from_json

        with _user_input(args.experiment):
            exp = experiment_from_json(document)
        if args.kind not in (None, exp.kind):
            raise UsageError(f"--kind {args.kind}: the experiment in {args.experiment} has kind "
                             f"{exp.kind!r}")
    elif args.family:
        document = _family_document(args.family, "--family")
        from .selftest import family_experiment
        from .serialize import sim_params_from_json

        with _user_input("--family"):
            params = sim_params_from_json(document)
        exp = family_experiment(params, args.kind or "extended")
    else:
        from .selftest import reference_experiment

        exp = reference_experiment(args.kind or "extended")
    args.kind = exp.kind
    return exp


def _sampled(args) -> tuple[int | None, int | None]:
    """(n, seed) of the --sampled statistics, or (None, --seed) for exact statistics."""
    if not args.sampled:
        return None, args.seed
    kv = _parse_kv(args.sampled, {"n", "seed"}, "--sampled")
    if "n" not in kv:
        raise UsageError("--sampled requires n=<count>")
    if "seed" in kv and args.seed is not None:
        raise UsageError("give the sampled seed as --sampled seed= or as --seed, not both")
    with _user_input("--sampled"):
        n = int(kv["n"])
        seed = int(kv["seed"]) if "seed" in kv else args.seed
    if n < 1:
        raise UsageError("--sampled n must be at least 1")
    if n > MAX_COUNT:
        raise UsageError("--sampled n must be below 2**63")
    if seed is None:
        raise UsageError("sampled mode requires a seed (no wall-clock seeding)")
    if seed < 0:
        raise UsageError("--sampled seed must be non-negative")
    return n, seed


def cmd_selftest(args) -> int:
    sampled_n, seed = _sampled(args)
    exp = _build_experiment(args)
    from .selftest import run_selftest
    from .serialize import equivalence_report_to_dict

    tols = {k: v for k, v in (("tol", args.tol), ("stats_tol", args.stats_tol)) if v is not None}
    report = run_selftest(exp, sampled_n=sampled_n, seed=seed, **tols)
    _emit(_wrap(equivalence_report_to_dict(report), args, seed), args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_simulate(args) -> int:
    exp = _build_experiment(args)
    from .selftest import correlations
    from .serialize import correlation_table_to_csv, correlation_table_to_dict

    table = correlations(exp, include_cross_pairs=args.cross_pairs)
    if args.format == "csv":
        _emit(correlation_table_to_csv(table), args.out)
    else:
        _emit(_wrap(correlation_table_to_dict(table), args, None), args.out)
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
    _emit(_wrap(qber_report_to_dict(report), args, args.seed), args.out)
    return EXIT_PASS if report.consistent == expected_consistent(strategy) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: _apply_config knows a flag as given only by its full name
    parser = argparse.ArgumentParser(
        prog="conjsim", allow_abbrev=False,
        description="Conjugation-simulation toolkit: property suites, EPR self-tests, 6-state QKD")
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    common, tol, seed, source = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    common.add_argument("--out", help="write the report to this path (default: stdout)")
    tol.add_argument("--tol", type=float)
    seed.add_argument("--seed", type=int)
    source.add_argument("--kind", choices=["mayersyao", "extended"])
    source.add_argument("--experiment", help="experiment JSON path")
    source.add_argument("--family", nargs="+", metavar="K=V",
                        help="family member, e.g. a=0.5 c=0.5 c_phase=0")

    p = sub.add_parser("props", parents=[common, tol, seed], allow_abbrev=False,
                       help="run the lifting property suite and simulation invariants")
    p.add_argument("--trials", type=int)
    p.add_argument("--dim", type=int)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("selftest", parents=[common, tol, seed, source], allow_abbrev=False,
                       help="run the self-test pipeline")
    p.add_argument("--sampled", nargs="+", metavar="K=V",
                   help="sampled statistics, e.g. n=100000 seed=7")
    p.add_argument("--stats-tol", type=float)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("simulate", parents=[common, source], allow_abbrev=False,
                       help="dump the exact correlation table of an experiment")
    p.add_argument("--cross-pairs", action="store_true")
    p.add_argument("--format", choices=["json", "csv"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("qkd", parents=[common, seed], allow_abbrev=False,
                       help="simulate 6-state protocol rounds")
    p.add_argument("--strategy", nargs="+",
                   help="honest a=.. c=.. | conjugate | zpremeasure a=.. c=.. | "
                        "mismatched FA FB | custom path.json")
    p.add_argument("--n", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--transcript-out")
    p.add_argument("--workers", type=int,
                   help="accepted for interface stability; must not affect outputs")
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
    if sys.stderr is None:      # descriptor 2 was closed at start; argparse would use stdout
        sys.stderr = open(os.devnull, "w")
    parser = build_parser()
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(raw_argv)
        args = _apply_config(parser, args, raw_argv)
        for key in ("workers", "n", "trials", "dim"):
            if getattr(args, key, None) is not None and getattr(args, key) < 1:
                raise UsageError(f"--{key} must be at least 1")
        if getattr(args, "n", None) is not None and args.n > MAX_COUNT:
            raise UsageError("--n must be below 2**63")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError("--seed must be non-negative")
        for key in ("tol", "stats_tol", "threshold"):
            value = getattr(args, key, None)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise UsageError(f"--{key.replace('_', '-')} must be finite and non-negative")
        for flag in ("--config", "--experiment", "--out", "--transcript-out"):
            path = getattr(args, flag[2:].replace("-", "_"), None)
            if path == "":
                raise UsageError(f"{flag}: empty path")
            if path and flag in ("--out", "--transcript-out"):
                _check_output(flag, path)
        transcript = getattr(args, "transcript_out", None)      # _write_output resolves links
        if args.out and transcript and os.path.realpath(args.out) == os.path.realpath(transcript):
            raise UsageError(f"--out {args.out} and --transcript-out {transcript} name one file")
        return args.func(args)
    except (OutputError, ValueError) as err:     # the work ran: no usage error
        _error(str(err))
        return EXIT_FAIL
    except (UsageError, OSError) as err:
        _error(str(err))
        return EXIT_USAGE
    except MemoryError as err:
        _error("out of memory" + (f" ({err})" if str(err) else ""))
        return EXIT_FAIL

