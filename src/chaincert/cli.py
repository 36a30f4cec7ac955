"""Command-line front door.

Commands: validate, stabilize, compare, check, generate, dualize.
Exit codes are part of the public contract: 0 = pass, 1 = malformed input,
a usage error, an unusable input combination, an output file that cannot
be written or an input too large for memory, 2 = mathematically invalid
data.

The argument parser is built once per process (``build_parser`` is
cached), and ``main`` only parses and dispatches. It maps argparse's usage
error status to exit 1 and holds the map from exceptions to exit codes: an
``OSError``, a ``MalformedFileError``, an ``InputMismatchError`` or a
``MemoryError`` prints one ``error:`` line and exits 1; any other
``StabilizeError`` prints ``stabilization failed:`` and exits 2. A command
lets these through and catches only the library errors that mean
malformed input to that command (a bad module preset, a ring that cannot
be dualized). A closed standard output changes no exit code and skips no
file (``_say``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import io
from .matrix import Matrix
from .resolution import (
    ModulePresentation,
    dualize,
    generate_resolution,
    validate_resolution,
)
from .rings import PrimeField, Ring, RingError
from .stabilize import (
    InputMismatchError,
    StabilizeError,
    schanuel_check,
    total_equivalence,
    verify_certificate,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INVALID = 2


def _say(*args, **kwargs):
    """``print`` to standard output. Once its reader has gone, the first
    ``BrokenPipeError`` points it at ``os.devnull`` and the command carries
    on; ``main`` ends with a flush through here, so the interpreter's flush
    at exit has nothing left to fail on."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_report(report, verbose: bool):
    for check in report.checks:
        if verbose or not check.ok:
            _say(check)
    if report.ok:
        _say(f"all {len(report.checks)} checks passed")
    else:
        bad = sum(1 for c in report.checks if not c.ok)
        _say(f"{bad} of {len(report.checks)} checks FAILED")


def _load(path: str, want: str | None):
    kind, obj = io.load(path)
    if want is not None and kind != want:
        raise io.MalformedFileError(f"{path}: expected a {want} file, found {kind}")
    return kind, obj


def _save(path: str, doc: dict) -> None:
    """Write ``doc`` to ``path``. An OS error, or an entry with more digits
    than ``sys.int_max_str_digits`` (a ``ValueError`` raised before the
    file is opened), names the file."""
    try:
        io.save(path, doc)
    except (OSError, ValueError) as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def cmd_validate(args) -> int:
    kind, obj = _load(args.path, args.want)
    report = validate_resolution(obj) if kind == "resolution" else verify_certificate(obj)
    _print_report(report, args.verbose)
    return EXIT_OK if report.ok else EXIT_INVALID


def _construct(args):
    """The verified certificate for the two input files, or None once the
    reason it could not be built has been printed."""
    _, res_p = _load(args.first, "resolution")
    _, res_q = _load(args.second, "resolution")
    for label, res in (("first", res_p), ("second", res_q)):
        report = validate_resolution(res)
        if not report.ok:
            _say(f"{label} input is not a valid resolution:")
            _print_report(report, args.verbose)
            return None

    cert = total_equivalence(res_p, res_q)
    _say("tower ranks t:", " ".join(str(r) for r in cert.t_ranks))
    _say("tower ranks s:", " ".join(str(r) for r in cert.s_ranks))
    report = verify_certificate(cert)
    _print_report(report, args.verbose)
    return cert if report.ok else None


def cmd_stabilize(args) -> int:
    cert = _construct(args)
    if cert is None:
        return EXIT_INVALID
    if args.out:
        _save(args.out, io.certificate_document(cert))
        _say(f"certificate written to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cert = _construct(args)
    if cert is None:
        return EXIT_INVALID
    comparison = schanuel_check(cert)
    _say("homology comparison:")
    for check in comparison.checks:
        _say(check)
    return EXIT_OK if comparison.ok else EXIT_INVALID


def _preset_int(preset: str, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"bad module preset {preset!r}: {digits!r} is not an integer") from None


def _parse_module(ring: Ring, text: str) -> ModulePresentation:
    """Module presets.

    Over Z: "0", "Z", "Z/6", or sums like "Z+Z/2+Z/4" (one ambient summand
    per term, one relation column per torsion term). Over a prime field:
    "dim:d" for the free module of dimension d, or "0"; d is refused when
    negative or when a d x d matrix (the augmentation) has more entries
    than a Python list can index. A number that is not an integer is
    refused by a ValueError naming the preset.
    """
    text = text.strip()
    if text == "0":
        return ModulePresentation(ring, 0, Matrix.zeros(ring, 0, 0))
    if isinstance(ring, PrimeField):
        if text.startswith("dim:"):
            if (d := _preset_int(text, text[4:])) < 0:
                raise ValueError(f"bad module preset {text!r}: the dimension is negative")
            if d * d > sys.maxsize:
                raise ValueError(
                    f"dim:{d} is too large: a {d} x {d} augmentation has more "
                    "entries than a list can hold"
                )
            return ModulePresentation(ring, d, Matrix(ring, d, 0, ()))
        raise ValueError(f"field modules are given as dim:<d>, got {text!r}")
    terms = [t.strip() for t in text.split("+")]
    ambient = len(terms)
    columns = []
    for i, term in enumerate(terms):
        if term == "Z":
            continue
        if term.startswith("Z/"):
            m = _preset_int(text, term[2:])
            if m <= 1:
                raise ValueError("torsion order must be at least 2")
            col = [0] * ambient
            col[i] = m
            columns.append(col)
            continue
        raise ValueError(f"bad module term {term!r}")
    relations = Matrix(
        ring, ambient, len(columns),
        [columns[j][i] for i in range(ambient) for j in range(len(columns))],
    )
    return ModulePresentation(ring, ambient, relations)


def cmd_generate(args) -> int:
    if args.n < 1 or args.max_rank < 0:
        print(
            f"error: need --n >= 1 and --max-rank >= 0, got {args.n} and {args.max_rank}",
            file=sys.stderr,
        )
        return EXIT_MALFORMED
    ring = io.ring_from_json({"ring": args.ring})
    try:
        presentation = _parse_module(ring, args.module)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    res = generate_resolution(
        presentation, n=args.n, max_rank=args.max_rank, seed=args.seed
    )
    report = validate_resolution(res)
    if not report.ok:
        _print_report(report, True)
        return EXIT_INVALID
    _save(args.out, io.resolution_document(res))
    _say(f"resolution written to {args.out} (ranks {list(res.complex.ranks)})")
    return EXIT_OK


def cmd_dualize(args) -> int:
    _, res = _load(args.path, "resolution")
    try:
        dual = dualize(res)
    except RingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    _save(args.out, io.resolution_document(dual))
    orientation = "cochain" if dual.cochain else "chain"
    _say(f"dual ({orientation}) written to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincert",
        description=(
            "Build and re-check explicit chain homotopy equivalences between "
            "stabilized truncated resolutions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a resolution or certificate file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate, want=None)

    p = sub.add_parser(
        "stabilize",
        help="construct the equivalence between two stabilized resolutions",
    )
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", help="write the certificate here")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser(
        "compare",
        help="stabilize and report the degreewise homology comparison only",
    )
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", help="re-verify a certificate from raw matrices")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate, want="certificate")

    p = sub.add_parser("generate", help="write a random valid resolution")
    p.add_argument("--ring", default="Z", help='"Z" or "Fp:<p>"')
    p.add_argument("--module", default="Z", help='module preset, e.g. "Z/2", "Z+Z/6", "dim:2"')
    p.add_argument("--n", type=int, default=2, help="resolution length")
    p.add_argument("--max-rank", type=int, default=4, dest="max_rank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dualize", help="transpose and reverse a field resolution")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dualize)

    for p in sub.choices.values():
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help exits 0, a usage error 2
            # a usage error is malformed input; 2 is kept for invalid data
            return EXIT_MALFORMED if exc.code else EXIT_OK
        try:
            return args.func(args)
        except (OSError, io.MalformedFileError, InputMismatchError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
        except StabilizeError as exc:
            _say(f"stabilization failed: {exc}")
            return EXIT_INVALID
        except MemoryError:
            print("error: out of memory", file=sys.stderr)
            return EXIT_MALFORMED
    finally:
        _say(end="", flush=True)  # a closed standard output fails here, not at exit


if __name__ == "__main__":
    sys.exit(main())
