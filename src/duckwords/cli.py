"""
Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
limit exceeded, 4 internal error (an unexpected exception, reported on one
line).  A reader that closes the pipe early (`duckwords enumerate ... | head`)
ends the command quietly with exit 0.

Each command imports the modules it runs inside its own function, so a
command loads only what it needs.

`verify --kmax K` prints the report of `counts.verify_identities(K)`, one
entry per check, and names each failed check on stderr.  --kmax is its only
size: the checks that list, search or simulate run to the fixed sizes
`counts.VERIFY_*`.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import __version__
from .errors import DEFAULT_BRUTE_BOUND, InvalidInput, ResourceLimit, check_brute_bound, check_size

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# enumerate writes its output this many items at a time
ENUM_BLOCK = 1024


def _emit(chunks, out: str | None) -> None:
    """Write the strings of `chunks` to the file `out`, or to stdout followed
    by a newline, as print would."""
    if not out:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InvalidInput(f"cannot write {out}: {exc.strerror}") from exc


# --- triangle ---------------------------------------------------------------


def cmd_triangle(args) -> int:
    from .counts import duck_triangle, underlined_triangle

    tri = (duck_triangle if args.kind == "duck" else underlined_triangle)(args.kmax)
    rows = [list(r) for r in tri.rows]
    if args.kind == "redvhc":
        # display in increasing permutation size, i.e. deficiency
        # k-1 down to 0, matching the reduced-count triangle layout
        rows = [list(reversed(r)) for r in rows]
    if args.format == "json":
        import json

        _emit([json.dumps({"kind": args.kind, "rows": rows})], args.out)
    elif args.format == "text":
        _emit(["\n".join(" ".join(str(e) for e in row) for row in rows)], args.out)
    else:
        _emit(["\n".join(",".join(str(e) for e in row) for row in rows)], args.out)
    return EXIT_OK


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    import json

    from .counts import verify_identities

    report = verify_identities(args.kmax, args.golden_dir)
    _emit([json.dumps(report, indent=2)], args.out)
    for entry in report["identities"]:
        if not entry["pass"]:
            print(f"FAILED {entry['id']}: {entry['description']}", file=sys.stderr)
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAIL


# --- map --------------------------------------------------------------------


def cmd_map(args) -> int:
    direction = args.direction
    if direction == "psi":
        from .words import psi

        try:
            balls = [int(tok) for tok in args.input.replace(",", " ").split()]
        except ValueError as exc:
            raise InvalidInput(f"bad lawn: {args.input!r}") from exc
        lawn = frozenset(balls)
        if len(lawn) != len(balls):
            raise InvalidInput(f"a ball is listed twice: {args.input!r}")
        print(psi(lawn, len(lawn)))
        return EXIT_OK

    from .hooks import HookConfig
    from .maps import phi, phi_inverse, phi_prime, phi_prime_inverse
    from .words import UnderlinedDuckWord

    if direction == "phi":
        forward = phi(HookConfig.from_json(args.input))
        back = phi_inverse(forward).to_json() if args.roundtrip else None
    elif direction == "phi-inv":
        config = phi_inverse(args.input.strip())
        forward = config.to_json()
        back = phi(config) if args.roundtrip else None
    elif direction == "phi-prime":
        word = phi_prime(HookConfig.from_json(args.input))
        forward = word.to_text()
        back = phi_prime_inverse(word).to_json() if args.roundtrip else None
    else:  # phi-prime-inv
        config = phi_prime_inverse(UnderlinedDuckWord.parse(args.input.strip()))
        forward = config.to_json()
        back = phi_prime(config).to_text() if args.roundtrip else None
    print(forward)
    if back is not None:
        print(back)
    return EXIT_OK


# --- render -----------------------------------------------------------------


def cmd_render(args) -> int:
    from .hooks import HookConfig
    from .render import render_svg, render_tikz

    config = HookConfig.from_json(args.input)
    if args.format == "tikz":
        doc = render_tikz(config, labels=args.labels)
    else:
        doc = render_svg(config, labels=args.labels)
    _emit([doc], args.out)
    return EXIT_OK


# --- enumerate / count ------------------------------------------------------


def _enumerated_items(args):
    kind = args.kind
    if kind == "av312":
        from .perms import enumerate_av312, format_permutation

        return (format_permutation(p) for p in enumerate_av312(_require(args, "n")))
    if kind == "vhc":
        from .hooks import enumerate_vhcs

        return (c.to_json() for c in enumerate_vhcs(_bounded_perm(args)))
    from . import words

    if kind == "dyck":
        return words.enumerate_dyck(_require(args, "k"))
    if kind == "3d-dyck":
        return words.enumerate_3d_dyck(_require(args, "k"))
    if kind == "duck":
        k, i = _require(args, "k"), _require(args, "i")
        words.check_duck_range(k, i)
        # every generated word is a 3D-Dyck word, so duck_index's check is skipped
        return (w for w in words.enumerate_3d_dyck(k) if w.count("Y") - w.count("XY") == i)
    if kind == "underlined":
        return (u.to_text()
                for u in words.enumerate_underlined(_require(args, "k"), _require(args, "i")))
    return (r.to_text()
            for r in words.enumerate_rewritten(_require(args, "k"), _require(args, "i")))


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise InvalidInput(f"kind {args.kind!r} requires --{name}")
    return value


def _bounded_perm(args):
    """The --perm permutation; ResourceLimit if it is longer than --brute-bound,
    as the number of its hook configurations grows exponentially."""
    from .perms import parse_permutation

    pi = parse_permutation(_require(args, "perm"))
    check_brute_bound(len(pi), args.brute_bound)
    return pi


def _joined(items, sep: str):
    """The strings of `items` with `sep` between them, ENUM_BLOCK items at a
    time."""
    lead = ""
    while block := list(itertools.islice(items, ENUM_BLOCK)):
        yield lead + sep.join(block)
        lead = sep


def cmd_enumerate(args) -> int:
    items = _enumerated_items(args)
    # A generator checks its arguments only when first advanced, so the
    # first item is drawn before anything is written.
    first = next(items, None)
    if first is not None:
        items = itertools.chain((first,), items)
    if args.format == "json":
        import json

        _emit(itertools.chain(["["], _joined(map(json.dumps, items), ", "), ["]"]), args.out)
    else:
        _emit(_joined(items, "\n"), args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    """Print how many items of a kind there are.  Every kind but `vhc` is read
    from a closed form, such as catalan(m + 1) lawns, or a recurrence."""
    kind = args.kind
    if kind in ("catalan", "dyck"):
        from .counts import catalan

        value = catalan(_require(args, "k"))
    elif kind in ("catalan3d", "3d-dyck"):
        from .counts import catalan3d

        value = catalan3d(_require(args, "k"))
    elif kind == "av312":
        from .counts import _check_catalan_k, catalan

        n = _require(args, "n")
        _check_catalan_k(n, "n")
        value = catalan(n)
    elif kind in ("duck", "rewritten", "underlined"):
        from .counts import _check_transfer_k, duck_triangle, underlined_triangle
        from .words import check_duck_range

        k, i = _require(args, "k"), _require(args, "i")
        check_duck_range(k, i)
        _check_transfer_k(k, "k")
        # rewrite maps the (k, i)-duck words one to one onto the rewritten ones
        triangle = underlined_triangle if kind == "underlined" else duck_triangle
        value = triangle(k).row(k)[i] if k else 1
    elif kind == "redvhc":
        from .counts import _check_transfer_k, underlined_triangle

        k, n = _require(args, "k"), _require(args, "n")
        check_size(k, "k")
        check_size(n, "n")
        _check_transfer_k(k, "k")
        # a reduced configuration with k hooks has 3k - i points, 0 <= i < k
        triangle = underlined_triangle(k)
        value = triangle.row(k)[3 * k - n] if 2 * k < n <= 3 * k else int(k == n == 0)
    elif kind == "vhc":
        from .hooks import count_vhcs

        value = count_vhcs(_bounded_perm(args))
    elif kind == "tennis-lawns":
        from .counts import CATALAN_KMAX, catalan

        m = _require(args, "m")
        check_size(m, "m")
        if m >= CATALAN_KMAX:
            raise ResourceLimit(f"m={m} exceeds limit {CATALAN_KMAX - 1}")
        value = catalan(m + 1)
    else:  # tennis-weighted
        from .counts import tennis_ball_weighted

        value = tennis_ball_weighted(_require(args, "m"))
    print(value)
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_triangle(sub) -> None:
    p = sub.add_parser("triangle", help="emit a count triangle")
    p.add_argument("kind", choices=["redvhc", "duck", "underlined"])
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json", "text"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_triangle)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--golden-dir", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)


def _add_map(sub) -> None:
    p = sub.add_parser("map", help="apply a bijection to one input")
    p.add_argument("direction",
                   choices=["phi", "phi-inv", "phi-prime", "phi-prime-inv", "psi"])
    p.add_argument("input")
    p.add_argument("--roundtrip", action="store_true")
    p.set_defaults(func=cmd_map)


def _add_render(sub) -> None:
    p = sub.add_parser("render", help="draw a hook configuration")
    p.add_argument("input", help="hook configuration as JSON")
    p.add_argument("--format", choices=["svg", "tikz"], default="svg")
    p.add_argument("--labels", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)


_LISTED = ["av312", "vhc", "dyck", "3d-dyck", "duck", "underlined", "rewritten"]


def _add_enumerate(sub) -> None:
    p = sub.add_parser("enumerate")
    p.add_argument("kind", choices=_LISTED)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--perm")
    p.add_argument("--brute-bound", type=int, default=DEFAULT_BRUTE_BOUND)
    p.add_argument("--format", choices=["lines", "json"], default="lines")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)


def _add_count(sub) -> None:
    p = sub.add_parser("count")
    p.add_argument("kind", choices=_LISTED + ["redvhc", "tennis-lawns", "tennis-weighted",
                                              "catalan", "catalan3d"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--perm")
    p.add_argument("--brute-bound", type=int, default=DEFAULT_BRUTE_BOUND)
    p.set_defaults(func=cmd_count)


# each command's subparser, in the order help lists them
_SUBPARSERS = {"triangle": _add_triangle, "verify": _add_verify, "map": _add_map,
               "render": _add_render, "enumerate": _add_enumerate, "count": _add_count}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When argv[0] names a command, only that
    command's subparser is added, as no other is read; otherwise (help,
    --version, an unknown command) all of them are."""
    parser = argparse.ArgumentParser(
        prog="duckwords",
        description="Hook configurations on 312-avoiding permutations and duck words",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    if argv and argv[0] in _SUBPARSERS:
        _SUBPARSERS[argv[0]](sub)
    else:
        for add in _SUBPARSERS.values():
            add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader stopped early.  Point stdout at devnull, as Python's
        # signal docs advise, so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
