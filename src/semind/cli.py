"""Command-line front end.

Subcommands: count, enumerate, search, profile, verify, figure, oracle.
Each run input is set by one flag, and a command refuses a flag it does not
read.  --seed (default 0) is read by `search --hill`; --cache-dir (default:
the SEMIND_CACHE environment variable, else .semind-cache) by `enumerate`,
`search` and `verify`.  The cache directory holds enumerated bases (loaded
back after validation, see `graphs`) and archived verification reports.
Exit codes: 0 success / verification PASS, 1 verification FAIL, 2 usage
error (a `semind.UsageError`, a malformed command line, or an unreadable or
unwritable file the user named; one `error:` line on stderr), 3 internal
fault (its traceback on stderr).

Import rule: this module holds only the parser, the dispatch and the
argument helpers that several commands share.  Each command's body,
`cmd_<name>`, lives in the module whose code it drives (`counting`, `graphs`,
`search`, `figures` or `certificates`), with the helpers only it uses, and
`main` imports that module when the command runs.  So a short run compiles
and imports the modules it runs and no other command's code: `profile` and
`figure` load no graph or counting code, and only `verify` loads the report
archive's `shlex` and `hashlib`.  The one package module imported here is
`profiles`: the parser's `profile --curve` help lists `known_curves()`, and
the benchmark's traced mode reads the import time of `semind.profiles` from
a bare `import semind.cli`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import UsageError
from .profiles import known_curves


# ---------------------------------------------------------------------------
# argument parsing helpers


def _read_text(path: str) -> str:
    """A file the user named; one that is not UTF-8 text is a UsageError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _numbers(what: str, arg: str, text: str, form: str, count=None, convert=int, sep=","):
    """The sep-separated numbers in text (part of the argument arg), or a
    UsageError naming the argument and its expected form."""
    try:
        values = [convert(x) for x in text.split(sep)]
    except ValueError:
        values = None
    if values is None or count is not None and len(values) != count:
        raise UsageError(f"bad {what} {arg!r}: expected {form}")
    return values


def pattern_from_arg(text: str):
    """Builtin names (ap4, ac4, ds:<s>, peenn, s:<a>,<b>, tree:<edges>),
    @file, or literal pattern text."""
    from .counting import (
        ac4_pattern,
        ap4_pattern,
        double_star_pattern,
        peenn_pattern,
        star_pattern,
        tree_pattern,
    )
    from .graphs import parse_pattern

    if text.startswith("@"):
        return parse_pattern(_read_text(text[1:]))
    name, _, rest = text.partition(":")
    if name == "ap4":
        return ap4_pattern()
    if name == "ac4":
        return ac4_pattern()
    if name == "peenn":
        return peenn_pattern()
    if name == "ds":
        (s,) = _numbers("pattern", text, rest, "ds:<s> with an integer s", 1)
        return double_star_pattern(s)
    if name == "s":
        a, b = _numbers("pattern", text, rest, "s:<a>,<b> with integers a and b", 2)
        return star_pattern(a, b)
    if name == "tree":
        form = "tree:<u>-<v>,<u>-<v>,... with integer vertices"
        return tree_pattern(
            [tuple(_numbers("pattern", text, e, form, 2, sep="-")) for e in rest.split(",")]
        )
    if " " in text:
        return parse_pattern(text)
    raise UsageError(f"unknown pattern {text!r}")


def construct_from_arg(text: str):
    """A `graphs.ConstructionSpec` from its spec text."""
    from .graphs import circulant, clique_plus_isolated, complement_of, disjoint_cliques, three_part

    kind, _, rest = text.partition(":")
    if kind == "complement":
        return complement_of(construct_from_arg(rest))
    if kind == "clique_iso":
        (a,) = _numbers("construction", text, rest, "clique_iso:<a> with a number a", 1, float)
        return clique_plus_isolated(a)
    if kind == "cliques":
        form = "cliques:<f>,<f>,... with numbers f"
        return disjoint_cliques(_numbers("construction", text, rest, form, convert=float))
    if kind == "circulant":
        (d,) = _numbers("construction", text, rest, "circulant:<d> with a number d", 1, float)
        return circulant(d)
    if kind == "three_part":
        form = "three_part:<x>,<y> with numbers x and y"
        x, y = _numbers("construction", text, rest, form, 2, float)
        return three_part(x, y)
    raise UsageError(f"unknown construction {text!r}")


def _reject_unread(args, flags, mode: str) -> None:
    """A UsageError for the first of `flags` that was given although `mode`
    does not read it."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None and value is not False:
            raise UsageError(f"{flag} is not read {mode}")


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Flags must be spelled out, not abbreviated, and a malformed command
    line is a UsageError like any other bad input."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def _unknown_flag(self):
        """The first unknown flag before the first positional argument."""
        args = iter(getattr(self, "_args", ()))
        for arg in args:
            if not arg.startswith("-"):
                return None
            action = self._option_string_actions.get(arg.partition("=")[0])
            if action is None:
                return arg
            if action.nargs != 0 and "=" not in arg:
                next(args, None)  # its value
        return None

    def error(self, message):
        # an unknown flag leaves its value to be read as the command (or
        # another choice), so the error about that value names the flag too
        flag = self._unknown_flag() if "invalid choice" in message else None
        raise UsageError(f"unrecognized arguments: {flag}; {message}" if flag else message)


def _grid_step(text: str) -> float:
    """A --beta-grid-step value: a number in (0, 0.1]."""
    try:
        step = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < step <= 0.1:  # also false for nan
        raise argparse.ArgumentTypeError(f"must lie in (0, 0.1], got {text!r}")
    return step


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="semind",
        description="semi-inducibility workbench for red/blue colored complete graphs",
    )
    p.add_argument("--cache-dir", type=Path,
                   help="cache directory of enumerate, search and verify "
                        "(default: SEMIND_CACHE, else .semind-cache)")
    p.add_argument("--seed", type=int, help="seed of search --hill (default 0)")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("count", help="count semi-induced pattern copies")
    c.add_argument("--pattern", required=True)
    c.add_argument("--host")
    c.add_argument("--construct")
    c.add_argument("--n", type=int)
    c.add_argument("--profile-k", type=int,
                   help="also print the host's induced k-profile as CSV")

    e = sub.add_parser("enumerate", help="enumerate colorings up to isomorphism")
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--out")

    s = sub.add_parser("search", help="extremal search over colorings")
    s.add_argument("--pattern", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int)
    s.add_argument("--profile", action="store_true", help="full per-m profile CSV")
    s.add_argument("--hill", action="store_true", help="hill climb instead of exact")
    s.add_argument("--beta", type=float, help="pinned red density for --hill")
    s.add_argument("--restarts", type=int, help="climb restarts for --hill (default 2)")
    s.add_argument("--seed-construct", help="construction spec used as climb seed")

    pr = sub.add_parser("profile", help="curve values on a beta grid (CSV)")
    pr.add_argument(
        "--curve", required=True, help=f"curve id, '+'-separated for several: {known_curves()}"
    )
    pr.add_argument("--beta-min", type=float, default=0.0)
    pr.add_argument("--beta-max", type=float, default=1.0)
    pr.add_argument("--beta-grid-step", type=_grid_step, default=0.001)
    pr.add_argument("--out")

    v = sub.add_parser("verify", help="re-verify a certificate")
    v.add_argument("which", choices=("ap4", "peenn", "stability"))
    v.add_argument("--B")
    v.add_argument("--C")
    v.add_argument("--interval", help="lo,hi with exact endpoints (e.g. 1/sqrt2,4/5)")
    v.add_argument("--open-lo", action="store_true", help="exclude the left endpoint")
    v.add_argument("--alpha-max", help="upper endpoint for the ap4 multiplier check")

    f = sub.add_parser("figure", help="emit a figure as CSV + SVG")
    f.add_argument("--id", type=int, required=True, choices=(4, 5, 6, 7))
    f.add_argument("--out", default="figures")
    f.add_argument("--beta-grid-step", type=_grid_step, default=0.001)

    o = sub.add_parser("oracle", help="raw brute-force per-m maxima (n <= 6)")
    o.add_argument("--pattern", required=True)
    o.add_argument("--n", type=int, required=True)
    return p


def _run(args) -> int:
    """Run the command's body, importing the module that holds it."""
    if args.cmd == "count":
        from . import counting

        return counting.cmd_count(args)
    if args.cmd == "enumerate":
        from . import graphs

        return graphs.cmd_enumerate(args)
    if args.cmd == "search":
        from . import search

        return search.cmd_search(args)
    if args.cmd == "oracle":
        from . import search

        return search.cmd_oracle(args)
    if args.cmd == "profile":
        from . import figures

        return figures.cmd_profile(args)
    if args.cmd == "figure":
        from . import figures

        return figures.cmd_figure(args)
    from . import certificates  # verify, the one command left

    return certificates.cmd_verify(args)


# the commands that read class lists, which a basis in the cache directory serves
_READS_CLASSES = ("enumerate", "search", "verify")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        args.argv = argv
        if args.cmd != "search":
            _reject_unread(args, ("--seed",), f"by {args.cmd}")
        if args.cmd not in _READS_CLASSES:
            _reject_unread(args, ("--cache-dir",), f"by {args.cmd}")
            code = _run(args)
        else:
            from .graphs import basis_cache

            if args.cache_dir is None:
                args.cache_dir = Path(os.environ.get("SEMIND_CACHE", ".semind-cache"))
            with basis_cache(args.cache_dir):
                code = _run(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: stop quietly.  What is
        # still buffered goes to devnull, so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # loaded only on an internal fault; it costs import time

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
