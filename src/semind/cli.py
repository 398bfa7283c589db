"""Command-line front end.

Subcommands: count, enumerate, search, profile, verify, figure, oracle.
Configuration comes from an optional key=value file plus flags (flags win);
the SEMIND_CACHE environment variable selects the cache directory, which
holds enumerated bases (loaded back after validation, see `graphs`) and
archived verification reports.  Exit codes: 0 success / verification PASS,
1 verification FAIL, 2 usage error (a `semind.UsageError`, a malformed
command line, or an unreadable or unwritable file the user named; one
`error:` line on stderr), 3 internal fault (its traceback on stderr).

Import rule: each command imports, inside its own function, the package
modules it runs, so that a short run pays the import time of those modules
only (`profile` and `figure` load no graph or counting code).  The one
module imported here is `profiles`: the parser's `profile --curve` help
lists `known_curves()`, and the benchmark's traced mode reads the import
time of `semind.profiles` from a bare `import semind.cli`.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import UsageError, __version__, check_work
from .profiles import curve, eval_curve, known_curves


@dataclass
class RunConfig:
    cache_dir: Path
    beta_grid_step: float = 0.001
    seed: int = 0


def load_config(args) -> RunConfig:
    values = {
        "cache_dir": os.environ.get("SEMIND_CACHE", ".semind-cache"),
        "beta_grid_step": 0.001,
        "seed": 0,
    }
    cfg_file = getattr(args, "config", None)
    if cfg_file:
        for lineno, line in enumerate(_read_text(cfg_file).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise UsageError(f"{cfg_file}:{lineno}: expected key=value")
            key = key.strip()
            val = val.strip()
            if key not in values:
                raise UsageError(f"{cfg_file}:{lineno}: unknown key {key!r}")
            if key == "cache_dir":
                values[key] = val
                continue
            convert, kind = (int, "an integer") if key == "seed" else (float, "a number")
            try:
                values[key] = convert(val)
            except ValueError:
                raise UsageError(
                    f"{cfg_file}:{lineno}: {key}: expected {kind}, got {val!r}"
                ) from None
    for key in ("beta_grid_step", "seed"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "cache_dir", None):
        values["cache_dir"] = args.cache_dir
    cfg = RunConfig(
        cache_dir=Path(values["cache_dir"]),
        beta_grid_step=float(values["beta_grid_step"]),
        seed=int(values["seed"]),
    )
    if not 0 < cfg.beta_grid_step <= 0.1:
        raise UsageError("beta_grid_step must lie in (0, 0.1]")
    return cfg


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


def exact_from_arg(text: str):
    """An exact `exactalg.Q2` value: 'sqrt2-1', '1/sqrt2', 'sqrt2/2',
    fractions, decimals."""
    from .exactalg import Q2, SQRT2

    t = text.strip().replace(" ", "")
    if t == "sqrt2":
        return SQRT2
    if t == "sqrt2-1":
        return SQRT2 - Q2.of(1)
    if t == "1-sqrt2":
        return Q2.of(1) - SQRT2
    if t == "1/sqrt2" or t == "sqrt2/2":
        return Q2(Fraction(0), Fraction(1, 2))
    try:
        return Q2.of(Fraction(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse exact value {text!r}") from exc


_CURVE_FOR_PATTERN = {
    "ap4": "ap4",
    "ac4": "ac4",
    "peenn": "peenn",
    "s:2,1": "s21",
}


# ---------------------------------------------------------------------------
# commands


def _reject_unread(args, flags, mode: str) -> None:
    """A UsageError for the first of `flags` that was given although `mode`
    does not read it."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None and value is not False:
            raise UsageError(f"{flag} is not read {mode}")


def _check_n(h, n: int) -> None:
    """Exact search and the oracle need a host at least as large as h."""
    if n < h.h:
        raise UsageError(f"--n must be at least the pattern's {h.h} vertices (got {n})")


def _check_count_work(units: float, profile: float, what: str) -> None:
    """One budget check for a count and the profile that `--profile-k` adds
    to it; the message names what to reduce for the larger of the two."""
    check_work(units + profile, what if units >= profile else "the host size or k")


def cmd_count(args, cfg: RunConfig) -> int:
    from .counting import (
        blowup_injections,
        blowup_work,
        count_injections,
        count_transitive,
        count_work,
        induced_profile,
        normalized_density,
        profile_work,
        transitive_work,
    )
    from .graphs import construction_parts, make_construction, parse_host, transitive_degree

    h = pattern_from_arg(args.pattern)
    if args.host and args.construct:
        raise UsageError("give either --host or --construct, not both")
    if args.construct:
        if args.n is None:
            raise UsageError("--construct requires --n")
        spec = construct_from_arg(args.construct)
        profile = 0 if args.profile_k is None else profile_work(args.n, args.profile_k)
        parts = construction_parts(spec, args.n)
        host_desc = f"{spec.describe()}:n={args.n}"
        host = None  # a blow-up is counted from its parts; built only for a profile
        if parts is not None:
            _check_count_work(
                blowup_work(h, parts), profile, "the number of parts or the pattern's vertices"
            )
            count = blowup_injections(h, parts)
            npairs = args.n * (args.n - 1) // 2
            beta = parts.red_count() / npairs
            n = args.n
        else:  # circulants and their complements, which are vertex-transitive
            degree = transitive_degree(spec, args.n)
            # building the host costs about one unit per ordered pair
            _check_count_work(transitive_work(h, args.n, degree) + args.n**2, profile, "n")
            host = make_construction(spec, args.n)
            n = host.n
            beta = host.red_density()
            count = count_transitive(h, host)
    elif args.host:
        _reject_unread(args, ("--n",), "with --host")
        text = args.host
        if text.startswith("@"):
            text = _read_text(text[1:])
        host = parse_host(text)
        profile = 0 if args.profile_k is None else profile_work(host.n, args.profile_k)
        _check_count_work(count_work(h, host), profile, "the host or the pattern")
        host_desc = host.to_text()
        n = host.n
        beta = host.red_density()
        count = count_injections(h, host)
    else:
        raise UsageError("count needs --host or --construct")
    rho = normalized_density(count, n, h.h) if n >= h.h else 0.0
    print(f"pattern={h.to_text()!r} host={host_desc!r} count={count} rho={rho:.12g}")
    if args.profile_k is not None:
        if host is None:
            host = make_construction(spec, args.n)
        prof = induced_profile(host, args.profile_k)
        print("class_code,count")
        for code in sorted(prof.counts):
            print(f"{code.decode()},{prof.counts[code]}")
    curve_tag = _CURVE_FOR_PATTERN.get(args.pattern)
    if args.pattern.startswith("ds:"):
        curve_tag = args.pattern
    if curve_tag:
        cv = eval_curve(curve(curve_tag), beta)
        print(
            f"curve={curve_tag} beta={beta:.12g} value={cv.value:.12g} "
            f"in_range={int(cv.in_range)}"
        )
    return 0


def cmd_enumerate(args, cfg: RunConfig) -> int:
    from .graphs import basis_text, enumerate_colored_graphs

    k = args.k
    classes = enumerate_colored_graphs(k)
    out = Path(args.out) if args.out else cfg.cache_dir / f"basis-k{k}.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(basis_text(classes))
    print(f"k={k} count={len(classes)} file={out}")
    return 0


def cmd_search(args, cfg: RunConfig) -> int:
    from .counting import normalized_density
    from .graphs import parse_host
    from .search import exact_max, full_profile, hill_climb

    h = pattern_from_arg(args.pattern)
    if args.hill:
        _reject_unread(args, ("--m",), "with --hill")
        seeds = [construct_from_arg(args.seed_construct)] if args.seed_construct else []
        res = hill_climb(
            h,
            args.n,
            target_density=args.beta,
            restarts=args.restarts,
            seed=cfg.seed,
            seeds=seeds,
        )
        rho = normalized_density(res.best_count, args.n, h.h)
        wit = res.witnesses[0].decode()
        m = parse_host(wit).red_count()
        print(f"n={args.n} m={m} best={res.best_count} rho={rho:.12g} witness={wit!r}")
        return 0
    _reject_unread(args, ("--beta", "--seed-construct"), "without --hill")
    _check_n(h, args.n)
    if args.profile:
        _reject_unread(args, ("--m",), "with --profile")
        res = full_profile(h, args.n)
        print("m,best,rho")
        for m in sorted(res.per_edge_count):
            best = res.per_edge_count[m]
            rho = normalized_density(best, args.n, h.h)
            print(f"{m},{best},{rho:.12g}")
        return 0
    res = exact_max(h, args.n, args.m)
    rho = normalized_density(res.best_count, args.n, h.h)
    for wit_bytes in res.witnesses:
        wit = wit_bytes.decode()
        m = parse_host(wit).red_count()
        print(f"n={args.n} m={m} best={res.best_count} rho={rho:.12g} witness={wit!r}")
    return 0


def cmd_profile(args, cfg: RunConfig) -> int:
    from .figures import Series, csv_text, series_rows

    cids = [curve(c) for c in args.curve.split("+")]
    lo, hi = args.beta_min, args.beta_max
    if not 0 <= lo <= hi <= 1:
        raise UsageError("need 0 <= --beta-min <= --beta-max <= 1")
    body = csv_text(series_rows([Series(cid, lo, hi) for cid in cids], cfg.beta_grid_step))
    if args.out:
        Path(args.out).write_text(body)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(body)
    return 0


def _report_header(argv) -> list[str]:
    """Version, command line and reference-table digests of a report."""
    import hashlib
    from importlib import resources

    lines = [f"# semind {__version__}", f"# argv: {shlex.join(argv)}"]
    data = resources.files("semind").joinpath("data")
    for entry in sorted(data.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".txt"):
            digest = hashlib.sha256(entry.read_bytes()).hexdigest()
            lines.append(f"# sha256 data/{entry.name} {digest}")
    return lines


def _archive_report(cfg: RunConfig, argv, cmd: str, text: str) -> None:
    """Write the report to a new file; a name taken in the same second gets
    a numeric suffix instead of being overwritten."""
    reports = cfg.cache_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{time.strftime('%Y%m%d-%H%M%S')}-{cmd}"
    body = "\n".join(_report_header(argv) + [text]) + "\n"
    path = reports / f"{name}.txt"
    suffix = 0
    while True:
        try:
            with open(path, "x") as fh:
                fh.write(body)
            return
        except FileExistsError:
            suffix += 1
            path = reports / f"{name}-{suffix}.txt"


# the flags that each certificate of `verify` reads; it rejects the others
_VERIFY_READS = {
    "ap4": ("--alpha-max",),
    "peenn": ("--B", "--C", "--interval", "--open-lo"),
    "stability": (),
}


def cmd_verify(args, cfg: RunConfig) -> int:
    from .certificates import (
        REGIME_RATIONAL,
        REGIME_SQRT2,
        stability_family_check,
        verify_ap4_certificate,
        verify_peenn_certificate,
    )

    reads = _VERIFY_READS[args.which]
    unread = [flag for flags in _VERIFY_READS.values() for flag in flags if flag not in reads]
    _reject_unread(args, unread, f"by verify {args.which}")
    if args.which == "ap4":
        hi = exact_from_arg(args.alpha_max or "1/2")
        if hi <= 0:
            raise UsageError(f"--alpha-max must be positive (got {args.alpha_max!r})")
        reports = [verify_ap4_certificate(alpha_interval=(Fraction(0), hi))]
    elif args.which == "stability":
        reports = [stability_family_check()]
    else:  # peenn; argparse restricts the choices
        if args.B or args.C or args.interval:
            if not (args.B and args.C and args.interval):
                raise UsageError("peenn overrides need --B, --C and --interval")
            form = "lo,hi with exact endpoints (e.g. 1/sqrt2,4/5)"
            lo, hi = _numbers("--interval", args.interval, args.interval, form, 2, exact_from_arg)
            if lo >= hi:
                raise UsageError(f"--interval {args.interval!r} needs lo < hi")
            reports = [
                verify_peenn_certificate(
                    B=exact_from_arg(args.B),
                    C=exact_from_arg(args.C),
                    interval=(lo, hi),
                    include_lo=not args.open_lo,
                )
            ]
        else:
            reports = [
                verify_peenn_certificate(
                    B=R["B"],
                    C=R["C"],
                    interval=(R["lo"], R["hi"]),
                    include_lo=R["include_lo"],
                    include_hi=R["include_hi"],
                )
                for R in (REGIME_SQRT2, REGIME_RATIONAL)
            ]
    text = "\n".join(r.render() for r in reports)
    print(text)
    _archive_report(cfg, args.argv, f"verify-{args.which}", text)
    return 0 if all(r.passed for r in reports) else 1


def cmd_figure(args, cfg: RunConfig) -> int:
    from .figures import emit_figure

    paths = emit_figure(args.id, Path(args.out), step=cfg.beta_grid_step)
    for p in paths:
        print(p)
    return 0


def cmd_oracle(args, cfg: RunConfig) -> int:
    from .counting import normalized_density
    from .search import brute_force_profile

    h = pattern_from_arg(args.pattern)
    _check_n(h, args.n)
    per_m = brute_force_profile(h, args.n)
    print("m,best,rho")
    for m in sorted(per_m):
        rho = normalized_density(per_m[m], args.n, h.h)
        print(f"{m},{per_m[m]},{rho:.12g}")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Flags must be spelled out, not abbreviated, and a malformed command
    line is a UsageError like any other bad input."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="semind",
        description="semi-inducibility workbench for red/blue colored complete graphs",
    )
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--cache-dir", help="cache directory (or SEMIND_CACHE)")
    p.add_argument("--seed", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("count", help="count semi-induced pattern copies")
    c.add_argument("--pattern", required=True)
    c.add_argument("--host")
    c.add_argument("--construct")
    c.add_argument("--n", type=int)
    c.add_argument("--profile-k", type=int,
                   help="also print the host's induced k-profile as CSV")
    c.set_defaults(func=cmd_count)

    e = sub.add_parser("enumerate", help="enumerate colorings up to isomorphism")
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--out")
    e.set_defaults(func=cmd_enumerate)

    s = sub.add_parser("search", help="extremal search over colorings")
    s.add_argument("--pattern", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int)
    s.add_argument("--profile", action="store_true", help="full per-m profile CSV")
    s.add_argument("--hill", action="store_true", help="hill climb instead of exact")
    s.add_argument("--beta", type=float, help="pinned red density for --hill")
    s.add_argument("--restarts", type=int, default=2)
    s.add_argument("--seed-construct", help="construction spec used as climb seed")
    s.set_defaults(func=cmd_search)

    pr = sub.add_parser("profile", help="curve values on a beta grid (CSV)")
    pr.add_argument(
        "--curve", required=True, help=f"curve id, '+'-separated for several: {known_curves()}"
    )
    pr.add_argument("--beta-min", type=float, default=0.0)
    pr.add_argument("--beta-max", type=float, default=1.0)
    pr.add_argument("--beta-grid-step", type=float, default=None)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_profile)

    v = sub.add_parser("verify", help="re-verify a certificate")
    v.add_argument("which", choices=("ap4", "peenn", "stability"))
    v.add_argument("--B")
    v.add_argument("--C")
    v.add_argument("--interval", help="lo,hi with exact endpoints (e.g. 1/sqrt2,4/5)")
    v.add_argument("--open-lo", action="store_true", help="exclude the left endpoint")
    v.add_argument("--alpha-max", help="upper endpoint for the ap4 multiplier check")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("figure", help="emit a figure as CSV + SVG")
    f.add_argument("--id", type=int, required=True, choices=(4, 5, 6, 7))
    f.add_argument("--out", default="figures")
    f.add_argument("--beta-grid-step", type=float, default=None)
    f.set_defaults(func=cmd_figure)

    o = sub.add_parser("oracle", help="raw brute-force per-m maxima (n <= 6)")
    o.add_argument("--pattern", required=True)
    o.add_argument("--n", type=int, required=True)
    o.set_defaults(func=cmd_oracle)
    return p


# the commands that read class lists, which a basis in the cache directory serves
_READS_CLASSES = ("enumerate", "search", "verify")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        args.argv = argv
        cfg = load_config(args)
        if args.cmd not in _READS_CLASSES:
            return args.func(args, cfg)
        from .graphs import basis_cache

        with basis_cache(cfg.cache_dir):
            return args.func(args, cfg)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # loaded only on an internal fault; it costs import time

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
