"""Seeded inputs and command sequences of the benchmark workloads.

Each workload is a fixed sequence of `semind` command lines.  The workload
seed only chooses among VARIANTS input sets (seed % VARIANTS), because every
command's output is checked against a reference recorded once per input set
(see record.py).  Variants 0-7 are the tuning set; variants 8-15 are held
out, so a later performance claim can be confirmed on seeds its author did not
tune on.

Sizes are chosen so that one sequence takes about 8 s on a 2-core x86
machine, so that a 28 s run holds three sequences to take the median of.
They are also chosen so that the work a sequence does depends on the seed as
little as possible: random hosts have a fixed size and red-pair count, the
random pattern has a fixed number of red, blue and free pairs, and climbs
have a fixed move budget and a pinned density.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 16
HELD_OUT = range(8, 16)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    reads: tuple[str, ...] = ()  # input files the command reads
    writes: tuple[str, ...] = ()  # output files whose digests are checked


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    inputs: dict  # file name -> bytes, written into the command's cwd
    commands: tuple[Command, ...]
    dominant: tuple[str, ...]


def _random_host(rng: random.Random, n: int, density: float) -> bytes:
    """Uniform host on n vertices with exactly round(density * C(n,2)) red pairs."""
    npairs = n * (n - 1) // 2
    red = set(rng.sample(range(npairs), round(density * npairs)))
    return f"{n} {''.join('R' if t in red else 'B' for t in range(npairs))}\n".encode()


def _exact_search(rng: random.Random):
    pairs = list("RRBBFF")
    rng.shuffle(pairs)
    m = rng.choice((10, 11))  # the two most populous red-pair counts at n = 7
    inputs = {"pattern.txt": f"4 {''.join(pairs)}\n".encode()}
    commands = (
        Command(("enumerate", "--k", "7"), writes=("cache/basis-k7.txt",)),
        Command(("search", "--pattern", "@pattern.txt", "--n", "7", "--m", str(m)),
                reads=("pattern.txt",)),
        Command(("search", "--pattern", "peenn", "--n", "7", "--profile")),
        Command(("oracle", "--pattern", "@pattern.txt", "--n", "5"), reads=("pattern.txt",)),
    )
    return inputs, commands


def _climb(rng: random.Random):
    s1, s2, s3 = (str(rng.randrange(2**31)) for _ in range(3))
    commands = (
        Command(("--seed", s1, "search", "--hill", "--pattern", "ac4", "--n", "28",
                 "--beta", "0.4", "--restarts", "2",
                 "--seed-construct", "cliques:0.4387,0.4387,0.1225")),
        Command(("--seed", s2, "search", "--hill", "--pattern", "s:2,1", "--n", "36",
                 "--beta", "0.5", "--restarts", "1")),
        # n = 17 is the smallest size whose witnesses skip canonical_form:
        # below it the snapshot cost depends on how symmetric the final
        # witness is, which swamps the counting work this command measures.
        # Starting from the clique construction keeps the hosts the climb
        # visits, and so the cost of each count, alike across seeds.
        Command(("--seed", s3, "search", "--hill", "--pattern", "peenn", "--n", "17",
                 "--beta", "0.3", "--restarts", "1", "--seed-construct", "clique_iso:0.5477")),
    )
    return {}, commands


def _count(rng: random.Random):
    inputs = {
        "host60.txt": _random_host(rng, 60, 0.5),
        "host32.txt": _random_host(rng, 32, 0.5),
        "host44.txt": _random_host(rng, 44, 0.5),
    }
    commands = (
        Command(("count", "--pattern", "peenn", "--host", "@host60.txt"), reads=("host60.txt",)),
        Command(("count", "--pattern", "ds:2", "--host", "@host32.txt"), reads=("host32.txt",)),
        Command(("count", "--pattern", "ac4", "--host", "@host44.txt", "--profile-k", "5"),
                reads=("host44.txt",)),
        Command(("count", "--pattern", "ap4", "--construct", "circulant:0.6667", "--n", "600")),
        Command(("count", "--pattern", "ds:3", "--construct", "cliques:0.4,0.35,0.25",
                 "--n", "5000")),
    )
    return inputs, commands


def _analysis(rng: random.Random):
    commands = (
        Command(("verify", "ap4")),
        Command(("verify", "peenn")),
        Command(("verify", "stability")),
        Command(("profile", "--curve", "ap4+ds:2+s21", "--out", "curves.csv"),
                writes=("curves.csv",)),
        Command(("figure", "--id", "6", "--out", "figs", "--beta-grid-step", "0.002"),
                writes=("figs/figure6.csv", "figs/figure6.svg")),
        Command(("figure", "--id", "7", "--out", "figs"),
                writes=("figs/figure7.csv", "figs/figure7.svg")),
    )
    return {}, commands


# workload -> (input builder, layers expected to take most of the traced time)
_BUILDERS = {
    "exact_search": (_exact_search, ("graphs",)),
    "climb": (_climb, ("counting", "search")),
    "count": (_count, ("counting",)),
    "analysis": (_analysis, ("exactalg", "profiles")),
}

WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload's inputs and commands; equal seeds give byte-identical inputs."""
    make, dominant = _BUILDERS[name]
    variant = seed % VARIANTS
    # a str seed is hashed with sha512, so it does not depend on PYTHONHASHSEED
    inputs, commands = make(random.Random(f"{name}:{variant}"))
    return Workload(name, variant, inputs, commands, dominant)
