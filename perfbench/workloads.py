"""Seeded command lists for the benchmark workloads.

Every workload is a fixed set of mathematical problems.  The seed decides
how each problem is written down and the order in which the commands are
sent, so two seeds give different command lists that cost the same work:

* an action of order d is sent as ``u*w + c (mod d)`` for a seed-drawn
  unit ``u`` and shift ``c``, where ``w`` is the canonical weight vector of
  its class.  Both maps fix the set of invariant monomials of every
  degree t*d, so the report differs from the canonical one only in the
  echoed weights;
* a semigroup file lists its generators in a seed-drawn order, with one
  generator repeated; the program deduplicates and sorts them;
* member queries are seed-drawn sums of generators.

Each command carries the key of its canonical report in reference.json and
what the checker needs to map the actual report onto that canonical one.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, replace

# Semigroups of the cm-scan workload: homogeneous generator sets in
# dimension 3 that contain a multiple of every axis.  "cubic" is the non-aCM
# example of the README; the others were drawn once at random and are kept
# fixed so that every seed scans the same sets.
SEMIGROUPS = {
    "cubic": ((5, 0, 0), (0, 5, 0), (0, 0, 5), (3, 1, 1), (2, 2, 1), (1, 3, 1)),
    "s0": ((6, 0, 0), (4, 0, 2), (3, 0, 3), (0, 6, 0), (0, 0, 6)),
    "s1": ((7, 0, 0), (6, 1, 0), (4, 1, 2), (2, 4, 1), (0, 7, 0), (0, 0, 7)),
    "s3": ((5, 0, 0), (4, 0, 1), (3, 2, 0), (2, 3, 0), (2, 0, 3), (0, 5, 0),
           (0, 0, 5)),
    "s4": ((6, 0, 0), (2, 1, 3), (1, 2, 3), (0, 6, 0), (0, 0, 6)),
    "s5": ((7, 0, 0), (5, 1, 1), (5, 0, 2), (1, 5, 1), (0, 7, 0), (0, 3, 4),
           (0, 0, 7)),
    "s6": ((5, 0, 0), (4, 1, 0), (4, 0, 1), (1, 4, 0), (0, 5, 0), (0, 3, 2),
           (0, 0, 5)),
    "s7": ((6, 0, 0), (4, 2, 0), (2, 3, 1), (1, 3, 2), (1, 1, 4), (0, 6, 0),
           (0, 0, 6)),
}

# (set, bound) pairs scanned for normality and the CM criterion in cm-scan.
SEMIGROUP_SCANS = (("s1", 8), ("s3", 8), ("s0", 8), ("s4", 8))

# Member queries whose depth-first search backtracks a lot.  They are fixed
# because their cost depends strongly on the vector: a seed-drawn vector on
# these sets costs anywhere from 5 ms to 4 s, which would make wall_s a
# function of the seed.
HARD_QUERIES = (("cubic", (1459, 1303, 1053)), ("s3", (1031, 701, 588)),
                ("s7", (784, 820, 682)))

# Seed-drawn member queries go to sets whose search cost barely depends on
# the vector (5-16 ms for sums of 50-900 generators).  Each set gets one
# query per size; the seed draws which generators are summed.
EASY_QUERY_SETS = ("s5", "s6")
EASY_QUERY_SIZES = (50, 260, 470, 680, 890)


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its input files and how to check its report."""

    argv: tuple[str, ...]
    ref: str
    files: tuple[tuple[str, str], ...] = ()
    # the action the report must echo, and the canonical weights that
    # replace the echoed ones before hashing
    action: dict | None = None
    canonical_weights: tuple[int, ...] | None = None
    # the vector of a member query; it is a sum of generators, so the
    # report must answer member: true
    query: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {"argv": list(self.argv), "ref": self.ref,
                "files": dict(self.files), "action": self.action,
                "canonical_weights": (list(self.canonical_weights)
                                      if self.canonical_weights else None),
                "query": list(self.query) if self.query else None}


def action_classes(nvars: int, d: int) -> list[tuple[int, ...]]:
    """One canonical weight vector per class of order-d actions.

    Two vectors of distinct weights are in one class when a unit multiple,
    a shift and a permutation carry one to the other; the representative
    is the least sorted vector of the class, which starts with 0.  Classes
    violating gcd(weights, d) = 1 are skipped.
    """
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    reps = set()
    for rest in itertools.combinations(range(1, d), nvars - 1):
        w = (0,) + rest
        if math.gcd(*w, d) != 1:
            continue
        reps.add(min(tuple(sorted(u * (x - s) % d for x in w))
                     for u in units for s in w))
    return sorted(reps)


def _disguised_action(cmd: str, d: int, rep, rng) -> Command:
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    u, c = rng.choice(units), rng.randrange(d)
    weights = [(u * x + c) % d for x in rep]
    return Command(
        argv=(cmd, str(d), ",".join(map(str, weights)), "--format", "json"),
        ref=f"{cmd}:{d}:{','.join(map(str, rep))}",
        action={"d": d, "weights": weights},
        canonical_weights=tuple(rep))


def _action_commands(cmd: str, strata, rng) -> list[Command]:
    return [_disguised_action(cmd, d, rep, rng)
            for nvars, degrees in strata for d in degrees
            for rep in action_classes(nvars, d)]


def _semigroup_file(name: str, rng) -> tuple[str, str]:
    gens = [list(g) for g in SEMIGROUPS[name]]
    gens.append(list(rng.choice(SEMIGROUPS[name])))
    rng.shuffle(gens)
    return name, json.dumps({"dim": 3, "generators": gens})


def _semigroup_scan(name: str, bound: int, rng) -> Command:
    return Command(argv=("semigroup", name, "--bound", str(bound),
                         "--format", "json"),
                   ref=f"semigroup:{name}:bound{bound}",
                   files=(_semigroup_file(name, rng),))


def _member_query(name: str, vector, rng) -> Command:
    return Command(argv=("semigroup", name, "--bound", "1",
                         "--member", ",".join(map(str, vector)),
                         "--format", "json"),
                   ref=f"semigroup:{name}:bound1",
                   files=(_semigroup_file(name, rng),),
                   query=tuple(vector))


def _random_member(name: str, low: int, high: int, rng) -> tuple[int, ...]:
    """A sum of between low and high generators, hence a member."""
    gens = SEMIGROUPS[name]
    picks = rng.choices(range(len(gens)), k=rng.randint(low, high))
    return tuple(sum(gens[i][k] for i in picks) for k in range(3))


def _family(cmd: str, params, bound: int) -> Command:
    label = ",".join(map(str, params))
    return Command(argv=(cmd, *map(str, params), "--bound", str(bound),
                         "--format", "json"),
                   ref=f"{cmd}:{label}:bound{bound}")


VERIFY = Command(argv=("verify-paper", "--format", "json"), ref="verify-paper")


def _toric(rng):
    # ideal on every action class of these strata: 3 variables with
    # d 11-23, 4 variables with d 5-7, 5 variables with d = 5.
    return _action_commands("ideal", ((3, range(11, 24)), (4, range(5, 8)),
                                      (5, (5,))), rng)


def _wlp(rng):
    # classify on every action class: 3 variables with d 13-19, 4 with d 7-9.
    return _action_commands("classify", ((3, range(13, 20)),
                                         (4, range(7, 10))), rng)


def _cm_scan(rng):
    out = [_family("h3t", (t,), b)
           for t, b in ((2, 10), (3, 9), (3, 10), (4, 8), (4, 10))]
    out += [_family("hk", p, b) for p, b in (((2, 1), 10), ((3, 1), 9),
                                             ((2, 2), 8))]
    out += [_semigroup_scan(name, b, rng) for name, b in SEMIGROUP_SCANS]
    out += [_member_query(name, v, rng) for name, v in HARD_QUERIES]
    out += [_member_query(name, _random_member(name, size, size, rng), rng)
            for name in EASY_QUERY_SETS for size in EASY_QUERY_SIZES]
    return out


def _catalog(rng):
    out = [Command(argv=(cmd, str(a), str(b), str(d), "--format", "json"),
                   ref=f"{cmd}:{a},{b},{d}")
           for d in range(3, 12) for a in range(1, d) for b in range(a + 1, d)
           if math.gcd(a, b, d) == 1 for cmd in ("hilbert", "betti")]
    out += _action_commands("classify", ((3, range(5, 10)),), rng)
    out += _action_commands("ideal", ((3, range(5, 10)),), rng)
    out += [_family("h3t", (t,), b) for t in (1, 2) for b in (4, 6)]
    return out


def _cm_deep(rng):
    # Member queries past sum/g = 1000.  When this workload was written,
    # the recursive search of member() raised RecursionError on them; this
    # workload keeps that visible without putting it on the timed ones.
    return [_member_query(name, _random_member(name, 1000, 1500, rng), rng)
            for name in ("cubic", "s5", "s6") for _ in range(3)]


_BUILDERS = {"toric": _toric, "wlp": _wlp, "cm-scan": _cm_scan,
             "catalog": _catalog, "cm-deep": _cm_deep}
WORKLOADS = tuple(_BUILDERS)


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of one pass: same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    out = _BUILDERS[workload](rng)
    rng.shuffle(out)
    if workload != "cm-deep":
        # every timed workload ends its batch with the reference suite, so
        # that each layer is entered at least once on every workload
        out.append(VERIFY)
    return [_rename_inputs(cmd, i) for i, cmd in enumerate(out)]


def _rename_inputs(cmd: Command, index: int) -> Command:
    """Give each command its own input file, named by its position."""
    if not cmd.files:
        return cmd
    (old, text), = cmd.files
    new = f"in{index:03d}.json"
    return replace(cmd, files=((new, text),),
                   argv=tuple(new if a == old else a for a in cmd.argv))
