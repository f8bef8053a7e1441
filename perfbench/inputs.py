"""Seeded request streams for the three workloads.

Everything here is generated by the benchmark's own code from ``--seed``:
the small-problem pool, the cold draws, the symmetric families (written out
below rather than imported from the program), and every renaming.  A problem
is a ``(delta, configurations)`` pair, each configuration a
``(parent, children)`` tuple of labels.  Requests are sent as text, and
renamings use single-character labels only: text with multi-character labels
re-parses into a different problem (``L0`` splits into ``L`` and ``0``) unless
the alphabet travels with it.
"""

from __future__ import annotations

import hashlib
import random
from itertools import accumulate, combinations_with_replacement, permutations
from typing import Dict, List, Sequence, Tuple

Config = Tuple[str, Tuple[str, ...]]
Problem = Tuple[int, Tuple[Config, ...]]

# Single-character labels the renamings draw from; none of them is special
# to the parser (":" separates, ";" splits lines, "#" starts a comment).
ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

HITS_POOL_SIZE = 64
HITS_LABELS, HITS_CONFIGS = 3, 6  # 6 of the 18 possible configurations
# A mild skew: at 1.0 a handful of hot problems carried most of the traffic,
# so throughput depended on which problems a seed happened to draw.
HITS_ZIPF_EXPONENT = 0.5
HITS_WARM_REQUESTS = 2000

COLD_LABELS, COLD_CONFIGS = 4, 12  # density 0.3: 12 of the 40 configurations
COLD_BATCH = 16
COLD_WARM_BATCHES = 8

# One block of the symmetric stream.  Its shares put p50 in the middle of
# the Π_4 group and p99 inside the 7-coloring group (1.5% > 1%), never on an
# edge between two problem sizes; hard-5 is the decoy whose renamings defeat
# the canonical-form fallback today.
SYMMETRIC_BLOCK = (
    ("7-coloring", 3),
    ("hard-4", 3),
    ("6-coloring", 6),
    ("pi-5", 10),
    ("5-coloring-d3", 10),
    ("hard-5", 18),
    ("pi-4", 100),
    ("5-coloring", 50),
)
SYMMETRIC_BLOCK_SIZE = sum(count for _name, count in SYMMETRIC_BLOCK)


# ----------------------------------------------------------------------
# Text and renaming
# ----------------------------------------------------------------------
def labels_of(problem: Problem) -> List[str]:
    seen = {label for parent, children in problem[1] for label in (parent, *children)}
    return sorted(seen)


def to_text(configs: Sequence[Config]) -> str:
    return "\n".join(f"{parent} : {' '.join(children)}" for parent, children in configs)


def renamed_text(problem: Problem, rng: random.Random) -> str:
    """A fresh renaming of ``problem`` onto single-character labels, as text."""
    labels = labels_of(problem)
    mapping = dict(zip(labels, rng.sample(ALPHABET, len(labels))))
    configs = [
        (mapping[parent], tuple(mapping[child] for child in children))
        for parent, children in problem[1]
    ]
    rng.shuffle(configs)
    return to_text(configs)


def digest(texts: Sequence[str]) -> str:
    """SHA-256 of a request stream, in the order it is sent."""
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Random small problems
# ----------------------------------------------------------------------
def orbit_key(problem: Problem) -> Tuple:
    """The lexicographically least relabeling: equal exactly on renaming orbits.

    Brute force over every permutation, so only for the small alphabets of
    the pool and the cold draws.
    """
    labels = labels_of(problem)
    best = None
    for order in permutations(range(len(labels))):
        index = dict(zip(labels, order))
        form = tuple(
            sorted(
                (index[parent], tuple(sorted(index[child] for child in children)))
                for parent, children in problem[1]
            )
        )
        if best is None or form < best:
            best = form
    return best


def random_problem(
    rng: random.Random, num_labels: int, num_configs: int, delta: int = 2
) -> Problem:
    """``num_configs`` distinct configurations over exactly ``num_labels`` labels."""
    labels = [str(index) for index in range(num_labels)]
    universe = [
        (parent, children)
        for parent in labels
        for children in combinations_with_replacement(labels, delta)
    ]
    while True:
        configs = tuple(sorted(rng.sample(universe, num_configs)))
        problem = (delta, configs)
        if len(labels_of(problem)) == num_labels:
            return problem


def distinct_problems(
    rng: random.Random, count: int, num_labels: int, num_configs: int, seen: set
) -> List[Problem]:
    """``count`` random problems from orbits not in ``seen`` (which grows)."""
    problems: List[Problem] = []
    while len(problems) < count:
        problem = random_problem(rng, num_labels, num_configs)
        key = orbit_key(problem)
        if key not in seen:
            seen.add(key)
            problems.append(problem)
    return problems


# ----------------------------------------------------------------------
# Symmetric families (large alphabets, expensive canonical forms)
# ----------------------------------------------------------------------
def coloring(colors: int, delta: int = 2) -> Problem:
    """Proper ``colors``-coloring: a node's color differs from its children's."""
    labels = [str(index) for index in range(1, colors + 1)]
    configs = tuple(
        (parent, children)
        for parent in labels
        for children in combinations_with_replacement(
            [label for label in labels if label != parent], delta
        )
    )
    return delta, configs


def pi_k(k: int) -> Problem:
    """Section 8's ``Π_k`` (complexity ``n^{1/k}``): k 2-colorings with separators."""
    labels: List[str] = []
    for index in range(1, k + 1):
        labels += [f"a{index}", f"b{index}"]
        if index < k:
            labels.append(f"x{index}")

    def lower(index: int) -> List[str]:
        return [f"{kind}{j}" for j in range(1, index) for kind in "abx"]

    configs: List[Config] = []
    for index in range(1, k + 1):
        for name, other in ((f"a{index}", f"b{index}"), (f"b{index}", f"a{index}")):
            configs += [
                (name, children)
                for children in combinations_with_replacement(
                    sorted(lower(index) + [other]), 2
                )
            ]
    for index in range(1, k):
        restricted = lower(index) + [f"a{index}", f"b{index}"]
        configs += [
            (f"x{index}", tuple(sorted((first, second))))
            for first in sorted(labels)
            for second in restricted
        ]
    return 2, tuple(dict.fromkeys(configs))


def hard_problem(pairs: int) -> Problem:
    """Branch 2-coloring plus ``pairs`` decoy 2-cycles (``Θ(log n)``)."""
    configs: List[Config] = [("1", ("1", "2")), ("2", ("1", "1"))]
    for index in range(pairs):
        first, second = f"p{index}", f"q{index}"
        configs += [(first, (second, second)), (second, (first, first))]
    return 2, tuple(configs)


def symmetric_bases() -> Dict[str, Problem]:
    return {
        "5-coloring": coloring(5),
        "6-coloring": coloring(6),
        "7-coloring": coloring(7),
        "5-coloring-d3": coloring(5, delta=3),
        "pi-4": pi_k(4),
        "pi-5": pi_k(5),
        "hard-4": hard_problem(4),
        "hard-5": hard_problem(5),
    }


# ----------------------------------------------------------------------
# Workload streams
# ----------------------------------------------------------------------
class Stream:
    """One workload's inputs: base problems, warm-up and timed requests.

    ``timed`` holds ``(base, text)`` pairs, ``base`` indexing ``bases``; for
    the batch workload ``timed`` and ``warm`` hold lists of such pairs, one
    list per batch.
    """

    def __init__(self, bases, names, warm, timed) -> None:
        self.bases: List[Problem] = bases
        self.names: List[str] = names
        self.warm = warm
        self.timed = timed

    def digest(self) -> str:
        texts: List[str] = []
        for entry in self.timed:
            if isinstance(entry, list):
                texts.append("\x1d".join(text for _base, text in entry))
            else:
                texts.append(entry[1])
        return digest(texts)


def hits_stream(seed: int, requests: int) -> Stream:
    rng = random.Random(f"hits_tcp/{seed}")
    pool = distinct_problems(rng, HITS_POOL_SIZE, HITS_LABELS, HITS_CONFIGS, set())
    weights = [1.0 / (rank + 1) ** HITS_ZIPF_EXPONENT for rank in range(len(pool))]
    cumulative = list(accumulate(weights))

    def draw(count: int) -> List[Tuple[int, str]]:
        picks = rng.choices(range(len(pool)), cum_weights=cumulative, k=count)
        return [(index, renamed_text(pool[index], rng)) for index in picks]

    # Warm-up: every pool problem once (the searches), then skewed traffic.
    warm = [(index, renamed_text(problem, rng)) for index, problem in enumerate(pool)]
    warm += draw(HITS_WARM_REQUESTS)
    names = [f"pool-{index}" for index in range(len(pool))]
    return Stream(pool, names, warm, draw(requests))


def cold_stream(seed: int, batches: int) -> Stream:
    rng = random.Random(f"cold_batch_tcp/{seed}")
    total = (COLD_WARM_BATCHES + batches) * COLD_BATCH
    draws = distinct_problems(rng, total, COLD_LABELS, COLD_CONFIGS, set())
    items = [(index, renamed_text(problem, rng)) for index, problem in enumerate(draws)]
    chunks = [items[start : start + COLD_BATCH] for start in range(0, total, COLD_BATCH)]
    names = [f"draw-{index}" for index in range(total)]
    return Stream(draws, names, chunks[:COLD_WARM_BATCHES], chunks[COLD_WARM_BATCHES:])


def symmetric_stream(seed: int, requests: int) -> Stream:
    rng = random.Random(f"symmetric_inline/{seed}")
    families = symmetric_bases()
    names = list(families)
    bases = [families[name] for name in names]
    block = [names.index(name) for name, count in SYMMETRIC_BLOCK for _ in range(count)]
    order: List[int] = []
    while len(order) < requests:
        shuffled = list(block)
        rng.shuffle(shuffled)
        order += shuffled
    timed = [(index, renamed_text(bases[index], rng)) for index in order[:requests]]
    warm = [(index, renamed_text(base, rng)) for index, base in enumerate(bases)]
    return Stream(bases, names, warm, timed)
