"""Seeded problem pools: the one source of reproducible workload keys.

Three consumers draw from this module and must stay in lockstep:

* the **load-generation harness** (:mod:`repro.loadgen`) builds its
  Zipf-sampled key universe from :func:`distinct_forms`,
* the **scheduler fuzz harness** (``tests/test_scheduler_fuzz.py``)
  interleaves operations over the same pools, and
* the **endpoint parity suites** (``tests/test_api.py``,
  ``tests/test_loadgen_parity.py``) push the same pools through every
  endpoint kind.

Keeping the generation here — seeds consumed in deterministic order, no
wall-clock or machine dependence — guarantees that "seed 7" names the same
canonical-key distribution in a unit test, a fuzz run, and a committed
benchmark trajectory file.  ``tests/problem_pools.py`` re-exports this
module for the test suites.

The census generators live here too: :func:`census_params` and
:func:`census_draws` are the one validation and draw of a census (the
session's local census and the service's ``census``/``warm`` handlers both
call them), so equal parameters name identical problems on every endpoint.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..core.problem import LCLProblem
from ..engine.canonical import CanonicalForm, canonical_form
from .random_problems import random_problem


def distinct_forms(
    count: int,
    labels: int = 3,
    density: float = 0.3,
    start: int = 0,
    name_prefix: Optional[str] = None,
) -> List[CanonicalForm]:
    """``count`` canonical forms with pairwise-distinct keys (deterministic).

    Seeds are consumed in order starting at ``start``, skipping draws whose
    orbit was already produced, so the pool is stable across runs and
    machines.  With ``name_prefix`` each accepted problem is named
    ``"<prefix><index>"`` (the name never affects the canonical key, so the
    pool's key sequence is identical with or without it).
    """
    forms: List[CanonicalForm] = []
    seen, seed = set(), start
    while len(forms) < count:
        name = f"{name_prefix}{len(forms)}" if name_prefix is not None else ""
        form = canonical_form(
            random_problem(labels, density=density, seed=seed, name=name)
        )
        if form.key not in seen:
            seen.add(form.key)
            forms.append(form)
        seed += 1
    return forms


def seeded_problems(count, labels=2, density=0.5, seed=0, delta=2):
    """A plain seeded problem list (duplicates allowed), census-style draws.

    The ``seed + index`` scheme of :func:`census_draws`, so a pool built
    here equals the problems a census with the same parameters classifies.
    """
    return [
        random_problem(labels, delta=delta, density=density, seed=seed + index)
        for index in range(count)
    ]


def census_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a census parameter object; return its normalized echo form.

    Raises :class:`ValueError` with the message each endpoint reports.
    """
    try:
        labels = int(params.get("labels", 2))
        delta = int(params.get("delta", 2))
        density = float(params.get("density", 0.5))
        count = int(params.get("count", 100))
        seed = int(params.get("seed", 0))
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad census parameter: {error}") from error
    if count < 1:
        raise ValueError("census requires count >= 1")
    return {
        "labels": labels,
        "delta": delta,
        "density": density,
        "count": count,
        "seed": seed,
    }


def census_draws(echo: Mapping[str, Any]) -> List[LCLProblem]:
    """The draws of a census whose parameters :func:`census_params` checked."""
    return seeded_problems(
        echo["count"],
        labels=echo["labels"],
        density=echo["density"],
        seed=echo["seed"],
        delta=echo["delta"],
    )


__all__ = ["census_draws", "census_params", "distinct_forms", "seeded_problems"]
