"""Golden outputs of every transform on the catalog and corpus specs.

Each case pins four things of one compiled protocol: the SHA-256 of its
sorted-key ``spec_to_json`` document, its compile report, its register table
and its honest acceptance (to 1e-12).  A case whose transform refuses its
input pins the error instead.  After a change meant to alter a transform's
output, regenerate the file with::

    PYTHONPATH=src python tests/test_transform_golden.py
"""

import hashlib
import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from dqip.corpus import coin_check_honest, two_check_spec
from dqip.dam import toy_protocols
from dqip.errors import DqipError
from dqip.protocol import execute_exact, spec_to_json
from dqip.transforms import (
    dam_to_dqip,
    halve_turns_private,
    halve_turns_shared,
    pad_to_turns,
    parallel_repeat,
    perfect_completeness,
    seven_to_five,
)

from specs import random_clean_spec

GOLDEN = Path(__file__).parent / "golden" / "transform-specs.json"

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


@cache
def _entries() -> dict:
    return {entry.name: entry for entry in toy_protocols()}


@cache
def _simulated(name: str, instance: str):
    entry = _entries()[name]
    if instance == "yes":
        return dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)
    return dam_to_dqip(entry.protocol, entry.no_instance, entry.no)


@cache
def _padded(name: str, instance: str, target: int):
    compiled = _simulated(name, instance)
    return pad_to_turns(compiled.spec, compiled.honest, target)


def _halved(reduce, name: str, instance: str, target: int):
    entry, padded = _entries()[name], _padded(name, instance, target)
    return reduce(padded.spec, padded.honest, float(entry.completeness), float(entry.soundness))


def _repeated(name: str, instance: str, t: int, mode: str):
    compiled = _simulated(name, instance)
    return parallel_repeat(compiled.spec, compiled.honest, t, mode)


def _catalog_cases() -> dict:
    cases = {}
    for name in ("bipartite-pls", "coin-parity-echo-private", "coin-guess"):
        for instance in ("yes", "no"):
            key = f"{name}/{instance}"
            cases[f"{key}/dam_to_dqip"] = lambda n=name, i=instance: _simulated(n, i)
            for target in (5, 7, 9):
                cases[f"{key}/pad{target}"] = lambda n=name, i=instance, t=target: _padded(n, i, t)
            for reduce, target in (
                (halve_turns_shared, 5),
                (halve_turns_shared, 9),
                (seven_to_five, 7),
                (halve_turns_private, 5),
            ):
                cases[f"{key}/pad{target}/{reduce.__name__}"] = (
                    lambda r=reduce, n=name, i=instance, t=target: _halved(r, n, i, t)
                )
            for t in (1, 2):
                for mode in ("AND", "majority"):
                    cases[f"{key}/repeat{t}-{mode}"] = lambda n=name, i=instance, t=t, m=mode: _repeated(n, i, t, m)
    return cases


def _corpus_cases() -> dict:
    honest = coin_check_honest()
    cases = {
        "two-check/perfect": lambda: perfect_completeness(two_check_spec(E0, PLUS), honest),
        "two-check-no/perfect-c-s": lambda: perfect_completeness(
            two_check_spec(E0, E1, name="no"), honest, c=0.75, soundness=0.5
        ),
    }
    for t in (1, 2, 3):
        for mode in ("AND", "majority"):
            cases[f"two-check/repeat{t}-{mode}"] = lambda t=t, m=mode: parallel_repeat(
                two_check_spec(E0, PLUS), honest, t, m
            )
    for label, seed, turns, nodes, transform in (
        ("pad5", 0, 3, 2, lambda s, h: pad_to_turns(s, h, 5)),
        ("pad9", 0, 3, 3, lambda s, h: pad_to_turns(s, h, 9)),
        ("perfect", 0, 3, 2, perfect_completeness),
        ("repeat2-AND", 0, 3, 2, lambda s, h: parallel_repeat(s, h, 2, "AND")),
        ("repeat2-majority", 0, 3, 2, lambda s, h: parallel_repeat(s, h, 2, "majority")),
        ("repeat3-majority", 0, 1, 2, lambda s, h: parallel_repeat(s, h, 3, "majority")),
        ("halve_turns_shared", 1, 5, 2, halve_turns_shared),
        ("halve_turns_private", 1, 5, 2, halve_turns_private),
        ("halve_turns_private", 1, 5, 3, halve_turns_private),
        ("seven_to_five", 2, 7, 2, seven_to_five),
        ("seven_to_five", 2, 7, 3, seven_to_five),
        ("halve_turns_shared", 3, 9, 2, halve_turns_shared),
        ("halve_turns_shared", 3, 9, 3, halve_turns_shared),
        ("halve_turns_private", 3, 9, 2, halve_turns_private),
    ):
        cases[f"random-clean-{seed}-{turns}-{nodes}/{label}"] = (
            lambda seed=seed, turns=turns, nodes=nodes, transform=transform: transform(
                *random_clean_spec(seed, turns=turns, nodes=nodes)
            )
        )
    return cases


CASES = {**_catalog_cases(), **_corpus_cases()}


def _record(build) -> dict:
    try:
        compiled = build()
    except DqipError as err:
        return {"error": f"{type(err).__name__}: {err}"}
    spec = compiled.spec
    return {
        "spec_sha256": hashlib.sha256(json.dumps(spec_to_json(spec), sort_keys=True).encode()).hexdigest(),
        "report": json.loads(json.dumps(compiled.report.to_json())),
        "registers": [[name, start, size, spec.layout.owner(name)] for name, start, size in spec.layout.registers],
        "honest_acceptance": execute_exact(spec, compiled.honest).acceptance_probability,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_transform_output_matches_golden(case, golden):
    got, want = _record(CASES[case]), golden[case]
    assert set(got) == set(want)
    if "error" in want:
        assert got["error"] == want["error"]
        return
    assert got["spec_sha256"] == want["spec_sha256"]
    assert got["report"] == want["report"]
    assert got["registers"] == want["registers"]
    assert abs(got["honest_acceptance"] - want["honest_acceptance"]) <= 1e-12


if __name__ == "__main__":
    records = {case: _record(CASES[case]) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
