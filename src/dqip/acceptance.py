"""The release-gate battery: every guarantee the artifact claims, measured.

Each criterion returns its measured value and the bound it must satisfy;
``run_all`` powers both the ``verify-suite`` CLI command and the acceptance
test module.  Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import qcore
from .corpus import coin_check_honest, two_check_spec
from .dam import catalog_entry, toy_protocols
from .dqct import build_pdqct, make_instance, soundness_probe
from .ghz import GhzProtocolParams, build_pghz, ghz_fidelity, ghz_state, stabilizer_tests, star_state
from .network import path_graph
from .prover import OptimizerConfig, exact_single_message_max, seesaw_optimize
from .protocol import execute_exact, variable_marginal
from .seeding import substream
from .transforms import (
    dam_to_dqip,
    halve_turns_private,
    halve_turns_shared,
    halved_completeness,
    halved_soundness,
    pad_to_turns,
    perfect_completeness,
    seven_to_five,
)


@dataclass
class CriterionResult:
    criterion: str
    passed: bool
    measured: float
    bound: float
    comparison: str  # "<=" or ">="
    details: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.criterion:<28} {self.measured:>14.3e} {self.comparison:>2} "
            f"{self.bound:>10.3e}  {status}  ({self.elapsed_seconds:.1f}s)"
        )


@dataclass(frozen=True)
class Criterion:
    ident: str
    title: str
    budget_seconds: float
    run: Callable[[], tuple[float, float, str, list[str]]]

    def evaluate(self) -> CriterionResult:
        start = time.perf_counter()
        measured, bound, comparison, details = self.run()
        elapsed = time.perf_counter() - start
        passed = bool(measured <= bound if comparison == "<=" else measured >= bound)
        return CriterionResult(self.ident, passed, measured, bound, comparison, details, elapsed)


# ---------------------------------------------------------------------------
# Criterion bodies
# ---------------------------------------------------------------------------


def _ghz_star_equivalence():
    worst = 0.0
    for n in range(2, 7):
        vec = ghz_state(n)
        for leaf in range(1, n):
            vec = qcore.apply_matrix_vec(vec, qcore.H, [leaf])
        worst = max(worst, float(np.linalg.norm(vec - star_state(n))))
    return worst, 1e-12, "<=", [f"max deviation over n=2..6: {worst:.2e}"]


def _stabilizer_equivalence():
    worst = 0.0
    for n in range(2, 5):
        for test in stabilizer_tests(n):
            for idx in range(2**n):
                bits = tuple((idx >> q) & 1 for q in range(n))
                vec = np.zeros(2**n, dtype=complex)
                vec[idx] = 1.0
                for q, basis in enumerate(test.bases):
                    if basis == "X":
                        vec = qcore.apply_matrix_vec(vec, qcore.H, [q])
                classical = 1.0 if test.predicate(bits) else 0.0
                quantum = qcore.projector_probability(vec, test.projector, list(range(n)))
                worst = max(worst, abs(classical - quantum))
    return worst, 1e-10, "<=", ["all product basis states, n = 2..4, both tests"]


def _pghz_completeness():
    worst = 0.0
    details = []
    for n in (3, 4):
        for copies in (1, 2):
            compiled = build_pghz(path_graph(n), GhzProtocolParams(copies=copies))
            report = execute_exact(compiled.spec, compiled.honest, collect_output=True)
            fid = ghz_fidelity(report.output_state)
            gap = max(1 - report.acceptance_probability, 1 - fid)
            worst = max(worst, gap)
            details.append(
                f"n={n} N={copies}: acceptance={report.acceptance_probability:.12f} fidelity={fid:.12f}"
            )
    return worst, 1e-9, "<=", details


def _dqct_honest_value():
    graph = path_graph(2)
    params = GhzProtocolParams(copies=1, epsilon=0.25)
    worst = 0.0
    instances = [make_instance(graph, (1, 1), "equal", seed=0), make_instance(graph, (1, 1), "orthogonal", seed=1)]
    instances += [make_instance(graph, (1, 1), "random", seed=s) for s in range(48)]
    for instance in instances:
        compiled = build_pdqct(instance, params)
        got = execute_exact(compiled.spec, compiled.honest).acceptance_probability
        want = 0.5 + 0.5 * instance.overlap_squared()
        worst = max(worst, abs(got - want))
    return worst, 1e-9, "<=", [f"50 instances incl. equal (1) and orthogonal (1/2) corners"]


def _dqct_soundness_implication():
    graph = path_graph(2)
    params = GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=2)
    config = OptimizerConfig(restarts=5, sweeps=50, seed=29)
    worst = -1.0
    details = []
    for kind, seed in (("equal", 0), ("orthogonal", 1), ("random", 2), ("random", 3)):
        instance = make_instance(graph, (1, 1), kind, seed=seed)
        compiled = build_pdqct(instance, params)
        honest = execute_exact(compiled.spec, compiled.honest).acceptance_probability
        probe = soundness_probe(instance, compiled, honest, config)
        margin = probe["input_trace_distance"] - probe["distance_bound_at_best"]
        worst = max(worst, margin)
        details.append(
            f"{kind}#{seed}: acc={probe['best_acceptance']:.6f} dist={probe['input_trace_distance']:.4f} "
            f"bound={probe['distance_bound_at_best']:.4f}"
        )
    return worst, 1e-6, "<=", details


def _dam_to_dqip_fidelity():
    # Max violation over: |honest - c| at tolerance 1e-9, seesaw excess over
    # s at tolerance 1e-6; a negative result means every check held.
    worst = -1.0
    details = []
    config = OptimizerConfig(restarts=4, sweeps=60, seed=31)
    for entry in toy_protocols():
        yes = dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)
        honest = execute_exact(yes.spec, yes.honest).acceptance_probability
        worst = max(worst, abs(honest - float(entry.completeness)) - 1e-9)
        no = dam_to_dqip(entry.protocol, entry.no_instance, entry.no)
        trace = seesaw_optimize(no.spec, config, honest=no.honest)
        worst = max(worst, trace.best_acceptance - float(entry.soundness) - 1e-6)
        details.append(
            f"{entry.name}: honest={honest:.9f} (c={float(entry.completeness):.4f}) "
            f"seesaw={trace.best_acceptance:.9f} (s={float(entry.soundness):.4f})"
        )
    return worst, 0.0, "<=", details


def _turn_halving_identities():
    entry = catalog_entry("coin-parity-echo-private")
    guess = catalog_entry("coin-guess")
    config = OptimizerConfig(restarts=4, sweeps=60, seed=37)
    worst = -1.0
    details = []
    # (input turns, reduction, output turns, label of the no-instance detail)
    reductions = ((5, halve_turns_shared, 3, "shared no"), (7, seven_to_five, 5, "7->5 no"))
    for cat in (entry, guess):
        yes = dam_to_dqip(cat.protocol, cat.yes_instance, cat.yes)
        c = float(cat.completeness)
        for turns, reduce, out_turns, _ in reductions:
            padded = pad_to_turns(yes.spec, yes.honest, turns)
            reduced = reduce(padded.spec, padded.honest, completeness=c)
            assert reduced.spec.num_turns == out_turns and reduced.report.input_turns == turns
            got = execute_exact(reduced.spec, reduced.honest).acceptance_probability
            worst = max(worst, abs(got - halved_completeness(c)) - 1e-9)
            details.append(f"{cat.name} {turns}->{out_turns}: honest={got:.10f} target={halved_completeness(c):.10f}")

    s = float(entry.soundness)
    no = dam_to_dqip(entry.protocol, entry.no_instance, entry.no)
    for turns, reduce, _, label in reductions:
        padded = pad_to_turns(no.spec, no.honest, turns)
        reduced = reduce(padded.spec, padded.honest, soundness=s)
        trace = seesaw_optimize(reduced.spec, config, honest=reduced.honest)
        worst = max(worst, trace.best_acceptance - halved_soundness(s) - 1e-6)
        details.append(f"{label}: seesaw={trace.best_acceptance:.10f} <= {halved_soundness(s):.10f}")
    return worst, 0.0, "<=", details


def _private_halving():
    worst = -1.0
    details = []
    for name in ("coin-parity-echo-private", "coin-guess"):
        cat = catalog_entry(name)
        yes = dam_to_dqip(cat.protocol, cat.yes_instance, cat.yes)
        c = float(cat.completeness)
        padded = pad_to_turns(yes.spec, yes.honest, 5)
        halved = halve_turns_private(padded.spec, padded.honest, completeness=c)
        assert halved.spec.num_turns == 5  # 2l + 3 with l = 1
        got = execute_exact(halved.spec, halved.honest).acceptance_probability
        worst = max(worst, abs(got - halved_completeness(c)) - 1e-9)
        for u in range(halved.spec.graph.node_count):
            marginal = variable_marginal(halved.spec, halved.honest, f"coin:{u}", 0)
            worst = max(worst, abs(marginal - 0.5) - 1e-10)
            details.append(f"{name} node {u}: coin marginal {marginal:.12f}")
        details.append(f"{name}: honest={got:.10f} target={halved_completeness(c):.10f}")
    return worst, 0.0, "<=", details


def _perfect_completeness():
    honest = coin_check_honest()
    e0 = np.array([1, 0], dtype=complex)
    cases = {
        0.6: np.array([np.sqrt(0.2), np.sqrt(0.8)], dtype=complex),
        0.75: np.array([1, 1], dtype=complex) / np.sqrt(2),
        1.0: e0,
    }
    worst = -1.0
    details = []
    for c_target, v1 in cases.items():
        spec = two_check_spec(e0, v1, name=f"c{c_target}")
        c = execute_exact(spec, honest).acceptance_probability
        compiled = perfect_completeness(spec, honest)
        got = execute_exact(compiled.spec, compiled.honest).acceptance_probability
        worst = max(worst, abs(got - 1.0) - 1e-9)
        details.append(f"c={c:.6f}: perfected honest = {got:.12f}")

    no_spec = two_check_spec(e0, np.array([0, 1], dtype=complex), name="no")
    s, _ = exact_single_message_max(no_spec)
    c_yes = 0.75
    delta = c_yes - s
    compiled = perfect_completeness(no_spec, honest, c=c_yes, soundness=s)
    trace = seesaw_optimize(
        compiled.spec, OptimizerConfig(restarts=5, sweeps=100, seed=41), honest=compiled.honest
    )
    worst = max(worst, trace.best_acceptance - (1 - delta**2) - 1e-6)
    details.append(f"no-instance: seesaw={trace.best_acceptance:.9f} <= {1 - delta**2:.9f}")
    return worst, 0.0, "<=", details


def _quantum_information_suite():
    worst = max(qcore.fvdg_slacks(substream(4242, "acceptance.fvdg"), 500))
    return worst, 1e-8, "<=", ["500 random pairs/triples, mixtures of <= 4 pure states on <= 3 qubits"]


def _optimizer_sanity():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    from dqip.corpus import coin_check_spec

    corpus = [
        coin_check_spec([e0], name="sm-zero"),
        coin_check_spec([e0, e1], name="sm-incompatible"),
        coin_check_spec([e0, plus], name="sm-tilted"),
        two_check_spec(e0, plus, name="sm-quantum-coin"),
        two_check_spec(e0, e1, name="sm-quantum-orth"),
    ]
    config = OptimizerConfig(restarts=3, sweeps=200, seed=43)
    honest = coin_check_honest()
    worst = -1.0
    details = []
    for spec in corpus:
        exact, _ = exact_single_message_max(spec)
        trace = seesaw_optimize(spec, config, honest=honest)
        worst = max(worst, abs(trace.best_acceptance - exact) - 1e-6)
        for history in trace.sweep_acceptance:
            for before, after in zip(history, history[1:]):
                worst = max(worst, before - after - 1e-9)
        details.append(f"{spec.name}: seesaw={trace.best_acceptance:.10f} exact={exact:.10f}")
    return worst, 0.0, "<=", details


def _determinism():
    import tempfile
    from pathlib import Path

    from .cli import run_experiment

    config = {
        "experiment": "ghz",
        "seed": 7,
        "params": {"nodes": 3, "copies": 1, "epsilon": 0.25, "delta": 0.5},
        "mode": "exact",
    }
    with tempfile.TemporaryDirectory() as tmp:
        a = run_experiment(dict(config), Path(tmp) / "a")
        b = run_experiment(dict(config), Path(tmp) / "b")
        same = [path.read_bytes() for path in a] == [path.read_bytes() for path in b]
    return (0.0 if same else 1.0), 0.5, "<=", ["byte-identical JSON and CSV for a repeated config"]


CRITERIA = [
    Criterion("ghz-star-equivalence", "GHZ is locally equivalent to the star state", 10, _ghz_star_equivalence),
    Criterion("stabilizer-equivalence", "Classical tests reproduce projector expectations", 60, _stabilizer_equivalence),
    Criterion("pghz-completeness", "GHZ verification accepts honestly with a perfect output", 60, _pghz_completeness),
    Criterion("dqct-honest-value", "Closeness test accepts at 1/2 + overlap/2", 120, _dqct_honest_value),
    Criterion("dqct-soundness", "Optimized acceptance implies the distance bound", 300, _dqct_soundness_implication),
    Criterion("dam-simulation", "Compiled protocols match classical (c, s)", 180, _dam_to_dqip_fidelity),
    Criterion("turn-halving", "Halving maps (c, s) to ((1+c)/2, (1+sqrt(s))/2)", 300, _turn_halving_identities),
    Criterion("private-halving", "Private coins are uniform and preserve (1+c)/2", 120, _private_halving),
    Criterion("perfect-completeness", "Transformed protocols accept honestly with certainty", 180, _perfect_completeness),
    Criterion("qi-properties", "Fidelity and trace-distance inequalities", 60, _quantum_information_suite),
    Criterion("optimizer-sanity", "See-saw is monotone and matches the spectral optimum", 120, _optimizer_sanity),
    Criterion("determinism", "Identical configs produce byte-identical reports", 60, _determinism),
]


def run_all(printer: Callable[[str], None] | None = None) -> tuple[list[CriterionResult], float]:
    start = time.perf_counter()
    results = []
    if printer:
        printer(f"{'criterion':<28} {'measured':>14} {'':>2} {'bound':>10}  status")
    for criterion in CRITERIA:
        result = criterion.evaluate()
        results.append(result)
        if printer:
            printer(result.row())
    total = time.perf_counter() - start
    if printer:
        failed = sum(1 for r in results if not r.passed)
        printer(f"total runtime: {total:.1f}s; {len(results) - failed}/{len(results)} criteria passed")
    return results, total


def results_document(results: list[CriterionResult], total: float) -> dict:
    return {"format": "dqip-verify/1", "total_runtime_seconds": total, "criteria": [asdict(r) for r in results]}
