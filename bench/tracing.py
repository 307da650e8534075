"""Spans around the public functions of each dqip layer, set from outside.

A ``Tracer`` replaces each traced function with a wrapper on every dqip
module that binds it by name (``from .qcore import apply_matrix_vec`` in
``protocol`` and ``prover`` makes a second binding besides
``qcore.apply_matrix_vec``).  Each wrapper adds its call's duration to its
layer and to the span open around it, so self time is a span's duration
minus the time its child spans cover.

The wrappers are installed only around the traced op itself, so untraced
ops and the benchmark's own checks never run through them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function, layer metric prefix).  The prefix names the layer the
# function belongs to, which is the module that defines it.
TRACED = [
    ("qcore", "apply_matrix_vec", "qcore.apply"),
    ("qcore", "embed_operator", "qcore.embed"),
    ("protocol", "execute_exact", "protocol.exact"),
    ("protocol", "execute_sampled", "protocol.sampled"),
    ("protocol", "collect_paths", "protocol.collect_paths"),
    ("prover", "seesaw_optimize", "prover.seesaw"),
    ("transforms", "dam_to_dqip", "transforms.dam_to_dqip"),
    ("transforms", "pad_to_turns", "transforms.pad_to_turns"),
    ("transforms", "halve_turns_shared", "transforms.halve_turns_shared"),
    ("transforms", "seven_to_five", "transforms.seven_to_five"),
    ("transforms", "halve_turns_private", "transforms.halve_turns_private"),
    ("ghz", "build_pghz", "ghz.build_pghz"),
    ("dqct", "build_pdqct", "dqct.build_pdqct"),
    ("dam", "brute_force_value", "dam.brute_force"),
    ("cli", "validate_config", "cli.validate_config"),
    ("reporting", "write_report", "reporting.write_report"),
]

# Per-layer metric name -> unit, in the order they are reported.
LAYER_METRICS = {
    "qcore.apply_calls": "count",
    "qcore.apply_us": "us",
    "qcore.max_gate_mb": "MB",
    "qcore.embed_calls": "count",
    "protocol.exact_ms": "ms",
    "protocol.sampled_ms_per_trial": "ms",
    "protocol.collect_paths_ms": "ms",
    "protocol.paths": "count",
    "prover.seesaw_ms": "ms",
    "prover.sweeps": "count",
    "prover.ms_per_sweep": "ms",
    "transforms.dam_to_dqip_ms": "ms",
    "transforms.pad_to_turns_ms": "ms",
    "transforms.halve_turns_shared_ms": "ms",
    "transforms.seven_to_five_ms": "ms",
    "transforms.halve_turns_private_ms": "ms",
    "ghz.build_pghz_ms": "ms",
    "dqct.build_pdqct_ms": "ms",
    "dam.brute_force_calls": "count",
    "dam.brute_force_ms": "ms",
    "cli.validate_config_ms": "ms",
    "reporting.write_report_ms": "ms",
    "reporting.report_kb": "KiB",
    "trace.overhead_ms": "ms",
}

# Metrics that are exact counts: they must repeat across ops with the same
# inputs and across runs.
COUNT_METRICS = [
    "qcore.apply_calls",
    "qcore.embed_calls",
    "qcore.max_gate_mb",
    "protocol.paths",
    "prover.sweeps",
    "dam.brute_force_calls",
]


class Tracer:
    """Install span wrappers on the dqip modules around one op at a time."""

    def __init__(self):
        self._stack: list[list[int]] = []  # [child time in ns] of each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self._installed: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "dqip" or name.startswith("dqip.")]
        for module_name, func_name, span in TRACED:
            original = getattr(sys.modules[f"dqip.{module_name}"], func_name)
            wrapper = self._wrap(original, span)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._installed.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def _uninstall(self) -> None:
        for module, func_name, original in reversed(self._installed):
            setattr(module, func_name, original)
        self._installed.clear()

    def _wrap(self, func, span: str):
        observe = _OBSERVERS.get(span)

        def traced(*args, **kwargs):
            frame = [0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                self._stack.pop()
                self.calls[span] += 1
                self.total_ns[span] += duration
                self.self_ns[span] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
            if observe is not None:
                observe(self.extra, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- per-op collection ---------------------------------------------------

    def start_op(self) -> None:
        for totals in (self.calls, self.self_ns, self.total_ns, self.extra):
            totals.clear()
        self._install()

    def stop_op(self) -> dict[str, float]:
        """Per-layer metrics of the op just traced (every name in LAYER_METRICS)."""
        self._uninstall()
        calls, self_ms, total_ms = self.calls, self._ms(self.self_ns), self._ms(self.total_ns)
        sweeps = int(self.extra["prover.sweeps"])
        trials = int(self.extra["protocol.trials"])
        apply_calls = calls["qcore.apply"]
        return {
            "qcore.apply_calls": apply_calls,
            "qcore.apply_us": 1000.0 * total_ms["qcore.apply"] / apply_calls if apply_calls else 0.0,
            "qcore.max_gate_mb": self.extra["qcore.max_gate_bytes"] / 2**20,
            "qcore.embed_calls": calls["qcore.embed"],
            "protocol.exact_ms": self_ms["protocol.exact"],
            "protocol.sampled_ms_per_trial": total_ms["protocol.sampled"] / trials if trials else 0.0,
            "protocol.collect_paths_ms": self_ms["protocol.collect_paths"],
            "protocol.paths": int(self.extra["protocol.paths"]),
            "prover.seesaw_ms": self_ms["prover.seesaw"],
            "prover.sweeps": sweeps,
            "prover.ms_per_sweep": total_ms["prover.seesaw"] / sweeps if sweeps else 0.0,
            "transforms.dam_to_dqip_ms": self_ms["transforms.dam_to_dqip"],
            "transforms.pad_to_turns_ms": self_ms["transforms.pad_to_turns"],
            "transforms.halve_turns_shared_ms": self_ms["transforms.halve_turns_shared"],
            "transforms.seven_to_five_ms": self_ms["transforms.seven_to_five"],
            "transforms.halve_turns_private_ms": self_ms["transforms.halve_turns_private"],
            "ghz.build_pghz_ms": self_ms["ghz.build_pghz"],
            "dqct.build_pdqct_ms": self_ms["dqct.build_pdqct"],
            "dam.brute_force_calls": calls["dam.brute_force"],
            "dam.brute_force_ms": self_ms["dam.brute_force"],
            "cli.validate_config_ms": self_ms["cli.validate_config"],
            "reporting.write_report_ms": self_ms["reporting.write_report"],
            "reporting.report_kb": self.extra["reporting.report_bytes"] / 1024,
        }

    @staticmethod
    def _ms(ns: dict[str, int]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        out.update({k: v / 1e6 for k, v in ns.items()})
        return out


# Counts read from a traced call's arguments or result, at the same boundary.


def _observe_apply(extra, args, kwargs, result) -> None:
    mat = args[1] if len(args) > 1 else kwargs["mat"]
    extra["qcore.max_gate_bytes"] = max(extra["qcore.max_gate_bytes"], mat.nbytes)


def _observe_sampled(extra, args, kwargs, result) -> None:
    extra["protocol.trials"] += result.trials


def _observe_paths(extra, args, kwargs, result) -> None:
    extra["protocol.paths"] += len(result[0])


def _observe_seesaw(extra, args, kwargs, result) -> None:
    extra["prover.sweeps"] += sum(len(history) - 1 for history in result.sweep_acceptance)


def _observe_report(extra, args, kwargs, result) -> None:
    extra["reporting.report_bytes"] += sum(path.stat().st_size for path in result)


_OBSERVERS = {
    "qcore.apply": _observe_apply,
    "protocol.sampled": _observe_sampled,
    "protocol.collect_paths": _observe_paths,
    "prover.seesaw": _observe_seesaw,
    "reporting.write_report": _observe_report,
}
