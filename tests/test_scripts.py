import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_turn_reduction_demo_walks_all_three_reductions(capsys):
    demo = _load("turn_reduction_demo")
    assert demo.main(["--restarts", "1", "--sweeps", "2"]) == 0
    out = capsys.readouterr().out
    for stage in ("shared halving 5 -> 3", "leader coin 7 -> 5", "private halving 5 -> 5"):
        assert stage in out


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return [{k: float(v) if k != "strategy" else v for k, v in row.items()} for row in csv.DictReader(handle)]


def test_ghz_fidelity_curve_writes_the_honest_and_cheating_rows(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert _load("ghz_fidelity_curve").main(["--max-copies", "1", "--out", str(out)]) == 0
    honest, cheat = _rows(out)
    assert (honest["strategy"], cheat["strategy"]) == ("honest", "all-zero")
    assert abs(honest["acceptance"] - 1.0) <= 1e-9 and abs(honest["output_fidelity"] - 1.0) <= 1e-9
    assert cheat["acceptance"] < 1.0


def test_dqct_soundness_sweep_bounds_dominate_the_distance(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert _load("dqct_soundness_sweep").main(["--steps", "1", "--probe", "--out", str(out)]) == 0
    equal, orthogonal = _rows(out)
    assert abs(equal["honest_acceptance"] - 1.0) <= 1e-9
    assert abs(orthogonal["honest_acceptance"] - 0.5) <= 1e-9
    for row in (equal, orthogonal):
        assert row["best_acceptance"] >= row["honest_acceptance"] - 1e-9
        for bound in ("bound_at_honest", "bound_at_best"):
            assert row[bound] >= row["input_distance"] - 1e-9
