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


def test_report_numbers_finds_the_largest_change_and_where_it_is(tmp_path):
    numbers = _load("report_numbers")
    base, head = tmp_path / "base.json", tmp_path / "head.json"
    base.write_text('{"results": {"best": 0.5, "sweeps": [[0.1, 0.2], [0.3]], "name": "a", "gone": 1}}')
    head.write_text('{"results": {"best": 0.5001, "sweeps": [[0.1, 0.25], [0.3, 0.4]], "name": "b"}}')
    largest, per_key, structural = numbers.compare(numbers.leaves(base), numbers.leaves(head), ["best", "sweeps"])
    assert largest[:2] == (abs(0.25 - 0.2), "results.sweeps[0][1]")
    assert per_key["best"][1] == "results.best" and abs(per_key["best"][0] - 1e-4) <= 1e-12
    assert structural == 3  # the changed name, the leaf only in base and the one only in head
    base_csv, head_csv = tmp_path / "base.csv", tmp_path / "head.csv"
    base_csv.write_text("experiment,metric,value\ndqct,probe.best,0.5\ndqct,probe.turns,5\n")
    head_csv.write_text("experiment,metric,value\ndqct,probe.best,0.75\ndqct,probe.turns,5\n")
    largest, _, structural = numbers.compare(numbers.leaves(base_csv), numbers.leaves(head_csv), [])
    assert largest == (0.25, "dqct,probe.best:value", 0.5, 0.75) and structural == 0


def test_report_numbers_names_each_moved_report_of_two_directories(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for side, best in ((base, 0.5), (head, 0.75)):
        side.mkdir()
        (side / "same.json").write_text('{"results": {"best_acceptance": 1.0}}')
        (side / "moved.json").write_text(f'{{"results": {{"best_acceptance": {best}}}}}')
    (head / "new.json").write_text("{}")
    assert _load("report_numbers").main([str(base), str(head)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "moved.json  largest change 0.25 at results.best_acceptance (0.5 -> 0.75); "
        "best_acceptance: 0.25 at results.best_acceptance (0.5 -> 0.75); sweep_acceptance: 0; seesaw_best: 0; "
        "seesaw_sweeps: 0",
        "new.json  only in head",
    ]
