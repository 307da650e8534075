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
