"""tools/same_outputs.py solves copies of problem files that tests define;
each copy must stay equal to the file its comment names."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(relative: str):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(f"_copy_of_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_file_copies_match_the_tests():
    tool = _load("tools/same_outputs.py")
    evaluation = _load("tests/test_evaluation.py")
    linearize = _load("tests/test_symx_linearize.py")
    poly_reads = _load("tests/test_poly_reads.py")
    assert tool.TWO_D_FILE == evaluation.TWO_D_FILE
    assert tool.TRIG_FILE == linearize.TRIG_FILE
    assert tool.POLE_FILE == evaluation.pole_case_file("uxx_three_halves")
    assert tool.BOX_FILE == poly_reads.BOX_FILE
    assert tool.OFF_BOX_FILE == poly_reads.OFF_BOX_FILE
