"""Tests for the refactor gate ``tools/dump_outputs.py --compare``."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "dump_outputs.py"
_SPEC = importlib.util.spec_from_file_location("dump_outputs", _PATH)
dump_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dump_outputs)

BEFORE = ("== rates\niterations 600 certified true\nslope -1.486 error 7.5e-10\n"
          "== fit\nscore 0.25\n")


def _compare(capsys, after, **tolerances):
    code = dump_outputs.compare(BEFORE, after, **tolerances)
    return code, capsys.readouterr().out.splitlines()


def test_identical_dumps_match(capsys):
    code, lines = _compare(capsys, BEFORE)
    assert code == 0
    assert lines == ["match: 4 numbers, 3 floats, largest relative float difference 0, "
                     "largest share of the tolerance 0"]


@pytest.mark.parametrize("after, shown", [
    (BEFORE.replace("true", "false"), "rates: ' certified true\\nslope ' vs ' certified false"),
    (BEFORE.replace("600", "601"), "rates: iterations '600' vs '601'"),
    (BEFORE.replace("600", "600.0"), "rates: iterations '600' vs '600.0'"),
])
def test_a_differing_text_or_integer_token_fails_at_any_tolerance(capsys, after, shown):
    code, lines = _compare(capsys, after, rtol=1.0, atol=1.0)
    assert code == 1
    assert lines[0].startswith(shown)
    assert lines[-1].startswith("1 mismatches")


def test_floats_within_the_tolerance_pass_and_report_their_share(capsys):
    # -1.486 moves by half its rtol allowance; 7.5e-10 moves by 2.1e-6 of
    # itself, a large relative change but a small share of atol
    after = BEFORE.replace("-1.486", "-1.4860007").replace("7.5e-10", "7.500016e-10")
    code, lines = _compare(capsys, after, rtol=1e-6, atol=1e-12)
    assert code == 0
    summary = lines[-1]
    assert summary.startswith("match: 4 numbers, 3 floats")
    relative, share = (float(part.rsplit(" ", 1)[1]) for part in summary.split(", ")[2:])
    # the summary prints three significant digits
    assert relative == pytest.approx(1.6e-15 / 7.5e-10, rel=5e-3)
    assert share == pytest.approx(7e-7 / (1e-12 + 1e-6 * 1.486), rel=5e-3)


@pytest.mark.parametrize("key, old, new", [("slope", "-1.486", "-1.4861"),
                                           ("error", "7.5e-10", "7.6e-10")])
def test_a_float_beyond_the_tolerance_fails(capsys, key, old, new):
    code, lines = _compare(capsys, BEFORE.replace(old, new), rtol=1e-6, atol=1e-12)
    assert code == 1
    assert lines[0] == f"rates: {key} {old} vs {new}"
    assert lines[-1].startswith("1 mismatches")


def test_differing_section_counts_fail(capsys):
    code, lines = _compare(capsys, BEFORE + "== extra\nvalue 1\n")
    assert code == 1
    assert lines == ["section counts differ: 2 vs 3"]
