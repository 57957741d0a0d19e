"""Tests for the line map ``tools/trace_map.py``."""

import runpy

from util import load_tool


def test_the_map_lists_an_unreached_line_of_a_temporary_module(tmp_path, capsys):
    package = tmp_path.resolve() / "pkg"
    package.mkdir()
    mod = package / "mod.py"
    mod.write_text(
        '"""A docstring is no statement."""\n'
        "import math\n"
        "\n"
        "def f(x):\n"
        "    if x > 0:\n"
        "        return math.floor(x)\n"
        "    y = -x\n"
        "    return (y +\n"
        "            1)\n"
    )
    tool = load_tool("trace_map")
    code, executed = tool.trace(lambda: print(runpy.run_path(str(mod))["f"](2.5)), package)
    assert code == 0 and capsys.readouterr().out == "2\n"
    assert tool.unreached(mod, executed[str(mod)]) == [(7, "y = -x"), (8, "return (y +")]
