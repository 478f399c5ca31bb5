"""The README's library example runs against the current API, and its
scenario key reference is the parser's table."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(401, 96)"
    assert lines[-1].startswith("-0.01915")


def test_key_reference_is_the_scenario_table():
    # each row's keys, one by one, with the row's section, type and
    # default, are the keys of scenario._KEYS in order
    from microtherm.scenario import _KEYS, _MIDDLE, _REFERENCE, _REQUIRED

    rows = re.findall(r"^\| `\[(\w+)\]` \| (.*?) \| (\w+) \| (.*?) \|$", README.read_text(), re.M)
    readme = [(section, key.strip("`"), kind, default.strip("`"))
              for section, keys, kind, default in rows for key in keys.split(", ")]
    table = [(section, key, spec.kind, spec.default
              if spec.default in (_REQUIRED, _REFERENCE, _MIDDLE) else repr(spec.default))
             for (section, key), spec in _KEYS.items()]
    assert readme == table
