"""The README's library quickstart runs as written, and its config schema
is a valid config."""

import ast
import json
import re
from pathlib import Path

from stlbayes import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library quickstart)", "exec"), {})
    mc_value, pwa_interval = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(mc_value) <= 1.0
    lower, upper = ast.literal_eval(pwa_interval)
    assert 0.0 <= lower <= upper <= 1.0


def test_config_schema_is_a_valid_config():
    section = README.read_text().split("### Config schema (JSON)", 1)[1]
    text = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    lines = [line.split("//", 1)[0] for line in text.splitlines()
             if "<node path>" not in line]
    cli._problem(json.loads("\n".join(lines)))
