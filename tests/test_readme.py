"""The README's library quickstart runs as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library quickstart)", "exec"), {})
    mc_value, pwa_interval = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(mc_value) <= 1.0
    lower, upper = ast.literal_eval(pwa_interval)
    assert 0.0 <= lower <= upper <= 1.0
