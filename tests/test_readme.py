"""The README's library example runs as written and shows true values."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope: dict = {}
    for line in block.splitlines():
        code, shown, value = line.partition("#")
        if shown:
            # an expression followed by "# <repr of its value>"
            assert repr(eval(code, scope)) == value.strip(), line
        elif line.strip():
            exec(line, scope)
