"""The README's code stays runnable."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_recipe():
    # the python block under "Library entry points" runs as printed; its last line asserts 28/28
    section = README.read_text().split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
