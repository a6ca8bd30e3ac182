"""The README's library tour, run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_prints_what_its_comments_say():
    """Each line the first python block prints equals the comment on its print line."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    want = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert want and out.getvalue().splitlines() == want
