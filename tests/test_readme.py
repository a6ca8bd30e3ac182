"""The README's library tour and command-line block, run as written."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def test_library_tour_prints_what_its_comments_say():
    """Each line the first python block prints equals the comment on its print line."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    want = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert want and out.getvalue().splitlines() == want


def test_command_line_block_exits_as_its_comments_say(tmp_path):
    """In a scratch directory, each `echo '...' > FILE` line of the block under
    "Command line" writes its file, and each `obsclone ...` line, run through
    `python -m obsclone.cli`, exits with the code its `# exit N` comment names,
    or 0 where no comment names one."""
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    ran = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if line.startswith("echo "):
            text, path = re.fullmatch(r"echo '(.*)' > (\S+)", line).groups()
            (tmp_path / path).write_text(text + "\n")
        elif line.startswith("obsclone "):
            want = re.search(r"exit (\d)", comment)
            argv = [sys.executable, "-m", "obsclone.cli", *shlex.split(command)[1:]]
            proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
            ran.append((line, proc.returncode, proc.stderr))
            assert proc.returncode == (int(want.group(1)) if want else 0), ran[-1]
    assert len(ran) >= 5
