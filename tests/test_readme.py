"""The README's library sketch runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_sketch_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    # each print line ends in a comment holding the line it prints
    want = [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert want and out.getvalue().splitlines() == want
