"""The README's library sketch and command-line examples run as written."""

import csv
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from codedmm.cli import main
from oracles import direct_convolution, naive_matmul_t

README = Path(__file__).resolve().parent.parent / "README.md"


def sketch_code() -> str:
    """The python block under the "Library sketch" heading."""
    section = README.read_text().split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs_to_the_oracles():
    scope: dict = {}
    exec(compile(sketch_code(), "README.md (library sketch)", "exec"), scope)
    a, b = scope["a"], scope["b"]
    want = naive_matmul_t(65537, a.data.tolist(), b.data.tolist())
    assert scope["product"].tolist() == want
    assert isinstance(scope["fixed"], np.ndarray) and scope["fixed"].tolist() == want
    assert scope["xy"].tolist() == direct_convolution(65537, scope["x"], scope["y"])


def cli_commands() -> list[list[str]]:
    """The arguments of each `codedmm` line in the block under the "Command line" heading."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("codedmm ")]


@pytest.mark.parametrize("argv", cli_commands(), ids=" ".join)
def test_command_line_examples_run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    header = next(csv.reader(io.StringIO(out)))
    assert len(header) > 1 and all(cell.isidentifier() for cell in header)
