import re
import shlex
from pathlib import Path

import numpy as np

from epoal.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_one_namespace(capsys):
    # The library example and the custom ObjectiveSet, run as a reader would paste them.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[1].startswith("EpoCertificate(")
    records = namespace["records"]
    assert [rec.iter for rec in records] == list(range(501))
    assert np.isfinite(records[-1].minmax) and records[-1].minmax < records[0].minmax


def test_readme_cli_commands_parse():
    # Each epoal command of the sh blocks, continuation lines joined, as a reader would paste it.
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [argv[1:] for argv in map(shlex.split, lines) if argv[:1] == ["epoal"]]
    assert [argv[0] for argv in commands] == ["trace", "trace", "bench", "certify"]
    for argv in commands:
        build_parser().parse_args(argv)
