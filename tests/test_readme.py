"""The README's code runs as written against the package."""

import json
import re
import shlex
import warnings
from pathlib import Path

from chaintomo import ChainSpec, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.DOTALL)


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    (spec_block,) = _blocks("json")
    spec = ChainSpec.from_dict(json.loads(spec_block))
    monkeypatch.chdir(tmp_path)
    spec.to_json("spec.json")
    # the TraceBundle block reads trace_x1.csv from the working directory
    assert cli.main(["simulate", "--spec", "spec.json", "--out", "."]) == 0
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    # pytest only reports an unclosed file as a warning, so record it here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for index, code in enumerate(blocks):
            exec(compile(code, f"README.md python block {index + 1}", "exec"), namespace)
    assert [str(w.message) for w in caught] == []


def test_cli_lines_run_in_order(tmp_path, monkeypatch):
    (spec_block,) = _blocks("json")
    monkeypatch.chdir(tmp_path)
    ChainSpec.from_dict(json.loads(spec_block)).to_json("spec.json")
    (settings_block,) = _blocks("text")
    Path("run.args").write_text(settings_block)
    commands = [
        shlex.split(line, comments=True)
        for block in _blocks("bash")
        for line in block.splitlines()
        if line.startswith("chaintomo ")
    ]
    assert len(commands) == 4
    for argv in commands:
        assert cli.main(argv[1:]) == 0, " ".join(argv)
