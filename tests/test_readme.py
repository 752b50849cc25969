"""The Python of README.md runs as written, and its braid-word loop finds no failing word."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_every_python_block_runs_and_no_length_4_word_fails(capsys):
    assert len(BLOCKS) == 2
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
    summaries = re.findall(r"^(\S+): (\d+) words, .* failing: (.*)$", capsys.readouterr().out, re.M)
    assert summaries == [("abelian-c0", "625", "[]"), ("ising-c1", "1296", "[]")]
