"""scripts/analyze_tiled_corpus.py tabulates deficiency against
certificate kind over a random tiled corpus."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "analyze_tiled_corpus.py"


def load_script():
    spec = importlib.util.spec_from_file_location("analyze_tiled_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_table_counts_every_graph(capsys):
    assert load_script().main(["--size", "40", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: [int(c) for c in line.split()[1:]]
            for line in lines[1:10]}
    assert sorted(rows) == ["0", "1", "2", "3", "4", "5", "6", "7", "all"]
    *kinds, total = rows["all"]
    assert sum(kinds) == total == 40
    assert sum(row[-1] for f, row in rows.items() if f != "all") == 40


README_TABLE = """\
 phi   no-rainbow    triangle    matching   total
   0          541           0           0     541
   1          366           0           0     366
   2          129           0           0     129
   3          278           1           0     279
   4          252           2           0     254
   5          118          33           0     151
   6           56          46          51     153
   7           25          22          80     127
 all         1765         104         131    2000

2764 draws for 2000 graphs (1.38 per kept graph)
"""


def test_readme_example_table(capsys):
    """The README's example run prints exactly this table."""
    assert load_script().main(["--size", "2000", "--seed", "11"]) == 0
    assert capsys.readouterr().out == README_TABLE


@pytest.mark.parametrize("size", ["0", "-3"])
def test_corpus_size_below_one_is_a_usage_error(size, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--size", size])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--size must be at least 1, got {size}" in captured.err
