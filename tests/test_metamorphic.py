"""Metamorphic relations: transformations of a netlist that must not change
the answer, checked by running `uqsim dc` on both netlists.

A wrong answer that exits 0 passes every check against a value computed
the same way; two runs on related inputs can still disagree.  These are
the relations that hold on an 8-stage diode-RC ladder: renaming every
node, and permuting the element lines.
"""

import csv
import random

import pytest

from uqsim import cli

STAGES = 8


def ladder_lines(node=lambda k: f"n{k}"):
    """An 8-stage diode-RC ladder, one relative resistor variation per
    stage, element values spread over each stage; node k is node(k)."""
    lines = [f"V1 {node(0)} 0 1.0"]
    for k in range(1, STAGES + 1):
        lines += [f"R{k} {node(k - 1)} {node(k)} {800 + 50 * k}"
                  f" variation=relative:uniform(0.9,1.1)",
                  f"D{k} {node(k)} 0 is={k}e-10 nvt=0.02585",
                  f"C{k} {node(k)} 0 {k}e-7"]
    return lines


def dc_stats(tmp_path, name, lines):
    """{output label: (mean, std) as written} of `uqsim dc --order 3`."""
    path = tmp_path / f"{name}.cir"
    path.write_text("\n".join(lines) + "\n")
    outdir = tmp_path / name
    assert cli.main(["dc", "--netlist", str(path), "--order", "3",
                     "--outdir", str(outdir)]) == 0
    with open(outdir / "dc_stats.csv") as fh:
        rows = list(csv.DictReader(fh))
    return {row["output"]: (row["mean"], row["std"]) for row in rows}


# the first keeps the nodes' order of first appearance, the second reverses
# their sorted order
RENAMINGS = {"prefix": lambda k: f"node_{k}",
             "reversed": lambda k: f"z{STAGES - k}"}


@pytest.mark.parametrize("renaming", sorted(RENAMINGS))
def test_renaming_every_node_gives_the_same_bits(tmp_path, capsys,
                                                 renaming):
    node = RENAMINGS[renaming]
    base = dc_stats(tmp_path, "base", ladder_lines())
    renamed = dc_stats(tmp_path, "renamed", ladder_lines(node))
    label = {f"v(n{k})": f"v({node(k)})" for k in range(STAGES + 1)}
    assert len(base) == len(renamed) == STAGES + 2   # nodes, i(V1)
    assert {label.get(out, out): stats for out, stats in base.items()} \
        == renamed


def test_permuting_the_element_lines_moves_stats_by_rounding(tmp_path,
                                                             capsys):
    # the variations' order orders the input axes, so the selected testing
    # points permute with them and the sums round otherwise
    lines = ladder_lines()
    random.Random(3).shuffle(lines)
    assert lines != ladder_lines()
    base = dc_stats(tmp_path, "base", ladder_lines())
    permuted = dc_stats(tmp_path, "permuted", lines)
    assert set(base) == set(permuted)
    for out, stats in base.items():
        for a, b in zip(map(float, stats), map(float, permuted[out])):
            assert abs(a - b) <= 1e-11 * abs(a)
