"""Exact records of catalog runs, and their comparison with another tree's.

    PYTHONPATH=src python3 tools/run_records.py > records.txt
    PYTHONPATH=src python3 tools/run_records.py --against records.txt

It writes one record per line, ``key<TAB>value``, the value JSON with every
float given as its `float.hex` image:

* ``run GATE INPUT cut=CUT probability``, ``... amplitudes`` and ``...
  branches``, for each catalog gate, each basis input (``basis=BITS``) and
  10 seeded superpositions (``random=J``), at every cut from the first
  stage through the full run: the run's probability, its amplitudes as
  ``[occupation, [re, im]]`` in stored order, and its branch log, one
  ``[pattern, probability, action]`` per accepted pattern (a rejected
  pattern leaves no record).  CUT is the label of the cut's last
  stage, or its stage count where that label is empty or repeats, so a
  stage inserted into a circuit adds only its own cut's records;
* ``known-target matrix``: the 6x4 matrix of `analysis.evaluate_known_target`;
* ``report GATE``: ``gate_report(info, sweep=3).to_dict()``.

With ``--against FILE`` (records this script wrote, say from another
checkout) it prints each record that differs with its relative deviation,
then how many records differ and the largest deviation.  A record's
deviation is the largest difference between its numbers and FILE's, over
the largest magnitude among FILE's; a record whose text differs in more than
its numbers, or that only one side has, deviates infinitely.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Iterator

import numpy as np

from fredkinlab import analysis, catalog
from fredkinlab.circuits import build_simplified_cnot, run
from fredkinlab.fock import LogicalAmplitudes

SUPERPOSITIONS = 10
SEED = 2027
SWEEP = 3

_HEX = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf|nan)")


def _exact(value):
    """`value` with every float as its `float.hex` image and every complex
    number as ``[re, im]``, tuples as lists."""
    if isinstance(value, complex):
        return [float(value.real).hex(), float(value.imag).hex()]
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def _line(key: str, value) -> str:
    return f"{key}\t{json.dumps(_exact(value), sort_keys=True, separators=(',', ':'))}"


def _inputs(n_qubits: int) -> list[tuple[str, LogicalAmplitudes]]:
    rng = np.random.default_rng(SEED)
    basis = [(f"basis={i:0{n_qubits}b}", LogicalAmplitudes.basis(n_qubits, i))
             for i in range(1 << n_qubits)]
    return basis + [(f"random={j}", LogicalAmplitudes.random(n_qubits, rng))
                    for j in range(SUPERPOSITIONS)]


def _cut_keys(circuit) -> list[str]:
    """The key of each cut of `circuit`, by stage count from 1: the label
    of its last stage, or the count where the label is empty or repeats."""
    labels = [st.label for st in circuit.stages]
    return [label if label and labels.count(label) == 1 else str(cut)
            for cut, label in enumerate(labels, start=1)]


def records(gates=None) -> Iterator[str]:
    """The record lines of `gates` (by default every catalog gate), then the
    known-target matrix and each gate's report."""
    names = catalog.gate_names() if gates is None else list(gates)
    for name in names:
        circuit = catalog.get_gate(name).build()
        for label, amps in _inputs(len(circuit.qubit_beams)):
            for cut, cut_key in enumerate(_cut_keys(circuit), start=1):
                res = run(circuit, amps, upto=cut)
                key = f"run {name} {label} cut={cut_key}"
                yield _line(f"{key} probability", res.probability)
                yield _line(f"{key} amplitudes",
                            [[occ, complex(a)] for occ, a in res.state.amps.items()])
                yield _line(f"{key} branches",
                            [[r.pattern, r.probability, r.action] for r in res.branch_log])
    yield _line("known-target matrix",
                analysis.evaluate_known_target(build_simplified_cnot()).matrix.tolist())
    for name in names:
        report = analysis.gate_report(catalog.get_gate(name), sweep=SWEEP)
        yield _line(f"report {name}", report.to_dict())


def _split(value):
    """(the value with each float image replaced by None, its floats in order)."""
    numbers: list[float] = []

    def walk(v):
        if isinstance(v, str) and _HEX.fullmatch(v):
            numbers.append(float.fromhex(v))
            return None
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, list):
            return [walk(x) for x in v]
        return v
    return walk(value), numbers


def deviation(line: str, reference: str) -> float:
    """How far the value of record `line` lies from that of `reference`:
    0.0 for the same text, else the largest difference of their numbers
    over the largest magnitude of `reference`'s; infinite when the two
    differ in more than their numbers."""
    if line == reference:
        return 0.0
    (shape, got), (ref_shape, want) = (_split(json.loads(text.split("\t", 1)[1]))
                                       for text in (line, reference))
    if shape != ref_shape:
        return math.inf
    gap = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    if gap == 0.0:  # only the sign of a zero moved
        return 0.0
    scale = max(map(abs, want))
    return gap / scale if scale > 0 else math.inf


def compare(lines: list[str], reference: list[str]) -> tuple[list[tuple[str, float]], int]:
    """Each record key whose line differs between `lines` and `reference`,
    with its deviation, in the order of `reference` (then keys only `lines`
    has), and the number of distinct keys."""
    ours = {line.split("\t", 1)[0]: line for line in lines}
    theirs = {line.split("\t", 1)[0]: line for line in reference}
    keys = list(theirs) + [k for k in ours if k not in theirs]
    differing = []
    for key in keys:
        if key not in ours or key not in theirs:
            differing.append((key, math.inf))
        elif ours[key] != theirs[key]:
            differing.append((key, deviation(ours[key], theirs[key])))
    return differing, len(keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with the records in FILE instead of writing them")
    args = parser.parse_args(argv)
    if args.against is None:
        for line in records():
            print(line)
        return 0
    with open(args.against) as f:
        reference = f.read().splitlines()
    differing, total = compare(list(records()), reference)
    for key, dev in differing:
        print(f"{key}\t{dev:.3g}")
    worst = max((dev for _, dev in differing), default=0.0)
    print(f"{len(differing)} of {total} records differ; largest relative deviation {worst:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
