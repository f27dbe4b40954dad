"""The engine work of one `gate_report` per catalog gate.

    PYTHONPATH=src python3 tools/work_counts.py [--format table|json]

For each catalog gate, and in total, it counts what one
`analysis.gate_report` does, from a fresh build of the gate's circuit:

* ``products``: term-by-column products of `engine._transfer_row`;
* ``entries``: entries of the transfer rows it returns, which are stored;
* ``kept_checks``: post-selection decisions, one per output occupation a
  post-selection decides (calls of the actions `engine.selection` makes);
* ``put_out``: amplitudes put out by linear steps and measurements, one per
  distinct output number that a call's numbered terms reach through the
  rows of its step table;
* ``plans_built`` and ``plans_applied``: the `elements.ModePlan`s built, and
  how many of them a linear step or a measurement applied.

It counts by wrapping those names, as ``tests/test_catalog_work.py`` does,
and changes no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from fredkinlab import analysis, circuits, elements, engine
from fredkinlab.catalog import gate_names, get_gate

FIELDS = ("products", "entries", "kept_checks", "put_out", "plans_built", "plans_applied")


def products(cols, active_in) -> int:
    """The term-by-column products `engine._transfer_row` makes for
    `active_in`: its expansion replayed on the monomial keys alone."""
    bits = sum(active_in).bit_length()
    keys, count = {0}, 0
    for p, n in enumerate(active_in):
        photons = [1 << bits * q for q, _ in cols[p]] if n else []
        for _ in range(n):
            count += len(keys) * len(photons)
            keys = {key + photon for key in keys for photon in photons}
    return count


def _distinct_outputs(state, table) -> int:
    """The output numbers that the numbered terms of `state` reach through
    the rows of `table`, which a run numbers alike."""
    return len({j for i in state.amps for j, _ in table.rows[i]})


@contextmanager
def counting(counts: dict):
    """Wrap the counted names for the duration; `counts` gets the figures."""
    for name in FIELDS:
        counts.setdefault(name, 0)
    built, applied = [], {}
    originals = (engine._transfer_row, engine.selection, circuits.selection, elements.ModePlan,
                 circuits.apply_unitary, circuits.measure_and_feedforward)
    transfer_row, selection, _, plan_type, apply_unitary, measure = originals

    def counted_transfer_row(cols, active_in):
        row = transfer_row(cols, active_in)
        counts["products"] += products(cols, active_in)
        counts["entries"] += len(row)
        return row

    def counted_selection(rules):
        select = selection(rules)

        def counted_select(occ):
            counts["kept_checks"] += 1
            return select(occ)
        return counted_select

    def counted_plan(*args):
        plan = plan_type(*args)
        built.append(plan)
        return plan

    def counted_apply(state, u, table):
        result = apply_unitary(state, u, table)
        if u is not None:
            applied[id(u.plan)] = u.plan
        counts["put_out"] += _distinct_outputs(state, table)
        return result

    def counted_measure(state, beam, table, unitary, occupations):
        result = measure(state, beam, table, unitary, occupations)
        if unitary is not None:
            applied[id(unitary.plan)] = unitary.plan
        counts["put_out"] += _distinct_outputs(state, occupations)
        return result

    engine._transfer_row = counted_transfer_row
    engine.selection = circuits.selection = counted_selection
    elements.ModePlan = counted_plan
    circuits.apply_unitary, circuits.measure_and_feedforward = counted_apply, counted_measure
    try:
        yield counts
    finally:
        (engine._transfer_row, engine.selection, circuits.selection, elements.ModePlan,
         circuits.apply_unitary, circuits.measure_and_feedforward) = originals
        counts["plans_built"] += len(built)
        counts["plans_applied"] += sum(1 for plan in built if id(plan) in applied)


def gate_work(name: str) -> dict:
    """The counts of one `gate_report` of gate `name`."""
    counts: dict = {}
    with counting(counts):
        analysis.gate_report(get_gate(name))
    return counts


def work_table() -> dict[str, dict]:
    """Each catalog gate's counts, then their sum under ``"total"``."""
    table = {name: gate_work(name) for name in gate_names()}
    table["total"] = {f: sum(row[f] for row in table.values()) for f in FIELDS}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("table", "json"), default="table")
    args = parser.parse_args(argv)
    table = work_table()
    if args.format == "json":
        print(json.dumps(table, indent=1))
        return 0
    width = max(map(len, table))
    print(f"{'gate':<{width}} " + " ".join(f"{f:>13}" for f in FIELDS))
    for name, row in table.items():
        print(f"{name:<{width}} " + " ".join(f"{row[f]:>13}" for f in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
