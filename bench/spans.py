"""Span tracing of qlock from outside the package.

The tracer wraps public functions and methods of the qlock modules by
rebinding module and class attributes, so the program under test is not
edited.  Every wrapped call records one span: its name, start, end, the
span it ran inside and the benchmark op it belongs to.  Spans stay in
compact in-memory arrays until the run ends; self times, call counts and
per-op sums are derived from them afterwards.

A span's self time is its duration minus the time covered by its direct
child spans.  The benchmark opens one root span per op ("bench.op") and
one for set-up ("bench.setup"), so the self times of the spans of an op
add up to that op's traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

SETUP_OP = -1

# span name -> wrapped callables, as (module, attribute path) pairs.  A
# name with several targets aggregates them, e.g. Tableau.measure covers
# both the sampled and the postselected measurement.
TARGETS = {
    "stabilizer.tableau_from_text": [("stabilizer", "tableau_from_text")],
    "stabilizer.Tableau.to_text": [("stabilizer", "Tableau.to_text")],
    "stabilizer.CliffordMap.compile": [("stabilizer", "CliffordMap.__init__")],
    "stabilizer.CliffordMap.apply_to": [("stabilizer", "CliffordMap.apply_to")],
    "stabilizer.Tableau.z_readout": [("stabilizer", "Tableau.z_readout")],
    "stabilizer.Tableau.measure": [("stabilizer", "Tableau.measure_sample"),
                                   ("stabilizer", "Tableau.measure_postselect")],
    "stabilizer.basis_overlap_prob": [("stabilizer", "basis_overlap_prob")],
    "sampling.two_qubit_table": [("sampling", "two_qubit_table")],
    "sampling.sample_design_circuit": [("sampling", "sample_design_circuit")],
    "sampling.derive_circuit": [("sampling", "derive_circuit")],
    "sampling.circuit_text": [("sampling", "circuit_to_text"),
                              ("sampling", "circuit_from_text")],
    "sampling.sample_uniform_clifford": [("sampling", "sample_uniform_clifford")],
    "dense.circuit_unitary": [("dense", "circuit_unitary")],
    "dense.apply_circuit_to_vector": [("dense", "apply_circuit_to_vector")],
    "dense.eigvalsh": [("dense", "eigvalsh")],
    "dense.von_neumann_entropy": [("dense", "von_neumann_entropy")],
    "design.estimate_moments": [("design", "estimate_moments")],
    "design.check_design": [("design", "check_design")],
    "protocol.build_codebook": [("protocol", "build_codebook")],
    "protocol.codebook_to_text": [("protocol", "codebook_to_text")],
    "protocol.codebook_from_text": [("protocol", "codebook_from_text")],
    "protocol.encrypt": [("protocol", "encrypt")],
    "protocol.decrypt": [("protocol", "decrypt")],
    "protocol.cipher_to_text": [("protocol", "cipher_to_text")],
    "protocol.cipher_from_text": [("protocol", "cipher_from_text")],
    "protocol.map_lookup": [("protocol", "Codebook.map"),
                            ("protocol", "Codebook.inverse_map")],
    "security.empirical_chernoff": [("security", "empirical_chernoff")],
    "security.locking_probe": [("security", "locking_probe")],
    "security.holevo": [("security", "holevo")],
    "security.measured_mi": [("security", "measured_mi")],
    "security.measurement_bases": [("security", "Measurement.clifford_basis"),
                                   ("security", "Measurement.haar_basis")],
    "security.bounds": [("security", "chernoff_threshold"),
                        ("security", "chernoff_p1"),
                        ("security", "key_threshold")],
    "cli.main": [("cli", "main")],
}


def _gates(counts, args, result):
    counts["sampling.gates"] += len(result.gates)


def _dims(counts, args, result):
    counts["dense.eigvalsh.dim_sum"] += len(args[0])


# counters fed from a wrapped call's arguments and result
HOOKS = {
    "sampling.sample_design_circuit": _gates,
    "sampling.sample_uniform_clifford": _gates,
    "dense.eigvalsh": _dims,
}


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = SETUP_OP
        self.enabled = True
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in TARGETS.

        A module-level function is rebound in every qlock module that holds
        it, which covers names imported by value (``from .x import f``).
        Methods are wrapped on their class, which every importer shares.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qlock" or name.startswith("qlock.")]
        for span, targets in TARGETS.items():
            for mod_name, path in targets:
                owner = sys.modules[f"qlock.{mod_name}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if outer:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr,
                                classmethod(self.wrap(span, raw.__func__)))
                    else:
                        setattr(owner, attr, self.wrap(span, raw))
                    continue
                original = getattr(owner, attr)
                traced = self.wrap(span, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

    # -- derived figures ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return own

    def summary(self, ops: int, prefix_ops: int) -> dict:
        """Per-span-name figures for a run of ``ops`` measured ops.

        ``<name>.self_s`` is the self time spent in one set-up plus the mean
        self time per op.  ``<name>.calls`` counts spans in set-up and the
        first ``prefix_ops`` ops, so it repeats exactly for a given seed.
        ``op_share`` is each name's self time in ops over the summed op wall
        time.  Also returns, per op, the summed self time of its spans and
        the duration of its root span.
        """
        own = self.self_times()
        setup_self: Counter = Counter()
        op_self: Counter = Counter()
        calls: Counter = Counter()
        per_op_sum = [0.0] * ops
        per_op_wall = [0.0] * ops
        root = self._ids.get("bench.op")
        for idx, nid in enumerate(self.name):
            name = self.names[nid]
            op = self.op[idx]
            if op == SETUP_OP:
                setup_self[name] += own[idx]
            else:
                op_self[name] += own[idx]
                per_op_sum[op] += own[idx]
                if nid == root:
                    per_op_wall[op] = self.end[idx] - self.start[idx]
            if op < prefix_ops:
                calls[name] += 1
        times = {name: setup_self[name] + op_self[name] / ops
                 for name in self.names}
        op_wall = sum(per_op_wall)
        share = {name: op_self[name] / op_wall for name in op_self}
        return {"self_s": times, "op_share": share, "calls": dict(calls),
                "per_op_self_sum": per_op_sum, "per_op_wall": per_op_wall,
                "spans": len(self.name)}

    def map_cache(self, prefix_ops: int) -> tuple[int, int]:
        """(lookups, hits) of codebook map lookups in the counted prefix.

        A lookup missed the cache exactly when it compiled a map, i.e. when
        a CliffordMap.compile span is its direct child.
        """
        lookup = self._ids.get("protocol.map_lookup")
        compile_ = self._ids.get("stabilizer.CliffordMap.compile")
        lookups = misses = 0
        for idx, nid in enumerate(self.name):
            if self.op[idx] >= prefix_ops:
                continue
            if nid == lookup:
                lookups += 1
            elif nid == compile_ and self.parent[idx] >= 0 \
                    and self.name[self.parent[idx]] == lookup:
                misses += 1
        return lookups, lookups - misses

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for idx in range(len(self.name)):
                fh.write(f"{idx}\t{self.names[self.name[idx]]}\t"
                         f"{self.start[idx]:.9f}\t{self.end[idx]:.9f}\t"
                         f"{self.parent[idx]}\t{self.op[idx]}\n")
