"""Outside-in tracer: wraps chaincert's public functions without touching
its source.

``Tracer.install()`` replaces each function in TARGETS at every module
binding that holds it (``solve`` is bound in matrix, chain, resolution,
stabilize and the package itself), replaces the listed methods on their
classes, and patches the ``_kernels`` attributes. ``uninstall()`` puts the
originals back. While installed, every call records a span (name, start,
end, parent, job) in compact in-memory arrays; nothing is written until
``write()`` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute path, stage level). Stage-level
# functions also report inclusive time as <prefix>.total_s.
TARGETS = [
    ("cli.main", "chaincert.cli", "main", True),
    ("io.load", "chaincert.io", "load", True),
    ("io.certificate_to_json", "chaincert.io", "certificate_to_json", True),
    ("io.save", "chaincert.io", "save", True),
    ("resolution.validate_resolution", "chaincert.resolution", "validate_resolution", True),
    ("stabilize.total_equivalence", "chaincert.stabilize", "total_equivalence", True),
    ("stabilize.build_ladder", "chaincert.stabilize", "build_ladder", True),
    ("stabilize.build_ladder_maps", "chaincert.stabilize", "build_ladder_maps", True),
    ("stabilize.expansion_equivalence", "chaincert.stabilize", "expansion_equivalence", True),
    ("stabilize.intermediate_complex", "chaincert.stabilize", "intermediate_complex", True),
    ("stabilize.chain_isomorphism", "chaincert.stabilize", "chain_isomorphism", True),
    ("stabilize.verify_certificate", "chaincert.stabilize", "verify_certificate", True),
    ("chain.HomotopyEquivalence.validate", "chaincert.chain", "HomotopyEquivalence.validate", True),
    ("chain.compose_equivalences", "chaincert.chain", "compose_equivalences", True),
    ("chain.make_equivalence", "chaincert.chain", "make_equivalence", True),
    ("chain.ChainMap.after", "chaincert.chain", "ChainMap.after", False),
    ("chain.identity_chain_map", "chaincert.chain", "identity_chain_map", False),
    ("chain.validate_complex", "chaincert.chain", "validate_complex", False),
    ("chain.validate_chain_map", "chaincert.chain", "validate_chain_map", False),
    ("chain.validate_homotopy", "chaincert.chain", "validate_homotopy", False),
    ("matrix.mul", "chaincert.matrix", "Matrix.__mul__", False),
    ("matrix.add", "chaincert.matrix", "Matrix.__add__", False),
    ("matrix.neg", "chaincert.matrix", "Matrix.__neg__", False),
    ("matrix.sub", "chaincert.matrix", "Matrix.__sub__", False),
    ("matrix.eq", "chaincert.matrix", "Matrix.__eq__", False),
    ("matrix.is_zero", "chaincert.matrix", "Matrix.is_zero", False),
    ("matrix.hstack", "chaincert.matrix", "hstack", False),
    ("matrix.vstack", "chaincert.matrix", "vstack", False),
    ("matrix.block", "chaincert.matrix", "block", False),
    ("matrix.solve", "chaincert.matrix", "solve", True),
    ("matrix.hnf", "chaincert.matrix", "hnf", True),
    ("matrix.snf", "chaincert.matrix", "snf", True),
    ("matrix.kernel_basis", "chaincert.matrix", "kernel_basis", True),
    ("matrix.restrict_scalars", "chaincert.matrix", "restrict_scalars", False),
    ("kernels.matmul_int", "chaincert._kernels", "matmul_int", False),
    ("kernels.matmul_mod", "chaincert._kernels", "matmul_mod", False),
    ("kernels.rref_mod", "chaincert._kernels", "rref_mod", False),
    ("rings.regular_representation", "chaincert.rings", "GroupRing.regular_representation", False),
]

COUNTERS = ("matrix.mul.madds", "matrix.add.entries")


class Tracer:
    def __init__(self):
        self.names = [target[0] for target in TARGETS]
        self.stage_level = [target[3] for target in TARGETS]
        self.job = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        # one entry per span, indexed by span id
        self.name = array("i")
        self.parent = array("l")
        self.span_job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.nested = bytearray()  # 1 if inside a span of the same name
        self._stack = [-1]
        self._active = [0] * len(TARGETS)
        self._restore: list = []
        self.origin = perf_counter()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "chaincert" or key.startswith("chaincert."))
        ]
        for index, (_, module_name, path, _) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(index, original)
            if classes:
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, index: int, fn):
        name_append = self.name.append
        parent_append = self.parent.append
        job_append = self.span_job.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        nested_append = self.nested.append
        stack = self._stack
        active = self._active
        counters = self.counters
        prefix = TARGETS[index][0]
        # 1: product (madds), 2: one elementwise pass, 3: sub, which counts
        # its own pass only when it made no add/neg calls
        kind = {"matrix.mul": 1, "matrix.add": 2, "matrix.neg": 2, "matrix.sub": 3}.get(prefix, 0)

        def wrapper(*args, **kwargs):
            sid = len(end)
            name_append(index)
            parent_append(stack[-1])
            job_append(self.job)
            end_append(0.0)
            active[index] += 1
            nested_append(active[index] > 1)
            stack.append(sid)
            if kind == 3:
                entries_before = counters["matrix.add.entries"]
            start_append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
                active[index] -= 1
            if kind == 1:
                a, b = args
                counters["matrix.mul.madds"] += a.rows * a.cols * b.cols
            elif kind == 2 or (kind == 3 and counters["matrix.add.entries"] == entries_before):
                counters["matrix.add.entries"] += result.rows * result.cols
            return result

        wrapper.__name__ = getattr(fn, "__name__", prefix)
        wrapper.__qualname__ = getattr(fn, "__qualname__", prefix)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.end)

    def layer_stats(self, spans=None) -> dict[str, dict[str, float]]:
        """calls, self_s and (for stage-level functions) total_s per target,
        over the given span ids (all spans by default). A span's self time
        is its duration minus the durations of its direct children;
        total_s skips spans nested in a span of the same name."""
        count = len(self)
        spans = range(count) if spans is None else spans
        child = [0.0] * count
        parent, start, end = self.parent, self.start, self.end
        for sid in range(count):
            if parent[sid] >= 0:
                child[parent[sid]] += end[sid] - start[sid]
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        total_s = [0.0] * len(TARGETS)
        for sid in spans:
            idx = self.name[sid]
            duration = end[sid] - start[sid]
            calls[idx] += 1
            self_s[idx] += duration - child[sid]
            if not self.nested[sid]:
                total_s[idx] += duration
        stats = {}
        for idx, prefix in enumerate(self.names):
            stats[prefix] = {"calls": calls[idx], "self_s": self_s[idx]}
            if self.stage_level[idx]:
                stats[prefix]["total_s"] = total_s[idx]
        return stats

    def write(self, path: str) -> None:
        """Dump every span as gzipped JSON columns; times in seconds from
        tracer creation."""
        origin = self.origin
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "job": self.span_job.tolist(),
            "start": [round(t - origin, 7) for t in self.start],
            "end": [round(t - origin, 7) for t in self.end],
            "counters": self.counters,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
