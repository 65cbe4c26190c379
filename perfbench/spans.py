"""Span tracing of the freeqg layers, installed from outside the program.

`Tracer.install` replaces functions and `ExactMatrix` methods with timing
wrappers in every namespace where callers look them up: each freeqg module
whose globals hold the original object (for example both
`freeqg.words.loop_decomposition` and `freeqg.coinvariants.loop_decomposition`)
and the class for methods.  Nothing under `src/` is edited.

Every wrapped call keeps a frame on a stack so that its parent can subtract
it: a layer's self time is its calls' durations minus the time their wrapped
children cover.  Calls that are not hot also record a span (id, parent id,
name, start, end) in memory; hot leaves, called up to hundreds of thousands
of times per operation, are only aggregated.  `write` dumps the spans when
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("words", "linalg", "coinvariants", "fusion", "reps", "cli")

# (module, attribute, metric prefix, hot).  Functions are looked up in the
# named module and then re-bound in every freeqg namespace that imports them.
FUNCTIONS = (
    ("freeqg.words", "balanced_words", "words.balanced_words", False),
    ("freeqg.words", "parse_word", "words.parse_word", True),
    ("freeqg.words", "enumerate_pairings", "words.enumerate_pairings", False),
    ("freeqg.words", "enumerate_noncrossing", "words.enumerate_noncrossing", False),
    ("freeqg.words", "enumerate_colorings", "words.enumerate_colorings", True),
    ("freeqg.words", "is_block_respecting", "words.is_block_respecting", True),
    ("freeqg.words", "loop_decomposition", "words.loop_decomposition", True),
    ("freeqg.coinvariants", "gram_matrix", "coinvariants.gram_matrix", False),
    ("freeqg.coinvariants", "gram_matrix_colored", "coinvariants.gram_matrix_colored", False),
    ("freeqg.coinvariants", "nc_rank", "coinvariants.nc_rank", False),
    ("freeqg.coinvariants", "fullness_system", "coinvariants.fullness_system", False),
    ("freeqg.coinvariants", "in_noncrossing_span", "coinvariants.in_noncrossing_span", False),
    ("freeqg.coinvariants", "joint_fullness", "coinvariants.joint_fullness", False),
    ("freeqg.coinvariants", "verify_witness", "coinvariants.verify_witness", False),
    ("freeqg.coinvariants", "verdict_json", "coinvariants.verdict_json", True),
    ("freeqg.fusion", "trivial_multiplicity", "fusion.trivial_multiplicity", False),
    ("freeqg.reps", "separate", "reps.separate", False),
    ("freeqg.reps", "evaluate", "reps.evaluate", True),
    ("freeqg.reps", "operator_norm", "reps.operator_norm", True),
    ("freeqg.reps", "check_relations", "reps.check_relations", True),
    ("freeqg.cli", "main", "cli.main", False),
)

# (module, class, method, metric prefix, hot)
METHODS = (
    ("freeqg.linalg", "ExactMatrix", "__init__", "linalg.ExactMatrix.init", True),
    ("freeqg.linalg", "ExactMatrix", "row_list", "linalg.row_list", True),
    ("freeqg.linalg", "ExactMatrix", "transpose", "linalg.transpose", True),
    ("freeqg.linalg", "ExactMatrix", "column_submatrix", "linalg.column_submatrix", True),
    ("freeqg.linalg", "ExactMatrix", "matvec", "linalg.matvec", True),
    ("freeqg.linalg", "ExactMatrix", "__matmul__", "linalg.matmul", False),
    ("freeqg.linalg", "ExactMatrix", "_echelon", "linalg.echelon", False),
    ("freeqg.linalg", "ExactMatrix", "rank", "linalg.rank", False),
    ("freeqg.linalg", "ExactMatrix", "nullspace_basis", "linalg.nullspace_basis", False),
    ("freeqg.linalg", "ExactMatrix", "left_nullspace_basis", "linalg.left_nullspace_basis", False),
    ("freeqg.linalg", "ExactMatrix", "in_column_space", "linalg.in_column_space", False),
    ("freeqg.reps", "SeparationStrategy", "draw", "reps.SeparationStrategy.draw", True),
)

# matrices handed to these calls have their size and entry bit-length recorded
SIZED = {
    "linalg.rank",
    "linalg.nullspace_basis",
    "linalg.left_nullspace_basis",
    "linalg.in_column_space",
}

# calls whose arguments or results feed the counters in Tracer._observe
OBSERVED = {
    "words.is_block_respecting",
    "words.enumerate_colorings",
    "coinvariants.fullness_system",
    "coinvariants.joint_fullness",
    "reps.separate",
    "linalg.ExactMatrix.init",
}


def _entry_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Collects spans and per-name aggregates while `active` is set."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_self: dict[str, float] = defaultdict(float)
        # self seconds by (layer, length of the word whose verdict is open)
        self.tagged_self: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_bits = 0
        self.max_rows = 0
        self.max_cols = 0
        self._stack: list[list] = []  # frames: [child seconds, span id, parent id]
        self._tag = "none"
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, hot: bool) -> list:
        parent = self._stack[-1][1] if self._stack else 0
        if hot:
            frame = [0.0, parent, parent]
        else:
            frame = [0.0, self._next_id, parent]
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name: str, layer: str, hot: bool, start: float, end: float):
        self._stack.pop()
        duration = end - start
        own = duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        self.layer_self[layer] += own
        self.tagged_self[(layer, self._tag)] += own
        if not hot:
            self.spans.append((frame[1], frame[2], name, start, end))

    def root(self, name: str):
        """Span for harness work (a pass or one operation), layer 'bench'."""
        return _Root(self, name)

    def _size(self, matrix):
        start = perf_counter()
        self.active = False  # row_list below is itself wrapped
        try:
            self.max_rows = max(self.max_rows, matrix.rows)
            self.max_cols = max(self.max_cols, matrix.cols)
            for row in matrix.row_list():
                for x in row:
                    if x:
                        bits = _entry_bits(x)
                        if bits > self.max_bits:
                            self.max_bits = bits
        finally:
            self.active = True
        spent = perf_counter() - start
        # bookkeeping is charged to the 'trace' layer, not to the caller
        if self._stack:
            self._stack[-1][0] += spent
        self.layer_self["trace"] += spent

    def _observe(self, name: str, args, result):
        counts = self.counts
        if name == "words.is_block_respecting":
            counts["block_respecting_true"] += bool(result)
        elif name == "words.enumerate_colorings":
            counts["colorings"] += len(result)
        elif name == "coinvariants.fullness_system":
            counts["constraint_rows"] += result[3].rows
        elif name == "coinvariants.joint_fullness":
            counts["solution_dim"] += result.solution_space_dim
        elif name == "reps.separate":
            counts["witnesses"] += result is not None
        elif name == "linalg.ExactMatrix.init":
            counts["entries"] += args[0].rows * args[0].cols

    def _wrap(self, fn, name: str, hot: bool):
        tracer = self
        layer = name.split(".", 1)[0]
        sized = name in SIZED
        observed = name in OBSERVED
        tags_word = name == "coinvariants.joint_fullness"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if sized:
                tracer._size(args[0])
            saved_tag = tracer._tag
            if tags_word:
                tracer._tag = f"len{len(args[0])}"
            frame = tracer._enter(hot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._exit(frame, name, layer, hot, start, end)
                if tags_word:
                    tracer.counts[f"{tracer._tag}.verdict_s"] += end - start
                    tracer._tag = saved_tag
            if observed:
                tracer._observe(name, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Re-bind every traced name; `uninstall` restores the originals."""
        modules = {k: v for k, v in sys.modules.items() if k == "freeqg" or k.startswith("freeqg.")}
        for module_name, attr, name, hot in FUNCTIONS:
            original = getattr(modules[module_name], attr)
            wrapper = self._wrap(original, name, hot)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, name, hot in METHODS:
            cls = getattr(modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, hot))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": self.spans,
                },
                fh,
            )

    def metrics(self, passes: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics, each averaged per pass over the traced passes."""
        out: dict[str, float] = {}
        stats = self.stats

        def calls(name):
            return stats[name][0] / passes if name in stats else 0.0

        def ms(name, index):
            return 1000.0 * stats[name][index] / passes if name in stats else 0.0

        def triple(name):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.ms"] = ms(name, 1)
            out[f"{name}.self_ms"] = ms(name, 2)

        for layer in LAYERS + ("bench", "trace"):
            out[f"{layer}.self_ms"] = 1000.0 * self.layer_self.get(layer, 0.0) / passes
        layer_sum = sum(self.layer_self.get(layer, 0.0) for layer in LAYERS) / passes
        out["trace.traced_wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.layer_self_sum_s"] = layer_sum
        out["trace.layer_self_share"] = layer_sum / traced_wall if traced_wall else 0.0
        out["trace.spans"] = len(self.spans) / passes

        init = "linalg.ExactMatrix.init"
        out[f"{init}.calls"] = calls(init)
        out[f"{init}.ms"] = ms(init, 1)
        out[f"{init}.entries"] = self.counts["entries"] / passes
        for name in (
            "linalg.rank",
            "linalg.nullspace_basis",
            "linalg.left_nullspace_basis",
            "linalg.in_column_space",
            "linalg.matvec",
            "linalg.matmul",
            "linalg.echelon",
        ):
            triple(name)
        out["linalg.max_input_bits"] = self.max_bits
        out["linalg.max_shape_rows"] = self.max_rows
        out["linalg.max_shape_cols"] = self.max_cols

        out["words.loop_decomposition.calls"] = calls("words.loop_decomposition")
        out["words.loop_decomposition.self_ms"] = ms("words.loop_decomposition", 2)
        out["words.enumerate_pairings.ms"] = ms("words.enumerate_pairings", 1)
        out["words.enumerate_noncrossing.ms"] = ms("words.enumerate_noncrossing", 1)
        out["words.enumerate_colorings.count"] = self.counts["colorings"] / passes
        attempted = stats["words.is_block_respecting"][0] if "words.is_block_respecting" in stats else 0
        out["words.is_block_respecting.calls"] = attempted / passes
        out["words.is_block_respecting.hit_ratio"] = (
            self.counts["block_respecting_true"] / attempted if attempted else 0.0
        )

        for name in (
            "coinvariants.joint_fullness",
            "coinvariants.fullness_system",
            "coinvariants.gram_matrix",
            "coinvariants.gram_matrix_colored",
            "coinvariants.nc_rank",
        ):
            triple(name)
        for length in range(0, 9, 2):
            out[f"coinvariants.joint_fullness.len{length}.ms"] = (
                1000.0 * self.counts[f"len{length}.verdict_s"] / passes
            )
        len8 = self.counts["len8.verdict_s"]
        out["linalg.len8_verdict_share"] = (
            self.tagged_self.get(("linalg", "len8"), 0.0) / len8 if len8 else 0.0
        )
        scanned = self.counts["colorings"]
        out["coinvariants.colorings_used_ratio"] = (
            calls("coinvariants.gram_matrix_colored") * passes / scanned if scanned else 0.0
        )
        out["coinvariants.constraint_rows"] = self.counts["constraint_rows"] / passes
        out["coinvariants.solution_dim"] = self.counts["solution_dim"] / passes

        out["cli.main.calls"] = calls("cli.main")
        out["cli.main.self_ms"] = ms("cli.main", 2)

        out["fusion.trivial_multiplicity.calls"] = calls("fusion.trivial_multiplicity")
        out["fusion.trivial_multiplicity.ms"] = ms("fusion.trivial_multiplicity", 1)

        for name in (
            "reps.SeparationStrategy.draw",
            "reps.check_relations",
            "reps.evaluate",
            "reps.operator_norm",
        ):
            triple(name)
        searches = stats["reps.separate"][0] if "reps.separate" in stats else 0
        out["reps.separate.calls"] = searches / passes
        out["reps.separate.trials_used"] = calls("reps.SeparationStrategy.draw")
        out["reps.separate.hit_ratio"] = (
            self.counts["witnesses"] / searches if searches else 0.0
        )
        return out


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(False)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame, self.name, "bench", False, self.start, perf_counter())
        return False
