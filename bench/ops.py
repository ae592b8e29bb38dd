"""Ops run through the real CLI in-process, and the checks on their outputs.

A pipeline op is ``construct spec out`` followed, when it succeeds, by
``verify out --spec spec``; a search op is ``search spec --max-results 1``.
Only the CLI calls of the op are timed.  The checks run afterwards,
untimed and untraced, and any CLI call they need goes through ``cli.main``
as well.  An op fails on a wrong verdict, an unexpected exit code or an
exception out of ``cli.main``; a failure is recorded and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import FEASIBLE, INFEASIBLE, READY, REJECTED, Item, spec_text


@dataclass(frozen=True)
class Call:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Outcome:
    seconds: float
    problem: str | None  # None when every check passed
    decided: bool  # the op ended in a verdict, not a budget stop or an error
    verifies: int
    exact_verifies: int


class Runner:
    """Runs the ops of one workload pool and checks every output.

    ``counts`` collects the exact per-layer counts of the first pass over
    the pool (each item once), derived from the op outputs; they repeat
    exactly for a given seed.
    """

    def __init__(self, cli, search_workload: bool, items: list[Item], work: Path, tracer=None):
        self.cli = cli
        self.search = search_workload
        self.items = items
        self.work = work
        self.tracer = tracer
        self.counts: Counter = Counter()
        self._ready: dict[str, bool] = {}  # item name -> verdict of `check`
        self._orderings: dict[str, str | None] = {}  # item + ordering -> problem found

    def write_specs(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for item in self.items:
            self._spec(item).write_text(spec_text(item.payload), encoding="utf-8")

    def _spec(self, item: Item) -> Path:
        return self.work / f"{item.name}.json"

    def call(self, *argv: str) -> Call:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return Call(code, out.getvalue(), err.getvalue())

    def run(self, index: int, traced: bool = True) -> Outcome:
        item = self.items[index % len(self.items)]
        first_pass = index < len(self.items)
        calls: list[Call] = []
        if self.tracer is not None and traced:
            self.tracer.op = index
            self.tracer.active = True
        start = perf_counter()
        try:
            self._op(item, calls)
        except (Exception, SystemExit) as exc:
            seconds = perf_counter() - start
            return Outcome(seconds, f"{item.name}: {type(exc).__name__}: {exc}", False, 0, 0)
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        seconds = perf_counter() - start
        try:
            check = self._check_search if self.search else self._check_pipeline
            problem, decided, verifies, exact = check(item, calls, first_pass)
        except (Exception, SystemExit) as exc:
            problem, decided, verifies, exact = f"check raised {exc!r}", False, 0, 0
        if problem is not None:
            problem = f"{item.name}: {problem}"
        return Outcome(seconds, problem, decided, verifies, exact)

    def _op(self, item: Item, calls: list[Call]) -> None:
        spec = str(self._spec(item))
        if self.search:
            calls.append(self.call("search", spec, "--max-results", "1"))
            return
        out = str(self.work / f"{item.name}.out.json")
        calls.append(self.call("construct", spec, out))
        if calls[0].code == 0:
            calls.append(self.call("verify", out, "--spec", spec))

    # --- pipeline checks -----------------------------------------------------

    def _check_ready(self, spec: Path) -> bool:
        """Verdict of the CLI ``check`` command on a spec file."""
        return json.loads(self.call("check", str(spec), "--json").out)["ready"]

    def _check_pipeline(self, item: Item, calls: list[Call], first_pass: bool):
        construct = calls[0]
        if item.name not in self._ready:
            self._ready[item.name] = self._check_ready(self._spec(item))
        ready = self._ready[item.name]
        decided = construct.code in (0, 2)
        if item.expect == READY and not ready:
            return "check rejects a spec that is ready by construction", decided, 0, 0
        if item.expect == REJECTED and ready:
            return "check accepts a spec that the generator saw rejected", decided, 0, 0
        if construct.code != (0 if ready else 2):
            return (
                f"construct exited {construct.code} on a spec check calls "
                f"{'ready' if ready else 'not ready'}: {construct.err.strip()}",
                decided,
                0,
                0,
            )
        if first_pass:
            self.counts["construct.stuck"] += "construction stuck" in construct.err
            self.counts["formats.norm_roundings"] += construct.err.count("rounded to")
        if not ready:
            return None, decided, 0, 0
        verify = calls[1]
        report = json.loads(verify.out)
        exact = report["orthogonalityMode"] == "exact"
        decided = verify.code in (0, 2)
        if first_pass:
            self._matrix_counts(self.work / f"{item.name}.out.json", exact)
        if verify.code != 0 or report["matchesSpec"] is not True:
            return f"verify exited {verify.code} with matchesSpec {report['matchesSpec']}", decided, 1, exact
        return None, decided, 1, exact

    def _matrix_counts(self, path: Path, exact: bool) -> None:
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        counts = self.counts
        counts["formats.matrix_bytes"] += len(text.encode("utf-8"))
        kinds = Counter(record["kind"] for record in payload["metadata"]["blockLog"])
        counts["construct.singletons"] += kinds["singleton"]
        counts["construct.blocks"] += kinds["block-2x2"]
        counts["construct.degenerate_blocks"] += kinds["degenerate-block"]
        entries = payload["entries"]
        counts["construct.nnz"] += len(entries)
        dim = payload["dim"]
        counts["verify.row_pairs"] += dim * (dim - 1) // 2
        rows_of_column = defaultdict(list)
        for entry in entries:
            rows_of_column[entry["col"]].append(entry["row"])
        sharing = {
            (a, b) for rows in rows_of_column.values() for a in rows for b in rows if a < b
        }
        counts["verify.sharing_pairs"] += len(sharing)
        counts["verify.float_fallbacks"] += not exact
        bits = max(
            max(entry["rad"]["num"].bit_length(), entry["rad"]["den"].bit_length())
            for entry in entries
        )
        counts["scalar.radicand_bits_max"] = max(counts["scalar.radicand_bits_max"], bits)

    # --- search checks -------------------------------------------------------

    def _check_search(self, item: Item, calls: list[Call], first_pass: bool):
        search = calls[0]
        result = json.loads(search.out)
        orderings = result["orderings"]
        decided = bool(orderings) or result["exhausted"]
        if first_pass:
            self.counts["search.nodes"] += result["nodes_used"]
            self.counts["search.heuristic_hits"] += bool(orderings) and result["nodes_used"] == 0
            self.counts["search.budget_exhausted"] += result["budget_exhausted"]
        expected_code = 0 if orderings else 3 if result["budget_exhausted"] else 2
        if search.code != expected_code:
            return f"search exited {search.code}, expected {expected_code}", decided, 0, 0
        if item.expect == INFEASIBLE and orderings:
            return "search returned an ordering for a multiset that fails majorization", decided, 0, 0
        if item.expect == FEASIBLE and not orderings and result["exhausted"]:
            return "search exhausted without an ordering for a feasible multiset", decided, 0, 0
        verifies = exact = 0
        for ordering in orderings:
            key = item.name + json.dumps(ordering, sort_keys=True)
            if key not in self._orderings:
                problem, mode = self._check_ordering(item, ordering, len(self._orderings))
                self._orderings[key] = problem
                verifies += mode is not None
                exact += mode == "exact"
            if self._orderings[key] is not None:
                return self._orderings[key], decided, verifies, exact
        return None, decided, verifies, exact

    def _check_ordering(self, item: Item, ordering: dict, serial: int):
        """An ordering must rearrange the item's multisets, pass ``check``,
        construct and verify.  Returns (problem or None, verify mode or None)."""
        for key in ("eigenvalues", "norms_squared"):
            if sorted(map(Fraction, ordering[key])) != sorted(map(Fraction, item.payload[key])):
                return f"returned {key} are not a rearrangement of the input", None
        payload = {"dim": len(ordering["eigenvalues"]), **ordering}
        spec = self.work / f"{item.name}.ordering{serial}.json"
        spec.write_text(spec_text(payload), encoding="utf-8")
        if not self._check_ready(spec):
            return "returned ordering fails check", None
        out = str(self.work / f"{item.name}.ordering{serial}.out.json")
        construct = self.call("construct", str(spec), out)
        if construct.code != 0:
            return f"returned ordering does not construct: {construct.err.strip()}", None
        verify = self.call("verify", out, "--spec", str(spec))
        report = json.loads(verify.out)
        if verify.code != 0 or report["matchesSpec"] is not True:
            return "returned ordering does not verify", report["orthogonalityMode"]
        return None, report["orthogonalityMode"]
