"""The four seeded workloads and the checks on every answer they get.

Each workload is a closed loop of one client on one keep-alive
connection.  It yields *rounds*: a run only stops between rounds, so
every run holds whole rounds and each query class keeps its share of
the samples.  A sample is one ``/query`` request or one ``/batch``
envelope.  Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.checking import CheckOptions, MFModelChecker
from repro.models import MODEL_REGISTRY

#: Equivalence tolerance on values and cSat endpoints (the repo's
#: equivalence suites use the same bound).
VALUE_TOL = 1e-6

#: Verdicts may differ only this close to the bound.
PROBABILITY_TOL = CheckOptions().probability_tol

#: Paper anchor (Example 1): virus1 at (0.8, 0.15, 0.05).
ANCHOR = {
    "command": "check",
    "model": "virus1",
    "occupancy": [0.8, 0.15, 0.05],
    "formula": "EP[<0.3](not_infected U[0,1] infected)",
}
ANCHOR_VALUE = 0.2339

EP_UNTIL = "EP[<0.3](not_infected U[0,1] infected)"
INNER = "P[>=0.02](not_infected U[0,1] infected)"
# The nested path of benchmarks/test_bench_formula_opt.py's showcase.
NPATH = f"{INNER} U[0,3] active"

LARGE_K_MODEL = "loadbalance-deep"
LARGE_K_FORMULA = "EP[<0.5](busy U[0,0.5] congested)"
LARGE_K_ANSWERS = Path(__file__).resolve().parent / "large_k_answers.json"


def virus_occupancy(rng) -> list:
    """A seeded occupancy of the 3-state virus model.

    At least half of the infected share is inactive: on virus2, checks
    from occupancies with a mostly active infected share run for
    seconds to minutes instead of milliseconds.
    """
    a = float(rng.uniform(0.6, 0.9))
    b = float(rng.uniform(0.5, 0.9)) * (1.0 - a)
    return [a, b, 1.0 - a - b]


def large_k_occupancy(decay: float, noise_seed: int) -> list:
    """A geometric queue-length profile with seeded jitter, K = 1001."""
    rng = np.random.default_rng(noise_seed)
    weights = decay ** np.arange(1001) * np.exp(0.05 * rng.standard_normal(1001))
    return (weights / weights.sum()).tolist()


def query(command, model, formula, occupancy, theta=None) -> dict:
    payload = {
        "command": command,
        "model": model,
        "occupancy": occupancy,
        "formula": formula,
    }
    if theta is not None:
        payload["theta"] = theta
    return payload


def key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# -- answers -------------------------------------------------------------


def answer_of(body: dict):
    """The answer a response carries, or ``None`` for an error."""
    if body.get("status") != "ok":
        return None
    if "verdict" in body:
        v = body["verdict"]
        return {"holds": v["holds"], "value": v["value"], "margin": v["margin"]}
    if "intervals" in body:
        return {"intervals": body["intervals"]}
    return {"value": body["value"]}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= VALUE_TOL


def same_answer(expected, got) -> bool:
    """Equivalence as the repo's equivalence suites define it."""
    if expected is None or got is None or expected.keys() != got.keys():
        return False
    if "intervals" in expected:
        a, b = expected["intervals"], got["intervals"]
        return len(a) == len(b) and all(
            _close(x, y) for ia, ib in zip(a, b) for x, y in zip(ia, ib)
        )
    if not _close(expected["value"], got["value"]):
        return False
    if "holds" in expected and expected["holds"] != got["holds"]:
        margins = [m for m in (expected["margin"], got["margin"]) if m is not None]
        return bool(margins) and min(margins) <= PROBABILITY_TOL
    return True


def corrupt(body: dict) -> None:
    """Falsify the answer in ``body`` (the self-test's injected fault)."""
    if "results" in body:
        corrupt(body["results"][0])
    elif "verdict" in body:
        body["verdict"]["holds"] = not body["verdict"]["holds"]
        body["verdict"]["value"] += 0.01
    elif "intervals" in body:
        body["intervals"] = [[a + 0.01, b] for a, b in body["intervals"]]
    elif "value" in body:
        body["value"] += 0.01


class Reference:
    """Untimed in-process answers, each on a fresh evaluation context."""

    def __init__(self):
        self._checkers = {}

    def answer(self, payload: dict):
        name = payload["model"]
        if name not in self._checkers:
            self._checkers[name] = MFModelChecker(MODEL_REGISTRY[name](), CheckOptions())
        checker = self._checkers[name]
        occ = np.array(payload["occupancy"])
        formula = payload["formula"]
        if payload["command"] == "check":
            v = checker.check_detailed(formula, occ)
            return {"holds": v.holds, "value": v.value, "margin": v.margin}
        if payload["command"] == "value":
            return {"value": float(checker.value(formula, occ))}
        result = checker.conditional_sat(formula, occ, payload["theta"])
        return {"intervals": [[float(a), float(b)] for a, b in result.intervals]}


# -- workloads -------------------------------------------------------------


class Sample:
    """One timed unit: a ``/query`` request or a ``/batch`` envelope."""

    __slots__ = ("payload", "batch", "label")

    def __init__(self, payload, batch=False, label=""):
        self.payload = payload
        self.batch = batch
        self.label = label

    @property
    def queries(self) -> int:
        return len(self.payload) if self.batch else 1


class Workload:
    #: Fewest samples a run (or each half of a traced run) collects.
    min_samples = 100
    min_samples_traced = 20

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, self.salt])
        self.reference = Reference()
        self.expected: "dict[str, dict]" = {}

    def warm_up(self, client) -> "list[tuple[dict, dict]]":
        """Untimed set-up requests; returns ``(payload, body)`` pairs."""
        raise NotImplementedError

    def rounds(self):
        raise NotImplementedError

    def verify_warm_up(self, pairs) -> int:
        """Check the warm-up's cold answers in-process; store them as the
        expected answers of later requests.  Returns the failure count."""
        failed = 0
        for payload, body in pairs:
            want = self.reference.answer(payload)
            got = answer_of(body)
            ok = same_answer(want, got)
            failed += not ok
            # Later answers to the same query must equal the cold one.
            self.expected[key(payload)] = got if ok else want
        return failed

    def expected_answer(self, payload: dict):
        return self.expected[key(payload)]

    def check(self, sample: Sample, status: int, body: dict) -> int:
        """Failed queries in one sample's response."""
        if sample.batch:
            results = body.get("results") if status == 200 else None
            if not isinstance(results, list) or len(results) != len(sample.payload):
                return sample.queries
            return sum(
                not same_answer(self.expected_answer(p), answer_of(r))
                for p, r in zip(sample.payload, results)
            )
        if status != 200:
            return 1
        return int(not same_answer(self.expected_answer(sample.payload), answer_of(body)))


def _batch_warm_up(client, payloads):
    status, body = client.query_batch(payloads)
    results = body.get("results") if status == 200 else None
    if not isinstance(results, list):
        results = [{"status": "error"}] * len(payloads)
    return list(zip(payloads, results))


class ServeWarm(Workload):
    """Response-cache hits over a pre-warmed set of 64 K = 3 queries."""

    name = "serve-warm"
    salt = 1
    # cSat stays on virus1: a virus2 cSat of this leaf was seen running
    # for minutes.
    templates = (
        ("check", "virus1", EP_UNTIL, None),
        ("check", "virus2", EP_UNTIL, None),
        ("value", "virus1", EP_UNTIL, None),
        ("value", "virus2", EP_UNTIL, None),
        ("csat", "virus1", "E[<0.15](infected)", 20.0),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.queries = []
        for i in range(64):
            cmd, model, formula, theta = self.templates[i % len(self.templates)]
            self.queries.append(
                query(cmd, model, formula, virus_occupancy(self.rng), theta)
            )

    def warm_up(self, client):
        return _batch_warm_up(client, self.queries)

    def rounds(self):
        while True:
            picks = self.rng.integers(len(self.queries), size=16)
            yield [Sample(self.queries[i], label="hit") for i in picks]


class ServeBatch(Workload):
    """``/batch`` envelopes of 64 warm items over 8-16 distinct queries."""

    name = "serve-batch"
    salt = 2
    min_samples_traced = 10
    formulas = (EP_UNTIL, "E[<0.5](infected)")

    def __init__(self, seed):
        super().__init__(seed)
        distinct = int(self.rng.integers(8, 17))
        self.distinct = [
            query("check", ("virus1", "virus2")[i % 2], self.formulas[(i // 2) % 2],
                  virus_occupancy(self.rng))
            for i in range(distinct)
        ]

    def warm_up(self, client):
        return _batch_warm_up(client, self.distinct)

    def rounds(self):
        while True:
            picks = self.rng.integers(len(self.distinct), size=64)
            yield [Sample([self.distinct[i] for i in picks], batch=True, label="envelope")]


class ServeCold(Workload):
    """Response-cache misses: a fresh occupancy on every request."""

    name = "serve-cold"
    salt = 3
    templates = (
        ("ep-until", "check", EP_UNTIL, None),
        ("nested", "check", f"E[>0.1](P[>=0.0003]({INNER} U[0,4] active))", None),
        ("steady", "check", "ES[<0.5](infected)", None),
        ("csat-ep", "csat", EP_UNTIL, 20.0),
        ("csat-showcase", "csat", f"EP[<0.4]({NPATH})", 20.0),
    )

    def warm_up(self, client):
        pairs = []
        for _, cmd, formula, theta in self.templates:
            payload = query(cmd, "virus1", formula, [0.7, 0.2, 0.1], theta)
            pairs.append((payload, client.query(payload)[1]))
        return pairs

    def rounds(self):
        while True:
            yield [
                Sample(query(cmd, "virus1", formula, virus_occupancy(self.rng), theta), label=label)
                for label, cmd, formula, theta in self.templates
            ]

    def expected_answer(self, payload):
        return self.reference.answer(payload)


class LargeK(Workload):
    """K = 1001 on the sparse backend: a cold check, then 3 re-asks."""

    name = "large-k"
    salt = 4
    # Four whole rounds: with three, the median sits among too few
    # re-asks to be steady.
    min_samples = 16
    min_samples_traced = 4

    def __init__(self, seed):
        super().__init__(seed)
        stored = json.loads(LARGE_K_ANSWERS.read_text())
        self.pool = stored["pool"]
        self.order = self.rng.permutation(len(self.pool))

    def warm_up(self, client):
        # Builds the warm (model, options) entry; the occupancy is not in
        # the pool.
        payload = query(
            "check", LARGE_K_MODEL, "E[<0.5](congested)", large_k_occupancy(0.98, 10_000)
        )
        return [(payload, client.query(payload)[1])]

    def rounds(self):
        for i in self.order:
            entry = self.pool[int(i)]
            payload = query(
                "check", LARGE_K_MODEL, LARGE_K_FORMULA,
                large_k_occupancy(entry["decay"], entry["noise_seed"]),
            )
            self.expected[key(payload)] = entry["answer"]
            yield [Sample(payload, label="cold")] + [
                Sample(payload, label="re-ask") for _ in range(3)
            ]


WORKLOADS = {w.name: w for w in (ServeWarm, ServeCold, ServeBatch, LargeK)}
