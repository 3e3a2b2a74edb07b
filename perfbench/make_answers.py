"""Regenerate ``large_k_answers.json``: the stored answers of ``large-k``.

A cold K = 1001 check takes seconds, so the benchmark does not repeat
each one in-process; it compares against these answers, computed here
by an in-process ``MFModelChecker`` on a fresh context per occupancy.

    PYTHONPATH=src python3 perfbench/make_answers.py
"""

from __future__ import annotations

import json

import numpy as np

from workloads import (
    LARGE_K_ANSWERS,
    LARGE_K_FORMULA,
    LARGE_K_MODEL,
    Reference,
    large_k_occupancy,
    query,
)

#: Pool size; a run draws its cold occupancies from the pool in a
#: seeded order and uses fewer than this many.
POOL = 16


def main() -> None:
    reference = Reference()
    pool = []
    for i, decay in enumerate(np.linspace(0.978, 0.982, POOL)):
        entry = {"decay": round(float(decay), 6), "noise_seed": i}
        occupancy = large_k_occupancy(entry["decay"], i)
        payload = query("check", LARGE_K_MODEL, LARGE_K_FORMULA, occupancy)
        entry["answer"] = reference.answer(payload)
        pool.append(entry)
        print(entry, flush=True)
    LARGE_K_ANSWERS.write_text(
        json.dumps({"model": LARGE_K_MODEL, "formula": LARGE_K_FORMULA, "pool": pool}, indent=1)
        + "\n"
    )


if __name__ == "__main__":
    main()
