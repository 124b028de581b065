"""The benchmark's workloads: the kronspec commands one round runs.

A round is one pass over a workload's commands, in one fresh process. Each
command is either ``kronspec experiment <config.json>`` or ``kronspec theory``.
Every config's ``master_seed`` (and the theory ``--seed``) is derived from the
benchmark seed, the round and the command, so the same seed always gives the
same inputs and no two rounds solve the same random products.

``small=True`` gives the reduced sizes the smoke test uses: orders of 12 to
17, and 30% in place of 10% density, because 10%-dense ER graphs of order 12
are rarely connected.
"""

from __future__ import annotations

import hashlib

DENSITIES = (0.10, 0.30, 0.65)
SMALL_DENSITIES = (0.30, 0.50, 0.65)


def derive(*parts) -> int:
    """Stable 32-bit seed from labelled parts."""
    text = ":".join(str(p) for p in ("perfbench", *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _experiment(name, model, orders, density, runs, seed, correlations,
                extra_config=None, **flags) -> dict:
    """One ``kronspec experiment`` command; ``flags`` steer the checks (see verify.py)."""
    config = {
        "model": model,
        "orders": list(orders),
        "density": density,
        "runs": runs,
        "master_seed": seed,
        "compute_correlations": correlations,
        **(extra_config or {}),
    }
    return {"name": name, "kind": "experiment", "config": config, **flags}


def _tag(model: str, density: float) -> str:
    return f"{model}_d{round(density * 100)}"


def bands(seed: int, round_index: int, small: bool) -> list[dict]:
    """ER and WS error bands; each ER density again under Correlated; one CYCLE."""
    orders, cycle_orders = ((12, 15), (13, 15)) if small else ((30, 50), (31, 51))
    densities = SMALL_DENSITIES if small else DENSITIES
    commands = []
    for model in ("ER", "WS"):
        for density in densities:
            tag = _tag(model, density)
            master = derive(seed, "bands", round_index, tag)
            commands.append(_experiment(
                tag, model, orders, density, 2, master, False,
                recompute=(model, density) == ("ER", densities[0]),
            ))
            if model == "ER":
                # same seed, so the same products as the command before it
                commands.append(_experiment(
                    f"{tag}_correlated", model, orders, density, 2, master, False,
                    extra_config={
                        "estimators": ["NormalizedLaplacian"],
                        "ordering": {"kind": "Correlated"},
                    },
                ))
    commands.append(_experiment(
        "CYCLE", "CYCLE", cycle_orders, 0.5, 2, derive(seed, "bands", round_index, "CYCLE"),
        False, exact=True,
    ))
    return commands


def kde(seed: int, round_index: int, small: bool) -> list[dict]:
    """Correlation densities for ER, WS and BA at three densities each."""
    orders = (12, 15) if small else (30, 50)
    densities = SMALL_DENSITIES if small else DENSITIES
    commands = []
    for model in ("ER", "WS", "BA"):
        for density in densities:
            tag = _tag(model, density)
            commands.append(_experiment(
                tag, model, orders, density, 1, derive(seed, "kde", round_index, tag), True,
                recompute=(model, density) == ("ER", densities[0]),
            ))
    return commands


def er_large(seed: int, round_index: int, small: bool) -> list[dict]:
    """One ER product of order 5000 with correlations."""
    orders, density = ((15, 17), 0.30) if small else ((50, 100), 0.10)
    tag = _tag("ER", density)
    return [_experiment(
        tag, "ER", orders, density, 1, derive(seed, "er", round_index, tag), True,
        recompute=True,
    )]


def theory(seed: int, round_index: int, small: bool) -> list[dict]:
    """``kronspec theory`` at its default sizes, seeded per round."""
    args = ["--seed", str(derive(seed, "theory", round_index))]
    if small:
        args += ["--draws", "4", "--graphs", "20"]
    return [{"name": "theory", "kind": "theory", "args": args}]


BUILDERS = {
    "bands-30x50": bands,
    "kde-30x50": kde,
    "er-50x100": er_large,
    "theory": theory,
}
WORKLOADS = tuple(BUILDERS)


def commands(workload: str, seed: int, round_index: int, small: bool = False) -> list[dict]:
    return BUILDERS[workload](seed, round_index, small)
