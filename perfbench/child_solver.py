"""Deterministic, numpy-free external solver for the bridge-heuristic workload.

Usage (as the bridge invokes it): child_solver.py GEOMETRY WORKDIR

GEOMETRY is the file `write_geometry` makes from a case's layout.json. The
solver reads the bridge's headerless "server_id, alpha" lines from
WORKDIR/flow_config.txt and its WORKDIR/state.json sidecar, and writes one
"sensor_id, temperature_c" line per sensor to WORKDIR/sensor_output.txt.
It parses the flow config itself, because hallcal.fileio.load_alpha
requires a "server_id,alpha_cfm_per_w" header that the bridge does not
write.

The model is a one-pass mix: a cold sensor reads the fan-weighted,
inverse-square mix of the CRAC setpoints; a hot sensor reads the mean cold
temperature plus the inverse-square mix of its servers' rises
KAPPA * (P / P_rated) / alpha. Hot readings therefore fall with 1/alpha of
nearby servers, which gives the (1+1)-ES a slope to follow.

It runs under `python -S -E` and imports only `marshal` and `sys`, both
built into the interpreter, so a call costs little more than interpreter
start-up and the bridge's own work dominates what is measured.
"""

import marshal
import sys

KAPPA = 1.75  # degC rise of a 1 cfm/W air stream


def _weights(sources, sensor):
    """Inverse-square weights of source positions onto one sensor."""
    out = []
    for src in sources:
        d2 = sum((a - b) ** 2 for a, b in zip(src["position"], sensor["position"]))
        out.append(1.0 / d2)
    return out


def write_geometry(layout: dict, path) -> None:
    """Digest a layout document into the GEOMETRY file the solver reads."""
    geometry = {
        "server_ids": [s["id"] for s in layout["servers"]],
        "rated": [float(s["rated_power"]) for s in layout["servers"]],
        "cold": [(s["id"], _weights(layout["cracs"], s))
                 for s in layout["sensors"] if s["aisle"] == "cold"],
        "hot": [(s["id"], _weights(layout["servers"], s))
                for s in layout["sensors"] if s["aisle"] == "hot"],
        "order": [s["id"] for s in layout["sensors"]],
    }
    with open(path, "wb") as fh:
        marshal.dump(geometry, fh)


def read_state(text: str) -> dict:
    """The bridge's state.json: one flat object of number lists."""
    parts = text.split('"')
    if len(parts) % 2 == 0:
        raise ValueError("state.json: unbalanced quotes")
    state = {}
    for key, body in zip(parts[1::2], parts[2::2]):
        values = body.strip(" \n:,}").strip("[]").split(",")
        state[key] = [float(v) for v in values if v.strip()]
    return state


def read_flow_config(text: str) -> dict:
    alpha = {}
    for line in text.splitlines():
        if line.strip():
            server_id, value = line.split(",")
            alpha[server_id.strip()] = float(value)
    return alpha


def solve(geometry: dict, state: dict, alpha: dict) -> list:
    """(sensor_id, temperature_c) pairs in layout order."""
    setpoints, fans = state["crac_setpoints"], state["crac_fan_speeds"]
    rises = [KAPPA * (p / rated) / alpha[sid] for sid, p, rated
             in zip(geometry["server_ids"], state["server_powers"], geometry["rated"])]
    temps = {}
    for sid, w in geometry["cold"]:
        w = [wi * f for wi, f in zip(w, fans)]
        temps[sid] = sum(wi * t for wi, t in zip(w, setpoints)) / sum(w)
    inlet = sum(temps.values()) / len(temps)
    for sid, w in geometry["hot"]:
        temps[sid] = inlet + sum(wi * r for wi, r in zip(w, rises)) / sum(w)
    return [(sid, temps[sid]) for sid in geometry["order"]]


def main(argv) -> int:
    with open(argv[1], "rb") as fh:
        geometry = marshal.load(fh)
    workdir = argv[2]
    with open(workdir + "/state.json") as fh:
        state = read_state(fh.read())
    with open(workdir + "/flow_config.txt") as fh:
        alpha = read_flow_config(fh.read())
    lines = [f"{sid}, {value!r}" for sid, value in solve(geometry, state, alpha)]
    with open(workdir + "/sensor_output.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
