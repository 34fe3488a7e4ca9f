"""Compare the bundle's jet coefficients of two source trees on the monomials both hold.

    PYTHONPATH=<parent>/src python3 tools/held_coefficients.py dump parent.npz
    PYTHONPATH=<change>/src python3 tools/held_coefficients.py dump change.npz
    python3 tools/held_coefficients.py compare parent.npz change.npz

``dump`` builds one ``BundleGeometry`` per model and coupling (alpha 0 and
0.5) on three seeded bundle points (``verify.sample_bundle_points``, seed
11) of the five catalog models and ``tools/dense_model.json``, and saves
each jet-valued object's coefficients with the exponent tuple of each slot.
``compare`` prints one line per object: the slots both trees hold, those
only the first or only the second holds, and whether every coefficient held
by both is byte-equal (``equal`` or ``DIFFERENT``).  It exits 1 if any
object differs.  Two trees whose jet spaces keep different monomials (a
total-order and a weighted joint space) digest different coefficient rows;
this is the check that the coefficients both keep did not move.  It lives
outside the package so that importing ``tbgrav`` stays as it was.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

OBJECTS = ("g", "ginv", "gamma", "yj", "norm2", "norm", "inv_norm", "l_up", "l_low", "l_hess", "f_vec", "b_up",
           "spray", "b_j", "b_jk", "n_conn0", "n_conn", "berwald", "n_curvature", "tidal", "b_trace2", "b_scalar")
PARAMS = {"uniform_field": {"E0": 0.1}, "schwarzschild": {"M": 1.0}, "reissner_nordstrom": {"M": 1.0, "Q": 0.3},
          "weak_field": {"M": 1.0}}
DENSE = Path(__file__).with_name("dense_model.json")


def dump(path: str) -> None:
    from tbgrav import load_model, verify
    from tbgrav.bundle_geom import BundleGeometry
    from tbgrav.spacetime import CATALOG_NAMES, catalog

    models = [catalog(name, PARAMS.get(name)) for name in CATALOG_NAMES] + [load_model(DENSE.read_text())]
    out = {}
    for model in models:
        points = verify.sample_bundle_points(model, np.random.default_rng(11), 3)
        for alpha in (0.0, 0.5):
            geo = BundleGeometry(model, points, alpha=alpha)
            for attr in OBJECTS:
                arr = getattr(geo, attr)
                key = f"{model.name}/alpha{alpha}/{attr}"
                out[key + "/c"] = arr.c
                out[key + "/monomials"] = np.array(arr.space.monomials)
    np.savez(path, **out)


def compare(first: str, second: str) -> int:
    a, b = np.load(first), np.load(second)
    failed = 0
    for key in sorted(k[:-2] for k in a.files if k.endswith("/c")):
        if key + "/c" not in b.files:
            print(f"{key} missing from {second}")
            failed += 1
            continue
        slots_a = {tuple(m): i for i, m in enumerate(a[key + "/monomials"].tolist())}
        slots_b = {tuple(m): i for i, m in enumerate(b[key + "/monomials"].tolist())}
        both = [m for m in slots_a if m in slots_b]
        held_a = a[key + "/c"][..., [slots_a[m] for m in both]]
        held_b = b[key + "/c"][..., [slots_b[m] for m in both]]
        equal = held_a.shape == held_b.shape and held_a.tobytes() == held_b.tobytes()
        failed += not equal
        print(f"{key} both={len(both)} first_only={len(slots_a) - len(both)} second_only={len(slots_b) - len(both)} "
              f"{'equal' if equal else 'DIFFERENT'}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
