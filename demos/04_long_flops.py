"""Long sideband flops of a cooled ion under ambient heating.

A slow sideband (350 Hz here, set by pinning sideband_rabi_hz) driven for
tens of milliseconds shows what heating does to coherence: the blue flop
starts near full contrast and washes out as population diffuses across Fock
levels with sqrt(n+1)-spread Rabi frequencies; the red flop starts dark
because a ground-state ion has no quantum to remove.
"""

import numpy as np

from sbcool import ExperimentConfig, simulate_flop
from sbcool.runio import FLOP_HEADER, write_csv

cfg = ExperimentConfig(**{**ExperimentConfig().as_dict(),
                          "sideband_rabi_hz": 350.0})
nbar0 = 0.13
times = np.linspace(0.0, 10e-3, 201)

curves = {}
for sideband in ("blue", "red"):
    result = simulate_flop(cfg.probe(sideband), times, nbar0, heating=cfg.heating())
    curves[sideband] = result.p_f1
    name = f"flop_{sideband}.csv"
    write_csv(name, FLOP_HEADER, [(t, p, 0) for t, p in zip(times, result.p_f1)])
    print(f"wrote {name}")

blue = curves["blue"]
interior = (blue[1:-1] > blue[:-2]) & (blue[1:-1] > blue[2:])
first_max = blue[1:-1][interior][0]
late = times >= 7e-3
contrast = blue[late].max() - blue[late].min()
print(f"blue first maximum:      {first_max:.3f}")
print(f"blue contrast near 10 ms: {contrast:.3f}")
print(f"red transfer at t < 2 ms: {curves['red'][times <= 2e-3].max():.3f}")

# Equivalent CLI run (also writes manifests):
#   sbcool repro fig3 --outdir flops/
