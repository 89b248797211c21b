"""
Delta descriptor basics
=======================

A traverse is a T x D matrix: one global image descriptor per observed place.
When the same route is revisited under different appearance conditions, the
descriptors come back displaced by a roughly constant offset, and single-frame
cosine matching suffers. The delta transform replaces each descriptor with the
change measured across a window of frames, and any constant offset cancels.
"""

import numpy as np

from deltadesc import DeltaConfig, DescriptorSeries, cosine_distance, delta, delta_valid_range

rng = np.random.default_rng(0)

# A small traverse: 40 places, 6 descriptor dimensions, slowly varying signal.
steps = rng.normal(size=(40, 6))
signal = np.cumsum(steps, axis=0) / 4.0
traverse = DescriptorSeries(signal)
print(f"traverse: {traverse.frame_count} frames x {traverse.dim} dims")

# The delta descriptor at frame t is the mean of the 'window' frames ahead
# minus the mean of the 'window' frames up to t: a signed vector of change.
# Edge replication keeps all T rows; delta_valid_range gives the half-open
# rows whose window never left the series.
cfg = DeltaConfig(window=4)
changed = delta(traverse, cfg)
valid = delta_valid_range(traverse.frame_count, cfg.window)
print(f"delta series shape: {changed.data.shape}, valid rows (half-open) {valid}")

# A linear ramp of slope s produces delta = s * window in the interior.
ramp = DescriptorSeries(np.arange(40, dtype=float)[:, None])
print("delta of a unit ramp (window 4), interior value:", delta(ramp, cfg).data[10, 0])

# The core property: adding a constant offset vector to every frame, like a
# global appearance change, leaves the delta series untouched.
offset = rng.normal(size=6) * 10.0
shifted = DescriptorSeries(signal + offset)
gap = np.max(np.abs(delta(shifted, cfg).data - changed.data))
print(f"max |delta(x + c) - delta(x)| = {gap:.2e}")

# Raw cosine distances between corresponding frames blow up under the offset,
# delta-space distances do not.
raw_diag = np.mean([cosine_distance(signal[t], signal[t] + offset) for t in range(40)])
delta_diag = np.mean(
    [cosine_distance(changed.data[t], delta(shifted, cfg).data[t]) for t in range(5, 35)]
)
print(f"mean raw self-distance under offset:   {raw_diag:.3f}")
print(f"mean delta self-distance under offset: {delta_diag:.2e}")
