"""Frequency scales and the pitch-adaptive weight.

Walks through the coordinate systems the estimator lives on: the ERB-number
scale that spaces auditory filterbank channels, the mel scale, and plain
log-frequency.  Then shows how the spectral weight tapers low channels as a
function of pitch and of the taper-knee parameter.

Run:  python demos/01_frequency_scales_and_weights.py
"""
import numpy as np

import vtlest as v

print("=== scale conversions ===")
for f in (100.0, 500.0, 1000.0, 2000.0, 8000.0):
    print(
        f"  {f:7.0f} Hz -> {v.hz_to_erbn(f):6.2f} ERB-number"
        f" | {v.hz_to_mel(f):7.1f} mel"
        f" | bandwidth {v.erb_bandwidth(f):6.1f} Hz"
    )

print("\n=== the canonical 100-channel analysis grid (ERB-linear, 100-8000 Hz) ===")
axis = v.make_axis("erb", 100, 100.0, 8000.0)
print(f"  channel spacing: {axis.step:.4f} ERB")
for c in (0, 25, 50, 75, 99):
    print(f"  channel {c:2d} centered at {axis.center_freq(c):7.1f} Hz")

print("\n=== a channel shift on this grid is a frequency ratio ===")
for shift in (2.0, 4.0, 6.0):
    ratio = v.channel_shift_to_ratio(axis, shift, 2000.0)
    print(f"  shift of {shift:.0f} channels at 2 kHz -> frequency ratio {ratio:.3f}")

print("\n=== pitch-adaptive weight: w(f) = min(f / (h_max * F0), 1) ===")
print("  Resolved harmonics of the voice pitch produce spectral peaks that")
print("  have nothing to do with the vocal tract; the weight tapers exactly")
print("  the region where they live (below h_max harmonics of F0).\n")
for f0 in (101.0, 182.0):
    w = v.ssi_weight(axis, h_max=3.5, f0=f0)
    knee = 3.5 * f0
    saturated = int(np.argmax(w >= 1.0))
    print(
        f"  F0 = {f0:5.1f} Hz: knee at {knee:6.1f} Hz,"
        f" weight reaches 1.0 from channel {saturated}"
        f" ({axis.center_freq(saturated):.0f} Hz)"
    )

print("\n  An unvoiced (F0 = 0) frame keeps every channel:")
w = v.ssi_weight(axis, h_max=3.5, f0=v.UNVOICED)
print(f"  all weights equal 1.0: {bool((w == 1.0).all())}")
