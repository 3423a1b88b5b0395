"""Reference samplers for the tests, written apart from the library
kernels they judge."""

import numpy as np


def bilinear(channel, u, v):
    """Sample a 2-D map at fractional cell coordinates (u=x, v=y),
    clamped to the map; the dense line-integral oracle's sampler."""
    h, w = channel.shape
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu, fv = u - u0, v - v0
    return ((channel[v0, u0] * (1 - fu) + channel[v0, u1] * fu) * (1 - fv)
            + (channel[v1, u0] * (1 - fu) + channel[v1, u1] * fu) * fv)
