"""Fault-injection switch for the self-test harness.

Production code paths read this module-level flag; it exists so the
self-test can verify that a deliberately broken sign of WG's weak
inflow term is actually caught by the invariant checks.  Never enable
outside tests.
"""

from contextlib import contextmanager

# inflow boundary term assembled with +<s.n u, v> instead of -<s.n u, v>
flip_inflow_sign = False


@contextmanager
def inject(name):
    """Temporarily enable one fault flag."""
    g = globals()
    if name not in g or not isinstance(g[name], bool):
        raise ValueError(f"unknown fault hook {name!r}")
    g[name] = True
    try:
        yield
    finally:
        g[name] = False
