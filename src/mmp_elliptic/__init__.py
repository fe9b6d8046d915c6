"""Exact-arithmetic combinatorial engine for weighted broken elliptic surface
pairs: fiber-model thresholds, weighted-curve stability, wall-and-chamber
structure of the weight cube, and the wall-crossing stable-reduction walk.

The layers, each importing only those below it: `rationals`, `kodaira`,
`curves`, `surfaces`, `walls`, `reduction`, then the writers `modeljson`
and `dot`, and the command line `cli`.  Each name is imported from the
layer that defines it (`from mmp_elliptic.reduction import reduce`);
`import mmp_elliptic` loads no layer.
"""
