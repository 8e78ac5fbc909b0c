"""The benchmark's workloads, by name."""

from . import cones, identities, joins, resolution

WORKLOADS = {m.NAME: m for m in (identities, joins, resolution, cones)}
