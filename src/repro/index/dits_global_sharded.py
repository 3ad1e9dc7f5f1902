"""An alias of :class:`~repro.index.dits_global.DITSGlobalIndex` under its former name."""

from repro.index.dits_global import DITSGlobalIndex

# benchmarks/federation/layers.py traces dits_g.route and dits_g.register
# through this path; a benchmark-only change may retarget it and delete this.
ShardedDITSGlobalIndex = DITSGlobalIndex
