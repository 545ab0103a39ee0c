"""Content-addressed memoization of solver results.

``repro.cache`` is the persistence counterpart of the run ledger: where
the ledger records *that* a run happened and what quality it reached,
the cache stores the full solution so an identical request never has to
recompute it.  Entries are keyed by the ledger's reproducibility tuple
(netlist hash x config fingerprint x seed) and live in a sharded
on-disk store (``results/cache/<2-hex-shard>/<key>.json``) with atomic
tmp+rename writes and an LRU size cap.

See :mod:`repro.cache.store` for the store and enablement helpers,
:mod:`repro.cache.codec` for the solution (de)serialization and
:mod:`repro.cache.index` for the per-process mapped-netlist index that
cache keys are computed on; the ``repro.api`` verbs consume all three
(``docs/CACHING.md`` documents key derivation and invalidation).
"""

from repro.cache.codec import (
    CODEC_VERSION,
    decode_solution,
    encode_solution,
)
from repro.cache.store import (
    CACHE_ENV_VAR,
    CACHE_SCHEMA_NAME,
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    DEFAULT_MAX_BYTES,
    SolutionCache,
    build_entry,
    cache_key,
    get_cache,
    resolve_cache,
    set_cache,
    use_cache,
    validate_entry,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA_NAME",
    "CACHE_SCHEMA_VERSION",
    "CODEC_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "SolutionCache",
    "build_entry",
    "cache_key",
    "decode_solution",
    "encode_solution",
    "get_cache",
    "resolve_cache",
    "set_cache",
    "use_cache",
    "validate_entry",
]
