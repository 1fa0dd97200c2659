"""Canonical content-addressed cache keys for deterministic runs.

Every execution in this repository is a pure function of its inputs —
the public-coin seed, the round budget, the node/adversary factories,
the cell parameters.  A cache key is the sha256 of a canonical JSON
rendering of exactly those inputs, so two calls that must produce
bit-identical results hash to the same entry and nothing else does.

Three rules shape the key:

* **Semantic config fields only.**  Of :class:`~repro.sim.config
  .RunConfig`'s fields, only :data:`SEMANTIC_CONFIG_FIELDS` (seed,
  max_rounds, bandwidth_factor, check_connected) can change a result.
  ``workers``/``backend``/``dense_node_limit`` are
  proven bit-identical (golden-fingerprint corpus + differential
  fuzzer), and ``instrument``/``registry``/``cache``/``cache_dir`` are
  observability/plumbing — none of them participate, so a result
  computed on the batch backend answers a reference-backend query.

* **Structural tokens, not pickles.**  :func:`cache_token` renders a
  value as a JSON-ready tree: primitives stay bare, containers get a
  tag, sets are sorted by their members' own encodings, functions and
  classes become ``["fn", module, qualname]``, and objects serialize
  through their ``__getstate__`` (the picklable-factory contract of
  :mod:`repro.sim.factories`) or ``__dict__``.  Pickle bytes are not
  stable across processes; this is.

* **Refuse rather than guess.**  A lambda, a closure, an open file —
  anything without a stable identity raises :class:`UncacheableError`,
  and the caller runs uncached.  A wrong key would serve wrong results;
  no key just serves slowly.

Two more things make up a key (``KEY_VERSION`` 2):

* **Flat frozensets hash once.**  A topology is a frozenset of tens of
  thousands of ``(u, v)`` tuples, and sorting it by each member's JSON
  costs more than the run it names.  A frozenset whose members are all
  of exact type ``None``/``bool``/``int``/``str``, or tuples of those,
  becomes ``["fset", sha256 of its sorted member reprs]`` — ``repr``
  keeps ``1``, ``True`` and ``"1"`` apart.  The digest is memoized by
  object identity (never by equality: ``frozenset({1}) ==
  frozenset({True})``), and each memo entry holds a weak reference that
  is checked on every hit, so a dead set's reused id is never served.
  Mutable sets and frozensets with other members keep the structural
  ``["set", ...]`` token.

* **Code identity.**  :func:`code_digest` hashes the source of the
  packages that decide what a run computes (:data:`CODE_PACKAGES`).
  Editing a protocol or the engine turns every old entry into a miss
  rather than a stale hit.  It is computed once, at the first key,
  never at import.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import types
import weakref
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "KEY_VERSION",
    "SEMANTIC_CONFIG_FIELDS",
    "CODE_PACKAGES",
    "source_digest",
    "code_digest",
    "UncacheableError",
    "cache_token",
    "semantic_config",
    "cache_key",
]

#: Bump when the token grammar or key payload layout changes: old
#: entries then simply never match (a miss, never a wrong answer).
KEY_VERSION = 2

#: The RunConfig fields that can change a run's result.  Everything
#: else — workers, backend, dense_node_limit, instrument, registry,
#: cache, cache_dir — is execution plumbing, proven or defined not to
#: alter outputs.
SEMANTIC_CONFIG_FIELDS: Tuple[str, ...] = (
    "seed", "max_rounds", "bandwidth_factor", "check_connected",
)

#: The ``repro`` packages whose source decides what a run computes.
CODE_PACKAGES: Tuple[str, ...] = ("sim", "protocols", "network", "core", "cc")

#: Recursion ceiling for :func:`cache_token` — far above any real
#: factory graph; a cycle hits it and raises instead of spinning.
_MAX_DEPTH = 64


class UncacheableError(Exception):
    """This value has no stable content identity; run uncached instead."""


def _callable_token(obj: Any) -> list:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname:
        raise UncacheableError(f"no stable module/qualname for {obj!r}")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise UncacheableError(
            f"{module}.{qualname} is a closure or lambda; define it at "
            f"module level to make it cacheable"
        )
    return ["fn", module, qualname]


def _sorted_by_encoding(tokens: list) -> list:
    return sorted(tokens, key=lambda t: json.dumps(t, sort_keys=True))


_FLAT_TYPES = frozenset({type(None), bool, int, str})

#: id(frozenset) -> (weak reference to it, digest); see the module doc.
_FSET_DIGESTS: Dict[int, Tuple["weakref.ref[frozenset]", str]] = {}


def _is_flat(member: Any) -> bool:
    kind = type(member)
    return kind in _FLAT_TYPES or (
        kind is tuple and all(type(x) in _FLAT_TYPES for x in member)
    )


def _forget_fset(key: int, ref: "weakref.ref[frozenset]") -> None:
    entry = _FSET_DIGESTS.get(key)
    if entry is not None and entry[0] is ref:
        _FSET_DIGESTS.pop(key, None)


def _fset_digest(obj: frozenset) -> Optional[str]:
    """sha256 of a flat frozenset's sorted member reprs, memoized by
    identity; None when a member is not flat."""
    key = id(obj)
    entry = _FSET_DIGESTS.get(key)
    if entry is not None and entry[0]() is obj:
        return entry[1]
    if not all(map(_is_flat, obj)):
        return None
    digest = hashlib.sha256("\n".join(sorted(map(repr, obj))).encode()).hexdigest()
    _FSET_DIGESTS[key] = (weakref.ref(obj, functools.partial(_forget_fset, key)), digest)
    return digest


def source_digest(root: pathlib.Path) -> str:
    """sha256 over the ``*.py`` files of :data:`CODE_PACKAGES` under
    ``root`` (path, length and bytes of each, in sorted path order)."""
    h = hashlib.sha256()
    for package in CODE_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            data = path.read_bytes()
            h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """:func:`source_digest` of this installed ``repro``, computed once."""
    return source_digest(pathlib.Path(__file__).resolve().parent.parent)


def cache_token(obj: Any, _depth: int = 0) -> Any:
    """A canonical JSON-ready token for ``obj`` (injective in practice).

    Raises :class:`UncacheableError` for values without a stable
    content identity (lambdas, closures, exotic objects).
    """
    if _depth > _MAX_DEPTH:
        raise UncacheableError("value too deep (or cyclic) to tokenize")
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", obj.hex()]
    if isinstance(obj, (bytes, bytearray)):
        return ["y", bytes(obj).hex()]
    if isinstance(obj, tuple):
        return ["t", [cache_token(x, _depth + 1) for x in obj]]
    if isinstance(obj, list):
        return ["l", [cache_token(x, _depth + 1) for x in obj]]
    if type(obj) is frozenset:
        digest = _fset_digest(obj)
        if digest is not None:
            return ["fset", digest]
    if isinstance(obj, (set, frozenset)):
        return ["set", _sorted_by_encoding([cache_token(x, _depth + 1) for x in obj])]
    if isinstance(obj, dict):
        pairs = [
            [cache_token(k, _depth + 1), cache_token(v, _depth + 1)]
            for k, v in obj.items()
        ]
        return ["map", _sorted_by_encoding(pairs)]
    if isinstance(obj, (type, types.FunctionType, types.BuiltinFunctionType)):
        # functions carry a mutable __dict__, so this branch must come
        # before the structural-state one: identity is module.qualname
        return _callable_token(obj)
    if isinstance(obj, types.MethodType):
        raise UncacheableError(
            f"bound method {obj.__qualname__} has instance identity; "
            f"pass a module-level function or a picklable factory object"
        )
    state = _object_state(obj)
    if state is None:
        raise UncacheableError(
            f"cannot derive a stable cache token for {type(obj).__name__!r} "
            f"(no __getstate__ or __dict__)"
        )
    return ["obj", _callable_token(type(obj)), cache_token(state, _depth + 1)]


def _object_state(obj: Any) -> Optional[Any]:
    """Structural state: class-level ``__getstate__`` (the picklable-
    factory contract of :mod:`repro.sim.factories`), else ``__dict__``.

    The ``__getstate__`` lookup walks the MRO explicitly rather than
    using ``hasattr``, so the Python-3.11 ``object.__getstate__``
    default cannot make tokens differ between interpreter versions.
    """
    cls = type(obj)
    if any("__getstate__" in k.__dict__ for k in cls.__mro__ if k is not object):
        return obj.__getstate__()
    if hasattr(obj, "__dict__"):
        return dict(obj.__dict__)
    return None


def semantic_config(config: Optional[Any]) -> Dict[str, Any]:
    """The result-shaping subset of a config's :meth:`as_dict`.

    ``None`` means the all-defaults :class:`~repro.sim.config
    .RunConfig`; unknown extra keys in a future config are ignored, so
    keys stay stable across config-field additions that do not touch
    the semantic set.
    """
    from ..sim.config import RunConfig

    cfg = config if config is not None else RunConfig()
    data = cfg.as_dict() if hasattr(cfg, "as_dict") else dict(cfg)
    return {k: data.get(k) for k in SEMANTIC_CONFIG_FIELDS}


def cache_key(kind: str, config: Optional[Any], parts: Mapping[str, Any]) -> str:
    """sha256 over (key version, code digest, kind, semantic config,
    cell parts).

    ``kind`` namespaces the entry ("run", "replicate", "cell", "map")
    so payload schemas can never collide; ``parts`` carries the cell
    identity — factories, seeds, parameters — tokenized structurally.
    """
    payload = {
        "key_version": KEY_VERSION,
        "code": code_digest(),
        "kind": kind,
        "config": cache_token(semantic_config(config)),
        "parts": cache_token(dict(parts)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
