"""Property tests for the content-addressed cache keys (PR 10).

The key contract: a key is a pure function of the *semantic* run
identity — the :data:`SEMANTIC_CONFIG_FIELDS` subset of ``RunConfig``
plus the tokenized cell parts — and of nothing else.  Hypothesis pins
the three halves of that contract: stability (``as_dict``/``from_dict``
round-trips and dict insertion order do not move the key), sensitivity
(every semantic field flip moves it), and blindness (every execution
knob — backend, workers, instrumentation, the cache settings
themselves — leaves it alone, which is what lets reference and batch
runs share entries).  Flat frozensets (topologies) get a one-digest
``fset`` token memoized by object identity, and every key carries the
digest of the simulator's source.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import weakref

import numpy as np
import pytest

import repro
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import key as key_module
from repro.cache.key import (
    CODE_PACKAGES,
    SEMANTIC_CONFIG_FIELDS,
    UncacheableError,
    cache_key,
    cache_token,
    code_digest,
    semantic_config,
    source_digest,
)
from repro.sim.config import RunConfig


def semantic_configs():
    """Strategy: RunConfigs varying only in the semantic fields."""
    return st.builds(
        RunConfig,
        seed=st.one_of(st.none(), st.integers(0, 10_000)),
        max_rounds=st.one_of(st.none(), st.integers(1, 100_000)),
        bandwidth_factor=st.integers(1, 128),
        check_connected=st.booleans(),
    )


def _module_fn(x):
    """A module-level function: tokenizable by qualified name."""
    return x


class TestKeyStability:
    @given(cfg=semantic_configs())
    @settings(max_examples=40)
    def test_as_dict_round_trip_preserves_key(self, cfg):
        round_tripped = RunConfig.from_dict(cfg.as_dict())
        assert cache_key("run", cfg, {"p": 1}) == cache_key(
            "run", round_tripped, {"p": 1}
        )

    @given(
        cfg=semantic_configs(),
        pairs=st.lists(
            st.tuples(st.text(min_size=1, max_size=8), st.integers(-100, 100)),
            min_size=2,
            max_size=6,
            unique_by=lambda kv: kv[0],
        ),
    )
    @settings(max_examples=40)
    def test_dict_insertion_order_is_irrelevant(self, cfg, pairs):
        forward = dict(pairs)
        backward = dict(reversed(pairs))
        assert cache_key("cell", cfg, forward) == cache_key("cell", cfg, backward)

    def test_none_config_means_default_config(self):
        assert semantic_config(None) == semantic_config(RunConfig())
        assert cache_key("run", None, {}) == cache_key("run", RunConfig(), {})


class TestKeySensitivity:
    @given(cfg=semantic_configs())
    @settings(max_examples=40)
    def test_every_semantic_field_flip_moves_the_key(self, cfg):
        base = cache_key("run", cfg, {"p": 1})
        flips = {
            "seed": (cfg.seed or 0) + 1,
            "max_rounds": (cfg.max_rounds or 0) + 1,
            "bandwidth_factor": cfg.bandwidth_factor + 1,
            "check_connected": not cfg.check_connected,
        }
        assert set(flips) == set(SEMANTIC_CONFIG_FIELDS)
        for field, new_value in flips.items():
            assert cache_key("run", cfg.evolve(**{field: new_value}), {"p": 1}) != base

    def test_kind_namespaces_the_key(self):
        assert cache_key("run", None, {"p": 1}) != cache_key("cell", None, {"p": 1})

    def test_parts_move_the_key(self):
        assert cache_key("cell", None, {"p": 1}) != cache_key("cell", None, {"p": 2})


class TestKeyBlindness:
    @given(
        cfg=semantic_configs(),
        backend=st.sampled_from([None, "reference", "batch"]),
        workers=st.one_of(st.none(), st.integers(0, 8)),
        instrument=st.booleans(),
        cache=st.sampled_from([None, "rw", "ro", "off"]),
    )
    @settings(max_examples=40)
    def test_execution_knobs_never_move_the_key(
        self, cfg, backend, workers, instrument, cache
    ):
        base = cache_key("run", cfg, {"p": 1})
        knobbed = cfg.evolve(
            backend=backend,
            workers=workers,
            instrument=instrument,
            cache=cache,
            cache_dir="/tmp/somewhere-else",
        )
        assert cache_key("run", knobbed, {"p": 1}) == base


class TestCacheToken:
    def test_tuple_and_list_are_distinct(self):
        assert cache_token((1, 2)) != cache_token([1, 2])

    def test_set_tokens_are_order_free(self):
        assert cache_token({3, 1, 2}) == cache_token({2, 3, 1})

    def test_float_tokens_are_bit_exact(self):
        assert cache_token(0.1) != cache_token(0.1 + 1e-17 + 1e-16)
        assert cache_token(1.0) != cache_token(1)

    def test_named_functions_token_by_qualified_name(self):
        token = cache_token(_module_fn)
        assert token[0] == "fn"
        assert token[2].endswith("_module_fn")

    def test_lambdas_are_uncacheable(self):
        with pytest.raises(UncacheableError):
            cache_token(lambda x: x)

    def test_bound_methods_are_uncacheable(self):
        with pytest.raises(UncacheableError):
            cache_token("abc".upper)

    def test_stateless_opaque_objects_are_uncacheable(self):
        class Opaque:
            __slots__ = ()

        with pytest.raises(UncacheableError):
            cache_token(Opaque())


def _repr_digest(members) -> str:
    return hashlib.sha256("\n".join(sorted(map(repr, members))).encode()).hexdigest()


class TestFlatFrozensetToken:
    def test_flat_frozenset_token_is_the_digest_of_its_member_reprs(self):
        edges = frozenset({(0, 1), (1, 2), (2, 3)})
        assert cache_token(edges) == ["fset", _repr_digest(edges)]
        assert cache_token(frozenset()) == ["fset", _repr_digest(())]

    def test_equal_sets_of_different_member_types_get_distinct_tokens(self):
        # all three sets are equal, and all three are alive together
        one, true, one_float = frozenset({1}), frozenset({True}), frozenset({1.0})
        assert one == true == one_float
        tokens = [cache_token(one), cache_token(true), cache_token(one_float)]
        assert tokens[0][0] == tokens[1][0] == "fset"
        assert tokens[2][0] == "set"  # float members: structural path
        assert len({repr(t) for t in tokens}) == 3
        # the identity memo answers each again with its own token
        assert [cache_token(one), cache_token(true), cache_token(one_float)] == tokens

    def test_str_and_int_members_stay_apart(self):
        assert cache_token(frozenset({"1"})) != cache_token(frozenset({1}))
        assert cache_token(frozenset({("a", 1)})) != cache_token(frozenset({("a", "1")}))

    def test_memo_entry_is_dropped_when_its_set_dies(self):
        edges = frozenset({(0, 1), (1, 2)})
        cache_token(edges)
        dead_id = id(edges)
        assert dead_id in key_module._FSET_DIGESTS
        del edges
        gc.collect()
        assert dead_id not in key_module._FSET_DIGESTS

    def test_memo_entry_is_not_served_after_its_set_dies_and_the_id_is_reused(
        self, monkeypatch
    ):
        gone = frozenset({(7, 8)})
        dead = weakref.ref(gone)
        del gone
        assert dead() is None
        reused = frozenset({(0, 1)})
        # an entry under this id whose set died (as if the id was reused
        # before its callback ran) must be recomputed, not served
        monkeypatch.setitem(key_module._FSET_DIGESTS, id(reused), (dead, "0" * 64))
        assert cache_token(reused) == ["fset", _repr_digest(reused)]

    def test_natural_id_reuse_never_serves_a_dead_sets_digest(self):
        first = frozenset({(0, 1)})
        stale = cache_token(first)
        dead_id = id(first)
        del first
        for i in range(2, 200):
            other = frozenset({(0, i)})
            token = cache_token(other)
            assert token == ["fset", _repr_digest(other)] != stale
            if id(other) == dead_id:
                break

    def test_mutable_sets_are_never_memoized(self):
        members = {1, 2}
        before = dict(key_module._FSET_DIGESTS)
        token = cache_token(members)
        assert token[0] == "set"
        assert key_module._FSET_DIGESTS == before
        members.add(3)
        assert cache_token(members) != token

    def test_numpy_int_members_fall_back_to_the_structural_path(self):
        for members in (frozenset({np.int64(1)}), frozenset({(np.int64(1), 2)})):
            # structural tokenization refuses numpy scalars, as it did
            # before the fset token existed; repr would have let
            # np.int64(1) collide with 1 under numpy 1.x
            with pytest.raises(UncacheableError):
                cache_token(members)
            assert id(members) not in key_module._FSET_DIGESTS

    def test_frozenset_subclasses_take_the_structural_path(self):
        class Tagged(frozenset):
            pass

        assert cache_token(Tagged({1, 2}))[0] == "set"


class TestCodeIdentity:
    def test_every_key_carries_the_code_digest(self, monkeypatch):
        base = cache_key("run", None, {"p": 1})
        monkeypatch.setattr(key_module, "code_digest", lambda: "edited")
        assert cache_key("run", None, {"p": 1}) != base

    def test_editing_a_protocol_changes_the_source_digest(self, tmp_path):
        src = pathlib.Path(repro.__file__).parent
        for package in CODE_PACKAGES:
            shutil.copytree(src / package, tmp_path / package)
        assert source_digest(tmp_path) == code_digest()
        flooding = tmp_path / "protocols" / "flooding.py"
        flooding.write_text(flooding.read_text() + "\n# edited\n")
        assert source_digest(tmp_path) != code_digest()

    def test_code_digest_is_not_computed_at_import(self):
        probe = (
            "import repro, repro.cache, repro.sim;"
            "from repro.cache.key import code_digest;"
            "print(code_digest.cache_info().currsize)"
        )
        src_root = str(pathlib.Path(repro.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": src_root},
        )
        assert out.stdout.strip() == "0"
