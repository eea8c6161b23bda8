"""Model validation and flux-chain reduction."""

import copy
import json
import pickle
import re

import numpy as np
import pytest

from chaintomo import (
    ChainSpec,
    FluxChain,
    Model,
    Observable,
    Probe,
    SpecError,
    flux_chains,
)

from chaintomo.chain_model import chain_layout

from _bench import BENCH_J, ISING_B, ISING_JZ, ising_spec, xx_spec, xy_spec


def _random_spec(model: str, n: int, rng) -> ChainSpec:
    """A valid spec with the family lengths the README's model table states."""
    sizes = {
        "xx": {"J": n - 1},
        "xy": {"JX": n - 1, "JY": n - 1},
        "ising_transverse": {"JZ": n - 1, "B": n},
    }[model]
    return ChainSpec(Model(model), n, {
        fam: rng.uniform(0.5, 1.5, size) for fam, size in sizes.items()
    })


_MODELS_AND_SIZES = [
    pytest.param(model, n, id=f"{model}-n{n}")
    for model in ("xx", "xy", "ising_transverse") for n in range(2, 13)
]


def _probe_dict(observable, preparation, sign):
    return {"observable": observable, "preparation": preparation, "sign": sign}


# sidecar probe blocks whose fields contradict each other or name nothing,
# with the words of Probe.from_dict's refusal
CONTRADICTORY_PROBES = {
    "unknown_observable": (_probe_dict("q", "plus_x", 1), "'q' is not a valid Observable"),
    "unknown_preparation": (_probe_dict("x1", "plus_q", 1), "'plus_q' is not a valid Probe"),
    "not_an_eigenstate": (_probe_dict("x1", "plus_y", 1),
                          "preparation plus_y is not an eigenstate of x1"),
    "not_an_eigenstate_z1": (_probe_dict("z1", "plus_x", 1),
                             "preparation plus_x is not an eigenstate of z1"),
    "disagreeing_sign": (_probe_dict("x1", "plus_x", -1),
                         "probe sign -1 inconsistent with preparation plus_x"),
    "disagreeing_sign_z1": (_probe_dict("z1", "one", 1),
                            "probe sign 1 inconsistent with preparation one"),
}

# probe signs that would read as +-1 if cast, so are refused
NON_INTEGER_SIGNS = {"bool": True, "fraction": 1.9, "float": 1.0, "str": "1"}


class TestProbe:
    """A probe is spin 1's preparation; from_dict is where one arrives
    from outside, with its observable and sign stated beside it."""

    def test_valid_combinations(self):
        for probe, observable, sign in [
            (Probe.PLUS_X, Observable.X1, +1), (Probe.MINUS_X, Observable.X1, -1),
            (Probe.PLUS_Y, Observable.Y1, +1), (Probe.MINUS_Y, Observable.Y1, -1),
            (Probe.ZERO, Observable.Z1, +1), (Probe.ONE, Observable.Z1, -1),
        ]:
            assert (probe.observable, probe.sign) == (observable, sign)
            assert Probe.from_dict(_probe_dict(observable.value, probe.value, sign)) is probe
        assert len(Probe) == 6

    @pytest.mark.parametrize("probe, words", CONTRADICTORY_PROBES.values(),
                             ids=list(CONTRADICTORY_PROBES))
    def test_contradictory_fields_are_a_spec_error(self, probe, words):
        with pytest.raises(SpecError, match=f"^{re.escape(words)}$"):
            Probe.from_dict(probe)

    def test_fields_are_stored_as_enums(self):
        probe = Probe.from_dict(_probe_dict("x1", "plus_x", np.int64(1)))
        assert probe is Probe.PLUS_X
        assert probe.observable is Observable.X1
        assert type(probe.sign) is int

    @pytest.mark.parametrize("sign", NON_INTEGER_SIGNS.values(), ids=list(NON_INTEGER_SIGNS))
    def test_sign_must_be_an_integer(self, sign):
        words = f"probe sign must be an integer, got {sign!r}"
        with pytest.raises(SpecError, match=f"^{re.escape(words)}$"):
            Probe.from_dict(_probe_dict("x1", "plus_x", sign))

    def test_dict_round_trip(self):
        d = Probe.MINUS_Y.to_dict()
        # the sidecar block keeps its three keys in their order
        assert list(d.items()) == [("observable", "y1"), ("preparation", "minus_y"),
                                   ("sign", -1)]
        assert Probe.from_dict(d) is Probe.MINUS_Y


class TestValidateSpec:
    """A ChainSpec checks its invariants when built."""

    def test_accepts_benchmark(self):
        spec = xx_spec(BENCH_J)
        np.testing.assert_array_equal(spec.couplings["J"], BENCH_J)

    def test_rejects_single_spin(self):
        with pytest.raises(SpecError, match="n_spins"):
            ChainSpec(Model.XX, 1, {"J": np.array([])})

    def test_rejects_wrong_families(self):
        with pytest.raises(SpecError, match="requires coupling families"):
            ChainSpec(Model.XX, 3, {"JX": np.array([1.0, 1.0])})

    def test_rejects_extra_family(self):
        with pytest.raises(SpecError, match=r"requires coupling families \['J'\]; got \['B', 'J'\]"):
            ChainSpec(Model.XX, 3, {"J": np.array([1.0, 1.0]), "B": np.array([1.0])})

    def test_rejects_wrong_length(self):
        with pytest.raises(SpecError, match="J must have length 4 for n_spins=5, got 3"):
            ChainSpec(Model.XX, 5, {"J": np.array([1.0, 1.0, 1.0])})

    def test_rejects_nonfinite(self):
        with pytest.raises(SpecError, match="finite"):
            xx_spec([1.0, np.nan])

    def test_rejects_nonpositive_by_default(self):
        with pytest.raises(SpecError, match=re.escape(
                "J must be strictly positive (set allow_signed to permit signs)")):
            xx_spec([1.0, -0.5])
        with pytest.raises(SpecError, match="positive"):
            xx_spec([1.0, 0.0])

    def test_allow_signed_permits_negative_not_zero(self):
        xx_spec([1.0, -0.5], allow_signed=True)
        with pytest.raises(SpecError, match="zero"):
            xx_spec([1.0, 0.0], allow_signed=True)

    def test_ising_field_length_is_site_count(self):
        ising_spec(JZ=[1.0, 1.0, 1.0], B=[1.0, 1.0, 1.0, 1.0])
        with pytest.raises(SpecError, match="JZ must have length 2 for n_spins=3, got 3"):
            ising_spec(JZ=[1.0, 1.0, 1.0], B=[1.0, 1.0, 1.0])

    def test_couplings_are_read_only(self):
        # a write after construction would undo the checks: a negative J_2 on
        # an unsigned spec once ran with no note, and a popped family ended
        # the run in an untyped KeyError
        spec = xx_spec([1.0, 0.8])
        with pytest.raises(ValueError):
            spec.couplings["J"][0] = 0.0
        with pytest.raises(TypeError):
            spec.couplings["J"] = np.array([1.0, -0.8])
        with pytest.raises(AttributeError):
            spec.couplings.pop("J")
        np.testing.assert_array_equal(spec.couplings["J"], [1.0, 0.8])

    def test_a_copy_or_pickle_is_the_same_spec(self):
        # a read-only mapping cannot be copied field by field; the family
        # order and allow_signed survive the rebuild
        spec = ChainSpec(Model.XY, 3, {"JY": [0.9, 1.2], "JX": [1.0, -0.8]}, allow_signed=True)
        for again in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert again is not spec
            assert again.to_dict() == spec.to_dict()
            assert not again.couplings["JX"].flags.writeable

    def test_one_number_is_one_value(self):
        # a 2-spin chain has one link; its bare number once read as "length 1, got 1"
        spec = ChainSpec(Model.XX, 2, {"J": 1.0})
        assert spec.to_dict() == ChainSpec(Model.XX, 2, {"J": [1.0]}).to_dict()

    def test_the_callers_array_is_copied_not_frozen(self):
        spec = xx_spec(BENCH_J)
        assert BENCH_J.flags.writeable
        assert spec.couplings["J"] is not BENCH_J

    def test_stores_python_types(self):
        spec = ChainSpec("xx", np.int64(3), {"J": [1, 2]})
        assert spec.model is Model.XX
        assert type(spec.n_spins) is int
        assert spec.couplings["J"].dtype == float
        assert json.loads(json.dumps(spec.to_dict()))["n_spins"] == 3

    @pytest.mark.parametrize("model, couplings, match", [
        pytest.param(Model.XX, {"J": ["a", 1.0]}, "J must hold numbers", id="string_value"),
        # numpy would promote it to 1.0; the refusal names the element, not its cast
        pytest.param(Model.XX, {"J": [1.0, True]}, "^J must hold numbers, got True$",
                     id="bool_among_numbers"),
        pytest.param(Model.XX, {"J": [2.0, 1j]}, "^J must hold numbers, got 1j$",
                     id="complex_among_numbers"),
        pytest.param(Model.XX, [1.0, 0.8], "couplings must map", id="list_couplings"),
        pytest.param("q", {"J": [1.0, 0.8]}, "unknown model", id="unknown_model"),
    ])
    def test_malformed_fields_are_spec_errors(self, model, couplings, match):
        with pytest.raises(SpecError, match=match) as exc_info:
            ChainSpec(model, 3, couplings)
        assert exc_info.value.stage is None

    @pytest.mark.parametrize("allow_signed", ["false", 1, None],
                             ids=["string", "int", "null"])
    def test_allow_signed_must_be_a_bool(self, allow_signed):
        # bool("false") is True: J_2 = -0.8 used to pass as signed
        words = f"allow_signed must be true or false, got {allow_signed!r}"
        with pytest.raises(SpecError, match=f"^{re.escape(words)}$"):
            ChainSpec.from_dict({"model": "xx", "n_spins": 3,
                                 "couplings": {"J": [1.0, -0.8]},
                                 "allow_signed": allow_signed})


class TestFluxChains:
    def test_xx_single_chain(self):
        (fc,) = flux_chains(xx_spec(BENCH_J))
        assert fc.m == 7
        np.testing.assert_array_equal(fc.links, BENCH_J)
        assert fc.labels == ("J_1", "J_2", "J_3", "J_4", "J_5", "J_6", "J_7")
        assert fc.probe is Probe.PLUS_X
        assert fc.probe.observable is Observable.X1
        assert fc.probe.sign == +1

    def test_xy_two_alternating_chains(self):
        JX = [1.1, 0.7, 1.3, 0.9]
        JY = [0.9, 1.2, 0.6, 1.4]
        cx, cy = flux_chains(xy_spec(JX, JY))
        # X1 cascade enters through the YY bond, then alternates
        assert cx.probe.observable is Observable.X1
        assert cx.labels == ("JY_1", "JX_2", "JY_3", "JX_4")
        np.testing.assert_array_equal(cx.links, [0.9, 0.7, 0.6, 0.9])
        # Y1 cascade is the mirror image
        assert cy.probe.observable is Observable.Y1
        assert cy.labels == ("JX_1", "JY_2", "JX_3", "JY_4")
        np.testing.assert_array_equal(cy.links, [1.1, 1.2, 1.3, 1.4])

    def test_xy_chains_cover_all_parameters_once(self):
        spec = xy_spec([1.0] * 6, [2.0] * 6)
        names = [label for fc in flux_chains(spec) for label in fc.labels]
        assert len(names) == 12
        assert len(set(names)) == 12
        assert set(names) == {f"JX_{i}" for i in range(1, 7)} | {
            f"JY_{i}" for i in range(1, 7)
        }

    def test_ising_interleaves_fields_and_bonds(self):
        (fc,) = flux_chains(ising_spec(ISING_JZ, ISING_B))
        assert fc.m == 7
        np.testing.assert_array_equal(fc.links, BENCH_J)
        assert fc.labels == ("B_1", "JZ_1", "B_2", "JZ_2", "B_3", "JZ_3", "B_4")
        assert fc.probe.observable is Observable.Z1
        assert fc.probe is Probe.ZERO

    def test_flux_chain_rejects_zero_link(self):
        with pytest.raises(SpecError, match="nonzero"):
            FluxChain(np.array([1.0, 0.0]), (("J", 1), ("J", 2)))

    def test_flux_chain_rejects_label_mismatch(self):
        with pytest.raises(SpecError, match="label_map has 1 entries for 2 links"):
            FluxChain(np.array([1.0, 2.0]), (("J", 1),))


class TestChainLayout:
    @pytest.mark.parametrize("model, n", _MODELS_AND_SIZES)
    def test_labels_cover_every_parameter_once(self, model, n):
        spec = _random_spec(model, n, np.random.default_rng(n))
        labels = [label for _, chain in chain_layout(model, n) for label in chain]
        assert len(labels) == len(set(labels))
        assert set(labels) == {
            (fam, k) for fam, arr in spec.couplings.items()
            for k in range(1, arr.size + 1)
        }

    @pytest.mark.parametrize("model, n", _MODELS_AND_SIZES)
    def test_flux_chain_links_follow_labels(self, model, n):
        spec = _random_spec(model, n, np.random.default_rng(100 + n))
        chains = flux_chains(spec)
        layout = chain_layout(model, n)
        assert [fc.probe for fc in chains] == [probe for probe, _ in layout]
        for fc, (_, labels) in zip(chains, layout):
            assert fc.label_map == labels
            for link, (fam, k) in zip(fc.links, labels):
                assert link == spec.couplings[fam][k - 1]

    def test_refuses_unknown_model(self):
        with pytest.raises(SpecError, match="unknown model"):
            chain_layout("heisenberg", 3)

    def test_refuses_single_spin(self):
        with pytest.raises(SpecError, match="n_spins"):
            chain_layout(Model.XX, 1)

    @pytest.mark.parametrize("n_spins", [3.0, True, "3"], ids=["float", "bool", "str"])
    def test_refuses_a_non_integer_count(self, n_spins):
        with pytest.raises(SpecError, match="n_spins must be an integer"):
            chain_layout(Model.XX, n_spins)

    def test_accepts_a_numpy_integer_count(self):
        assert chain_layout(Model.XX, np.int64(3)) == chain_layout(Model.XX, 3)

    def test_a_built_layout_keeps_every_refusal(self):
        # the layout of (XX, 3) is built and kept; 3.0 == 3 and hashes
        # alike, so a cache consulted before the checks would hand it out
        layout = chain_layout(Model.XX, 3)
        for n_spins in (3.0, True, "3"):
            with pytest.raises(SpecError, match="n_spins must be an integer"):
                chain_layout(Model.XX, n_spins)
        assert chain_layout(Model.XX, np.int64(3)) is layout

    @pytest.mark.parametrize("model, n", _MODELS_AND_SIZES)
    def test_layout_is_tuples_all_the_way_down(self, model, n):
        def frozen(node):
            if isinstance(node, (str, int)):  # a Probe is a str
                return True
            return isinstance(node, tuple) and all(map(frozen, node))

        layout = chain_layout(model, n)
        assert frozen(layout)
        assert chain_layout(model, n) is layout


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        spec = xy_spec([1.1, 0.7], [0.9, 1.2])
        path = tmp_path / "spec.json"
        spec.to_json(path)
        again = ChainSpec.from_json(path)
        assert again.model is Model.XY
        assert again.n_spins == 3
        np.testing.assert_array_equal(again.couplings["JX"], [1.1, 0.7])
        np.testing.assert_array_equal(again.couplings["JY"], [0.9, 1.2])
        assert again.allow_signed is False

    def test_allow_signed_survives_round_trip(self):
        spec = xx_spec([1.0, -0.5], allow_signed=True)
        again = ChainSpec.from_dict(spec.to_dict())
        assert again.allow_signed is True

    def test_from_json_missing_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(SpecError, match=re.escape(f"spec file not found: {path}")):
            ChainSpec.from_json(path)

    def test_from_json_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="JSON"):
            ChainSpec.from_json(path)

    def test_from_json_not_utf8_names_the_file(self, tmp_path):
        # JSON text is UTF-8, so a byte that does not decode is bad input
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        with pytest.raises(SpecError, match=re.escape(f"spec file {path} is not valid JSON")):
            ChainSpec.from_json(path)

    def test_from_dict_rejects_unknown_model(self):
        with pytest.raises(SpecError):
            ChainSpec.from_dict(
                {"model": "heisenberg", "n_spins": 3, "couplings": {"J": [1, 1]}}
            )

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(SpecError, match="malformed"):
            ChainSpec.from_dict({"model": "xx"})

    def test_coupling_accessor_is_one_based(self):
        spec = xx_spec(BENCH_J)
        assert spec.coupling("J", 1) == 1.40
        assert spec.coupling("J", 7) == 0.66

    @pytest.mark.parametrize("family, index", [
        ("J", 0), ("J", -1), ("J", 4), ("K", 1), ("J", 1.0), ("J", True),
    ], ids=["zero", "negative", "past-the-end", "unknown-family", "float", "bool"])
    def test_coupling_outside_the_spec_is_a_spec_error(self, family, index):
        # bare indexing would read 0 and -1 from the end and raise IndexError or KeyError
        spec = xx_spec([1.0, 0.9, 1.1])
        with pytest.raises(SpecError, match=re.escape(f"no parameter {family!r} index {index!r}")):
            spec.coupling(family, index)
        assert spec.coupling("J", np.int64(3)) == 1.1
