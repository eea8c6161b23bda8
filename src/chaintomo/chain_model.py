"""Hamiltonian families and their reduction to effective flux chains.

Three nearest-neighbor models on a 1-D chain of N spins are supported:

    XX:     H = sum_i J_i (X_i X_{i+1} + Y_i Y_{i+1})
    XY:     H = sum_i (JX_i X_i X_{i+1} + JY_i Y_i Y_{i+1})
    Ising:  H = sum_i JZ_i Z_i Z_{i+1} + sum_i B_i X_i   (transverse field)

For each model the Heisenberg-picture operator of a suitable boundary
observable spreads along an effective linear chain of link strengths
c_1..c_m (a "flux chain"), and the measured single-spin expectation value
depends on the Hamiltonian only through those links.  chain_layout
states, per model, which parameter each link reads and which probe,
spin 1's preparation, reads each chain; parameter validation and the
reduction to flux chains both read it.

Physics indexing is 1-based in names (J_1 couples sites 1 and 2); array
storage is 0-based.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import SpecError, _floats, _instance, _integer


class Model(str, Enum):
    XX = "xx"
    XY = "xy"
    ISING_TRANSVERSE = "ising_transverse"


class Observable(str, Enum):
    X1 = "x1"
    Y1 = "y1"
    Z1 = "z1"


class Probe(str, Enum):
    """How spin 1 was prepared, which fixes the whole probe.

    Spin 1 starts in an eigenstate of the boundary observable that is
    then measured, so the preparation alone names the observable and the
    sign in <O_1>(t) = sign * alpha_1(t): +1 for the +1 eigenstate
    (plus_x, plus_y, zero), -1 otherwise.
    """

    PLUS_X = "plus_x"
    MINUS_X = "minus_x"
    PLUS_Y = "plus_y"
    MINUS_Y = "minus_y"
    ZERO = "zero"
    ONE = "one"

    @property
    def observable(self) -> Observable:
        return _EIGENSTATES[self][0]

    @property
    def sign(self) -> int:
        return _EIGENSTATES[self][1]

    def to_dict(self) -> dict:
        """The sidecar block; the file keeps all three fields."""
        return {"observable": self.observable.value, "preparation": self.value,
                "sign": self.sign}

    @classmethod
    def from_dict(cls, d: dict) -> "Probe":
        """Read a sidecar block; SpecError if its three fields disagree."""
        observable, preparation, sign = d["observable"], d["preparation"], d["sign"]
        try:
            observable = Observable(observable)
            probe = cls(preparation)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        sign = _integer(sign, "probe sign", -1)
        if probe.observable is not observable:
            raise SpecError(
                f"preparation {probe.value} is not an eigenstate of {observable.value}"
            )
        if sign != probe.sign:
            raise SpecError(
                f"probe sign {sign} inconsistent with preparation {probe.value}"
            )
        return probe


# preparation -> (observable it is an eigenstate of, its eigenvalue)
_EIGENSTATES = {
    Probe.PLUS_X: (Observable.X1, +1),
    Probe.MINUS_X: (Observable.X1, -1),
    Probe.PLUS_Y: (Observable.Y1, +1),
    Probe.MINUS_Y: (Observable.Y1, -1),
    Probe.ZERO: (Observable.Z1, +1),
    Probe.ONE: (Observable.Z1, -1),
}


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """A Hamiltonian model identifier plus its named parameter arrays.

    couplings maps family name ("J", "JX", "JY", "JZ", "B") to a float
    array.  With ``allow_signed`` unset all parameters must be strictly
    positive (anti-ferromagnetic convention); setting it relaxes the
    constraint to nonzero, for use when the signs are independently known.

    A spec checks itself when built (model and site count via
    chain_layout, families, lengths, finiteness, signs) and raises
    SpecError naming the broken invariant.  couplings is kept as a
    read-only mapping of read-only float copies, so no write undoes the
    checks; the caller's arrays stay writable.  A copy or pickle is rebuilt
    through from_dict.
    """

    model: Model
    n_spins: int
    couplings: Mapping[str, np.ndarray]
    allow_signed: bool = False

    def __post_init__(self):
        if not isinstance(self.allow_signed, bool):
            raise SpecError(f"allow_signed must be true or false, got {self.allow_signed!r}")
        layout = chain_layout(self.model, self.n_spins)
        object.__setattr__(self, "model", Model(self.model))
        object.__setattr__(self, "n_spins", int(self.n_spins))
        if not isinstance(self.couplings, Mapping):
            raise SpecError("couplings must map family names to arrays, got a "
                            f"{type(self.couplings).__name__}")
        lengths = Counter(family for _, labels in layout for family, _ in labels)
        if set(self.couplings) != set(lengths):
            raise SpecError(
                f"model {self.model.value} requires coupling families "
                f"{sorted(lengths)}; got {sorted(self.couplings)}"
            )
        conv = {}
        for fam, want in lengths.items():
            arr = _floats(self.couplings[fam], fam)
            if arr.size != want:
                raise SpecError(
                    f"{fam} must have length {want} for n_spins={self.n_spins}, "
                    f"got {arr.size}"
                )
            if self.allow_signed:
                if 0.0 in arr:
                    raise SpecError(f"{fam} contains a zero coupling (chain disconnects)")
            elif (arr <= 0.0).any():
                raise SpecError(
                    f"{fam} must be strictly positive (set allow_signed to permit signs)"
                )
            conv[fam] = arr
        # the caller's family order is kept, so to_dict writes it back
        object.__setattr__(self, "couplings",
                           MappingProxyType({fam: conv[fam] for fam in self.couplings}))

    def __reduce__(self):
        # a mappingproxy cannot be copied or pickled; the spec's dict can
        return ChainSpec.from_dict, (self.to_dict(),)

    def to_dict(self) -> dict:
        return {
            "model": self.model.value,
            "n_spins": self.n_spins,
            "couplings": {k: [float(x) for x in v] for k, v in self.couplings.items()},
            "allow_signed": self.allow_signed,
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, d: dict) -> "ChainSpec":
        try:
            return cls(d["model"], d["n_spins"], d["couplings"], d.get("allow_signed", False))
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed chain description: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "ChainSpec":
        return cls.from_dict(_read_json(path, "spec file"))


def _read_json(path: str | Path, what: str):
    """The JSON value in a UTF-8 file; a missing or malformed file is a SpecError."""
    p = Path(path)
    if not p.is_file():
        raise SpecError(f"{what} not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpecError(f"{what} {p} is not valid JSON: {exc}") from exc


@dataclass(frozen=True, eq=False)
class FluxChain:
    """Effective linear chain of link strengths probed by one observable.

    links holds c_1..c_m, nonzero and finite, stored as a read-only float
    copy; label_map[k] names the Hamiltonian parameter the k-th link came
    from, as a (family, 1-based index) pair; probe is a Probe.
    """

    links: np.ndarray
    label_map: tuple[tuple[str, int], ...]
    probe: Probe = Probe.PLUS_X

    def __post_init__(self):
        _instance(self.probe, Probe, "FluxChain", "a Probe")
        arr = _floats(self.links, "links")
        object.__setattr__(self, "links", arr)
        if arr.size < 1:
            raise SpecError("flux chain needs at least one link")
        if len(self.label_map) != arr.size:
            raise SpecError(
                f"label_map has {len(self.label_map)} entries for {arr.size} links"
            )
        if 0.0 in arr:
            raise SpecError("flux chain links must be nonzero")

    @property
    def m(self) -> int:
        """Number of links."""
        return int(self.links.size)

    @property
    def labels(self) -> tuple[str, ...]:
        """Display names, e.g. ("J_1", "J_2", ...)."""
        return tuple(parameter_label(fam, idx) for fam, idx in self.label_map)


MAX_SPINS = 1000  # at most 1999 links: spectral_signal's dense eigensolve takes a 32 MB matrix


def chain_layout(model, n_spins: int) -> tuple[tuple[Probe, tuple[tuple[str, int], ...]], ...]:
    """Each flux chain's probe and, in traversal order, its link labels.

    A label is the (family, 1-based index) of the Hamiltonian parameter
    the link reads; across a model's chains every parameter appears
    exactly once, so the labels also fix each family's length.

    XX: the probed X_1 operator spreads through (J_1, ..., J_{N-1});
    probe plus_x.

    XY: two chains.  X_1 commutes with X_1 X_2 but not with Y_1 Y_2, so
    the X1-probed cascade starts on JY and alternates: (JY_1, JX_2,
    JY_3, ...).  The Y1-probed chain is the mirror image (JX_1, JY_2,
    ...).  Together they cover all 2(N-1) parameters exactly once.

    Ising with transverse field: the Z_1 cascade alternates field and
    bond terms, giving (B_1, JZ_1, B_2, JZ_2, ..., B_N) of length 2N-1;
    probe zero.  A refused model or n_spins (an integer from 2 to MAX_SPINS)
    builds nothing; each call builds its layout afresh, tuples all the way down.
    """
    try:
        model = Model(model)
    except ValueError as exc:
        raise SpecError(f"unknown model {model!r}") from exc
    n = _integer(n_spins, "n_spins", 2)
    if n > MAX_SPINS:
        raise SpecError(f"n_spins must be at most {MAX_SPINS}, got {n}")
    if model is Model.XX:
        return ((Probe.PLUS_X, tuple([("J", k) for k in range(1, n)])),)
    if model is Model.XY:
        return ((Probe.PLUS_X, tuple([("JY" if k % 2 else "JX", k) for k in range(1, n)])),
                (Probe.PLUS_Y, tuple([("JX" if k % 2 else "JY", k) for k in range(1, n)])))
    # transverse-field Ising: B_1, JZ_1, B_2, ..., B_N
    return ((Probe.ZERO, tuple([("JZ" if k % 2 else "B", k // 2 + 1) for k in range(2 * n - 1)])),)


def parameter_label(family: str, index: int) -> str:
    """Display name of a parameter, e.g. ("J", 3) -> "J_3"."""
    return f"{family}_{index}"


def flux_chains(spec: ChainSpec) -> list[FluxChain]:
    """Reduce a ChainSpec to its flux chain(s) with probes.

    Each chain's links are the spec's values at the labels chain_layout
    gives, in its traversal order.
    """
    _instance(spec, ChainSpec, "flux_chains", "a ChainSpec")
    return [
        FluxChain([spec.couplings[fam][k - 1] for fam, k in labels], labels, probe)
        for probe, labels in chain_layout(spec.model, spec.n_spins)
    ]
