"""Classifier-gated mixtures of empirical measures, with their rates.

A model maps an input x in R^d to a probability measure by feeding x
through a dense classifier, softmax-ing the logits, and mixing a fixed
family of atom measures with those weights.  Every prediction therefore
lies in the convex hull of the atom measures by construction.  The paper's
feature map phi is the identity on R^d: the model file records it as
{"kind": "identity", "input_dim": d} and refuses any other record.

Also here: closed-form atom-count calculators for Hoelder-regular targets,
a Lambert-W evaluator backing the 1-D quantizer count, and the model's JSON
format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from urcd.measures import (
    AtomPool,
    EmpiricalMeasure,
    atom_pool,
    make_empirical,
    mix_pool,
)
from urcd.neural import (
    Mlp,
    check_finite,
    mlp_forward,
    mlp_from_dict,
    mlp_to_dict,
    n_params,
    softmax,
)

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class DnmModel:
    """Classifier + atom measures.

    The classifier reads an input x in R^d directly; its output dimension
    must equal the number of atom measures, and the atom measures must
    share one ambient dimension.
    """

    classifier: Mlp
    atoms: tuple

    def __post_init__(self):
        if self.classifier.layer_dims[-1] != len(self.atoms):
            raise ValueError("classifier output dimension must match the atom count")
        if len({m.dim for m in self.atoms}) != 1:
            raise ValueError("atom measures must share an ambient dimension")

    @property
    def output_dim(self) -> int:
        return self.atoms[0].dim

    def parameter_count(self) -> int:
        return n_params(self.classifier)

    @cached_property
    def pool(self) -> AtomPool:
        """The atom measures pooled for ``mix_pool``: built on the first
        prediction and kept with the model."""
        return atom_pool(self.atoms)


@dataclass(frozen=True)
class RateParams:
    """Hoelder moduli for the target map and the feature map.

    The target's modulus is A t^alpha and the feature map's is B t^beta,
    with 0 < alpha, beta <= 1; `diam` is the diameter of the input region
    and `d` its embedding dimension.
    """

    A: float
    alpha: float
    B: float
    beta: float
    diam: float
    d: int

    def __post_init__(self):
        check_finite(self)
        if self.A <= 0 or self.B <= 0:
            raise ValueError("Hoelder constants must be positive")
        if not (0 < self.alpha <= 1 and 0 < self.beta <= 1):
            raise ValueError("Hoelder exponents must lie in (0, 1]")
        if self.diam < 0:
            raise ValueError("diam must be non-negative")
        if self.d < 1:
            raise ValueError("d must be a positive integer")


def predict_weights(model: DnmModel, x) -> np.ndarray:
    """The simplex weights the model assigns to its atom measures at x."""
    return softmax(mlp_forward(model.classifier, x))


def dnm_predict(model: DnmModel, x) -> EmpiricalMeasure:
    """Softmax-weighted mixture of the atom measures at input x.

    The same ``mixture`` arithmetic, over the model's cached atom pool."""
    return mix_pool(predict_weights(model, x), model.pool)


def n_epsilon_raw(p: RateParams, eps: float) -> float:
    """Pre-ceiling atom-count bound, strictly monotone in its arguments."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, not {eps}")
    if p.diam == 0:     # a point needs one atom, also where inv_phi underflows to 0
        return 0.0
    omega_phi_diam = p.B * p.diam ** p.beta
    inv_f = (eps / 4.0 / p.A) ** (1.0 / p.alpha)
    inv_phi = (inv_f / p.B) ** (1.0 / p.beta)
    base = p.d * 2.0 ** 2.5 * omega_phi_diam / (math.sqrt(p.d + 1.0) * inv_phi)
    return base ** p.d


def n_epsilon(p: RateParams, eps: float) -> int:
    """Number of atom measures sufficient for accuracy eps.

    Evaluates ceil((d * 2^{5/2} * w_phi(diam) / (sqrt(d+1) *
    w_phi^{-1}(w_f^{-1}(eps/4))))^d) with the Hoelder moduli of `p`, whose
    generalized inverses are closed-form: w^{-1}(s) = (s/A)^{1/alpha}.

    The count is meaningful when eps is small relative to the target
    map's total oscillation (at most 4, and at most four times what the
    moduli can ever produce); that condition involves the unknown target
    and is the caller's responsibility -- only a finite eps > 0 is enforced.
    """
    return max(1, _ceil_count("N(eps)", n_epsilon_raw, p, eps))


def lambert_w(branch: str, x: float) -> float:
    """Solve w * exp(w) = x on a real branch, by ``scipy.special.lambertw``.

    branch "principal" needs x >= -1/e; branch "minus_one" needs
    -1/e <= x < 0 and returns the solution with w <= -1.  Both meet at
    w = -1 for x = -1/e, where scipy returns nan, so that point is exact.
    Close to it scipy's minus_one iteration stops early (at x = -1/e + 1e-10
    it is off by 2e-5), so there both branches take the series in
    p = +-sqrt(2(e x + 1)) about the branch point.
    """
    if branch not in ("principal", "minus_one"):
        raise ValueError(f"unknown branch {branch!r}")
    x = float(x)
    if x < -_INV_E - 1e-15:
        raise ValueError("argument below -1/e is outside the real domain")
    if branch == "minus_one" and x >= 0:
        raise ValueError("minus_one branch requires a negative argument")
    if abs(x + _INV_E) < 1e-15:
        return -1.0
    p = math.sqrt(2.0 * (math.e * x + 1.0))
    if p < 1e-3:
        p = p if branch == "principal" else -p
        return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0
                                                          - p * 43.0 / 540.0)))
    # imported here: importing scipy.special from dnm, ahead of harness,
    # made `import urcd.cli` ~10 ms slower
    from scipy.special import lambertw

    return float(lambertw(x, 0 if branch == "principal" else -1).real)


def n_quantizer_raw(eps: float, D: int, M: float) -> float:
    """Pre-ceiling quantizer atom count for measures supported in a radius-M ball."""
    if not (0 < eps < math.inf and 0 < M < math.inf) or D < 1:
        raise ValueError(f"need finite eps > 0, finite M > 0, D >= 1: {eps}, {M}, {D}")
    r = 4.0 * M * math.sqrt(D / (2.0 * (D + 1.0)))
    quarter = eps / 4.0
    if D == 1:
        arg = -math.e * quarter / r
        if arg < -_INV_E:
            raise ValueError(
                "eps too large relative to M: Lambert argument below -1/e")
        return -(r / quarter) * lambert_w("minus_one", arg)
    return (r * D / ((D - 1.0) * quarter)) ** D


def n_quantizer(eps: float, D: int, M: float) -> int:
    """Uniform-atom count so that quantizers can cover any law on the M-ball."""
    return _ceil_count("N_Q", n_quantizer_raw, eps, D, M)


def _ceil_count(name: str, raw, *args) -> int:
    """ceil(raw(*args)); a count past the float range raises ValueError."""
    try:
        return math.ceil(raw(*args))
    except (OverflowError, ZeroDivisionError):   # inf, or a bound that underflowed to 0
        raise ValueError(f"the atom count {name} exceeds the float range") from None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dnm_to_dict(model: DnmModel) -> dict:
    return {
        "format": "urcd-dnm",
        "version": 1,
        "feature_map": {"kind": "identity",
                        "input_dim": model.classifier.layer_dims[0]},
        "classifier": mlp_to_dict(model.classifier),
        "atoms": [{"atoms": m.atoms.tolist(), "weights": m.weights.tolist()}
                  for m in model.atoms],
    }


def dnm_from_dict(data: dict) -> DnmModel:
    if not isinstance(data, dict) or data.get("format") != "urcd-dnm":
        raise ValueError("not a serialized mixture model")
    if data.get("version") != 1:
        raise ValueError(f"unsupported model format version {data.get('version')!r}")
    try:
        entries = data["atoms"]
        if not (isinstance(entries, list) and all(
                isinstance(m, dict) and isinstance(m.get("weights"), list)
                for m in entries)):
            raise ValueError('"atoms" must be a list of objects with the fields '
                             '"atoms" and "weights", the weights a list')
        atoms = tuple(make_empirical(m["atoms"], m["weights"], renormalize=False)
                      for m in entries)
        classifier = mlp_from_dict(data["classifier"])
        identity = {"kind": "identity", "input_dim": classifier.layer_dims[0]}
        if data["feature_map"] != identity:
            raise ValueError(f'"feature_map" must be {json.dumps(identity)}')
        return DnmModel(classifier=classifier, atoms=atoms)
    except KeyError as exc:
        raise ValueError(f"model is missing the field {exc.args[0]!r}") from exc
    except TypeError as exc:            # a JSON value of the wrong type
        raise ValueError(f"model has a field of the wrong type: {exc}") from exc


def save_dnm(model: DnmModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(dnm_to_dict(model), fh)


def load_dnm(path) -> DnmModel:
    """Read a saved model; a malformed file raises ValueError naming it."""
    with open(path) as fh:
        try:
            return dnm_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
