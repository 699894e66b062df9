"""Named weight-spec registry: how weight functions cross the wire.

A remote shard lease must tell the host agent which weight function to
restore the replica with. Shipping a pickled callable would hand code
execution to anyone who can reach the lease socket, so protocol
version 2 ships a **spec** instead: ``(name, params)``, where ``name``
selects a builder registered here and ``params`` is a dict of scalar
keyword arguments. The host resolves the spec through its *own* copy
of this registry — only code already installed on the host can run.

The built-in heuristic weights register themselves below; a custom
:class:`~repro.weights.base.WeightFunction` becomes remotable by
calling :func:`register_weight_spec` on both the coordinator and every
host (typically at import time of the module defining it). WSD-L's
learned weights never need a spec at all: checkpoints embed
the frozen actor, and :func:`~repro.samplers.checkpoint.restore_sampler`
rebuilds the weight function from the state itself when none is
supplied — so a lease for a learned-weight shard ships ``spec=None``
and rides the checkpoint path.

Resolution failures are typed: an unknown name raises
:class:`~repro.errors.ProtocolError` (it arrived off the wire, and the
reply to the coordinator says exactly which name the host lacks); an
*unregistered* weight function at lease time raises
:class:`~repro.errors.ConfigurationError` coordinator-side, before any
bytes move.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError, ProtocolError
from repro.weights.heuristic import (
    DegreeWeight,
    GPSHeuristicWeight,
    UniformWeight,
)

__all__ = [
    "register_weight_spec",
    "build_weight_fn",
    "weight_spec_for",
]

#: name -> (builder, describe). ``builder(**params)`` constructs the
#: weight function; ``describe(fn)`` extracts the params dict from an
#: instance (so the coordinator can spec what it holds).
_REGISTRY: dict[str, tuple[Callable, Callable]] = {}

#: Weight-function classes with a registered spec, for instance lookup.
_CLASS_SPECS: dict[type, str] = {}


def register_weight_spec(
    name: str,
    builder: Callable,
    *,
    cls: type | None = None,
    describe: Callable | None = None,
) -> None:
    """Register a named weight-spec builder (idempotent per name).

    Args:
        name: the wire name; must match on coordinator and hosts.
        builder: called with the spec's scalar keyword params to
            construct the weight function host-side.
        cls: the weight-function class this spec describes; instances
            of it become leasable to remote hosts.
        describe: extracts the params dict from an instance
            (default: no params).
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError("weight spec name must be a non-empty str")
    _REGISTRY[name] = (builder, describe or (lambda fn: {}))
    if cls is not None:
        _CLASS_SPECS[cls] = name


def build_weight_fn(name: str, params: dict):
    """Resolve a wire spec to a weight function (host-side).

    Raises :class:`~repro.errors.ProtocolError` for a name this build
    does not register — the typed reply a coordinator gets back when
    it leases against a host missing the custom weight module — and
    for params the builder rejects.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ProtocolError(
            f"unknown weight spec {name!r}; this host registers "
            f"{sorted(_REGISTRY)} — register the custom weight "
            "function on the host (repro.weights.registry."
            "register_weight_spec) before leasing against it"
        )
    builder, _ = entry
    try:
        return builder(**dict(params))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(
            f"weight spec {name!r} rejected params {params!r}: {exc}"
        ) from exc


def weight_spec_for(weight_fn) -> tuple[str, dict] | None:
    """The wire spec for a weight function held in hand (coordinator-side).

    ``None`` stays ``None`` (pairing samplers, and WSD-L replicas whose
    checkpoint embeds the actor). A learned weight also maps to
    ``None``: its state rides the checkpoint, never the lease. Any
    other unregistered function is a :class:`ConfigurationError` —
    the remote backend refuses to improvise a serialisation for it.
    """
    if weight_fn is None:
        return None
    # Learned weights are reconstructed from the checkpoint's embedded
    # policy; the lease deliberately carries no spec.
    name = getattr(type(weight_fn), "name", None)
    if name == "learned":
        return None
    spec_name = _CLASS_SPECS.get(type(weight_fn))
    if spec_name is None:
        raise ConfigurationError(
            f"weight function {type(weight_fn).__name__} has no "
            "registered wire spec; the remote backend ships a named "
            "spec instead of pickled code — register it with "
            "repro.weights.registry.register_weight_spec on the "
            "coordinator and every host, or use a local backend"
        )
    _, describe = _REGISTRY[spec_name]
    params = dict(describe(weight_fn))
    return spec_name, params


# -- built-ins ---------------------------------------------------------------

register_weight_spec(
    "gps-heuristic",
    GPSHeuristicWeight,
    cls=GPSHeuristicWeight,
    describe=lambda fn: {"slope": fn.slope, "offset": fn.offset},
)
register_weight_spec(
    "uniform",
    UniformWeight,
    cls=UniformWeight,
)
register_weight_spec(
    "degree",
    DegreeWeight,
    cls=DegreeWeight,
    describe=lambda fn: {"offset": fn.offset},
)
