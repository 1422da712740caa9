"""Content-addressed fingerprints for circuits, specs, and configs.

A compilation is a pure function of (circuit, hardware spec, technique,
technique config), so a cache entry is addressed by SHA-256 digests of
canonical JSON encodings of those four inputs.  Crucially the spec
fingerprint covers *every* :class:`~repro.hardware.spec.HardwareSpec` field
(the seed's ad-hoc cache keyed only name/aod_rows/aod_cols, so e.g. error
-rate edits silently reused stale results), and the config fingerprint
covers exactly the knobs the technique consumes (ELDI entries no longer
churn when a placement seed it never reads changes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from repro.utils import kernels

if typing.TYPE_CHECKING:
    from repro.circuit.circuit import QuantumCircuit
    from repro.hardware.spec import HardwareSpec
    from repro.noise.fidelity import NoiseModelConfig

__all__ = [
    "CacheKey",
    "cache_key",
    "clear_fingerprint_caches",
    "fingerprint_circuit",
    "fingerprint_config",
    "fingerprint_noise",
    "fingerprint_obj",
    "fingerprint_spec",
]


def _canonical(value: object) -> object:
    """Recursively convert ``value`` into JSON-encodable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__qualname__,
            **{
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {
            str(k): _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_canonical(v) for v in items]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _canonical(value.tolist())
    return repr(value)


def fingerprint_obj(value: object) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``value``."""
    payload = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Value -> digest memos for the frozen, hashable inputs every sweep
#: scenario fingerprints (specs, noise configs, technique configs); the
#: digest is a pure function of the fields, so equal values share an entry.
_SPEC_FP_CACHE: dict = {}
_NOISE_FP_CACHE: dict = {}
_CONFIG_FP_CACHE: dict = {}
_FP_CACHE_MAX = 4096


def clear_fingerprint_caches() -> None:
    """Drop every fingerprint memo (used by cold-start benchmarks/tests)."""
    _SPEC_FP_CACHE.clear()
    _NOISE_FP_CACHE.clear()
    _CONFIG_FP_CACHE.clear()


def _memoized(cache: dict, value: object) -> str:
    """``fingerprint_obj(value)``, looked up in ``cache`` first.

    The memo key pairs the value with its field types: dataclass equality
    says ``1 == 1.0 == True``, but their canonical JSON -- and so their
    digests -- differ.  Unhashable or slotted stand-ins skip the memo.
    """
    if kernels.reference_kernels_active():
        return fingerprint_obj(value)
    try:
        key = (value, tuple(map(type, vars(value).values())))
        digest = cache.get(key)
    except TypeError:
        return fingerprint_obj(value)
    if digest is None:
        digest = fingerprint_obj(value)
        if len(cache) >= _FP_CACHE_MAX:
            cache.clear()
        cache[key] = digest
    return digest


def _fingerprint_circuit_content(circuit: "QuantumCircuit") -> str:
    return fingerprint_obj(
        {
            "num_qubits": circuit.num_qubits,
            "name": circuit.name,
            "gates": [
                [g.name, list(g.qubits), list(g.params)] for g in circuit.gates
            ],
        }
    )


def fingerprint_circuit(circuit: "QuantumCircuit") -> str:
    """Digest of a circuit's full content: size, name, and every gate.

    Memoized on the circuit object: circuits are append-only while being
    built and immutable once compiled, so ``(num_qubits, name, len(gates))``
    is a sufficient staleness token.  Hashing a few hundred gates costs
    milliseconds, and batch compilation fingerprints the same circuit once
    per cache lookup/store -- without the memo it dominates warm-cache runs.
    """
    if kernels.reference_kernels_active():
        return _fingerprint_circuit_content(circuit)
    token = (circuit.num_qubits, circuit.name, len(circuit.gates))
    memo = getattr(circuit, "_fingerprint_memo", None)
    if memo is not None and memo[0] == token:
        return memo[1]
    digest = _fingerprint_circuit_content(circuit)
    try:
        circuit._fingerprint_memo = (token, digest)
    except AttributeError:
        pass  # slotted/frozen circuit stand-ins just lose the memo
    return digest


def fingerprint_spec(spec: "HardwareSpec") -> str:
    """Digest covering every field of the hardware spec (content-memoized)."""
    return _memoized(_SPEC_FP_CACHE, spec)


def fingerprint_noise(noise: "NoiseModelConfig") -> str:
    """Digest covering every field of a noise config (content-memoized)."""
    return _memoized(_NOISE_FP_CACHE, noise)


def fingerprint_config(config: object) -> str:
    """Digest of a technique config (``None`` hashes to a fixed value)."""
    return _memoized(_CONFIG_FP_CACHE, config)


def _code_version() -> str:
    """The package version, stamped into every cache key.

    Compilation is a pure function of (circuit, spec, technique, config)
    only *per code version*: without this component a persistent on-disk
    cache would keep serving results compiled by older compiler code.
    Imported lazily to avoid a cycle with ``repro/__init__``.
    """
    from repro import __version__

    return __version__


class CacheKey(typing.NamedTuple):
    """Content address of one compilation."""

    technique: str
    circuit: str
    spec: str
    config: str
    version: str = ""

    def digest(self) -> str:
        """A single combined hex digest (used for on-disk file names)."""
        return hashlib.sha256("|".join(self).encode("utf-8")).hexdigest()


def cache_key(
    technique: str,
    circuit: "QuantumCircuit",
    spec: "HardwareSpec",
    config: object = None,
) -> CacheKey:
    """Build the content address of one (technique, circuit, spec, config)."""
    return CacheKey(
        technique=str(technique).lower(),
        circuit=fingerprint_circuit(circuit),
        spec=fingerprint_spec(spec),
        config=fingerprint_config(config),
        version=_code_version(),
    )
