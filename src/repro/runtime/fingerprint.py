"""Content-addressed fingerprints for graphs, configs, and traces.

Cache keys must depend only on *content*, never on process-local
accidents.  The one such accident in the IR is ``MemObject`` /
``PointerParam`` uids, which come from a global counter and therefore
differ between processes (and between build orders within a process).
:func:`graph_fingerprint` canonicalizes them to dense indices in order
of first appearance before hashing, so two structurally identical
workloads — built in different processes, or rebuilt within one — hash
identically.

Everything else (configs, invocation environments) is hashed as
canonical JSON (sorted keys, no whitespace).

Every key also carries :data:`CODE_FINGERPRINT`, a hash of the
simulator's own sources, so a result can never outlive the code that
produced it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.ir.graph import DFGraph
from repro.ir.serialize import graph_to_dict

#: Source that decides a cached result: the packages a compile, oracle
#: or sim record is computed by, plus the module that computes and
#: stores those records and this module (which defines the keys).
_CODE_PACKAGES = ("ir", "compiler", "cgra", "memory", "sim", "energy", "workloads")
_CODE_MODULES = ("experiments/common.py", "runtime/fingerprint.py")


def _code_fingerprint(root: Path) -> str:
    """sha256 over the relative paths and bytes of the keyed sources.

    *root* is the ``repro`` package directory.  Each file contributes
    its path and the digest of its bytes, in sorted path order, so the
    hash is independent of where the tree lives and of build debris
    (``__pycache__`` holds no ``.py``).
    """
    paths = [p for pkg in _CODE_PACKAGES for p in (root / pkg).rglob("*.py")]
    paths += [root / rel for rel in _CODE_MODULES]
    digest = hashlib.sha256()
    for rel, path in sorted((p.relative_to(root).as_posix(), p) for p in paths):
        digest.update(f"{rel}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
                      .encode("utf-8"))
    return digest.hexdigest()


#: The code fingerprint of the sources this process imported, folded
#: into every cache key by :func:`combine`.  Computed once at import, so
#: a long-lived process keys by the code it runs, not by files edited
#: after it started; any edit to a keyed source makes every older entry
#: unreachable, and no hand-maintained schema number is needed.
CODE_FINGERPRINT = _code_fingerprint(Path(__file__).resolve().parent.parent)


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_graph_payload(graph: DFGraph) -> Dict[str, Any]:
    """``graph_to_dict`` with uids renumbered densely.

    Objects and params are renumbered by order of first reference while
    walking ops in program order, which is deterministic for any given
    graph content regardless of the global uid counter's state.
    """
    payload = graph_to_dict(graph)
    obj_map: Dict[int, int] = {}
    param_map: Dict[int, int] = {}

    params_by_uid = {p["uid"]: p for p in payload["params"]}

    def map_object(uid: int) -> int:
        if uid not in obj_map:
            obj_map[uid] = len(obj_map)
        return obj_map[uid]

    def map_param(uid: int) -> int:
        if uid not in param_map:
            param_map[uid] = len(param_map)
            # A param pins its runtime object (and provenance) ordering.
            entry = params_by_uid[uid]
            map_object(entry["runtime_object"])
            if entry["provenance"] is not None:
                map_object(entry["provenance"])
        return param_map[uid]

    for op in payload["ops"]:
        addr = op.get("addr")
        if addr is None:
            continue
        base = addr["base"]
        if base["kind"] == "param":
            base["uid"] = map_param(base["uid"])
        else:
            base["uid"] = map_object(base["uid"])

    # Objects/params not reachable from any op keep a stable tail order
    # (sorted by name) after the referenced ones.
    for entry in sorted(payload["objects"], key=lambda e: e["name"]):
        map_object(entry["uid"])
    for entry in sorted(payload["params"], key=lambda e: e["name"]):
        map_param(entry["uid"])

    for entry in payload["objects"]:
        entry["uid"] = obj_map[entry["uid"]]
    for entry in payload["params"]:
        entry["uid"] = param_map[entry["uid"]]
        entry["runtime_object"] = obj_map[entry["runtime_object"]]
        if entry["provenance"] is not None:
            entry["provenance"] = obj_map[entry["provenance"]]
    payload["objects"].sort(key=lambda e: e["uid"])
    payload["params"].sort(key=lambda e: e["uid"])
    return payload


def graph_fingerprint(graph: DFGraph) -> str:
    return _sha256(_canonical_json(canonical_graph_payload(graph)))


def _jsonable(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def config_fingerprint(cfg: Optional[Any]) -> str:
    """Fingerprint of a (possibly None) config dataclass."""
    if cfg is None:
        return "none"
    return _sha256(
        _canonical_json({"type": type(cfg).__name__, "fields": _jsonable(cfg)})
    )


def envs_fingerprint(envs: Iterable[Mapping[str, int]]) -> str:
    """Fingerprint of an invocation environment stream."""
    return _sha256(_canonical_json([dict(sorted(e.items())) for e in envs]))


def combine(*parts: str) -> str:
    """Combine part fingerprints (plus the code fingerprint) into a key."""
    return _sha256("\x1f".join((f"code={CODE_FINGERPRINT}",) + tuple(parts)))
