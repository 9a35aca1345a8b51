"""Model persistence: the ``.npz`` + JSON artifact format.

An artifact is a directory with exactly two files:

* ``manifest.json`` — format version, library version, the full
  :class:`repro.core.DSSDDIConfig` (all four sections), the drug catalog
  (id, name, disease per drug), and bookkeeping such as the stored array
  names.  Everything human-readable lives here.
* ``arrays.npz`` — every numeric array of the fitted state: MDGCN weights
  (patient/drug FC, decoder MLP, DDI adapter), the DDIGCN relation
  embeddings added to the drug representations, the fitted K-means
  clustering, the treatment matrix, the training matrices the LightGCN
  propagation is defined over, and the signed DDI graph edge list.

Restoring involves no randomness or retraining, so a loaded system's
``predict_scores`` is bitwise identical to the saved one's.  The DDIGCN
*training* state (encoder weights) is deliberately not stored: serving
only needs the final embeddings, which travel inside the MD state.

Memory-mapped loading (``load_system(path, mmap_mode="r")``): ``np.savez``
stores each member of ``arrays.npz`` *uncompressed* — the zip is a
catalog of contiguous ``.npy`` payloads — so every array can be mapped
read-only straight out of the file instead of copied into anonymous
memory.  :func:`load_arrays` parses each member's zip local header and
npy header to find the data offset and hands back ``np.memmap`` views.
N worker processes mapping the same artifact share one physical copy of
the weights through the page cache, which is what makes the pre-fork
gateway (``repro-serve --workers N``) scale without N× the RSS.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .. import atomicio
from .. import __version__ as _repro_version
from ..core.config import DSSDDIConfig
from ..core.md_module import MDModule
from ..core.system import DSSDDI
from ..data.catalog import Drug
from ..data.ddi import DDIDataset
from ..graph import SignedGraph

#: Schema version of the artifact directory.  Version 2 added two MD/DDI
#: config fields and version 3 a serving field for fixed-shape gateway
#: scoring; all three are retired since (``DSSDDIConfig.from_dict``
#: handles them).  Version 4 added per-array SHA-256 integrity digests
#: (``array_digests`` in the manifest) verified on load.
#: Bumping it means older readers fail with the clean "unsupported
#: artifact format version" error instead of a confusing
#: unknown-config-field error.  Older artifacts (which simply lack the
#: newer fields) still load: the config defaults fill them in and
#: digest verification is skipped — ``tests/serving/test_compat.py``
#: pins the bitwise round-trip for the PR-1 layout.
FORMAT_VERSION = 4
READABLE_VERSIONS = (1, 2, 3, 4)
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

_MD_PREFIX = "md."
_EDGES_KEY = "ddi.edges"

PathLike = Union[str, Path]


class ArtifactIntegrityError(RuntimeError):
    """An artifact's bytes do not match its manifest digests.

    Raised on load when a stored array's SHA-256 digest disagrees with
    the ``array_digests`` entry recorded at save time, or when an array
    the manifest promises is missing from ``arrays.npz``.  Means the
    artifact was torn, bit-rotted, or tampered with after publication —
    callers (the model registry) quarantine it rather than serve it.
    """


def array_digest(array: np.ndarray) -> str:
    """SHA-256 over one array's identity: dtype, shape, then raw bytes.

    Hashing dtype and shape alongside the data means a reinterpreted
    array (same bytes, different view) fails verification too, not just
    flipped bits.
    """
    h = hashlib.sha256()
    h.update(array.dtype.str.encode("ascii"))
    h.update(repr(tuple(int(d) for d in array.shape)).encode("ascii"))
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def save_artifact(system: DSSDDI, path: PathLike) -> Path:
    """Write a fitted system to ``path`` (created as a directory).

    Returns the artifact directory.  Overwrites an existing artifact at
    the same location.  The write is atomic and durable: both files are
    staged in a temp directory, fsynced, and renamed into place in one
    ``os.replace`` (failpoints ``artifact.save.*``), so a crash leaves
    either the old complete artifact or the new one — never a hybrid —
    and the manifest records a SHA-256 digest per array for the loader
    to verify.
    """
    if system.md_module is None or system.ddi_data is None:
        raise RuntimeError("cannot save an unfitted DSSDDI")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {
        _MD_PREFIX + name: np.asarray(value)
        for name, value in system.md_module.export_state().items()
    }
    graph = system.ddi_data.graph
    edges = sorted(graph.edges_with_signs())
    arrays[_EDGES_KEY] = np.asarray(edges, dtype=np.int64).reshape(-1, 3)

    manifest = {
        "format_version": FORMAT_VERSION,
        "repro_version": _repro_version,
        "config": system.config.to_dict(),
        "num_drugs": graph.num_nodes,
        "catalog": [
            {"did": d.did, "name": d.name, "disease": d.disease}
            for d in system.ddi_data.catalog
        ],
        "arrays": sorted(arrays),
        "array_digests": {name: array_digest(arrays[name]) for name in sorted(arrays)},
    }

    def _write(tmp: Path) -> None:
        with open(tmp / MANIFEST_NAME, "w", encoding="utf-8") as fh:  # lint: staged-write
            json.dump(manifest, fh, indent=2)
        np.savez(tmp / ARRAYS_NAME, **arrays)  # lint: staged-write

    atomicio.atomic_write_dir(path, _write, site="artifact.save")
    return path


def _npy_member_memmap(
    path: Path, info: zipfile.ZipInfo, zf: zipfile.ZipFile
) -> Optional[np.ndarray]:
    """Map one stored ``.npy`` zip member in place; ``None`` = not mappable.

    Not mappable: compressed members (savez_compressed), object dtypes,
    and 0-d scalars (np.memmap wants a real extent) — the caller falls
    back to a regular in-memory read for those.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    from numpy.lib import format as npy_format

    header_readers = {
        (1, 0): npy_format.read_array_header_1_0,
        (2, 0): npy_format.read_array_header_2_0,
    }
    with zf.open(info) as member:
        version = npy_format.read_magic(member)
        reader = header_readers.get(version)
        if reader is None:
            return None
        shape, fortran, dtype = reader(member)
        npy_header_size = member.tell()
    if dtype.hasobject or shape == ():
        return None
    # The central directory's header_offset points at the member's zip
    # *local* header (30 fixed bytes + name + extra); the extra field can
    # differ from the central directory's, so read the local lengths.
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        local = fh.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            return None
        name_len, extra_len = struct.unpack("<HH", local[26:30])
    data_offset = info.header_offset + 30 + name_len + extra_len + npy_header_size
    return np.memmap(
        path,
        mode="r",
        dtype=dtype,
        shape=shape,
        offset=data_offset,
        order="F" if fortran else "C",
    )


def load_arrays(
    arrays_path: PathLike, mmap_mode: Optional[str] = None
) -> Dict[str, np.ndarray]:
    """The ``arrays.npz`` payload as ``name -> ndarray``.

    With ``mmap_mode="r"`` every mappable member comes back as a
    read-only ``np.memmap`` view into the file (zero copy; the OS page
    cache shares the physical pages across every process mapping the
    same artifact).  Members that cannot be mapped — compressed, object
    dtype, 0-d scalars — are read into memory as usual, so a
    ``savez_compressed`` artifact still loads, just without the sharing.
    Only ``"r"`` is supported: artifacts are immutable by contract.
    """
    arrays_path = Path(arrays_path)
    if mmap_mode is None:
        with np.load(arrays_path) as loaded:
            return {name: loaded[name] for name in loaded.files}
    if mmap_mode != "r":
        raise ValueError(
            f"artifacts are read-only: mmap_mode must be None or 'r', "
            f"got {mmap_mode!r}"
        )
    arrays: Dict[str, np.ndarray] = {}
    fallbacks = []
    with zipfile.ZipFile(arrays_path) as zf:
        for info in zf.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            mapped = _npy_member_memmap(arrays_path, info, zf)
            if mapped is None:
                fallbacks.append((name, info.filename))
            else:
                arrays[name] = mapped
    if fallbacks:
        with np.load(arrays_path) as loaded:
            for name, _member in fallbacks:
                arrays[name] = loaded[name]
    return arrays


def verify_arrays(
    arrays: Dict[str, np.ndarray], manifest: Dict, source: PathLike = "<arrays>"
) -> bool:
    """Check loaded arrays against the manifest's ``array_digests``.

    Returns ``True`` when digests were present and all matched, ``False``
    for pre-v4 manifests that carry none (nothing to verify — legacy
    artifacts stay loadable).  Raises :class:`ArtifactIntegrityError` on
    the first missing array or digest mismatch.
    """
    digests = manifest.get("array_digests")
    if not digests:
        return False
    for name in sorted(digests):
        if name not in arrays:
            raise ArtifactIntegrityError(
                f"artifact {source}: array {name!r} listed in the "
                f"manifest is missing from {ARRAYS_NAME}"
            )
        actual = array_digest(np.asarray(arrays[name]))
        if actual != digests[name]:
            raise ArtifactIntegrityError(
                f"artifact {source}: array {name!r} digest mismatch "
                f"(manifest {digests[name][:12]}…, stored {actual[:12]}…) "
                f"— the artifact is corrupt"
            )
    return True


def verify_artifact(path: PathLike) -> bool:
    """Full integrity check of an artifact directory.

    Reads the manifest and every array and compares digests.  Returns
    ``True`` if digests were verified, ``False`` for legacy digest-less
    artifacts.  Raises :class:`ArtifactIntegrityError` on corruption,
    ``FileNotFoundError``/``ValueError`` on structurally broken or
    unreadable artifacts — the registry maps any of these to quarantine.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    arrays_path = path / ARRAYS_NAME
    if not manifest_path.is_file() or not arrays_path.is_file():
        raise FileNotFoundError(
            f"no DSSDDI artifact at {path} (expected {MANIFEST_NAME} "
            f"and {ARRAYS_NAME})"
        )
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    version = manifest.get("format_version")
    if version not in READABLE_VERSIONS:
        raise ValueError(
            f"unsupported artifact format version {version!r} "
            f"(this build reads versions {READABLE_VERSIONS})"
        )
    arrays = load_arrays(arrays_path)
    return verify_arrays(arrays, manifest, source=path)


def load_system(
    path: PathLike, mmap_mode: Optional[str] = None, verify: bool = True
) -> DSSDDI:
    """Rebuild a fitted :class:`repro.core.DSSDDI` from an artifact.

    ``mmap_mode="r"`` memory-maps the weight arrays instead of copying
    them (see :func:`load_arrays`) — the loaded system scores bitwise
    identically either way.

    ``verify=True`` (the default) checks every array against the
    manifest's ``array_digests`` and raises
    :class:`ArtifactIntegrityError` on a mismatch; pre-v4 artifacts
    without digests load unverified.  Verification reads each array's
    bytes once, which for memory-mapped loads also pre-faults the pages.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    arrays_path = path / ARRAYS_NAME
    if not manifest_path.is_file() or not arrays_path.is_file():
        raise FileNotFoundError(
            f"no DSSDDI artifact at {path} (expected {MANIFEST_NAME} "
            f"and {ARRAYS_NAME})"
        )
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    version = manifest.get("format_version")
    if version not in READABLE_VERSIONS:
        raise ValueError(
            f"unsupported artifact format version {version!r} "
            f"(this build reads versions {READABLE_VERSIONS})"
        )

    config = DSSDDIConfig.from_dict(manifest["config"])
    config.validate()

    arrays = load_arrays(arrays_path, mmap_mode=mmap_mode)
    if verify:
        verify_arrays(arrays, manifest, source=path)

    num_drugs = int(manifest["num_drugs"])
    edges = arrays[_EDGES_KEY].reshape(-1, 3)
    graph = SignedGraph.from_signed_edges(
        num_drugs, ((int(u), int(v), int(s)) for u, v, s in edges)
    )
    catalog = [
        Drug(did=int(e["did"]), name=str(e["name"]), disease=str(e["disease"]))
        for e in manifest["catalog"]
    ]
    ddi_data = DDIDataset(
        graph=graph,
        synergy=graph.edges_of_sign(1),
        antagonism=graph.edges_of_sign(-1),
        catalog=catalog,
    )

    md_state = {
        name[len(_MD_PREFIX) :]: value
        for name, value in arrays.items()
        if name.startswith(_MD_PREFIX)
    }
    md_module = MDModule.from_state(config.md, md_state, graph)
    return DSSDDI._from_artifact(config, md_module, ddi_data)
