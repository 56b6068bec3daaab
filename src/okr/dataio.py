"""Dataset loading and saving, synthetic data generation, split schemes, and
model persistence.

Text formats (all parsed with file/line error reporting):
  dense matrix   first line "#rows,cols", then comma-separated float rows
  sparse rows    first line "#dim D", then "index:value" pairs, 0-based
  bitsets        first line "#dim D", then active label indices per line
  permutations   comma-separated ranks per line (ranks are 1..K)
  candidate map  "query_id candidate_id" per line (one candidate per line)
  rankings       "qid<TAB>cid:score..." with scores at 6 significant digits

Matrices are persisted in a binary format (8-byte magic, little-endian
uint64 dims, row-major float64 payload) so model round trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .krr import EXACT, NYSTROM, KrrModel, fold_readout
from .linalg import RegularizedSolver
from .oel import OelModel

MAGIC = b"OKRMAT01"
BUNDLE_VERSION = "4"

DENSE = "dense"
BITSET = "bitset"
PERMUTATION = "permutation"
OUTPUT_KINDS = (DENSE, BITSET, PERMUTATION)


class DataError(Exception):
    """A file failed to parse or violated a dataset invariant."""


def named_seed(root: int, name: str) -> int:
    """Stable child seed for a named random stream (anchors, sketch, splits,
    ...), so components can be re-seeded independently from one root seed."""
    digest = hashlib.sha256(f"{int(root)}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _fail(path, lineno, msg):
    where = f"{path}:{lineno}" if lineno else str(path)
    raise DataError(f"{where}: {msg}")


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def _header_value(path, lines, prefix):
    if not lines or not lines[0].startswith("#"):
        _fail(path, 1, f"expected a '#{prefix}' header line")
    return lines[0][1:].strip()


# ---------------------------------------------------------------------------
# text matrix formats


def load_dense(path) -> np.ndarray:
    """Dense CSV: first line '#rows,cols', then comma-separated float rows."""
    lines = _read_lines(path)
    header = _header_value(path, lines, "rows,cols")
    try:
        rows, cols = (int(tok) for tok in header.split(","))
    except ValueError:
        _fail(path, 1, f"malformed dimension header {lines[0]!r}")
    if rows < 0 or cols < 0:
        _fail(path, 1, f"negative dimension in header {lines[0]!r}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != rows:
        _fail(path, len(lines), f"expected {rows} data rows, found {len(body)}")
    out = np.empty((rows, cols))
    for i, ln in enumerate(body):
        toks = ln.split(",")
        if len(toks) != cols:
            _fail(path, i + 2, f"expected {cols} values, found {len(toks)}")
        try:
            out[i] = [float(tok) for tok in toks]
        except ValueError:
            _fail(path, i + 2, f"non-numeric value in {ln!r}")
    return out


def save_dense(path, M) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#{M.shape[0]},{M.shape[1]}\n")
        for row in M:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_sparse(path) -> np.ndarray:
    """Sparse rows: '#dim D' header, then 'index:value' pairs per example."""
    lines = _read_lines(path)
    header = _header_value(path, lines, "dim D")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "dim":
        _fail(path, 1, f"expected header '#dim D', got {lines[0]!r}")
    try:
        dim = int(parts[1])
    except ValueError:
        dim = -1
    if dim < 0:
        _fail(path, 1, f"bad dimension {parts[1]!r}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        row = np.zeros(dim)
        seen = set()
        for tok in ln.split():
            try:
                idx_s, val_s = tok.split(":", 1)
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                _fail(path, i + 2, f"malformed index:value token {tok!r}")
            if not 0 <= idx < dim:
                _fail(path, i + 2, f"index {idx} outside [0, {dim})")
            if idx in seen:
                _fail(path, i + 2, f"duplicate index {idx}")
            seen.add(idx)
            row[idx] = val
        rows.append(row)
    if not rows:
        _fail(path, 1, "no data rows")
    return np.vstack(rows)


def load_bitsets(path) -> np.ndarray:
    """Bitsets: '#dim D' header, then active label indices per line (an empty
    line is an empty label set). Returns a 0/1 float matrix."""
    lines = _read_lines(path)
    header = _header_value(path, lines, "dim D")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "dim":
        _fail(path, 1, f"expected header '#dim D', got {lines[0]!r}")
    try:
        dim = int(parts[1])
    except ValueError:
        dim = -1
    if dim < 0:
        _fail(path, 1, f"bad dimension {parts[1]!r}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        row = np.zeros(dim)
        for tok in ln.split():
            try:
                idx = int(tok)
            except ValueError:
                _fail(path, i + 2, f"non-integer label index {tok!r}")
            if not 0 <= idx < dim:
                _fail(path, i + 2, f"label index {idx} outside [0, {dim})")
            if row[idx]:
                _fail(path, i + 2, f"duplicate label index {idx}")
            row[idx] = 1.0
        rows.append(row)
    if not rows:
        _fail(path, 1, "no data rows")
    return np.vstack(rows)


def save_bitsets(path, B) -> None:
    B = np.atleast_2d(np.asarray(B))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim {B.shape[1]}\n")
        for row in B:
            fh.write(" ".join(str(i) for i in np.flatnonzero(row)) + "\n")


def load_permutations(path) -> np.ndarray:
    """Permutations: comma-separated ranks per line, ranks exactly 1..K."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines:
        _fail(path, 1, "no data rows")
    rows = []
    for i, ln in enumerate(lines):
        try:
            ranks = np.array([int(tok) for tok in ln.split(",")])
            rows.append(kernels.check_permutation(ranks))
        except ValueError as exc:
            _fail(path, i + 1, str(exc))
        if rows[0].size != rows[-1].size:
            _fail(path, i + 1, f"rank count {rows[-1].size} differs from first row "
                               f"({rows[0].size})")
    return np.vstack(rows)


def save_permutations(path, P) -> None:
    P = np.atleast_2d(np.asarray(P, dtype=np.int64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in P:
            fh.write(",".join(str(r) for r in row) + "\n")


# ---------------------------------------------------------------------------
# binary matrices


def save_matrix_binary(path, M) -> str:
    """Fixed binary layout: MAGIC, little-endian uint64 (rows, cols), then
    row-major little-endian float64 payload; identical bytes on any platform.
    Returns the sha256 hex digest of the bytes written."""
    M = np.ascontiguousarray(np.atleast_2d(M), dtype="<f8")
    if M.ndim != 2:
        raise ValueError(f"only 2-d matrices are persisted, got ndim={M.ndim}")
    header = MAGIC + np.array(M.shape, dtype="<u8").tobytes()
    digest = hashlib.sha256(header)
    digest.update(M.data)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(M.data)
    return digest.hexdigest()


def _read_file(path) -> bytearray:
    """The whole file, read once into a writable buffer."""
    try:
        with open(path, "rb") as fh:
            buf = bytearray(os.fstat(fh.fileno()).st_size)
            del buf[fh.readinto(buf):]
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return buf


def _parse_matrix(path, buf: bytearray) -> np.ndarray:
    """The matrix in a buffer holding a whole binary matrix file, as a
    writable array over that buffer (no copy)."""
    if buf[:8] != MAGIC:
        raise DataError(f"{path}: bad magic {bytes(buf[:8])!r}, not a matrix file")
    if len(buf) < 24:
        raise DataError(f"{path}: {len(buf)} bytes, too short for a matrix header")
    rows, cols = np.frombuffer(buf, dtype="<u8", count=2, offset=8)
    expect = 24 + rows * cols * 8
    if len(buf) != expect:
        raise DataError(f"{path}: payload is {len(buf)} bytes, expected {expect} "
                        f"for a {rows}x{cols} matrix")
    return np.frombuffer(buf, dtype="<f8", offset=24).reshape(int(rows), int(cols))


def load_matrix_binary(path) -> np.ndarray:
    return _parse_matrix(path, _read_file(path))


def load_gram(path, tol: float = 1e-10) -> np.ndarray:
    """A binary matrix that must be a square symmetric Gram block."""
    K = load_matrix_binary(path)
    if K.shape[0] != K.shape[1]:
        raise DataError(f"{path}: Gram block must be square, got {K.shape}")
    asym = np.max(np.abs(K - K.T)) if K.size else 0.0
    if asym > tol:
        raise DataError(f"{path}: Gram block not symmetric (max |K-K^T| = {asym:.3g})")
    return K


# ---------------------------------------------------------------------------
# rankings


def save_rankings(path, ids, scores) -> None:
    """One line per row of ids: the row number as query id, then its
    cid:score pairs without the padding (id -1), scores at 6 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, (row_ids, row_scores) in enumerate(zip(ids.tolist(), scores.tolist())):
            pairs = "".join(f"\t{c}:{s:.6g}" for c, s in zip(row_ids, row_scores) if c >= 0)
            fh.write(f"{qid}{pairs}\n")


def load_rankings(path, n_candidates=None):
    """Returns (ids, scores) parsed from a rankings file, as the decoders
    return them: t x w arrays padded with id -1 and score NaN past the end
    of a shorter line. The query ids must run 0..t-1 in file order. Given
    n_candidates, every line must rank at least one candidate and every
    candidate id must lie in [0, n_candidates)."""
    rows = []
    for i, ln in enumerate(_read_lines(path)):
        if not ln.strip():
            continue
        toks = ln.split("\t")
        try:
            qid = int(toks[0])
            pairs = [tok.split(":", 1) for tok in toks[1:]]
            cids = [int(c) for c, _ in pairs]
            scores = [float(s) for _, s in pairs]
        except ValueError:
            _fail(path, i + 1, f"malformed ranking line {ln!r}")
        if qid != len(rows):
            how = "repeated" if 0 <= qid < len(rows) else "out of order"
            _fail(path, i + 1, f"query id {qid} {how}; expected {len(rows)}")
        if n_candidates is not None:
            if not cids:
                _fail(path, i + 1, f"query {qid} ranks no candidate")
            bad = [c for c in cids if not 0 <= c < n_candidates]
            if bad:
                _fail(path, i + 1, f"candidate id {bad[0]} outside [0, {n_candidates})")
        rows.append((cids, scores))
    width = max((len(cids) for cids, _ in rows), default=0)
    ids = np.full((len(rows), width), -1, dtype=np.int64)
    vals = np.full(ids.shape, np.nan)
    for j, (cids, scores) in enumerate(rows):
        ids[j, :len(cids)], vals[j, :len(cids)] = cids, scores
    return ids, vals


def load_candidate_map(path, n_candidates=None):
    """Per-query candidate lists: 'query_id candidate_id' per line. Returns a
    list indexed by query id."""
    per_query: dict[int, list[int]] = {}
    for i, ln in enumerate(_read_lines(path)):
        if not ln.strip():
            continue
        toks = ln.split()
        if len(toks) != 2:
            _fail(path, i + 1, f"expected 'query_id candidate_id', got {ln!r}")
        try:
            qid, cid = int(toks[0]), int(toks[1])
        except ValueError:
            _fail(path, i + 1, f"non-integer ids in {ln!r}")
        if qid < 0 or cid < 0:
            _fail(path, i + 1, "ids must be nonnegative")
        if n_candidates is not None and cid >= n_candidates:
            _fail(path, i + 1, f"candidate id {cid} outside [0, {n_candidates})")
        per_query.setdefault(qid, []).append(cid)
    if not per_query:
        _fail(path, 1, "empty candidate map")
    n_queries = max(per_query) + 1
    out = []
    for q in range(n_queries):
        if q not in per_query:
            _fail(path, 0, f"query {q} has no candidates")
        out.append(np.array(per_query[q], dtype=np.int64))
    return out


def load_index_vector(path) -> np.ndarray:
    """One integer per line (e.g. the true candidate index of each query)."""
    vals = []
    for i, ln in enumerate(_read_lines(path)):
        if not ln.strip():
            continue
        try:
            vals.append(int(ln.strip()))
        except ValueError:
            _fail(path, i + 1, f"expected one integer, got {ln!r}")
    if not vals:
        _fail(path, 1, "empty index file")
    return np.array(vals, dtype=np.int64)


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """In-memory dataset: inputs, paired supervised outputs, an optional
    unsupervised output pool, optional test data, and the decode candidates.

    x is n x d features, or the n x n training Gram when x_format is "gram"
    (then x_test is the n x t train-vs-test block). candidates defaults to
    the supervised plus unsupervised outputs when not given.
    """

    output_kind: str
    x: np.ndarray
    y_sup: np.ndarray
    x_format: str = DENSE
    y_unsup: np.ndarray | None = None
    x_test: np.ndarray | None = None
    y_test: np.ndarray | None = None
    candidates: np.ndarray | None = None
    candidate_map: list | None = None
    truth_index: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.y_sup.shape[0]

    @property
    def m(self) -> int:
        return 0 if self.y_unsup is None else self.y_unsup.shape[0]

    @property
    def n_test(self) -> int:
        if self.x_test is None:
            return 0
        return self.x_test.shape[1] if self.x_format == "gram" else self.x_test.shape[0]

    def candidate_outputs(self) -> np.ndarray:
        if self.candidates is not None:
            return self.candidates
        if self.y_unsup is not None:
            return np.vstack([self.y_sup, self.y_unsup])
        return self.y_sup

    def __post_init__(self):
        if self.output_kind not in OUTPUT_KINDS:
            raise DataError(f"unknown output kind {self.output_kind!r}")
        if self.y_sup.shape[0] < 1:
            raise DataError("need at least one supervised pair")
        n_inputs = self.x.shape[0]
        if n_inputs != self.y_sup.shape[0]:
            raise DataError(f"{n_inputs} inputs but {self.y_sup.shape[0]} supervised "
                            "outputs; every supervised row must be paired")
        width = self.y_sup.shape[1]
        for name, arr in (("y_unsup", self.y_unsup), ("y_test", self.y_test),
                          ("candidates", self.candidates)):
            if arr is not None and arr.shape[1] != width:
                raise DataError(f"{name} width {arr.shape[1]} differs from supervised "
                                f"outputs width {width}; output kinds must match")


def output_features(kind: str, Y) -> np.ndarray:
    """Feature rows fed to the output kernel: dense rows as-is, bitsets as
    0/1 floats, permutations through the Kemeny sign embedding."""
    Y = np.asarray(Y)
    if kind in (DENSE, BITSET):
        return Y.astype(np.float64, copy=False)
    if kind == PERMUTATION:
        return np.vstack([kernels.kemeny_embed(row) for row in Y])
    raise ValueError(f"unknown output kind {kind!r}")


def load_dataset(config: dict, base_dir=None) -> Dataset:
    """Build a Dataset from flat config keys (data.kind, data.x, data.y,
    data.x_format, data.y_unsup, data.x_test, data.y_test, data.candidates,
    data.candidate_map, data.truth_index). Relative paths resolve against
    base_dir."""
    base = Path(base_dir) if base_dir else Path(".")

    def path_of(key):
        v = config.get(key)
        return None if v is None else (base / v)

    kind = config.get("data.kind")
    if kind not in OUTPUT_KINDS:
        raise DataError(f"data.kind must be one of {OUTPUT_KINDS}, got {kind!r}")
    if path_of("data.x") is None or path_of("data.y") is None:
        raise DataError("data.x and data.y are required")

    y_loader = {DENSE: load_dense, BITSET: load_bitsets,
                PERMUTATION: load_permutations}[kind]
    x_format = config.get("data.x_format", DENSE)
    if x_format == DENSE:
        x = load_dense(path_of("data.x"))
        x_test = load_dense(path_of("data.x_test")) if path_of("data.x_test") else None
    elif x_format == "sparse":
        x = load_sparse(path_of("data.x"))
        x_test = load_sparse(path_of("data.x_test")) if path_of("data.x_test") else None
    elif x_format == "gram":
        x = load_gram(path_of("data.x"))
        x_test = (load_matrix_binary(path_of("data.x_test"))
                  if path_of("data.x_test") else None)
        if x_test is not None and x_test.shape[0] != x.shape[0]:
            raise DataError(f"test Gram block has {x_test.shape[0]} rows, expected "
                            f"{x.shape[0]} (train-vs-test layout)")
    else:
        raise DataError(f"data.x_format must be dense, sparse or gram, got {x_format!r}")

    y_sup = y_loader(path_of("data.y"))
    if y_sup.shape[0] < x.shape[0]:
        raise DataError(f"{path_of('data.y')}: supervised outputs file has "
                        f"{y_sup.shape[0]} rows but inputs have {x.shape[0]}")
    y_unsup = y_loader(path_of("data.y_unsup")) if path_of("data.y_unsup") else None
    y_test = y_loader(path_of("data.y_test")) if path_of("data.y_test") else None
    candidates = y_loader(path_of("data.candidates")) if path_of("data.candidates") else None
    # without data.candidates, decoding ranks the supervised then pool outputs
    n_cand = (candidates.shape[0] if candidates is not None
              else y_sup.shape[0] + (0 if y_unsup is None else y_unsup.shape[0]))
    candidate_map = (load_candidate_map(path_of("data.candidate_map"), n_cand)
                     if path_of("data.candidate_map") else None)
    truth_index = (load_index_vector(path_of("data.truth_index"))
                   if path_of("data.truth_index") else None)

    ds = Dataset(output_kind=kind, x=x, y_sup=y_sup, x_format=x_format,
                 y_unsup=y_unsup, x_test=x_test, y_test=y_test,
                 candidates=candidates, candidate_map=candidate_map, truth_index=truth_index)
    n_queries = ds.n_test or (0 if y_test is None else y_test.shape[0])
    for key, what, entries in (("data.candidate_map", "candidate lists", candidate_map),
                               ("data.truth_index", "true candidates", truth_index)):
        if n_queries and entries is not None and len(entries) != n_queries:
            _fail(path_of(key), 0, f"{len(entries)} {what} for {n_queries} test queries")
    return ds


def synth_remark1(n: int, m: int, n_test: int, sigma2_x: float, sigma2_z: float,
                  seed: int = 0) -> Dataset:
    """Synthetic supervised-benefit construction: scalar inputs x ~ N(0, s2x),
    2-d outputs (x, z) with independent z ~ N(0, s2z). With s2z > s2x the
    top principal direction of the outputs is the z axis while the
    predictable direction is the x axis, so the supervised and unsupervised
    embeddings pick different 1-d subspaces. Candidates are all generated
    outputs; truth_index points each test query at its own output."""
    if sigma2_x <= 0 or sigma2_z < 0:
        raise ValueError("sigma2_x must be positive and sigma2_z nonnegative "
                         "(sigma2_z = 0 degenerates the outputs onto a line)")
    if sigma2_z <= sigma2_x:
        warnings.warn("sigma2_z <= sigma2_x: outside the regime where the supervised "
                      "embedding beats the unsupervised one", stacklevel=2)
    rng = np.random.default_rng(seed)

    def draw(count):
        x = rng.normal(0.0, np.sqrt(sigma2_x), size=count)
        z = rng.normal(0.0, np.sqrt(sigma2_z), size=count)
        return x[:, None], np.column_stack([x, z])

    x_sup, y_sup = draw(n)
    _, y_unsup = draw(m) if m else (None, None)
    x_test, y_test = draw(n_test)
    blocks = [y_sup] + ([y_unsup] if m else []) + [y_test]
    candidates = np.vstack(blocks)
    truth = np.arange(n + m, n + m + n_test, dtype=np.int64)
    return Dataset(output_kind=DENSE, x=x_sup, y_sup=y_sup, y_unsup=y_unsup,
                   x_test=x_test, y_test=y_test, candidates=candidates,
                   truth_index=truth)


def save_dataset(dataset: Dataset, outdir) -> Path:
    """Write a dense-format dataset to a directory plus a config file
    pointing at the pieces; returns the config path."""
    if dataset.x_format != DENSE or dataset.output_kind != DENSE:
        raise ValueError("save_dataset only handles dense features and outputs")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = {"data.kind": DENSE, "data.x_format": DENSE}

    def put(key, name, M, writer=save_dense):
        writer(outdir / name, M)
        cfg[key] = name

    put("data.x", "x_train.csv", dataset.x)
    put("data.y", "y_train.csv", dataset.y_sup)
    if dataset.y_unsup is not None:
        put("data.y_unsup", "y_unsup.csv", dataset.y_unsup)
    if dataset.x_test is not None:
        put("data.x_test", "x_test.csv", dataset.x_test)
    if dataset.y_test is not None:
        put("data.y_test", "y_test.csv", dataset.y_test)
    if dataset.candidates is not None:
        put("data.candidates", "candidates.csv", dataset.candidates)
    if dataset.truth_index is not None:
        with open(outdir / "truth_index.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{i}\n" for i in dataset.truth_index)
        cfg["data.truth_index"] = "truth_index.txt"
    cfg_path = outdir / "dataset.cfg"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        for k in sorted(cfg):
            fh.write(f"{k} = {cfg[k]}\n")
    return cfg_path


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class Holdout:
    ratio: float


@dataclass(frozen=True)
class KFold:
    k: int


@dataclass(frozen=True)
class RepeatedSubsample:
    ratio: float
    reps: int


def split(n: int, scheme, seed: int = 0):
    """Disjoint (train, validation) index pairs: one for Holdout, k for
    KFold, reps independent pairs for RepeatedSubsample. Fully reproducible
    from (scheme, seed, n)."""
    rng = np.random.default_rng(seed)
    if isinstance(scheme, Holdout):
        return [_subsample(n, scheme.ratio, rng)]
    if isinstance(scheme, RepeatedSubsample):
        if scheme.reps < 1:
            raise ValueError("reps must be >= 1")
        return [_subsample(n, scheme.ratio, rng) for _ in range(scheme.reps)]
    if isinstance(scheme, KFold):
        if not 2 <= scheme.k <= n:
            raise ValueError(f"k-fold needs 2 <= k <= n, got k={scheme.k}, n={n}")
        perm = rng.permutation(n)
        folds = np.array_split(perm, scheme.k)
        return [(np.sort(np.concatenate(folds[:i] + folds[i + 1:])), np.sort(folds[i]))
                for i in range(scheme.k)]
    raise TypeError(f"unknown split scheme {scheme!r}")


def _subsample(n, ratio, rng):
    n_train = int(ratio * n)
    if not 1 <= n_train < n:
        raise ValueError(f"ratio {ratio} leaves no train or no validation data for n={n}")
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


# ---------------------------------------------------------------------------
# model persistence


@dataclass
class ModelBundle:
    """Everything a prediction run needs: a string manifest plus named
    float64 matrices."""

    manifest: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)


def _manifest_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def save_model(bundle: ModelBundle, dirpath) -> None:
    """Write manifest + matrices; each matrix file's sha256 goes into the
    manifest, and the manifest carries its own digest so tampering with any
    recorded value is detected at load."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    manifest = dict(bundle.manifest)
    manifest["bundle_version"] = BUNDLE_VERSION
    manifest["matrix_names"] = ",".join(sorted(bundle.matrices))
    for name, M in bundle.matrices.items():
        manifest[f"sha256.{name}"] = save_matrix_binary(dirpath / f"{name}.mat", M)
    lines = [f"{k} = {manifest[k]}" for k in sorted(manifest)]
    lines.append(f"manifest_sha256 = {_manifest_digest(lines)}")
    (dirpath / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(dirpath) -> ModelBundle:
    dirpath = Path(dirpath)
    mpath = dirpath / "manifest.txt"
    lines = [ln for ln in _read_lines(mpath) if ln.strip()]
    if not lines or not lines[-1].startswith("manifest_sha256 = "):
        _fail(mpath, len(lines), "missing manifest digest line")
    recorded = lines[-1].split(" = ", 1)[1]
    if recorded != _manifest_digest(lines[:-1]):
        raise DataError(f"{mpath}: manifest digest mismatch; file was modified")
    manifest = {}
    for i, ln in enumerate(lines[:-1]):
        if " = " not in ln:
            _fail(mpath, i + 1, f"malformed manifest line {ln!r}")
        k, v = ln.split(" = ", 1)
        manifest[k] = v
    if manifest.get("bundle_version") != BUNDLE_VERSION:
        raise DataError(f"{mpath}: bundle version {manifest.get('bundle_version')!r} "
                        f"unsupported (expected {BUNDLE_VERSION}); refit the model")
    matrices = {}
    names = manifest.get("matrix_names", "")
    for name in (names.split(",") if names else []):
        fname = dirpath / f"{name}.mat"
        if not fname.exists():
            raise DataError(f"{fname}: matrix listed in manifest is missing")
        buf = _read_file(fname)
        if hashlib.sha256(buf).hexdigest() != manifest.get(f"sha256.{name}"):
            raise DataError(f"{fname}: checksum mismatch")
        matrices[name] = _parse_matrix(fname, buf)
    return ModelBundle(manifest=manifest, matrices=matrices)


def fingerprint(*arrays) -> str:
    """Stable sha256 fingerprint of a sequence of arrays (shape + payload)."""
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def bundle_from_models(krr_model: KrrModel, oel_model: OelModel | None = None,
                       extra_manifest: dict | None = None,
                       extra_matrices: dict | None = None) -> ModelBundle:
    """Pack fitted models (plus caller-provided context such as training
    features and kernel parameters) into a persistable bundle.

    An embedded bundle serves test inputs through the folded readout
    T_x = krr.fold_readout(krr_model, T) (oel_T_x) and candidates through
    oel_R, so it keeps no ridge solve state; only a regression-only bundle
    (no oel_model) stores the Cholesky factor (krr_factor) or the Nystrom
    dual weights (krr_dual). Nystrom bundles keep the anchor indices."""
    manifest = {
        "krr.mode": krr_model.mode,
        "krr.lambda": repr(krr_model.lam),
        "krr.n": str(krr_model.n),
    }
    matrices: dict = {}
    if krr_model.mode == NYSTROM:
        matrices["krr_anchors"] = krr_model.anchors.astype(np.float64)[None, :]
    if oel_model is None:
        if krr_model.mode == EXACT:
            manifest["krr.shift"] = repr(krr_model.solver.shift)
            matrices["krr_factor"] = krr_model.solver.factor
        else:
            matrices["krr_dual"] = krr_model.dual_weights
    else:
        manifest.update({
            "oel.c": repr(oel_model.c),
            "oel.n": str(oel_model.n),
            "oel.m": str(oel_model.m),
            "oel.p": str(oel_model.p),
            "oel.gram_trace": repr(oel_model.gram_trace),
            "oel.ortho_defect": repr(oel_model.ortho_defect),
        })
        matrices["oel_mu"] = oel_model.mu[:, None]
        matrices["oel_R"] = oel_model.R
        matrices["oel_T_x"] = fold_readout(krr_model, oel_model.T)
    manifest.update(extra_manifest or {})
    matrices.update(extra_matrices or {})
    return ModelBundle(manifest=manifest, matrices=matrices)


def models_from_bundle(bundle: ModelBundle):
    """Rebuild (krr_model, oel_model_or_None) from a loaded bundle,
    reproducing the original predictions bit for bit. The ridge model of an
    embedded bundle has no solve state: it only says which kernel columns
    (training inputs or anchors) the folded readout T_x reads."""
    man = bundle.manifest
    mode = man["krr.mode"]
    lam = float(man["krr.lambda"])
    n = int(man["krr.n"])
    anchors = (bundle.matrices["krr_anchors"].ravel().astype(np.int64)
               if mode == NYSTROM else None)
    if "oel.p" not in man:
        if mode == EXACT:
            solver = RegularizedSolver.from_factor(bundle.matrices["krr_factor"],
                                                   float(man["krr.shift"]))
            return KrrModel(EXACT, lam, n, solver=solver), None
        return KrrModel(NYSTROM, lam, n, dual_weights=bundle.matrices["krr_dual"],
                        anchors=anchors), None
    krr_model = KrrModel(mode, lam, n, anchors=anchors)
    p = int(man["oel.p"])
    R, T_x = bundle.matrices["oel_R"], bundle.matrices["oel_T_x"]
    if R.shape[0] != p or T_x.shape != (p, krr_model.alpha_rows):
        raise DataError(f"readouts oel_R {R.shape} and oel_T_x {T_x.shape} inconsistent "
                        f"with the manifest (p={p}, {mode} ridge reading "
                        f"{krr_model.alpha_rows} kernel rows)")
    oel_model = OelModel(
        beta=None, mu=bundle.matrices["oel_mu"].ravel(), c=float(man["oel.c"]), n=n,
        m=int(man["oel.m"]), R=R, T=None, T_x=T_x,
        gram_trace=float(man["oel.gram_trace"]),
        ortho_defect=float(man["oel.ortho_defect"]))
    return krr_model, oel_model


# ---------------------------------------------------------------------------
# reference datasets


def load_usps_halves(dirpath):
    """USPS digits in the classic zip format (label then 256 pixels per
    line; zip.train / zip.test, optionally gzipped). The reconstruction task
    uses the top 128 pixels as input and the bottom 128 as output. Returns
    (x_train, y_train, x_test, y_test)."""
    dirpath = Path(dirpath)

    def find(stem):
        for suffix in ("", ".gz"):
            p = dirpath / f"{stem}{suffix}"
            if p.exists():
                return p
        raise DataError(f"{dirpath}: missing {stem} (or {stem}.gz)")

    def halves(path):
        M = np.loadtxt(find(path))
        if M.ndim != 2 or M.shape[1] != 257:
            raise DataError(f"{path}: expected 257 columns (label + 16x16 pixels)")
        pixels = M[:, 1:]
        return pixels[:, :128], pixels[:, 128:]

    x_train, y_train = halves("zip.train")
    x_test, y_test = halves("zip.test")
    return x_train, y_train, x_test, y_test
