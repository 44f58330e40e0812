"""Scoring variants: low-rank bilinear fusion with optional time awareness.

All variants share one skeleton. Subject and relation features are
projected into a rank-expanded space of width ``rank * dim_entity``,
combined elementwise, pooled back down to ``dim_entity`` by summation
over non-overlapping windows of size ``rank``, and the pooled vector is
dotted against every candidate object embedding (1-N scoring):

* ``lowfer``  -- static:   pool(Us . Vp)
* ``t``       -- modulated: pool(Us . V(p * t)), time reweights the
  relation before projection
* ``tnt``     -- modulated plus a static relation term:
  pool(Us . V(p_t * t + p_static))
* ``cfb``     -- chained:  pool(Us . M^T(Vp . Qt)), an inner bilinear
  fusion of relation and time is re-projected and fused with the subject
* ``ftp``     -- trilinear: Us . Vp . Qt at rank 1 (cfb with the middle
  projection fixed to identity)

``Us`` is shorthand for ``subject_proj^T e_s`` and likewise for the
other projections. :meth:`Model.fuse` states these rules once. It
projects each distinct subject of a batch once, and the rows that share a
subject share its projected row. Gradients are hand-derived; every
parameter path is exercised by finite-difference checks in the test suite.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .kernels import _CHUNK, take_rows
from .time_encoding import (
    COMPONENTS,
    ENCODERS,
    CyclicTimeEncoder,
    SimpleTimeEncoder,
    component_rows_for,
    cycle_cardinalities,
)

INIT_EMBED_SCALE = 0.05
INIT_CHAIN_NOISE = 0.01

# The model's own tables in tensors() order; the encoder's tables follow.
_TABLES = ("entity", "relation", "subject_proj", "relation_proj",
           "relation_static", "time_proj", "chain_proj")

# The model's own tables whose gradient is scattered row by row into a
# zero-filled table; one matmul assigns each other gradient whole, and the
# encoder scatters its own.
_SCATTERED_GRADS = ("relation", "relation_static")


class Variant(enum.Enum):
    LOWFER = "lowfer"
    T = "t"
    TNT = "tnt"
    CFB = "cfb"
    FTP = "ftp"

    @classmethod
    def from_string(cls, name: str) -> "Variant":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ConfigError(f"unknown variant {name!r} (expected one of: {valid})") from None

    @property
    def uses_time(self) -> bool:
        return self is not Variant.LOWFER


# ---------------------------------------------------------------------------
# row helpers
# ---------------------------------------------------------------------------

def pool_rows(x: np.ndarray, rank: int) -> np.ndarray:
    """Window summation along the last axis; inverse of gradient expansion."""
    n, width = x.shape
    if width % rank != 0:
        raise ShapeError(f"cannot pool width {width} with rank {rank}")
    return x.reshape(n, width // rank, rank).sum(axis=2)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    variant: Variant
    rank: int
    entity: np.ndarray
    relation: np.ndarray
    subject_proj: np.ndarray
    relation_proj: np.ndarray
    relation_static: np.ndarray | None = None
    time_proj: np.ndarray | None = None
    chain_proj: np.ndarray | None = None
    encoder: SimpleTimeEncoder | CyclicTimeEncoder | None = None

    @classmethod
    def from_tensors(cls, variant: Variant, rank: int, tensors: dict[str, np.ndarray],
                     encoder: str | None = None, dates=None) -> "ModelParams":
        """Wrap tensors named as :func:`param_layout` names them.

        The time tables become an ``encoder`` ("ste" or "cte") encoder; the
        cyclic one also needs the date of every timestamp index.
        """
        time_encoder = None
        if variant.uses_time and encoder == SimpleTimeEncoder.kind:
            time_encoder = SimpleTimeEncoder(tensors["time"])
        elif variant.uses_time:
            if dates is None:
                raise ConfigError("cte encoder needs the vocabulary date list")
            time_encoder = CyclicTimeEncoder(
                {c: tensors[f"time_{c}"] for c in COMPONENTS}, component_rows_for(dates))
        return cls(variant=variant, rank=rank, encoder=time_encoder,
                   **{name: tensors.get(name) for name in _TABLES})

    @property
    def num_entities(self) -> int:
        return self.entity.shape[0]

    @property
    def dim_entity(self) -> int:
        return self.entity.shape[1]

    @property
    def dim_relation(self) -> int:
        return self.relation.shape[1]

    @property
    def dim_time(self) -> int | None:
        return self.encoder.dim if self.encoder is not None else None

    def tensors(self) -> dict[str, np.ndarray]:
        """Live views of every learnable tensor, keyed by stable names."""
        out = {name: getattr(self, name) for name in _TABLES
               if getattr(self, name) is not None}
        if self.encoder is not None:
            out.update(self.encoder.tensors())
        return out

    def count_parameters(self) -> int:
        return sum(t.size for t in self.tensors().values())


def param_layout(
    variant: Variant | str,
    num_entities: int,
    num_relations: int,
    rank: int,
    dim_entity: int,
    dim_relation: int | None = None,
    dim_time: int | None = None,
    encoder: str | None = "ste",
    num_timestamps: int | None = None,
) -> dict[str, tuple[int, int]]:
    """Name and shape of every learnable tensor, in :meth:`ModelParams.tensors` order.

    ``num_relations`` counts original relations; tables are sized for the
    reciprocal-augmented index space ``[0, 2 * num_relations)``. An unset
    ``dim_relation`` defaults to ``dim_entity``, an unset ``dim_time`` to
    ``dim_relation``; ``encoder`` (one of :data:`ENCODERS`) is optional for
    ``lowfer`` only. Raises :class:`ConfigError` for a model no variant can build.
    """
    if isinstance(variant, str):
        variant = Variant.from_string(variant)
    dim_relation = dim_entity if dim_relation is None else dim_relation
    dim_time = dim_relation if dim_time is None else dim_time
    if min(num_entities, num_relations, rank, dim_entity, dim_relation, dim_time) < 1:
        raise ConfigError("entity/relation counts, dims and rank must be positive")
    if variant is Variant.FTP and rank != 1:
        raise ConfigError(f"ftp requires rank 1, got {rank}")
    if variant in (Variant.T, Variant.TNT) and dim_time != dim_relation:
        raise ConfigError(
            f"modulation needs dim_time == dim_relation, got {dim_time} != {dim_relation}"
        )
    if encoder not in ENCODERS and (encoder is not None or variant.uses_time):
        raise ConfigError(f"unknown encoder {encoder!r} (expected one of: {', '.join(ENCODERS)})")

    width = rank * dim_entity
    layout = {
        "entity": (num_entities, dim_entity),
        "relation": (2 * num_relations, dim_relation),
        "subject_proj": (dim_entity, width),
        "relation_proj": (dim_relation, width),
    }
    if variant is Variant.TNT:
        layout["relation_static"] = (2 * num_relations, dim_relation)
    if variant in (Variant.CFB, Variant.FTP):
        layout["time_proj"] = (dim_time, width)
    if variant is Variant.CFB:
        layout["chain_proj"] = (width, width)
    if variant.uses_time and encoder == SimpleTimeEncoder.kind:
        if num_timestamps is None:
            raise ConfigError("ste encoder needs num_timestamps")
        layout["time"] = (num_timestamps, dim_time)
    elif variant.uses_time:
        for comp, card in cycle_cardinalities().items():
            layout[f"time_{comp}"] = (card, dim_time)
    return layout


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(
    variant: Variant | str,
    num_entities: int,
    num_relations: int,
    rank: int,
    dim_entity: int,
    dim_relation: int | None = None,
    dim_time: int | None = None,
    encoder: str = "ste",
    num_timestamps: int | None = None,
    dates=None,
    rng: np.random.Generator | None = None,
) -> ModelParams:
    """Build a freshly initialized parameter set shaped by :func:`param_layout`.

    Tensors are drawn in layout order. Embedding and time tables start at
    Normal(0, 0.05); projections are Xavier-uniform; the chain projection
    starts at identity plus small noise so the chained variant begins near
    its trilinear specialization.
    """
    if isinstance(variant, str):
        variant = Variant.from_string(variant)
    if rng is None:
        rng = np.random.default_rng(0)
    layout = param_layout(variant, num_entities, num_relations, rank, dim_entity,
                          dim_relation, dim_time, encoder, num_timestamps)
    tensors = {}
    for name, shape in layout.items():
        if name == "chain_proj":
            tensors[name] = rng.normal(0.0, INIT_CHAIN_NOISE, size=shape)
            # identity plus noise, added in place: 1.0 + n rounds as in eye + n
            tensors[name].reshape(-1)[::shape[0] + 1] += 1.0
        elif name.endswith("_proj"):
            tensors[name] = _xavier(rng, *shape)
        else:
            tensors[name] = rng.normal(0.0, INIT_EMBED_SCALE, size=shape)
    return ModelParams.from_tensors(variant, rank, tensors, encoder, dates)


# ---------------------------------------------------------------------------
# fusion helpers and 1-N scoring
# ---------------------------------------------------------------------------

def _project_distinct(subj: np.ndarray, first: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """``subj[first] @ proj``, each row rounded as in ``subj @ proj``.

    numpy multiplies a lone row by gemv, whose sums round differently from
    gemm's; a batch of several rows with one distinct subject projects that
    subject twice to stay on gemm.

    The rows are written to the front of a buffer with a row per batch
    row, so the size of the allocation is fixed by the batch's shape, not
    by how many subjects it holds; rows past the distinct ones are never
    written. Sizes that follow the data would let glibc's malloc move its
    mmap threshold from batch to batch and keep freed blocks in its heap,
    so the resident peak would depend on the data (by about 20 MB across
    dataset seeds in benchmark evaluation).
    """
    out = np.empty((subj.shape[0], proj.shape[1]))
    if first.size == 1 < subj.shape[0]:
        return np.matmul(subj[first[[0, 0]]], proj, out=out[:2])[:1]
    return np.matmul(subj[first], proj, out=out[:first.size])


def _product_pool(x: np.ndarray, index: np.ndarray, y: np.ndarray, keep: np.ndarray | None,
                  rate: float, rank: int) -> np.ndarray:
    """``pool_rows(x[index] * y)`` with the input keep-mask applied before pooling.

    Rows are gathered, formed, masked and pooled a cache-sized block at a
    time, so neither ``x[index]`` nor the full product ever exists; each
    row is pooled by :func:`pool_rows` as a whole, so the result does not
    depend on the block size.
    """
    n, width = y.shape
    rows = max(1, _CHUNK // width)
    g = np.empty((n, width // rank))
    scratch = np.empty(min(n, rows) * width)
    for start in range(0, n, rows):
        h = take_rows(x, index[start:start + rows], scratch)
        h *= y[start:start + rows]
        if keep is not None:
            _apply_keep(h, keep[start:start + rows], rate)
        g[start:start + rows] = pool_rows(h, rank)
    return g


def _times_dh(out: np.ndarray, dg: np.ndarray, keep: np.ndarray | None, rate: float,
              rank: int, table: np.ndarray | None = None,
              index: np.ndarray | None = None) -> np.ndarray:
    """``out *= dh`` in place, where ``dh`` is ``np.repeat(dg, rank, axis=1)``
    with the input keep-mask applied; given ``table``, ``out`` first takes
    ``table[index]``, so that it ends as ``table[index] * dh``.

    ``dh`` is formed a cache-sized row block at a time, broadcast from
    ``dg`` and masked, so it never exists whole and costs no B x W array
    however often backward needs it.
    """
    n, width = out.shape
    rows = max(1, _CHUNK // width)
    scratch = np.empty(min(n, rows) * width)
    for start in range(0, n, rows):
        block = out[start:start + rows]
        dh = scratch[:block.size].reshape(block.shape)
        np.copyto(dh.reshape(block.shape[0], -1, rank), dg[start:start + rows, :, None])
        if keep is not None:
            _apply_keep(dh, keep[start:start + rows], rate)
        if table is not None:
            take_rows(table, index[start:start + rows], block.reshape(-1))
        block *= dh
    return out


def score_all(fused, entity_table) -> np.ndarray:
    """Dot a (B, d) batch of fused query vectors against every row of an
    (E, d) entity table: the (B, E) logits, in the dtype the data has."""
    g, table = np.asarray(fused), np.asarray(entity_table)
    if g.ndim != 2 or table.ndim != 2 or g.shape[1] != table.shape[1]:
        raise ShapeError(f"expected a (B, d) batch and an (E, d) table, "
                         f"got {g.shape} and {table.shape}")
    return g @ table.T


# ---------------------------------------------------------------------------
# batched forward/backward with caching
# ---------------------------------------------------------------------------

@dataclass
class FusedBatch:
    """Forward intermediates for one batch, kept for the backward pass."""

    s_idx: np.ndarray           # batch indices
    p_idx: np.ndarray
    t_idx: np.ndarray | None
    subj: np.ndarray            # entity rows of the subjects
    rel: np.ndarray             # relation rows (temporal table)
    rel_in: np.ndarray          # vector actually fed into relation_proj
    time: np.ndarray | None     # encoded time embeddings
    a_unique: np.ndarray        # subject projection of each distinct subject
    a_index: np.ndarray         # batch row -> its subject's row of a_unique
    b: np.ndarray               # relation projection
    c: np.ndarray | None        # time projection (cfb/ftp)
    inner: np.ndarray | None    # b . c before the chain projection
    w: np.ndarray | None        # chain output (cfb) or inner (ftp)
    keep_input: np.ndarray | None   # bool dropout keep-masks, drawn in training only
    keep_hidden: np.ndarray | None
    dropout_input: float
    dropout_hidden: float
    g: np.ndarray               # fused query vectors, dropout applied


class Model:
    """Bundles parameters with the batched forward/backward passes."""

    def __init__(self, params: ModelParams):
        self.params = params

    def fuse(self, s_idx, p_idx, t_idx=None, *, training: bool = False,
             dropout_input: float = 0.0, dropout_hidden: float = 0.0,
             rng: np.random.Generator | None = None) -> FusedBatch:
        """Fused query vectors for a batch of (s, p, t) keys, by the module's variant rules.

        The subject projection is formed once per distinct subject. Dropout is
        sampled only when ``training`` is true: the product before pooling gets
        the input rate, the pooled vector the hidden rate, both inverted
        (survivors scaled by 1/(1-rate)).
        """
        p = self.params
        variant = p.variant
        s_idx = np.asarray(s_idx, dtype=np.int64)
        p_idx = np.asarray(p_idx, dtype=np.int64)
        time = None
        if variant.uses_time:
            if t_idx is None:
                raise ShapeError(f"variant {variant.value} needs timestamp indices")
            t_idx = np.asarray(t_idx, dtype=np.int64)
            time = p.encoder.encode_batch(t_idx)
        _, first, inverse = np.unique(s_idx, return_index=True, return_inverse=True)
        subj, rel = p.entity[s_idx], p.relation[p_idx]
        if variant is Variant.T:
            rel_in = rel * time
        elif variant is Variant.TNT:
            rel_in = rel * time + p.relation_static[p_idx]
        else:  # lowfer; cfb / ftp fuse relation and time after projection
            rel_in = rel

        a_unique = _project_distinct(subj, first, p.subject_proj)
        b = rel_in @ p.relation_proj
        c = inner = w = None
        if variant in (Variant.CFB, Variant.FTP):
            c = time @ p.time_proj
            inner = b * c
            w = inner @ p.chain_proj if variant is Variant.CFB else inner

        keep_input = _dropout_keep(b.shape, dropout_input, training, rng)
        g = _product_pool(a_unique, inverse, b if w is None else w, keep_input, dropout_input,
                          p.rank)
        keep_hidden = _dropout_keep(g.shape, dropout_hidden, training, rng)
        if keep_hidden is not None:
            _apply_keep(g, keep_hidden, dropout_hidden)
        return FusedBatch(s_idx=s_idx, p_idx=p_idx, t_idx=t_idx, subj=subj, rel=rel, rel_in=rel_in,
                          time=time, a_unique=a_unique, a_index=inverse, b=b, c=c, inner=inner,
                          w=w, keep_input=keep_input, keep_hidden=keep_hidden, g=g,
                          dropout_input=dropout_input, dropout_hidden=dropout_hidden)

    def forward(self, s_idx, p_idx, t_idx=None, **kwargs) -> tuple[np.ndarray, FusedBatch]:
        """Fused vectors scored against all entities: (logits, cache)."""
        cache = self.fuse(s_idx, p_idx, t_idx, **kwargs)
        return score_all(cache.g, self.params.entity), cache

    def backward(self, inputs: dict) -> dict[str, np.ndarray]:
        """Gradients of the loss for every parameter tensor.

        ``inputs`` holds the fields of one batch's :class:`FusedBatch` by
        name, plus ``dlogits``, which must match the batch. Backward owns
        them: it empties the dict and drops each array after its last read,
        writing ``da`` and then ``dy`` over ``b`` (lowfer/t/tnt) or ``w``
        (cfb/ftp) and, for cfb/ftp, ``db`` over ``c``. A caller that reads
        the batch afterwards passes copies of those three. Entities collect
        two contributions: as subjects (scattered per row) and as scoring
        candidates (dense). Embedding tables a batch only partly touches get
        zero rows.
        Projection gradients come straight from their matmul, so an exact
        zero there may be ``-0.0``.
        """
        p = self.params
        take = inputs.pop
        dlogits = take("dlogits")
        g = take("g")
        if dlogits.shape != (g.shape[0], p.num_entities):
            raise ShapeError(
                f"dlogits shape {dlogits.shape} does not match batch "
                f"({g.shape[0]}, {p.num_entities})"
            )
        tensors = p.tensors()
        grads = {name: np.zeros_like(tensors[name]) for name in _SCATTERED_GRADS
                 if name in tensors}
        # logits = g @ entity^T; the subject rows are scattered in below
        grads["entity"] = dlogits.T @ g
        dg = dlogits @ p.entity
        del dlogits, g

        # dg is updated in place; an input read once is popped where it is
        # read, so it goes when that statement ends
        keep = take("keep_hidden")
        if keep is not None:
            _apply_keep(dg, keep, take("dropout_hidden"))
        keep, rate = take("keep_input"), take("dropout_input")

        # g pools a[a_index] * y, where y is w for cfb/ftp and b otherwise;
        # with dh = d(a[a_index] * y), da = y * dh goes over y (ftp's w is its
        # inner, which nothing reads again) and, once da is read, dy = dh *
        # a[a_index] over da; _times_dh forms dh twice rather than hold it
        chained = p.variant in (Variant.CFB, Variant.FTP)
        y = take("w") if chained else take("b")
        if p.variant is Variant.FTP:
            del inputs["inner"]
        da = _times_dh(y, dg, keep, rate, p.rank)
        del y
        grads["subject_proj"] = take("subj").T @ da
        dsubj = da @ p.subject_proj.T
        dy = _times_dh(da, dg, keep, rate, p.rank, take("a_unique"), take("a_index"))
        del da, dg, keep

        # for cfb/ftp, dy becomes d(inner), inner = b * c; db goes over c
        dtime = None
        if chained:
            if p.variant is Variant.CFB:
                grads["chain_proj"] = take("inner").T @ dy
                dy = dy @ p.chain_proj.T
            c = take("c")
            db = np.multiply(dy, c, out=c)
            del c
            dc = np.multiply(dy, take("b"), out=dy)
            grads["time_proj"] = take("time").T @ dc
            dtime = dc @ p.time_proj.T
            del dc
        else:
            db = dy
        del dy

        grads["relation_proj"] = take("rel_in").T @ db
        drel_in = db @ p.relation_proj.T
        del db
        if p.variant in (Variant.T, Variant.TNT):
            if p.variant is Variant.TNT:
                np.add.at(grads["relation_static"], inputs["p_idx"], drel_in)
            drel = drel_in * take("time")
            dtime = np.multiply(drel_in, take("rel"), out=drel_in)
        else:
            drel = drel_in

        np.add.at(grads["entity"], take("s_idx"), dsubj)
        np.add.at(grads["relation"], take("p_idx"), drel)
        if dtime is not None:
            p.encoder.scatter_grad(take("t_idx"), dtime, grads)
        inputs.clear()  # what is left is unused: None fields, dropout rates
        return {name: grads[name] for name in tensors}


def _dropout_keep(shape, rate: float, training: bool,
                  rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout keep-mask: False with probability ``rate``.

    ``None`` when nothing is dropped (eval mode or rate 0). The rate is
    validated first, whatever the mode. The uniforms are drawn a chunk at
    a time, in the order ``rng.random(shape)`` draws them.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ConfigError("training-mode dropout needs a random generator")
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    uniform = np.empty(min(_CHUNK, flat.size))
    for start in range(0, flat.size, _CHUNK):
        u = rng.random(out=uniform[:min(_CHUNK, flat.size - start)])
        np.greater_equal(u, rate, out=flat[start:start + u.size])
    return keep


def _apply_keep(x: np.ndarray, keep: np.ndarray, rate: float) -> None:
    """``x *= keep / (1 - rate)`` in place.

    Zeroing then scaling rounds exactly as one multiply by the float mask.
    Callers pass one row block or a B x d array, so both passes stay in cache.
    """
    x *= keep
    x *= 1.0 / (1.0 - rate)

