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
other projections. One core, :func:`_fuse`, states these rules: both
:meth:`Model.fuse` and the free ``fuse_*`` functions run it. Gradients are
hand-derived; every parameter path is exercised by finite-difference
checks in the test suite.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .time_encoding import (
    COMPONENTS,
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

# Tensors whose gradient one matmul assigns whole; every other gradient is
# scattered row by row into a zero-filled table.
_MATMUL_GRADS = ("entity", "subject_proj", "relation_proj", "time_proj", "chain_proj")


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

def _rows(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ShapeError(f"expected vector or batch of vectors, got shape {arr.shape}")


def pool_rows(x: np.ndarray, rank: int) -> np.ndarray:
    """Window summation along the last axis; inverse of gradient expansion."""
    n, width = x.shape
    if width % rank != 0:
        raise ShapeError(f"cannot pool width {width} with rank {rank}")
    return x.reshape(n, width // rank, rank).sum(axis=2)


def expand_pool_grad(upstream: np.ndarray, rank: int) -> np.ndarray:
    return np.repeat(upstream, rank, axis=1)


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
        if variant.uses_time and encoder == "ste":
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

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(t) for name, t in self.tensors().items()}

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
    ``dim_relation``. Raises :class:`ConfigError` for a model no variant
    can build.
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
    if variant.uses_time:
        if encoder == "ste":
            if num_timestamps is None:
                raise ConfigError("ste encoder needs num_timestamps")
            layout["time"] = (num_timestamps, dim_time)
        elif encoder == "cte":
            for comp, card in cycle_cardinalities().items():
                layout[f"time_{comp}"] = (card, dim_time)
        else:
            raise ConfigError(f"unknown encoder {encoder!r} (expected 'ste' or 'cte')")
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
            tensors[name] = np.eye(shape[0]) + rng.normal(0.0, INIT_CHAIN_NOISE, size=shape)
        elif name.endswith("_proj"):
            tensors[name] = _xavier(rng, *shape)
        else:
            tensors[name] = rng.normal(0.0, INIT_EMBED_SCALE, size=shape)
    return ModelParams.from_tensors(variant, rank, tensors, encoder, dates)


# ---------------------------------------------------------------------------
# fusion: one core for the model and the free functions
# ---------------------------------------------------------------------------

@dataclass
class FusedBatch:
    """Forward intermediates for one batch, kept for the backward pass."""

    subj: np.ndarray            # entity rows of the subjects
    rel: np.ndarray             # relation rows (temporal table)
    rel_in: np.ndarray          # vector actually fed into relation_proj
    time: np.ndarray | None     # encoded time embeddings
    a: np.ndarray               # subject projection
    b: np.ndarray               # relation projection
    c: np.ndarray | None        # time projection (cfb/ftp)
    inner: np.ndarray | None    # b . c before the chain projection
    w: np.ndarray | None        # chain output (cfb) or inner (ftp)
    mask_input: np.ndarray | None
    mask_hidden: np.ndarray | None
    g: np.ndarray               # fused query vectors, dropout applied
    s_idx: np.ndarray | None = None  # batch indices, set by Model.fuse
    p_idx: np.ndarray | None = None
    t_idx: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.g.shape[0]


def _fuse(params: ModelParams, subj, rel, time, rel_static, *, training: bool = False,
          dropout_input: float = 0.0, dropout_hidden: float = 0.0,
          rng: np.random.Generator | None = None) -> FusedBatch:
    """The variant rules on 2-D rows; only the projections of ``params`` are read.

    Dropout is only sampled when ``training`` is true: the combined product
    before pooling gets the input rate, the pooled vector the hidden rate,
    both inverted (survivors scaled by 1/(1-rate)).
    """
    variant = params.variant
    if variant is Variant.T:
        rel_in = rel * time
    elif variant is Variant.TNT:
        rel_in = rel * time + rel_static
        # Model.fuse keeps no reference to these rows: free them before the wide products
        del rel_static
    else:  # lowfer; cfb / ftp fuse relation and time after projection
        rel_in = rel

    a = subj @ params.subject_proj
    b = rel_in @ params.relation_proj
    c = inner = w = None
    if variant in (Variant.CFB, Variant.FTP):
        c = time @ params.time_proj
        inner = b * c
        w = inner @ params.chain_proj if variant is Variant.CFB else inner
        h = a * w
    else:
        h = a * b

    # h and g are fresh temporaries, so the masks apply in place
    mask_input = _dropout_mask(h.shape, dropout_input, training, rng)
    if mask_input is not None:
        h *= mask_input
    g = pool_rows(h, params.rank)
    mask_hidden = _dropout_mask(g.shape, dropout_hidden, training, rng)
    if mask_hidden is not None:
        g *= mask_hidden

    return FusedBatch(subj=subj, rel=rel, rel_in=rel_in, time=time, a=a, b=b, c=c,
                      inner=inner, w=w, mask_input=mask_input,
                      mask_hidden=mask_hidden, g=g)


def _fuse_vectors(variant: Variant, rank: int, subj, rel, time=None, rel_static=None,
                  **projections) -> np.ndarray:
    """:func:`_fuse` on vectors or batches; 1-D subjects give 1-D results."""
    s, single = _rows(subj)
    rows = [None if x is None else _rows(x)[0] for x in (rel, time, rel_static)]
    weights = ModelParams(variant, rank, entity=None, relation=None, **projections)
    g = _fuse(weights, s, *rows).g
    return g[0] if single else g


def fuse_lowfer(subj, rel, subject_proj, relation_proj, rank: int) -> np.ndarray:
    return _fuse_vectors(Variant.LOWFER, rank, subj, rel, subject_proj=subject_proj,
                         relation_proj=relation_proj)


def fuse_t(subj, rel, time, subject_proj, relation_proj, rank: int) -> np.ndarray:
    r, tv = _rows(rel)[0], _rows(time)[0]
    if r.shape != tv.shape:
        raise ShapeError(f"relation shape {r.shape} != time shape {tv.shape}")
    return _fuse_vectors(Variant.T, rank, subj, r, tv, subject_proj=subject_proj,
                         relation_proj=relation_proj)


def fuse_tnt(subj, rel_temporal, rel_static, time,
             subject_proj, relation_proj, rank: int) -> np.ndarray:
    return _fuse_vectors(Variant.TNT, rank, subj, rel_temporal, time, rel_static,
                         subject_proj=subject_proj, relation_proj=relation_proj)


def fuse_cfb(subj, rel, time, subject_proj, relation_proj, time_proj,
             chain_proj, rank: int) -> np.ndarray:
    return _fuse_vectors(Variant.CFB, rank, subj, rel, time, subject_proj=subject_proj,
                         relation_proj=relation_proj, time_proj=time_proj,
                         chain_proj=chain_proj)


def fuse_ftp(subj, rel, time, subject_proj, relation_proj, time_proj) -> np.ndarray:
    return _fuse_vectors(Variant.FTP, 1, subj, rel, time, subject_proj=subject_proj,
                         relation_proj=relation_proj, time_proj=time_proj)


def score_all(fused, entity_table) -> np.ndarray:
    """Dot the fused query vector(s) against every entity row (logits)."""
    g, single = _rows(fused)
    table = np.asarray(entity_table, dtype=np.float64)
    if g.shape[1] != table.shape[1]:
        raise ShapeError(
            f"fused dim {g.shape[1]} != entity dim {table.shape[1]}"
        )
    logits = g @ table.T
    return logits[0] if single else logits


# ---------------------------------------------------------------------------
# batched forward/backward with caching
# ---------------------------------------------------------------------------

class Model:
    """Bundles parameters with the batched forward/backward passes."""

    def __init__(self, params: ModelParams):
        self.params = params

    @property
    def variant(self) -> Variant:
        return self.params.variant

    def fuse(self, s_idx, p_idx, t_idx=None, *, training: bool = False,
             dropout_input: float = 0.0, dropout_hidden: float = 0.0,
             rng: np.random.Generator | None = None) -> FusedBatch:
        """Fused query vectors for a batch of (s, p, t) keys.

        Gathers the batch's rows and runs the variant rules and dropout of
        :func:`_fuse`, the core the free ``fuse_*`` functions share.
        """
        p = self.params
        s_idx = np.asarray(s_idx, dtype=np.int64)
        p_idx = np.asarray(p_idx, dtype=np.int64)
        time = None
        if p.variant.uses_time:
            if t_idx is None:
                raise ShapeError(f"variant {p.variant.value} needs timestamp indices")
            t_idx = np.asarray(t_idx, dtype=np.int64)
            time = p.encoder.encode_batch(t_idx)
        batch = _fuse(p, p.entity[s_idx], p.relation[p_idx], time,
                      p.relation_static[p_idx] if p.variant is Variant.TNT else None,
                      training=training, dropout_input=dropout_input,
                      dropout_hidden=dropout_hidden, rng=rng)
        batch.s_idx, batch.p_idx, batch.t_idx = s_idx, p_idx, t_idx
        return batch

    def forward(self, s_idx, p_idx, t_idx=None, **kwargs) -> tuple[np.ndarray, FusedBatch]:
        """Fused vectors scored against all entities: (logits, cache)."""
        cache = self.fuse(s_idx, p_idx, t_idx, **kwargs)
        return score_all(cache.g, self.params.entity), cache

    def backward(self, cache: FusedBatch, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the loss for every parameter tensor.

        ``dlogits`` must match the cached batch. Entities collect two
        contributions: as subjects (scattered per row) and as scoring
        candidates (dense). Embedding tables a batch only partly touches
        get zero rows. Projection gradients come straight from their
        matmul, so an exact zero there may be ``-0.0``.
        """
        p = self.params
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.shape != (cache.size, p.num_entities):
            raise ShapeError(
                f"dlogits shape {dlogits.shape} does not match batch "
                f"({cache.size}, {p.num_entities})"
            )
        tensors = p.tensors()
        grads = {name: np.zeros_like(t) for name, t in tensors.items()
                 if name not in _MATMUL_GRADS}
        # logits = g @ entity^T; the subject rows are scattered in below
        grads["entity"] = dlogits.T @ cache.g

        # dg and dh are fresh temporaries, updated in place from here on
        dg = dlogits @ p.entity
        if cache.mask_hidden is not None:
            dg *= cache.mask_hidden
        dh = expand_pool_grad(dg, p.rank)
        if cache.mask_input is not None:
            dh *= cache.mask_input

        if p.variant in (Variant.CFB, Variant.FTP):
            da = dh * cache.w
            dw = np.multiply(dh, cache.a, out=dh)
            if p.variant is Variant.CFB:
                grads["chain_proj"] = cache.inner.T @ dw
                dinner = dw @ p.chain_proj.T
            else:
                dinner = dw
            db = dinner * cache.c
            dc = np.multiply(dinner, cache.b, out=dinner)
            grads["time_proj"] = cache.time.T @ dc
            dtime = dc @ p.time_proj.T
        else:
            da = dh * cache.b
            db = np.multiply(dh, cache.a, out=dh)
            dtime = None

        grads["relation_proj"] = cache.rel_in.T @ db
        drel_in = db @ p.relation_proj.T
        if p.variant in (Variant.T, Variant.TNT):
            if p.variant is Variant.TNT:
                np.add.at(grads["relation_static"], cache.p_idx, drel_in)
            drel = drel_in * cache.time
            dtime = np.multiply(drel_in, cache.rel, out=drel_in)
        else:
            drel = drel_in

        grads["subject_proj"] = cache.subj.T @ da
        dsubj = da @ p.subject_proj.T

        np.add.at(grads["entity"], cache.s_idx, dsubj)
        np.add.at(grads["relation"], cache.p_idx, drel)
        if dtime is not None:
            p.encoder.scatter_grad(cache.t_idx, dtime, grads)
        return {name: grads[name] for name in tensors}

    def count_parameters(self) -> int:
        return self.params.count_parameters()


def _dropout_mask(shape, rate: float, training: bool,
                  rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout mask: 0 with probability ``rate``, else 1/(1-rate).

    ``None`` when nothing is dropped (eval mode or rate 0). The rate is
    validated first, whatever the mode.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ConfigError("training-mode dropout needs a random generator")
    # the uniform draws become the mask in place: keep >= rate, then scale
    mask = rng.random(shape)
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return mask
