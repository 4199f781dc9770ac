"""Filtered link-prediction evaluation: MRR, MR, Hits@k.

The paper's protocol (§VI-A): for each test triple, corrupt the head and
the tail against candidate entities, rank the true entity by model score,
and report Mean Reciprocal Rank, Mean Rank, and Hits@{1,3,10} under the
*filtered* setting — candidates that form a known true triple are excluded
from the ranking.

For large graphs the candidate set can be a uniform sample of entities
(plus the true one); this keeps evaluation tractable and, because every
compared system is scored the same way, preserves relative orderings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.models.base import KGEModel
from repro.utils.rng import make_rng


@dataclass
class LinkPredictionResult:
    """Aggregated ranking metrics over all queries.

    ``head_mrr``/``tail_mrr`` break the score down by corruption side —
    tail prediction is usually easier on relation-skewed graphs, and the
    gap is a useful diagnostic.
    """

    mrr: float
    mr: float
    hits: dict[int, float] = field(default_factory=dict)
    num_queries: int = 0
    head_mrr: float = 0.0
    tail_mrr: float = 0.0

    def as_row(self) -> list[float]:
        """[MRR, Hits@1, Hits@10] — the columns of the paper's tables."""
        return [self.mrr, self.hits.get(1, 0.0), self.hits.get(10, 0.0)]


def _rank_one_side(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    h: int,
    r: int,
    t: int,
    replace_head: bool,
    candidates: np.ndarray,
    filter_index: "FilterIndex | None",
) -> int:
    """Filtered rank of the true entity for one corruption side."""
    true_entity = h if replace_head else t
    cand_rows = entity_table[candidates]
    n = len(candidates)
    if replace_head:
        h_rows = cand_rows
        t_rows = np.broadcast_to(entity_table[t], (n, entity_table.shape[1]))
    else:
        h_rows = np.broadcast_to(entity_table[h], (n, entity_table.shape[1]))
        t_rows = cand_rows
    r_rows = np.broadcast_to(relation_table[r], (n, relation_table.shape[1]))
    scores = model.score(np.ascontiguousarray(h_rows), np.ascontiguousarray(r_rows), np.ascontiguousarray(t_rows))

    true_mask = candidates == true_entity
    true_score = model.score(
        entity_table[h][None, :], relation_table[r][None, :], entity_table[t][None, :]
    )[0]

    if filter_index is not None:
        known = filter_index.known_entities(h, r, t, replace_head)
        if len(known):
            drop = np.isin(candidates, known) & ~true_mask
            scores = np.where(drop, -np.inf, scores)
    # Rank = 1 + number of (non-true) candidates scoring strictly higher.
    better = np.count_nonzero(scores[~true_mask] > true_score)
    return 1 + int(better)


#: Bits for the second id of a pair key ``(a << 32) | b``.  Covering every
#: id below 2**31, not just those in the filter set, keeps keys unique for
#: query ids the set has never seen (stream runs grow the entity table).
_PAIR_SHIFT = 32
_ID_LIMIT = 1 << 31


def _pair_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) << _PAIR_SHIFT) | b


class FilterIndex:
    """Known true triples for filtered ranking, as one CSR map per side.

    Head corruption looks up the query's fixed ``(r, t)`` pair, tail
    corruption its ``(h, r)`` pair.  Each side sorts the pair keys once;
    ``offsets[i]:offsets[i + 1]`` slices ``entities`` for the ``i``-th
    distinct key, ascending.  A block of queries is then one
    ``searchsorted`` (:meth:`known_pairs`).
    """

    def __init__(self, filter_set: set[tuple[int, int, int]]) -> None:
        flat = itertools.chain.from_iterable(filter_set)
        triples = np.fromiter(flat, np.int64, 3 * len(filter_set)).reshape(-1, 3)
        if triples.size and (triples.min() < 0 or triples.max() >= _ID_LIMIT):
            raise ValueError(f"filter ids must lie in [0, {_ID_LIMIT})")
        h, r, t = triples.T
        self._sides = {True: _csr(r, t, h), False: _csr(h, r, t)}

    def known_pairs(
        self, triples: np.ndarray, replace_head: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(row, entity)`` for every known completion of every query.

        ``row`` indexes ``triples``; ``entity`` completes a filter-set triple
        with that query's fixed pair.  Rows come out ascending, and entities
        ascending within a row.
        """
        keys, offsets, entities = self._sides[replace_head]
        if replace_head:
            query = _pair_key(triples[:, 1], triples[:, 2])
        else:
            query = _pair_key(triples[:, 0], triples[:, 1])
        pos = np.searchsorted(keys, query)
        starts = offsets[pos]
        counts = np.where(keys[pos] == query, offsets[pos + 1] - starts, 0)
        rows = np.repeat(np.arange(len(query)), counts)
        # Position of each output entry inside its own key's slice.
        within = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        return rows, entities[starts[rows] + within]

    def known_entities(
        self, h: int, r: int, t: int, replace_head: bool
    ) -> np.ndarray:
        """Entities ``e`` with ``(e, r, t)`` (head side) or ``(h, r, e)``
        (tail side) in the filter set."""
        query = np.array([[h, r, t]], dtype=np.int64)
        return self.known_pairs(query, replace_head)[1]


def _csr(
    a: np.ndarray, b: np.ndarray, entities: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct ``(a, b)`` keys, their offsets and their entities.

    A final sentinel key, larger than any pair key, owns an empty slice,
    so a ``searchsorted`` position always indexes both arrays.
    """
    keys = _pair_key(a, b)
    order = np.lexsort((entities, keys))
    keys = keys[order]
    distinct, starts = np.unique(keys, return_index=True)
    return (
        np.append(distinct, np.iinfo(np.int64).max),
        np.append(starts, [len(keys), len(keys)]),
        entities[order],
    )


def _full_ranks_reference(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    replace_head: bool,
    filter_index: "FilterIndex | None",
) -> list[int]:
    """Per-query full-candidate ranks — the equivalence oracle.

    This is the pre-vectorization implementation, kept verbatim (one
    ``_rank_one_side`` call per query) so the batched production kernels
    can be checked against it bit for bit.
    """
    candidates = np.arange(len(entity_table))
    return [
        _rank_one_side(
            model,
            entity_table,
            relation_table,
            int(h),
            int(r),
            int(t),
            replace_head,
            candidates,
            filter_index,
        )
        for h, r, t in triples
    ]


#: Bytes of score input (head, relation and tail rows) per block.  Small
#: enough that a block and the model's elementwise temporaries stay in a
#: per-core L2 cache; picked by a sweep (see docs/performance.md).
_BLOCK_BYTES = 1 << 19


def _block_rows(entity_table: np.ndarray, relation_table: np.ndarray) -> int:
    """Score rows per block, derived from the bytes of one score row."""
    row_bytes = (
        2 * entity_table.shape[1] * entity_table.itemsize
        + relation_table.shape[1] * relation_table.itemsize
    )
    return max(1, _BLOCK_BYTES // row_bytes)


def _ranks_batched(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    replace_head: bool,
    filter_index: "FilterIndex | None",
    block_rows: int | None = None,
) -> list[int]:
    """Full-candidate ranks for one corruption side, many queries at once.

    Scores ``(queries x all entities)`` through the model in blocks of
    whole queries, at most ``block_rows`` score rows each (one query if a
    query alone is larger; default: :func:`_block_rows`).  The candidate
    side of a block is the entity table tiled once per query, the fixed
    side and the relation rows are repeated once per candidate, so no
    block row is gathered by id.  Ranks are bit-identical to
    :func:`_full_ranks_reference` (scores are the same per-row
    arithmetic, only the batching differs).
    """
    n_ent = len(entity_table)
    if block_rows is None:
        block_rows = _block_rows(entity_table, relation_table)
    queries_per_block = max(1, block_rows // n_ent)
    edges = np.append(np.arange(0, len(triples), queries_per_block), len(triples))
    true_entity = triples[:, 0] if replace_head else triples[:, 2]
    fixed_entity = triples[:, 2] if replace_head else triples[:, 0]
    rows = known = np.empty(0, dtype=np.int64)
    if filter_index is not None:
        rows, known = filter_index.known_pairs(triples, replace_head)
        # Filter ids past the table are not candidates; the true entity
        # is in every filter set but is never dropped.
        keep = (known < n_ent) & (known != true_entity[rows])
        rows, known = rows[keep], known[keep]
    cuts = np.searchsorted(rows, edges)
    ranks: list[int] = []
    for start, stop, lo, hi in zip(edges[:-1], edges[1:], cuts[:-1], cuts[1:]):
        q = stop - start
        candidates = np.tile(entity_table, (q, 1))
        fixed = np.repeat(entity_table[fixed_entity[start:stop]], n_ent, axis=0)
        r_rows = np.repeat(relation_table[triples[start:stop, 1]], n_ent, axis=0)
        if replace_head:
            scores = model.score(candidates, r_rows, fixed).reshape(q, n_ent)
        else:
            scores = model.score(fixed, r_rows, candidates).reshape(q, n_ent)
        true_scores = scores[np.arange(q), true_entity[start:stop]]
        scores[rows[lo:hi] - start, known[lo:hi]] = -np.inf
        better = (scores > true_scores[:, None]).sum(axis=1)
        # The true entity never counts (its score is never > itself).
        ranks.extend((1 + better).tolist())
    return ranks


def _ranks_sampled_batched(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    num_candidates: int,
    filter_index: "FilterIndex | None",
    rng: np.random.Generator,
    block_rows: int | None = None,
) -> tuple[list[int], list[int]]:
    """Sampled-candidate ranks for both sides, scored in blocks.

    The reference path draws one candidate sample per (query, side) pair
    interleaved — head then tail per triple — and that draw order is part
    of the determinism contract.  This kernel therefore keeps *exactly*
    the reference's RNG consumption (same per-query ``rng.choice`` calls,
    same order) in a cheap first pass, then batches all model scoring:
    candidate rows are padded to a rectangle with each query's true entity
    (pads fall inside the true-entity mask, so they never affect ranks)
    and scored in flat blocks of at most ``block_rows`` rows (default:
    :func:`_block_rows`).

    Ranks are bit-identical to the per-query reference: per-row score
    arithmetic is unchanged, filtering applies the same ``-inf`` masking,
    and the strictly-greater count ignores every true-entity copy.
    """
    num_entities = len(entity_table)
    if block_rows is None:
        block_rows = _block_rows(entity_table, relation_table)
    per_side: dict[bool, list[np.ndarray]] = {True: [], False: []}
    for h, _, t in triples:
        for replace_head in (True, False):
            true_entity = int(h) if replace_head else int(t)
            sampled = rng.choice(num_entities, size=num_candidates, replace=False)
            per_side[replace_head].append(
                np.unique(np.append(sampled, true_entity))
            )
    # True-triple scores for every query, one batched call (the reference
    # scores the same (h, r, t) rows one at a time).
    true_scores = model.score(
        entity_table[triples[:, 0]],
        relation_table[triples[:, 1]],
        entity_table[triples[:, 2]],
    )
    head_ranks = _score_padded_candidates(
        model, entity_table, relation_table, triples, per_side[True],
        True, filter_index, true_scores, block_rows,
    )
    tail_ranks = _score_padded_candidates(
        model, entity_table, relation_table, triples, per_side[False],
        False, filter_index, true_scores, block_rows,
    )
    return head_ranks, tail_ranks


def _score_padded_candidates(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    cand_lists: list[np.ndarray],
    replace_head: bool,
    filter_index: "FilterIndex | None",
    true_scores: np.ndarray,
    block_rows: int,
) -> list[int]:
    """Rank one corruption side from per-query candidate id lists."""
    q_total = len(triples)
    width = max(len(c) for c in cand_lists)
    true_entities = triples[:, 0] if replace_head else triples[:, 2]
    cand = np.empty((q_total, width), dtype=np.int64)
    for i, c in enumerate(cand_lists):
        cand[i, : len(c)] = c
        cand[i, len(c):] = true_entities[i]  # pads; masked by the true rule
    # Sorted rows make the (row, candidate) keys of all queries ascending.
    cand.sort(axis=1)
    queries_per_block = max(1, block_rows // width)
    edges = np.append(np.arange(0, q_total, queries_per_block), q_total)
    dropped = np.empty(0, dtype=np.int64)  # flat (row, column) positions
    if filter_index is not None:
        rows, known = filter_index.known_pairs(triples, replace_head)
        keys = _pair_key(np.repeat(np.arange(q_total), width), cand.ravel())
        known_keys = _pair_key(rows, known)
        pos = np.minimum(np.searchsorted(keys, known_keys), len(keys) - 1)
        # A hit on the true entity is harmless: it never counts below.
        dropped = pos[keys[pos] == known_keys]
    cuts = np.searchsorted(dropped, edges * width)
    ranks: list[int] = []
    for start, stop, lo, hi in zip(edges[:-1], edges[1:], cuts[:-1], cuts[1:]):
        chunk = cand[start:stop]
        rep = np.repeat(np.arange(start, stop), width)
        flat = chunk.ravel()
        if replace_head:
            h_rows = entity_table[flat]
            t_rows = entity_table[triples[rep, 2]]
        else:
            h_rows = entity_table[triples[rep, 0]]
            t_rows = entity_table[flat]
        r_rows = relation_table[triples[rep, 1]]
        scores = model.score(h_rows, r_rows, t_rows)
        scores[dropped[lo:hi] - start * width] = -np.inf
        scores = scores.reshape(stop - start, width)
        block_true = true_scores[start:stop]
        not_true = chunk != true_entities[start:stop, None]
        better = ((scores > block_true[:, None]) & not_true).sum(axis=1)
        ranks.extend((1 + better).tolist())
    return ranks


def evaluate_link_prediction(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    test: KnowledgeGraph,
    filter_set: set[tuple[int, int, int]] | None = None,
    hits_at: tuple[int, ...] = (1, 3, 10),
    max_queries: int | None = None,
    num_candidates: int | None = None,
    seed: int | np.random.Generator | None = None,
    batched: bool = True,
) -> LinkPredictionResult:
    """Evaluate embeddings on ``test`` with head and tail corruption.

    Parameters
    ----------
    entity_table / relation_table:
        Global embedding matrices (from the parameter server).  Each is
        read once, as one dense snapshot (``np.asarray``): free for an
        ndarray or shared-memory table, an unmetered bulk copy for a
        tiered table, so ranking never reads through the tier's metering
        and hotness counters.
    filter_set:
        All known true triples (train+valid+test) for filtered ranking;
        ``None`` gives raw ranking.
    max_queries:
        Evaluate at most this many test triples (uniform subsample).
    num_candidates:
        Sample this many negative candidate entities per query instead of
        ranking against all entities (plus the true one).
    batched:
        Use the vectorized block-scoring kernels (the default).  Results
        are bit-identical to the per-query reference implementation
        (``batched=False``), which is kept as the equivalence oracle —
        see :func:`_full_ranks_reference` / :func:`_ranks_sampled_batched`.
    """
    entity_table = np.asarray(entity_table)
    relation_table = np.asarray(relation_table)
    rng = make_rng(seed)
    triples = test.triples
    if max_queries is not None and len(triples) > max_queries:
        idx = rng.choice(len(triples), size=max_queries, replace=False)
        triples = triples[idx]
    filter_index = FilterIndex(filter_set) if filter_set is not None else None

    num_entities = len(entity_table)
    full_ranking = num_candidates is None or num_candidates >= num_entities
    if batched and len(triples):
        if full_ranking:
            head_ranks = _ranks_batched(
                model, entity_table, relation_table, triples, True, filter_index
            )
            tail_ranks = _ranks_batched(
                model, entity_table, relation_table, triples, False, filter_index
            )
        else:
            head_ranks, tail_ranks = _ranks_sampled_batched(
                model,
                entity_table,
                relation_table,
                triples,
                num_candidates,
                filter_index,
                rng,
            )
        return _aggregate(head_ranks, tail_ranks, hits_at)

    head_ranks: list[int] = []
    tail_ranks: list[int] = []
    for h, r, t in triples:
        h, r, t = int(h), int(r), int(t)
        for replace_head in (True, False):
            true_entity = h if replace_head else t
            if num_candidates is not None and num_candidates < num_entities:
                sampled = rng.choice(num_entities, size=num_candidates, replace=False)
                candidates = np.unique(np.append(sampled, true_entity))
            else:
                candidates = np.arange(num_entities)
            rank = _rank_one_side(
                model,
                entity_table,
                relation_table,
                h,
                r,
                t,
                replace_head,
                candidates,
                filter_index,
            )
            (head_ranks if replace_head else tail_ranks).append(rank)

    return _aggregate(head_ranks, tail_ranks, hits_at)


def _aggregate(
    head_ranks: list[int], tail_ranks: list[int], hits_at: tuple[int, ...]
) -> LinkPredictionResult:
    """Fold per-side rank lists into the metric dataclass."""
    ranks = head_ranks + tail_ranks
    if not ranks:
        return LinkPredictionResult(mrr=0.0, mr=0.0, hits={k: 0.0 for k in hits_at})
    ranks_arr = np.asarray(ranks, dtype=np.float64)
    head_arr = np.asarray(head_ranks, dtype=np.float64)
    tail_arr = np.asarray(tail_ranks, dtype=np.float64)
    return LinkPredictionResult(
        mrr=float((1.0 / ranks_arr).mean()),
        mr=float(ranks_arr.mean()),
        hits={k: float((ranks_arr <= k).mean()) for k in hits_at},
        num_queries=len(ranks),
        head_mrr=float((1.0 / head_arr).mean()) if len(head_arr) else 0.0,
        tail_mrr=float((1.0 / tail_arr).mean()) if len(tail_arr) else 0.0,
    )
