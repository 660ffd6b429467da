"""Cost-based physical planner: lowers logical DAGs to PhysicalPlans.

Stage 2 of the optimizer.  After the logical pass pipeline has rewritten
the expression DAG, the planner walks it bottom-up and, per node,
**enumerates physical alternatives** — kernel choice (Appendix-A square
tiles vs BNLJ vs SpMM/SpGEMM), matrix-chain order (the Appendix-B DP,
nnz-weighted when any factor is sparse), and fuse-vs-materialize for
elementwise epilogues — then picks by the I/O models of
:mod:`repro.core.costs`.  Rejected alternatives stay on the chosen
operator for ``session.explain()``.  Every price, chosen or rejected,
passes one door, :meth:`Planner._price`: ``COST_MODELS[model](
**inputs)`` with the inputs the operator keeps and ``explain`` prints.

One choice spans operators: a prepass pairs every product
``t(X) %*% B`` with the ``crossprod(X)`` of the same stored X when B
fits beside the crossprod's schedule
(:func:`~repro.core.costs.crossprod_side_fits`), so one
:class:`~repro.core.plan.CrossprodOp` computes both on the scan of X
its schedule makes — the shared-scan rule, on whenever epilogue fusion
is (level >= 1, ``fuse_epilogues`` not False).  When the schedule holds
the whole upper triangle of X'X that is one scan of X for both.

:func:`build_region` is the one statement of what a fused
elementwise pass computes, for streams, maps, reductions and product
epilogues alike.

Every plan also carries lifetimes.  Each operator's result is released
at its last reader in execution order (``PhysOp.releases``), and the
evaluator drops it there: an intermediate that never left the pool
never reaches the device.  A factorization whose operand dies at it —
computed by another operator, read by nothing else, laid out as the
working factor (:func:`~repro.core.costs.lu_in_place`) — overwrites
that operand instead of copying it (``in_place``).

Every optimizer level lowers here; the level decides which choices are
open.  At level 2 every choice is costed.  At level 1 the same lowering
runs with the heuristic choices (program order, type-driven kernels,
fuse-when-legal).  At level 0 nothing is chosen at all: each node of
the DAG as written becomes its default operator (program order,
type-driven kernel, no fusion), still priced so ``explain`` can put a
prediction next to the measurement — the ablation baseline runs on the
same executor as the optimized arm.
"""

from __future__ import annotations

import inspect
from collections import Counter
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cache

from repro.storage import StorageConfig
from repro.storage.tile_store import TiledMatrix, tile_shape_for_layout

from .config import OptimizerConfig
from .chain import order_to_string, pairwise_shapes
from .costs import (COST_MODELS, DEFAULT_TILE_SIDE, crossprod_side_fits,
                    lu_in_place)
from .expr import (ArrayInput, Crossprod, Inverse, Map, MatMul, Node,
                   Range, Reduce, Scalar, Solve, Subscript,
                   SubscriptAssign, Transpose, walk)
from .passes import (build_order, chosen_order, collect_chain,
                     current_order, sparse_stored, sparse_tile_shape)
from .passes.base import bottom_up
from .plan import (BnljOp, CrossprodOp, FusedEpilogueOp, GatherOp,
                   InverseOp, LeafOp, LUSolveOp, MapOp, PhysOp,
                   PhysicalPlan, Price, RangeOp, ReduceOp, Region,
                   ScalarOp, ScatterOp, SparseSpGEMMOp, SparseSpMMOp,
                   TileMatMulOp, TransposeOp)

#: Prefer the Appendix-A schedule unless BNLJ wins decisively: the
#: models are asymptotic, and at small sizes they agree to within
#: rounding — a coin-flip switch to a different accumulation order
#: would buy nothing and cost reproducibility.
BNLJ_MARGIN = 0.9

#: Operators whose matrix result the store lays out in its default
#: square tiles, so its tile shape is known at plan time.
SQUARE_RESULTS = (CrossprodOp, FusedEpilogueOp, InverseOp, LUSolveOp,
                  TileMatMulOp)


@cache
def _parameters(model: Callable) -> frozenset[str]:
    """Names of the parameters a cost model takes."""
    return frozenset(inspect.signature(model).parameters)


def is_elementwise(node: Node) -> bool:
    """Is ``node`` computed element by element from aligned operands —
    something a region can absorb?"""
    return isinstance(node, Map) or (isinstance(node, SubscriptAssign)
                                     and node.logical_mask)


def build_region(root: Node,
                 absorb: Callable[[Node], bool] = is_elementwise
                 ) -> Region:
    """The elementwise region rooted at ``root``: the one statement of
    what a fused pass computes, for vector streams, matrix maps,
    reductions and product epilogues alike.

    Walking down from ``root``, every elementwise node ``absorb``
    accepts joins the interior (children before parents — the tape's
    order); anything else reached is an input: a barrier another
    operator computes, a stored or generated leaf, or a constant.  By
    default the region is maximal; ``absorb`` narrows it.
    """
    inputs: list[Node] = []
    interior: list[Node] = []
    seen: set[int] = set()

    def visit(n: Node) -> None:
        if id(n) in seen:
            return
        seen.add(id(n))
        if is_elementwise(n) and absorb(n):
            for c in n.children:
                visit(c)
            interior.append(n)
        else:
            inputs.append(n)

    visit(root)
    return Region(root, inputs, interior)


def operand_tile_side(node: Node) -> int | None:
    """Tile side the dense kernels will cut ``node``'s schedule from,
    when it is known at plan time: a stored matrix knows its own (a
    dense one its ``square_side``); anything computed answers ``None``
    (the cost models then take the store's default tile for its
    shape)."""
    data = getattr(node, "data", None)
    tiles = getattr(data, "tile_shape", None)
    if isinstance(node, ArrayInput) and tiles:
        return getattr(data, "square_side", max(tiles))
    return None


def _is_side_product(host: Crossprod, node: Node) -> bool:
    """Is ``node`` a product ``t(A) %*% B`` that can ride on the scan
    of A made by ``host = crossprod(A)``?  The shape half of the
    shared-scan rule — flags, operand identity, dense operands, row
    counts; :meth:`Planner._pair_side_products` adds room and DAG
    position, :mod:`repro.analysis.planlint` re-checks this half."""
    if not (isinstance(node, MatMul) and host.t_first
            and node.trans_a and not node.trans_b
            and node.kernel != "sparse"):
        return False
    a, b = node.children
    return (a is host.children[0] and b.shape[0] == a.shape[0]
            and not sparse_stored(a) and not sparse_stored(b))


def _barrier_fusable(barrier: Node) -> bool:
    """Can this product run a dense kernel with an epilogue callback?"""
    if isinstance(barrier, Crossprod):
        return not sparse_stored(barrier.children[0])
    if barrier.kernel == "sparse":
        return False
    if (barrier.kernel == "auto"
            and not (barrier.trans_a or barrier.trans_b)
            and sparse_stored(barrier.children[0])):
        return False  # SpMM/SpGEMM dispatch wins; no dense fusion
    return True


class Planner:
    """Lowers a (logically rewritten) DAG to a :class:`PhysicalPlan`."""

    def __init__(self, config: OptimizerConfig,
                 storage: StorageConfig | None = None) -> None:
        """Plans for ``config`` against the M and B of ``storage``
        (the default :class:`~repro.storage.StorageConfig` when
        ``None``)."""
        storage = storage if storage is not None else StorageConfig()
        self.config = config
        self.memory_scalars = storage.memory_scalars
        self.block_scalars = storage.block_scalars
        self._memo: dict[int, PhysOp] = {}
        self._edges: dict[int, int] = {}
        #: id(chain head) -> {"order", "cur", "factors", "dims"} for
        #: every chain the prepass reordered; consulted during lowering
        #: to annotate the head operator with the decision.
        self._reordered: dict[int, dict] = {}
        #: id(crossprod) -> the side products it computes, and
        #: id(side product) -> its crossprod; decided by the prepass
        #: :meth:`_pair_side_products` before anything is lowered.
        self._sides: dict[int, list[MatMul]] = {}
        self._side_of: dict[int, Crossprod] = {}

    # ------------------------------------------------------------------
    def plan(self, root: Node) -> PhysicalPlan:
        """Lower ``root``; choices are final once the plan is built."""
        self._memo = {}
        self._edges = {}
        self._reordered = {}
        self._sides = {}
        self._side_of = {}
        if self.config.chain_reorder_enabled:
            # Reorder whole chains on the logical DAG *before* any
            # lowering: epilogue fusion then sees the DP-chosen top
            # product (as the old monolith's rule order guaranteed),
            # and every operator references nodes of one consistent
            # DAG — no mid-lowering substitutions for execution memos
            # to miss.
            root = bottom_up(root, self._reorder_rule)
        for n in walk(root):
            for c in n.children:
                self._edges[id(c)] = self._edges.get(id(c), 0) + 1
        if self.config.rewrites and self.config.fusion_enabled:
            self._pair_side_products(root)
        plan = PhysicalPlan(root, self._lower(root), self.config.level)
        self._set_releases(plan)
        return plan

    def _price(self, model: str, reads: Iterable[PhysOp],
               **inputs) -> Price:
        """``COST_MODELS[model](**inputs)``: the one door every price
        the planner computes passes, an operator's or a rejected
        alternative's.  The plan's block size joins ``inputs``, and
        its memory budget when the model takes one, and, when the
        model takes one and it is not 1, the ``ratio`` of the pages
        the operators ``reads`` hold to the pages they span — each
        operator priced on its own operands (:meth:`_read_ratio`),
        never on what else the store holds.  The inputs returned are
        all the call took: an operator keeps them as ``cost_inputs``
        for ``explain`` to print and
        :func:`repro.analysis.planlint.verify_plan` to re-price."""
        fn = COST_MODELS[model]
        takes = _parameters(fn)
        if "memory" in takes:
            inputs["memory"] = self.memory_scalars
        inputs["block"] = self.block_scalars
        if "ratio" in takes:
            ratio = self._read_ratio(reads)
            if ratio != 1.0:
                inputs["ratio"] = ratio
        return Price(model, inputs, fn(**inputs))

    def _read_ratio(self, reads: Iterable[PhysOp]) -> float:
        """Pages held over pages spanned, summed over the dense
        matrices the operators ``reads`` yield.  A stored matrix counts
        its own :meth:`~repro.storage.tile_store.TiledMatrix.stored_pages`
        (a ``raw`` one its whole span); a result not stored yet counts
        its logical pages at the ratio its operator was priced at.
        Vectors, sparse matrices and scalars hold no codec pages; with
        none among ``reads`` the ratio is 1.0.  The sums are exact, so
        operands that share one ratio pass it on bit for bit."""
        held = span = 0
        for op in reads:
            if isinstance(op, LeafOp):
                if isinstance(op.node.data, TiledMatrix):
                    used, pages = op.node.data.stored_pages()
                    held, span = held + used, span + pages
            elif op.node.ndim == 2 and not isinstance(op, SparseSpGEMMOp):
                pages = -(-op.node.size // self.block_scalars)
                held += Fraction(op.cost_inputs.get("ratio", 1.0)) * pages
                span += pages
        return float(held / span) if span else 1.0

    @staticmethod
    def _set_releases(plan: PhysicalPlan) -> None:
        """Give every operator that stores a result its release point:
        the last operator, in execution order, that reads it — or
        itself, when nothing does.  Stored inputs, constants and the
        plan's result are never released."""
        ops = list(plan.ops())
        last = {id(c): op for op in ops for c in op.children}
        for op in ops:
            if op is not plan.root and not isinstance(op,
                                                      (LeafOp, ScalarOp)):
                reader = last.get(id(op), op)
                reader.releases += op.nodes

    def _factors_in_place(self, operand: Node) -> bool:
        """May the LU of a ``solve`` / ``inv`` overwrite its ``operand``?
        Only when the operand dies there — computed by another operator
        that lays its result out on the store's default square tiles
        (not a stored input, not a sparse result a kernel would densify
        into a twin), read through one operand slot in the whole DAG (so
        it is neither also the right-hand side nor the plan's result) —
        and those tiles are the working factor's
        (:func:`~repro.core.costs.lu_in_place`).  Level 0, the
        no-optimizer baseline, factors a copy like a per-call library."""
        if not (self.config.rewrites
                and isinstance(self._lower(operand), SQUARE_RESULTS)
                and self._edges.get(id(operand)) == 1):
            return False
        blk = self.block_scalars
        pool = self.memory_scalars // blk
        tiles = tile_shape_for_layout("square", operand.shape, blk, pool)
        return lu_in_place(operand.shape[0], tiles, self.memory_scalars,
                           blk, pool)

    def _pair_side_products(self, root: Node) -> None:
        """Decide, for the whole DAG at once, which ``t(A) %*% B``
        products ride on the scan of A that ``crossprod(A)`` makes.

        A product is adopted when :func:`_is_side_product` holds, when
        neither it nor the crossprod could be a fused epilogue's
        barrier (both must get operators of their own), when B depends
        on no crossprod and no candidate product (so the shared
        operator can run after B without a cycle), and when it fits
        beside the crossprod's schedule together with the products
        taken before it in DAG walk order
        (:func:`repro.core.costs.crossprod_side_fits`) — which needs
        A's tiles, so only a stored A carries side products.
        """
        nodes = list(walk(root))
        barriers = set()
        for n in nodes:
            if isinstance(n, Map) and n.ndim == 2:
                fusable = self._epilogue_region(n)
                if fusable is not None:
                    barriers.add(id(fusable[0]))
        hosts = {id(n.children[0]): n for n in nodes
                 if isinstance(n, Crossprod) and n.t_first
                 and id(n) not in barriers}
        candidates = [n for n in nodes if isinstance(n, MatMul)
                      and id(n.children[0]) in hosts
                      and _is_side_product(hosts[id(n.children[0])], n)
                      and id(n) not in barriers]
        shared = ({id(h) for h in hosts.values()}
                  | {id(n) for n in candidates})
        for n in candidates:
            a, b = n.children
            if any(id(d) in shared for d in walk(b)):
                continue
            host = hosts[id(a)]
            sides = self._sides.setdefault(id(host), [])
            cols = sum(s.shape[1] for s in sides) + n.shape[1]
            tile = operand_tile_side(a)
            if tile is None or not crossprod_side_fits(
                    self.memory_scalars, a.shape[1], tile, cols):
                continue
            sides.append(n)
            self._side_of[id(n)] = host

    def _reorder_rule(self, node: Node) -> Node:
        if not isinstance(node, MatMul) or node.trans_a or node.trans_b:
            return node
        factors: list[Node] = []
        collect_chain(node, factors)
        if len(factors) < 3:
            return node
        order, _rule = chosen_order(factors)
        cur = current_order(node, factors)
        if order == cur:
            return node
        head = build_order(factors, order)
        self._reordered[id(head)] = {
            "order": order, "cur": cur, "factors": factors,
            "dims": [factors[0].shape[0]]
                    + [f.shape[1] for f in factors]}
        return head

    # ------------------------------------------------------------------
    def _lower(self, node: Node) -> PhysOp:
        if id(node) in self._memo:
            return self._memo[id(node)]
        host = self._side_of.get(id(node))
        if host is not None:
            # A side product is computed by its crossprod's operator.
            op = self._memo[id(node)] = self._lower(host)
            return op
        op = self._memo[id(node)] = self._lower_inner(node)
        return op

    def _lower_inner(self, node: Node) -> PhysOp:
        if isinstance(node, ArrayInput):
            return LeafOp(node)
        if isinstance(node, Scalar):
            return ScalarOp(node)
        if isinstance(node, MatMul):
            return self._lower_matmul(node)
        if isinstance(node, Crossprod):
            return self._lower_crossprod(node)
        if isinstance(node, Solve):
            return self._lower_solve(node)
        if isinstance(node, Inverse):
            in_place = self._factors_in_place(node.children[0])
            reads = (self._lower(node.children[0]),)
            op = InverseOp(node, reads,
                           self._price("inverse_io", reads,
                                       n=node.shape[0], in_place=in_place))
            op.in_place = in_place
            return op
        if isinstance(node, Transpose):
            rows, cols = node.children[0].shape
            reads = (self._lower(node.children[0]),)
            return TransposeOp(node, reads,
                               self._price("transpose_io", reads,
                                           rows=rows, cols=cols))
        if isinstance(node, Subscript):
            return self._lower_subscript(node)
        if isinstance(node, SubscriptAssign) and not node.logical_mask:
            reads = tuple(self._lower(c) for c in node.children)
            return ScatterOp(node, reads,
                             self._price("scatter_io", reads, n=node.size,
                                         k=node.index.size))
        if isinstance(node, Reduce):
            return self._lower_reduce(node)
        if is_elementwise(node) or isinstance(node, Range):
            return self._lower_elementwise(node)
        raise NotImplementedError(
            f"cannot lower node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Elementwise regions: streams, maps, reductions
    # ------------------------------------------------------------------
    def _region(self, root: Node, under_reduce: bool = False) -> Region:
        """The region a pass over ``root`` computes.  Vector and scalar
        regions are maximal at every level; a matrix region is maximal
        where fusion is enabled and otherwise keeps one node per
        operator — ``root`` alone, or nothing when a reduction reads
        it.  A maximal matrix region stops at an interior matrix that
        another operator also reads: that one is stored for its other
        consumer, and the region reads it instead of recomputing it."""
        if root.ndim < 2:
            return build_region(root)
        if not self.config.fusion_enabled:
            return build_region(root,
                                lambda n: n is root and not under_reduce)
        shared: set[int] = set()
        while True:
            region = build_region(root, lambda n: id(n) not in shared)
            more = {id(region.nodes[i]) for i in self._read_outside(region)
                    if i >= len(region.inputs)}
            if not more:
                return region
            shared |= more

    def _read_outside(self, region: Region) -> list[int]:
        """Slots of ``region``'s matrices, its root aside, that an
        operator outside the region also reads."""
        uses = Counter(a for _, args in region.tape for a in args)
        return [i for i, n in enumerate(region.nodes)
                if n.ndim == 2 and n is not region.root
                and uses[i] < self._edges.get(id(n), 0)]

    def _region_children(self, region: Region,
                         computed: Node | None = None
                         ) -> tuple[PhysOp, ...]:
        """Operators for a region's barriers and stored leaves, in slot
        order — all but ``computed``, the product a fused epilogue
        computes itself."""
        return tuple(self._lower(n) for n in region.inputs
                     if n is not computed
                     and not isinstance(n, (Scalar, Range)))

    def _lower_elementwise(self, node: Node) -> PhysOp:
        if node.ndim == 2 and self.config.fusion_enabled:
            fused = self._try_fused(node)
            if fused is not None:
                return fused
        region = self._region(node)
        reads = self._region_children(region)
        price = self._stream_price(region, reads,
                                   node.size if node.ndim else 0)
        if isinstance(node, Range):
            return RangeOp(node, price=price, region=region)
        return MapOp(node, reads, price, region=region,
                     detail=("scalar", "stream", "tile")[node.ndim])

    def _lower_reduce(self, node: Reduce) -> ReduceOp:
        region = self._region(node.children[0], under_reduce=True)
        reads = self._region_children(region)
        return ReduceOp(node, reads, self._stream_price(region, reads, 0),
                        region=region)

    def _stream_price(self, region: Region, reads: tuple[PhysOp, ...],
                      output: int) -> Price:
        """One pass over ``region``: its sources, held by ``reads``,
        read and ``output`` scalars written."""
        return self._price(
            "stream_io", reads,
            input_scalars=sum(n.size for n in region.sources),
            output_scalars=output)

    def _lower_subscript(self, node: Subscript) -> GatherOp:
        src, index = node.src, node.index
        reads = tuple(self._lower(n) for n in (src, index)
                      if not isinstance(n, Range))
        return GatherOp(
            node, reads,
            self._price("gather_io", reads,
                        n_src=0 if isinstance(src, Range) else src.size,
                        k=node.size,
                        index=0 if isinstance(index, Range)
                        else index.size))

    # ------------------------------------------------------------------
    # Products: chain order and kernel enumeration
    # ------------------------------------------------------------------
    def _lower_matmul(self, node: MatMul) -> PhysOp:
        op = self._lower_product(node)
        self._annotate_reordered(op, node)
        return op

    def _annotate_reordered(self, op: PhysOp, head: Node) -> None:
        """If ``head`` is a chain head the prepass reordered, record
        the decision and the rejected program order on its operator."""
        info = self._reordered.get(id(head))
        if info is None:
            return
        reads = tuple(self._lower(f) for f in info["factors"])
        program_io = sum(
            self._price("matmul_io", reads, m=m, l=l, n=n).io
            for m, l, n in pairwise_shapes(info["dims"], info["cur"]))
        op.detail = (op.detail + " " if op.detail else "") + \
            f"order={order_to_string(info['order'])}"
        op.alternatives.append(
            (f"program-order {order_to_string(info['cur'])}",
             program_io))

    def _lower_product(self, node: MatMul) -> PhysOp:
        """Kernel choice (§5 rule 8): the sparse kernel its operands
        select (SpGEMM for sparse x sparse, SpMM for sparse x dense,
        each priced on the operands' estimated nnz and tile grids)
        against the dense one (Appendix-A square tiles, or BNLJ when it
        wins by ``BNLJ_MARGIN``).  A sparse alternative exists only for
        an unflagged product with a sparse-stored left operand: the
        sparse kernels take no operand flags, and no dense x sparse
        kernel exists."""
        a, b = node.children
        reads = a_op, b_op = self._lower(a), self._lower(b)
        sa = a.shape[::-1] if node.trans_a else a.shape
        sb = b.shape[::-1] if node.trans_b else b.shape
        m, k, n = sa[0], sa[1], sb[1]
        both_sparse = sparse_stored(a) and sparse_stored(b)

        def sparse_price() -> Price:
            # A's tile shape gives the row and inner sides, and for
            # sparse x sparse B's own tile width the output column side
            # (the two need not be stored on the same grid).  Sparse
            # tiles are not codec-compressed.
            th, tk = sparse_tile_shape(a) or (DEFAULT_TILE_SIDE,) * 2
            if not both_sparse:
                return self._price("spmm_io", reads, m=m, l=k, n=n,
                                   nnz=a.estimated_nnz, tiles=(th, tk))
            tw = (sparse_tile_shape(b) or (tk, DEFAULT_TILE_SIDE))[1]
            return self._price("spgemm_io", reads, m=m, l=k, n=n,
                               nnz_a=a.estimated_nnz,
                               nnz_b=b.estimated_nnz, tiles=(th, tk, tw))

        def sparse_op(price: Price, alternatives=()) -> PhysOp:
            return (SparseSpGEMMOp if both_sparse else SparseSpMMOp)(
                node, reads, price, alternatives=list(alternatives))

        if node.kernel == "sparse" and sparse_stored(a):
            op = sparse_op(sparse_price())
            op.detail = "pinned"
            return op
        # A "sparse" pin on operands that will not be sparse-stored
        # falls through to dense lowering (there is no sparse kernel
        # to run without a sparse operand).

        square = self._price("matmul_io", reads, m=m, l=k, n=n)
        flags = []
        if node.trans_a:
            flags.append("t(a)")
        if node.trans_b:
            flags.append("t(b)")
        detail = ",".join(flags)

        def dense_op():
            alternatives = []
            if self.config.costed:
                bnlj = self._price("bnlj_io", reads, n1=m, n2=k, n3=n)
                if bnlj.io < BNLJ_MARGIN * square.io:
                    return BnljOp(node, reads, bnlj, detail=detail,
                                  alternatives=[("square-tile",
                                                 square.io)])
                alternatives.append(("bnlj", bnlj.io))
            return TileMatMulOp(node, reads, square,
                                detail=detail, alternatives=alternatives)

        if node.kernel == "dense":
            op = dense_op()
            op.detail = (op.detail + "," if op.detail else "") + \
                "pinned"
            return op

        # kernel == "auto"
        if node.trans_a or node.trans_b or not sparse_stored(a):
            return dense_op()
        sparse = sparse_price()
        if not self.config.costed:
            # Below level 2 the kernel follows the operand types: a
            # sparse-stored left operand runs the sparse kernel.
            return sparse_op(sparse)
        if sparse.io < square.io:
            return sparse_op(sparse, alternatives=[("dense square-tile",
                                                    square.io)])
        op = dense_op()
        op.alternatives.append(
            ("sparse " + ("spgemm" if both_sparse else "spmm"),
             sparse.io))
        op.detail = (op.detail + "," if op.detail else "") + "densified"
        return op

    def _lower_crossprod(self, node: Crossprod) -> CrossprodOp:
        a = node.children[0]
        inner, k = a.shape if node.t_first else a.shape[::-1]
        sides = self._sides.get(id(node), [])
        cols = sum(s.shape[1] for s in sides)
        tile = operand_tile_side(a)
        reads = (self._lower(a),) + tuple(self._lower(s.children[1])
                                          for s in sides)
        op = CrossprodOp(
            node, reads,
            self._price("crossprod_io", reads, m=inner, k=k,
                        side_cols=cols, tile_side=tile),
            side_nodes=sides,
            detail=(f"sides={len(sides)}" if sides
                    else "" if node.t_first else "tcrossprod"))
        if sides:
            # The rejected alternative: the same crossprod plus each
            # product lowered on its own, as it would have been.
            op.alternatives.append((
                "crossprod + separate t(a) %*% b",
                self._price("crossprod_io", reads[:1], m=inner, k=k,
                            tile_side=tile).io
                + sum(self._lower_product(s).predicted_io
                      for s in sides)))
        return op

    def _lower_solve(self, node: Solve) -> LUSolveOp:
        a, b = node.children
        nrhs = 1 if node.ndim == 1 else node.shape[1]
        in_place = self._factors_in_place(a)
        reads = (self._lower(a), self._lower(b))
        op = LUSolveOp(node, reads,
                       self._price("solve_io", reads, n=a.shape[0],
                                   nrhs=nrhs, in_place=in_place),
                       detail=f"nrhs={nrhs}")
        op.in_place = in_place
        return op

    # ------------------------------------------------------------------
    # Matrix elementwise regions: fuse-vs-materialize
    # ------------------------------------------------------------------
    def _epilogue_region(self, node: Node
                         ) -> tuple[Node, Region] | None:
        """``(product, region)`` when fusing the region rooted at
        ``node`` into its one product is legal, else ``None`` —
        legality only; :meth:`_try_fused` then prices it."""
        region = build_region(node)
        products = [b for b in region.inputs
                    if isinstance(b, (MatMul, Crossprod))]
        if len(products) != 1:
            return None
        barrier = products[0]
        if not _barrier_fusable(barrier):
            return None
        if any(s.shape != node.shape for s in region.sources):
            return None
        # The product and the interior matrices on the way to it are
        # never memoized by a fused run; a consumer outside the region
        # would have to recompute them.
        first = len(region.inputs)
        if any(i >= first or region.nodes[i] is barrier
               for i in self._read_outside(region)):
            return None
        return barrier, region

    def _try_fused(self, node: Node) -> FusedEpilogueOp | None:
        fusable = self._epilogue_region(node)
        if fusable is None:
            return None
        barrier, region = fusable
        extra = len(region.sources) - 1
        if isinstance(barrier, Crossprod):
            a = barrier.children[0]
            inner, k = (a.shape if barrier.t_first
                        else a.shape[::-1])
            operand_ops = (self._lower(a),)
            model, shape = "crossprod_epilogue_io", {
                "m": inner, "k": k, "tile_side": operand_tile_side(a)}
        else:
            a, b = barrier.children
            sa = a.shape[::-1] if barrier.trans_a else a.shape
            sb = b.shape[::-1] if barrier.trans_b else b.shape
            operand_ops = (self._lower(a), self._lower(b))
            model, shape = "matmul_epilogue_io", {
                "m": sa[0], "l": sa[1], "n": sb[1]}
        reads = operand_ops + self._region_children(region, barrier)
        fused, unfused = (self._price(model, reads, **shape,
                                      extra_inputs=extra, fused=f)
                          for f in (True, False))
        if self.config.costed and fused.io >= unfused.io:
            return None  # enumerated, and materializing won
        op = FusedEpilogueOp(
            node, barrier, region=region, children=reads, price=fused,
            detail=barrier.label(),
            alternatives=[("materialize+map", unfused.io)])
        # A fused barrier that heads a reordered chain keeps the chain
        # decision visible on the fused operator.
        self._annotate_reordered(op, barrier)
        return op
