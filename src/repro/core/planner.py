"""Cost-based physical planner: lowers logical DAGs to PhysicalPlans.

Stage 2 of the optimizer.  After the logical pass pipeline has rewritten
the expression DAG, the planner walks it bottom-up and, per node,
**enumerates physical alternatives** — kernel choice (Appendix-A square
tiles vs BNLJ vs SpMM/SpGEMM), matrix-chain order (the Appendix-B DP,
nnz-weighted when any factor is sparse), and fuse-vs-materialize for
elementwise epilogues — then picks by the I/O models of
:mod:`repro.core.costs`.  Rejected alternatives stay on the chosen
operator for ``session.explain()``.

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

from collections import Counter
from collections.abc import Callable

from repro.storage import StorageConfig
from repro.storage.tile_store import tile_shape_for_layout

from .config import OptimizerConfig
from .costs import (bnlj_matmul_io, crossprod_epilogue_io,
                    crossprod_io, crossprod_side_fits, gather_io,
                    inverse_io, lu_in_place, matmul_epilogue_io,
                    scatter_io, solve_op_io, stream_io,
                    transpose_materialize_io)
from .expr import (ArrayInput, Crossprod, Inverse, Map, MatMul, Node,
                   Range, Reduce, Scalar, Solve, Subscript,
                   SubscriptAssign, Transpose, walk)
from .passes import (build_order, chosen_order, clamped_dense_io,
                     collect_chain, current_order, matmul_kernel_costs,
                     sparse_product_cost, sparse_stored)
from .passes.base import bottom_up
from .plan import (BnljOp, CrossprodOp, FusedEpilogueOp, GatherOp,
                   InverseOp, LeafOp, LUSolveOp, MapOp, PhysOp,
                   PhysicalPlan, RangeOp, ReduceOp, Region, ScalarOp,
                   ScatterOp, SparseSpGEMMOp, SparseSpMMOp,
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
        self.io_ratio = 1.0
        self._memo: dict[int, PhysOp] = {}
        self._edges: dict[int, int] = {}
        #: id(chain head) -> {"order", "cur", "dims"} for every chain
        #: the prepass reordered; consulted during lowering to
        #: annotate the head operator with the decision.
        self._reordered: dict[int, dict] = {}
        #: id(crossprod) -> the side products it computes, and
        #: id(side product) -> its crossprod; decided by the prepass
        #: :meth:`_pair_side_products` before anything is lowered.
        self._sides: dict[int, list[MatMul]] = {}
        self._side_of: dict[int, Crossprod] = {}

    # ------------------------------------------------------------------
    def plan(self, root: Node, io_ratio: float = 1.0) -> PhysicalPlan:
        """Lower ``root``; choices are final once the plan is built.

        ``io_ratio`` is the stored/logical page ratio of the codec
        tiles (``ArrayStore.io_ratio_estimate``); it scales every dense
        cost model so fuse-vs-materialize, BNLJ-vs-square and
        chain-order decisions price compressed tiles correctly.  1.0 =
        raw.
        """
        self.io_ratio = io_ratio
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
            "order": order, "cur": cur,
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
        blk = self.block_scalars
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
            n = node.shape[0]
            in_place = self._factors_in_place(node.children[0])
            op = InverseOp(
                node, (self._lower(node.children[0]),),
                predicted_io=inverse_io(n, self.memory_scalars, blk,
                                        ratio=self.io_ratio,
                                        in_place=in_place))
            op.in_place = in_place
            op.cost_inputs = self._ratio_inputs({"n": n})
            return op
        if isinstance(node, Transpose):
            rows, cols = node.children[0].shape
            op = TransposeOp(
                node, (self._lower(node.children[0]),),
                predicted_io=transpose_materialize_io(rows, cols, blk))
            op.cost_inputs = {"rows": rows, "cols": cols}
            return op
        if isinstance(node, Subscript):
            return self._lower_subscript(node)
        if isinstance(node, SubscriptAssign) and not node.logical_mask:
            return ScatterOp(
                node, tuple(self._lower(c) for c in node.children),
                predicted_io=scatter_io(node.size,
                                        node.index.size, blk))
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
        predicted = stream_io(sum(n.size for n in region.sources),
                              node.size if node.ndim else 0,
                              self.block_scalars)
        if isinstance(node, Range):
            return RangeOp(node, region=region, predicted_io=predicted)
        return MapOp(node, self._region_children(region), region=region,
                     predicted_io=predicted,
                     detail=("scalar", "stream", "tile")[node.ndim])

    def _lower_reduce(self, node: Reduce) -> ReduceOp:
        region = self._region(node.children[0], under_reduce=True)
        read = sum(n.size for n in region.sources)
        return ReduceOp(node, self._region_children(region),
                        region=region,
                        predicted_io=stream_io(read, 0, self.block_scalars))

    def _lower_subscript(self, node: Subscript) -> GatherOp:
        children: list[PhysOp] = []
        src, index = node.src, node.index
        k = node.size
        if isinstance(src, Range):
            predicted = 2.0 * k / self.block_scalars
        else:
            children.append(self._lower(src))
            predicted = gather_io(src.size, k, self.block_scalars)
        if not isinstance(index, Range):
            children.append(self._lower(index))
            predicted += index.size / self.block_scalars
        return GatherOp(node, tuple(children), predicted_io=predicted)

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
        from .chain import order_to_string
        from .costs import chain_io
        mem, blk = self.memory_scalars, self.block_scalars
        ratio = self.io_ratio
        program_io = chain_io(
            info["dims"], info["cur"],
            lambda m, l, n: clamped_dense_io(m, l, n, mem, blk, ratio))
        op.detail = (op.detail + " " if op.detail else "") + \
            f"order={order_to_string(info['order'])}"
        op.alternatives.append(
            (f"program-order {order_to_string(info['cur'])}",
             program_io))

    def _lower_product(self, node: MatMul) -> PhysOp:
        a, b = node.children
        a_op, b_op = self._lower(a), self._lower(b)
        mem, blk = self.memory_scalars, self.block_scalars
        sa = a.shape[::-1] if node.trans_a else a.shape
        sb = b.shape[::-1] if node.trans_b else b.shape
        m, k, n = sa[0], sa[1], sb[1]
        both_sparse = sparse_stored(a) and sparse_stored(b)

        def sparse_op(alternatives=()):
            # nnz, budget and tile geometry go on the op: sparse
            # predictions are nnz-driven, so a drifted estimate must be
            # visible in the explain transcript, not just the final
            # number.
            predicted, inputs = sparse_product_cost(a, b, (m, k, n),
                                                    mem, blk)
            op = (SparseSpGEMMOp if both_sparse else SparseSpMMOp)(
                node, (a_op, b_op), predicted_io=predicted,
                alternatives=list(alternatives))
            op.cost_inputs = inputs
            return op

        if node.kernel == "sparse" and sparse_stored(a):
            op = sparse_op()
            op.detail = "pinned"
            return op
        # A "sparse" pin on operands that will not be sparse-stored
        # falls through to dense lowering (there is no sparse kernel
        # to run without a sparse operand).

        dense_square = clamped_dense_io(m, k, n, mem, blk,
                                        self.io_ratio)
        flags = []
        if node.trans_a:
            flags.append("t(a)")
        if node.trans_b:
            flags.append("t(b)")
        detail = ",".join(flags)

        dense_inputs = self._ratio_inputs(
            {"m": m, "k": k, "n": n,
             "trans_a": node.trans_a,
             "trans_b": node.trans_b})

        def dense_op():
            alternatives = []
            if self.config.costed:
                bnlj = bnlj_matmul_io(m, k, n, mem, blk,
                                      self.io_ratio)
                if bnlj < BNLJ_MARGIN * dense_square:
                    op = BnljOp(
                        node, (a_op, b_op), predicted_io=bnlj,
                        detail=detail,
                        alternatives=[("square-tile", dense_square)])
                    op.cost_inputs = dict(dense_inputs)
                    return op
                alternatives.append(("bnlj", bnlj))
            op = TileMatMulOp(node, (a_op, b_op),
                              predicted_io=dense_square,
                              detail=detail,
                              alternatives=alternatives)
            op.cost_inputs = dict(dense_inputs)
            return op

        if node.kernel == "dense":
            op = dense_op()
            op.detail = (op.detail + "," if op.detail else "") + \
                "pinned"
            return op

        # kernel == "auto"
        costs = matmul_kernel_costs(node, mem, blk,
                                    ratio=self.io_ratio)
        if costs is not None and self.config.costed:
            if costs["sparse"] < costs["dense"]:
                return sparse_op(
                    alternatives=[("dense square-tile",
                                   costs["dense"])])
            op = dense_op()
            op.alternatives.append(
                ("sparse " + ("spgemm" if both_sparse else "spmm"),
                 costs["sparse"]))
            op.detail = (op.detail + "," if op.detail else "") + \
                "densified"
            return op
        if costs is not None:
            # Below level 2 the kernel follows the operand types: a
            # sparse-stored left operand runs the sparse kernel.
            return sparse_op()
        return dense_op()

    def _ratio_inputs(self, inputs: dict) -> dict:
        """Record the compression ratio in ``cost_inputs`` only when it
        actually scaled the prediction — uncompressed plans (the golden
        snapshots) keep their exact historical shape."""
        if self.io_ratio != 1.0:
            inputs["ratio"] = self.io_ratio
        return inputs

    def _lower_crossprod(self, node: Crossprod) -> CrossprodOp:
        a = node.children[0]
        inner, k = a.shape if node.t_first else a.shape[::-1]
        mem, blk = self.memory_scalars, self.block_scalars
        sides = self._sides.get(id(node), [])
        cols = sum(s.shape[1] for s in sides)
        tile = operand_tile_side(a)
        detail = "" if node.t_first else "tcrossprod"
        op = CrossprodOp(
            node,
            (self._lower(a),) + tuple(self._lower(s.children[1])
                                      for s in sides),
            side_nodes=sides,
            predicted_io=crossprod_io(inner, k, mem, blk, self.io_ratio,
                                      side_cols=cols, tile_side=tile),
            detail=f"sides={len(sides)}" if sides else detail)
        op.cost_inputs = self._ratio_inputs(
            {"inner": inner, "k": k, "t_first": node.t_first})
        if tile is not None:
            op.cost_inputs["tile"] = tile
        if sides:
            op.cost_inputs["side_cols"] = cols
            # The rejected alternative: the same crossprod plus each
            # product lowered on its own, as it would have been.
            op.alternatives.append((
                "crossprod + separate t(a) %*% b",
                crossprod_io(inner, k, mem, blk, self.io_ratio,
                             tile_side=tile)
                + sum(self._lower_product(s).predicted_io
                      for s in sides)))
        return op

    def _lower_solve(self, node: Solve) -> LUSolveOp:
        a, b = node.children
        n = a.shape[0]
        nrhs = 1 if node.ndim == 1 else node.shape[1]
        in_place = self._factors_in_place(a)
        op = LUSolveOp(
            node, (self._lower(a), self._lower(b)),
            predicted_io=solve_op_io(n, nrhs, self.memory_scalars,
                                     self.block_scalars,
                                     ratio=self.io_ratio,
                                     in_place=in_place),
            detail=f"nrhs={nrhs}")
        op.in_place = in_place
        op.cost_inputs = self._ratio_inputs({"n": n, "nrhs": nrhs})
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
        mem, blk = self.memory_scalars, self.block_scalars
        ratio = self.io_ratio
        extra = len(region.sources) - 1
        if isinstance(barrier, Crossprod):
            a = barrier.children[0]
            inner, k = (a.shape if barrier.t_first
                        else a.shape[::-1])
            tile = operand_tile_side(a)
            fused_io = crossprod_epilogue_io(inner, k, extra, mem,
                                             blk, fused=True,
                                             ratio=ratio, tile_side=tile)
            unfused_io = crossprod_epilogue_io(inner, k, extra, mem,
                                               blk, fused=False,
                                               ratio=ratio,
                                               tile_side=tile)
            operand_ops = (self._lower(a),)
            model = "crossprod_epilogue_io"
            cost_inputs = self._ratio_inputs(
                {"inner": inner, "k": k, "extra": extra})
        else:
            a, b = barrier.children
            sa = a.shape[::-1] if barrier.trans_a else a.shape
            sb = b.shape[::-1] if barrier.trans_b else b.shape
            m, l, n = sa[0], sa[1], sb[1]
            fused_io = matmul_epilogue_io(m, l, n, extra, mem, blk,
                                          fused=True, ratio=ratio)
            unfused_io = matmul_epilogue_io(m, l, n, extra, mem, blk,
                                            fused=False, ratio=ratio)
            operand_ops = (self._lower(a), self._lower(b))
            model = "matmul_epilogue_io"
            cost_inputs = self._ratio_inputs(
                {"m": m, "k": l, "n": n, "extra": extra,
                 "trans_a": barrier.trans_a,
                 "trans_b": barrier.trans_b})
        if self.config.costed and fused_io >= unfused_io:
            return None  # enumerated, and materializing won
        op = FusedEpilogueOp(
            node, barrier, region=region,
            children=operand_ops + self._region_children(region,
                                                         barrier),
            predicted_io=fused_io,
            detail=barrier.label(),
            alternatives=[("materialize+map", unfused_io)])
        op.cost_model = model
        op.cost_inputs = cost_inputs
        # A fused barrier that heads a reordered chain keeps the chain
        # decision visible on the fused operator.
        self._annotate_reordered(op, barrier)
        return op
