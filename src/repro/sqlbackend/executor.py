"""Partial-lineage plan evaluation pushed into SQLite.

Mirrors :class:`repro.core.executor.PartialLineageEvaluator`, but every
intermediate pL-relation is a SQLite temp table ``(attrs..., l, p)`` and the
set-oriented work — scans, selections, joins, offending-tuple detection,
independent-project aggregation, duplicate-group detection — is SQL. Python
touches only the rows that need network surgery (conditioned tuples, And
gates of symbolic×symbolic join pairs, Or gates of duplicate groups), which
is exactly the paper's extensional/intensional split.
"""

from __future__ import annotations

import itertools
import sqlite3
import time
from typing import Sequence

from repro.core.executor import EvaluationResult, OffendingTuple, OperatorStat
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.plan import (
    Filter,
    Join,
    Plan,
    Project,
    Scan,
    Select,
    left_deep_plan,
    plan_schema,
)
from repro.core.plrelation import PLRelation
from repro.db.database import ProbabilisticDatabase
from repro.dissociation.engine import DissociationResult
from repro.enclosure import Enclosure
from repro.errors import InferenceError, PlanError
from repro.obs import telemetry
from repro.obs.trace import add as _add
from repro.obs.trace import span as _span
from repro.query.syntax import ConjunctiveQuery, Constant
from repro.sqlbackend.storage import SQLiteStorage, _check_identifier


def _q(name: str) -> str:
    _check_identifier(name)
    return f'"{name}"'


def _cols(attrs: Sequence[str], prefix: str = "") -> str:
    p = f"{prefix}." if prefix else ""
    return ", ".join(f"{p}{_q(a)}" for a in attrs)


def _sql_list(*parts: str) -> str:
    """Comma-join the non-empty parts of a SELECT / GROUP BY list.

    Attribute lists may be empty (a Boolean query, a scan binding only
    constants), and ``_cols(())`` is ``""``: joining only the non-empty
    parts never produces a dangling ``SELECT , ...``.
    """
    return ", ".join(p for p in parts if p)


def _renamed(base_cols: Sequence[str], var_first: dict[str, int]) -> str:
    """``col AS var`` for every variable a scan binds (``""`` for none)."""
    return ", ".join(
        f"{_q(base_cols[i])} AS {_q(v)}" for v, i in var_first.items()
    )


#: Comparison operators as SQLite spells them (``==`` / ``!=`` normalised).
_SQL_OPS = {"==": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _comparison_clause(predicates, prefix: str = "") -> tuple[str, list]:
    """A ``WHERE`` conjunction + parameters for Comparison predicates."""
    p = f"{prefix}." if prefix else ""
    clauses, params = [], []
    for c in predicates:
        clauses.append(f"{p}{_q(c.attribute)} {_SQL_OPS[c.op]} ?")
        params.append(c.value)
    return " AND ".join(clauses), params


class SQLitePartialLineageEvaluator:
    """Evaluate plans with partial lineage, extensional work in SQLite.

    Examples
    --------
    >>> from repro.db import ProbabilisticDatabase
    >>> from repro.query import parse_query
    >>> db = ProbabilisticDatabase()
    >>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
    >>> _ = db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    >>> _ = db.add_relation("T", ("B",), {(1,): 0.9, (2,): 0.9})
    >>> ev = SQLitePartialLineageEvaluator(db)
    >>> res = ev.evaluate_query(parse_query("q() :- R(x), S(x,y), T(y)"))
    >>> round(res.boolean_probability(), 6)
    0.34875
    """

    def __init__(self, db: ProbabilisticDatabase) -> None:
        self.db = db
        self.storage = SQLiteStorage.from_database(db)
        self._tmp = itertools.count()
        self._provenance: list[OffendingTuple] = []
        self._dissociated = 0

    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self.storage.close()

    # ------------------------------------------------------------ entry points
    def evaluate(self, plan: Plan) -> EvaluationResult:
        """Evaluate an explicit plan and return the standard result object."""
        plan_schema(plan, self.db)
        start = time.perf_counter()
        network = AndOrNetwork()
        stats: list[OperatorStat] = []
        conditioned: list[OffendingTuple] = []
        self._provenance = conditioned
        with _span("sql.evaluate", plan=str(plan)) as sp:
            table, attrs = self._eval(plan, network, stats)
            rel = self._fetch(table, attrs, network)
            sp.add("rows", len(rel))
            sp.add("network_nodes", len(network))
        result = EvaluationResult(
            rel, network, stats, conditioned, engine="sqlite"
        )
        result.record_flight(
            "sql", seconds=time.perf_counter() - start,
            answers=len(rel), inference="",
        )
        return result

    def evaluate_query(
        self, query: ConjunctiveQuery, join_order: list[str] | None = None
    ) -> EvaluationResult:
        """Build the left-deep plan for *query* and evaluate it."""
        return self.evaluate(left_deep_plan(query, join_order))

    # ----------------------------------------------------------------- helpers
    @property
    def _conn(self) -> sqlite3.Connection:
        return self.storage.connection

    def _new_table(self) -> str:
        return f"_pl{next(self._tmp)}"

    def _fetch(
        self, table: str, attrs: tuple[str, ...], network: AndOrNetwork
    ) -> PLRelation:
        rel = PLRelation(attrs, network, name=table)
        sel = _sql_list(_cols(attrs), "l, p")
        for row in self._conn.execute(f"SELECT {sel} FROM {_q(table)}"):
            *values, l, p = row
            rel.add(tuple(values), int(l), float(p))
        return rel

    def _count(self, table: str) -> int:
        (n,) = self._conn.execute(f"SELECT COUNT(*) FROM {_q(table)}").fetchone()
        return n

    # --------------------------------------------------------------- operators
    def _eval(
        self, plan: Plan, net: AndOrNetwork, stats: list[OperatorStat]
    ) -> tuple[str, tuple[str, ...]]:
        # One OperatorStat per node with its own wall time (children
        # excluded, mirroring the row/columnar engines) plus a span, so the
        # SQL backend profiles and flight-records like the in-process ones.
        kind = type(plan).__name__.lower()
        start = time.perf_counter()
        before = len(stats)
        conditioned = 0
        with _span(f"sql.{kind}", op=str(plan)) as sp:
            if isinstance(plan, Scan):
                table, attrs = self._scan(plan)
            elif isinstance(plan, Select):
                table, attrs = self._select(plan, net, stats)
            elif isinstance(plan, Filter):
                table, attrs = self._filter(plan, net, stats)
            elif isinstance(plan, Project):
                table, attrs = self._project(plan, net, stats)
            elif isinstance(plan, Join):
                table, attrs, conditioned = self._join(plan, net, stats)
            else:
                raise PlanError(f"unknown plan node {plan!r}")
            output_size = self._count(table)
            sp.add("output_size", output_size)
            if conditioned:
                sp.add("conditioned", conditioned)
        child_seconds = sum(s.seconds for s in stats[before:])
        stats.append(OperatorStat(
            str(plan), output_size=output_size, conditioned=conditioned,
            seconds=max(time.perf_counter() - start - child_seconds, 0.0),
        ))
        return table, attrs

    def _scan(self, scan: Scan) -> tuple[str, tuple[str, ...]]:
        base = self.db[scan.relation]
        out = self._new_table()
        base_cols = base.schema.attributes
        if scan.terms is None:
            sel = _sql_list(_cols(base_cols), "0 AS l, p")
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(out)} AS "
                f"SELECT {sel} FROM {_q(scan.relation)}"
            )
            return out, base_cols
        if len(scan.terms) != len(base_cols):
            raise PlanError(
                f"scan of {scan.relation}: {len(scan.terms)} terms for arity "
                f"{len(base_cols)}"
            )
        var_first: dict[str, int] = {}
        where: list[str] = []
        params: list[object] = []
        for i, t in enumerate(scan.terms):
            if isinstance(t, Constant):
                where.append(f"{_q(base_cols[i])} = ?")
                params.append(t.value)
            elif t.name in var_first:
                where.append(f"{_q(base_cols[i])} = {_q(base_cols[var_first[t.name]])}")
            else:
                var_first[t.name] = i
        sel = _sql_list(_renamed(base_cols, var_first), "0 AS l, p")
        clause = f" WHERE {' AND '.join(where)}" if where else ""
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(out)} AS "
            f"SELECT {sel} FROM {_q(scan.relation)}{clause}",
            params,
        )
        return out, tuple(var_first)

    def _select(
        self, plan: Select, net: AndOrNetwork, stats: list[OperatorStat]
    ) -> tuple[str, tuple[str, ...]]:
        child, attrs = self._eval(plan.child, net, stats)
        out = self._new_table()
        where = " AND ".join(f"{_q(a)} = ?" for a, _ in plan.conditions)
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(out)} AS SELECT * FROM {_q(child)} "
            f"WHERE {where}",
            [v for _, v in plan.conditions],
        )
        return out, attrs

    def _filter(
        self, plan: Filter, net: AndOrNetwork, stats: list[OperatorStat]
    ) -> tuple[str, tuple[str, ...]]:
        child, attrs = self._eval(plan.child, net, stats)
        out = self._new_table()
        where, params = _comparison_clause(plan.predicates)
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(out)} AS SELECT * FROM {_q(child)} "
            f"WHERE {where}",
            params,
        )
        return out, attrs

    def _or_fold_sql(self, column: str = "p") -> str:
        """The group fold ``1 - Π(1 - p)`` as one SQL aggregate expression.

        Native math functions when available: ``LN(0)`` is NULL and ``SUM``
        skips NULLs, so certain rows (``p >= 1``) are guarded explicitly;
        singleton groups pass their value through bit-exactly. The fold is
        floored at the group's largest member (an OR is at least as likely
        as any of its parts): for subnormal-tiny ``p``, ``1 - p`` rounds to
        exactly 1 and ``1 - EXP(0)`` would claim probability 0. Falls back
        to the Python ``indep_or`` aggregate on math-less builds.
        """
        if not self.storage.has_math_functions():
            return f"indep_or({column})"
        return (
            f"CASE WHEN MAX({column} >= 1.0) = 1 THEN 1.0 "
            f"WHEN COUNT(*) = 1 THEN MAX({column}) "
            f"ELSE MIN(1.0, MAX(MAX({column}), "
            f"1.0 - EXP(SUM(LN(1.0 - {column}))))) END"
        )

    def _project(
        self, plan: Project, net: AndOrNetwork, stats: list[OperatorStat]
    ) -> tuple[str, tuple[str, ...]]:
        child, _ = self._eval(plan.child, net, stats)
        attrs = tuple(plan.attributes)
        # Independent project: group by (attrs, l), OR-combine the p column.
        ip = self._new_table()
        group = _sql_list(_cols(attrs), "l")
        sel = _sql_list(group, f"{self._or_fold_sql()} AS p")
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(ip)} AS "
            f"SELECT {sel} FROM {_q(child)} GROUP BY {group}"
        )
        # Deduplication: single-member groups pass through in SQL; duplicate
        # groups get a SQL-side group id, so only (gid, l, p) integer/float
        # triples cross into Python for Or-gate allocation — the projected
        # values never round-trip.
        out = self._new_table()
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(out)} AS SELECT * FROM {_q(ip)} WHERE 0"
        )
        if attrs:
            keys = _cols(attrs)
            self._conn.execute(
                f"INSERT INTO {_q(out)} "
                f"SELECT i.* FROM {_q(ip)} i JOIN (SELECT {keys} FROM {_q(ip)} "
                f"GROUP BY {keys} HAVING COUNT(*) = 1) s USING ({keys})"
            )
            dup = self._new_table()
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(dup)} AS SELECT {keys} FROM {_q(ip)} "
                f"GROUP BY {keys} HAVING COUNT(*) > 1 ORDER BY {keys}"
            )
            members = self._conn.execute(
                f"SELECT d.rowid, i.l, i.p FROM {_q(ip)} i "
                f"JOIN {_q(dup)} d USING ({keys}) ORDER BY d.rowid, i.rowid"
            ).fetchall()
            gates: list[tuple[int, int]] = []
            group_members: list[tuple[int, float]] = []
            current = None
            for gid, l, p in members:
                if gid != current and group_members:
                    gates.append(
                        (current, net.add_gate(NodeKind.OR, group_members))
                    )
                    group_members = []
                current = gid
                group_members.append((int(l), float(p)))
            if group_members:
                gates.append(
                    (current, net.add_gate(NodeKind.OR, group_members))
                )
            gmap = self._new_table()
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(gmap)} "
                f"(gid INTEGER PRIMARY KEY, node INTEGER)"
            )
            self._conn.executemany(
                f"INSERT INTO {_q(gmap)} VALUES (?, ?)", gates
            )
            sel = _sql_list(_cols(attrs, "d"), "g.node, 1.0")
            self._conn.execute(
                f"INSERT INTO {_q(out)} SELECT {sel} "
                f"FROM {_q(dup)} d JOIN {_q(gmap)} g ON g.gid = d.rowid"
            )
        else:
            rows = self._conn.execute(f"SELECT l, p FROM {_q(ip)}").fetchall()
            if len(rows) == 1:
                self._conn.execute(
                    f"INSERT INTO {_q(out)} VALUES (?, ?)", rows[0]
                )
            elif len(rows) > 1:
                gate = net.add_gate(
                    NodeKind.OR, [(int(l), float(p)) for l, p in rows]
                )
                self._conn.execute(
                    f"INSERT INTO {_q(out)} VALUES (?, ?)", (gate, 1.0)
                )
        return out, attrs

    def _condition_in_place(
        self, table: str, attrs: tuple[str, ...], on: Sequence[str],
        other: str, net: AndOrNetwork, source: str,
    ) -> int:
        """Condition *table* on its cSet w.r.t. *other*; returns the count.

        The offending rows — uncertain, with more than one join partner — are
        found with one SQL join against the partner fan-out; each gets a fresh
        leaf (or a single-parent And gate if it already carries lineage) and
        becomes deterministic in place.
        """
        sel = _sql_list(_cols(attrs, "t"), "t.rowid, t.l, t.p")
        if not on:
            # A cross product offends every uncertain tuple when the other
            # side has more than one row.
            (partners,) = self._conn.execute(
                f"SELECT COUNT(*) FROM {_q(other)}"
            ).fetchone()
            if partners <= 1:
                return 0
            rows = self._conn.execute(
                f"SELECT {sel} FROM {_q(table)} t WHERE t.p < 1.0"
            ).fetchall()
        else:
            keys = _cols(on)
            on_clause = " AND ".join(f"t.{_q(a)} = g.{_q(a)}" for a in on)
            rows = self._conn.execute(
                f"SELECT {sel} FROM {_q(table)} t "
                f"JOIN (SELECT {keys}, COUNT(*) AS c FROM {_q(other)} "
                f"GROUP BY {keys}) g ON {on_clause} "
                f"WHERE t.p < 1.0 AND g.c > 1"
            ).fetchall()
        updates = []
        for *values, rowid, l, p in rows:
            l, p = int(l), float(p)
            node = net.add_leaf(p) if l == EPSILON else net.add_gate(
                NodeKind.AND, [(l, p)]
            )
            self._provenance.append(
                OffendingTuple(source, tuple(values), node)
            )
            updates.append((node, rowid))
        self._conn.executemany(
            f"UPDATE {_q(table)} SET l = ?, p = 1.0 WHERE rowid = ?", updates
        )
        return len(updates)

    def _join(
        self, plan: Join, net: AndOrNetwork, stats: list[OperatorStat]
    ) -> tuple[str, tuple[str, ...], int]:
        ltable, lattrs = self._eval(plan.left, net, stats)
        rtable, rattrs = self._eval(plan.right, net, stats)
        on = tuple(plan.on)
        with _span("sql.condition", side="left"):
            conditioned = self._condition_in_place(
                ltable, lattrs, on, rtable, net, str(plan.left)
            )
        with _span("sql.condition", side="right"):
            conditioned += self._condition_in_place(
                rtable, rattrs, on, ltable, net, str(plan.right)
            )
        keep = tuple(a for a in rattrs if a not in set(on))
        out_attrs = lattrs + keep
        out = self._new_table()
        sel = _sql_list(
            _cols(lattrs, "L"),
            _cols(keep, "R"),
            "CASE WHEN L.l = 0 OR R.l = 0 THEN L.l + R.l ELSE -1 END AS l",
            "CASE WHEN L.l = 0 OR R.l = 0 THEN L.p * R.p ELSE -1.0 END AS p",
            "L.l AS l1, L.p AS p1, R.l AS l2, R.p AS p2",
        )
        on_clause = (
            " AND ".join(f"L.{_q(a)} = R.{_q(a)}" for a in on) if on else "1 = 1"
        )
        # Rows with at most one symbolic side are pure SQL: lineage is the
        # symbolic side's node (l1 + l2 works because the other is 0) and the
        # probabilities multiply. Symbolic×symbolic pairs get And gates below.
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(out)} AS "
            f"SELECT {sel} FROM {_q(ltable)} L JOIN {_q(rtable)} R ON {on_clause}"
        )
        hard = self._conn.execute(
            f"SELECT rowid, l1, p1, l2, p2 FROM {_q(out)} WHERE l = -1"
        ).fetchall()
        self._conn.executemany(
            f"UPDATE {_q(out)} SET l = ?, p = 1.0 WHERE rowid = ?",
            (
                (
                    net.add_gate(
                        NodeKind.AND,
                        [(int(l1), float(p1)), (int(l2), float(p2))],
                    ),
                    rowid,
                )
                for rowid, l1, p1, l2, p2 in hard
            ),
        )
        for col in ("l1", "p1", "l2", "p2"):
            self._conn.execute(f"ALTER TABLE {_q(out)} DROP COLUMN {col}")
        return out, out_attrs, conditioned

    # ------------------------------------------------------ dissociation bounds
    def dissociated_bounds(self, plan: Plan) -> DissociationResult:
        """Dissociation enclosures of every answer, evaluated in pure SQL.

        The same two rewritten plans as
        :class:`repro.dissociation.engine.DissociationEvaluator`, folded with
        SQL aggregation only: intermediate temp tables carry ``(attrs...,
        pup, plo)``, projections OR-combine both columns with the guarded
        ``1 - EXP(SUM(LN(1 - p)))`` fold, and joins apply the symmetric
        failure split ``1 - POWER(1 - plo, 1.0/c)`` against the partner
        fan-out. No And-Or network, no conditioning, no per-row Python.
        """
        if not self.storage.has_math_functions():
            raise InferenceError(
                "SQL dissociation bounds need SQLite built-in math functions "
                "(EXP/LN/POWER, SQLite 3.35+)"
            )
        plan_schema(plan, self.db)
        self._dissociated = 0
        start = time.perf_counter()
        with _span("dissociation", engine="sql"):
            table, attrs = self._bounds_eval(plan)
            sel = _sql_list(_cols(attrs), "pup, plo")
            rows = self._conn.execute(f"SELECT {sel} FROM {_q(table)}").fetchall()
        bounds = {
            tuple(values): Enclosure.clamped(plo, pup, "dissociation")
            for *values, pup, plo in rows
        }
        result = DissociationResult(
            attributes=attrs,
            bounds=bounds,
            seconds=time.perf_counter() - start,
            dissociated=self._dissociated,
        )
        telemetry.record(
            "sql",
            query_hash=telemetry.query_hash(str(plan)),
            engine="sqlite",
            inference="dissociation",
            plan=str(plan),
            seconds=result.seconds,
            answers=len(bounds),
            rungs={"dissociation": len(bounds)},
            operators=[],
            dissociated=self._dissociated,
        )
        return result

    def dissociated_bounds_query(
        self, query: ConjunctiveQuery, join_order: list[str] | None = None
    ) -> DissociationResult:
        """Dissociation enclosures for *query*'s left-deep plan."""
        return self.dissociated_bounds(left_deep_plan(query, join_order))

    def _bounds_eval(self, plan: Plan) -> tuple[str, tuple[str, ...]]:
        with _span(
            f"sql.bounds.{type(plan).__name__.lower()}", op=str(plan)
        ):
            return self._bounds_eval_node(plan)

    def _bounds_eval_node(self, plan: Plan) -> tuple[str, tuple[str, ...]]:
        if isinstance(plan, Scan):
            return self._bounds_scan(plan)
        if isinstance(plan, Select):
            child, attrs = self._bounds_eval(plan.child)
            out = self._new_table()
            where = " AND ".join(f"{_q(a)} = ?" for a, _ in plan.conditions)
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(out)} AS SELECT * FROM {_q(child)} "
                f"WHERE {where}",
                [v for _, v in plan.conditions],
            )
            return out, attrs
        if isinstance(plan, Filter):
            child, attrs = self._bounds_eval(plan.child)
            out = self._new_table()
            where, params = _comparison_clause(plan.predicates)
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(out)} AS SELECT * FROM {_q(child)} "
                f"WHERE {where}",
                params,
            )
            return out, attrs
        if isinstance(plan, Project):
            return self._bounds_project(plan)
        if isinstance(plan, Join):
            return self._bounds_join(plan)
        raise PlanError(f"unknown plan node {plan!r}")

    def _bounds_scan(self, scan: Scan) -> tuple[str, tuple[str, ...]]:
        base = self.db[scan.relation]
        out = self._new_table()
        base_cols = base.schema.attributes
        if scan.terms is None:
            sel = _sql_list(_cols(base_cols), "p AS pup, p AS plo")
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(out)} AS "
                f"SELECT {sel} FROM {_q(scan.relation)}"
            )
            return out, base_cols
        if len(scan.terms) != len(base_cols):
            raise PlanError(
                f"scan of {scan.relation}: {len(scan.terms)} terms for arity "
                f"{len(base_cols)}"
            )
        var_first: dict[str, int] = {}
        where: list[str] = []
        params: list[object] = []
        for i, t in enumerate(scan.terms):
            if isinstance(t, Constant):
                where.append(f"{_q(base_cols[i])} = ?")
                params.append(t.value)
            elif t.name in var_first:
                where.append(
                    f"{_q(base_cols[i])} = {_q(base_cols[var_first[t.name]])}"
                )
            else:
                var_first[t.name] = i
        sel = _sql_list(_renamed(base_cols, var_first), "p AS pup, p AS plo")
        clause = f" WHERE {' AND '.join(where)}" if where else ""
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(out)} AS "
            f"SELECT {sel} FROM {_q(scan.relation)}{clause}",
            params,
        )
        return out, tuple(var_first)

    def _bounds_project(self, plan: Project) -> tuple[str, tuple[str, ...]]:
        child, _ = self._bounds_eval(plan.child)
        attrs = tuple(plan.attributes)
        out = self._new_table()
        folds = (
            f"{self._or_fold_sql('pup')} AS pup, "
            f"{self._or_fold_sql('plo')} AS plo"
        )
        if attrs:
            keys = _cols(attrs)
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(out)} AS SELECT {keys}, {folds} "
                f"FROM {_q(child)} GROUP BY {keys}"
            )
        else:
            # SELECT with aggregates and no GROUP BY always yields one row;
            # HAVING drops it when the child is empty (probability-0 answer).
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(out)} AS SELECT {folds} "
                f"FROM {_q(child)} HAVING COUNT(*) > 0"
            )
        return out, attrs

    def _split_lower(
        self, table: str, attrs: tuple[str, ...], on: Sequence[str], other: str
    ) -> str:
        """A copy of *table* with ``plo`` symmetrically split by fan-out.

        Each tuple with ``c > 1`` join partners in *other* is about to be
        referenced ``c`` times; splitting its failure mass evenly
        (``plo' = 1 - (1 - plo)^(1/c)``) keeps the downstream extensional
        fold a sound lower bound.
        """
        vals = _cols(attrs, "t")
        if not on:
            (partners,) = self._conn.execute(
                f"SELECT COUNT(*) FROM {_q(other)}"
            ).fetchone()
            if partners <= 1:
                return table
            (n,) = self._conn.execute(
                f"SELECT COUNT(*) FROM {_q(table)} WHERE plo < 1.0"
            ).fetchone()
            self._dissociated += n
            _add("dissociated", n)
            out = self._new_table()
            sel = _sql_list(
                vals,
                "t.pup AS pup",
                "CASE WHEN t.plo < 1.0 "
                "THEN 1.0 - POWER(1.0 - t.plo, 1.0 / ?) ELSE t.plo END AS plo",
            )
            self._conn.execute(
                f"CREATE TEMP TABLE {_q(out)} AS SELECT {sel} "
                f"FROM {_q(table)} t",
                (float(partners),),
            )
            return out
        keys = _cols(on)
        on_clause = " AND ".join(f"t.{_q(a)} = g.{_q(a)}" for a in on)
        fanout = (
            f"(SELECT {keys}, COUNT(*) AS c FROM {_q(other)} GROUP BY {keys})"
        )
        (n,) = self._conn.execute(
            f"SELECT COUNT(*) FROM {_q(table)} t JOIN {fanout} g "
            f"ON {on_clause} WHERE g.c > 1 AND t.plo < 1.0"
        ).fetchone()
        self._dissociated += n
        _add("dissociated", n)
        out = self._new_table()
        # LEFT JOIN: partnerless rows keep plo (NULL fan-out falls to ELSE)
        # and drop at the join anyway.
        sel = _sql_list(
            vals,
            "t.pup AS pup",
            "CASE WHEN g.c > 1 AND t.plo < 1.0 "
            "THEN 1.0 - POWER(1.0 - t.plo, 1.0 / g.c) ELSE t.plo END AS plo",
        )
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(out)} AS SELECT {sel} "
            f"FROM {_q(table)} t LEFT JOIN {fanout} g ON {on_clause}"
        )
        return out

    def _bounds_join(self, plan: Join) -> tuple[str, tuple[str, ...]]:
        ltable, lattrs = self._bounds_eval(plan.left)
        rtable, rattrs = self._bounds_eval(plan.right)
        on = tuple(plan.on)
        lsplit = self._split_lower(ltable, lattrs, on, rtable)
        rsplit = self._split_lower(rtable, rattrs, on, ltable)
        keep = tuple(a for a in rattrs if a not in set(on))
        out_attrs = lattrs + keep
        out = self._new_table()
        sel = _sql_list(
            _cols(lattrs, "L"),
            _cols(keep, "R"),
            "L.pup * R.pup AS pup, L.plo * R.plo AS plo",
        )
        on_clause = (
            " AND ".join(f"L.{_q(a)} = R.{_q(a)}" for a in on) if on else "1 = 1"
        )
        self._conn.execute(
            f"CREATE TEMP TABLE {_q(out)} AS SELECT {sel} "
            f"FROM {_q(lsplit)} L JOIN {_q(rsplit)} R ON {on_clause}"
        )
        return out, out_attrs
