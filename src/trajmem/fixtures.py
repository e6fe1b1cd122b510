"""Bundled fixture workspace: two small databases plus scripted questions.

The suite is fully deterministic: table rows come from index arithmetic,
per-question playbooks drive the scripted policy, and gold answers are
produced by executing each question's reference SQL at build time. One
question carries an injected column misspelling that self-refinement must
fix, and one deliberately computes a wrong subset so execution accuracy
stays below 100%.
"""

from __future__ import annotations

import csv
import json
import sqlite3
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .policies import QuestionScript

FLIGHTS_DDL = """\
CREATE TABLE airports (
    code TEXT PRIMARY KEY,
    name TEXT,
    city TEXT,
    country TEXT
);

CREATE TABLE carriers (
    code TEXT PRIMARY KEY,
    name TEXT
);

CREATE TABLE flights (
    id INTEGER PRIMARY KEY,
    origin TEXT,
    destination TEXT,
    carrier TEXT,
    departure_delay_minutes REAL,
    distance_km REAL,
    year INTEGER
);
"""

RETAIL_DDL = """\
CREATE TABLE products (
    sku TEXT PRIMARY KEY,
    name TEXT,
    category TEXT,
    price REAL
);

CREATE TABLE orders (
    order_id INTEGER PRIMARY KEY,
    sku TEXT,
    quantity INTEGER,
    order_date TEXT,
    region TEXT
);
"""

FLIGHTS_KNOWLEDGE = """\
# flights database notes

- Departure delay is measured in minutes; negative values are early departures.
- Distances are great-circle kilometres between origin and destination.
- Carrier codes join to carriers.code; airport codes join to airports.code.
"""

RETAIL_KNOWLEDGE = """\
# retail database notes

- Revenue for an order line is quantity times the product's list price.
- Regions are the four sales territories: north, south, east, west.
- Order dates are ISO formatted (YYYY-MM-DD).
"""

_AIRPORTS = [
    ("AAX", "Alder Field", "Alder", "Norlandia"),
    ("BBY", "Birchport Intl", "Birchport", "Norlandia"),
    ("CCZ", "Cedar Hub", "Cedarville", "Suderia"),
    ("DDQ", "Dune Regional", "Dunewick", "Suderia"),
    ("EEL", "Elm Harbor", "Elmsted", "Westmark"),
    ("FFI", "Fir Summit", "Firdale", "Westmark"),
]

_CARRIERS = [("NL", "Norline"), ("SU", "Suder Air"), ("WM", "Westmark Wings")]

_REGIONS = ["north", "south", "east", "west"]
_CATEGORIES = ["gadgets", "widgets", "fixtures"]
_PRODUCT_NAMES = [
    "pocket scope",
    "signal widget",
    "desk fixture",
    "beam gadget",
    "cog widget",
    "lamp fixture",
    "dial gadget",
    "gear widget",
]


def _flight_rows() -> list[tuple]:
    rows = []
    for i in range(36):
        rows.append(
            (
                i + 1,
                _AIRPORTS[i % 6][0],
                _AIRPORTS[(i + 2) % 6][0],
                _CARRIERS[i % 3][0],
                round(((i * 7) % 23) - 5 + (i % 4) * 1.5, 1),
                float(250 + (i * 137) % 1200),
                2022 + (i % 3),
            )
        )
    return rows


def _product_rows() -> list[tuple]:
    return [
        (
            f"P{i + 1:03d}",
            _PRODUCT_NAMES[i],
            _CATEGORIES[i % 3],
            round(5.0 + i * 3.5, 2),
        )
        for i in range(8)
    ]


def _order_rows() -> list[tuple]:
    return [
        (
            i + 1,
            f"P{(i % 8) + 1:03d}",
            1 + (i % 5),
            f"2024-{1 + (i % 12):02d}-15",
            _REGIONS[i % 4],
        )
        for i in range(30)
    ]


# Each database: its id, DDL, knowledge notes, and rows per table.
_DATABASES = (
    (
        "flights",
        FLIGHTS_DDL,
        FLIGHTS_KNOWLEDGE,
        {"airports": _AIRPORTS, "carriers": _CARRIERS, "flights": _flight_rows()},
    ),
    ("retail", RETAIL_DDL, RETAIL_KNOWLEDGE, {"products": _product_rows(), "orders": _order_rows()}),
)

_PROBES = {
    "flights": ("SELECT * FROM flights LIMIT 5", "SELECT COUNT(*) AS c FROM airports LIMIT 1"),
    "retail": ("SELECT * FROM orders LIMIT 5", "SELECT COUNT(*) AS c FROM products LIMIT 1"),
}


@dataclass(frozen=True)
class FixtureQuestion:
    """A question, the reference SQL whose result is its gold answer, and
    the script the scripted policy plays for it."""

    id: str
    text: str
    database_id: str
    gold_sql: str
    script: QuestionScript


def _question(
    qid: str, text: str, database_id: str, gold_sql: str, probes: int = 2, **script: Any
) -> FixtureQuestion:
    """A fixture question whose script runs its first ``probes`` probes, then
    ``gold_sql`` unless a ``main_sql`` is given."""
    script.setdefault("main_sql", gold_sql)
    return FixtureQuestion(
        qid,
        text,
        database_id,
        gold_sql,
        QuestionScript(
            probes=list(_PROBES[database_id][:probes]), answer="answer saved as CSV", **script
        ),
    )


_BAD_MAX_SQL = "SELECT MAX(distnace_km) AS longest FROM flights"
_GOOD_MAX_SQL = "SELECT MAX(distance_km) AS longest FROM flights"

FIXTURE_QUESTIONS: tuple[FixtureQuestion, ...] = (
    _question(
        "f1",
        "How many flights are recorded in total?",
        "flights",
        "SELECT COUNT(*) AS n FROM flights",
    ),
    _question(
        "f2",
        "What is the average departure delay in minutes for each carrier?",
        "flights",
        "SELECT carrier, AVG(departure_delay_minutes) AS avg_delay "
        "FROM flights GROUP BY carrier ORDER BY carrier",
        check=True,
    ),
    _question(
        "f3",
        "Which origin airport has the most departures?",
        "flights",
        "SELECT origin, COUNT(*) AS departures FROM flights "
        "GROUP BY origin ORDER BY departures DESC, origin LIMIT 1",
    ),
    _question(
        "f4",
        "List the distinct carriers operating flights.",
        "flights",
        "SELECT DISTINCT carrier FROM flights ORDER BY carrier",
        probes=1,
    ),
    _question(
        "f5",
        "What is the total distance flown per year?",
        "flights",
        "SELECT year, SUM(distance_km) AS total_km FROM flights GROUP BY year ORDER BY year",
    ),
    _question(
        "f6",
        "What is the longest flight distance in kilometres?",
        "flights",
        _GOOD_MAX_SQL,
        main_sql=_BAD_MAX_SQL,
        refine={_BAD_MAX_SQL: _GOOD_MAX_SQL},
    ),
    _question(
        "f7",
        "How many airports are in the dataset?",
        "flights",
        "SELECT COUNT(*) AS n FROM airports",
        main_sql="SELECT COUNT(*) AS n FROM airports WHERE country = 'Norlandia'",
    ),
    _question(
        "r1",
        "How many orders were placed in total?",
        "retail",
        "SELECT COUNT(*) AS n FROM orders",
    ),
    _question(
        "r2",
        "What is the total revenue per product category?",
        "retail",
        "WITH order_values AS (SELECT p.category AS category, "
        "o.quantity * p.price AS value FROM orders o "
        "JOIN products p ON o.sku = p.sku) "
        "SELECT category, SUM(value) AS revenue FROM order_values "
        "GROUP BY category ORDER BY category",
        check=True,
    ),
    _question(
        "r3",
        "Which region has the highest total order quantity?",
        "retail",
        "SELECT region, SUM(quantity) AS total_quantity FROM orders "
        "GROUP BY region ORDER BY total_quantity DESC, region LIMIT 1",
    ),
    _question(
        "r4",
        "List the product names in the gadgets category.",
        "retail",
        "SELECT name FROM products WHERE category = 'gadgets' ORDER BY name",
        probes=1,
    ),
    _question(
        "r5",
        "What is the average list price of the products?",
        "retail",
        "SELECT AVG(price) AS avg_price FROM products",
    ),
)


def _write_database(path: Path, ddl: str, inserts: dict[str, list[tuple]]) -> None:
    if path.exists():
        path.unlink()
    with closing(sqlite3.connect(str(path))) as conn:
        conn.executescript(ddl)
        for table, rows in inserts.items():
            placeholders = ", ".join("?" for _ in rows[0])
            conn.executemany(f"INSERT INTO {table} VALUES ({placeholders})", rows)
        conn.commit()


def _write_gold(db_path: Path, gold_sql: str, target: Path) -> None:
    with closing(sqlite3.connect(str(db_path))) as conn:
        cursor = conn.execute(gold_sql)
        columns = [d[0] for d in cursor.description]
        rows = cursor.fetchall()
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def build_fixture_workspace(root: str | Path) -> Path:
    """Materialize the full fixture workspace under ``root`` and return it."""
    base = Path(root)
    for database_id, ddl, knowledge, tables in _DATABASES:
        db_dir = base / "dbs" / database_id
        db_dir.mkdir(parents=True, exist_ok=True)
        _write_database(db_dir / f"{database_id}.sqlite", ddl, tables)
        (db_dir / "schema.sql").write_text(ddl, encoding="utf-8")
        (db_dir / "knowledge.md").write_text(knowledge, encoding="utf-8")
    lines = []
    for q in FIXTURE_QUESTIONS:
        gold_csv = f"gold/{q.id}.csv"
        db_path = base / "dbs" / q.database_id / f"{q.database_id}.sqlite"
        _write_gold(db_path, q.gold_sql, base / gold_csv)
        line = {"id": q.id, "text": q.text, "database_id": q.database_id, "gold_csv": gold_csv}
        lines.append(json.dumps({**line, "script": q.script.to_dict()}, ensure_ascii=False))
    (base / "questions.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (base / "workload.txt").write_text(
        "".join(f"{q.id}\t{q.database_id}\n" for q in FIXTURE_QUESTIONS),
        encoding="utf-8",
    )
    return base
