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
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(frozen=True)
class FixtureQuestion:
    id: str
    text: str
    database_id: str
    gold_sql: str
    main_sql: str
    probes: tuple[str, ...]
    check: bool = False
    refine: dict[str, str] = field(default_factory=dict)
    memory_mode: str = "condensed"
    answer: str = "answer saved as CSV"


_BAD_MAX_SQL = "SELECT MAX(distnace_km) AS longest FROM flights"
_GOOD_MAX_SQL = "SELECT MAX(distance_km) AS longest FROM flights"

_FLIGHT_PROBES = (
    "SELECT * FROM flights LIMIT 5",
    "SELECT COUNT(*) AS c FROM airports LIMIT 1",
)
_RETAIL_PROBES = (
    "SELECT * FROM orders LIMIT 5",
    "SELECT COUNT(*) AS c FROM products LIMIT 1",
)

FIXTURE_QUESTIONS: tuple[FixtureQuestion, ...] = (
    FixtureQuestion(
        id="f1",
        text="How many flights are recorded in total?",
        database_id="flights",
        gold_sql="SELECT COUNT(*) AS n FROM flights",
        main_sql="SELECT COUNT(*) AS n FROM flights",
        probes=_FLIGHT_PROBES,
    ),
    FixtureQuestion(
        id="f2",
        text="What is the average departure delay in minutes for each carrier?",
        database_id="flights",
        gold_sql=(
            "SELECT carrier, AVG(departure_delay_minutes) AS avg_delay "
            "FROM flights GROUP BY carrier ORDER BY carrier"
        ),
        main_sql=(
            "SELECT carrier, AVG(departure_delay_minutes) AS avg_delay "
            "FROM flights GROUP BY carrier ORDER BY carrier"
        ),
        probes=_FLIGHT_PROBES,
        check=True,
    ),
    FixtureQuestion(
        id="f3",
        text="Which origin airport has the most departures?",
        database_id="flights",
        gold_sql=(
            "SELECT origin, COUNT(*) AS departures FROM flights "
            "GROUP BY origin ORDER BY departures DESC, origin LIMIT 1"
        ),
        main_sql=(
            "SELECT origin, COUNT(*) AS departures FROM flights "
            "GROUP BY origin ORDER BY departures DESC, origin LIMIT 1"
        ),
        probes=_FLIGHT_PROBES,
    ),
    FixtureQuestion(
        id="f4",
        text="List the distinct carriers operating flights.",
        database_id="flights",
        gold_sql="SELECT DISTINCT carrier FROM flights ORDER BY carrier",
        main_sql="SELECT DISTINCT carrier FROM flights ORDER BY carrier",
        probes=_FLIGHT_PROBES[:1],
    ),
    FixtureQuestion(
        id="f5",
        text="What is the total distance flown per year?",
        database_id="flights",
        gold_sql=(
            "SELECT year, SUM(distance_km) AS total_km FROM flights "
            "GROUP BY year ORDER BY year"
        ),
        main_sql=(
            "SELECT year, SUM(distance_km) AS total_km FROM flights "
            "GROUP BY year ORDER BY year"
        ),
        probes=_FLIGHT_PROBES,
    ),
    FixtureQuestion(
        id="f6",
        text="What is the longest flight distance in kilometres?",
        database_id="flights",
        gold_sql=_GOOD_MAX_SQL,
        main_sql=_BAD_MAX_SQL,
        probes=_FLIGHT_PROBES,
        refine={_BAD_MAX_SQL: _GOOD_MAX_SQL},
    ),
    FixtureQuestion(
        id="f7",
        text="How many airports are in the dataset?",
        database_id="flights",
        gold_sql="SELECT COUNT(*) AS n FROM airports",
        main_sql="SELECT COUNT(*) AS n FROM airports WHERE country = 'Norlandia'",
        probes=_FLIGHT_PROBES,
    ),
    FixtureQuestion(
        id="r1",
        text="How many orders were placed in total?",
        database_id="retail",
        gold_sql="SELECT COUNT(*) AS n FROM orders",
        main_sql="SELECT COUNT(*) AS n FROM orders",
        probes=_RETAIL_PROBES,
    ),
    FixtureQuestion(
        id="r2",
        text="What is the total revenue per product category?",
        database_id="retail",
        gold_sql=(
            "WITH order_values AS (SELECT p.category AS category, "
            "o.quantity * p.price AS value FROM orders o "
            "JOIN products p ON o.sku = p.sku) "
            "SELECT category, SUM(value) AS revenue FROM order_values "
            "GROUP BY category ORDER BY category"
        ),
        main_sql=(
            "WITH order_values AS (SELECT p.category AS category, "
            "o.quantity * p.price AS value FROM orders o "
            "JOIN products p ON o.sku = p.sku) "
            "SELECT category, SUM(value) AS revenue FROM order_values "
            "GROUP BY category ORDER BY category"
        ),
        probes=_RETAIL_PROBES,
        check=True,
    ),
    FixtureQuestion(
        id="r3",
        text="Which region has the highest total order quantity?",
        database_id="retail",
        gold_sql=(
            "SELECT region, SUM(quantity) AS total_quantity FROM orders "
            "GROUP BY region ORDER BY total_quantity DESC, region LIMIT 1"
        ),
        main_sql=(
            "SELECT region, SUM(quantity) AS total_quantity FROM orders "
            "GROUP BY region ORDER BY total_quantity DESC, region LIMIT 1"
        ),
        probes=_RETAIL_PROBES,
    ),
    FixtureQuestion(
        id="r4",
        text="List the product names in the gadgets category.",
        database_id="retail",
        gold_sql=(
            "SELECT name FROM products WHERE category = 'gadgets' ORDER BY name"
        ),
        main_sql=(
            "SELECT name FROM products WHERE category = 'gadgets' ORDER BY name"
        ),
        probes=_RETAIL_PROBES[:1],
    ),
    FixtureQuestion(
        id="r5",
        text="What is the average list price of the products?",
        database_id="retail",
        gold_sql="SELECT AVG(price) AS avg_price FROM products",
        main_sql="SELECT AVG(price) AS avg_price FROM products",
        probes=_RETAIL_PROBES,
    ),
)

FIXTURE_DATABASES = ("flights", "retail")


def _write_database(path: Path, ddl: str, inserts: dict[str, list[tuple]]) -> None:
    if path.exists():
        path.unlink()
    with closing(sqlite3.connect(str(path))) as conn:
        conn.executescript(ddl)
        for table, rows in inserts.items():
            if not rows:
                continue
            placeholders = ", ".join("?" for _ in rows[0])
            conn.executemany(
                f"INSERT INTO {table} VALUES ({placeholders})", rows
            )
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
    base.mkdir(parents=True, exist_ok=True)

    flights_dir = base / "dbs" / "flights"
    retail_dir = base / "dbs" / "retail"
    flights_dir.mkdir(parents=True, exist_ok=True)
    retail_dir.mkdir(parents=True, exist_ok=True)

    flights_db = flights_dir / "flights.sqlite"
    retail_db = retail_dir / "retail.sqlite"
    _write_database(
        flights_db,
        FLIGHTS_DDL,
        {"airports": _AIRPORTS, "carriers": _CARRIERS, "flights": _flight_rows()},
    )
    _write_database(
        retail_db,
        RETAIL_DDL,
        {"products": _product_rows(), "orders": _order_rows()},
    )
    (flights_dir / "schema.sql").write_text(FLIGHTS_DDL, encoding="utf-8")
    (retail_dir / "schema.sql").write_text(RETAIL_DDL, encoding="utf-8")
    (flights_dir / "knowledge.md").write_text(FLIGHTS_KNOWLEDGE, encoding="utf-8")
    (retail_dir / "knowledge.md").write_text(RETAIL_KNOWLEDGE, encoding="utf-8")

    db_paths = {"flights": flights_db, "retail": retail_db}
    lines = []
    for question in FIXTURE_QUESTIONS:
        gold_rel = f"gold/{question.id}.csv"
        _write_gold(db_paths[question.database_id], question.gold_sql, base / gold_rel)
        lines.append(
            json.dumps(
                {
                    "id": question.id,
                    "text": question.text,
                    "database_id": question.database_id,
                    "gold_csv": gold_rel,
                    "script": {
                        "probes": list(question.probes),
                        "main_sql": question.main_sql,
                        "answer": question.answer,
                        "check": question.check,
                        "refine": dict(question.refine),
                        "memory_mode": question.memory_mode,
                    },
                },
                ensure_ascii=False,
            )
        )
    (base / "questions.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (base / "workload.txt").write_text(
        "".join(f"{q.id}\t{q.database_id}\n" for q in FIXTURE_QUESTIONS),
        encoding="utf-8",
    )
    return base
