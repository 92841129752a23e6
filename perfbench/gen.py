"""Seeded synthetic inputs: a finance-flavoured corpus in two domains, a
held-out split disjoint from it, a few-shot task file with its shot pool,
and a generation prompt.

Standard library only, so that no layer of the program under test takes
part in making its own inputs. The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import random
import re

DOMAINS = ("newswire", "filings")

# The three pretoken classes of the program's tokenizer, restated here so that
# the generator can check its output without importing the program.
PRETOKEN_RE = re.compile(r"([ A-Za-z]+)|([0-9])|([^ A-Za-z0-9]+)")
CLASS_NAMES = ("alpha_space", "digit", "other")

COMPANIES = (
    ("Acme Holdings", "ACME"), ("Northwind Capital", "NWC"),
    ("Blue Harbor Bank", "BHB"), ("Sterling Metals", "STML"),
    ("Cobalt Energy", "CBE"), ("Granite Insurance", "GRIN"),
    ("Pinecrest Retail", "PCR"), ("Meridian Software", "MRDN"),
    ("Harbor Freight Lines", "HFL"), ("Oakridge Pharma", "OKP"),
    ("Summit Airlines", "SMAL"), ("Redwood Utilities", "RWU"),
)
UP = ("rose", "gained", "climbed", "advanced", "jumped", "rallied")
DOWN = ("fell", "slipped", "declined", "dropped", "retreated", "slumped")
FLAT = ("held steady", "was unchanged", "traded flat", "ended little changed")
UP_WHY = (
    "after quarterly earnings beat estimates", "on stronger loan growth",
    "as bond yields eased", "after an analyst upgrade",
    "on record subscription revenue",
)
DOWN_WHY = (
    "on weaker guidance", "amid a broad selloff", "after an analyst downgrade",
    "as credit losses widened", "after the company cut its dividend",
)
FLAT_WHY = (
    "ahead of the central bank decision", "as investors awaited jobs data",
    "in light holiday trading", "with volumes below average",
)
INDEXES = ("S&P 500", "Nasdaq Composite", "Dow Jones Industrial Average", "Russell 2000")
BANKS = ("Goldman Sachs", "Morgan Stanley", "JPMorgan", "Barclays", "UBS", "Jefferies")
METRICS = (
    "net revenue", "operating income", "net interest income", "free cash flow",
    "diluted earnings per share", "total deposits", "adjusted EBITDA",
    "noninterest expense",
)
UNITS = ("million", "billion")
MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)
WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday")
LABELS = {"positive": (UP, UP_WHY), "negative": (DOWN, DOWN_WHY), "neutral": (FLAT, FLAT_WHY)}
CANDIDATES = (" positive", " negative", " neutral")


def _rng(seed: int, *labels) -> random.Random:
    # String seeds are hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or on the process.
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def _pct(r: random.Random) -> str:
    return f"{r.uniform(0.1, 9.9):.1f}%"


def _money(r: random.Random) -> str:
    return f"${r.randint(1, 999):,}.{r.randint(0, 99):02d}"


def _amount(r: random.Random) -> str:
    return f"${r.uniform(1, 950):,.1f} {r.choice(UNITS)}"


def _date(r: random.Random) -> str:
    return f"{r.choice(MONTHS)} {r.randint(1, 28)}, {r.randint(2015, 2023)}"


def _newswire(r: random.Random) -> list[str]:
    co, tk = r.choice(COMPANIES)
    move = r.choice((UP, DOWN))
    return [
        f"{co} ({tk}) shares {r.choice(move)} {_pct(r)} to {_money(r)} "
        f"{r.choice(UP_WHY if move is UP else DOWN_WHY)}.",
        f"The {r.choice(INDEXES)} {r.choice(move)} {r.randint(3, 480)} points, "
        f"or {_pct(r)}, to {r.randint(1000, 39000):,} on {r.choice(WEEKDAYS)}.",
        f"{co} reported {r.choice(METRICS)} of {_amount(r)} for Q{r.randint(1, 4)} "
        f"{r.randint(2015, 2023)}, compared with {_amount(r)} a year earlier.",
        f"Analysts at {r.choice(BANKS)} set a price target of {_money(r)} on {tk}, "
        f"citing {r.choice(METRICS)} growth of {_pct(r)}.",
        f"The yield on the {r.choice((2, 5, 10, 30))}-year Treasury note "
        f"{r.choice(move)} {r.randint(1, 40)} basis points to {r.uniform(0.5, 5.5):.2f}%.",
    ]


def _filings(r: random.Random) -> list[str]:
    metric = r.choice(METRICS)
    return [
        f"{metric.capitalize()} for the quarter ended {_date(r)} was {_amount(r)}, "
        f"an increase of {_pct(r)} from the prior year.",
        f"As of {_date(r)}, the Company had {_amount(r)} of cash and cash "
        f"equivalents and {_amount(r)} of long-term debt.",
        f"Item {r.randint(1, 9)}{r.choice('AB')}. Risk Factors: changes in interest "
        f"rates could adversely affect our {metric}.",
        f"The Company repurchased {r.randint(10, 990):,},{r.randint(0, 999):03d} shares "
        f"of common stock at an average price of {_money(r)} per share.",
        f"Total {r.choice(METRICS)} was {_amount(r)} (see Note {r.randint(2, 19)} to the "
        f"consolidated financial statements; {_pct(r)} of the total).",
    ]


_SENTENCES = {"newswire": _newswire, "filings": _filings}


def documents(seed: int, split: str, domain: str, n_bytes: int) -> list[str]:
    """Documents of one domain, ``n_bytes`` in all (the last one is cut
    short; the text is ASCII, so characters are bytes). Each document is a
    dateline and every sentence template of its domain once, in a seeded
    order: the seed draws the values and the order, while the template mix
    stays fixed, so that the amount of work varies little between seeds."""
    r = _rng(seed, split, domain)
    docs, size = [], 0
    while size < n_bytes:
        sentences = _SENTENCES[domain](r)
        r.shuffle(sentences)
        doc = f"{r.choice(COMPANIES)[1]} | {_date(r)}\n" + " ".join(sentences)
        doc = doc[: n_bytes - size]
        docs.append(doc)
        size += len(doc)
    return docs


def corpus(seed: int, split: str, n_bytes: int) -> dict[str, list[str]]:
    """Both domains, ``n_bytes`` split evenly between them."""
    return {d: documents(seed, split, d, n_bytes // len(DOMAINS)) for d in DOMAINS}


def check_disjoint(train: list[str], heldout: list[str]) -> None:
    shared = set(train) & set(heldout)
    if shared:
        raise ValueError(f"{len(shared)} held-out documents also occur in training")


def class_shares(texts: list[str]) -> dict[str, float]:
    """Byte share of each pretoken class; raises unless all three occur."""
    counts = dict.fromkeys(CLASS_NAMES, 0)
    for text in texts:
        for m in PRETOKEN_RE.finditer(text):
            counts[CLASS_NAMES[m.lastindex - 1]] += len(m.group(0).encode())
    missing = [k for k, n in counts.items() if n == 0]
    if missing:
        raise ValueError(f"pretoken classes missing from the corpus: {missing}")
    total = sum(counts.values())
    return {k: n / total for k, n in counts.items()}


def _headline(r: random.Random, label: str) -> str:
    verbs, whys = LABELS[label]
    co, tk = r.choice(COMPANIES)
    return f"Headline: {co} ({tk}) {r.choice(verbs)} {_pct(r)} {r.choice(whys)}.\nSentiment:"


def few_shot_tasks(seed: int, n_tasks: int, pool_size: int) -> list[dict]:
    """Sentiment tasks with three candidates, each carrying a labelled shot
    pool in the format ``finforge eval classify`` reads."""
    r = _rng(seed, "tasks")
    labels = sorted(LABELS)
    tasks = []
    for _ in range(n_tasks):
        gold = r.choice(labels)
        pool = []
        for _ in range(pool_size):
            shot = r.choice(labels)
            pool.append({"context": _headline(r, shot), "gold": " " + shot})
        tasks.append({
            "context": _headline(r, gold),
            "candidates": list(CANDIDATES),
            "gold": " " + gold,
            "shots_pool": pool,
        })
    return tasks


def prompt(seed: int, n_bytes: int) -> str:
    """Newswire text cut to ``n_bytes`` at a word boundary."""
    text = " ".join(documents(seed, "prompt", "newswire", n_bytes))
    return text[:n_bytes].rsplit(" ", 1)[0]


def write_jsonl(path: str, docs: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc in docs:
            f.write(json.dumps({"text": doc}) + "\n")
