"""The ten evaluation queries (Table 2), written in Arboretum's language.

The first six are the *new* queries (the first five use the exponential
mechanism, the sixth uses secrecy of the sample); the remaining four are
adapted from earlier systems: ``cms`` from Honeycrisp, ``bayes`` and
``k-medians`` from Orchard, and ``median`` from Böhler and Kerschbaum.
Each entry carries the source text, the paper's evaluation parameters
(§7.1: C=1 for hypotest/cms, C=10 for k-medians, C=115 for bayes, C=2^15
otherwise; k=5 for topK), and a scaled-down environment for the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.ranges import Interval
from ..analysis.types import QueryEnvironment, ValueType

#: Paper-scale deployment defaults (§7.1).
PAPER_N = 10**9
PAPER_EPSILON = 0.1


@dataclass(frozen=True)
class QuerySpec:
    """One catalog entry."""

    name: str
    action: str
    source_paper: str
    source: str
    categories: int
    row_encoding: str = "one_hot"
    sensitivity: float = 1.0
    uses_em: bool = True
    paper_lines: int = 0
    #: Extra predefined constants visible to the program.
    constants: Optional[Dict[str, float]] = None

    @property
    def lines(self) -> int:
        """Line count of our formulation (the Table 2 'Lines' column)."""
        return sum(1 for l in self.source.strip().splitlines() if l.strip())

    def environment(
        self,
        num_participants: int = PAPER_N,
        categories: Optional[int] = None,
        epsilon: float = PAPER_EPSILON,
    ) -> QueryEnvironment:
        c = categories if categories is not None else self.categories
        sensitivity = self.sensitivity if self.sensitivity != -1 else float(c)
        element = ValueType("int", Interval(0.0, 1.0))
        if self.row_encoding == "bounded":
            element = ValueType("int", Interval(0.0, 1.0))
        return QueryEnvironment(
            num_participants=num_participants,
            row_width=c,
            db_element=element,
            epsilon=epsilon,
            sensitivity=sensitivity,
            row_encoding=self.row_encoding,
            constants=dict(self.constants or {}),
        )


TOP1 = QuerySpec(
    name="top1",
    action="Most frequent item",
    source_paper="[31]",
    paper_lines=3,
    categories=2**15,
    source="""
aggr = sum(db);
result = em(aggr);
output(result);
""",
)

TOPK = QuerySpec(
    name="topK",
    action="Top-K selection",
    source_paper="[29]",
    paper_lines=8,
    categories=2**15,
    source="""
aggr = sum(db);
k = 5;
winners = em(aggr, 5);
for i = 0 to 4 do
  output(winners[i]);
endfor
""",
)

GAP = QuerySpec(
    name="gap",
    action="Exp. mechanism with gap",
    source_paper="[28]",
    paper_lines=8,
    categories=2**15,
    source="""
aggr = sum(db);
winner = em(aggr);
j = 0;
for i = 0 to len(aggr) - 1 do
  if !(i == winner) then
    rest[j] = aggr[i];
    j = j + 1;
  endif
endfor
gap = laplace(aggr[winner] - max(rest), 2 * sens / epsilon);
output(winner);
output(gap);
""",
)

AUCTION = QuerySpec(
    name="auction",
    action="Unbounded auction",
    source_paper="[45]",
    paper_lines=7,
    categories=2**15,
    sensitivity=-1,  # quality-score sensitivity equals the highest price
    source="""
aggr = sum(db);
c = len(aggr);
acc = 0;
for i = 0 to c - 1 do
  acc = acc + aggr[c - 1 - i];
  rev[c - 1 - i] = acc * (c - i);
endfor
result = em(rev);
output(result);
""",
)

HYPOTEST = QuerySpec(
    name="hypotest",
    action="Hypothesis testing",
    source_paper="[20]",
    paper_lines=12,
    categories=1,
    uses_em=False,
    source="""
aggr = sum(db);
count = aggr[0];
noisy = laplace(count, sens / epsilon);
threshold = N / 2;
reject = 0;
if noisy > threshold then
  reject = 1;
endif
output(reject);
output(noisy);
""",
)

SECRECY = QuerySpec(
    name="secrecy",
    action="Secrecy of sample",
    source_paper="[9]",
    paper_lines=16,
    categories=2**15,
    source="""
sampled = sampleUniform(db, 0.05);
aggr = sum(sampled);
result = em(aggr);
output(result);
""",
)

MEDIAN = QuerySpec(
    name="median",
    action="Median",
    source_paper="[14]",
    paper_lines=39,
    categories=2**15,
    sensitivity=2.0,  # rank distances are computed in doubled units
    source="""
aggr = sum(db);
c = len(aggr);
cum = 0;
for i = 0 to c - 1 do
  lowdist = N + 1 - 2 * (cum + aggr[i]);
  highdist = 2 * cum - (N + 1);
  low = clip(lowdist, 0, 2 * N);
  high = clip(highdist, 0, 2 * N);
  scores[i] = 0 - low - high;
  cum = cum + aggr[i];
endfor
result = em(scores);
output(result);
""",
)

CMS = QuerySpec(
    name="cms",
    action="Count-mean sketch",
    source_paper="[53]",
    paper_lines=5,
    categories=1,
    row_encoding="bounded",
    uses_em=False,
    source="""
aggr = sum(db);
noisy = laplace(aggr[0], sens / epsilon);
output(noisy);
""",
)

BAYES = QuerySpec(
    name="bayes",
    action="Naive Bayes",
    source_paper="[54]",
    paper_lines=16,
    categories=115,
    row_encoding="bounded",
    uses_em=False,
    source="""
aggr = sum(db);
c = len(aggr);
for i = 0 to c - 1 do
  noisy[i] = laplace(aggr[i], c * sens / epsilon);
endfor
for i = 0 to c - 1 do
  output(noisy[i]);
endfor
""",
)

KMEDIANS = QuerySpec(
    name="k-medians",
    action="K-Medians",
    source_paper="[54]",
    paper_lines=30,
    categories=20,  # 10 centers: one count and one coordinate sum each
    row_encoding="bounded",
    uses_em=False,
    constants={"k": 10},
    source="""
aggr = sum(db);
for i = 0 to k - 1 do
  cnt = clip(aggr[i], 1, N);
  coordsum = aggr[k + i];
  noisycnt = laplace(cnt, 2 * k * sens / epsilon);
  noisysum = laplace(coordsum, 2 * k * sens / epsilon);
  den = clip(noisycnt, 1, N);
  center = noisysum / den;
  output(center);
endfor
""",
)

ALL_QUERIES = (
    TOP1,
    TOPK,
    GAP,
    AUCTION,
    HYPOTEST,
    SECRECY,
    MEDIAN,
    CMS,
    BAYES,
    KMEDIANS,
)

BY_NAME: Dict[str, QuerySpec] = {q.name: q for q in ALL_QUERIES}

#: The queries adapted from earlier systems, with their origin (used by the
#: Fig 6-8 comparison bars).
LEGACY_SYSTEMS: Dict[str, str] = {
    "cms": "Honeycrisp",
    "bayes": "Orchard",
    "k-medians": "Orchard",
    "median": "Böhler",
}


def get(name: str) -> QuerySpec:
    if name not in BY_NAME:
        raise KeyError(f"unknown query {name!r}; known: {sorted(BY_NAME)}")
    return BY_NAME[name]
