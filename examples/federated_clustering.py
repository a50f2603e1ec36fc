#!/usr/bin/env python3
"""Multi-round federated k-medians clustering (the Orchard workload).

Orchard's k-medians query runs for several rounds: each round, every
device assigns its point to the nearest current center and uploads a
(one-hot assignment || coordinate contribution) row; the aggregator sums
the rows homomorphically, a committee noises the per-cluster counts and
coordinate sums, and the analyst updates the centers. This example drives
the whole loop through an :class:`~repro.session.AnalyticsSession`, so the
privacy budget is split across rounds and the sortition state chains from
round to round — ending, as every session does, with the committee
refusing once the budget runs dry.

The per-round ε here is demo-sized (a 60-device cohort needs little noise
to stay legible); at deployment scale the same query runs at ε = 0.1 with
a billion devices drowning out the noise.

Run:  python examples/federated_clustering.py
"""

import random

from repro.runtime.network import FederatedNetwork
from repro.runtime.executor import QueryRejected
from repro.session import AnalyticsSession

K = 3  # clusters
SCALE = 20  # coordinates live in [0, SCALE)
ROUNDS = 3
EPSILON_PER_ROUND = 24.0
TRUE_CENTERS = [3, 10, 17]

# Round query: per cluster, release a noised count and coordinate sum.
# Conservative certification charges each release by the element range
# (SCALE-1), so scaling the noise by 2*K*SCALE keeps a round at ~epsilon.
QUERY = f"""
aggr = sum(db);
for i = 0 to {K - 1} do
  cnt = clip(aggr[i], 1, N);
  coord = aggr[{K} + i];
  noisycnt = laplace(cnt, 2 * {K} * {SCALE} * sens / epsilon);
  noisysum = laplace(coord, 2 * {K} * {SCALE} * sens / epsilon);
  den = clip(noisycnt, 1, N);
  output(noisysum / den);
endfor
"""


def make_population(rng, devices):
    """1-D points in three blobs around the true centers.

    Returns the network and the devices' private points, device
    ``device_id``'s at index ``device_id - 1``.
    """
    network = FederatedNetwork(devices, rng=rng)
    points = []
    for device in network.devices:
        center = TRUE_CENTERS[device.device_id % 3]
        point = round(rng.gauss(center, 1.5))
        points.append(max(0, min(SCALE - 1, point)))
    return network, points


def encode_round(network, points, centers):
    """Each device locally assigns itself to the nearest center and
    prepares its (assignment one-hot || coordinate) row."""
    for device in network.devices:
        point = points[device.device_id - 1]
        nearest = min(range(K), key=lambda i: abs(point - centers[i]))
        row = [0] * (2 * K)
        row[nearest] = 1
        row[K + nearest] = point
        device.value = row


def main() -> None:
    rng = random.Random(2023)
    network, points = make_population(rng, devices=60)
    session = AnalyticsSession(
        network,
        epsilon_budget=ROUNDS * EPSILON_PER_ROUND,
        epsilon_per_query=EPSILON_PER_ROUND,
        rng=rng,
    )
    centers = [1.0, 8.0, 12.0]  # deliberately poor initialization
    print(f"initial centers: {[f'{c:.1f}' for c in centers]}")

    for round_number in range(ROUNDS + 1):  # one more than the budget allows
        encode_round(network, points, centers)
        try:
            result = session.ask(
                QUERY,
                categories=2 * K,
                name=f"kmedians-round-{round_number}",
                sensitivity=1.0,
                row_encoding="bounded",
                value_range=(0, SCALE - 1),
            )
        except QueryRejected:
            print(
                f"round {round_number}: REFUSED — privacy budget exhausted "
                f"(ε left: {session.remaining_epsilon():.2f})"
            )
            break
        centers = sorted(float(c) for c in result.outputs)
        print(
            f"round {round_number}: centers -> "
            f"{[f'{c:.1f}' for c in centers]}  "
            f"(ε left: {session.remaining_epsilon():.1f})"
        )

    print()
    print(f"true blob centers: {TRUE_CENTERS}")
    drift = sum(abs(a - b) for a, b in zip(sorted(centers), TRUE_CENTERS)) / K
    print(f"mean center error after {session.queries_answered} rounds: {drift:.1f}")


if __name__ == "__main__":
    main()
