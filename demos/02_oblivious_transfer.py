"""Walkthrough: the three oblivious-transfer layers.

1. the ideal 1-of-2 box,
2. the unconditional 1-of-c reduction (masked two-row table), and
3. the bounded-storage 1-of-2 protocol: broadcast, sampling, interactive
   hashing, extractor-padded transfer.

Run:  python3 demos/02_oblivious_transfer.py
"""

import random

import numpy as np

from polycommit import PrimeField
from polycommit.ot import (
    IdealOt,
    IntersectionShortfall,
    bs_phase1,
    bs_setpair,
    bs_transfer,
    build_reduction_table,
    make_bs_params,
    ot_c_of_1,
    row_picks,
)

rng = random.Random(11)
f = PrimeField(11)

# --- layer 1: the ideal box ---------------------------------------------
box = IdealOt()
picked = []
for b in (0, 1):
    box.send_pair(b"left", b"rite")
    picked.append(box.receive(b))
print("ideal OT:", *picked)
print("sender trace holds the pairs only:", box.sender_trace)

# --- layer 2: 1-of-c reduction ------------------------------------------
# Three scalar secrets; one mask r0 builds a 2 x 2 table whose columns are
# (a0, r0) and (a1+r0, a2+r0).  Any single row pick per column pins down
# exactly one secret.
secrets = [f.asarray([3]), f.asarray([7]), f.asarray([2])]
table = build_reduction_table(f, secrets, None, masks=[f.asarray([4])])
print("reduction table:", [(int(t[0]), int(b[0])) for t, b in table])
for i in range(3):
    print(f"  picks to learn secret {i}: rows {row_picks(i, 3)}")
for i in range(3):
    got = ot_c_of_1(f, secrets, i, IdealOt(), rng)
    print(f"  1-of-3 transfer for index {i} ->", int(got[0]))

# --- layer 3: bounded storage -------------------------------------------
# The sender broadcasts K > alpha*N random bits; each party keeps
# n = ceil(sqrt(2*ell*N)) of them, so the kept position sets share about
# ell positions.  Interactive hashing narrows subsets of the sender's
# positions to two candidates, of which the receiver knows exactly one.
params = make_bs_params(N=4096, alpha=2.0, ell=16, k=8)
print(
    f"\nbounded-storage parameters: N={params.N} K={params.K} "
    f"n={params.n} ell={params.ell}"
)
attempts = 0
while True:
    attempts += 1
    tape, alice, bob = bs_phase1(params, rng)
    inter = np.intersect1d(alice.indices, bob.indices)
    print(f"attempt {attempts}: stored-set intersection {len(inter)} (target {params.ell})")
    try:
        pair, transcript = bs_setpair(alice, bob, b=1, k=params.k, sender_rng=rng, receiver_rng=rng)
        break
    except IntersectionShortfall:
        continue

print(f"interactive hashing: {len(transcript.rounds)} constraint rounds over "
      f"{transcript.t}-bit encodings, swap bit {transcript.swap}")
print(f"|X0| = {len(pair.x0)}, |X1| = {len(pair.x1)}; receiver knows X{pair.choice}")

m0, m1 = b"attack at dawn!!", b"attack at dusk!!"
got = bs_transfer(m0, m1, pair, alice, bob, rng)
print("receiver decodes:", got)

# The receiver's knowledge of the *other* set is partial; every extractor
# bit touching an unknown tape bit is a coin flip, so the other message
# stays information-theoretically hidden.
other = pair.other()
known = sum(1 for p in other if p in set(bob.indices.tolist()))
print(f"receiver knows {known}/{len(other)} tape bits of the other set")
