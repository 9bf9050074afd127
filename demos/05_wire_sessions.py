"""Walkthrough: full two-party sessions over a byte transport.

The prover runs on a worker thread and the verifier on the caller's; they
exchange length-prefixed frames, in-process or over loopback TCP.  With
the bounded-storage backend every OT travels the wire (tape chunks,
interactive-hashing rounds, encoded pairs); transcripts are recorded per
role and are byte-identical across transports under matched seeds.

Run:  python3 demos/05_wire_sessions.py
"""

import collections
import tempfile
from pathlib import Path

from polycommit import PrimeField, make_config
from polycommit.ot import make_bs_params
from polycommit.session import default_queries, honest_coefficients, run_pair
from polycommit.wire import Tag

cfg = make_config(PrimeField(11), d=9, r=2, c=3, xi=6)
coeffs = honest_coefficients(cfg, seed=5)
queries = default_queries(cfg, 5, seed=5)

# --- ideal backend, both transports --------------------------------------
frames = {}
for transport in ("inproc", "tcp"):
    res_p, res_v, outcome = run_pair(
        cfg, coeffs, queries, seed=5, backend="ideal", transport=transport
    )
    frames[transport] = res_v.transcript.frames
    print(f"{transport}: exit ({res_p.exit_code}, {res_v.exit_code}), "
          f"recovered {outcome.recovered}")
print("transcripts byte-identical across transports:",
      frames["inproc"] == frames["tcp"])

# --- bounded-storage backend: all OT on the wire --------------------------
res_p, res_v, outcome = run_pair(
    cfg,
    coeffs,
    queries[:2],
    seed=5,
    backend="bs",
    bs_params=make_bs_params(N=4096, ell=16, k=8),
)
counts = collections.Counter(Tag(t).name for t, _ in res_v.transcript.frames)
print(f"\nbounded-storage session: exit ({res_p.exit_code}, {res_v.exit_code})")
print("frame histogram:", dict(counts))

# --- transcripts on disk ---------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    res_v.transcript.dump(Path(tmp) / "verifier.bin", Path(tmp) / "verifier.idx")
    head = (Path(tmp) / "verifier.idx").read_text().splitlines()[:6]
    print("\ntranscript index head (offset tag length):")
    for line in head:
        print(" ", line)

# --- fault injection --------------------------------------------------------
res_p, res_v, outcome = run_pair(cfg, coeffs, queries, seed=5, tamper=True)
print(f"\ntampered run: verifier exit {res_v.exit_code} "
      f"(5 = reject), rejected points {outcome.rejected}")
