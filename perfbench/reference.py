"""Fixed pure-Python reference work, timed between benchmark samples.

It gauges how fast the machine runs Python at that moment: the end-to-end
times are reported relative to it (see README.md).  It imports nothing from
cosec, so a program change cannot move it.  Never edit it: that would change
every relative figure.
"""

import json
import random

rng = random.Random(1)
rows = {}
for i in range(40_000):
    rows[f"k{i}"] = (rng.random(), [i, i + 1], None if i % 3 else str(i))
items = sorted(rows.items(), key=lambda kv: kv[1][0])
text = json.dumps([[k, *v] for k, v in items[:20_000]], indent=2)
