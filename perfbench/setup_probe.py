"""Set-up probe: a fresh interpreter imports padicdisc and builds fields.

Usage: python3 setup_probe.py SRC_DIR FIELDS_JSON
Prints the seconds from the import to the last field built, unscaled and
scaled to the nominal host speed by reference samples taken in this process
just before and just after.
"""

import json
import sys
import time

import hostspeed

clock = hostspeed.HostClock()
for _ in range(5):
    clock.sample()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from padicdisc import cli, jsonio  # noqa: E402

for field_spec in json.loads(sys.argv[2]):
    jsonio.field_from_json(field_spec)
elapsed = time.perf_counter() - start
for _ in range(5):
    clock.sample()
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit("padicdisc imported from %s, not from %s" % (cli.__file__, sys.argv[1]))
print(repr(elapsed), repr(elapsed * hostspeed.scale_of(clock.durations)))
