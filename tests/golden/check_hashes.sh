#!/bin/sh
# Check the installed ris-vlc command against the golden hashes: run the
# bundled figures into OUT/figs and every scenario under
# tests/golden/scenarios into OUT/golden, then `sha256sum -c` each against
# its list.  Exits non-zero on the first artifact that differs.
#
# Usage: tests/golden/check_hashes.sh OUT
set -eu
golden=$(cd "$(dirname "$0")" && pwd)
out=$1
ris-vlc figures --out "$out/figs" --quiet
(cd "$out/figs" && sha256sum -c "$golden/bundled_sha256.txt")
for scenario in "$golden"/scenarios/*.json; do
  mode=$(python -c "import sys; from ris_vlc.scenario import load_scenario; print(load_scenario(sys.argv[1]).mode)" "$scenario")
  ris-vlc "$mode" --scenario "$scenario" --out "$out/golden" --quiet
done
(cd "$out/golden" && sha256sum -c "$golden/scenarios_sha256.txt")
