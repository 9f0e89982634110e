#!/bin/sh
# End to end through the installed `scalefit` console script (after
# `pip install .`): generate -> report on an fGn trace, on its
# `aggregate --scale 3` output, on a composite and on a cascade, each
# bundle complete; hurst (both methods), locality (both methods) and
# cumulants on the fGn trace, each exiting 0, and the removed `--levels`
# refused as an unrecognized argument (exit 2);
# then generate -> report once more under SCALEFIT_FIXED_CLOCK=1, twice,
# `diff -r` of the two runs (trace, sidecar and bundle), and the trace's
# sha256 against the pinned FGN_4096_SEED_3 (the fGn stream's bytes, under
# whichever numpy the job installs); last, the fixed-clock composite
# trace's sha256 against MULTIFRACTAL_4096_SEED_3. numpy's stream-
# compatibility policy covers the raw uniforms the fGn is built from, but
# not Generator.beta, which draws the cascade's multipliers, so this pin
# is what checks that stream under each numpy. The `aggregate --scale 3`
# output's sha256 is pinned too (AGGREGATE3_4096_SEED_3): 1365 blocks of
# an odd width, each zero-padded to a 4-wide slot of the TwoSum tree.
# Usage: scripts/console_script_e2e.sh WORKDIR
set -eu
FGN_4096_SEED_3=980278d612b013a865fd9b40d4e353d67f7915d1415d1c7e8dd0867aa78e6370
MULTIFRACTAL_4096_SEED_3=586e8c3df1d8565563786486af29d96ae614f836589265a945e6cdf99d004a7f
AGGREGATE3_4096_SEED_3=89d2a42166e6e9c725cfa6ee901c722722168500e352d3dc99954586e645d3b9
mkdir -p "$1"
cd "$1"
scalefit generate --model fgn --length 4096 --seed 3 --out t.csv
scalefit report t.csv --outdir r
test "$(ls r | wc -l)" -eq 7
scalefit aggregate t.csv --scale 3 --out a.csv
test "$(sha256sum a.csv | cut -d " " -f 1)" = "$AGGREGATE3_4096_SEED_3"
scalefit report a.csv --outdir ra
test "$(ls ra | wc -l)" -eq 7
scalefit generate --model multifractal --length 4096 --seed 3 --cascade-seed 4 --out m.csv
scalefit report m.csv --outdir rm
test "$(ls rm | wc -l)" -eq 7
scalefit generate --model cascade --length 4096 --out c.csv
scalefit report c.csv --outdir rc
test "$(ls rc | wc -l)" -eq 7
scalefit hurst t.csv
scalefit hurst t.csv --method wavelet
scalefit locality t.csv
scalefit locality t.csv --method wavelet
scalefit cumulants t.csv --out k.csv
status=0
scalefit hurst t.csv --method wavelet --levels 3 2> levels.err || status=$?
test "$status" -eq 2
grep -q "unrecognized arguments: --levels 3" levels.err
for run in fixed1 fixed2; do
    mkdir -p "$run"
    SCALEFIT_FIXED_CLOCK=1 scalefit generate --model fgn --length 4096 --seed 3 --out "$run/t.csv"
    SCALEFIT_FIXED_CLOCK=1 scalefit report "$run/t.csv" --outdir "$run/r"
done
test "$(ls fixed1/r | wc -l)" -eq 7
diff -r fixed1 fixed2
test "$(sha256sum fixed1/t.csv | cut -d " " -f 1)" = "$FGN_4096_SEED_3"
SCALEFIT_FIXED_CLOCK=1 scalefit generate --model multifractal --length 4096 --seed 3 --out fixed1/m.csv
test "$(sha256sum fixed1/m.csv | cut -d " " -f 1)" = "$MULTIFRACTAL_4096_SEED_3"
