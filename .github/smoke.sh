#!/usr/bin/env bash
# Console-script smoke run: every command once through `tls-scope`, in the
# current directory.  Needs `tls-scope` on PATH and numpy, not pytest or
# scipy, so the test job and the runtime-deps job both run it.
set -euo pipefail

# Run a command that must be refused with exit code $1, without a traceback.
refused() {
    local want=$1 err=$2
    shift 2
    local code=0
    "$@" 2> "$err" || code=$?
    cat "$err"
    test "$code" -eq "$want"
    if grep -q Traceback "$err"; then exit 1; fi
}

tls-scope design --out design
# design reads the sensor by generate's keys; its own old keys are gone.
echo '{"thickness_nm": 100}' > thick.json
tls-scope design --config thick.json --out thick
grep -q '"d_chosen_nm": 100' thick/design_report.json
echo '{"t1_us": 1.0}' > old-t1.json
refused 2 bad.err tls-scope design --config old-t1.json --out bad
grep -q "unknown config keys: \['t1_us'\]" bad.err
test ! -e bad
tls-scope generate --seed 1 --out g
# One line per bias step: the header and 8 segments of 80 steps.
test "$(wc -l < g/dataset.csv)" -eq 641
test "$(head -c 23 g/dataset.csv)" = "segment,control,bias_V,"
tls-scope fit g/dataset.csv --out g

# A dataset of the old one-line-per-cell layout exits 3.
mkdir old
cp g/dataset.csv.meta.json old/
printf 'segment,control,bias_V,freq_GHz,t1_us\n0,global,90.0,5.8,3.5\n' > old/dataset.csv
refused 3 old.err tls-scope fit old/dataset.csv --out old

# A refused setting exits 2 with a message that names the key as written,
# and leaves no output directory.
echo '{"band_ghz": [6.0]}' > short-band.json
refused 2 bad.err tls-scope generate --config short-band.json --out bad
echo '{"f10_ghz": 0}' > no-qubit.json
refused 2 bad.err tls-scope generate --config no-qubit.json --out bad
grep -q "f10_ghz must be strictly positive" bad.err
test ! -e bad
echo '{"v_p_range": [1e300, -30.0]}' > huge-range.json
refused 2 bad.err tls-scope generate --config huge-range.json --out bad
grep -q "v_p_range" bad.err
test ! -e bad
# 1/T1 overflows: the T1 is refused by its key, by generate and design alike.
echo '{"t1_qubit_us": 1e-320}' > tiny-t1.json
for command in generate design; do
    refused 2 bad.err tls-scope "$command" --config tiny-t1.json --out bad
    grep -q "t1_qubit_us must be large enough that 1/t1_qubit is finite" bad.err
    test ! -e bad
done
# The tracking rules are constants, not fit config keys.
echo '{"threshold": 0.3}' > threshold.json
refused 2 bad.err tls-scope fit g/dataset.csv --config threshold.json --out bad
grep -q "unknown config keys: \['threshold'\]" bad.err
test ! -e bad

# Three crossing panels of an interacting pair, built with numpy alone.
python - <<'PY'
import json, pathlib
import numpy as np
from tls_scope import dataio
from tls_scope.coupled import CoupledPair
from tls_scope.spectro import coupled_pair_t1_map
from tls_scope.stm import TlsParams
tls1 = TlsParams(delta0=5.957, gamma_p=0.022, gamma_s=161.95, p_parallel=0.335)
tls2 = TlsParams(delta0=5.44, eps_i=2.55, gamma_p=0.01, gamma_s=92.25, p_parallel=0.191)
pair = CoupledPair(tls1, tls2, g_z=15.0, g_x=-25.0)
out = pathlib.Path("c")
out.mkdir()
panels = []
for k, v_p in enumerate((-4.0, 0.0, 4.0)):
    ds = coupled_pair_t1_map(pair, np.linspace(-2.4e-3, 2.4e-3, 80), v_p,
                             np.arange(5.90, 6.06, 0.001), field_rms=90.0,
                             gamma1_background=1 / 4.3, noise_sigma=0.1, seed=1 + k)
    panels.append(str(out / f"panel_{k}.csv"))
    dataio.write_dataset(ds, panels[-1])
(out / "coupled.json").write_text(json.dumps(
    {"panels": panels, "tls1": tls1.to_dict(), "tls2": tls2.to_dict()}))
PY
tls-scope coupled --config c/coupled.json --out c
test "$(head -n 1 c/crossing_panel_0.csv)" = \
    "bias_V,transition1_GHz,transition2_GHz,model1_GHz,model2_GHz"
# A TLS field that is not a JSON number exits 2 and names the field.
python - <<'PY'
import json, pathlib
cfg = json.loads(pathlib.Path("c/coupled.json").read_text())
cfg["tls1"]["gamma_s"] = "x"
pathlib.Path("bad-tls.json").write_text(json.dumps(cfg))
PY
refused 2 bad.err tls-scope coupled --config bad-tls.json --out bad
grep -q "'tls1': gamma_s must be a number" bad.err
test ! -e bad
# Hand-written TLS records need no schema_version; a sidecar NaN exits 3.
python - <<'PY'
import json, pathlib, shutil
cfg = json.loads(pathlib.Path("c/coupled.json").read_text())
nan = pathlib.Path("nan")
nan.mkdir()
shutil.copy(cfg["panels"][0], nan / "panel.csv")
meta = json.loads(pathlib.Path(cfg["panels"][0] + ".meta.json").read_text())
meta["segments"][0]["held"]["v_p"] = float("nan")
(nan / "panel.csv.meta.json").write_text(json.dumps(meta))
pathlib.Path("nan-panel.json").write_text(json.dumps({**cfg, "panels": ["nan/panel.csv"]}))
for key in ("tls1", "tls2"):
    del cfg[key]["schema_version"]
pathlib.Path("no-version.json").write_text(json.dumps(cfg))
PY
tls-scope coupled --config no-version.json --out nv
test -s nv/coupled_fit.json
refused 3 bad.err tls-scope coupled --config nan-panel.json --out bad
grep -q "panel.csv.meta.json: holds a number that is not finite" bad.err
test ! -e bad

# A removed command exits 2 with argparse's refusal.
refused 2 gone.err tls-scope plotdata

python - design thick g c <<'PY'
import json, pathlib, sys
def refuse(constant):
    raise ValueError(f"non-finite number {constant}")
paths = sorted(p for d in sys.argv[1:] for p in pathlib.Path(d).rglob("*.json"))
for path in paths:
    try:
        json.loads(path.read_text(), parse_constant=refuse)
    except ValueError as exc:
        sys.exit(f"{path}: {exc}")
print(f"{len(paths)} JSON files, no NaN or Infinity")
PY
