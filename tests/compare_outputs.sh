#!/usr/bin/env bash
# Byte-compares the deterministic outputs of two builds: stdout and CSV of
# every bench a behaviour-preserving refactor must leave unchanged, plus the
# failure artifacts of the planted-bug soaks.
#
#   tests/compare_outputs.sh <parent-build> <change-build> [work-dir]
#
# Each build dir is a configured+built tree (cmake -B <dir> -S <checkout>).
# Every case runs at --jobs 4 where the bench takes the flag; stderr (wall
# clock, file paths) is kept but not compared. Outputs land in work-dir
# (default: a fresh mktemp dir). Exits non-zero if any case differs.
set -uo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <parent-build> <change-build> [work-dir]" >&2
  exit 2
fi
parent=$1
change=$2
work=${3:-$(mktemp -d)}
mkdir -p "$work/parent" "$work/change"

failures=0

# run_case NAME CSV BINARY ARGS...
#   CSV = "flag"  -> the bench takes --csv (and chaos_soak --artifact)
#         "none"  -> stdout only
#         a path  -> the bench writes this fixed CSV path; copied after the run
run_case() {
  local name=$1 csv=$2 binary=$3
  shift 3
  local side dir out
  for side in parent change; do
    [[ $side == parent ]] && dir=$parent || dir=$change
    out="$work/$side/$name"
    local args=("$@")
    if [[ $csv == flag ]]; then
      args+=(--csv "$out.csv")
      [[ $binary == chaos_soak ]] && args+=(--artifact "$out.artifact")
    fi
    "$dir/bench/$binary" "${args[@]}" >"$out.stdout" 2>"$out.stderr"
    local status=$?
    echo "exit $status" >>"$out.stdout"
    if [[ $status -eq 2 ]]; then
      echo "$name: $side rejected its arguments (see $out.stderr)" >&2
      failures=$((failures + 1))
    fi
    if [[ $csv != flag && $csv != none ]]; then
      cp "$csv" "$out.csv"
    fi
  done
  local verdict=same
  cmp -s "$work/parent/$name.stdout" "$work/change/$name.stdout" || verdict="stdout DIFFERS"
  if [[ $csv != none ]] && ! cmp -s "$work/parent/$name.csv" "$work/change/$name.csv"; then
    verdict="${verdict/same/} csv DIFFERS"
  fi
  # chaos_soak writes an artifact only when a run fails; compare it whenever
  # the parent wrote one (a missing change-side file differs too).
  if [[ -e "$work/parent/$name.artifact" ]] &&
     ! cmp -s "$work/parent/$name.artifact" "$work/change/$name.artifact"; then
    verdict="${verdict/same/} artifact DIFFERS"
  fi
  printf '%-28s %s\n' "$name" "$verdict"
  [[ $verdict == same ]] || failures=$((failures + 1))
}

run_case fault_campaign flag fault_campaign --jobs 4
run_case chaos_soak flag chaos_soak --runs 200 --jobs 4
run_case chaos_soak_control_plane flag chaos_soak --runs 200 --jobs 4 --control-plane
run_case chaos_soak_reconfigure flag chaos_soak --runs 200 --jobs 4 --reconfigure
run_case chaos_soak_nreplica3 flag chaos_soak --runs 200 --jobs 4 --nreplica 3
run_case chaos_soak_nreplica4 flag chaos_soak --runs 200 --jobs 4 --nreplica 4
run_case chaos_soak_control_demo none chaos_soak --control-demo --jobs 4
run_case chaos_soak_corrupt_after_restart flag chaos_soak --plant-bug corrupt-after-restart --runs 60 --jobs 4
run_case chaos_soak_drop_after_second_restart flag chaos_soak --plant-bug drop-after-second-restart --runs 60 --jobs 4
run_case fleet flag fleet --runs 2 --max-streams 48 --jobs 4
run_case table6_adaptive none table6_adaptive --jobs 4
run_case table7_selective flag table7_selective --jobs 4
for app in adpcm mjpeg h264; do
  run_case "table2_$app" "/tmp/sccft_table2_$app.csv" "table2_$app" --jobs 4
done
run_case ablation_replicas none ablation_replicas

echo "outputs in $work"
if [[ $failures -gt 0 ]]; then
  echo "$failures case(s) differ"
  exit 1
fi
echo "all cases byte-identical"
